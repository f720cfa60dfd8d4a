//! Differential harness for the serving registry: a [`Registry`] must
//! answer **bit-identically** to a plain [`Engine::impute_batch`], for
//! every index mode.
//!
//! The registry serves through one prepared engine, so the equality
//! holds by construction; this suite pins it so the registry's locking
//! and durable layout can never leak into answers. It sweeps {scan,
//! indexed} on the paper's Restaurant stand-in, the 5 000-row synthetic
//! shop fixture, and randomly generated relations.
//!
//! Ingest is covered too: committing the repaired batch through the
//! registry must leave it answering the *next* batch exactly like the
//! grown engine — also after compaction and a cold reopen from the
//! durable layout.
//!
//! Comparisons canonicalize through `Debug` text (as the other
//! differential suites do) so NaN distances compare equal to themselves.
//! Equality is asserted for unlimited budgets with `parallelism: 1` —
//! the scope every differential suite in this repo pins.

use proptest::prelude::*;

use renuver::core::{BatchResult, Engine, IndexMode, RenuverConfig};
use renuver::data::{AttrType, Relation, Schema, Tuple, Value};
use renuver::datasets::Dataset;
use renuver::eval::inject;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::{Constraint, Rfd, RfdSet};
use renuver::serve::{artifact, DurabilityOptions, Registry};
use renuver_bench::synthetic_shops;

fn config(mode: IndexMode) -> RenuverConfig {
    RenuverConfig {
        parallelism: 1,
        index_mode: mode,
        explain: true,
        ..RenuverConfig::default()
    }
}

/// Everything decision-relevant in a batch result (the budget report is
/// excluded: elapsed time differs between identical runs).
fn canon_batch(r: &BatchResult) -> String {
    format!("{:?}|{:?}|{:?}|{:?}|{:?}", r.tuples, r.outcomes, r.imputed, r.explains, r.stats)
}

/// Splits the last `k` rows of `rel` off as the request batch.
fn split(rel: &Relation, k: usize) -> (Relation, Vec<Tuple>) {
    let base_len = rel.len() - k;
    let mut base = rel.clone();
    base.truncate(base_len);
    let batch = (base_len..rel.len()).map(|i| rel.tuple(i).clone()).collect();
    (base, batch)
}

fn served(reg: &Registry, batch: &[Tuple]) -> BatchResult {
    let snap = reg.snapshot();
    snap.impute(batch.to_vec(), &snap.config).expect("valid batch")
}

/// Runs a plain engine and a registry on the same batch and asserts
/// byte-identity; returns the engine's result.
fn assert_registry_matches(
    base: &Relation,
    batch: &[Tuple],
    sigma: &RfdSet,
    mode: IndexMode,
) -> BatchResult {
    let cfg = config(mode);
    let mut engine = Engine::prepare(base.clone(), sigma.clone(), cfg.clone());
    let single = engine.impute_batch(batch.to_vec()).expect("single-engine batch");
    let reg = Registry::build(base, sigma.clone(), cfg.clone(), 1);
    assert_eq!(reg.rows(), base.len());
    let got = served(&reg, batch);
    assert_eq!(
        canon_batch(&got),
        canon_batch(&single),
        "registry diverged from the engine (mode={mode:?})"
    );
    single
}

// ------------------------------------------------------------- restaurant

fn restaurant_fixture() -> (Relation, Vec<Tuple>, RfdSet) {
    let rel = Dataset::Restaurant.relation(7);
    let sigma = discover(&rel, &DiscoveryConfig::with_limit(3.0));
    let (incomplete, _truth) = inject(&rel, 0.05, 11);
    let (base, batch) = split(&incomplete, 24);
    (base, batch, sigma)
}

#[test]
fn restaurant_registry_matches_single_engine() {
    let (base, batch, sigma) = restaurant_fixture();
    assert!(batch.iter().any(|t| t.iter().any(|v| v.is_null())), "batch must contain holes");
    for mode in [IndexMode::Scan, IndexMode::Indexed] {
        let single = assert_registry_matches(&base, &batch, &sigma, mode);
        assert!(single.stats.missing_total > 0, "fixture imputed nothing");
        assert!(single.stats.imputed > 0, "fixture imputed nothing");
    }
}

#[test]
fn restaurant_ingest_registry_matches_single_engine() {
    let (base, batch, sigma) = restaurant_fixture();
    // Two consecutive batches: the first is committed, the second must
    // see the grown donor set — including the first batch's repairs —
    // identically on both paths.
    let (batch1, batch2) = batch.split_at(batch.len() / 2);
    let cfg = config(IndexMode::Indexed);
    let mut engine = Engine::prepare(base.clone(), sigma.clone(), cfg.clone());
    let (r1, commit) = engine.ingest_batch_with(batch1.to_vec(), &cfg).expect("ingest");
    assert_eq!(commit.rows, batch1.len());
    let r2 = engine.impute_batch(batch2.to_vec()).expect("post-ingest batch");

    let reg = Registry::build(&base, sigma.clone(), cfg.clone(), 1);
    let s1 = reg.ingest(batch1.to_vec(), &cfg).expect("registry ingest");
    assert_eq!(canon_batch(&s1.batch), canon_batch(&r1), "ingest impute diverged");
    assert_eq!(reg.rows(), base.len() + batch1.len());
    let s2 = served(&reg, batch2);
    assert_eq!(canon_batch(&s2), canon_batch(&r2), "post-commit batch diverged");
}

#[test]
fn restaurant_recovered_registry_matches_grown_engine() {
    let (base, batch, sigma) = restaurant_fixture();
    let third = batch.len() / 3;
    let (batch1, rest) = batch.split_at(third);
    let (batch2, batch3) = rest.split_at(third);
    let cfg = config(IndexMode::Indexed);

    // The reference: one engine grown by the same two commits.
    let mut engine = Engine::prepare(base.clone(), sigma.clone(), cfg.clone());
    let (r1, _) = engine.ingest_batch_with(batch1.to_vec(), &cfg).expect("ingest 1");
    let (r2, _) = engine.ingest_batch_with(batch2.to_vec(), &cfg).expect("ingest 2");
    let want = canon_batch(&engine.impute_batch(batch3.to_vec()).expect("probe"));

    let dir = std::env::temp_dir()
        .join(format!("renuver-registry-differential-{}", std::process::id()))
        .join("reopen");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.rnv");
    let prepared = Engine::prepare(base.clone(), sigma.clone(), cfg.clone());
    std::fs::write(&model, artifact::encode_engine(&prepared, "differential", 0)).unwrap();
    let open = || {
        let opts = DurabilityOptions::beside(&model, "differential");
        Registry::open_durable(
            artifact::load(&model).unwrap(),
            cfg.clone(),
            1,
            opts.layout,
            "differential",
            opts.compact_bytes,
            opts.compact_records,
        )
        .expect("open durable registry")
    };

    // Batch 1 is folded into the snapshot, batch 2 stays in the log: the
    // reopen reads the snapshot and replays the tail.
    let (reg, _) = open();
    let s1 = reg.ingest(batch1.to_vec(), &cfg).expect("registry ingest 1");
    assert_eq!(canon_batch(&s1.batch), canon_batch(&r1));
    reg.compact().expect("compact");
    let s2 = reg.ingest(batch2.to_vec(), &cfg).expect("registry ingest 2");
    assert_eq!(canon_batch(&s2.batch), canon_batch(&r2));
    drop(reg);

    let (reg, report) = open();
    assert_eq!((report.seq, report.replayed), (2, 1));
    assert_eq!(
        reg.lock_engine().relation().tuples().collect::<Vec<_>>(),
        engine.relation().tuples().collect::<Vec<_>>(),
        "recovered rows out of global order"
    );
    assert_eq!(
        canon_batch(&served(&reg, batch3)),
        want,
        "recovered registry diverged from the grown engine"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------- 5 k synthetic

fn synthetic_fixture() -> (Relation, Vec<Tuple>, RfdSet) {
    let rel = synthetic_shops(5_000);
    let sigma = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\n\
         Zip(<=0) -> City(<=3)\n\
         Name(<=1) -> City(<=3)\n\
         Zip(<=0) -> Class(<=8)",
        rel.schema(),
    )
    .unwrap();
    let (incomplete, _truth) = inject(&rel, 0.002, 23);
    let (base, batch) = split(&incomplete, 16);
    (base, batch, sigma)
}

#[test]
fn synthetic_5k_registry_matches_single_engine() {
    let (base, batch, sigma) = synthetic_fixture();
    for mode in [IndexMode::Scan, IndexMode::Indexed] {
        assert_registry_matches(&base, &batch, &sigma, mode);
    }
}

#[test]
fn synthetic_5k_ingest_registry_matches_single_engine() {
    let (base, batch, sigma) = synthetic_fixture();
    let cfg = config(IndexMode::Indexed);
    let mut engine = Engine::prepare(base.clone(), sigma.clone(), cfg.clone());
    let (r1, _) = engine.ingest_batch_with(batch.clone(), &cfg).expect("ingest");
    let probe = vec![vec![
        Value::from("Shop-0007"),
        Value::from("City07"),
        Value::Null,
        Value::Int(3),
    ]];
    let r2 = engine.impute_batch(probe.clone()).expect("probe");

    let reg = Registry::build(&base, sigma.clone(), cfg.clone(), 1);
    let s1 = reg.ingest(batch.clone(), &cfg).expect("registry ingest");
    assert_eq!(canon_batch(&s1.batch), canon_batch(&r1));
    let s2 = served(&reg, &probe);
    assert_eq!(canon_batch(&s2), canon_batch(&r2), "post-commit probe");
}

// ----------------------------------------------------- random (proptest)

/// Small random relations biased toward value collisions (the
/// `index_differential` generator, minus NaN *thresholds* — hand-written
/// rule pathology out of scope for this suite; NaN *data* stays in).
fn arb_relation() -> impl Strategy<Value = Relation> {
    let col_types = prop::collection::vec(
        prop_oneof![Just(AttrType::Int), Just(AttrType::Float), Just(AttrType::Text)],
        2..5,
    );
    (col_types, 4usize..14).prop_flat_map(|(types, rows)| {
        let schema =
            Schema::new(types.iter().enumerate().map(|(i, t)| (format!("c{i}"), *t)))
                .expect("generated names are distinct");
        let cell = |ty: AttrType| -> BoxedStrategy<Value> {
            match ty {
                AttrType::Int => prop_oneof![
                    1 => Just(Value::Null),
                    6 => (-3i64..4).prop_map(Value::Int),
                ]
                .boxed(),
                AttrType::Float => prop_oneof![
                    1 => Just(Value::Null),
                    5 => (-2.0f64..2.0).prop_map(|f| Value::Float((f * 2.0).round() / 2.0)),
                    1 => Just(Value::Float(f64::NAN)),
                    1 => Just(Value::Float(f64::INFINITY)),
                ]
                .boxed(),
                _ => prop_oneof![
                    1 => Just(Value::Null),
                    6 => "[ab]{0,3}".prop_map(Value::from),
                    1 => Just(Value::Text("αβ".into())),
                ]
                .boxed(),
            }
        };
        let cells: Vec<BoxedStrategy<Value>> = types.iter().map(|t| cell(*t)).collect();
        let row = BoxedStrategy::new(move |rng| {
            cells.iter().map(|s| s.generate(rng)).collect::<Vec<Value>>()
        });
        prop::collection::vec(row, rows..rows + 1).prop_map(move |tuples| {
            Relation::new(schema.clone(), tuples).expect("tuples match the schema")
        })
    })
}

/// Random RFD sets over `arity` attributes with finite thresholds.
fn arb_rfds(arity: usize) -> BoxedStrategy<RfdSet> {
    let thr = prop_oneof![Just(0.0f64), Just(1.0), Just(2.0), Just(5.0), Just(f64::INFINITY)];
    let rfd = (0..arity, 0..arity, thr.clone(), thr).prop_map(move |(lhs, rhs, lhs_thr, rhs_thr)| {
        let lhs = if lhs == rhs { (lhs + 1) % arity } else { lhs };
        Rfd::new(vec![Constraint::new(lhs, lhs_thr)], Constraint::new(rhs, rhs_thr))
    });
    prop::collection::vec(rfd, 1..5).prop_map(RfdSet::from_vec).boxed()
}

fn cases(default_cases: u32) -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(n)
}

proptest! {
    #![proptest_config(cases(64))]

    /// Random relation, random RFDs and index mode: registry impute ==
    /// engine impute, and after committing the repaired batch, a re-run
    /// of the same batch still matches the grown engine.
    #[test]
    fn random_registry_matches_single(
        input in arb_relation().prop_flat_map(|rel| {
            let arity = rel.arity();
            (Just(rel), arb_rfds(arity), any::<bool>())
        }),
    ) {
        let (rel, sigma, indexed) = input;
        let k = (rel.len() / 3).max(1);
        let (base, batch) = split(&rel, k);
        let mode = if indexed { IndexMode::Indexed } else { IndexMode::Scan };
        let cfg = config(mode);

        let mut engine = Engine::prepare(base.clone(), sigma.clone(), cfg.clone());
        let single = engine.impute_batch(batch.clone()).expect("single-engine batch");
        let reg = Registry::build(&base, sigma.clone(), cfg.clone(), 1);
        let got = served(&reg, &batch);
        prop_assert_eq!(canon_batch(&got), canon_batch(&single));

        // Ingest equivalence on the same random input.
        engine.commit_tuples(single.tuples.clone()).expect("commit");
        let single_again = engine.impute_batch(batch.clone()).expect("post-commit batch");
        let committed = reg.ingest(batch.clone(), &cfg).expect("registry ingest");
        prop_assert_eq!(canon_batch(&committed.batch), canon_batch(&got));
        let got_again = served(&reg, &batch);
        prop_assert_eq!(canon_batch(&got_again), canon_batch(&single_again));
    }
}
