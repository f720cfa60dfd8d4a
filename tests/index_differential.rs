//! Differential harness: the index-accelerated paths must be bit-for-bit
//! identical to the naive reference scans.
//!
//! The [`renuver::distance::SimilarityIndex`] only *prunes which rows
//! receive the exact distance check* — candidate generation, key
//! detection, and verification all re-apply the same predicates the scan
//! does (the superset contract; see `renuver_distance::index`). These
//! tests pin that contract at three levels:
//!
//! 1. **Unit-differential** — candidate sets and `VerifyPlan` admit
//!    decisions compared pairwise between scan and index on randomly
//!    generated relations and RFD sets.
//! 2. **End-to-end** — full [`ImputationResult`]s (repaired relation,
//!    imputed cells, per-cell outcomes, stats, trace) compared across
//!    `IndexMode::{Scan, Indexed, Auto}` on random inputs, on the paper's
//!    restaurant and bridges stand-ins, and on a 5 000-row synthetic.
//! 3. **Regression corpus** — adversarial inputs that stress the index's
//!    edge handling (NaN/infinite thresholds, NaN data, unicode, empty
//!    strings, imputation-introduced out-of-dictionary values), kept as
//!    deterministic cases.
//!
//! Budget-limited runs are exempt from cross-mode equality — the two
//! paths hit different checkpoint counts, so a tripped budget truncates
//! them at different cells by design. For those, only the accounting
//! invariants are asserted (see the degradation section).

use proptest::prelude::*;

use renuver::budget::{Budget, ManualClock};
use renuver::core::{
    find_candidate_tuples, find_candidate_tuples_with, ImputationResult, IndexMode, Renuver,
    RenuverConfig, VerifyPlan, VerifyScope,
};
use renuver::data::{AttrType, Relation, Schema, Value};
use renuver::datasets::Dataset;
use renuver::distance::{DistanceOracle, SimilarityIndex};
use renuver::eval::inject;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::{Constraint, Rfd, RfdSet};

/// Matches the engine's dictionary-matrix cap (algorithm.rs).
const ORACLE_CAP: usize = 3000;

fn run_mode(rel: &Relation, sigma: &RfdSet, mode: IndexMode) -> ImputationResult {
    let cfg = RenuverConfig {
        parallelism: 1,
        trace: true,
        index_mode: mode,
        ..RenuverConfig::default()
    };
    Renuver::new(cfg).impute(rel, sigma)
}

/// Canonical rendering of everything decision-relevant in a result: the
/// repaired relation, imputed cells, outcomes, stats, and trace — but not
/// the budget report (elapsed time and checkpoint counts legitimately
/// differ between modes). Comparing the `Debug` text instead of deriving
/// `PartialEq` makes NaN thresholds compare equal to themselves: a run
/// imputing via an RFD with a NaN threshold is still *identical* across
/// modes even though `NaN != NaN` under IEEE comparison.
fn canon(r: &ImputationResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        r.relation, r.imputed, r.unimputed, r.outcomes, r.stats, r.trace
    )
}

/// Asserts all three index modes produce the same result and returns it.
fn assert_modes_agree(rel: &Relation, sigma: &RfdSet) -> ImputationResult {
    let scan = run_mode(rel, sigma, IndexMode::Scan);
    let indexed = run_mode(rel, sigma, IndexMode::Indexed);
    assert_eq!(canon(&scan), canon(&indexed), "indexed run diverged from scan");
    let auto = run_mode(rel, sigma, IndexMode::Auto);
    assert_eq!(canon(&scan), canon(&auto), "auto run diverged from scan");
    scan
}

// ----------------------------------------------------- random generators

/// Small random relations biased toward value collisions, so RFDs with
/// tight thresholds actually have satisfying pairs and candidate sets are
/// non-trivial. Nulls appear everywhere; floats include NaN and infinity.
fn arb_relation() -> impl Strategy<Value = Relation> {
    let col_types = prop::collection::vec(
        prop_oneof![
            Just(AttrType::Int),
            Just(AttrType::Float),
            Just(AttrType::Text),
        ],
        2..5,
    );
    (col_types, 2usize..14).prop_flat_map(|(types, rows)| {
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("c{i}"), *t)),
        )
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

/// Random RFD sets over `arity` attributes, thresholds drawn to include
/// the index's hard cases: exact match, small bands, NaN, infinity.
fn arb_rfds(arity: usize) -> BoxedStrategy<RfdSet> {
    let thr = prop_oneof![
        Just(0.0f64),
        Just(1.0),
        Just(2.0),
        Just(5.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
    ];
    let rfd = (0..arity, 0..arity, thr.clone(), thr).prop_map(
        move |(lhs, rhs, lhs_thr, rhs_thr)| {
            let lhs = if lhs == rhs { (lhs + 1) % arity } else { lhs };
            Rfd::new(vec![Constraint::new(lhs, lhs_thr)], Constraint::new(rhs, rhs_thr))
        },
    );
    prop::collection::vec(rfd, 1..5).prop_map(RfdSet::from_vec).boxed()
}

/// Per-suite case count, overridable by `PROPTEST_CASES` so CI can pin a
/// small, reproducible count without editing this file.
fn cases(default_cases: u32) -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(n)
}

// ------------------------------------------------ unit-level differential

proptest! {
    #![proptest_config(cases(96))]

    /// Candidate generation: for every missing cell and the full RFD set
    /// as one cluster, the indexed donor retrieval must yield exactly the
    /// scan's ranked candidate list.
    #[test]
    fn candidate_sets_match_scan(
        input in arb_relation().prop_flat_map(|rel| {
            let arity = rel.arity();
            (Just(rel), arb_rfds(arity))
        }),
    ) {
        let (rel, sigma) = input;
        let oracle = DistanceOracle::build(&rel, ORACLE_CAP);
        let index = SimilarityIndex::build(&rel, &oracle);
        for row in 0..rel.len() {
            for attr in 0..rel.arity() {
                if !rel.is_missing(row, attr) {
                    continue;
                }
                let cluster: Vec<&Rfd> =
                    sigma.iter().filter(|r| r.rhs_attr() == attr).collect();
                if cluster.is_empty() {
                    continue;
                }
                let scan = find_candidate_tuples(&oracle, &rel, row, attr, &cluster);
                let fast =
                    find_candidate_tuples_with(&oracle, Some(&index), &rel, row, attr, &cluster);
                prop_assert_eq!(scan, fast, "cell ({}, {})", row, attr);
            }
        }
    }

    /// Verification: the indexed-built plan must admit exactly the donors
    /// the scan-built plan admits, for both verify scopes.
    #[test]
    fn verify_admits_match_scan(
        input in arb_relation().prop_flat_map(|rel| {
            let arity = rel.arity();
            (Just(rel), arb_rfds(arity))
        }),
    ) {
        let (rel, sigma) = input;
        let oracle = DistanceOracle::build(&rel, ORACLE_CAP);
        let index = SimilarityIndex::build(&rel, &oracle);
        for row in 0..rel.len() {
            for attr in 0..rel.arity() {
                if !rel.is_missing(row, attr) {
                    continue;
                }
                for scope in [VerifyScope::LhsOnly, VerifyScope::Full] {
                    let scan =
                        VerifyPlan::build(&oracle, &rel, row, attr, sigma.iter(), scope);
                    let fast = VerifyPlan::build_with(
                        &oracle, Some(&index), &rel, row, attr, sigma.iter(), scope,
                    );
                    for donor in 0..rel.len() {
                        if rel.is_missing(donor, attr) {
                            continue;
                        }
                        prop_assert_eq!(
                            scan.admits(&oracle, &rel, attr, donor),
                            fast.admits(&oracle, &rel, attr, donor),
                            "cell ({}, {}), donor {}, scope {:?}",
                            row, attr, donor, scope
                        );
                    }
                }
            }
        }
    }
}

// ------------------------------------------------- end-to-end differential

proptest! {
    #![proptest_config(cases(64))]

    /// The headline guarantee: full imputation runs make identical
    /// decisions in every index mode.
    #[test]
    fn imputation_results_match_scan(
        input in arb_relation().prop_flat_map(|rel| {
            let arity = rel.arity();
            (Just(rel), arb_rfds(arity))
        }),
    ) {
        let (rel, sigma) = input;
        let scan = run_mode(&rel, &sigma, IndexMode::Scan);
        let indexed = run_mode(&rel, &sigma, IndexMode::Indexed);
        prop_assert_eq!(canon(&scan), canon(&indexed));
        prop_assert_eq!(
            scan.stats.imputed + scan.stats.unimputed,
            scan.stats.missing_total
        );
    }
}

#[test]
fn restaurant_sample_identical_across_modes() {
    let rel = Dataset::Restaurant.relation(11);
    let (incomplete, _truth) = inject(&rel, 0.03, 11);
    let sigma = discover(
        &incomplete,
        &DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(6.0) },
    );
    let result = assert_modes_agree(&incomplete, &sigma);
    assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
}

#[test]
fn bridges_sample_identical_across_modes() {
    // 108 rows: below AUTO_MIN_ROWS, so Auto takes the scan path and the
    // Indexed mode is the one actually exercising the index here.
    let rel = Dataset::Bridges.relation(7);
    let (incomplete, _truth) = inject(&rel, 0.05, 7);
    let sigma = discover(
        &incomplete,
        &DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(6.0) },
    );
    let result = assert_modes_agree(&incomplete, &sigma);
    assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
}

/// Mirrors `tests/parallel_determinism.rs`: 5 000 rows, high-cardinality
/// text columns, planted RFDs — large enough that the index build and all
/// three query paths (candidates, keys, verification) run in earnest.
fn synthetic_5k() -> (Relation, RfdSet) {
    let schema = Schema::new([
        ("Name", AttrType::Text),
        ("City", AttrType::Text),
        ("Zip", AttrType::Text),
        ("Class", AttrType::Int),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..5_000usize)
        .map(|i| {
            let city_id = i % 40;
            vec![
                Value::from(format!("Shop-{:04}", i % 800).as_str()),
                Value::from(format!("City{city_id:02}").as_str()),
                Value::from(format!("9{:04}", city_id * 7).as_str()),
                Value::Int((i % 9) as i64),
            ]
        })
        .collect();
    let rel = Relation::new(schema, rows).unwrap();
    let sigma = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\n\
         Zip(<=1) -> City(<=3)\n\
         Name(<=3) -> City(<=6)\n\
         Zip(<=0) -> Class(<=8)",
        rel.schema(),
    )
    .unwrap();
    (rel, sigma)
}

#[test]
fn synthetic_5k_identical_across_modes() {
    let (rel, sigma) = synthetic_5k();
    let (incomplete, truth) = inject(&rel, 0.002, 23);
    assert!(truth.len() > 10, "fixture should knock out a few dozen cells");
    let result = assert_modes_agree(&incomplete, &sigma);
    assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
}

// -------------------------------------------------------- regression corpus
//
// Deterministic adversarial cases. None of these ever diverged during
// development, but each targets an edge the random generators only rarely
// hit; keeping them explicit makes a future divergence reproducible
// without a proptest seed.

fn text_relation(cols: &[(&str, &[&str])]) -> Relation {
    let schema =
        Schema::new(cols.iter().map(|(n, _)| ((*n).to_owned(), AttrType::Text))).unwrap();
    let rows = cols[0].1.len();
    let tuples: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            cols.iter()
                .map(|(_, vals)| match vals[i] {
                    "_" => Value::Null,
                    v => Value::from(v),
                })
                .collect()
        })
        .collect();
    Relation::new(schema, tuples).unwrap()
}

#[test]
fn regression_nan_and_infinite_thresholds() {
    let rel = text_relation(&[
        ("A", &["x", "x", "y", "y"]),
        ("B", &["p", "_", "q", "_"]),
    ]);
    for (lhs_thr, rhs_thr) in [
        (f64::NAN, 0.0),
        (0.0, f64::NAN),
        (f64::INFINITY, 0.0),
        (0.0, f64::INFINITY),
        (f64::INFINITY, f64::INFINITY),
        (-1.0, 0.0),
    ] {
        let sigma = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, lhs_thr)],
            Constraint::new(1, rhs_thr),
        )]);
        assert_modes_agree(&rel, &sigma);
    }
}

#[test]
fn regression_nan_and_infinite_numeric_values() {
    let schema =
        Schema::new([("N", AttrType::Float), ("B", AttrType::Text)]).unwrap();
    let rel = Relation::new(
        schema,
        vec![
            vec![Value::Float(1.0), Value::Text("p".into())],
            vec![Value::Float(f64::NAN), Value::Text("p".into())],
            vec![Value::Float(f64::INFINITY), Value::Text("q".into())],
            vec![Value::Float(-0.0), Value::Null],
            vec![Value::Float(0.0), Value::Null],
        ],
    )
    .unwrap();
    let sigma = RfdSet::from_vec(vec![Rfd::new(
        vec![Constraint::new(0, 1.0)],
        Constraint::new(1, 0.0),
    )]);
    assert_modes_agree(&rel, &sigma);
}

#[test]
fn regression_unicode_and_empty_strings() {
    let rel = text_relation(&[
        ("A", &["", "αβγ", "αβ", "a", "", "αβγ"]),
        ("B", &["p", "q", "_", "p", "_", "q"]),
    ]);
    let sigma = RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(0, 1.0)], Constraint::new(1, 0.0)),
        Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 1.0)),
    ]);
    assert_modes_agree(&rel, &sigma);

    // A two-attribute LHS over the same kind of values, whose imputed
    // column C is itself the LHS of a second RFD: every C imputation is
    // verified against that RFD, and filled C cells feed later D cells.
    let rel = text_relation(&[
        ("A", &["", "αβγ", "αβ", "", "αβγ", "", "αβ", "αβγ"]),
        ("B", &["x", "y", "x", "x", "y", "x", "x", "y"]),
        ("C", &["p", "q", "_", "p", "_", "_", "r", "q"]),
        ("D", &["u", "v", "u", "_", "v", "u", "_", "v"]),
    ]);
    let sigma = RfdSet::from_vec(vec![
        Rfd::new(
            vec![Constraint::new(0, 1.0), Constraint::new(1, 0.0)],
            Constraint::new(2, 1.0),
        ),
        Rfd::new(vec![Constraint::new(2, 0.0)], Constraint::new(3, 1.0)),
    ]);
    assert_modes_agree(&rel, &sigma);
}

#[test]
fn regression_imputation_introduces_foreign_values() {
    // Column B's dictionary is frozen at oracle build; imputing B cells
    // then using B as an LHS forces the index through its foreign-row
    // (out-of-dictionary) path on later cells of the same run.
    let rel = text_relation(&[
        ("A", &["k1", "k1", "k2", "k2", "k3", "k3"]),
        ("B", &["v1", "_", "v2", "_", "v3", "_"]),
        ("C", &["w1", "w1", "w2", "_", "w3", "_"]),
    ]);
    let sigma = RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 1.0)),
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 1.0)),
    ]);
    let result = assert_modes_agree(&rel, &sigma);
    assert!(result.stats.imputed >= 2, "fixture should chain imputations");
}

// --------------------------------------------- degradation and accounting
//
// Budget-limited runs may NOT be compared across modes: the indexed path
// executes fewer checkpoints, so the same ops limit truncates the two
// runs at different cells. What must survive degradation is the
// accounting contract: every missing cell gets exactly one outcome.

fn holey_relation() -> (Relation, RfdSet) {
    let schema = Schema::new([
        ("A", AttrType::Text),
        ("B", AttrType::Text),
        ("C", AttrType::Text),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..300usize)
        .map(|i| {
            vec![
                Value::from(format!("a{:02}", i % 37).as_str()),
                Value::from(format!("b{:03}", i % 61).as_str()),
                if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::from(format!("c{:02}", i % 37).as_str())
                },
            ]
        })
        .collect();
    let rel = Relation::new(schema, rows).unwrap();
    let sigma = RfdSet::from_text(
        "A(<=0), B(<=0) -> C(<=0)\nA(<=1) -> C(<=2)",
        rel.schema(),
    )
    .unwrap();
    (rel, sigma)
}

#[test]
fn outcome_accounting_survives_ops_limit_sweep_under_indexing() {
    let (rel, sigma) = holey_relation();
    let missing = rel.missing_count();
    assert!(missing > 20, "fixture needs plenty of holes");
    // Sweep ops limits across the whole degradation range: tripping during
    // index construction, during key partitioning, mid-run, and not at all.
    for ops in [0u64, 1, 2, 4, 8, 16, 64, 256, 1024, 16384, 1 << 20] {
        for mode in [IndexMode::Indexed, IndexMode::Scan] {
            let cfg = RenuverConfig {
                parallelism: 1,
                index_mode: mode,
                budget: Budget::unlimited().with_ops_limit(ops),
                ..RenuverConfig::default()
            };
            let result = Renuver::new(cfg).impute(&rel, &sigma);
            assert_eq!(
                result.stats.imputed + result.stats.unimputed,
                result.stats.missing_total,
                "ops={ops} mode={mode:?}"
            );
            assert_eq!(result.stats.missing_total, missing, "ops={ops} mode={mode:?}");
            assert_eq!(
                result.outcomes.len(),
                missing,
                "every missing cell gets exactly one outcome (ops={ops} mode={mode:?})"
            );
        }
    }
}

#[test]
fn outcome_accounting_survives_pre_expired_deadline_under_indexing() {
    let (rel, sigma) = holey_relation();
    let missing = rel.missing_count();
    let clock = ManualClock::new();
    clock.advance(std::time::Duration::from_secs(3600));
    let cfg = RenuverConfig {
        parallelism: 1,
        index_mode: IndexMode::Indexed,
        budget: Budget::unlimited()
            .with_manual_clock(clock)
            .with_deadline(std::time::Duration::from_secs(1)),
        ..RenuverConfig::default()
    };
    let result = Renuver::new(cfg).impute(&rel, &sigma);
    // The deadline was already gone when the run started: nothing may be
    // imputed, the index build must degrade silently, and every hole is
    // still accounted for.
    assert_eq!(result.stats.imputed, 0);
    assert_eq!(result.stats.unimputed, missing);
    assert_eq!(result.outcomes.len(), missing);
    assert!(result.budget.tripped.is_some(), "deadline should have tripped");
}

#[test]
fn ops_limited_indexed_runs_are_deterministic() {
    // Cross-mode equality is off the table under budgets, but each mode
    // must still be reproducible against itself: ops checkpoints are
    // deterministic whether or not the index is on.
    let (rel, sigma) = holey_relation();
    for mode in [IndexMode::Indexed, IndexMode::Scan] {
        let run = || {
            let cfg = RenuverConfig {
                parallelism: 1,
                index_mode: mode,
                budget: Budget::unlimited().with_ops_limit(200),
                ..RenuverConfig::default()
            };
            Renuver::new(cfg).impute(&rel, &sigma)
        };
        assert_eq!(run(), run(), "mode={mode:?}");
    }
}
