//! Replay harness: every verification decision a run records must be the
//! one the reference IS_FAULTLESS makes on the relation as it stood.
//!
//! The engine never calls [`is_faultless`] in its loop: each missing cell
//! gets one [`renuver::core::VerifyPlan`] (witness scans hoisted out of
//! the candidate loop and seeded by the index), and imputed values become
//! donors and witnesses for every later cell. These tests take a traced run and
//! replay its `CandidateRejected` / `Imputed` events in order over the
//! input relation, asking the reference check each time:
//!
//! - a rejected donor value must fail IS_FAULTLESS, and the cell is reset;
//! - an accepted donor value must pass it, and stays written;
//! - the replayed writes must rebuild the run's repaired relation exactly.
//!
//! The reference uses the full Σ, dormant keys included (the engine's
//! documented choice, Definition 4.3), and the run's [`VerifyScope`]. A
//! budget that has not tripped changes nothing: the same reference holds
//! however little of it is left.
//!
//! Inputs cover random relations (NaN/∞ thresholds and values, nulls,
//! unicode), the paper's Restaurant and Bridges stand-ins with discovered
//! Σ, a 5 000-row indexed synthetic, and hand-built fixtures: many cells
//! sharing one LHS signature, chained writes, a reactivated key, and a
//! two-attribute LHS whose imputed column is another RFD's LHS. The
//! one-shot, appended-rows and prepared-engine entry points are replayed.

use std::time::Duration;

use proptest::prelude::*;

use renuver::budget::{Budget, ManualClock};
use renuver::core::{
    is_faultless, Engine, ImputationResult, IndexMode, Renuver, RenuverConfig, TraceEvent,
    VerifyScope,
};
use renuver::data::{AttrType, Cell, Relation, Schema, Value};
use renuver::datasets::Dataset;
use renuver::eval::inject;
use renuver::obs::Tracer;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::{Constraint, Rfd, RfdSet};

const SCOPES: [VerifyScope; 2] = [VerifyScope::LhsOnly, VerifyScope::Full];

fn config(mode: IndexMode, scope: VerifyScope) -> RenuverConfig {
    RenuverConfig {
        parallelism: 1,
        trace: true,
        index_mode: mode,
        verify_scope: scope,
        ..RenuverConfig::default()
    }
}

/// Replays `result.trace` over `input` (see the module docs) and returns
/// the number of decisions checked.
fn replay(
    input: &Relation,
    sigma: &RfdSet,
    result: &ImputationResult,
    scope: VerifyScope,
) -> usize {
    let mut rel = input.clone();
    let mut accepted_writes = 0;
    let mut decisions = 0;
    for event in &result.trace {
        let (cell, donor_row, accepted) = match *event {
            TraceEvent::CandidateRejected { cell, donor_row, .. } => (cell, donor_row, false),
            TraceEvent::Imputed { cell, donor_row } => (cell, donor_row, true),
            _ => continue,
        };
        let Cell { row, col } = cell;
        assert!(rel.is_missing(row, col), "{cell:?} is no longer missing");
        let value = rel.value(donor_row, col).clone();
        assert!(!value.is_null(), "donor row {donor_row} has no value for {cell:?}");
        rel.set_value(row, col, value);
        assert_eq!(
            is_faultless(&rel, row, col, sigma.iter(), scope),
            accepted,
            "{cell:?} with donor {donor_row}: the run {} what IS_FAULTLESS {} \
             (scope={scope:?})",
            if accepted { "accepted" } else { "rejected" },
            if accepted { "rejects" } else { "accepts" },
        );
        if accepted {
            accepted_writes += 1;
        } else {
            rel.set_value(row, col, Value::Null);
        }
        decisions += 1;
    }
    // Debug text, so NaN cells compare equal to themselves.
    assert_eq!(
        format!("{rel:?}"),
        format!("{:?}", result.relation),
        "replayed writes do not rebuild the repaired relation"
    );
    assert_eq!(accepted_writes, result.imputed.len());
    decisions
}

/// Runs the one-shot imputation under `cfg` and replays it.
fn run_and_replay(rel: &Relation, sigma: &RfdSet, cfg: RenuverConfig) -> ImputationResult {
    let scope = cfg.verify_scope;
    let result = Renuver::new(cfg).impute(rel, sigma);
    replay(rel, sigma, &result, scope);
    result
}

/// [`run_and_replay`] under both scopes and both donor-retrieval paths;
/// returns the default-configuration (`LhsOnly`, scan) result.
fn replay_all_paths(rel: &Relation, sigma: &RfdSet) -> ImputationResult {
    let mut default_run = None;
    for scope in SCOPES {
        for mode in [IndexMode::Scan, IndexMode::Indexed] {
            let result = run_and_replay(rel, sigma, config(mode, scope));
            default_run.get_or_insert(result);
        }
    }
    default_run.expect("at least one run")
}

// ----------------------------------------------------- random generators

/// Small random relations biased toward value collisions, so candidates
/// are plentiful and verification both accepts and rejects. Nulls appear
/// everywhere; floats include NaN and infinity. Mirrors
/// `tests/index_differential.rs`.
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

/// Random RFD sets with the hard thresholds: exact match, small bands,
/// NaN, infinity.
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

/// Per-suite case count, overridable by `PROPTEST_CASES` for CI.
fn cases(default_cases: u32) -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(n)
}

proptest! {
    #![proptest_config(cases(256))]

    #[test]
    fn random_runs_replay_against_is_faultless(
        input in arb_relation().prop_flat_map(|rel| {
            let arity = rel.arity();
            (Just(rel), arb_rfds(arity), any::<bool>(), any::<bool>())
        }),
    ) {
        let (rel, sigma, indexed, full) = input;
        let mode = if indexed { IndexMode::Indexed } else { IndexMode::Scan };
        let scope = if full { VerifyScope::Full } else { VerifyScope::LhsOnly };
        let result = run_and_replay(&rel, &sigma, config(mode, scope));
        prop_assert_eq!(
            result.stats.imputed + result.stats.unimputed,
            result.stats.missing_total
        );
        prop_assert_eq!(
            result.stats.verifications,
            result.stats.imputed + result.stats.verification_failures
        );
    }
}

// ------------------------------------------------------ dataset samples

fn discovered(rel: &Relation) -> RfdSet {
    discover(rel, &DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(6.0) })
}

#[test]
fn restaurant_sample_replays_against_is_faultless() {
    let rel = Dataset::Restaurant.relation(11);
    let (incomplete, _truth) = inject(&rel, 0.03, 11);
    let sigma = discovered(&incomplete);
    let result = replay_all_paths(&incomplete, &sigma);
    assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
}

#[test]
fn bridges_sample_replays_against_is_faultless() {
    let rel = Dataset::Bridges.relation(7);
    let (incomplete, _truth) = inject(&rel, 0.05, 7);
    let sigma = discovered(&incomplete);
    let result = replay_all_paths(&incomplete, &sigma);
    assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
}

/// 5 000 rows with planted RFDs: the index seeds every witness and
/// candidate scan, and text columns are dictionary-encoded, so the plan's
/// distances come from the oracle's matrices. Mirrors
/// `tests/index_differential.rs`.
#[test]
fn synthetic_5k_replays_against_is_faultless() {
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
    let (incomplete, truth) = inject(&rel, 0.002, 23);
    assert!(truth.len() > 10, "fixture should knock out a few dozen cells");
    for scope in SCOPES {
        let result = run_and_replay(&incomplete, &sigma, config(IndexMode::Indexed, scope));
        assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
    }
}

// ------------------------------------------------- deterministic fixtures

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

/// 5 cities × 12 rows, every 4th Zip missing: each city contributes three
/// missing cells with the same `City` value, and each gets a plan of its
/// own built over the relation as the earlier ones left it.
fn shared_signatures() -> (Relation, RfdSet) {
    let schema = Schema::new([
        ("City", AttrType::Text),
        ("Zip", AttrType::Text),
        ("Class", AttrType::Int),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..60usize)
        .map(|i| {
            let city = i % 5;
            vec![
                Value::from(format!("City{city}").as_str()),
                if i % 4 == 3 {
                    Value::Null
                } else {
                    Value::from(format!("9{:03}", city * 11).as_str())
                },
                Value::Int((city * 2) as i64),
            ]
        })
        .collect();
    let rel = Relation::new(schema, rows).unwrap();
    let sigma = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\nCity(<=1) -> Zip(<=1)",
        rel.schema(),
    )
    .unwrap();
    (rel, sigma)
}

#[test]
fn shared_signatures_replay_against_is_faultless() {
    let (rel, sigma) = shared_signatures();
    let result = replay_all_paths(&rel, &sigma);
    assert_eq!(result.stats.missing_total, 15);
    assert_eq!(result.stats.imputed, 15, "{:?}", result.stats);
    // Every city has exactly one Zip, so each hole takes its city's.
    for rec in &result.imputed {
        let city = rec.cell.row % 5;
        assert_eq!(rec.value, Value::from(format!("9{:03}", city * 11).as_str()), "{rec:?}");
    }
}

/// A(≤0) → B fills B values that then serve as LHS evidence for
/// B(≤0) → C, so later cells are decided on donors and witnesses that
/// earlier imputations wrote.
#[test]
fn chained_writes_feed_later_verifications() {
    let rel = text_relation(&[
        ("A", &["k1", "k1", "k1", "k2", "k2", "k2", "k3", "k3"]),
        ("B", &["v1", "_", "_", "v2", "_", "_", "v3", "_"]),
        ("C", &["w1", "w1", "_", "w2", "_", "w2", "w3", "_"]),
    ]);
    let sigma = RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 1.0)),
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 1.0)),
    ]);
    let result = replay_all_paths(&rel, &sigma);
    assert!(result.stats.imputed >= 4, "fixture should chain imputations");
    // Row 7's C can only come through B(≤0) → C, on the B value its own
    // earlier imputation wrote.
    assert_eq!(result.relation.value(7, 1), &Value::from("v3"));
    assert_eq!(result.relation.value(7, 2), &Value::from("w3"));
}

/// Key reactivation mid-run (paper Example 5.1): B's only RFD is a key
/// until row 1's C is imputed, and verification covers it throughout.
#[test]
fn reactivated_key_replays_against_is_faultless() {
    let schema = Schema::new([
        ("A", AttrType::Int),
        ("C", AttrType::Int),
        ("B", AttrType::Int),
    ])
    .unwrap();
    let rel = Relation::new(
        schema,
        vec![
            vec![Value::Int(1), Value::Int(9), Value::Int(40)],
            vec![Value::Int(1), Value::Null, Value::Null],
            vec![Value::Int(5), Value::Int(8), Value::Int(77)],
        ],
    )
    .unwrap();
    let sigma = RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
    ]);
    let result = replay_all_paths(&rel, &sigma);
    assert_eq!(result.stats.imputed, 2);
    assert_eq!(result.stats.keys_reactivated, 1, "fixture must reactivate a key");
}

/// NaN thresholds and NaN/±0.0/∞ values: NaN never satisfies a
/// constraint.
#[test]
fn nan_thresholds_and_signed_zeros_replay_against_is_faultless() {
    let schema = Schema::new([("N", AttrType::Float), ("B", AttrType::Text)]).unwrap();
    let rel = Relation::new(
        schema,
        vec![
            vec![Value::Float(1.0), Value::Text("p".into())],
            vec![Value::Float(f64::NAN), Value::Text("p".into())],
            vec![Value::Float(f64::NAN), Value::Null],
            vec![Value::Float(-0.0), Value::Null],
            vec![Value::Float(0.0), Value::Null],
            vec![Value::Float(f64::INFINITY), Value::Text("q".into())],
        ],
    )
    .unwrap();
    let mut imputed = 0;
    for (lhs_thr, rhs_thr) in [
        (1.0, 0.0),
        (f64::NAN, 0.0),
        (0.0, f64::NAN),
        (f64::INFINITY, f64::INFINITY),
    ] {
        let sigma = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, lhs_thr)],
            Constraint::new(1, rhs_thr),
        )]);
        imputed += replay_all_paths(&rel, &sigma).stats.imputed;
    }
    assert!(imputed > 0, "degenerate fixture: nothing imputed");
}

/// A NaN bound on a text column admits no pair. The engine's matrix
/// lookup (`d <= NaN`) always said so, but the direct Levenshtein path
/// behind [`is_faultless`] used to floor the bound to an edit bound of 0
/// and admit equal strings, so it rejected the donor the engine accepted.
#[test]
fn nan_threshold_on_equal_text_replays_against_is_faultless() {
    let schema = Schema::new([("T", AttrType::Text), ("N", AttrType::Float)]).unwrap();
    let rel = Relation::new(
        schema,
        vec![
            vec![Value::Null, Value::Float(0.0)],
            vec![Value::from("a"), Value::Float(0.0)],
            vec![Value::from("a"), Value::Float(100.0)],
        ],
    )
    .unwrap();
    let sigma = RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(0, 0.0)),
        Rfd::new(vec![Constraint::new(0, f64::NAN)], Constraint::new(1, 5.0)),
    ]);
    let result = replay_all_paths(&rel, &sigma);
    assert_eq!(result.stats.imputed, 1);
    assert_eq!(result.relation.value(0, 0), &Value::from("a"));
}

/// A two-attribute LHS over empty and non-ASCII strings, whose imputed
/// column C is the LHS of a second RFD: every C candidate is verified
/// against that RFD, and filled C cells feed later D cells.
#[test]
fn multi_attr_lhs_with_unicode_replays_against_is_faultless() {
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
    let result = replay_all_paths(&rel, &sigma);
    assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
}

// ----------------------------------------- nearly spent budget, entry points

/// A manual clock 95 s into a 100 s deadline: the budget is nearly spent
/// but has not tripped, so every decision must still be the one
/// IS_FAULTLESS makes over the whole instance.
#[test]
fn nearly_spent_budget_replays_against_is_faultless() {
    let rel = Dataset::Restaurant.relation(11);
    let (incomplete, _truth) = inject(&rel, 0.03, 11);
    let sigma = discovered(&incomplete);
    for scope in SCOPES {
        let clock = ManualClock::new();
        clock.advance(Duration::from_secs(95));
        let tracer = Tracer::enabled();
        let cfg = RenuverConfig {
            budget: Budget::unlimited()
                .with_deadline(Duration::from_secs(100))
                .with_manual_clock(clock),
            tracer: tracer.clone(),
            ..config(IndexMode::Auto, scope)
        };
        let result = Renuver::new(cfg).impute(&incomplete, &sigma);
        assert!(result.budget.tripped.is_none());
        assert_eq!(
            tracer.metrics().histogram("core.candidates_per_cell").count(),
            result.stats.missing_total as u64
        );
        assert!(replay(&incomplete, &sigma, &result, scope) > 0);
        assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
    }
}

/// `impute_appended`: old rows are donors and witnesses but never written.
#[test]
fn appended_rows_replay_against_is_faultless() {
    let rel = Dataset::Restaurant.relation(11);
    let (incomplete, _truth) = inject(&rel, 0.05, 5);
    let sigma = discovered(&incomplete);
    let first_new_row = incomplete.len() - 40;
    for scope in SCOPES {
        let cfg = config(IndexMode::Auto, scope);
        let result = Renuver::new(cfg).impute_appended(&incomplete, first_new_row, &sigma);
        replay(&incomplete, &sigma, &result, scope);
        assert!(result.stats.imputed > 0, "degenerate fixture: nothing imputed");
        assert!(result.imputed.iter().all(|rec| rec.cell.row >= first_new_row));
    }
}

/// The prepared engine's impute-and-restore path (one distance build,
/// many runs): each run replays, repeats the last one, and leaves the
/// engine's relation as prepared.
#[test]
fn prepared_engine_runs_replay_against_is_faultless() {
    let rel = Dataset::Restaurant.relation(11);
    let (incomplete, _truth) = inject(&rel, 0.03, 11);
    let sigma = discovered(&incomplete);
    for scope in SCOPES {
        let mut engine =
            Engine::prepare(incomplete.clone(), sigma.clone(), config(IndexMode::Indexed, scope));
        let first = engine.impute_and_restore();
        replay(&incomplete, &sigma, &first, scope);
        assert!(first.stats.imputed > 0, "degenerate fixture: nothing imputed");
        assert_eq!(format!("{:?}", engine.relation()), format!("{incomplete:?}"));
        let second = engine.impute_and_restore();
        assert_eq!(format!("{:?}", second.trace), format!("{:?}", first.trace));
        assert_eq!(format!("{:?}", second.relation), format!("{:?}", first.relation));
    }
}
