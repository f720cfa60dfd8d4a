//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use renuver::core::config::VerifyScope;
use renuver::core::{is_faultless, Renuver, RenuverConfig};
use renuver::core::verify::VerifyPlan;
use renuver::data::{csv, AttrType, Relation, Schema, Value};
use renuver::distance::{levenshtein, levenshtein_bounded, value_distance, DistanceOracle};
use renuver::eval::inject;
use renuver::rfd::check;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::{Constraint, Rfd, RfdSet};

// ---------------------------------------------------------------- distance

proptest! {
    #[test]
    fn levenshtein_is_a_metric(a in ".{0,12}", b in ".{0,12}", c in ".{0,12}") {
        let dab = levenshtein(&a, &b);
        let dba = levenshtein(&b, &a);
        prop_assert_eq!(dab, dba); // symmetry
        prop_assert_eq!(levenshtein(&a, &a), 0); // identity
        prop_assert!((dab == 0) == (a == b)); // separation
        // triangle inequality
        prop_assert!(dab <= levenshtein(&a, &c) + levenshtein(&c, &b));
    }

    #[test]
    fn levenshtein_bounds(a in ".{0,16}", b in ".{0,16}") {
        let d = levenshtein(&a, &b);
        let la = a.chars().count();
        let lb = b.chars().count();
        prop_assert!(d >= la.abs_diff(lb));
        prop_assert!(d <= la.max(lb));
    }

    #[test]
    fn bounded_levenshtein_agrees(a in ".{0,12}", b in ".{0,12}", max in 0usize..12) {
        let d = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, max) {
            Some(got) => {
                prop_assert_eq!(got, d);
                prop_assert!(d <= max);
            }
            None => prop_assert!(d > max),
        }
    }

    #[test]
    fn value_distance_symmetric_and_nonnegative(x in -1000i64..1000, y in -1000i64..1000) {
        let a = Value::Int(x);
        let b = Value::Int(y);
        prop_assert_eq!(value_distance(&a, &b), value_distance(&b, &a));
        prop_assert!(value_distance(&a, &b).unwrap() >= 0.0);
    }
}

// --------------------------------------------------------------- relations

/// Strategy: a small relation with one text and two int columns, with
/// nulls sprinkled in.
fn arb_relation() -> impl Strategy<Value = Relation> {
    let cell_text = prop_oneof![
        3 => "[a-d]{1,4}".prop_map(Value::from),
        1 => Just(Value::Null),
    ];
    let cell_int = prop_oneof![
        3 => (0i64..8).prop_map(Value::Int),
        1 => Just(Value::Null),
    ];
    let row = (cell_text, cell_int.clone(), cell_int)
        .prop_map(|(a, b, c)| vec![a, b, c]);
    proptest::collection::vec(row, 2..14).prop_map(|rows| {
        let schema = Schema::new([
            ("T", AttrType::Text),
            ("X", AttrType::Int),
            ("Y", AttrType::Int),
        ])
        .unwrap();
        Relation::new(schema, rows).unwrap()
    })
}

/// Strategy: a random RFD over the 3-column schema above.
fn arb_rfd() -> impl Strategy<Value = Rfd> {
    (0usize..3, proptest::collection::vec((0usize..3, 0.0f64..5.0), 1..3)).prop_filter_map(
        "lhs must exclude rhs and be distinct",
        |(rhs, lhs)| {
            let mut constraints: Vec<Constraint> = Vec::new();
            for (attr, thr) in lhs {
                if attr != rhs && !constraints.iter().any(|c| c.attr == attr) {
                    constraints.push(Constraint::new(attr, thr.floor()));
                }
            }
            if constraints.is_empty() {
                return None;
            }
            Some(Rfd::new(constraints, Constraint::new(rhs, 1.0)))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_round_trips(rel in arb_relation()) {
        let text = csv::write_string(&rel);
        let back = csv::read_str(&text).unwrap();
        prop_assert_eq!(back, rel);
    }

    #[test]
    fn oracle_matches_direct(rel in arb_relation()) {
        let cached = DistanceOracle::build(&rel, 64);
        for attr in 0..rel.arity() {
            for i in 0..rel.len() {
                for j in 0..rel.len() {
                    prop_assert_eq!(
                        cached.distance(&rel, attr, i, j),
                        value_distance(rel.value(i, attr), rel.value(j, attr))
                    );
                }
            }
        }
    }

    #[test]
    fn injection_preserves_everything_else(rel in arb_relation(), seed in 0u64..99) {
        let (incomplete, truth) = inject(&rel, 0.3, seed);
        prop_assert_eq!(incomplete.len(), rel.len());
        let mut restored = incomplete.clone();
        for (cell, v) in &truth {
            prop_assert!(incomplete.is_missing(cell.row, cell.col));
            restored.set_value(cell.row, cell.col, v.clone());
        }
        prop_assert_eq!(restored, rel);
    }

    #[test]
    fn discovered_rfds_hold(rel in arb_relation()) {
        let cfg = DiscoveryConfig::with_limit(3.0);
        let rfds = discover(&rel, &cfg);
        for rfd in rfds.iter() {
            prop_assert!(
                check::holds(&rel, rfd),
                "violated {} on\n{}",
                rfd.display(rel.schema()),
                rel
            );
        }
    }

    #[test]
    fn rfd_parse_never_panics(input in ".{0,60}") {
        let schema = Schema::new([
            ("T", AttrType::Text),
            ("X", AttrType::Int),
        ])
        .unwrap();
        let _ = Rfd::parse(&input, &schema); // must not panic
    }

    #[test]
    fn rule_parser_never_panics(input in "(attr [A-C]\n(  (set|regex|delta) .{0,20}\n){0,3}){0,3}") {
        let _ = renuver::rulekit::parse_rules(&input); // must not panic
    }

    #[test]
    fn regex_compiler_never_panics(pattern in ".{0,30}") {
        if let Ok(re) = renuver::rulekit::Regex::new(&pattern) {
            let _ = re.is_match("some probe text");
        }
    }

    #[test]
    fn csv_reader_never_panics(input in ".{0,200}") {
        let _ = csv::read_str(&input); // must not panic
    }

    #[test]
    fn rfd_display_parse_round_trip(rfd in arb_rfd()) {
        let schema = Schema::new([
            ("T", AttrType::Text),
            ("X", AttrType::Int),
            ("Y", AttrType::Int),
        ])
        .unwrap();
        let text = rfd.display(&schema).to_string();
        prop_assert_eq!(Rfd::parse(&text, &schema).unwrap(), rfd);
    }

    #[test]
    fn verify_plan_matches_is_faultless(
        rel in arb_relation(),
        rfds in proptest::collection::vec(arb_rfd(), 1..5),
        scope in prop_oneof![Just(VerifyScope::LhsOnly), Just(VerifyScope::Full)],
    ) {
        let sigma = RfdSet::from_vec(rfds);
        let cells = rel.missing_cells();
        let oracle = DistanceOracle::build(&rel, 64);
        for cell in cells.into_iter().take(3) {
            let plan = VerifyPlan::build(&oracle, &rel, cell.row, cell.col, sigma.iter(), scope);
            // Try every possible donor row with a present value.
            for donor in 0..rel.len() {
                if donor == cell.row || rel.is_missing(donor, cell.col) {
                    continue;
                }
                let fast = plan.admits(&oracle, &rel, cell.col, donor);
                let mut mutated = rel.clone();
                mutated.set_value(cell.row, cell.col, rel.value(donor, cell.col).clone());
                let slow = is_faultless(&mutated, cell.row, cell.col, sigma.iter(), scope);
                prop_assert_eq!(
                    fast, slow,
                    "plan/reference disagree at {:?} donor {} scope {:?}\n{}",
                    cell, donor, scope, rel
                );
            }
        }
    }

    #[test]
    fn skyline_discovery_equals_naive_reference(rel in arb_relation()) {
        use renuver::rfd::naive::{discover_naive, NaiveConfig};
        let fast = discover(
            &rel,
            &DiscoveryConfig {
                max_lhs: 2,
                ..DiscoveryConfig::with_limit(2.0)
            },
        );
        let naive = discover_naive(&rel, &NaiveConfig::new(2, 2));
        let covered = |x: &RfdSet, y: &RfdSet| {
            x.iter().all(|rx| y.iter().any(|ry| ry.implies(rx)))
        };
        prop_assert!(
            covered(&naive, &fast) && covered(&fast, &naive),
            "mismatch on\n{}\nnaive:\n{}fast:\n{}",
            rel,
            naive.to_text(rel.schema()),
            fast.to_text(rel.schema())
        );
    }

    #[test]
    fn subsumption_implication_is_sound_with_nulls(
        rel in arb_relation(),
        rfds in proptest::collection::vec(arb_rfd(), 2..5),
        target in arb_rfd(),
    ) {
        // Depth 0 (subsumption only) is sound on arbitrary instances,
        // missing values included.
        let sigma = RfdSet::from_vec(rfds);
        if renuver::rfd::implied_by(&sigma, &target, 0)
            && sigma.iter().all(|r| check::holds(&rel, r))
        {
            prop_assert!(
                check::holds(&rel, &target),
                "claimed implied but violated: {} from\n{}on\n{}",
                target.display(rel.schema()),
                sigma.to_text(rel.schema()),
                rel
            );
        }
    }

    #[test]
    fn chained_implication_is_sound_without_nulls(
        rel in arb_relation(),
        rfds in proptest::collection::vec(arb_rfd(), 2..5),
        target in arb_rfd(),
    ) {
        // Chaining is sound under its documented precondition: no missing
        // values (transitivity's middle attribute must always be present).
        let complete = rel.filter_rows(|_, t| t.iter().all(|v| !v.is_null()));
        let sigma = RfdSet::from_vec(rfds);
        if renuver::rfd::implied_by(&sigma, &target, 3)
            && sigma.iter().all(|r| check::holds(&complete, r))
        {
            prop_assert!(
                check::holds(&complete, &target),
                "claimed implied but violated: {} from\n{}on\n{}",
                target.display(complete.schema()),
                sigma.to_text(complete.schema()),
                complete
            );
        }
    }

    #[test]
    fn imputation_never_invents_values(rel in arb_relation()) {
        let cfg = DiscoveryConfig::with_limit(3.0);
        let rfds = discover(&rel, &cfg);
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        for ic in &result.imputed {
            let domain = rel.active_domain(ic.cell.col);
            prop_assert!(
                domain.contains(&ic.value),
                "invented value {:?} at {:?}",
                ic.value,
                ic.cell
            );
        }
        // Non-missing cells are untouched.
        for row in 0..rel.len() {
            for col in 0..rel.arity() {
                if !rel.is_missing(row, col) {
                    prop_assert_eq!(rel.value(row, col), result.relation.value(row, col));
                }
            }
        }
    }
}
