//! Never-panic fuzz suites: the public entry points must return `Err` (or a
//! partial result) on hostile input — never unwind.
//!
//! Covered: the CSV and ARFF codecs and the rule parser on arbitrary text
//! and arbitrary bytes, the `.rnv` model-artifact decoder on arbitrary
//! bytes and corrupted real snapshots, and the full imputation pipeline
//! on adversarial relations — NaN/infinite RFD thresholds, all-null
//! columns, megabyte cells, zero-op budgets. The CI fuzz-smoke step runs
//! these with a fixed `PROPTEST_CASES` so the suite stays fast and
//! reproducible there.

use proptest::prelude::*;

use renuver::budget::Budget;
use renuver::core::config::AUTO_MIN_ROWS;
use renuver::core::{BatchResult, Engine, Renuver, RenuverConfig};
use renuver::data::{arff, csv, AttrType, Relation, Schema, Value};
use renuver::rfd::{Constraint, Rfd, RfdSet};
use renuver::rulekit::parse_rules;
use renuver::serve::artifact;

// ----------------------------------------------------------------- codecs

proptest! {
    #[test]
    fn csv_reader_never_panics_on_text(input in ".{0,300}") {
        let _ = csv::read_str(&input);
    }

    #[test]
    fn csv_reader_never_panics_on_bytes(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = csv::read_str(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn csv_reader_never_panics_on_structured_garbage(
        header in "[A-Za-z:,\"]{0,40}",
        rows in prop::collection::vec("[0-9a-z_,\"\\?]{0,40}", 0..8),
    ) {
        let input = format!("{header}\n{}", rows.join("\n"));
        let _ = csv::read_str(&input);
    }

    #[test]
    fn arff_reader_never_panics_on_text(input in ".{0,300}") {
        let _ = arff::read_str(&input);
    }

    #[test]
    fn arff_reader_never_panics_on_headers(
        decls in prop::collection::vec("@?[a-z]{0,12}[ \t][a-z{},'\"%]{0,20}", 0..6),
        data in prop::collection::vec("[0-9a-z,'\\?]{0,20}", 0..4),
    ) {
        let input = format!("{}\n@data\n{}", decls.join("\n"), data.join("\n"));
        let _ = arff::read_str(&input);
    }

    #[test]
    fn rule_parser_never_panics(input in ".{0,300}") {
        let _ = parse_rules(&input);
    }

    #[test]
    fn rule_parser_never_panics_on_directives(
        lines in prop::collection::vec("(attr|set|regex|delta|project)[ \t].{0,30}", 0..8),
    ) {
        let _ = parse_rules(&lines.join("\n"));
    }
}

// ---------------------------------------------------------- .rnv artifacts

/// A small but structurally complete model (text + int columns, a null,
/// an RFD) the artifact fuzzers mutate.
fn seed_model() -> (Relation, RfdSet) {
    let rel = csv::read_str(
        "City:text,Zip:text,Class:int\n\
         Malibu,90265,6\n\
         Malibu,90265,6\n\
         Hollywood,90028,2\n\
         Venice,_,3\n",
    )
    .unwrap();
    let rfds = RfdSet::from_vec(vec![Rfd::new(
        vec![Constraint::new(0, 1.0)],
        Constraint::new(1, 0.0),
    )]);
    (rel, rfds)
}

/// The mutation bases: the seed model as this build writes it, and as an
/// earlier build wrote it with its distance cache (an `IndexMode::Indexed`
/// engine's tag-2 matrices and index section), which must still load.
fn seed_artifacts() -> [Vec<u8>; 2] {
    let (rel, rfds) = seed_model();
    [
        artifact::encode(&rel, &rfds, "fuzz-seed", 0),
        include_bytes!("fixtures/legacy_cached_v2.rnv").to_vec(),
    ]
}

/// `payload` followed by its CRC-32, so the section parsers (not the
/// checksum) see whatever the payload holds.
fn sealed(mut payload: Vec<u8>) -> Vec<u8> {
    let crc = artifact::crc32(&payload);
    payload.extend_from_slice(&crc.to_le_bytes());
    payload
}

proptest! {
    #[test]
    fn artifact_decode_never_panics_on_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        cut in 0usize..10_000,
    ) {
        let _ = artifact::decode(&bytes);
        let _ = artifact::inspect(&bytes);
        // A valid prefix of each seed, then the garbage, sealed.
        for seed in seed_artifacts() {
            let mut spliced = seed[..cut % (seed.len() - 4)].to_vec();
            spliced.extend_from_slice(&bytes);
            let spliced = sealed(spliced);
            let _ = artifact::decode(&spliced);
            let _ = artifact::inspect(&spliced);
        }
    }

    #[test]
    fn artifact_decode_never_panics_on_magic_prefixed_bytes(
        tail in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        // Get past the magic, version and fingerprint checks so the
        // section parsers see the garbage (a random prefix almost never
        // does): each seed's header, then the tail, sealed.
        for seed in seed_artifacts() {
            let mut bytes = seed[..16].to_vec();
            bytes.extend_from_slice(&tail);
            let _ = artifact::decode(&bytes);
            let _ = artifact::decode(&sealed(bytes));
        }
    }

    #[test]
    fn artifact_decode_never_panics_on_corrupted_snapshots(
        offset in 0usize..10_000,
        flip in any::<u8>(),
        do_truncate in any::<bool>(),
        truncate_at in 0usize..10_000,
    ) {
        for mut bytes in seed_artifacts() {
            let len = bytes.len();
            bytes[offset % len] ^= flip | 1; // always a real change
            if do_truncate {
                bytes.truncate(truncate_at % (len + 1));
            }
            // Every corruption is a typed error or (for a flip the
            // checksum cannot see, which does not exist) a valid
            // artifact — never an unwind.
            let _ = artifact::decode(&bytes);
        }
    }

    #[test]
    fn artifact_decode_never_panics_on_checksum_repaired_corruption(
        offset in 8usize..10_000,
        flip in any::<u8>(),
    ) {
        // Corrupt the payload, then re-stamp a valid trailing CRC so the
        // section parsers (not the checksum) must reject the damage.
        for mut bytes in seed_artifacts() {
            let len = bytes.len();
            let at = 8 + (offset - 8) % (len - 12);
            bytes[at] ^= flip | 1;
            bytes.truncate(len - 4);
            let _ = artifact::decode(&sealed(bytes));
        }
    }
}

#[test]
fn artifact_seed_still_decodes() {
    // Guards the mutation bases themselves: if encoding or the reader of
    // cached files broke, the corruption fuzzers above would be
    // exercising nothing. Both decode to the seed model, and their
    // engines answer like one prepared on it.
    let (rel, rfds) = seed_model();
    let config = RenuverConfig::default();
    let probe = vec![
        vec![Value::from("Malibu"), Value::Null, Value::Int(6)],
        vec![Value::from("Holywood"), Value::Null, Value::Null],
        vec![Value::Null, Value::from("90028"), Value::Int(2)],
    ];
    let canon = |r: BatchResult| {
        format!("{:?}|{:?}|{:?}|{:?}|{:?}", r.tuples, r.outcomes, r.imputed, r.explains, r.stats)
    };
    let mut prepared = Engine::prepare(rel.clone(), rfds.clone(), config.clone());
    let want = canon(prepared.impute_batch(probe.clone()).unwrap());
    assert!(want.contains("90265"), "the probe imputes nothing: {want}");
    for (seed, bytes) in ["new", "legacy"].into_iter().zip(seed_artifacts()) {
        let loaded = artifact::decode(&bytes).expect("seed artifact must decode");
        assert_eq!(loaded.relation, rel, "{seed}");
        assert_eq!(loaded.rfds, rfds, "{seed}");
        assert_eq!(loaded.index.is_some(), rel.len() >= AUTO_MIN_ROWS, "{seed}");
        let mut engine = loaded.into_engine(config.clone());
        assert_eq!(canon(engine.impute_batch(probe.clone()).unwrap()), want, "{seed}");
    }
}

// --------------------------------------------------------------- pipeline

/// An arbitrary small relation: 1–3 columns of mixed types, 0–8 rows,
/// every cell possibly null (so all-null columns and empty relations are
/// generated too).
fn arb_relation() -> impl Strategy<Value = Relation> {
    let col_types = prop::collection::vec(
        prop_oneof![
            Just(AttrType::Int),
            Just(AttrType::Float),
            Just(AttrType::Text),
        ],
        1..4,
    );
    (col_types, 0usize..9).prop_flat_map(|(types, rows)| {
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
                    Just(Value::Null),
                    (-5i64..5).prop_map(Value::Int),
                ]
                .boxed(),
                AttrType::Float => prop_oneof![
                    Just(Value::Null),
                    (-2.0f64..2.0).prop_map(Value::Float),
                    Just(Value::Float(f64::NAN)),
                    Just(Value::Float(f64::INFINITY)),
                ]
                .boxed(),
                _ => prop_oneof![
                    Just(Value::Null),
                    "[a-c]{0,3}".prop_map(Value::from),
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

/// Arbitrary (possibly degenerate) RFDs over `arity` attributes, with
/// thresholds drawn from a pool that includes NaN and infinity.
fn arb_rfds(arity: usize) -> BoxedStrategy<RfdSet> {
    if arity < 2 {
        // `Rfd::new` forbids the RHS appearing in the LHS, so no RFD exists
        // over a single attribute: the only set is the empty one.
        return Just(RfdSet::from_vec(Vec::new())).boxed();
    }
    let thr = prop_oneof![
        Just(0.0f64),
        Just(1.0),
        Just(5.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
    ];
    let rfd = (0..arity, 0..arity, thr.clone(), thr).prop_map(
        move |(lhs, rhs, lhs_thr, rhs_thr)| {
            // Steer away from a self-referential dependency (an asserted
            // constructor invariant) rather than generating one.
            let lhs = if lhs == rhs { (lhs + 1) % arity } else { lhs };
            Rfd::new(vec![Constraint::new(lhs, lhs_thr)], Constraint::new(rhs, rhs_thr))
        },
    );
    prop::collection::vec(rfd, 0..4)
        .prop_map(RfdSet::from_vec)
        .boxed()
}

proptest! {
    // The pipeline cases run the full engine; keep the count modest so the
    // suite stays in CI-smoke territory even without PROPTEST_CASES set.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn impute_never_panics_on_adversarial_input(
        input in arb_relation().prop_flat_map(|rel| {
            let arity = rel.arity();
            (Just(rel), arb_rfds(arity))
        }),
        zero_budget in any::<bool>(),
    ) {
        let (rel, rfds) = input;
        let budget = if zero_budget {
            Budget::unlimited().with_ops_limit(0)
        } else {
            Budget::unlimited()
        };
        let cfg = RenuverConfig { parallelism: 1, budget, ..RenuverConfig::default() };
        let result = Renuver::new(cfg).impute(&rel, &rfds);
        // Partial or complete, the stats invariant always holds.
        prop_assert_eq!(
            result.stats.imputed + result.stats.unimputed,
            result.stats.missing_total
        );
        prop_assert_eq!(result.outcomes.len(), result.stats.missing_total);
    }
}

#[test]
fn impute_survives_megabyte_cells_and_all_null_columns() {
    let schema = Schema::new([("huge", AttrType::Text), ("hole", AttrType::Text)]).unwrap();
    let big = "x".repeat(1 << 20);
    let rel = Relation::new(
        schema,
        vec![
            vec![Value::Text(big.clone()), Value::Null],
            vec![Value::Text(big), Value::Null],
            vec![Value::Text("small".into()), Value::Null],
        ],
    )
    .unwrap();
    let rfds = RfdSet::from_vec(vec![Rfd::new(
        vec![Constraint::new(0, 1.0)],
        Constraint::new(1, 0.0),
    )]);
    let cfg = RenuverConfig { parallelism: 1, ..RenuverConfig::default() };
    let result = Renuver::new(cfg).impute(&rel, &rfds);
    // Nothing to impute from (the target column is entirely null), but the
    // run must terminate and account for every cell.
    assert_eq!(result.stats.missing_total, 3);
    assert_eq!(result.stats.imputed, 0);
}
