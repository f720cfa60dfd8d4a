//! Differential proof behind the write path: growing an engine by
//! committing batches through [`Engine::commit_tuples`] must be
//! **bit-identical** to throwing the engine away and rebuilding it from
//! scratch on the full data — the same guarantee the artifact format
//! gives for load-vs-build, extended to incremental growth. The
//! comparison covers the serialized artifact bytes (the relation and the
//! RFD set) and the snapshots of the dictionary-encoded distance oracle
//! and the similarity index, which the artifact does not store, so any
//! drift in any layer fails the test.

use renuver::core::{Engine, IndexMode, RenuverConfig};
use renuver::data::{csv, Relation, Tuple, Value};
use renuver::distance::{AttrSnapshot, ColumnSnapshot, SimilarityIndex};
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::RfdSet;
use renuver::serve::artifact;

/// Everything an engine holds: its artifact bytes plus the oracle's and
/// the index's snapshots.
fn state(engine: &Engine) -> (Vec<u8>, Vec<ColumnSnapshot>, Option<Vec<AttrSnapshot>>) {
    (
        artifact::encode_engine(engine, "diff", 7),
        engine.oracle().to_snapshot(),
        engine.index().map(SimilarityIndex::to_snapshot),
    )
}

/// The bundled restaurant sample: 60 rows, 6 attributes, text-heavy —
/// exercises the string dictionary and the Levenshtein matrices.
fn full_relation() -> Relation {
    csv::read_path("data/restaurant_sample.csv").unwrap()
}

/// RFDs discovered on the *base prefix* only, so the incremental and
/// rebuilt engines share one fixed Σ (discovery on different data would
/// legitimately differ).
fn base_and_rfds(full: &Relation, base_rows: usize) -> (Relation, RfdSet) {
    let tuples: Vec<Tuple> = full.tuples().take(base_rows).cloned().collect();
    let base = Relation::new(full.schema().clone(), tuples).unwrap();
    let rfds = discover(&base, &DiscoveryConfig::with_limit(2.0));
    (base, rfds)
}

fn differential(index_mode: IndexMode, chunk: usize) {
    let full = full_relation();
    let base_rows = 40;
    let (base, rfds) = base_and_rfds(&full, base_rows);
    let config = RenuverConfig { index_mode, ..RenuverConfig::default() };

    let mut incremental = Engine::prepare(base, rfds.clone(), config.clone());
    let rest: Vec<Tuple> = full.tuples().skip(base_rows).cloned().collect();
    for batch in rest.chunks(chunk) {
        incremental.commit_tuples(batch.to_vec()).unwrap();
    }

    let rebuilt = Engine::prepare(full, rfds, config);
    assert_eq!(incremental.index().is_some(), index_mode == IndexMode::Indexed);
    assert_eq!(
        state(&incremental),
        state(&rebuilt),
        "incremental commit (chunks of {chunk}, {index_mode:?}) diverged from a full rebuild"
    );
}

#[test]
fn row_at_a_time_equals_rebuild_scan() {
    differential(IndexMode::Scan, 1);
}

#[test]
fn row_at_a_time_equals_rebuild_indexed() {
    differential(IndexMode::Indexed, 1);
}

#[test]
fn uneven_chunks_equal_rebuild_scan() {
    differential(IndexMode::Scan, 7);
}

#[test]
fn one_big_batch_equals_rebuild_indexed() {
    differential(IndexMode::Indexed, 20);
}

/// Committed rows must serve as donors through the same oracle paths a
/// built-from-scratch engine uses: impute after commit ≡ impute after
/// rebuild, including the repaired values themselves.
#[test]
fn imputation_after_commit_matches_rebuild() {
    let full = full_relation();
    let (base, rfds) = base_and_rfds(&full, 40);
    let config = RenuverConfig::default();

    let mut incremental = Engine::prepare(base, rfds.clone(), config.clone());
    let rest: Vec<Tuple> = full.tuples().skip(40).cloned().collect();
    incremental.commit_tuples(rest).unwrap();
    let mut rebuilt = Engine::prepare(full, rfds, config.clone());

    // A batch with one hole per attribute, cloned from a late donor row
    // so the repair has to come through the newly committed region.
    let donor: Tuple = incremental.relation().tuples().last().unwrap().clone();
    let mut probes = Vec::new();
    for col in 0..donor.len() {
        let mut t = donor.clone();
        t[col] = Value::Null;
        probes.push(t);
    }

    let a = incremental.impute_batch_with(probes.clone(), &config).unwrap();
    let b = rebuilt.impute_batch_with(probes, &config).unwrap();
    assert_eq!(a.tuples, b.tuples);
    assert_eq!(a.stats.imputed, b.stats.imputed);
}

/// A batch the relation refuses (arity mismatch part-way through) must
/// leave the engine bit-identical to before the call — the rollback
/// guarantee `/v1/ingest` and `renuver ingest` lean on.
#[test]
fn failed_commit_rolls_back_completely() {
    let full = full_relation();
    let (base, rfds) = base_and_rfds(&full, 40);
    let mut engine = Engine::prepare(base, rfds, RenuverConfig::default());
    let before = state(&engine);

    let good: Tuple = full.tuples().last().unwrap().clone();
    let bad: Tuple = good[..2].to_vec();
    engine.commit_tuples(vec![good, bad]).unwrap_err();

    assert_eq!(state(&engine), before);
}
