//! Differential harness for the serving stack: the long-lived
//! [`renuver::core::Engine`] and the artifact snapshot must answer
//! bit-for-bit identically to the one-shot reference paths.
//!
//! Two equivalences are pinned, on the paper's Restaurant stand-in and on
//! the 5 000-row synthetic shop fixture shared with `bench_serve`:
//!
//! 1. **Engine batch == `impute_appended`.** Appending a request batch to
//!    the reference relation and running the one-shot incremental path
//!    must produce the same repaired tuples, per-cell outcomes, imputed
//!    records, explain records, and stats as [`Engine::impute_batch`] —
//!    which reuses a prebuilt oracle/index and rolls back afterwards.
//!    The oracle append path (dictionary-code reuse + direct-computation
//!    fallback) and the index append path (postings or the always-scanned
//!    foreign set) are exactly the machinery under test here.
//! 2. **Artifact load == fresh build.** An engine decoded from a `.rnv`
//!    snapshot (which builds its oracle and index from the stored
//!    relation) must answer every batch identically to the engine that
//!    was just built from the raw relation.
//!
//! Comparisons canonicalize through `Debug` text (as
//! `tests/index_differential.rs` does) so NaN distances compare equal to
//! themselves.

use renuver::core::config::AUTO_MIN_ROWS;
use renuver::core::{BatchResult, Engine, ImputationResult, IndexMode, Renuver, RenuverConfig};
use renuver::data::{Cell, Relation, Tuple};
use renuver::datasets::Dataset;
use renuver::eval::inject;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::RfdSet;
use renuver::serve::artifact;
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

/// The one-shot incremental result reshaped to batch-relative rows, in
/// the same canonical rendering as [`canon_batch`]. Donor rows are left
/// absolute on both sides (the engine keeps them engine-absolute by
/// contract).
fn canon_oneshot(r: &ImputationResult, base: usize) -> String {
    let rebase = |c: Cell| Cell::new(c.row - base, c.col);
    let tuples: Vec<Tuple> = (base..r.relation.len()).map(|i| r.relation.tuple(i).clone()).collect();
    let outcomes: Vec<_> = r.outcomes.iter().map(|(c, o)| (rebase(*c), *o)).collect();
    let imputed: Vec<_> = r
        .imputed
        .iter()
        .cloned()
        .map(|mut rec| {
            rec.cell = rebase(rec.cell);
            rec
        })
        .collect();
    let explains: Vec<_> = r
        .explains
        .iter()
        .cloned()
        .map(|mut exp| {
            exp.cell = rebase(exp.cell);
            exp
        })
        .collect();
    format!("{tuples:?}|{outcomes:?}|{imputed:?}|{explains:?}|{:?}", r.stats)
}

/// Splits the last `k` rows of `rel` off as the request batch.
fn split(rel: &Relation, k: usize) -> (Relation, Vec<Tuple>) {
    let base_len = rel.len() - k;
    let mut base = rel.clone();
    base.truncate(base_len);
    let batch = (base_len..rel.len()).map(|i| rel.tuple(i).clone()).collect();
    (base, batch)
}

/// Runs both paths and asserts the equivalence; returns the batch result
/// for further checks.
fn assert_batch_matches_oneshot(
    base: &Relation,
    batch: &[Tuple],
    sigma: &RfdSet,
    mode: IndexMode,
) -> BatchResult {
    let mut appended = base.clone();
    for t in batch {
        appended.push(t.clone()).unwrap();
    }
    let oneshot = Renuver::new(config(mode)).impute_appended(&appended, base.len(), sigma);

    let mut engine = Engine::prepare(base.clone(), sigma.clone(), config(mode));
    let result = engine.impute_batch(batch.to_vec()).unwrap();
    assert_eq!(
        canon_batch(&result),
        canon_oneshot(&oneshot, base.len()),
        "engine batch diverged from impute_appended ({mode:?})"
    );

    // The engine rolled back and answers the same batch identically again.
    assert_eq!(engine.relation().len(), engine.donor_rows());
    let again = engine.impute_batch(batch.to_vec()).unwrap();
    assert_eq!(canon_batch(&again), canon_batch(&result), "engine state leaked across batches");
    result
}

/// Builds an engine, snapshots it, reloads, and asserts both engines
/// answer `batch` identically.
fn assert_artifact_load_matches_build(
    base: &Relation,
    batch: &[Tuple],
    sigma: &RfdSet,
    mode: IndexMode,
) {
    let mut built = Engine::prepare(base.clone(), sigma.clone(), config(mode));
    let bytes = artifact::encode_engine(&built, "differential", 0);
    let loaded = artifact::decode(&bytes).expect("snapshot decodes");
    // Decode builds under the default config, so the index follows
    // `IndexMode::Auto` whatever mode the encoded engine ran in.
    assert_eq!(loaded.index.is_some(), base.len() >= AUTO_MIN_ROWS);
    let mut loaded = loaded.into_engine(config(mode));

    let a = built.impute_batch(batch.to_vec()).unwrap();
    let b = loaded.impute_batch(batch.to_vec()).unwrap();
    assert_eq!(
        canon_batch(&a),
        canon_batch(&b),
        "loaded engine diverged from freshly built engine ({mode:?})"
    );
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
fn restaurant_batch_matches_impute_appended() {
    let (base, batch, sigma) = restaurant_fixture();
    assert!(batch.iter().any(|t| t.iter().any(|v| v.is_null())), "batch must contain holes");
    for mode in [IndexMode::Scan, IndexMode::Indexed] {
        let result = assert_batch_matches_oneshot(&base, &batch, &sigma, mode);
        assert!(result.stats.missing_total > 0, "fixture imputed nothing");
    }
}

#[test]
fn restaurant_artifact_load_matches_build() {
    let (base, batch, sigma) = restaurant_fixture();
    for mode in [IndexMode::Scan, IndexMode::Indexed] {
        assert_artifact_load_matches_build(&base, &batch, &sigma, mode);
    }
}

#[test]
fn restaurant_artifact_file_round_trip() {
    let (base, batch, sigma) = restaurant_fixture();
    let engine = Engine::prepare(base.clone(), sigma.clone(), config(IndexMode::Indexed));
    let path = std::env::temp_dir().join("renuver_serve_differential.rnv");
    std::fs::write(&path, artifact::encode_engine(&engine, "differential-file", 0)).unwrap();
    let loaded = artifact::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.source, "differential-file");
    assert_eq!(loaded.relation.len(), base.len());

    let mut built = Engine::prepare(base, sigma, config(IndexMode::Indexed));
    let mut loaded = loaded.into_engine(config(IndexMode::Indexed));
    let a = built.impute_batch(batch.clone()).unwrap();
    let b = loaded.impute_batch(batch).unwrap();
    assert_eq!(canon_batch(&a), canon_batch(&b));
}

// ---------------------------------------------------------- 5 k synthetic

fn synthetic_fixture() -> (Relation, Vec<Tuple>, RfdSet) {
    let rel = synthetic_shops(5_000);
    // The discovery-realistic tight set `bench_index` uses as headline.
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
fn synthetic_5k_batch_matches_impute_appended() {
    let (base, batch, sigma) = synthetic_fixture();
    for mode in [IndexMode::Scan, IndexMode::Indexed] {
        assert_batch_matches_oneshot(&base, &batch, &sigma, mode);
    }
}

#[test]
fn synthetic_5k_artifact_load_matches_build() {
    let (base, batch, sigma) = synthetic_fixture();
    assert_artifact_load_matches_build(&base, &batch, &sigma, IndexMode::Indexed);
}
