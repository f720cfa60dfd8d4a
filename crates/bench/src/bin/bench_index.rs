//! Measures what the similarity index buys over the naive reference scans
//! — candidate generation and end-to-end imputation at `parallelism: 1` —
//! and writes the results to `BENCH_index.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_index`
//! (`--quick` shrinks the fixture, `--out <path>` overrides the output
//! file). Everything is measured single-threaded on purpose: the index is
//! an *algorithmic* improvement (inverted-list lookups instead of O(n)
//! distance checks per query), so its speedup must not be conflated with
//! the thread-pool speedups `bench_parallel` reports.
//!
//! Two RFD sets run over the same relation:
//!
//! * the **headline** set uses tight thresholds — the regime RFD
//!   discovery actually produces and the index is built for, where the
//!   q-gram/value filters are selective;
//! * the **loose** set (the one `tests/index_differential.rs` pins for
//!   correctness) has thresholds so wide that true neighborhoods cover
//!   much of the relation. There the selectivity cutoff makes the index
//!   decline and fall back to scans, so its speedup hovers near 1× by
//!   design — recorded here to document that regime, not to win it.

use renuver_bench::{
    available_cores, median_ms, out_path, quick_mode, synthetic_shops, write_bench_json,
};
use renuver_core::{
    find_candidate_tuples, find_candidate_tuples_with, IndexMode, Renuver, RenuverConfig,
};
use renuver_data::Relation;
use renuver_distance::{DistanceOracle, SimilarityIndex};
use renuver_eval::inject;
use renuver_rfd::{Rfd, RfdSet};

/// Every missing cell with a non-empty cluster — the per-cell loop of
/// Algorithm 2 — paired with its cluster under `sigma`.
fn cluster_cells<'a>(rel: &Relation, sigma: &'a RfdSet) -> Vec<(usize, usize, Vec<&'a Rfd>)> {
    (0..rel.len())
        .flat_map(|row| (0..rel.arity()).map(move |attr| (row, attr)))
        .filter(|&(row, attr)| rel.is_missing(row, attr))
        .map(|(row, attr)| {
            let cluster: Vec<&Rfd> = sigma.iter().filter(|r| r.rhs_attr() == attr).collect();
            (row, attr, cluster)
        })
        .filter(|(_, _, cluster)| !cluster.is_empty())
        .collect()
}

/// Candidate generation over all cluster cells, scan vs indexed. Returns
/// `(queries, scan_ms, indexed_ms)`.
fn measure_candidates(
    rel: &Relation,
    sigma: &RfdSet,
    oracle: &DistanceOracle,
    index: &SimilarityIndex,
    runs: usize,
) -> (usize, f64, f64) {
    let cells = cluster_cells(rel, sigma);
    let scan = median_ms(runs, || {
        for (row, attr, cluster) in &cells {
            drop(find_candidate_tuples(oracle, rel, *row, *attr, cluster));
        }
    });
    let indexed = median_ms(runs, || {
        for (row, attr, cluster) in &cells {
            drop(find_candidate_tuples_with(oracle, Some(index), rel, *row, *attr, cluster));
        }
    });
    (cells.len(), scan, indexed)
}

fn main() {
    let runs = if quick_mode() { 3 } else { 7 };
    let n = if quick_mode() { 1_000 } else { 5_000 };
    let rel = synthetic_shops(n);
    // Headline: discovery-realistic tight thresholds (selective filters).
    let tight = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\n\
         Zip(<=0) -> City(<=3)\n\
         Name(<=1) -> City(<=3)\n\
         Zip(<=0) -> Class(<=8)",
        rel.schema(),
    )
    .unwrap();
    // Secondary: the loose thresholds the differential suite pins.
    let loose = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\n\
         Zip(<=1) -> City(<=3)\n\
         Name(<=3) -> City(<=6)\n\
         Zip(<=0) -> Class(<=8)",
        rel.schema(),
    )
    .unwrap();
    let (incomplete, _truth) = inject(&rel, 0.002, 23);

    let oracle = DistanceOracle::build(&incomplete, 3_000);
    let index_build_ms = median_ms(runs, || drop(SimilarityIndex::build(&incomplete, &oracle)));
    let index = SimilarityIndex::build(&incomplete, &oracle);

    let (queries, cand_scan, cand_indexed) =
        measure_candidates(&incomplete, &tight, &oracle, &index, runs);
    let (loose_queries, loose_scan, loose_indexed) =
        measure_candidates(&incomplete, &loose, &oracle, &index, runs);

    // End-to-end run, index construction included.
    let engine = |mode: IndexMode| {
        Renuver::new(RenuverConfig { parallelism: 1, index_mode: mode, ..RenuverConfig::default() })
    };
    let impute_scan = median_ms(runs, || drop(engine(IndexMode::Scan).impute(&incomplete, &tight)));
    let impute_indexed =
        median_ms(runs, || drop(engine(IndexMode::Indexed).impute(&incomplete, &tight)));

    // Correctness cross-check while we're here (the differential suite is
    // the real harness; this catches a stale build).
    for sigma in [&tight, &loose] {
        assert_eq!(
            engine(IndexMode::Scan).impute(&incomplete, sigma),
            engine(IndexMode::Indexed).impute(&incomplete, sigma),
            "indexed and scan runs diverged"
        );
    }

    let json = format!(
        "{{\n  \
         \"machine_cores\": {},\n  \
         \"rows\": {n},\n  \
         \"runs_per_measurement\": {runs},\n  \
         \"parallelism\": 1,\n  \
         \"index_build_ms\": {index_build_ms:.3},\n  \
         \"candidate_generation\": {{\n    \
         \"queries\": {queries},\n    \
         \"scan_ms\": {cand_scan:.3},\n    \
         \"indexed_ms\": {cand_indexed:.3},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"candidate_generation_loose_thresholds\": {{\n    \
         \"queries\": {loose_queries},\n    \
         \"scan_ms\": {loose_scan:.3},\n    \
         \"indexed_ms\": {loose_indexed:.3},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"impute_end_to_end\": {{\n    \
         \"scan_ms\": {impute_scan:.3},\n    \
         \"indexed_ms\": {impute_indexed:.3},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        available_cores(),
        cand_scan / cand_indexed,
        loose_scan / loose_indexed,
        impute_scan / impute_indexed,
    );

    write_bench_json(&out_path("BENCH_index.json"), &json);
}
