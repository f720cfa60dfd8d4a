//! Measures the parallel-layer speedups (1 thread vs all cores) on the two
//! headline hot paths — distance-oracle construction and end-to-end
//! imputation — and writes the results to `BENCH_parallel.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_parallel`
//! (`--quick` shrinks the fixtures, `--out <path>` overrides the output
//! file). Speedups are reported against the machine's measured wall-clock
//! medians; `machine_cores` records how many cores were actually available,
//! since the expected speedup on a single-core machine is ~1.0.

use renuver_bench::{
    available_cores, median_ms, out_path, parallel_fixture, quick_mode, rfds_for,
    write_bench_json, DATA_SEED,
};
use renuver_core::{Renuver, RenuverConfig};
use renuver_datasets::Dataset;
use renuver_distance::DistanceOracle;
use renuver_eval::inject;

fn main() {
    let cores = available_cores();
    let runs = if quick_mode() { 3 } else { 7 };
    let (n, k) = if quick_mode() { (1_000, 300) } else { (3_000, 600) };

    // Hot path 1: the O(k²) Levenshtein matrix fill of the oracle build.
    let rel = parallel_fixture(n, k);
    let seq_pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let par_pool = rayon::ThreadPoolBuilder::new().num_threads(0).build().unwrap();
    let oracle_seq =
        median_ms(runs, || drop(seq_pool.install(|| DistanceOracle::build(&rel, 3_000))));
    let oracle_par =
        median_ms(runs, || drop(par_pool.install(|| DistanceOracle::build(&rel, 3_000))));

    // Hot path 2: a full imputation run, whose oracle build is its one
    // parallel step (the per-cell scans are sequential at every width).
    let ds = Dataset::Restaurant;
    let data = ds.relation(DATA_SEED);
    let rfds = rfds_for(ds, 15.0);
    let (incomplete, _) = inject(&data, 0.03, 1);
    let engine_seq = Renuver::new(RenuverConfig { parallelism: 1, ..RenuverConfig::default() });
    let engine_par = Renuver::new(RenuverConfig { parallelism: 0, ..RenuverConfig::default() });
    let impute_seq = median_ms(runs, || drop(engine_seq.impute(&incomplete, &rfds)));
    let impute_par = median_ms(runs, || drop(engine_par.impute(&incomplete, &rfds)));

    // Correctness cross-check while we're here: identical outputs.
    assert_eq!(
        engine_seq.impute(&incomplete, &rfds),
        engine_par.impute(&incomplete, &rfds),
        "parallel and sequential runs diverged"
    );

    let json = format!(
        "{{\n  \
         \"machine_cores\": {cores},\n  \
         \"runs_per_measurement\": {runs},\n  \
         \"oracle_build\": {{\n    \
         \"rows\": {n},\n    \
         \"distinct_values\": {k},\n    \
         \"sequential_ms\": {oracle_seq:.3},\n    \
         \"parallel_ms\": {oracle_par:.3},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"impute_end_to_end\": {{\n    \
         \"dataset\": \"{}\",\n    \
         \"missing_rate\": 0.03,\n    \
         \"sequential_ms\": {impute_seq:.3},\n    \
         \"parallel_ms\": {impute_par:.3},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        oracle_seq / oracle_par,
        ds.name(),
        impute_seq / impute_par,
    );

    write_bench_json(&out_path("BENCH_parallel.json"), &json);
}
