//! Measures what structured tracing costs — a full imputation run with the
//! disabled tracer vs a fresh enabled tracer per run — and writes the
//! results to `BENCH_obs.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_obs`
//! (`--quick` shrinks the fixture, `--out <path>` overrides the output
//! file). The fixture is the 5 000-row synthetic shop relation of the
//! differential suites. Two claims are checked here:
//!
//! * the **disabled** tracer is the default configuration, so the plain
//!   run *is* the production path — its time is the baseline;
//! * an **enabled** tracer (which also turns on per-cell explain
//!   computation: LHS distance vectors, runner-up margins) should cost at
//!   most a few percent; `overhead_pct` records the measured figure and
//!   the budget in DESIGN.md is 5%.
//!
//! Plain and traced runs are timed in interleaved pairs, alternating which
//! of the two goes first, so host drift over the measurement lands on
//! both sides alike. `overhead_pct` is the median of the per-pair
//! overheads; both per-side medians are reported next to it.
//!
//! The binary also asserts the traced run's decisions are bit-identical to
//! the plain run's — tracing observes the pipeline, it never steers it.

use renuver_bench::{
    available_cores, median, out_path, quick_mode, synthetic_shops, time_ms, write_bench_json,
};
use renuver_core::{Renuver, RenuverConfig};
use renuver_eval::inject;
use renuver_obs::Tracer;
use renuver_rfd::RfdSet;

fn main() {
    let cores = available_cores();
    let pairs = if quick_mode() { 3 } else { 15 };
    let n = if quick_mode() { 1_000 } else { 5_000 };
    let rel = synthetic_shops(n);
    // The tight-threshold set of `bench_index`: the discovery-realistic
    // regime, where per-cell work (and thus per-cell tracing) dominates.
    let sigma = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\n\
         Zip(<=0) -> City(<=3)\n\
         Name(<=1) -> City(<=3)\n\
         Zip(<=0) -> Class(<=8)",
        rel.schema(),
    )
    .unwrap();
    let (incomplete, _truth) = inject(&rel, 0.002, 23);

    // Single-threaded for stable medians: the per-thread trace buffers are
    // exercised by the determinism suites; here we want the overhead.
    let engine = |tracer: Tracer| {
        Renuver::new(RenuverConfig { parallelism: 1, tracer, ..RenuverConfig::default() })
    };
    let plain_run = || drop(engine(Tracer::disabled()).impute(&incomplete, &sigma));
    // A fresh tracer per run: an accumulating buffer would make later
    // samples pay for earlier runs' records.
    let traced_run = || drop(engine(Tracer::enabled()).impute(&incomplete, &sigma));

    let (mut plain, mut traced, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (p, t) = if pair % 2 == 0 {
            let p = time_ms(plain_run);
            (p, time_ms(traced_run))
        } else {
            let t = time_ms(traced_run);
            (time_ms(plain_run), t)
        };
        plain.push(p);
        traced.push(t);
        overhead.push((t - p) / p * 100.0);
    }
    let (plain_ms, traced_ms) = (median(plain), median(traced));
    let overhead_pct = median(overhead);

    // Correctness cross-check: tracing never changes a decision.
    let tracer = Tracer::enabled();
    let traced = engine(tracer.clone()).impute(&incomplete, &sigma);
    let plain = engine(Tracer::disabled()).impute(&incomplete, &sigma);
    assert_eq!(traced, plain, "tracing changed the run's decisions");
    let records = tracer.records().len();

    let json = format!(
        "{{\n  \
         \"machine_cores\": {cores},\n  \
         \"pairs\": {pairs},\n  \
         \"rows\": {n},\n  \
         \"missing_cells\": {missing},\n  \
         \"trace_records\": {records},\n  \
         \"impute_end_to_end\": {{\n    \
         \"plain_ms\": {plain_ms:.3},\n    \
         \"traced_ms\": {traced_ms:.3},\n    \
         \"overhead_pct\": {overhead_pct:.2},\n    \
         \"overhead_budget_pct\": 5.0\n  }}\n}}\n",
        missing = incomplete.missing_count(),
    );

    write_bench_json(&out_path("BENCH_obs.json"), &json);
}
