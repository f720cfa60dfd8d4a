//! Measures the threshold-tuning loop end to end — iterations to the
//! quality target, wall time per iteration, and the held-out score
//! trajectory — and writes the results to `BENCH_tune.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_tune`
//! (`--quick` shrinks the fixture, `--out <path>` overrides the output
//! file). The fixture is the synthetic Restaurant relation (the
//! paper's fuzzy-duplicate regime: ~26% of listings appear twice with
//! spelling variants) under deliberately *tight* RFDs — `Name(≤0)`
//! finds only exact-duplicate donors, so the loop has real recall
//! headroom to climb and the trajectory is informative rather than
//! flat.
//!
//! Two figures matter here:
//!
//! * **iterations_to_target** — how many impute/score/adjust rounds the
//!   loop needs before held-out F1 crosses the target (null when it
//!   stops for another reason: convergence, a revisit, iteration cap,
//!   budget);
//! * **mean_iteration_ms** — the unit cost a `/v1/tune` job pays per
//!   round, which bounds how long the single-flight slot stays busy.
//!
//! The run also re-checks determinism at the bench scale: a second tune
//! with the same seed must produce byte-identical thresholds.

use renuver_bench::{available_cores, out_path, quick_mode, write_bench_json};
use renuver_datasets::restaurant;
use renuver_rfd::RfdSet;
use renuver_tune::{tune, TuneConfig};

fn main() {
    let cores = available_cores();
    let quick = quick_mode();
    let n = if quick { 300 } else { restaurant::TUPLES };
    let rel = restaurant::generate_n(n, 11);
    // Tight where it hurts: the planted duplicate variants sit at Name
    // edit distance 2–6, so `Name(<=0)` starts recall-starved on
    // Phone/Address and tuning has real headroom. `Type -> Class` is an
    // exact planted FD: already perfect, a correct tune leaves it alone.
    let sigma = RfdSet::from_text(
        "Name(<=0) -> Phone(<=4)\n\
         Name(<=0) -> Address(<=6)\n\
         Phone(<=0) -> City(<=12)\n\
         Type(<=0) -> Class(<=0)",
        rel.schema(),
    )
    .unwrap();

    let cfg = TuneConfig {
        seed: 7,
        sample_rate: 0.1,
        max_iters: if quick { 4 } else { 10 },
        parallelism: 1,
        ..TuneConfig::default()
    };

    let start = std::time::Instant::now();
    let report = tune(&rel, &sigma, &cfg);
    let total_ms = start.elapsed().as_secs_f64() * 1e3;

    // Determinism at bench scale: same seed, same thresholds, exactly.
    let again = tune(&rel, &sigma, &cfg);
    assert_eq!(
        report.tuned.to_text(rel.schema()),
        again.tuned.to_text(rel.schema()),
        "same-seed tune runs diverged"
    );

    let iters = report.iterations.len();
    let mean_iteration_ms = if iters > 0 { total_ms / iters as f64 } else { 0.0 };
    let to_target = if report.stop.label() == "target" { iters.to_string() } else { "null".into() };

    let mut trajectory = String::new();
    for it in &report.iterations {
        if !trajectory.is_empty() {
            trajectory.push_str(",\n    ");
        }
        trajectory.push_str(&format!(
            "{{\"iter\": {}, \"precision\": {:.4}, \"recall\": {:.4}, \"f1\": {:.4}, \
             \"elapsed_ms\": {:.3}, \"candidates\": {}, \"moves\": {}}}",
            it.iter,
            it.scores.precision,
            it.scores.recall,
            it.scores.f1,
            it.elapsed.as_secs_f64() * 1e3,
            it.work.candidates_scored,
            it.moves.len(),
        ));
    }

    let json = format!(
        "{{\n  \
         \"machine_cores\": {cores},\n  \
         \"rows\": {n},\n  \
         \"rfds\": {rfds},\n  \
         \"masked_cells\": {masked},\n  \
         \"seed\": 7,\n  \
         \"target_f1\": {target:.2},\n  \
         \"stop\": \"{stop}\",\n  \
         \"iterations_run\": {iters},\n  \
         \"iterations_to_target\": {to_target},\n  \
         \"baseline_f1\": {base:.4},\n  \
         \"best_f1\": {best:.4},\n  \
         \"total_ms\": {total_ms:.3},\n  \
         \"mean_iteration_ms\": {mean_iteration_ms:.3},\n  \
         \"trajectory\": [\n    {trajectory}\n  ]\n}}\n",
        rfds = sigma.len(),
        masked = report.masked,
        target = cfg.target_f1,
        stop = report.stop.label(),
        base = report.baseline.f1,
        best = report.best_f1,
    );
    write_bench_json(&out_path("BENCH_tune.json"), &json);
}
