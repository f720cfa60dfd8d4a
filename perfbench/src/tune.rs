//! `tune`: threshold-tuning jobs through the CLI.
//!
//! One op is `renuver tune` on the `bench_tune` fixture (Restaurant, 864
//! rows, generator seed 11, its four tight RFDs) with `--seed 7 --rate
//! 0.1`, run as a child process. Every op is identical: tune's iteration
//! count, and so its cost, changes with the fixture and the mask seed
//! (3 to 9 iterations across seeds 1 to 12), so neither follows the run's
//! `--seed`. Each iteration re-runs `Renuver::impute` and so rebuilds the
//! oracle; iteration 2 re-scores iteration 0's thresholds. Discovery,
//! HTTP and WAL are absent.

use std::collections::BTreeSet;
use std::time::Instant;

use renuver_core::config::AUTO_MIN_ROWS;
use renuver_core::{Renuver, RenuverConfig};
use renuver_data::{csv, AttrType, Relation};
use renuver_datasets::restaurant;
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_obs::Tracer;
use renuver_rfd::{Rfd, RfdSet};
use renuver_tune::{mask::mask_sample, tune, widened, TuneConfig, TuneReport};

use crate::report::{Checks, Outcome};
use crate::stats::{mean, median, ratio, Digest};
use crate::sys::{children_peak_rss_mb, HostWatch};
use crate::trace::{
    add_core_stats, counter, phase_ms, set_core_counts, spans_path, Clock, Recorder, Sums,
};
use crate::{arg, Run};

/// Nominal jobs per second of `--seconds` (a job took ~0.45 s on the
/// 2-core reference VM).
const JOBS_PER_SECOND: f64 = 2.0;
const SETUPS: usize = 3;
/// Jobs the traced run replays; every job does identical work.
const REPLAY_JOBS: usize = 10;
const FIXTURE_ROWS: usize = 864;
const FIXTURE_SEED: u64 = 11;
const TUNE_SEED: u64 = 7;
const RATE: f64 = 0.1;
const RFDS: &str = "Name(<=0) -> Phone(<=4)\n\
                    Name(<=0) -> Address(<=6)\n\
                    Phone(<=0) -> City(<=12)\n\
                    Type(<=0) -> Class(<=0)\n";

/// The CLI's tune configuration for these flags.
fn config() -> TuneConfig {
    TuneConfig {
        seed: TUNE_SEED,
        sample_rate: RATE,
        ..TuneConfig::default()
    }
}

/// One finished CLI job: exit status, tuned RFD text, stderr.
struct JobResult {
    ok: bool,
    text: String,
    stderr: String,
}

fn cli_job(run: &Run, out_name: &str) -> Result<JobResult, String> {
    let out_path = run.path(out_name);
    let (fixture, rfds) = (run.path("fixture.csv"), run.path("rfds.txt"));
    let out = run.renuver(&[
        "tune",
        arg(&fixture),
        "--rfds",
        arg(&rfds),
        "--seed",
        &TUNE_SEED.to_string(),
        "--rate",
        &RATE.to_string(),
        "--out",
        arg(&out_path),
    ])?;
    Ok(JobResult {
        ok: out.status.success(),
        text: std::fs::read_to_string(&out_path).unwrap_or_default(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

/// Checks a job and returns the best held-out F1 its report printed.
fn check_job(rel: &Relation, job: &JobResult, expected: &str) -> Result<f64, String> {
    if !job.ok {
        return Err(format!("tune exited with failure: {}", job.stderr.trim()));
    }
    let tuned = RfdSet::from_text(&job.text, rel.schema())?;
    if tuned.len() != 4 {
        return Err(format!("tune wrote {} RFDs, expected 4", tuned.len()));
    }
    if job.text != expected {
        return Err("tuned RFD text differs from the run's first job".into());
    }
    let stop = job
        .stderr
        .lines()
        .find(|l| l.starts_with("stop:"))
        .ok_or("no stop line")?;
    stop.split("best F1 ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("no best F1 in {stop:?}"))
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let n = run.ops(JOBS_PER_SECOND, 4);
    let rel = restaurant::generate_n(FIXTURE_ROWS, FIXTURE_SEED);
    let mut setup_s = Vec::new();
    let mut warm = String::new();
    for k in 0..if run.trace { 1 } else { SETUPS } {
        let t = if k == 0 { run.started } else { Instant::now() };
        csv::write_path(&rel, run.path("fixture.csv")).map_err(|e| e.to_string())?;
        std::fs::write(run.path("rfds.txt"), RFDS).map_err(|e| e.to_string())?;
        let job = cli_job(run, "warm-up.txt")?;
        if !job.ok {
            return Err(format!("warm-up tune failed: {}", job.stderr.trim()));
        }
        warm = job.text;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut jobs = Vec::with_capacity(n);
    let mut job_ms = Vec::with_capacity(n);
    let mut turnaround_us = Vec::new();
    let host = HostWatch::start();
    let t0 = Instant::now();
    let mut last_exit: Option<Instant> = None;
    for i in 0..n {
        if let Some(exit) = last_exit {
            turnaround_us.push(exit.elapsed().as_secs_f64() * 1e6);
        }
        let j0 = Instant::now();
        jobs.push(cli_job(run, &format!("tuned-{i}.txt"))?);
        last_exit = Some(Instant::now());
        job_ms.push(j0.elapsed().as_secs_f64() * 1e3);
    }
    let wall = t0.elapsed().as_secs_f64();
    let host = host.stop(&turnaround_us);
    let peak_rss = children_peak_rss_mb();

    let mut checks = Checks::default();
    let mut f1 = Vec::new();
    let mut digest = Digest::new();
    for job in &jobs {
        checks.check(check_job(&rel, job, &warm).map(|f| f1.push(f)));
        digest.record(job.text.as_bytes());
    }
    let mut out = Outcome::new(checks);
    out.digest = Some(digest.value());
    out.set("setup_s", median(&setup_s));
    out.set("ops_per_s", n as f64 / wall);
    out.set("read_p50_ms", median(&job_ms));
    out.note("read_p50_ms", format!("median of {n} tune jobs"));
    out.set("f1", median(&f1));
    out.note("f1", "best held-out F1 of the tune report".to_string());
    out.set("peak_rss_mb", peak_rss);
    out.line(format!(
        "workload tune: {n} CLI tune jobs, closed loop, 1 job in flight; Restaurant \
         {FIXTURE_ROWS} rows (seed {FIXTURE_SEED}), 4 RFDs, --seed {TUNE_SEED} --rate {RATE}"
    ));
    out.line(host);
    if run.trace {
        traced(run, n, &warm, mean(&job_ms), &mut out)?;
    }
    Ok(out)
}

/// The CLI job in-process: read the fixture, parse the RFDs, tune, write
/// the tuned RFD text.
fn replay_job(run: &Run, clock: &mut Clock) -> Result<(TuneReport, String), String> {
    let (rel, _) = clock.time("data.csv_read", || csv::read_path(run.path("fixture.csv")));
    let rel = rel.map_err(|e| e.to_string())?;
    let (rfds, _) = clock.time("rfd.parse", || RfdSet::from_text(RFDS, rel.schema()));
    let rfds = rfds?;
    let (report, _) = clock.time("tune.run", || tune(&rel, &rfds, &config()));
    let (text, _) = clock.time("rfd.write", || {
        let text = report.tuned.to_text(rel.schema());
        std::fs::write(run.path("replay.txt"), &text).map(|()| text)
    });
    Ok((report, text.map_err(|e| e.to_string())?))
}

/// The threshold-width vector each iteration scored, rebuilt from the
/// report's moves (iteration 0 scores the discovery thresholds).
fn scored_widths(report: &TuneReport, targets: &[usize]) -> Vec<Vec<(usize, u64)>> {
    let mut widths: Vec<(usize, f64)> = targets.iter().map(|&a| (a, 0.0)).collect();
    let mut scored = Vec::new();
    for it in &report.iterations {
        scored.push(widths.iter().map(|&(a, w)| (a, w.to_bits())).collect());
        for mv in &it.moves {
            if let Some(slot) = widths.iter_mut().find(|(a, _)| *a == mv.attr) {
                slot.1 = mv.new;
            }
        }
    }
    scored
}

fn traced(
    run: &Run,
    jobs: usize,
    cli_text: &str,
    e2e_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = jobs.min(REPLAY_JOBS);
    let k = (n / 3).max(1);
    let rel = restaurant::generate_n(FIXTURE_ROWS, FIXTURE_SEED);
    let rfds = RfdSet::from_text(RFDS, rel.schema())?;
    let targets: Vec<usize> = rfds
        .iter()
        .map(Rfd::rhs_attr)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (masked, _) = mask_sample(&rel, &targets, TUNE_SEED, RATE);

    let mut rec = Recorder::new();
    let mut sums = Sums::default();
    let (mut untraced_ms, mut traced_first_k) = (0.0, 0.0);
    let mut mismatches = 0usize;
    let (mut hits, mut direct) = (0.0, 0.0);
    for op in 0..n {
        if op < k {
            let t = Instant::now();
            replay_job(run, &mut Clock::Off)?;
            untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        let op_span = rec.open("tune.job", op, None);
        let (report, text) = replay_job(
            run,
            &mut Clock::On {
                rec: &mut rec,
                op_span,
            },
        )?;
        let op_ms = rec.close(op_span);
        if op < k {
            traced_first_k += op_ms;
        }
        if text != cli_text {
            mismatches += 1;
        }
        let iters = report.iterations.len() as f64;
        let core_ms: f64 = report
            .iterations
            .iter()
            .map(|it| it.elapsed.as_secs_f64() * 1e3)
            .sum();
        let scored = scored_widths(&report, &targets);
        let distinct = scored.iter().collect::<BTreeSet<_>>().len() as f64;
        sums.add("core", core_ms);
        sums.add("iterations", iters);
        sums.add("revisited", iters - distinct);
        sums.add("distinct", distinct);
        sums.add(
            "tune_candidates",
            report
                .iterations
                .iter()
                .map(|it| it.work.candidates_scored as f64)
                .sum(),
        );

        // Probes: every iteration's imputation again, traced, on its
        // thresholds; and the oracle and index each iteration rebuilds.
        for (it, widths) in report.iterations.iter().zip(&scored) {
            let widths = widths
                .iter()
                .map(|&(a, w)| (a, f64::from_bits(w)))
                .collect();
            let tracer = Tracer::enabled();
            let config = RenuverConfig {
                tracer: tracer.clone(),
                ..RenuverConfig::default()
            };
            let effective = widened(&rfds, &widths);
            let (result, _) = rec.probe("core.impute", op, || {
                Renuver::new(config).impute(&masked, &effective)
            });
            if result.stats.candidates_scored as u64 != it.work.candidates_scored {
                mismatches += 1;
            }
            add_core_stats(&mut sums, &result.stats);
            sums.add("partition_keys", phase_ms(&tracer, "core::partition_keys"));
            sums.add("impute_cells", phase_ms(&tracer, "core::impute_cells"));
            hits += counter(&tracer, "oracle.matrix_hits");
            direct += counter(&tracer, "oracle.direct_calls");
        }
        let (oracle, oracle_ms) = rec.probe("distance.oracle_build", op, || {
            DistanceOracle::build(&masked, DEFAULT_DICT_CAP)
        });
        sums.add("oracle", oracle_ms * iters);
        if masked.len() >= AUTO_MIN_ROWS {
            let (_, index_ms) = rec.probe("distance.index_build", op, || {
                SimilarityIndex::build(&masked, &oracle)
            });
            sums.add("index", index_ms * iters);
        }
        if op == 0 {
            let (_, keys) = rfds.partition_keys(&masked);
            sums.add("keys", keys.len() as f64);
            for attr in 0..masked.arity() {
                if masked.schema().ty(attr) == AttrType::Text {
                    let name = if oracle.dictionary(attr).is_some() {
                        "matrix_cols"
                    } else {
                        "direct_cols"
                    };
                    sums.add(name, 1.0);
                }
            }
        }
    }
    out.checks.check(if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{mismatches} in-process replays differ from the CLI or the report"
        ))
    });
    let _ = rec.write_jsonl(&spans_path(run));

    let ops = n as f64;
    let per = |name: &str| sums.get(name) / ops;
    let by_name = rec.self_ms_by_name();
    let span = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / ops;
    let distance = per("oracle") + per("index");
    out.set("data.csv_read_ms", span("data.csv_read"));
    out.set("data.self_ms", span("data.csv_read"));
    out.set("data.rows", FIXTURE_ROWS as f64);
    out.set("rfd.self_ms", span("rfd.parse") + span("rfd.write"));
    out.set("rfd.rfds", rfds.len() as f64);
    out.set("rfd.key_rfds", sums.get("keys"));
    out.set("distance.oracle_build_ms", per("oracle"));
    out.set("distance.index_build_ms", per("index"));
    out.set("distance.self_ms", distance);
    out.set("distance.matrix_columns", sums.get("matrix_cols"));
    out.set("distance.direct_columns", sums.get("direct_cols"));
    out.set("distance.matrix_hit_ratio", ratio(hits, hits + direct));
    out.set("core.impute_ms", per("core"));
    out.set("core.self_ms", per("core") - distance);
    set_core_counts(out, &sums, ops);
    out.set("tune.self_ms", span("tune.run") - per("core"));
    out.set("tune.iterations", per("iterations"));
    out.set("tune.iteration_ms", span("tune.run") / per("iterations"));
    out.set("tune.revisited", per("revisited"));
    out.set(
        "tune.distinct_ratio",
        ratio(sums.get("distinct"), sums.get("iterations")),
    );
    out.set("tune.candidates", per("tune_candidates"));
    out.attribute(e2e_ms, traced_first_k, untraced_ms);
    out.layer_table(&run.workload, "per tune job");
    Ok(())
}
