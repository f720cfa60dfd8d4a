//! `batch`: offline imputation jobs through the CLI.
//!
//! One op is `renuver impute <holes.csv> --limit 3 --out …` run as a
//! child process, one at a time. The op list is a number of rounds, each
//! one job on every one of the paper's four datasets (Restaurant, Cars,
//! Glass, Bridges at paper size, 5% seeded MCAR holes). Every round has
//! the same mix, so the round latency (reported as `read_p50_ms`) has a
//! stable median, which single jobs of four very different sizes would
//! not. Discovery (`rfd`) and imputation (`core`, with its `distance`
//! oracle) dominate; no HTTP, WAL or registry runs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use renuver_core::config::AUTO_MIN_ROWS;
use renuver_core::{Renuver, RenuverConfig};
use renuver_data::{csv, AttrType, Relation};
use renuver_datasets::Dataset;
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_eval::{evaluate, inject, GroundTruth};
use renuver_obs::Tracer;
use renuver_rfd::discovery::{discover_outcome, DiscoveryConfig};
use renuver_rfd::RfdSet;

use crate::inputs::{Score, DATA_SEED};
use crate::report::{Checks, Outcome};
use crate::stats::{derive, mean, median, ratio, Digest};
use crate::sys::{children_peak_rss_mb, HostWatch};
use crate::trace::{
    add_core_stats, counter, phase_ms, set_core_counts, spans_path, Clock, Recorder, Sums,
};
use crate::{arg, Run};

/// Nominal rounds per second of `--seconds` (a round took ~2.2 s on the
/// 2-core reference VM).
const ROUNDS_PER_SECOND: f64 = 0.45;
const HOLE_RATE: f64 = 0.05;
const SETUPS: usize = 3;
const SALT: u64 = 0xBA7C;

struct Job {
    dataset: Dataset,
    input: PathBuf,
    output: PathBuf,
    incomplete: Relation,
    truth: GroundTruth,
}

/// Writes every round's hole files; jobs are in round-major order.
fn inputs(run: &Run, rounds: usize) -> Result<Vec<Job>, String> {
    let full: Vec<Relation> = Dataset::all()
        .iter()
        .map(|d| d.relation(DATA_SEED))
        .collect();
    let mut jobs = Vec::with_capacity(rounds * 4);
    for round in 0..rounds {
        for (d, (dataset, rel)) in Dataset::all().into_iter().zip(&full).enumerate() {
            let holes = derive(run.seed, SALT, (round * 4 + d) as u64);
            let (incomplete, truth) = inject(rel, HOLE_RATE, holes);
            let name = dataset.name().to_ascii_lowercase();
            let input = run.path(&format!("{name}-{round}.csv"));
            csv::write_path(&incomplete, &input)
                .map_err(|e| format!("{}: {e}", input.display()))?;
            let output = run.path(&format!("{name}-{round}.out.csv"));
            jobs.push(Job {
                dataset,
                input,
                output,
                incomplete,
                truth,
            });
        }
    }
    Ok(jobs)
}

/// Runs one job through the CLI; `Err` only when it cannot be spawned.
fn cli_job(run: &Run, job: &Job) -> Result<(bool, String), String> {
    let out = run.renuver(&[
        "impute",
        arg(&job.input),
        "--limit",
        "3",
        "--out",
        arg(&job.output),
    ])?;
    Ok((
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// Checks a finished job's output and scores it: the repaired CSV must
/// have the input's rows and leave every known cell unchanged.
fn check_job(job: &Job, ok: bool, stderr: &str, score: &mut Score) -> Result<Vec<u8>, String> {
    let name = job.dataset.name();
    if !ok {
        return Err(format!("{name} job exited with failure: {}", stderr.trim()));
    }
    let bytes = std::fs::read(&job.output).map_err(|e| format!("{name} output: {e}"))?;
    let text = std::str::from_utf8(&bytes).map_err(|_| format!("{name} output is not UTF-8"))?;
    let repaired = csv::read_str(text).map_err(|e| format!("{name} output: {e}"))?;
    if repaired.len() != job.incomplete.len() || repaired.arity() != job.incomplete.arity() {
        return Err(format!(
            "{name} output has {}x{}, input {}x{}",
            repaired.len(),
            repaired.arity(),
            job.incomplete.len(),
            job.incomplete.arity()
        ));
    }
    for row in 0..repaired.len() {
        for col in 0..repaired.arity() {
            let known = job.incomplete.value(row, col);
            if !known.is_null() && known.render() != repaired.value(row, col).render() {
                return Err(format!("{name} output changed known cell ({row}, {col})"));
            }
        }
    }
    score.add(evaluate(&repaired, &job.truth, &job.dataset.rules()));
    Ok(bytes)
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let rounds = run.ops(ROUNDS_PER_SECOND, 2);
    // Set-up: generate the inputs, then one untimed warm-up round. It is
    // repeated and the median reported, so set-up time is steady.
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    let mut warm = Digest::new();
    for k in 0..if run.trace { 1 } else { SETUPS } {
        let t = if k == 0 { run.started } else { Instant::now() };
        jobs = inputs(run, rounds)?;
        warm = Digest::new();
        for job in &jobs[..4] {
            let (ok, stderr) = cli_job(run, job)?;
            let out = check_job(job, ok, &stderr, &mut Score::default())
                .map_err(|e| format!("warm-up: {e}"))?;
            warm.record(&out);
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Timed phase: the fixed round list, one job in flight.
    let mut results = Vec::with_capacity(jobs.len());
    let mut job_s = vec![Vec::new(); 4];
    let mut round_ms = Vec::with_capacity(rounds);
    let mut turnaround_us = Vec::new();
    let host = HostWatch::start();
    let t0 = Instant::now();
    let mut last_exit: Option<Instant> = None;
    for round in jobs.chunks(4) {
        let r0 = Instant::now();
        for (d, job) in round.iter().enumerate() {
            if let Some(exit) = last_exit {
                turnaround_us.push(exit.elapsed().as_secs_f64() * 1e6);
            }
            let j0 = Instant::now();
            results.push(cli_job(run, job)?);
            last_exit = Some(Instant::now());
            job_s[d].push(j0.elapsed().as_secs_f64());
        }
        round_ms.push(r0.elapsed().as_secs_f64() * 1e3);
    }
    let wall = t0.elapsed().as_secs_f64();
    let host = host.stop(&turnaround_us);
    let peak_rss = children_peak_rss_mb();

    // Checks, scoring and the digest, untimed.
    let mut checks = Checks::default();
    let mut score = Score::default();
    let mut digest = Digest::new();
    let mut first_round = Digest::new();
    for (i, (job, (ok, stderr))) in jobs.iter().zip(&results).enumerate() {
        let verdict = check_job(job, *ok, stderr, &mut score).map(|bytes| {
            digest.record(&bytes);
            if i < 4 {
                first_round.record(&bytes);
            }
        });
        checks.check(verdict.map_err(|e| format!("round {}: {e}", i / 4)));
    }
    checks.check(if first_round.value() == warm.value() {
        Ok(())
    } else {
        Err("round 0 outputs differ from the warm-up pass on the same inputs".into())
    });

    let mut out = Outcome::new(checks);
    out.digest = Some(digest.value());
    out.set("setup_s", median(&setup_s));
    out.set("ops_per_s", jobs.len() as f64 / wall);
    out.set("read_p50_ms", median(&round_ms));
    out.note(
        "read_p50_ms",
        format!("median of {rounds} rounds of 4 jobs"),
    );
    out.set("f1", score.f1());
    out.note("f1", format!("{} held-out cells", score.cells()));
    out.set("peak_rss_mb", peak_rss);
    out.line(format!(
        "workload batch: {rounds} rounds x 4 CLI impute jobs, closed loop, 1 job in flight; \
         datasets at paper size (seed {DATA_SEED}), {:.0}% MCAR holes",
        HOLE_RATE * 100.0
    ));
    let per_dataset: Vec<String> = Dataset::all()
        .iter()
        .zip(&job_s)
        .map(|(d, s)| format!("{} {:.1}", d.name(), median(s) * 1e3))
        .collect();
    out.line(format!("job p50 ms by dataset: {}", per_dataset.join(", ")));
    out.line(host);
    if run.trace {
        traced(run, &jobs, mean(&round_ms), &mut out)?;
    }
    Ok(out)
}

/// The CLI job's work in-process, through the layers' public functions:
/// read, discover (the CLI's `--limit 3` configuration), impute, write.
/// With `traced`, the core run carries an enabled tracer so its phase
/// spans and oracle counters can be read back.
fn replay_job(
    job: &Job,
    out_path: &Path,
    clock: &mut Clock,
    tracer: &Tracer,
    sums: &mut Sums,
) -> Result<(String, Relation, RfdSet), String> {
    let (rel, read_ms) = clock.time("data.csv_read", || csv::read_path(&job.input));
    let rel = rel.map_err(|e| e.to_string())?;
    let cfg = DiscoveryConfig {
        max_lhs: 2,
        ..DiscoveryConfig::with_limit(3.0)
    };
    let (found, discover_ms) = clock.time("rfd.discover", || discover_outcome(&rel, &cfg));
    let config = RenuverConfig {
        tracer: tracer.clone(),
        ..RenuverConfig::default()
    };
    let (result, impute_ms) = clock.time("core.impute", || {
        Renuver::new(config).impute(&rel, &found.rfds)
    });
    let (written, write_ms) = clock.time("data.csv_write", || {
        csv::write_path(&result.relation, out_path)
    });
    written.map_err(|e| e.to_string())?;
    sums.add("read", read_ms);
    sums.add("discover", discover_ms);
    sums.add("impute", impute_ms);
    sums.add("write", write_ms);
    sums.add("rows", rel.len() as f64);
    sums.add("rfds", found.rfds.len() as f64);
    add_core_stats(sums, &result.stats);
    Ok((csv::write_string(&result.relation), rel, found.rfds))
}

/// The traced run: replays the same jobs in-process, every round with a
/// span per layer call plus probes, and attributes the end-to-end round
/// time. The opening rounds also run untraced (whole ops timed only),
/// each just before its traced run, for the tracing overhead.
fn traced(run: &Run, jobs: &[Job], e2e_round_ms: f64, out: &mut Outcome) -> Result<(), String> {
    // The first half of the rounds: every round holds all four datasets.
    let rounds = (jobs.len() / 4).div_ceil(2);
    let jobs = &jobs[..rounds * 4];
    let k = (rounds / 3).max(1);
    let scratch = run.path("replay.csv");
    let mut rec = Recorder::new();
    let mut sums = Sums::default();
    let (mut untraced_ms, mut traced_first_k) = (0.0, 0.0);
    let mut mismatches = 0usize;
    let (mut hits, mut direct) = (0.0, 0.0);
    for (i, job) in jobs.iter().enumerate() {
        let op = i / 4;
        if op < k {
            let t = Instant::now();
            replay_job(
                job,
                &scratch,
                &mut Clock::Off,
                &Tracer::disabled(),
                &mut Sums::default(),
            )?;
            untraced_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        let op_span = rec.open("batch.job", op, None);
        let tracer = Tracer::enabled();
        let (replay, rel, rfds) = replay_job(
            job,
            &scratch,
            &mut Clock::On {
                rec: &mut rec,
                op_span,
            },
            &tracer,
            &mut sums,
        )?;
        let op_ms = rec.close(op_span);
        if op < k {
            traced_first_k += op_ms;
        }
        let cli = std::fs::read_to_string(&job.output).unwrap_or_default();
        if cli != replay {
            mismatches += 1;
        }
        sums.add("partition_keys", phase_ms(&tracer, "core::partition_keys"));
        sums.add("impute_cells", phase_ms(&tracer, "core::impute_cells"));
        hits += counter(&tracer, "oracle.matrix_hits");
        direct += counter(&tracer, "oracle.direct_calls");

        // Probes: the distance structures Renuver::impute builds, built
        // again on identical input, and the key partition of Σ.
        let (oracle, oracle_ms) = rec.probe("distance.oracle_build", op, || {
            DistanceOracle::build(&rel, DEFAULT_DICT_CAP)
        });
        sums.add("oracle", oracle_ms);
        if rel.len() >= AUTO_MIN_ROWS {
            let (_, index_ms) = rec.probe("distance.index_build", op, || {
                SimilarityIndex::build(&rel, &oracle)
            });
            sums.add("index", index_ms);
        }
        let ((_, keys), _) = rec.probe("rfd.partition_keys", op, || rfds.partition_keys(&rel));
        sums.add("keys", keys.len() as f64);
        for attr in 0..rel.arity() {
            if rel.schema().ty(attr) == AttrType::Text {
                let name = if oracle.dictionary(attr).is_some() {
                    "matrix_cols"
                } else {
                    "direct_cols"
                };
                sums.add(name, 1.0);
            }
        }
    }
    out.checks.check(if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{mismatches} in-process replays differ from the CLI output"
        ))
    });
    let _ = rec.write_jsonl(&spans_path(run));

    let per = |name: &str| sums.get(name) / rounds as f64;
    let distance = per("oracle") + per("index");
    out.set("data.csv_read_ms", per("read"));
    out.set("data.csv_write_ms", per("write"));
    out.set("data.self_ms", per("read") + per("write"));
    out.set("data.rows", per("rows"));
    out.set("rfd.discover_ms", per("discover"));
    out.set("rfd.self_ms", per("discover"));
    out.set("rfd.rfds", per("rfds"));
    out.set("rfd.key_rfds", per("keys"));
    out.set("distance.oracle_build_ms", per("oracle"));
    out.set("distance.index_build_ms", per("index"));
    out.set("distance.self_ms", distance);
    out.set("distance.matrix_columns", per("matrix_cols"));
    out.set("distance.direct_columns", per("direct_cols"));
    out.set("distance.matrix_hit_ratio", ratio(hits, hits + direct));
    out.set("core.impute_ms", per("impute"));
    out.set("core.self_ms", per("impute") - distance);
    set_core_counts(out, &sums, rounds as f64);
    out.attribute(e2e_round_ms, traced_first_k, untraced_ms);
    out.layer_table(&run.workload, "per round of 4 jobs");
    Ok(())
}
