//! The repository benchmark: drives the release `renuver` binary through
//! four workloads (`batch`, `serve-read`, `serve-write`, `tune`), checks
//! every output, and prints one JSON result line. With `--trace 1` it then
//! replays the workload in-process through the layers' public functions
//! and reports per-layer metrics in place of the end-to-end ones. See
//! `perfbench/README.md`.
//!
//! ```text
//! perfbench --renuver <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod batch;
mod http;
mod inputs;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod tune;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Output, Stdio};
use std::time::Instant;

use report::{Checks, Outcome, END_TO_END, PER_LAYER};
use stats::Digest;

/// The allocator the `renuver` binary installs (it counts live heap bytes
/// for memory budgets). The in-process replay installs it too, so the
/// layers it times run on the same allocator as the program.
#[global_allocator]
static ALLOC: renuver_budget::TrackingAlloc = renuver_budget::TrackingAlloc;

/// Everything a workload needs to know about its run.
pub struct Run {
    /// When this process started; the first set-up is timed from here.
    pub started: Instant,
    /// The `renuver` binary under test.
    pub renuver: PathBuf,
    /// This run's scratch directory, removed when the run ends.
    pub work: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    /// Ops in the fixed op list: `--seconds` times the workload's nominal
    /// rate. The rate is a constant, so a faster program does the same
    /// work in less time rather than more work.
    pub fn ops(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds as f64 * per_second).round() as usize).max(min)
    }

    /// A path inside the run's scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Runs `renuver <args>` to completion, capturing its output.
    pub fn renuver(&self, args: &[&str]) -> Result<Output, String> {
        Command::new(&self.renuver)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning renuver {}: {e}", args.join(" ")))
    }
}

/// A path as a command-line argument; the benchmark's paths are UTF-8.
pub fn arg(path: &Path) -> &str {
    path.to_str().expect("scratch paths are UTF-8")
}

fn main() -> ExitCode {
    let started = Instant::now();
    match drive(started) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive(started: Instant) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    let seed: u64 = flag("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: u64 = flag("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be an integer")?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let renuver = PathBuf::from(flag("--renuver")?);
    if !renuver.is_file() {
        return Err(format!("no renuver binary at {}", renuver.display()));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let bench = PathBuf::from(".bench_work");
    let work = bench.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let run = Run {
        started,
        renuver,
        work,
        workload,
        seed,
        seconds,
        trace,
    };

    let result = match run.workload.as_str() {
        "batch" => batch::run(&run),
        "serve-read" => serve::run(&run, serve::Mode::Read),
        "serve-write" => serve::run(&run, serve::Mode::Write),
        "tune" => tune::run(&run),
        other => Err(format!(
            "unknown workload {other:?} (expected batch, serve-read, serve-write or tune)"
        )),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    let mut outcome = result?;

    if let Some(digest) = outcome.digest {
        let verdict = record_digest(&bench, &run, digest)?;
        outcome.line(format!("output digest {digest:016x} ({verdict})"));
        outcome.checks.check(match verdict {
            Verdict::Mismatch(prev) => Err(format!(
                "output digest {digest:016x} differs from {prev:016x} of an earlier run \
                 of the same binary and seed"
            )),
            _ => Ok(()),
        });
    }
    finish(&run, outcome);
    Ok(())
}

enum Verdict {
    First,
    Repeated,
    Mismatch(u64),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::First => f.write_str("first run of this binary and seed"),
            Verdict::Repeated => f.write_str("matches earlier runs of this binary and seed"),
            Verdict::Mismatch(_) => f.write_str("DIFFERS from an earlier run"),
        }
    }
}

/// Compares `digest` with earlier runs of the same binary, workload,
/// seed and length (kept in `.bench_work/digests.tsv`) and records it.
fn record_digest(bench: &Path, run: &Run, digest: u64) -> Result<Verdict, String> {
    let bytes =
        std::fs::read(&run.renuver).map_err(|e| format!("{}: {e}", run.renuver.display()))?;
    let mut build = Digest::new();
    build.update(&bytes);
    let key = format!(
        "{}\t{}\t{}\t{:016x}",
        run.workload,
        run.seed,
        run.seconds,
        build.value()
    );
    let store = bench.join("digests.tsv");
    let text = std::fs::read_to_string(&store).unwrap_or_default();
    let earlier = text.lines().find_map(|line| {
        let (k, d) = line.rsplit_once('\t')?;
        (k == key)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    });
    match earlier {
        Some(prev) if prev == digest => Ok(Verdict::Repeated),
        Some(prev) => Ok(Verdict::Mismatch(prev)),
        None => {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&store)
                .map_err(|e| format!("{}: {e}", store.display()))?;
            writeln!(file, "{key}\t{digest:016x}")
                .map_err(|e| format!("{}: {e}", store.display()))?;
            Ok(Verdict::First)
        }
    }
}

/// Prints the report lines, any failures, and the final JSON line.
fn finish(run: &Run, outcome: Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for line in outcome.lines.iter().chain(&outcome.end_to_end_lines()) {
        println!("{line}");
    }
    let Checks {
        attempted, failed, ..
    } = outcome.checks;
    println!("checks: {attempted} attempted, {failed} failed");
    for why in outcome.checks.failures() {
        println!("  failed: {why}");
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.json_line(table));
}
