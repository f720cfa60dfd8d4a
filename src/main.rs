//! `renuver` — command-line interface to the imputation pipeline.
//!
//! ```text
//! renuver stats    <data.csv>
//! renuver discover <data.csv> [--limit N] [--max-lhs N] [--out rfds.txt]
//! renuver inject   <data.csv> --rate R [--seed S] --out incomplete.csv
//! renuver impute   <data.csv> [--rfds rfds.txt | --limit N] [--out repaired.csv]
//!                  [--full-verify] [--descending]
//! renuver evaluate --original full.csv --incomplete holes.csv
//!                  --imputed repaired.csv [--rules rules.txt]
//! ```
//!
//! CSV files use a typed header (`Name:text,Class:int,...`); untyped
//! columns default to text. Missing values are empty fields or `_`.

use std::process::ExitCode;

use renuver::baselines::{Derand, DerandConfig, GreyKnn, GreyKnnConfig, Holoclean, HolocleanConfig};
use renuver::core::{ClusterOrder, Renuver, RenuverConfig, VerifyScope};
use renuver::data::{csv, Cell, Relation};
use renuver::dc::{discover_dcs, DcDiscoveryConfig};
use renuver::eval::{evaluate, inject};
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::RfdSet;
use renuver::rulekit::{parse_rules, RuleSet};

/// Counting allocator: makes `--mem-limit-mb` (and the peak-memory figures
/// the eval harness prints) measure real heap use. The counting cost is two
/// relaxed atomics per allocation.
#[global_allocator]
static ALLOC: renuver::budget::TrackingAlloc = renuver::budget::TrackingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  renuver stats    <data.csv>
  renuver audit    <data.csv> --rfds rfds.txt
  renuver discover <data.csv> [--limit N | --auto-limits F] [--max-lhs N]
                   [--out rfds.txt] [--summary] [budget flags]
  renuver inject   <data.csv> --rate R [--seed S] --out incomplete.csv
  renuver impute   <data.csv> [--rfds rfds.txt | --limit N] [--out repaired.csv]
                   [--approach renuver|derand|holoclean|knn] [--explain]
                   [--donors donor.csv] [--full-verify] [--descending]
                   [--auto-limits F] [--max-lhs N] [budget flags]
  renuver evaluate --original full.csv --incomplete holes.csv \\
                   --imputed repaired.csv [--rules rules.txt | --auto-rules F]
  renuver compare  <full.csv> --rate R [--limit N] [--seeds N]
                   [--auto-limits F] [--max-lhs N]
                   [--rules rules.txt | --auto-rules F] [--metrics-diff]
                   [budget flags]
  renuver tune     <data.csv | model.rnv> [--rfds rfds.txt | --limit N]
                   [--auto-limits F] [--max-lhs N] [--seed S] [--rate R]
                   [--iterations N] [--target-f1 F] [--step W]
                   [--rules rules.txt | --auto-rules F] [--parallelism N]
                   [--out tuned-rfds.txt] [budget flags]
  renuver prepare  <data.csv> (-o|--out) model.rnv
                   [--rfds rfds.txt | --limit N]
                   [--auto-limits F] [--max-lhs N]
  renuver inspect  <model.rnv>
  renuver ingest   <model.rnv> <batch.csv> [--out repaired.csv] [--compact]
                   [--compact-bytes-mb M] [--compact-records N]
                   [--log-out FILE]
  renuver serve    <model.rnv | data.csv> [--addr HOST:PORT] [--workers N]
                   [--queue N] [--max-body-mb M] [--default-timeout-ms T]
                   [--max-timeout-ms T] [--read-timeout-secs S]
                   [--wal] [--compact-bytes-mb M]
                   [--compact-records N] [--rfds rfds.txt | --limit N]
                   [--auto-limits F] [--max-lhs N]
                   [--log-out FILE] [--slow-threshold-ms T]
                   [--trace-max-events N] [--no-flight]

budget flags (discover, impute, compare, tune):
  --timeout-secs S   stop after S seconds, returning the partial result
  --mem-limit-mb M   stop when tracked heap use exceeds M MiB
  --ops-limit N      stop after N budget checkpoints (deterministic)

observability flags (discover, impute, compare, tune):
  --trace-out FILE   write a structured JSONL trace of the run; the schema
                     is documented in DESIGN.md and enforced by the
                     validate_trace binary
  --metrics          print the end-of-run metrics table on stderr

flight recorder flags (serve; ingest takes --log-out only):
  --log-out FILE        append one schema-checked JSONL line per request
                        (access) and lifecycle transition (server_event)
  --slow-threshold-ms T requests at or above T ms land in the slow ring
                        served by GET /v1/debug/requests (default 250)
  --trace-max-events N  cap on the ?trace=1 response envelope (default 256)
  --no-flight           disable request ids, latency windows, logging, and
                        the slow ring (overhead measurement)";

/// The recognised subcommands, in USAGE order — listed back to the user
/// when they mistype one.
const COMMANDS: &str = "stats, audit, discover, inject, impute, evaluate, compare, tune, \
     prepare, inspect, ingest, serve";

/// Flags `serve` still parses but no longer documents. `--shards N`
/// chose the shard count of the durable layout; every layout now holds
/// one snapshot and one WAL, so the flag is ignored with a note.
const UNDOCUMENTED_SERVE_FLAGS: [&str; 1] = ["--shards"];

/// Budget-related flags, shared by `discover`, `impute`, `compare`, and
/// `tune`.
const BUDGET_VALUE_FLAGS: [&str; 3] = ["--timeout-secs", "--mem-limit-mb", "--ops-limit"];

/// Flag parser with an explicit per-command vocabulary: every `--flag` must
/// be either a declared value flag (consumes the next argument) or a
/// declared boolean flag — anything else is rejected up front instead of
/// being silently mis-read as a positional or swallowing one.
#[derive(Debug)]
struct Args<'a> {
    raw: &'a [String],
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(
        raw: &'a [String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Args<'a>, String> {
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = raw[i].as_str();
            // `--flag` always enters the vocabulary check; declared short
            // flags (`-o`) do too, so they can take values like long ones.
            if a.starts_with("--") || value_flags.contains(&a) || bool_flags.contains(&a) {
                if value_flags.contains(&a) {
                    if i + 1 >= raw.len() {
                        return Err(format!("flag {a} requires a value"));
                    }
                    i += 1; // skip the flag's value
                } else if !bool_flags.contains(&a) {
                    return Err(format!("unknown flag {a:?} for this command"));
                }
            } else {
                positionals.push(a);
            }
            i += 1;
        }
        Ok(Args { raw, positionals })
    }

    fn positional(&self) -> &[&'a str] {
        &self.positionals
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    fn parse_value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value {raw:?} for {flag}")),
        }
    }
}

/// The budget limits requested on the command line. `build` produces a
/// **fresh** [`renuver::budget::Budget`] each call, so batch commands
/// (`compare`) can give every run its own deadline instead of sharing one
/// already-tripped handle.
#[derive(Clone, Copy, Default)]
struct BudgetSpec {
    timeout_secs: Option<f64>,
    mem_limit_mb: Option<usize>,
    ops_limit: Option<u64>,
}

impl BudgetSpec {
    fn from_args(args: &Args) -> Result<BudgetSpec, String> {
        let timeout_secs: Option<f64> = args.parse_value("--timeout-secs")?;
        if let Some(s) = timeout_secs {
            if !s.is_finite() || s < 0.0 {
                return Err("--timeout-secs must be finite and >= 0".into());
            }
        }
        Ok(BudgetSpec {
            timeout_secs,
            mem_limit_mb: args.parse_value("--mem-limit-mb")?,
            ops_limit: args.parse_value("--ops-limit")?,
        })
    }

    fn build(&self) -> renuver::budget::Budget {
        let mut b = renuver::budget::Budget::unlimited();
        if let Some(s) = self.timeout_secs {
            b = b.with_deadline(std::time::Duration::from_secs_f64(s));
        }
        if let Some(mb) = self.mem_limit_mb {
            b = b.with_mem_ceiling(mb.saturating_mul(1024 * 1024));
        }
        if let Some(n) = self.ops_limit {
            b = b.with_ops_limit(n);
        }
        b
    }

    fn is_limited(&self) -> bool {
        self.timeout_secs.is_some() || self.mem_limit_mb.is_some() || self.ops_limit.is_some()
    }
}

/// The observability flags shared by `discover`, `impute`, and `compare`.
/// Either flag enables the tracer; with neither present the pipelines get
/// the disabled tracer and pay only a branch per instrumentation site.
struct TraceSpec {
    tracer: renuver::obs::Tracer,
    out: Option<String>,
    metrics: bool,
}

impl TraceSpec {
    fn from_args(args: &Args) -> TraceSpec {
        let out = args.value("--trace-out").map(str::to_owned);
        let metrics = args.has("--metrics");
        let tracer = if out.is_some() || metrics {
            renuver::obs::Tracer::enabled()
        } else {
            renuver::obs::Tracer::disabled()
        };
        TraceSpec { tracer, out, metrics }
    }

    /// Attaches a fire-once hook that turns the budget's first trip into a
    /// `budget_trip` trace event (trip label + the phase it fired in).
    fn hook_budget(&self, budget: renuver::budget::Budget) -> renuver::budget::Budget {
        if !self.tracer.is_enabled() {
            return budget;
        }
        let tracer = self.tracer.clone();
        budget.with_trip_hook(std::sync::Arc::new(move |trip, phase| {
            tracer.event("budget_trip", 0, || {
                vec![
                    ("trip", renuver::obs::FieldValue::Str(trip.label())),
                    ("phase", renuver::obs::FieldValue::Str(phase)),
                ]
            });
        }))
    }

    /// Writes the requested sinks after the run: the JSONL trace file
    /// and/or the metrics table on stderr.
    fn finish(&self) -> Result<(), String> {
        if let Some(path) = &self.out {
            let lines = self
                .tracer
                .write_jsonl(path)
                .map_err(|e| format!("{path}: {e}"))?;
            eprintln!("trace: wrote {lines} JSONL records to {path}");
        }
        if self.metrics {
            eprint!("{}", self.tracer.metrics().render_table());
        }
        Ok(())
    }
}

fn load(path: &str) -> Result<Relation, String> {
    let result = if path.to_ascii_lowercase().ends_with(".arff") {
        renuver::data::arff::read_path(path)
    } else {
        csv::read_path(path)
    };
    result.map_err(|e| format!("{path}: {e}"))
}

fn save(rel: &Relation, path: &str) -> Result<(), String> {
    let result = if path.to_ascii_lowercase().ends_with(".arff") {
        renuver::data::arff::write_path(rel, "renuver", path)
    } else {
        csv::write_path(rel, path)
    };
    result.map_err(|e| format!("{path}: {e}"))
}

/// `(value flags, boolean flags)` accepted by a command. Budget flags are
/// appended for the commands that run the budgeted pipelines.
fn flag_spec(cmd: &str) -> Option<(Vec<&'static str>, Vec<&'static str>)> {
    let discovery = ["--limit", "--auto-limits", "--max-lhs"];
    let (mut values, mut bools): (Vec<&str>, Vec<&str>) = match cmd {
        "stats" => (vec![], vec![]),
        "audit" => (vec!["--rfds"], vec![]),
        "discover" => {
            let mut v = vec!["--out"];
            v.extend(discovery);
            (v, vec!["--summary"])
        }
        "inject" => (vec!["--rate", "--seed", "--out"], vec![]),
        "impute" => {
            let mut v = vec!["--rfds", "--out", "--approach", "--donors"];
            v.extend(discovery);
            (v, vec!["--full-verify", "--descending", "--explain"])
        }
        "evaluate" => (
            vec!["--original", "--incomplete", "--imputed", "--rules", "--auto-rules"],
            vec![],
        ),
        "compare" => {
            let mut v = vec!["--rate", "--seeds", "--rules", "--auto-rules"];
            v.extend(discovery);
            (v, vec!["--metrics-diff"])
        }
        "tune" => {
            let mut v = vec![
                "--rfds",
                "--seed",
                "--rate",
                "--iterations",
                "--target-f1",
                "--step",
                "--parallelism",
                "--rules",
                "--auto-rules",
                "--out",
            ];
            v.extend(discovery);
            (v, vec![])
        }
        "prepare" => {
            let mut v = vec!["-o", "--out", "--rfds"];
            v.extend(discovery);
            (v, vec![])
        }
        "inspect" => (vec![], vec![]),
        "ingest" => (
            vec!["--out", "--compact-bytes-mb", "--compact-records", "--log-out"],
            vec!["--compact"],
        ),
        "serve" => {
            let mut v = vec![
                "--addr",
                "--workers",
                "--queue",
                "--max-body-mb",
                "--default-timeout-ms",
                "--max-timeout-ms",
                "--read-timeout-secs",
                "--compact-bytes-mb",
                "--compact-records",
                "--rfds",
                "--log-out",
                "--slow-threshold-ms",
                "--trace-max-events",
            ];
            v.extend(discovery);
            v.extend(UNDOCUMENTED_SERVE_FLAGS);
            (v, vec!["--wal", "--no-flight"])
        }
        _ => return None,
    };
    if matches!(cmd, "discover" | "impute" | "compare" | "tune") {
        values.extend(BUDGET_VALUE_FLAGS);
        values.push("--trace-out");
        bools.push("--metrics");
    }
    Some((values, bools))
}

fn run(raw: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = raw.split_first() else {
        return Err("missing command".into());
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return Ok(());
    }
    let Some((value_flags, bool_flags)) = flag_spec(cmd) else {
        return Err(format!("unknown command {cmd:?} (valid commands: {COMMANDS})"));
    };
    let args = Args::parse(rest, &value_flags, &bool_flags)?;
    // Pipeline commands behave like unix filters: `renuver inspect m.rnv |
    // head` should end quietly when the pipe closes, not panic on the next
    // println. `serve` keeps Rust's SIGPIPE=ignore default — its socket
    // writes must surface EPIPE as an error, not kill the process.
    if cmd != "serve" {
        restore_default_sigpipe();
    }
    match cmd.as_str() {
        "stats" => stats(&args),
        "audit" => audit_cmd(&args),
        "discover" => discover_cmd(&args),
        "inject" => inject_cmd(&args),
        "impute" => impute_cmd(&args),
        "evaluate" => evaluate_cmd(&args),
        "compare" => compare_cmd(&args),
        "tune" => tune_cmd(&args),
        "prepare" => prepare_cmd(&args),
        "inspect" => inspect_cmd(&args),
        "ingest" => ingest_cmd(&args),
        "serve" => serve_cmd(&args),
        other => Err(format!("unknown command {other:?} (valid commands: {COMMANDS})")),
    }
}

/// Resets `SIGPIPE` to its default disposition (terminate). The `signal`
/// symbol comes from the libc std already links; no crate dependency.
#[cfg(unix)]
fn restore_default_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

fn one_positional(args: &Args) -> Result<String, String> {
    match args.positional() {
        [p] => Ok((*p).to_owned()),
        other => Err(format!("expected exactly one input file, got {}", other.len())),
    }
}

fn stats(args: &Args) -> Result<(), String> {
    let rel = load(&one_positional(args)?)?;
    println!("schema:  {}", rel.schema());
    println!("tuples:  {}", rel.len());
    println!(
        "missing: {} cells in {} incomplete tuples",
        rel.missing_count(),
        rel.incomplete_rows().len()
    );
    for p in renuver::data::profile(&rel) {
        let extra = match (p.numeric_range, p.text_len_range) {
            (Some((lo, hi)), _) => format!("range [{lo}, {hi}]"),
            (None, Some((lo, hi))) => format!("length {lo}..{hi}"),
            _ => String::new(),
        };
        println!(
            "  {:<20} {:>6} distinct, {:>5} missing  {extra}",
            p.name, p.distinct, p.nulls
        );
    }
    Ok(())
}

fn audit_cmd(args: &Args) -> Result<(), String> {
    let rel = load(&one_positional(args)?)?;
    let path = args.value("--rfds").ok_or("audit requires --rfds")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let rfds = RfdSet::from_text(&text, rel.schema())?;
    let report = renuver::core::audit(&rel, &rfds, &[], &renuver::core::AuditConfig::default());
    print!("{}", renuver::core::audit::render_report(&report, &rfds, &rel));
    if report.is_consistent() {
        Ok(())
    } else {
        Err(format!(
            "instance violates {} of {} dependencies",
            report.violations.len(),
            report.checked
        ))
    }
}

fn discovery_config(args: &Args, rel: &Relation) -> Result<DiscoveryConfig, String> {
    let limit: f64 = args.parse_value("--limit")?.unwrap_or(3.0);
    if !(0.0..=1000.0).contains(&limit) {
        return Err("--limit must be in 0..=1000".into());
    }
    let max_lhs: usize = args.parse_value("--max-lhs")?.unwrap_or(2);
    // Distribution-scaled per-attribute limits (fraction of each
    // attribute's spread) instead of one global limit.
    let per_attr_limits = args
        .parse_value::<f64>("--auto-limits")?
        .map(|fraction| {
            if !(0.0..=1.0).contains(&fraction) {
                return Err("--auto-limits must be a fraction in 0..=1".to_string());
            }
            Ok(renuver::rfd::discovery::auto_limits(rel, fraction))
        })
        .transpose()?;
    Ok(DiscoveryConfig { max_lhs, per_attr_limits, ..DiscoveryConfig::with_limit(limit) })
}

fn discover_cmd(args: &Args) -> Result<(), String> {
    let rel = load(&one_positional(args)?)?;
    let spec = BudgetSpec::from_args(args)?;
    let tspec = TraceSpec::from_args(args);
    let mut cfg = discovery_config(args, &rel)?;
    cfg.budget = tspec.hook_budget(spec.build());
    cfg.tracer = tspec.tracer.clone();
    let outcome = renuver::rfd::discovery::discover_outcome(&rel, &cfg);
    let rfds = outcome.rfds;
    if args.has("--summary") {
        eprint!("{}", rfds.summary(rel.schema()));
    }
    let text = rfds.to_text(rel.schema());
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {} RFDs to {path}", rfds.len());
        }
        None => print!("{text}"),
    }
    // A truncated frontier is a *partial but valid* result, not a failure:
    // report it on stderr and still exit 0.
    if outcome.truncated {
        let why = outcome
            .budget
            .tripped
            .map(|t| t.to_string())
            .unwrap_or_else(|| "budget".into());
        eprintln!(
            "truncated: {why} tripped after {}; the {} RFDs above are the frontier found so far",
            renuver::budget::format_duration(outcome.budget.elapsed),
            rfds.len(),
        );
    }
    tspec.finish()
}

fn inject_cmd(args: &Args) -> Result<(), String> {
    let rel = load(&one_positional(args)?)?;
    let rate: f64 = args
        .parse_value("--rate")?
        .ok_or("inject requires --rate (e.g. 0.05)")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err("--rate must be in 0..=1".into());
    }
    let seed: u64 = args.parse_value("--seed")?.unwrap_or(42);
    let out = args.value("--out").ok_or("inject requires --out")?;
    let (incomplete, truth) = inject(&rel, rate, seed);
    save(&incomplete, out)?;
    println!(
        "injected {} missing values ({}%) into {out}",
        truth.len(),
        rate * 100.0
    );
    Ok(())
}

fn impute_cmd(args: &Args) -> Result<(), String> {
    let rel = load(&one_positional(args)?)?;
    let approach = args.value("--approach").unwrap_or("renuver");
    if !matches!(approach, "renuver" | "derand" | "holoclean" | "knn") {
        return Err(format!(
            "unknown approach {approach:?} (expected renuver, derand, holoclean, or knn)"
        ));
    }
    let tspec = TraceSpec::from_args(args);
    if approach != "renuver" && tspec.tracer.is_enabled() {
        return Err(format!(
            "--trace-out/--metrics instrument the renuver pipeline only, not {approach:?}"
        ));
    }
    // The statistical approaches do not consume RFDs.
    if matches!(approach, "holoclean" | "knn") {
        let repaired = match approach {
            "holoclean" => {
                let dcs = discover_dcs(&rel, &DcDiscoveryConfig::default());
                eprintln!("holoclean: {} denial constraints discovered", dcs.len());
                Holoclean::new(HolocleanConfig::default()).impute(&rel, &dcs)
            }
            _ => GreyKnn::new(GreyKnnConfig::default()).impute(&rel),
        };
        let before = rel.missing_count();
        eprintln!(
            "imputed {}/{} missing cells with {approach}",
            before - repaired.missing_count(),
            before
        );
        return match args.value("--out") {
            Some(path) => save(&repaired, path),
            None => {
                print!("{}", csv::write_string(&repaired));
                Ok(())
            }
        };
    }

    let rfds = match args.value("--rfds") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            RfdSet::from_text(&text, rel.schema())?
        }
        None => {
            let cfg = discovery_config(args, &rel)?;
            eprintln!("no --rfds given; discovering with limit {}", cfg.limit);
            discover(&rel, &cfg)
        }
    };
    let spec = BudgetSpec::from_args(args)?;
    let config = RenuverConfig {
        verify_scope: if args.has("--full-verify") {
            VerifyScope::Full
        } else {
            VerifyScope::LhsOnly
        },
        cluster_order: if args.has("--descending") {
            ClusterOrder::Descending
        } else {
            ClusterOrder::Ascending
        },
        budget: tspec.hook_budget(spec.build()),
        tracer: tspec.tracer.clone(),
        explain: args.has("--explain"),
        ..RenuverConfig::default()
    };
    if approach == "derand" {
        let repaired = Derand::new(DerandConfig::default()).impute(&rel, &rfds);
        let before = rel.missing_count();
        eprintln!(
            "imputed {}/{} missing cells with derand ({} rules)",
            before - repaired.missing_count(),
            before,
            rfds.len()
        );
        return match args.value("--out") {
            Some(path) => save(&repaired, path),
            None => {
                print!("{}", csv::write_string(&repaired));
                Ok(())
            }
        };
    }
    let engine = Renuver::new(config);
    let result = match args.value("--donors") {
        Some(path) => {
            let donor = load(path)?;
            engine
                .impute_with_donors(&rel, &[&donor], &rfds)
                .map_err(|e| e.to_string())?
        }
        None => engine.impute(&rel, &rfds),
    };
    eprintln!(
        "imputed {}/{} missing cells with {} RFDs ({} candidates verified, {} rejected)",
        result.stats.imputed,
        result.stats.missing_total,
        rfds.len(),
        result.stats.verifications,
        result.stats.verification_failures,
    );
    // A tripped budget yields a partial repair: say what was skipped and
    // why, but the partial relation is still written and the exit code
    // stays 0.
    if let Some(trip) = result.budget.tripped {
        eprintln!(
            "budget: {trip} tripped at {} after {}; {} cells skipped, {} cancelled",
            result.budget.tripped_at.unwrap_or("unknown"),
            renuver::budget::format_duration(result.budget.elapsed),
            result.stats.skipped_budget,
            result.stats.cancelled,
        );
    } else if spec.is_limited() {
        eprintln!(
            "budget: finished within limits ({} elapsed, peak {})",
            renuver::budget::format_duration(result.budget.elapsed),
            renuver::budget::format_bytes(result.budget.peak_bytes),
        );
    }
    if args.has("--explain") {
        // One line per missing cell, straight from the CellExplain records:
        // imputed cells name the donor, distance, runner-up margin, and the
        // RFDs that generated candidates; dry cells name the first reason
        // the candidate stream ran out.
        for e in &result.explains {
            let attr = rel.schema().name(e.cell.col);
            match &e.winner {
                Some(w) => {
                    let value = result
                        .imputed
                        .iter()
                        .find(|ic| ic.cell == e.cell)
                        .map(|ic| ic.value.render())
                        .unwrap_or_default();
                    let margin = match w.runner_up_margin {
                        Some(m) => format!(", runner-up +{m:.2}"),
                        None => String::new(),
                    };
                    eprintln!(
                        "  row {} [{attr}] <- {value:?} from row {} \
                         (distance {:.2}{margin}) via {}; {} candidate(s) \
                         in {} cluster(s) from rfds {:?}",
                        e.cell.row,
                        w.donor_row,
                        w.distance,
                        rfds.get(w.via_rfd).display(rel.schema()),
                        e.candidates,
                        e.clusters,
                        e.generating_rfds,
                    );
                }
                None => {
                    let why = match e.dried_up {
                        Some(renuver::core::DryReason::NoActiveRfds) => {
                            "no active RFD targets this attribute".to_string()
                        }
                        Some(renuver::core::DryReason::NoCandidates) => {
                            format!("no candidates in {} cluster(s)", e.clusters)
                        }
                        Some(renuver::core::DryReason::AllRejected) => {
                            format!("all {} candidate(s) failed verification", e.candidates)
                        }
                        Some(renuver::core::DryReason::Budget(trip)) => {
                            format!("budget: {trip}")
                        }
                        Some(renuver::core::DryReason::Cancelled) => "run cancelled".to_string(),
                        None => "no consistent candidate".to_string(),
                    };
                    eprintln!("  row {} [{attr}] left missing ({why})", e.cell.row);
                }
            }
        }
    }
    match args.value("--out") {
        Some(path) => save(&result.relation, path)?,
        None => print!("{}", csv::write_string(&result.relation)),
    }
    tspec.finish()
}

/// Runs all four approaches on seeded injections of a complete file and
/// prints the paper-style comparison table.
fn compare_cmd(args: &Args) -> Result<(), String> {
    use renuver::baselines::{DerandConfig, GreyKnnConfig, HolocleanConfig};
    use renuver::eval::{
        average_scores, diff_table, run_variants_budgeted, run_variants_parallel, DerandImputer,
        GreyKnnImputer, HolocleanImputer, Imputer, MetricsDiff, RenuverImputer, WorkMetrics,
    };
    let rel = load(&one_positional(args)?)?;
    if rel.missing_count() > 0 {
        return Err(format!(
            "compare needs a complete instance to inject into; {} has {} missing cells",
            args.positional()[0],
            rel.missing_count()
        ));
    }
    let rate: f64 = args.parse_value("--rate")?.unwrap_or(0.03);
    if !(0.0..=1.0).contains(&rate) {
        return Err("--rate must be in 0..=1".into());
    }
    let n_seeds: u64 = args.parse_value("--seeds")?.unwrap_or(3);
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    let rules = match (args.value("--rules"), args.parse_value::<f64>("--auto-rules")?) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_rules(&text)?
        }
        (None, Some(fraction)) => renuver::eval::auto_rules(&rel, fraction),
        (None, None) => RuleSet::new(),
    };

    eprintln!("discovering metadata...");
    let cfg = discovery_config(args, &rel)?;
    let rfds = discover(&rel, &cfg);
    let dcs = discover_dcs(&rel, &DcDiscoveryConfig::default());
    eprintln!("{} RFDs, {} DCs", rfds.len(), dcs.len());

    let tspec = TraceSpec::from_args(args);
    let renuver_config = RenuverConfig { tracer: tspec.tracer.clone(), ..RenuverConfig::default() };
    let imputers: Vec<Box<dyn Imputer>> = vec![
        Box::new(RenuverImputer::new(renuver_config, rfds.clone())),
        Box::new(DerandImputer::new(DerandConfig::default(), rfds)),
        Box::new(HolocleanImputer::new(HolocleanConfig::default(), dcs)),
        Box::new(GreyKnnImputer::new(GreyKnnConfig::default())),
    ];
    let spec = BudgetSpec::from_args(args)?;
    let metrics_diff = args.has("--metrics-diff");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>10}",
        "approach", "precision", "recall", "F1", "avg time"
    );
    let mut any_tripped = false;
    let mut work_rows: Vec<(String, WorkMetrics)> = Vec::new();
    for imp in &imputers {
        // Budgeted comparisons run serially with a FRESH budget per
        // variant (one tripped deadline must not poison later runs);
        // unbudgeted ones keep the parallel fan-out. Traced comparisons
        // also run serially so the renuver runs' trace events land in
        // seed order instead of interleaving; `--metrics-diff` needs the
        // serial path too, because only it measures work counters.
        let outcomes = if spec.is_limited() || tspec.tracer.is_enabled() || metrics_diff {
            run_variants_budgeted(&rel, &rules, imp.as_ref(), rate, &seeds, &|| {
                tspec.hook_budget(spec.build())
            })
        } else {
            run_variants_parallel(&rel, &rules, imp.as_ref(), rate, &seeds)
        };
        if metrics_diff {
            work_rows.push((imp.name().to_string(), sum_work(&outcomes)));
        }
        let avg = average_scores(&outcomes);
        let marker = if avg.tripped.is_some() { "*" } else { "" };
        any_tripped |= avg.tripped.is_some();
        println!(
            "{:<12} {:>9.3} {:>9.3} {:>9.3} {:>8}ms{marker}",
            imp.name(),
            avg.scores.precision,
            avg.scores.recall,
            avg.scores.f1,
            avg.elapsed.as_millis()
        );
    }
    if any_tripped {
        println!("* budget tripped during at least one variant; scores reflect partial repairs");
    }
    if metrics_diff {
        // Per-variant work deltas against the first row (renuver). The
        // statistical baselines do not instrument work counters, so their
        // rows show what renuver spends relative to doing none of it.
        let baseline = work_rows[0].1.clone();
        let rows: Vec<(String, MetricsDiff)> =
            work_rows.iter().map(|(name, w)| (name.clone(), w.diff(&baseline))).collect();
        println!();
        println!("work deltas vs {}:", work_rows[0].0);
        print!("{}", diff_table(&rows));
    }
    tspec.finish()
}

/// Sums the measured work across a variant's seeded runs (runs without
/// work metrics — the statistical baselines — contribute nothing).
fn sum_work(outcomes: &[renuver::eval::RunOutcome]) -> renuver::eval::WorkMetrics {
    let mut total = renuver::eval::WorkMetrics::default();
    for outcome in outcomes {
        let Some(work) = &outcome.work else { continue };
        total.candidates_scored += work.candidates_scored;
        total.verifications += work.verifications;
        total.oracle_hits += work.oracle_hits;
        total.clusters_visited += work.clusters_visited;
        total.imputed += work.imputed;
        for (label, us) in &work.phases {
            match total.phases.iter_mut().find(|(l, _)| l == label) {
                Some((_, t)) => *t += us,
                None => total.phases.push((label.clone(), *us)),
            }
        }
    }
    total
}

/// `renuver tune`: fit per-attribute thresholds against a seeded held-out
/// mask. Accepts either a dataset (RFDs via `--rfds` or discovery) or a
/// prepared `.rnv` model. The iteration table goes to stderr; stdout (or
/// `--out`) carries only the tuned RFD set, so fixed-seed runs can be
/// compared byte-for-byte.
fn tune_cmd(args: &Args) -> Result<(), String> {
    let path = one_positional(args)?;
    let (rel, rfds, fingerprint) = if path.to_ascii_lowercase().ends_with(".rnv") {
        let registry = load_model(&path)?;
        let engine = registry.lock_engine();
        (engine.relation().clone(), engine.sigma().clone(), registry.schema_fp())
    } else {
        let rel = load(&path)?;
        let rfds = rfds_for_model(args, &rel)?;
        let fingerprint = renuver::serve::artifact::schema_fingerprint(rel.schema());
        (rel, rfds, fingerprint)
    };
    if rfds.is_empty() {
        return Err("no RFDs to tune (empty set)".into());
    }
    let seed: u64 = args
        .parse_value("--seed")?
        .unwrap_or_else(|| renuver::tune::default_seed(fingerprint));
    let rate: f64 = args.parse_value("--rate")?.unwrap_or(0.2);
    if !(rate > 0.0 && rate <= 1.0) {
        return Err("--rate must be in (0, 1]".into());
    }
    let iterations: usize = args.parse_value("--iterations")?.unwrap_or(12);
    if iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }
    let target_f1: f64 = args.parse_value("--target-f1")?.unwrap_or(0.95);
    if !(target_f1 > 0.0 && target_f1 <= 1.0) {
        return Err("--target-f1 must be in (0, 1]".into());
    }
    let step: f64 = args.parse_value("--step")?.unwrap_or(1.0);
    if step <= 0.0 || step.is_nan() {
        return Err("--step must be positive".into());
    }
    let parallelism: usize = args.parse_value("--parallelism")?.unwrap_or(0);
    let rules = match (args.value("--rules"), args.parse_value::<f64>("--auto-rules")?) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_rules(&text)?
        }
        (None, Some(fraction)) => renuver::eval::auto_rules(&rel, fraction),
        (None, None) => RuleSet::new(),
    };
    let spec = BudgetSpec::from_args(args)?;
    let tspec = TraceSpec::from_args(args);
    let cfg = renuver::tune::TuneConfig {
        seed,
        sample_rate: rate,
        max_iters: iterations,
        target_f1,
        step,
        parallelism,
        budget: tspec.hook_budget(spec.build()),
        tracer: tspec.tracer.clone(),
        rules,
        ..renuver::tune::TuneConfig::default()
    };
    eprintln!("tuning with seed {seed}: {} RFDs, sample rate {rate}", rfds.len());
    let report = renuver::tune::tune(&rel, &rfds, &cfg);
    eprintln!(
        "{:>5} {:>9} {:>9} {:>9} {:>11} {:>8} {:>8}  moves",
        "iter", "precision", "recall", "F1", "Δcandidates", "Δverify", "Δoracle"
    );
    for it in &report.iterations {
        let moves: Vec<String> = it
            .moves
            .iter()
            .map(|m| format!("{} {}→{}", rel.schema().name(m.attr), m.old, m.new))
            .collect();
        eprintln!(
            "{:>5} {:>9.3} {:>9.3} {:>9.3} {:>11} {:>8} {:>8}  {}",
            it.iter,
            it.scores.precision,
            it.scores.recall,
            it.scores.f1,
            renuver::eval::diff::signed(it.diff.d_candidates_scored),
            renuver::eval::diff::signed(it.diff.d_verifications),
            renuver::eval::diff::signed(it.diff.d_oracle_hits),
            if moves.is_empty() { "-".to_string() } else { moves.join(", ") },
        );
    }
    eprintln!(
        "stop: {} after {} iterations ({} held-out cells); best F1 {:.3} at iteration {}{}",
        report.stop.label(),
        report.iterations.len(),
        report.masked,
        report.best_f1,
        report.best_iter,
        if report.partial { " — partial result" } else { "" },
    );
    let text = report.tuned.to_text(rel.schema());
    match args.value("--out") {
        Some(out) => {
            std::fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {} tuned RFDs to {out}", report.tuned.len());
        }
        None => print!("{text}"),
    }
    tspec.finish()
}

fn evaluate_cmd(args: &Args) -> Result<(), String> {
    let original = load(args.value("--original").ok_or("evaluate requires --original")?)?;
    let incomplete =
        load(args.value("--incomplete").ok_or("evaluate requires --incomplete")?)?;
    let imputed = load(args.value("--imputed").ok_or("evaluate requires --imputed")?)?;
    if original.len() != incomplete.len() || original.len() != imputed.len() {
        return Err("the three relations must have the same number of tuples".into());
    }
    let rules = match (args.value("--rules"), args.parse_value::<f64>("--auto-rules")?) {
        (Some(_), Some(_)) => {
            return Err("--rules and --auto-rules are mutually exclusive".into());
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_rules(&text)?
        }
        (None, Some(fraction)) => {
            if !(0.0..=1.0).contains(&fraction) {
                return Err("--auto-rules must be a fraction in 0..=1".into());
            }
            renuver::eval::auto_rules(&original, fraction)
        }
        (None, None) => RuleSet::new(),
    };
    // Ground truth: cells missing in `incomplete` but present in `original`.
    let truth: Vec<(Cell, renuver::data::Value)> = incomplete
        .missing_cells()
        .into_iter()
        .filter(|c| !original.is_missing(c.row, c.col))
        .map(|c| (c, original.value(c.row, c.col).clone()))
        .collect();
    let scores = evaluate(&imputed, &truth, &rules);
    println!("missing:   {}", scores.missing);
    println!("imputed:   {}", scores.imputed);
    println!("correct:   {}", scores.correct);
    println!("precision: {:.3}", scores.precision);
    println!("recall:    {:.3}", scores.recall);
    println!("f1:        {:.3}", scores.f1);
    let rows = renuver::eval::report::attr_breakdown(&imputed, &truth, &rules);
    if !rows.is_empty() {
        println!();
        print!("{}", renuver::eval::report::breakdown_table(&rows));
    }
    Ok(())
}

/// Resolves the RFD set for a model: `--rfds` file if given, otherwise
/// discovery with the command's discovery flags. Shared by `prepare` and
/// `serve`.
fn rfds_for_model(args: &Args, rel: &Relation) -> Result<RfdSet, String> {
    match args.value("--rfds") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            RfdSet::from_text(&text, rel.schema())
        }
        None => {
            let cfg = discovery_config(args, rel)?;
            eprintln!("no --rfds given; discovering with limit {}", cfg.limit);
            Ok(discover(rel, &cfg))
        }
    }
}

/// The model a `.rnv` path holds — the artifact, or the committed state
/// of a durable layout beside it — as a read-only, in-memory registry.
fn load_model(path: &str) -> Result<renuver::serve::Registry, String> {
    use renuver::serve::{artifact, Registry, ShardLayout};
    let loaded = artifact::load(path).map_err(|e| format!("{path}: {e}"))?;
    Registry::load(loaded, RenuverConfig::default(), &ShardLayout::beside(path))
        .map_err(|e| format!("{path}: {e}"))
}

fn prepare_cmd(args: &Args) -> Result<(), String> {
    use renuver::serve::artifact;
    let path = one_positional(args)?;
    let rel = load(&path)?;
    let out = args
        .value("-o")
        .or_else(|| args.value("--out"))
        .ok_or("prepare requires -o model.rnv")?;
    let rfds = rfds_for_model(args, &rel)?;
    // A durable layout beside `out` belongs to the model being replaced.
    // It goes first, so a crash can never pair it with the new model.
    let layout = renuver::serve::ShardLayout::beside(out);
    layout.clear().map_err(|e| format!("{out}: {e}"))?;
    // A freshly prepared model starts at durable sequence 0; `ingest`
    // advances it one WAL record at a time from there.
    let bytes = artifact::encode(&rel, &rfds, &path, 0);
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {out}: {} tuples, {} RFDs, {}",
        rel.len(),
        rfds.len(),
        renuver::budget::format_bytes(bytes.len()),
    );
    Ok(())
}

fn inspect_cmd(args: &Args) -> Result<(), String> {
    use renuver::serve::{artifact, Manifest, ShardLayout};
    let path = one_positional(args)?;
    let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
    let info = artifact::inspect(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("artifact: {path}");
    println!("  format:      v{}", info.version);
    println!("  fingerprint: {:#018x}", info.schema_fingerprint);
    println!("  source:      {}", info.source);
    // With a durable layout beside the artifact, the model is the
    // layout's committed state (loaded read-only): its tuples, RFDs and
    // seq are what a server would load.
    let layout = ShardLayout::beside(&path);
    let (rows, rfds, seq) = if layout.manifest().exists() {
        let registry = load_model(&path)?;
        let engine = registry.lock_engine();
        (engine.relation().len(), engine.sigma().len(), registry.seq())
    } else {
        (info.rows, info.rfds, info.committed_seq)
    };
    println!("  size:        {}", renuver::budget::format_bytes(info.bytes));
    println!("  tuples:      {rows}");
    println!("  rfds:        {rfds}");
    println!("  seq:         {seq}");
    // The manifest names the live generation and the seq its snapshot
    // folds; any WAL bytes past the header are batches after that seq.
    if layout.manifest().exists() {
        let m = Manifest::load(&layout.manifest()).map_err(|e| format!("{path}: {e}"))?;
        // An earlier build's N-shard layout logs every batch in each
        // shard's WAL, so shard 0's says whether batches are pending.
        let shards = match m.n_shards {
            1 => String::new(),
            n => format!(", {n} shards (migrated on the next durable open)"),
        };
        println!("  layout:      generation {}, seq {}, {} rows{shards}", m.generation, m.seq, m.assign.len());
        let held = match std::fs::metadata(layout.shard_wal(m.generation, 0)) {
            Ok(meta) if meta.len() > renuver::serve::wal::WAL_HEADER_BYTES => format!(
                "{} (batches past seq {})",
                renuver::budget::format_bytes(meta.len() as usize),
                m.seq
            ),
            Ok(meta) => format!("{} (empty)", renuver::budget::format_bytes(meta.len() as usize)),
            Err(_) => "missing".to_string(),
        };
        println!("  layout wal:  {held}");
    }
    // A single-file WAL from an earlier build; the next durable open
    // migrates it into the layout.
    let legacy = layout.legacy_wal();
    if let Ok(meta) = std::fs::metadata(&legacy) {
        println!(
            "  wal:         {} ({}, migrated on the next durable open)",
            legacy.display(),
            renuver::budget::format_bytes(meta.len() as usize)
        );
    }
    println!("  schema:      ({} attributes)", info.arity);
    for (name, ty) in &info.attrs {
        println!("    {name}: {ty}");
    }
    Ok(())
}

/// Compaction-threshold overrides shared by `ingest` and `serve --wal`.
/// The layout lives beside the model; the artifact's provenance string
/// is carried forward into its snapshots.
fn durability_options(
    args: &Args,
    model_path: &str,
    source: &str,
) -> Result<renuver::serve::DurabilityOptions, String> {
    let mut opts = renuver::serve::DurabilityOptions::beside(model_path, source);
    if let Some(mb) = args.parse_value::<u64>("--compact-bytes-mb")? {
        opts.compact_bytes = mb.saturating_mul(1024 * 1024);
    }
    if let Some(n) = args.parse_value::<u64>("--compact-records")? {
        opts.compact_records = n;
    }
    Ok(opts)
}

/// Opens the durable registry beside an artifact: recovery from its
/// layout (migrating an earlier build's sharded one), or the first open
/// that writes it.
fn open_durable(
    args: &Args,
    path: &str,
    loaded: renuver::serve::Artifact,
) -> Result<(renuver::serve::Registry, renuver::serve::RecoveryReport), String> {
    let source = loaded.source.clone();
    let opts = durability_options(args, path, &source)?;
    renuver::serve::Registry::open_durable(
        loaded,
        RenuverConfig::default(),
        1,
        opts.layout,
        &source,
        opts.compact_bytes,
        opts.compact_records,
    )
    .map_err(|e| format!("{path}: {e}"))
}

/// Flight-recorder knobs for `serve` (`--log-out`, `--slow-threshold-ms`,
/// `--trace-max-events`, `--no-flight`).
fn flight_options(args: &Args) -> Result<renuver::serve::FlightOptions, String> {
    let defaults = renuver::serve::FlightOptions::default();
    let log = match args.value("--log-out") {
        Some(path) => {
            Some(renuver::obs::EventLog::create(path).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    Ok(renuver::serve::FlightOptions {
        enabled: !args.has("--no-flight"),
        log,
        slow_threshold_ms: args
            .parse_value("--slow-threshold-ms")?
            .unwrap_or(defaults.slow_threshold_ms),
        trace_max_events: args
            .parse_value("--trace-max-events")?
            .unwrap_or(defaults.trace_max_events),
    })
}

/// The event log for CLI commands that have no server `Ctx` (`ingest
/// --log-out`): lifecycle lines are appended directly.
fn cli_event_log(args: &Args) -> Result<Option<renuver::obs::EventLog>, String> {
    match args.value("--log-out") {
        Some(path) => Ok(Some(
            renuver::obs::EventLog::create(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => Ok(None),
    }
}

/// Appends one `server_event` line to a CLI event log, if one is open.
fn cli_event(
    log: &Option<renuver::obs::EventLog>,
    event: &'static str,
    seq: u64,
    detail: Option<String>,
) {
    use renuver::obs::schema::SERVE_SCHEMA_VERSION;
    use renuver::obs::FieldValue;
    if let Some(log) = log {
        let mut fields = vec![
            ("v", FieldValue::U64(SERVE_SCHEMA_VERSION)),
            ("event", FieldValue::Str(event)),
            ("seq", FieldValue::U64(seq)),
        ];
        if let Some(d) = detail {
            fields.push(("detail", FieldValue::Text(d)));
        }
        log.append("server_event", fields);
    }
}

/// Repairs one batch against a prepared model and commits it durably.
///
/// The ordering is the whole point: the repaired tuples are fsynced
/// into the WAL *before* they are folded into the in-memory
/// relation/oracle/index and before anything is printed. A crash at
/// any step leaves a state the next `ingest` or `serve --wal` run
/// recovers from — either the batch is fully present or fully absent,
/// never half-applied. (The fault-injection matrix in
/// `tests/wal_recovery.rs` kills this command at every crash point and
/// checks exactly that.)
fn ingest_cmd(args: &Args) -> Result<(), String> {
    use renuver::serve::artifact;
    let (model_path, batch_path) = match args.positional() {
        [m, b] => (*m, *b),
        other => {
            return Err(format!(
                "ingest needs a model and a batch (renuver ingest model.rnv batch.csv), got {} positionals",
                other.len()
            ))
        }
    };
    if !model_path.to_ascii_lowercase().ends_with(".rnv") {
        return Err(format!(
            "{model_path}: ingest commits into a prepared artifact (.rnv); run `renuver prepare` first"
        ));
    }
    let loaded = artifact::load(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    let config = RenuverConfig::default();
    let (registry, report) = open_durable(args, model_path, loaded)?;
    let event_log = cli_event_log(args)?;
    cli_event(
        &event_log,
        "recovery",
        report.seq,
        Some(format!("replayed {} record(s), {} rows", report.replayed, report.rows)),
    );
    if report.replayed > 0 || report.degraded {
        eprintln!(
            "recovered {} wal record(s), {} rows; model is at seq {}{}",
            report.replayed,
            report.rows,
            report.seq,
            if report.degraded { "; the wal is degraded" } else { "" },
        );
    }
    let schema = registry.schema().clone();

    let batch = load(batch_path)?;
    let names: Vec<&str> = batch.schema().attrs().map(|a| a.name.as_str()).collect();
    let expected: Vec<&str> = schema.attrs().map(|a| a.name.as_str()).collect();
    if names != expected {
        return Err(format!(
            "{batch_path}: header {names:?} does not match the model schema {expected:?}"
        ));
    }
    // The batch header may omit type annotations (columns read as text);
    // coerce to the model's types, same leniency as `/v1/ingest` CSV.
    let tuples: Vec<renuver::data::Tuple> = batch
        .tuples()
        .map(|t| {
            t.iter()
                .enumerate()
                .map(|(col, v)| v.coerce(schema.ty(col)))
                .collect()
        })
        .collect();

    let outcome = registry
        .ingest(tuples, &config)
        .map_err(|e| format!("{batch_path}: {e}"))?;
    eprintln!(
        "seq {}: imputed {}/{} missing cells, committed {} row(s) ({} donors total{})",
        outcome.seq,
        outcome.batch.stats.imputed,
        outcome.batch.stats.missing_total,
        outcome.committed_rows,
        outcome.donor_rows,
        if outcome.dict_grown > 0 {
            format!(", dictionary grew by {}", outcome.dict_grown)
        } else {
            String::new()
        },
    );
    if args.has("--compact") || outcome.wants_compact {
        let folded = registry.compact().map_err(|e| e.to_string())?;
        cli_event(&event_log, "compaction", folded, None);
        eprintln!("compacted: snapshot rewritten at seq {folded}, wal reset");
    }
    let repaired =
        Relation::new(schema, outcome.batch.tuples.clone()).map_err(|e| e.to_string())?;
    match args.value("--out") {
        Some(path) => save(&repaired, path),
        None => {
            print!("{}", csv::write_string(&repaired));
            Ok(())
        }
    }
}

/// Prints the startup handshake's second line. The e2e harness reads
/// exactly two stdout lines — the `listening on` banner, then this —
/// instead of polling `/healthz`, so startup is retry-free.
fn print_ready(state: &str, seq: u64) {
    use std::io::Write as _;
    println!("ready state={state} seq={seq}");
    let _ = std::io::stdout().flush();
}

fn serve_cmd(args: &Args) -> Result<(), String> {
    use renuver::obs::FieldValue;
    use renuver::serve::{artifact, install_signal_handlers, Ctx, Registry, ServeConfig, Server};
    let path = one_positional(args)?;
    if args.has("--shards") {
        eprintln!("renuver: --shards is ignored: a durable model keeps one snapshot and one wal");
    }
    let default_timeout_ms: Option<u64> = args.parse_value("--default-timeout-ms")?;
    let max_timeout_ms: u64 = args.parse_value("--max-timeout-ms")?.unwrap_or(60_000);
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:7171").to_string(),
        workers: args.parse_value("--workers")?.unwrap_or(4),
        queue: args.parse_value("--queue")?.unwrap_or(64),
        max_body: args
            .parse_value::<usize>("--max-body-mb")?
            .unwrap_or(4)
            .saturating_mul(1024 * 1024),
        read_timeout_secs: args
            .parse_value("--read-timeout-secs")?
            .unwrap_or(defaults.read_timeout_secs),
        ..defaults
    };

    // Recovery is synchronous: the registry is whole before the server
    // binds, so the ready line follows the banner immediately.
    let is_artifact = path.to_ascii_lowercase().ends_with(".rnv");
    let (registry, info, report) = if is_artifact {
        let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
        let loaded = artifact::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        let info = renuver::serve::ModelInfo {
            source: format!("{path} ({})", loaded.source),
            schema_fingerprint: loaded.schema_fingerprint,
            artifact_bytes: bytes.len(),
        };
        if args.has("--wal") {
            let (registry, report) = open_durable(args, &path, loaded)?;
            (registry, info, Some(report))
        } else {
            // Read-only: a durable layout beside the artifact is loaded
            // at its committed state, and nothing is written.
            let layout = renuver::serve::ShardLayout::beside(&path);
            let registry = Registry::load(loaded, RenuverConfig::default(), &layout)
                .map_err(|e| format!("{path}: {e}"))?;
            (registry, info, None)
        }
    } else {
        if args.has("--wal") {
            return Err(
                "--wal needs a .rnv artifact to compact into; run `renuver prepare` first".into(),
            );
        }
        let rel = load(&path)?;
        let rfds = rfds_for_model(args, &rel)?;
        let info = renuver::serve::ModelInfo {
            source: path.to_string(),
            schema_fingerprint: artifact::schema_fingerprint(rel.schema()),
            artifact_bytes: 0,
        };
        let engine = renuver::core::Engine::prepare(rel, rfds, RenuverConfig::default());
        (Registry::from_engine(engine), info, None)
    };
    if let Some(report) = &report {
        if report.replayed > 0 || report.degraded {
            eprintln!(
                "wal: replayed {} record(s), {} rows; seq {}{}{}",
                report.replayed,
                report.rows,
                report.seq,
                if report.folded { ", folded into a fresh snapshot" } else { "" },
                if report.degraded { "; the wal is degraded" } else { "" },
            );
        }
    }
    let (rows, rfds) = {
        let engine = registry.lock_engine();
        (engine.donor_rows(), engine.sigma().len())
    };
    let mut ctx = Ctx::new_sharded(registry, info, default_timeout_ms, max_timeout_ms);
    ctx.set_flight(flight_options(args)?);
    let ctx = std::sync::Arc::new(ctx);
    if let Some(report) = &report {
        ctx.server_event("recovery", vec![
            ("seq", FieldValue::U64(report.seq)),
            (
                "detail",
                FieldValue::Text(format!(
                    "replayed {} record(s), {} rows",
                    report.replayed, report.rows
                )),
            ),
        ]);
        if report.degraded {
            ctx.server_event("wal_degraded", vec![(
                "detail",
                FieldValue::Text("the wal could not be opened at recovery".into()),
            )]);
        }
    }
    if is_artifact {
        ctx.set_model_path(std::path::PathBuf::from(&path));
    }
    install_signal_handlers();
    let server = Server::bind(config, ctx.clone()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr} ({rows} tuples, {rfds} RFDs)");
    print_ready(ctx.state().label(), ctx.seq());
    let shed = server.run().map_err(|e| e.to_string())?;
    println!("shutdown complete ({shed} connections shed)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn positionals_survive_boolean_flags() {
        let raw = strings(&["--summary", "data.csv", "--out", "rfds.txt"]);
        let args = Args::parse(&raw, &["--out"], &["--summary"]).unwrap();
        assert_eq!(args.positional(), ["data.csv"]);
        assert_eq!(args.value("--out"), Some("rfds.txt"));
        assert!(args.has("--summary"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_swallowed() {
        // The old parser assumed every unknown flag took a value, silently
        // eating the positional that followed it. Now it is a hard error.
        let raw = strings(&["--bogus", "data.csv"]);
        let err = Args::parse(&raw, &["--out"], &["--summary"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn value_flag_at_end_reports_missing_value() {
        let raw = strings(&["data.csv", "--out"]);
        let err = Args::parse(&raw, &["--out"], &[]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    /// The USAGE text for `cmd`: its own lines, plus the shared budget
    /// and observability sections when it takes `[budget flags]`.
    fn usage_for(cmd: &str) -> String {
        let lines: Vec<&str> = USAGE.lines().collect();
        let start = lines
            .iter()
            .position(|l| l.split_whitespace().take(2).eq(["renuver", cmd]))
            .unwrap_or_else(|| panic!("USAGE has no line for {cmd}"));
        let mut text = lines[start].to_string();
        for l in &lines[start + 1..] {
            if l.trim().is_empty() || l.trim_start().starts_with("renuver ") {
                break;
            }
            text.push('\n');
            text.push_str(l);
        }
        if text.contains("[budget flags]") {
            for heading in ["budget flags (", "observability flags ("] {
                let at = USAGE.find(heading).expect("shared section present");
                let section = &USAGE[at..];
                text.push('\n');
                text.push_str(section.split("\n\n").next().unwrap());
            }
        }
        text
    }

    #[test]
    fn usage_lists_every_flag_each_command_accepts() {
        for cmd in COMMANDS.split(", ") {
            let (values, bools) = flag_spec(cmd).expect("listed commands have a flag spec");
            let usage = usage_for(cmd);
            let tokens: Vec<&str> = usage
                .split(|c: char| c.is_whitespace() || "[]()|".contains(c))
                .collect();
            let undocumented = |flag: &&str| cmd == "serve" && UNDOCUMENTED_SERVE_FLAGS.contains(flag);
            for flag in values.iter().chain(&bools).filter(|f| !undocumented(f)) {
                assert!(tokens.contains(flag), "USAGE for {cmd} does not list {flag}:\n{usage}");
            }
        }
    }

    #[test]
    fn deleted_accelerator_flags_are_rejected() {
        // Index use is chosen by the engine (row count, artifact
        // contents) and there is no batch-verification cache to switch
        // off; a script still passing the old switches gets an error
        // naming the flag, not a silent no-op.
        for cmd in ["impute", "compare", "prepare", "serve"] {
            let err = run(&strings(&[cmd, "x.csv", "--index-mode", "scan"])).unwrap_err();
            assert!(err.contains("--index-mode"), "{cmd}: {err}");
            assert!(!usage_for(cmd).contains("--index-mode"), "{cmd}");
        }
        let err = run(&strings(&["impute", "x.csv", "--no-batch-verify"])).unwrap_err();
        assert!(err.contains("--no-batch-verify"), "{err}");
        assert!(!USAGE.contains("--no-batch-verify"));
        // One durable layout at every count: `prepare` no longer writes a
        // sharded one, and `serve` parses `--shards` only to ignore it.
        let err = run(&strings(&["prepare", "x.csv", "-o", "m.rnv", "--shards", "2"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        assert!(!USAGE.contains("--shards"));
        let err = run(&strings(&["serve", "no-such.rnv", "--shards", "2"])).unwrap_err();
        assert!(err.contains("no-such.rnv"), "{err}");
    }

    #[test]
    fn unknown_command_lists_the_valid_ones() {
        let err = run(&strings(&["imptue", "data.csv"])).unwrap_err();
        assert!(err.contains("unknown command \"imptue\""), "{err}");
        for cmd in [
            "stats", "audit", "discover", "inject", "impute", "evaluate", "compare", "tune",
            "prepare", "inspect", "ingest", "serve",
        ] {
            assert!(err.contains(cmd), "missing {cmd} in: {err}");
        }
    }

    #[test]
    fn trace_flags_belong_to_the_pipeline_commands() {
        // Accepted (parse gets past the flag vocabulary; the commands then
        // fail on the nonexistent input file, not on the flags).
        for cmd in ["discover", "impute", "compare", "tune"] {
            let err =
                run(&strings(&[cmd, "no-such.csv", "--trace-out", "t.jsonl", "--metrics"]))
                    .unwrap_err();
            assert!(err.contains("no-such.csv"), "{cmd}: {err}");
        }
        // Rejected everywhere else.
        let err = run(&strings(&["stats", "x.csv", "--metrics"])).unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
        let err = run(&strings(&["inject", "x.csv", "--trace-out", "t.jsonl"])).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
    }

    #[test]
    fn trace_spec_enables_the_tracer_only_when_asked() {
        let raw = strings(&["x.csv"]);
        let args = Args::parse(&raw, &["--trace-out"], &["--metrics"]).unwrap();
        assert!(!TraceSpec::from_args(&args).tracer.is_enabled());

        let raw = strings(&["x.csv", "--metrics"]);
        let args = Args::parse(&raw, &["--trace-out"], &["--metrics"]).unwrap();
        let tspec = TraceSpec::from_args(&args);
        assert!(tspec.tracer.is_enabled());
        assert!(tspec.out.is_none());

        // A hooked budget forwards its first trip into the trace.
        let budget = tspec.hook_budget(renuver::budget::Budget::unlimited().with_ops_limit(1));
        assert!(budget.check("cli::test").is_ok());
        assert!(budget.check("cli::test").is_err());
        let jsonl = tspec.tracer.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"budget_trip\""), "{jsonl}");
        assert!(jsonl.contains("\"trip\":\"ops\""), "{jsonl}");
    }

    #[test]
    fn run_rejects_unknown_flag_per_command() {
        // `--summary` belongs to discover, not stats.
        let err = run(&strings(&["stats", "x.csv", "--summary"])).unwrap_err();
        assert!(err.contains("--summary"), "{err}");
        // Budget flags are valid on discover/impute/compare only.
        let err = run(&strings(&["inject", "x.csv", "--ops-limit", "9"])).unwrap_err();
        assert!(err.contains("--ops-limit"), "{err}");
    }

    #[test]
    fn budget_spec_builds_limited_budgets() {
        let raw = strings(&["x.csv", "--timeout-secs", "2.5", "--ops-limit", "100"]);
        let mut values = vec![];
        values.extend(BUDGET_VALUE_FLAGS);
        let args = Args::parse(&raw, &values, &[]).unwrap();
        let spec = BudgetSpec::from_args(&args).unwrap();
        assert!(spec.is_limited());
        assert!(spec.build().is_limited());
        // Each build() call returns an independent handle.
        let a = spec.build();
        a.cancel();
        assert!(!spec.build().is_cancelled());
    }

    #[test]
    fn budget_spec_rejects_bad_values() {
        let raw = strings(&["x.csv", "--timeout-secs", "-1"]);
        let mut values = vec![];
        values.extend(BUDGET_VALUE_FLAGS);
        let args = Args::parse(&raw, &values, &[]).unwrap();
        assert!(BudgetSpec::from_args(&args).is_err());
        let raw = strings(&["x.csv", "--ops-limit", "lots"]);
        let args = Args::parse(&raw, &values, &[]).unwrap();
        assert!(BudgetSpec::from_args(&args).is_err());
    }
}
