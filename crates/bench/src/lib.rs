//! Shared plumbing for the benchmark binaries — the repository's only
//! benchmark harness.
//!
//! One binary per paper table/figure lives in `src/bin/`:
//!
//! | Binary   | Reproduces |
//! |----------|------------|
//! | `fig1`   | Figure 1 — the worked Table 2 walk-through, every number computed live |
//! | `table3` | Table 3 — dataset statistics, #RFDs per threshold limit, #missing per rate |
//! | `fig2`   | Figure 2 — RENUVER P/R/F1 by RHS-threshold limit × missing rate, 4 datasets |
//! | `fig3`   | Figure 3 — RENUVER vs Derand vs Holoclean (vs kNN on Glass) by missing rate |
//! | `table4` | Table 4 — Restaurant stress at 5–40% missing: metrics, time, memory |
//! | `table5` | Table 5 — Physician scaling at 104–10359 tuples: metrics, time, memory |
//! | `ablation` | The paper's two self-contradictions (cluster order, verification scope) and three more design toggles, time vs quality |
//! | `robustness` | Beyond the paper — MCAR vs MNAR vs column-concentrated missingness |
//!
//! Next to them, each `bench_*` binary (`bench_discovery`, `bench_kernels`,
//! `bench_parallel`, `bench_index`, `bench_obs`, `bench_serve`,
//! `bench_ingest`, `bench_tune`) times one subsystem and writes the
//! committed `BENCH_*.json` of the same name (`--out <path>` overrides it).
//!
//! Run with `cargo run -p renuver-bench --release --bin <name>`. Binaries
//! accept a `--quick` flag that shrinks seeds/sizes or run counts for smoke
//! runs; the figure/robustness binaries also accept `--csv <path>` for
//! tidy, plot-ready output.

use renuver_datasets::Dataset;
use renuver_rfd::discovery::{discover, DiscoveryConfig};
use renuver_rfd::RfdSet;

/// The five RHS-threshold limits of the paper's evaluation (Section 6.1).
pub const THRESHOLD_LIMITS: [f64; 5] = [3.0, 6.0, 9.0, 12.0, 15.0];

/// The missing rates of the qualitative evaluation (1% … 5%).
pub const MISSING_RATES: [f64; 5] = [0.01, 0.02, 0.03, 0.04, 0.05];

/// The five injection seeds ("five injected datasets per missing rate").
pub const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

/// Generation seed shared by all experiments.
pub const DATA_SEED: u64 = 42;

/// Discovery tuned per dataset: lattice depth 2 keeps the RFD sets in the
/// hundreds-to-thousands range of the paper's Table 3 while staying fast on
/// every machine.
pub fn discovery_config(limit: f64) -> DiscoveryConfig {
    DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(limit) }
}

/// Discovers the RFD set for a dataset at a threshold limit.
pub fn rfds_for(ds: Dataset, limit: f64) -> RfdSet {
    discover(&ds.relation(DATA_SEED), &discovery_config(limit))
}

/// `true` when `--quick` was passed: smoke-run sizes (fewer seeds, smaller
/// scaling ladder) instead of the full paper protocol.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The value following `--csv`, if given: binaries that support it also
/// write their results as tidy CSV (one row per measurement) to that path,
/// ready for plotting.
pub fn csv_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Accumulates tidy-CSV rows and writes them on request.
pub struct CsvSink {
    header: &'static str,
    rows: Vec<String>,
}

impl CsvSink {
    /// Creates a sink with the given header line (comma-separated).
    pub fn new(header: &'static str) -> Self {
        CsvSink { header, rows: Vec::new() }
    }

    /// Appends one row (already comma-separated; the caller guarantees the
    /// fields contain no commas — all emitters use names and numbers).
    pub fn push(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Writes to `path` when `--csv <path>` was passed; otherwise a no-op.
    pub fn write_if_requested(&self) {
        if let Some(path) = csv_path() {
            let mut out = String::with_capacity(self.rows.len() * 32);
            out.push_str(self.header);
            out.push('\n');
            for r in &self.rows {
                out.push_str(r);
                out.push('\n');
            }
            match std::fs::write(&path, out) {
                Ok(()) => eprintln!("wrote {} CSV rows to {path}", self.rows.len()),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}

/// The seed set honoring `--quick`.
pub fn seeds() -> Vec<u64> {
    if quick_mode() {
        SEEDS[..2].to_vec()
    } else {
        SEEDS.to_vec()
    }
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::from("|");
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!(" {cell:>w$} |", w = w));
    }
    println!("{line}");
}

/// Prints a table header with a separator line.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(), widths);
    let mut line = String::from("|");
    for w in widths {
        line.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    println!("{line}");
}

/// Formats a score to the 3 decimals the paper's tables use.
pub fn fmt_score(x: f64) -> String {
    format!("{x:.3}")
}

/// Number of cores available to this process — recorded in the benchmark
/// JSON so a ~1.0 parallel speedup on a single-core box reads as expected
/// behavior, not a regression.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The checkout's revision as `git describe --always --dirty` prints it,
/// or `unknown` where git or the repository is unavailable.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Median wall-clock milliseconds over `runs` executions (the first-run
/// warm-up is included in the sample set; the median is robust to it).
pub fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    median((0..runs).map(|_| time_ms(&mut f)).collect())
}

/// Wall-clock milliseconds of one call of `f`.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// The upper median of `samples` (non-empty).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The value following `--out`, or `default`: where a `bench_*` binary
/// writes its JSON results.
pub fn out_path(default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

/// The shared tail of every `bench_*` binary: stamps the JSON results
/// with the `git_revision` they measured (a committed number names its
/// code), writes them to `path`, echoes them on stdout, and notes the
/// destination on stderr.
pub fn write_bench_json(path: &str, json: &str) {
    let fields = json.strip_prefix("{\n").expect("bench results open a JSON object on its own line");
    let json = format!("{{\n  \"git_revision\": \"{}\",\n{fields}", git_revision());
    std::fs::write(path, &json).expect("write benchmark results");
    print!("{json}");
    eprintln!("wrote {path}");
}

/// The synthetic shop relation of `tests/index_differential.rs` and
/// `tests/parallel_determinism.rs` (5 000 rows in the full protocol):
/// high-cardinality text columns with planted City→Zip / Zip→City
/// dependencies, shared by `bench_index` and `bench_obs`.
pub fn synthetic_shops(n: usize) -> renuver_data::Relation {
    use renuver_data::{AttrType, Relation, Schema, Value};
    let schema = Schema::new([
        ("Name", AttrType::Text),
        ("City", AttrType::Text),
        ("Zip", AttrType::Text),
        ("Class", AttrType::Int),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let city_id = i % 40;
            vec![
                Value::from(format!("Shop-{:04}", i % 800).as_str()),
                Value::from(format!("City{city_id:02}").as_str()),
                Value::from(format!("9{:04}", city_id * 7).as_str()),
                Value::Int((i % 9) as i64),
            ]
        })
        .collect();
    Relation::new(schema, rows).unwrap()
}

/// Relation for the parallel-speedup benchmarks: `n` rows drawing a text
/// column from `k` distinct ~15-char values (plus an int column), so the
/// [`renuver_distance::DistanceOracle`] build is dominated by the O(k²)
/// Levenshtein matrix fill the parallel layer distributes.
pub fn parallel_fixture(n: usize, k: usize) -> renuver_data::Relation {
    use renuver_data::{AttrType, Relation, Schema, Value};
    let schema =
        Schema::new([("Label", AttrType::Text), ("Group", AttrType::Int)]).unwrap();
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let v = i % k;
            vec![
                Value::from(format!("entry-{v:04}-{:04}", (v * 7919) % 10_000).as_str()),
                Value::Int((i % 17) as i64),
            ]
        })
        .collect();
    Relation::new(schema, rows).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_produces_rfds_for_every_dataset() {
        for ds in Dataset::all() {
            let set = rfds_for(ds, 3.0);
            assert!(!set.is_empty(), "{} produced no RFDs", ds.name());
        }
    }

    #[test]
    fn rfd_count_grows_with_limit_on_restaurant() {
        let low = rfds_for(Dataset::Restaurant, 3.0).len();
        let high = rfds_for(Dataset::Restaurant, 9.0).len();
        assert!(high >= low, "low={low} high={high}");
    }

    #[test]
    fn score_formatting() {
        assert_eq!(fmt_score(0.4756), "0.476");
    }
}
