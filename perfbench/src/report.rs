//! What a run reports: checked op counts, metrics, and the human-readable
//! lines printed above the final JSON line.

use std::collections::BTreeMap;

use renuver_obs::json::write_f64;

/// End-to-end metrics, printed by every untraced run in this order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics printed by name above the JSON line but left out
/// of it. Each is undefined on some workloads (no writes, or too few
/// samples for the tail) or 0 on a clean run, while every metric of the
/// JSON line must be defined, and non-zero, on every workload.
/// `failed_ratio` is the JSON line's `failed` / `attempted`.
pub const REPORTED: [(&str, &str); 4] = [
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("failed_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run in this order. A
/// layer that does not run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("data.self_ms", "ms"),
    ("data.csv_read_ms", "ms"),
    ("data.csv_write_ms", "ms"),
    ("data.rows", "count"),
    ("rfd.self_ms", "ms"),
    ("rfd.discover_ms", "ms"),
    ("rfd.rfds", "count"),
    ("rfd.key_rfds", "count"),
    ("distance.self_ms", "ms"),
    ("distance.oracle_build_ms", "ms"),
    ("distance.index_build_ms", "ms"),
    ("distance.matrix_columns", "count"),
    ("distance.direct_columns", "count"),
    ("distance.matrix_hit_ratio", "ratio"),
    ("core.self_ms", "ms"),
    ("core.impute_ms", "ms"),
    ("core.partition_keys_ms", "ms"),
    ("core.impute_cells_ms", "ms"),
    ("core.sharded_impute_ms", "ms"),
    ("core.registry1_over_engine", "ratio"),
    ("core.cells_missing", "count"),
    ("core.cells_imputed", "count"),
    ("core.candidates_scored", "count"),
    ("core.verifications", "count"),
    ("core.verification_failures", "count"),
    ("core.clusters_visited", "count"),
    ("core.keys_filtered", "count"),
    ("core.imputed_per_candidate", "ratio"),
    ("core.verify_accept_ratio", "ratio"),
    ("serve.self_ms", "ms"),
    ("serve.http_read_us", "us"),
    ("serve.route_ms", "ms"),
    ("serve.render_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.wal_append_ms", "ms"),
    ("serve.wal_bytes_per_row", "bytes"),
    ("serve.compactions", "count"),
    ("serve.compact_ms", "ms"),
    ("serve.artifact_decode_ms", "ms"),
    ("tune.self_ms", "ms"),
    ("tune.iterations", "count"),
    ("tune.iteration_ms", "ms"),
    ("tune.revisited", "count"),
    ("tune.distinct_ratio", "ratio"),
    ("tune.candidates", "count"),
    ("trace.op_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The layers whose self times the traced run attributes, in report order.
pub const LAYERS: [&str; 6] = ["data", "rfd", "distance", "core", "serve", "tune"];

/// Op and check accounting. Every op is checked once; run-level checks
/// (digests, replays, compaction) count as checks of their own.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// A finished run.
pub struct Outcome {
    pub checks: Checks,
    /// Metric values by name; the printed set and order come from
    /// [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// What a printed metric was taken over, such as its sample count.
    pub notes: BTreeMap<&'static str, String>,
    /// Human-readable report, printed above the JSON line.
    pub lines: Vec<String>,
    /// Digest of the run's deterministic outputs, when it has any.
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn new(checks: Checks) -> Outcome {
        Outcome {
            checks,
            metrics: BTreeMap::new(),
            notes: BTreeMap::new(),
            lines: Vec::new(),
            digest: None,
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    /// Every end-to-end metric by name with its unit: those of the JSON
    /// line, then [`REPORTED`], `n/a` where the workload has none.
    pub fn end_to_end_lines(&self) -> Vec<String> {
        let failed_ratio = self.checks.failed as f64 / self.checks.attempted.max(1) as f64;
        let mut lines = vec!["end-to-end metrics:".to_string()];
        for (i, (name, unit)) in END_TO_END.iter().chain(&REPORTED).enumerate() {
            let value = match *name {
                "failed_ratio" => Some(failed_ratio),
                _ => self.metrics.get(name).copied(),
            };
            let shown = value.map_or("n/a".to_string(), |v| format!("{} {unit}", fmt(v)));
            let note = self
                .notes
                .get(name)
                .map_or(String::new(), |n| format!(" ({n})"));
            let bounded = if i < END_TO_END.len() {
                ""
            } else {
                "  [reported only]"
            };
            lines.push(format!("  {name:<13} {shown}{note}{bounded}"));
        }
        lines
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, and every
    /// metric of `table` by name with its unit.
    pub fn json_line(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("\"{name}\": {{\"value\": "));
            write_f64(&mut out, value);
            out.push_str(&format!(", \"unit\": \"{unit}\"}}"));
        }
        out.push_str("}}");
        out
    }

    /// Closes a traced run's attribution: sums the layers' self times per
    /// op and sets how much of the end-to-end op (`op_ms`, measured
    /// untraced) they account for, and the tracing overhead.
    pub fn attribute(&mut self, op_ms: f64, traced_ms: f64, untraced_ms: f64) {
        let layers: f64 = LAYERS
            .iter()
            .map(|l| {
                self.metrics
                    .get(format!("{l}.self_ms").as_str())
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        self.set("trace.op_ms", op_ms);
        self.set("trace.layers_ms", layers);
        self.set("trace.unattributed_ms", op_ms - layers);
        self.set("trace.attributed_share", layers / op_ms);
        self.set(
            "trace.overhead_pct",
            (traced_ms / untraced_ms - 1.0) * 100.0,
        );
    }

    /// The per-layer table of a traced run: one line per layer with its
    /// self time, then every metric of the layer. Times and counts are
    /// averaged `per` the unit named (ratios and run totals are not).
    pub fn layer_table(&mut self, workload: &str, per: &str) {
        self.line(format!(
            "per-layer report, workload {workload} ({per} unless noted):"
        ));
        let mut rows = Vec::new();
        for layer in LAYERS.iter().chain(["trace"].iter()) {
            let prefix = format!("{layer}.");
            let mut row = format!("  {layer:<9}");
            for (name, unit) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(&prefix)) {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                row.push_str(&format!(" {}={} {unit}", &name[prefix.len()..], fmt(v)));
            }
            rows.push(row);
        }
        self.lines.extend(rows);
    }
}

/// Short human formatting: 4 significant digits, integers as integers.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_string()
    } else if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_of_the_table() {
        let mut checks = Checks::default();
        checks.check(Ok(()));
        checks.check(Err("boom".into()));
        let mut out = Outcome::new(checks);
        out.set("setup_s", 1.25);
        let line = out.json_line(&END_TO_END);
        let doc = renuver_obs::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(2));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["setup_s"].get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(metrics["f1"].get("unit").unwrap().as_str(), Some("ratio"));
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let doc = renuver_obs::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &renuver_obs::json::Value, k: &str| {
                m.get(k).and_then(|v| v.as_str()).unwrap().to_string()
            };
            let metrics = doc.get(key).and_then(|v| v.as_array()).unwrap();
            metrics
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let printed = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), printed(&END_TO_END));
        assert_eq!(listed("per_layer"), printed(&PER_LAYER));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
