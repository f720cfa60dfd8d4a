//! The traced run's span recorder. Spans are taken around the calls the
//! benchmark itself makes into each layer's public functions, kept in
//! memory, and written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use renuver_core::ImputationStats;
use renuver_obs::{FieldValue, Tracer};

use crate::report::Outcome;
use crate::stats::ratio;
use crate::Run;

/// One recorded call. `parent` indexes the recorder's span list; spans
/// of one op share `op`. A probe is a sibling call on identical inputs
/// made after the op, outside its span, to split the op's time by layer.
pub struct Span {
    pub name: &'static str,
    pub op: usize,
    pub parent: Option<usize>,
    pub probe: bool,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent,
            probe: false,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ms.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        self.spans[id].ms()
    }

    /// Runs `f` inside a child span of `parent`; returns its value and ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let op = self.spans[parent].op;
        let id = self.open(name, op, Some(parent));
        let value = f();
        (value, self.close(id))
    }

    /// Runs `f` as a probe of op `op`; returns its value and ms.
    pub fn probe<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, op, None);
        self.spans[id].probe = true;
        let value = f();
        (value, self.close(id))
    }

    /// Self time of every span (its duration minus the part its children
    /// cover), summed by span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ms) {
            *out.entry(s.name).or_insert(0.0) += s.ms() - children;
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"probe\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.op, s.probe, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Where a replayed op's layer calls are timed: nowhere (the untraced
/// replay, which times only whole ops) or as child spans of an op span.
pub enum Clock<'a> {
    Off,
    On {
        rec: &'a mut Recorder,
        op_span: usize,
    },
}

impl Clock<'_> {
    /// Runs `f`; when on, inside a child span of the op. Returns the
    /// value and the span's ms (0 when off).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        match self {
            Clock::Off => (f(), 0.0),
            Clock::On { rec, op_span } => rec.time(name, *op_span, f),
        }
    }
}

/// Total ms of the program's own phase spans labelled `label` in a
/// tracer's records (the spans `?trace=1` returns).
pub fn phase_ms(tracer: &Tracer, label: &str) -> f64 {
    let mut us = 0u64;
    for rec in tracer.records().iter().filter(|r| r.kind == "span") {
        let field = |name: &str| rec.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v);
        let labelled = matches!(field("label"), Some(FieldValue::Str(l)) if *l == label)
            || matches!(field("label"), Some(FieldValue::Text(l)) if l == label);
        if labelled {
            if let Some(FieldValue::U64(d)) = field("dur_us") {
                us += d;
            }
        }
    }
    us as f64 / 1e3
}

/// A counter from a tracer's metrics registry (0 when never registered).
pub fn counter(tracer: &Tracer, name: &'static str) -> f64 {
    tracer.metrics().counter(name).get() as f64
}

/// Per-layer accumulator for the traced run: named sums and counts that
/// become the per-layer metrics once divided by their denominators.
#[derive(Default)]
pub struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Adds one imputation's `ImputationStats` counts to `sums`.
pub fn add_core_stats(sums: &mut Sums, s: &ImputationStats) {
    for (name, v) in [
        ("missing", s.missing_total),
        ("imputed", s.imputed),
        ("candidates", s.candidates_scored),
        ("verifications", s.verifications),
        ("verify_failures", s.verification_failures),
        ("clusters", s.clusters_visited),
        ("keys_filtered", s.keys_filtered),
    ] {
        sums.add(name, v as f64);
    }
}

/// Per-op core counts and ratios from summed `ImputationStats`.
pub fn set_core_counts(out: &mut Outcome, sums: &Sums, ops: f64) {
    out.set("core.partition_keys_ms", sums.get("partition_keys") / ops);
    out.set("core.impute_cells_ms", sums.get("impute_cells") / ops);
    out.set("core.cells_missing", sums.get("missing") / ops);
    out.set("core.cells_imputed", sums.get("imputed") / ops);
    out.set("core.candidates_scored", sums.get("candidates") / ops);
    out.set("core.verifications", sums.get("verifications") / ops);
    out.set(
        "core.verification_failures",
        sums.get("verify_failures") / ops,
    );
    out.set("core.clusters_visited", sums.get("clusters") / ops);
    out.set("core.keys_filtered", sums.get("keys_filtered") / ops);
    out.set(
        "core.imputed_per_candidate",
        ratio(sums.get("imputed"), sums.get("candidates")),
    );
    let accepted = sums.get("verifications") - sums.get("verify_failures");
    out.set(
        "core.verify_accept_ratio",
        ratio(accepted, sums.get("verifications")),
    );
}

/// Where a traced run writes its spans.
pub fn spans_path(run: &Run) -> PathBuf {
    PathBuf::from(".bench_work/spans").join(format!("{}-seed{}.jsonl", run.workload, run.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        let op = rec.open("op", 0, None);
        let (_, child) = rec.time("child", op, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = rec.close(op);
        let by_name = rec.self_ms_by_name();
        assert!((by_name["child"] - child).abs() < 1e-9);
        assert!((by_name["op"] - (total - child)).abs() < 1e-9);
    }
}
