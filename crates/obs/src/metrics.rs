//! Named counters, gauges, and histograms for end-of-run reporting.
//!
//! A [`Metrics`] registry hands out cheap cloneable handles backed by
//! `Arc<AtomicU64>`s. Hot paths register a handle once (outside the
//! loop) and increment with relaxed atomics — the registry lock is only
//! taken at registration and snapshot time. Counts are exact; only their
//! observation order across threads is not, which is fine because
//! metrics are aggregates, not a trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins value (thread counts, final ops totals, …).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: values 0, 1, 2–3, 4–7, … up to `u64::MAX`.
const BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed histogram of `u64` observations (candidate counts per
/// cell, superset sizes, …). Tracks count / sum / max exactly and the
/// distribution at power-of-two resolution.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize; // 0 → bucket 0
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// `(bucket_lower_bound, count)` for every non-empty bucket, in
    /// ascending order. Bucket 0 holds exactly the value 0; bucket b > 0
    /// holds values in `[2^(b-1), 2^b)`, so its lower bound is `2^(b-1)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|b| {
                let n = self.0.buckets[b].load(Ordering::Relaxed);
                if n == 0 {
                    return None;
                }
                let lower = if b == 0 { 0 } else { 1u64 << (b - 1) };
                Some((lower, n))
            })
            .collect()
    }
}

/// Ring slots covering one second each. Must exceed [`WINDOW_SECS`] so a
/// slot being recycled is always already outside the window.
const WINDOW_SLOTS: usize = 64;
/// Quantile snapshots cover the last this-many seconds.
pub const WINDOW_SECS: u64 = 60;
/// Slot stamp meaning "never written".
const SLOT_EMPTY: u64 = u64::MAX;

struct WindowSlot {
    /// Absolute second (since the instrument's epoch) this slot covers,
    /// or [`SLOT_EMPTY`].
    stamp: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

struct WindowedInner {
    epoch: Instant,
    total: Histogram,
    slots: [WindowSlot; WINDOW_SLOTS],
}

/// A latency histogram with two views: an all-time log2 [`Histogram`]
/// and a ring of per-second slots over which rolling-window quantiles
/// (p50/p95/p99 over the last [`WINDOW_SECS`] seconds) are computed on
/// demand. Observation is lock-free; the slot covering the current
/// second is claimed with a stamp CAS, whose loser at a second boundary
/// may drop a handful of counts from the window view (never from the
/// all-time view) — an accepted smudge for an approximate quantile.
///
/// Quantiles are reported at the log2 bucket resolution: the returned
/// value is the *upper bound* of the bucket containing the target rank,
/// so `quantile(0.5)` of observations all equal to 300 reports 511.
#[derive(Clone)]
pub struct WindowedHistogram(Arc<WindowedInner>);

impl std::fmt::Debug for WindowedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedHistogram")
            .field("count", &self.0.total.count())
            .field("p50", &self.quantile(0.5))
            .finish()
    }
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram(Arc::new(WindowedInner {
            epoch: Instant::now(),
            total: Histogram::default(),
            slots: std::array::from_fn(|_| WindowSlot {
                stamp: AtomicU64::new(SLOT_EMPTY),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }))
    }
}

/// Upper bound of log2 bucket `b`: bucket 0 holds exactly 0, bucket
/// b > 0 holds `[2^(b-1), 2^b)`.
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        _ if b >= 64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

impl WindowedHistogram {
    /// Records one observation into the all-time histogram and the
    /// current second's window slot.
    pub fn observe(&self, v: u64) {
        self.0.total.observe(v);
        let sec = self.0.epoch.elapsed().as_secs();
        let slot = &self.0.slots[(sec % WINDOW_SLOTS as u64) as usize];
        let stamp = slot.stamp.load(Ordering::Acquire);
        if stamp != sec {
            // Claim the slot for this second; the winner resets it.
            // Losers that raced an older stamp re-check and fall through
            // (the slot is either ours now or was claimed for `sec` by
            // another thread — both fine to add into).
            if slot
                .stamp
                .compare_exchange(stamp, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for b in &slot.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                slot.count.store(0, Ordering::Relaxed);
                slot.sum.store(0, Ordering::Relaxed);
            } else if slot.stamp.load(Ordering::Acquire) != sec {
                // A different second won the slot; count only all-time.
                return;
            }
        }
        let bucket = (64 - v.leading_zeros()) as usize;
        slot.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The all-time histogram view (shares storage with this handle).
    pub fn all_time(&self) -> Histogram {
        self.0.total.clone()
    }

    /// Per-bucket counts and the total over the live window.
    fn window_buckets(&self) -> ([u64; BUCKETS], u64, u64) {
        let now = self.0.epoch.elapsed().as_secs();
        let oldest = now.saturating_sub(WINDOW_SECS.saturating_sub(1));
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0;
        let mut sum = 0;
        for slot in &self.0.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == SLOT_EMPTY || stamp < oldest || stamp > now {
                continue;
            }
            for (b, n) in slot.buckets.iter().enumerate() {
                buckets[b] += n.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum += slot.sum.load(Ordering::Relaxed);
        }
        (buckets, count, sum)
    }

    /// Number of observations inside the window.
    pub fn window_count(&self) -> u64 {
        self.window_buckets().1
    }

    /// The `q`-quantile (`0 < q <= 1`) over the window, as the upper
    /// bound of the log2 bucket holding the target rank. 0 when the
    /// window is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let (buckets, count, _) = self.window_buckets();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (b, n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// `(p50, p95, p99)` over the window in one pass.
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
    windows: BTreeMap<&'static str, WindowedHistogram>,
}

/// The registry. Cloning shares the underlying maps; two clones register
/// and read the same instruments.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Registry>>,
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Metrics")
            .field("counters", &reg.counters.len())
            .field("gauges", &reg.gauges.len())
            .field("histograms", &reg.histograms.len())
            .finish()
    }
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Returns the counter named `name`, creating it at 0 on first use.
    /// Same name → same underlying counter, across clones.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counters
            .entry(name)
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, creating it at 0 on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .gauges
            .entry(name)
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .histograms
            .entry(name)
            .or_default()
            .clone()
    }

    /// Returns the windowed (rolling-quantile) histogram named `name`,
    /// creating it empty on first use.
    pub fn windowed(&self, name: &'static str) -> WindowedHistogram {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .windows
            .entry(name)
            .or_default()
            .clone()
    }

    /// Serializes the registry as the trace file's final line:
    /// `{"ts_us":…,"kind":"metrics","span":0,"counters":{…},"gauges":{…},
    /// "histograms":{name:{"count":…,"sum":…,"max":…,"buckets":[[ub,n],…]}}}`.
    pub fn to_json_line(&self, ts_us: u64) -> String {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let _ = write!(out, "{{\"ts_us\":{ts_us},\"kind\":\"metrics\",\"span\":0,\"counters\":{{");
        for (i, (name, c)) in reg.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{}", c.get());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in reg.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{}", g.get());
        }
        out.push_str("},\"histograms\":{");
        let mut first = true;
        for (name, h) in &reg.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            json::write_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[", h.count(), h.sum(), h.max());
            for (j, (upper, n)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{upper},{n}]");
            }
            out.push_str("]}");
        }
        // Windowed histograms join the same object: all-time moments plus
        // the rolling-window quantile snapshot.
        for (name, w) in &reg.windows {
            if !first {
                out.push(',');
            }
            first = false;
            let h = w.all_time();
            let (p50, p95, p99) = w.quantiles();
            json::write_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"max\":{},\"window_secs\":{WINDOW_SECS},\"window_count\":{},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}",
                h.count(),
                h.sum(),
                h.max(),
                w.window_count(),
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders a human-readable summary table (the `--metrics` output).
    /// Instruments appear in name order; empty sections are omitted.
    pub fn render_table(&self) -> String {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let name_w = reg
            .counters
            .keys()
            .chain(reg.gauges.keys())
            .chain(reg.histograms.keys())
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        if !reg.counters.is_empty() || !reg.gauges.is_empty() {
            let _ = writeln!(out, "{:<name_w$}  {:>12}", "metric", "value");
            let _ = writeln!(out, "{}  {}", "-".repeat(name_w), "-".repeat(12));
            for (name, c) in &reg.counters {
                let _ = writeln!(out, "{name:<name_w$}  {:>12}", c.get());
            }
            for (name, g) in &reg.gauges {
                let _ = writeln!(out, "{name:<name_w$}  {:>12}", g.get());
            }
        }
        if !reg.histograms.is_empty() {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8} {:>10} {:>8}",
                "histogram", "count", "mean", "max"
            );
            let _ = writeln!(out, "{}  {}", "-".repeat(name_w), "-".repeat(28));
            for (name, h) in &reg.histograms {
                let _ = writeln!(
                    out,
                    "{name:<name_w$}  {:>8} {:>10.2} {:>8}",
                    h.count(),
                    h.mean(),
                    h.max()
                );
            }
        }
        if !reg.windows.is_empty() {
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8} {:>8} {:>8} {:>8} {:>8}",
                format!("latency ({WINDOW_SECS}s window)"),
                "count",
                "p50",
                "p95",
                "p99",
                "max"
            );
            let _ = writeln!(out, "{}  {}", "-".repeat(name_w), "-".repeat(44));
            for (name, w) in &reg.windows {
                let (p50, p95, p99) = w.quantiles();
                let _ = writeln!(
                    out,
                    "{name:<name_w$}  {:>8} {:>8} {:>8} {:>8} {:>8}",
                    w.all_time().count(),
                    p50,
                    p95,
                    p99,
                    w.all_time().max()
                );
            }
        }
        out
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`). Dotted instrument names become
    /// underscore-separated metric names; plain and windowed histograms
    /// render as native Prometheus histograms with cumulative `le`
    /// buckets at the log2 bucket upper bounds.
    pub fn render_prometheus(&self) -> String {
        let reg = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, c) in &reg.counters {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, g) in &reg.gauges {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.get());
        }
        let plain = reg.histograms.iter().map(|(n, h)| (*n, h.clone()));
        let windowed = reg.windows.iter().map(|(n, w)| (*n, w.all_time()));
        for (name, h) in plain.chain(windowed) {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (lower, n) in h.nonzero_buckets() {
                cumulative += n;
                let le = if lower == 0 { 0 } else { lower.saturating_mul(2) - 1 };
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// Maps a dotted instrument name onto the Prometheus name charset
/// `[a-zA-Z0-9_:]` (leading digits get an underscore prefix).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        match ch {
            'a'..='z' | 'A'..='Z' | ':' | '_' => out.push(ch),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(ch);
            }
            _ => out.push('_'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_the_instrument() {
        let m = Metrics::new();
        let a = m.counter("oracle.matrix_hits");
        let b = m.clone().counter("oracle.matrix_hits");
        a.inc();
        b.add(2);
        assert_eq!(m.counter("oracle.matrix_hits").get(), 3);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let m = Metrics::new();
        let h = m.histogram("core.candidates_per_cell");
        for v in [0, 1, 1, 3, 8] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.max(), 8);
        assert!((h.mean() - 2.6).abs() < 1e-12);
        // 0 → bucket 0 (ub 0); 1,1 → ub 1; 3 → ub 2; 8 → ub 8.
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (2, 1), (8, 1)]);
    }

    #[test]
    fn json_line_parses_and_carries_everything() {
        let m = Metrics::new();
        m.counter("a.hits").add(7);
        m.gauge("b.threads").set(4);
        m.histogram("c.sizes").observe(5);
        let line = m.to_json_line(123);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(json::Value::as_str), Some("metrics"));
        assert_eq!(v.get("ts_us").and_then(json::Value::as_u64), Some(123));
        assert_eq!(v.get("counters").unwrap().get("a.hits").and_then(json::Value::as_u64), Some(7));
        assert_eq!(v.get("gauges").unwrap().get("b.threads").and_then(json::Value::as_u64), Some(4));
        let h = v.get("histograms").unwrap().get("c.sizes").unwrap();
        assert_eq!(h.get("count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(h.get("sum").and_then(json::Value::as_u64), Some(5));
    }

    #[test]
    fn windowed_histogram_quantiles_cover_recent_observations() {
        let m = Metrics::new();
        let w = m.windowed("serve.latency.impute.2xx");
        assert_eq!(w.quantile(0.5), 0, "empty window reports 0");
        for _ in 0..90 {
            w.observe(300); // bucket [256, 512) → upper bound 511
        }
        for _ in 0..10 {
            w.observe(5_000); // bucket [4096, 8192) → upper bound 8191
        }
        assert_eq!(w.window_count(), 100);
        assert_eq!(w.quantile(0.50), 511);
        assert_eq!(w.quantile(0.95), 8191);
        assert_eq!(w.quantile(0.99), 8191);
        assert_eq!(w.all_time().count(), 100);
        assert_eq!(w.all_time().max(), 5_000);
        // Same name → same instrument, like every other registry entry.
        assert_eq!(m.windowed("serve.latency.impute.2xx").window_count(), 100);
    }

    #[test]
    fn windowed_histogram_joins_the_json_metrics_line() {
        let m = Metrics::new();
        m.windowed("w.lat").observe(100);
        m.histogram("h.plain").observe(3);
        let v = json::parse(&m.to_json_line(9)).unwrap();
        let w = v.get("histograms").unwrap().get("w.lat").unwrap();
        assert_eq!(w.get("count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(w.get("window_count").and_then(json::Value::as_u64), Some(1));
        assert_eq!(w.get("p50").and_then(json::Value::as_u64), Some(127));
        assert!(v.get("histograms").unwrap().get("h.plain").is_some());
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = Metrics::new();
        m.counter("http.requests").add(3);
        m.gauge("serve.rows").set(12);
        m.windowed("serve.latency.impute.2xx").observe(300);
        m.windowed("serve.latency.impute.2xx").observe(5);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE http_requests counter\nhttp_requests 3\n"), "{text}");
        assert!(text.contains("# TYPE serve_rows gauge\nserve_rows 12\n"));
        assert!(text.contains("# TYPE serve_latency_impute_2xx histogram"), "{text}");
        assert!(text.contains("serve_latency_impute_2xx_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("serve_latency_impute_2xx_bucket{le=\"511\"} 2\n"));
        assert!(text.contains("serve_latency_impute_2xx_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("serve_latency_impute_2xx_sum 305\n"));
        assert!(text.contains("serve_latency_impute_2xx_count 2\n"));
        // Every line is `# ...` or `name[{labels}] value` with a legal name.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
            let name = name_part.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name.chars().next().unwrap().is_ascii_alphabetic()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {line}"
            );
        }
    }

    #[test]
    fn table_lists_instruments_in_name_order() {
        let m = Metrics::new();
        m.counter("z.last").inc();
        m.counter("a.first").inc();
        m.histogram("h.sizes").observe(2);
        let table = m.render_table();
        let a = table.find("a.first").unwrap();
        let z = table.find("z.last").unwrap();
        assert!(a < z);
        assert!(table.contains("h.sizes"));
    }
}
