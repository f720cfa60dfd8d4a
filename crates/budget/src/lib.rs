//! Execution budgets and resource tracking.
//!
//! The paper's experiments run under hard kill limits (48 h wall-clock,
//! 30 GB memory — Tables 4 and 5); before this crate existed the repo only
//! *measured* time and memory, so a runaway discovery lattice or verify
//! scan could only be killed from outside, losing all partial work. This
//! crate provides both halves of the story:
//!
//! - **Tracking**: [`TrackingAlloc`], a counting global allocator, with
//!   [`current_bytes`] / [`peak_bytes`] / [`reset_peak`] / [`measure`].
//! - **Enforcement**: a shared, cloneable [`Budget`] handle (deadline +
//!   allocation ceiling + cooperative cancellation + deterministic
//!   operation limit) that hot loops poll via [`Budget::check`]. The first
//!   limit to trip is recorded (with the phase that observed it) and every
//!   subsequent check reports it, so a pipeline can drain gracefully and
//!   return partial results instead of dying.
//!
//! `Budget` lives at the bottom of the crate graph so discovery
//! (`renuver-rfd`), oracle construction (`renuver-distance`), and the
//! imputation engine (`renuver-core`) can all share one handle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Bytes currently allocated through [`TrackingAlloc`].
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A counting global allocator: wraps the system allocator and maintains
/// the live-bytes counter and its high-water mark. Install it in a binary
/// with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: renuver_budget::TrackingAlloc = renuver_budget::TrackingAlloc;
/// ```
///
/// The paper reports OS-level memory; a counting allocator measures the
/// same quantity (heap high-water mark) portably and deterministically.
/// [`Budget::with_mem_ceiling`] reads the same counter, so memory budgets
/// only trip in binaries that install the allocator.
pub struct TrackingAlloc;

// SAFETY: delegates allocation to `System`; the counters are simple
// atomics with no safety impact.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            let old = layout.size();
            if new_size >= old {
                let now = CURRENT.fetch_add(new_size - old, Ordering::Relaxed) + (new_size - old);
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(old - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Resets the high-water mark to the current live size.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The high-water mark (bytes) since the last [`reset_peak`]. Zero when
/// [`TrackingAlloc`] is not installed as the global allocator.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes currently live. Zero when the allocator is not installed.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Runs `f`, returning its output, the elapsed wall time, and the heap
/// high-water mark observed during the call (relative to the start).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration, usize) {
    reset_peak();
    let before = current_bytes();
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    let peak = peak_bytes().saturating_sub(before);
    (out, elapsed, peak)
}

/// Formats a byte count the way the paper's tables do (`1.38 GB`,
/// `730 MB`).
pub fn format_bytes(bytes: usize) -> String {
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.0} MB", b / MB)
    } else if b >= KB {
        format!("{:.0} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

/// Formats a duration the way the paper's tables do (`14m 29s`, `470ms`).
pub fn format_duration(d: Duration) -> String {
    let ms = d.as_millis();
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 60_000 {
        format!("{:.1}s", d.as_secs_f64())
    } else if ms < 3_600_000 {
        let m = d.as_secs() / 60;
        let s = d.as_secs() % 60;
        format!("{m}m {s}s")
    } else {
        let h = d.as_secs() / 3600;
        let m = (d.as_secs() % 3600) / 60;
        format!("{h}h {m}m")
    }
}

/// Which limit a [`Budget`] ran into first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetTrip {
    /// The wall-clock deadline passed.
    Deadline,
    /// Live heap bytes exceeded the ceiling (requires [`TrackingAlloc`]).
    Memory,
    /// The cooperative-check operation limit was reached. Unlike a
    /// deadline, an operation limit trips at exactly the same point on
    /// every run — the deterministic way to exercise and test degradation.
    Ops,
    /// [`Budget::cancel`] was called on some clone of the handle.
    Cancelled,
}

impl BudgetTrip {
    /// Short machine-readable label, used by trace events (the human
    /// phrasing lives in the `Display` impl).
    pub fn label(self) -> &'static str {
        match self {
            BudgetTrip::Deadline => "deadline",
            BudgetTrip::Memory => "memory",
            BudgetTrip::Ops => "ops",
            BudgetTrip::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for BudgetTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetTrip::Deadline => write!(f, "deadline"),
            BudgetTrip::Memory => write!(f, "memory ceiling"),
            BudgetTrip::Ops => write!(f, "operation limit"),
            BudgetTrip::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A hand-advanced clock for sleep-free deterministic tests: budgets built
/// with [`Budget::with_manual_clock`] read this instead of `Instant`.
#[derive(Clone, Debug, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A clock frozen at zero elapsed time.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `d`.
    pub fn advance(&self, d: Duration) {
        self.0.fetch_add(
            u64::try_from(d.as_millis()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Elapsed time according to this clock.
    pub fn elapsed(&self) -> Duration {
        Duration::from_millis(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Clone, Debug)]
enum Clock {
    Real(Instant),
    Manual(ManualClock),
}

impl Clock {
    fn elapsed(&self) -> Duration {
        match self {
            Clock::Real(start) => start.elapsed(),
            Clock::Manual(c) => c.elapsed(),
        }
    }
}

/// Observer invoked exactly once, by the check that first records a trip.
/// Wrapped in a newtype so `Inner` can keep deriving/printing `Debug`.
#[derive(Clone)]
struct TripHook(Arc<dyn Fn(BudgetTrip, &'static str) + Send + Sync>);

impl fmt::Debug for TripHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TripHook(..)")
    }
}

#[derive(Debug)]
struct Inner {
    clock: Clock,
    deadline: Option<Duration>,
    mem_ceiling: Option<usize>,
    ops_limit: Option<u64>,
    ops: AtomicU64,
    cancelled: AtomicBool,
    trip: OnceLock<(BudgetTrip, &'static str)>,
    trip_hook: Option<TripHook>,
}

impl Clone for Inner {
    fn clone(&self) -> Self {
        let trip = OnceLock::new();
        if let Some(t) = self.trip.get() {
            let _ = trip.set(*t);
        }
        Inner {
            clock: self.clock.clone(),
            deadline: self.deadline,
            mem_ceiling: self.mem_ceiling,
            ops_limit: self.ops_limit,
            ops: AtomicU64::new(self.ops.load(Ordering::Relaxed)),
            cancelled: AtomicBool::new(self.cancelled.load(Ordering::Relaxed)),
            trip,
            trip_hook: self.trip_hook.clone(),
        }
    }
}

/// A shared execution budget, polled cooperatively by the pipeline's hot
/// loops. Cloning is cheap and every clone observes (and contributes to)
/// the same state, so one handle can be threaded through discovery, oracle
/// construction, and imputation while the caller keeps a clone for
/// cancellation.
///
/// The default budget is unlimited: [`Budget::check`] never trips and
/// costs two atomic operations, so unbudgeted runs behave exactly as
/// before.
///
/// ```
/// use renuver_budget::{Budget, BudgetTrip};
///
/// let budget = Budget::unlimited().with_ops_limit(2);
/// assert!(budget.check("demo").is_ok());
/// assert!(budget.check("demo").is_ok());
/// assert_eq!(budget.check("demo"), Err(BudgetTrip::Ops));
/// assert_eq!(budget.trip(), Some(BudgetTrip::Ops));
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never trips (unless [`Budget::cancel`]led).
    pub fn unlimited() -> Self {
        Budget {
            inner: Arc::new(Inner {
                clock: Clock::Real(Instant::now()),
                deadline: None,
                mem_ceiling: None,
                ops_limit: None,
                ops: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                trip: OnceLock::new(),
                trip_hook: None,
            }),
        }
    }

    fn edit(mut self, f: impl FnOnce(&mut Inner)) -> Self {
        f(Arc::make_mut(&mut self.inner));
        self
    }

    /// Caps wall-clock time, measured from construction (or from the
    /// attached [`ManualClock`]).
    pub fn with_deadline(self, deadline: Duration) -> Self {
        self.edit(|i| i.deadline = Some(deadline))
    }

    /// Caps live heap bytes as reported by [`current_bytes`]. Only
    /// meaningful in binaries that install [`TrackingAlloc`]; otherwise the
    /// counter stays zero and the ceiling never trips.
    pub fn with_mem_ceiling(self, bytes: usize) -> Self {
        self.edit(|i| i.mem_ceiling = Some(bytes))
    }

    /// Caps the number of cooperative checks — a machine-independent,
    /// bit-for-bit reproducible way to trip mid-run.
    pub fn with_ops_limit(self, ops: u64) -> Self {
        self.edit(|i| i.ops_limit = Some(ops))
    }

    /// Replaces the wall clock with a hand-advanced one (tests).
    pub fn with_manual_clock(self, clock: ManualClock) -> Self {
        self.edit(|i| i.clock = Clock::Manual(clock))
    }

    /// Registers an observer invoked exactly once — by whichever
    /// [`Budget::check`] first records a trip, with the trip kind and the
    /// phase that observed it. The observability layer uses this to turn
    /// budget trips into trace events at the moment they happen; the hook
    /// must not call back into the budget.
    pub fn with_trip_hook(
        self,
        hook: Arc<dyn Fn(BudgetTrip, &'static str) + Send + Sync>,
    ) -> Self {
        self.edit(|i| i.trip_hook = Some(TripHook(hook)))
    }

    /// Requests cancellation: the next [`Budget::check`] on any clone
    /// trips with [`BudgetTrip::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` iff [`Budget::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// `true` iff any limit (deadline, memory, ops) is configured.
    /// Cancellation is always possible and does not count.
    pub fn is_limited(&self) -> bool {
        self.inner.deadline.is_some()
            || self.inner.mem_ceiling.is_some()
            || self.inner.ops_limit.is_some()
    }

    /// The cooperative check: counts one operation, then reports the first
    /// exceeded limit. Once a trip is recorded every later check returns
    /// the same trip — callers drain by skipping remaining work, not by
    /// unwinding.
    ///
    /// `phase` names the call site (e.g. `"rfd::discover"`); the first
    /// phase to observe the trip is kept for the [`BudgetReport`].
    pub fn check(&self, phase: &'static str) -> Result<(), BudgetTrip> {
        if let Some((t, _)) = self.inner.trip.get() {
            return Err(*t);
        }
        let ops = self.inner.ops.fetch_add(1, Ordering::Relaxed) + 1;
        let tripped = if self.inner.cancelled.load(Ordering::Relaxed) {
            Some(BudgetTrip::Cancelled)
        } else if self.inner.ops_limit.is_some_and(|limit| ops > limit) {
            Some(BudgetTrip::Ops)
        } else if self.inner.deadline.is_some_and(|d| self.inner.clock.elapsed() >= d) {
            Some(BudgetTrip::Deadline)
        } else if self.inner.mem_ceiling.is_some_and(|c| current_bytes() > c) {
            Some(BudgetTrip::Memory)
        } else {
            None
        };
        match tripped {
            None => Ok(()),
            Some(t) => {
                // First writer wins; racing phases agree on the trip kind
                // variance-free because every later check re-reads the cell.
                if self.inner.trip.set((t, phase)).is_ok() {
                    if let Some(TripHook(hook)) = &self.inner.trip_hook {
                        hook(t, phase);
                    }
                }
                Err(self.inner.trip.get().map_or(t, |(t, _)| *t))
            }
        }
    }

    /// The recorded trip, if any check has tripped so far.
    pub fn trip(&self) -> Option<BudgetTrip> {
        self.inner.trip.get().map(|(t, _)| *t)
    }

    /// The phase that first observed the trip.
    pub fn trip_phase(&self) -> Option<&'static str> {
        self.inner.trip.get().map(|(_, p)| *p)
    }

    /// Elapsed time since construction (per the attached clock).
    pub fn elapsed(&self) -> Duration {
        self.inner.clock.elapsed()
    }

    /// Cooperative checks performed so far.
    pub fn ops(&self) -> u64 {
        self.inner.ops.load(Ordering::Relaxed)
    }

    /// Snapshot of the run for reporting.
    pub fn report(&self) -> BudgetReport {
        let (tripped, tripped_at) = match self.inner.trip.get() {
            Some((t, p)) => (Some(*t), Some(*p)),
            None => (None, None),
        };
        BudgetReport {
            elapsed: self.elapsed(),
            peak_bytes: peak_bytes(),
            ops: self.ops(),
            tripped,
            tripped_at,
            phases: Vec::new(),
        }
    }
}

/// Run-level summary of a budgeted execution: how long it took, the heap
/// high-water mark, and — if the budget tripped — which limit fired and
/// where.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetReport {
    /// Wall-clock (or manual-clock) time from budget construction to the
    /// snapshot.
    pub elapsed: Duration,
    /// Global heap high-water mark at snapshot time (0 without
    /// [`TrackingAlloc`]).
    pub peak_bytes: usize,
    /// Cooperative checks performed.
    pub ops: u64,
    /// The limit that fired, if any.
    pub tripped: Option<BudgetTrip>,
    /// The phase that first observed the trip.
    pub tripped_at: Option<&'static str>,
    /// Where the time went: `(phase label, self-time in microseconds)`,
    /// largest first. Empty unless the run was traced — the attribution is
    /// aggregated from the tracer's span records by the caller that owns
    /// both (see `renuver_obs::flamegraph::phase_totals`), so an untraced
    /// run pays nothing for it.
    pub phases: Vec<(String, u64)>,
}

impl fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "elapsed {}, peak {}",
            format_duration(self.elapsed),
            format_bytes(self.peak_bytes)
        )?;
        if let Some(t) = self.tripped {
            write!(f, ", budget tripped: {t}")?;
            if let Some(p) = self.tripped_at {
                write!(f, " in {p}")?;
            }
        }
        if !self.phases.is_empty() {
            let total: u64 = self.phases.iter().map(|(_, us)| us).sum();
            write!(f, "; time by phase:")?;
            for (label, us) in self.phases.iter().take(5) {
                let pct = (100 * us).checked_div(total).unwrap_or(0);
                write!(
                    f,
                    " {label} {} ({pct}%)",
                    format_duration(Duration::from_micros(*us))
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_output_and_nonzero_time() {
        let (out, elapsed, _peak) = measure(|| {
            let v: Vec<u64> = (0..100_000).collect();
            v.len()
        });
        assert_eq!(out, 100_000);
        assert!(elapsed.as_nanos() > 0);
        // Peak is only nonzero when TrackingAlloc is the global allocator,
        // which unit tests do not install.
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(10 * 1024), "10 KB");
        assert_eq!(format_bytes(730 * 1024 * 1024), "730 MB");
        assert_eq!(format_bytes(1_482_000_000), "1.38 GB");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_millis(470)), "470ms");
        assert_eq!(format_duration(Duration::from_millis(3_200)), "3.2s");
        assert_eq!(format_duration(Duration::from_secs(869)), "14m 29s");
        assert_eq!(format_duration(Duration::from_secs(48 * 3600 + 120)), "48h 2m");
    }

    #[test]
    fn report_display_includes_phase_attribution() {
        let mut report = Budget::unlimited().report();
        assert!(!report.to_string().contains("time by phase"));
        report.phases = vec![
            ("distance::oracle_build".to_string(), 750_000),
            ("core::impute_cells".to_string(), 250_000),
        ];
        let text = report.to_string();
        assert!(text.contains("time by phase"), "{text}");
        assert!(text.contains("distance::oracle_build 750ms (75%)"), "{text}");
        assert!(text.contains("core::impute_cells 250ms (25%)"), "{text}");
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            assert!(b.check("loop").is_ok());
        }
        assert_eq!(b.trip(), None);
        assert!(!b.is_limited());
        assert_eq!(b.ops(), 10_000);
    }

    #[test]
    fn deadline_trips_on_manual_clock_without_sleeping() {
        let clock = ManualClock::new();
        let b = Budget::unlimited()
            .with_deadline(Duration::from_secs(5))
            .with_manual_clock(clock.clone());
        assert!(b.check("warm").is_ok());
        clock.advance(Duration::from_secs(4));
        assert!(b.check("still fine").is_ok());
        clock.advance(Duration::from_secs(2));
        assert_eq!(b.check("late"), Err(BudgetTrip::Deadline));
        assert_eq!(b.trip(), Some(BudgetTrip::Deadline));
        assert_eq!(b.trip_phase(), Some("late"));
        // Sticky: later phases see the same trip, not a new one.
        assert_eq!(b.check("after"), Err(BudgetTrip::Deadline));
        assert_eq!(b.trip_phase(), Some("late"));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_manual_clock(ManualClock::new());
        assert_eq!(b.check("start"), Err(BudgetTrip::Deadline));
    }

    #[test]
    fn ops_limit_is_exact_and_deterministic() {
        for _ in 0..3 {
            let b = Budget::unlimited().with_ops_limit(3);
            assert!(b.check("a").is_ok());
            assert!(b.check("b").is_ok());
            assert!(b.check("c").is_ok());
            assert_eq!(b.check("d"), Err(BudgetTrip::Ops));
            assert_eq!(b.trip_phase(), Some("d"));
        }
    }

    #[test]
    fn cancellation_reaches_every_clone() {
        let b = Budget::unlimited();
        let worker = b.clone();
        assert!(worker.check("pre").is_ok());
        b.cancel();
        assert!(b.is_cancelled());
        assert_eq!(worker.check("post"), Err(BudgetTrip::Cancelled));
        assert_eq!(b.trip(), Some(BudgetTrip::Cancelled));
    }

    #[test]
    fn clones_share_the_ops_counter() {
        let a = Budget::unlimited().with_ops_limit(2);
        let b = a.clone();
        assert!(a.check("a").is_ok());
        assert!(b.check("b").is_ok());
        assert_eq!(a.check("a2"), Err(BudgetTrip::Ops));
        assert_eq!(b.trip(), Some(BudgetTrip::Ops));
    }

    #[test]
    fn builder_after_clone_does_not_disturb_the_original() {
        // `with_*` on a shared handle must copy-on-write, not mutate the
        // budget the clone still points at.
        let base = Budget::unlimited();
        let strict = base.clone().with_ops_limit(0);
        assert_eq!(strict.check("strict"), Err(BudgetTrip::Ops));
        assert!(base.check("base").is_ok());
        assert_eq!(base.trip(), None);
    }

    #[test]
    fn mem_ceiling_configured_but_untracked_stays_quiet() {
        // Without TrackingAlloc installed current_bytes() is 0, so the
        // ceiling cannot trip; the integration test with the allocator
        // installed (tests/alloc_tracking.rs) covers the real path.
        let b = Budget::unlimited().with_mem_ceiling(1);
        assert!(b.check("x").is_ok());
        assert!(b.is_limited());
    }

    #[test]
    fn report_captures_trip_site() {
        let b = Budget::unlimited().with_ops_limit(1);
        let _ = b.check("one");
        let _ = b.check("two");
        let r = b.report();
        assert_eq!(r.tripped, Some(BudgetTrip::Ops));
        assert_eq!(r.tripped_at, Some("two"));
        assert_eq!(r.ops, 2);
        let text = r.to_string();
        assert!(text.contains("operation limit"), "{text}");
        assert!(text.contains("in two"), "{text}");
    }

    #[test]
    fn trip_hook_fires_exactly_once_with_site() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<(BudgetTrip, &'static str)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let b = Budget::unlimited()
            .with_ops_limit(1)
            .with_trip_hook(Arc::new(move |t, p| sink.lock().unwrap().push((t, p))));
        let worker = b.clone();
        assert!(b.check("warm").is_ok());
        assert_eq!(worker.check("hot"), Err(BudgetTrip::Ops));
        // Sticky re-reports must not re-fire the hook.
        assert_eq!(b.check("later"), Err(BudgetTrip::Ops));
        assert_eq!(*seen.lock().unwrap(), vec![(BudgetTrip::Ops, "hot")]);
    }

    #[test]
    fn trip_display_names() {
        assert_eq!(BudgetTrip::Deadline.to_string(), "deadline");
        assert_eq!(BudgetTrip::Memory.to_string(), "memory ceiling");
        assert_eq!(BudgetTrip::Ops.to_string(), "operation limit");
        assert_eq!(BudgetTrip::Cancelled.to_string(), "cancelled");
    }
}
