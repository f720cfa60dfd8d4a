//! Exercises the counting allocator with it actually installed as the
//! global allocator (its own test binary, because a global allocator is
//! per-binary).

use renuver::eval::budget::{
    current_bytes, format_bytes, measure, peak_bytes, reset_peak, Budget, BudgetTrip,
    TrackingAlloc,
};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// The peak and live-byte counters are process-global, and the test
/// harness runs tests on parallel threads: one test's `reset_peak()` or
/// ballast would land inside another's measurement. Every test holds
/// this lock for its whole body. The short settle after taking it lets
/// the harness finish reporting the previous test (its frees would
/// otherwise land between a `reset_peak()` and the measured allocation).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::sleep(std::time::Duration::from_millis(5));
    guard
}

#[test]
fn peak_tracks_large_allocations() {
    let _serial = serial();
    reset_peak();
    let before = peak_bytes();
    let (len, _elapsed, peak) = measure(|| {
        let v: Vec<u8> = vec![7; 8 * 1024 * 1024];
        v.len()
    });
    assert_eq!(len, 8 * 1024 * 1024);
    // The 8 MiB buffer must show up in the measured peak.
    assert!(peak >= 8 * 1024 * 1024, "peak {} (before {before})", format_bytes(peak));
    // And it was freed again: current live bytes are below the old peak.
    assert!(current_bytes() < before + 8 * 1024 * 1024);
}

#[test]
fn reset_clears_high_water_mark() {
    let _serial = serial();
    {
        let _big: Vec<u8> = vec![1; 4 * 1024 * 1024];
    } // dropped
    reset_peak();
    let base = peak_bytes();
    let _small: Vec<u8> = vec![2; 1024];
    assert!(peak_bytes() >= base + 1024);
    assert!(peak_bytes() < base + 4 * 1024 * 1024);
}

#[test]
fn realloc_growth_is_counted() {
    let _serial = serial();
    reset_peak();
    let (_, _, peak) = measure(|| {
        let mut v: Vec<u64> = Vec::new();
        for i in 0..500_000u64 {
            v.push(i); // repeated reallocs
        }
        v
    });
    assert!(peak >= 500_000 * 8, "peak {}", format_bytes(peak));
}

#[test]
fn mem_ceiling_trips_against_the_real_allocator() {
    let _serial = serial();
    // The ceiling is anchored at the current live-byte count, then a large
    // ballast is held alive across the check: with the tracking allocator
    // installed, `current_bytes()` must exceed the ceiling and trip.
    let budget = Budget::unlimited().with_mem_ceiling(current_bytes());
    let ballast: Vec<u8> = vec![0xAB; 32 * 1024 * 1024];
    assert_eq!(budget.check("test::ballast"), Err(BudgetTrip::Memory));
    // The first trip is sticky: site and kind survive later checks.
    assert_eq!(budget.trip(), Some(BudgetTrip::Memory));
    assert_eq!(budget.trip_phase(), Some("test::ballast"));
    drop(ballast);
    assert_eq!(budget.check("test::after-free"), Err(BudgetTrip::Memory));
    assert_eq!(budget.trip_phase(), Some("test::ballast"));
    // Peak is left out of the assertions: only the trip kind and site
    // are this test's subject.
    let report = budget.report();
    assert_eq!(report.tripped, Some(BudgetTrip::Memory));
    assert_eq!(report.tripped_at, Some("test::ballast"));
}
