//! Process and host readings from Linux: child peak RSS, a process's
//! RSS high-water mark, graceful termination, and host-noise readings.

use std::io;
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

use crate::stats::percentile;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;

/// The largest peak RSS among all terminated, waited-for children, MiB.
/// The kernel counts children waited for before an `exec` too, so the
/// benchmark must start as a fresh process (see `run.sh`).
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this platform, and getrusage writes only
    // within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// A live process's RSS high-water mark (`VmHWM`), MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Asks `child` to shut down with SIGTERM and waits up to `grace` for it;
/// kills it if it has not exited by then.
pub fn terminate(child: &mut Child, grace: Duration) -> io::Result<ExitStatus> {
    if let Some(status) = child.try_wait()? {
        return Ok(status);
    }
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    // SAFETY: plain system call on a pid this process spawned and has
    // not yet reaped, so it cannot name an unrelated process.
    unsafe { kill(pid, SIGTERM) };
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill()?;
    child.wait()
}

/// Host-noise readings around a timed phase, printed beside the metrics
/// and never folded into them: the CPU steal share and the load
/// generator's own turnaround. Closed-loop throughput on a shared VM
/// tracks steal, so a slow run with high steal points at the host.
pub struct HostWatch {
    cpu: Option<CpuTimes>,
}

impl HostWatch {
    /// Takes the opening reading; call right before the timed phase.
    pub fn start() -> HostWatch {
        HostWatch {
            cpu: CpuTimes::read(),
        }
    }

    /// Takes the closing reading right after the timed phase and
    /// formats it with the generator's turnaround gaps (µs between one
    /// op's end and the next op's start on the same client).
    pub fn stop(self, turnaround_us: &[f64]) -> String {
        let steal = CpuTimes::read().map_or(f64::NAN, |c| c.steal_since(self.cpu));
        format!(
            "host: cpu steal {:.2}% over the timed phase; generator turnaround p99 {:.0} us \
             ({} samples)",
            steal * 100.0,
            percentile(turnaround_us, 99),
            turnaround_us.len()
        )
    }
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user.
        let total = fields.iter().take(8).sum();
        Some(CpuTimes {
            steal: *fields.get(7)?,
            total,
        })
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`.
    fn steal_since(self, earlier: Option<CpuTimes>) -> f64 {
        match earlier {
            Some(e) if self.total > e.total => {
                (self.steal - e.steal) as f64 / (self.total - e.total) as f64
            }
            _ => f64::NAN,
        }
    }
}
