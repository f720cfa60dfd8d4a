//! Fault injection for the durable write path.
//!
//! The WAL appender and the snapshot/compaction writer call [`hit`] at
//! named crash points (e.g. `wal.append.pre_fsync`,
//! `compact.pre_rename`). In production no plan is armed and every call
//! is a branch on an empty map. Tests arm faults two ways:
//!
//! - **Subprocess tests** set the `RENUVER_FAULT` environment variable
//!   before spawning the `renuver` binary. The kill-and-recover matrix
//!   in `tests/wal_recovery.rs` drives `renuver ingest` through every
//!   crash point this way and asserts recovery is bit-identical. That
//!   plan holds for every thread of the process.
//! - **In-process unit tests** call [`arm`] / [`disarm`] directly. Such a
//!   point is armed for the calling thread only, so tests that share a
//!   process (the test harness runs them on parallel threads) never trip
//!   each other's faults; each drives the armed code path on its own
//!   thread.
//!
//! Plan syntax (comma-separated): `point=action` where action is
//! `crash` (immediate `process::abort`, simulating power loss — no
//! destructors, no flush), `err` (the call site sees an injected
//! `io::Error`), or `short:<n>` (the writer persists only the first `n`
//! bytes of the record, then aborts — a torn write).
//!
//! Crash points currently wired in:
//!
//! | point                    | where                                       |
//! |--------------------------|---------------------------------------------|
//! | `wal.append.pre_write`   | before the frame bytes reach the file       |
//! | `wal.append.mid_write`   | honours `short:<n>`: partial frame, abort   |
//! | `wal.append.pre_fsync`   | frame written, not yet fsynced              |
//! | `wal.append.post_fsync`  | frame durable, caller not yet acknowledged  |
//! | `compact.pre_write`      | before the temp snapshot is written         |
//! | `compact.pre_rename`     | temp snapshot complete, rename not yet      |
//! |                          | issued                                      |
//! | `compact.snapshot_done`  | snapshot renamed, manifest still old        |
//! | `compact.post_rename`    | manifest live, WAL not yet reset            |
//! | `compact.pre_truncate`   | directly before the WAL reset               |
//! | `registry.append`        | an ingest is about to append to the WAL     |
//! | `swap.pre_commit`        | the new generation's files are all written, |
//! |                          | manifest not yet flipped                    |
//! | `migrate.pre_unlink`     | a single-file WAL folded into the layout,   |
//! |                          | manifest committed, old log not yet removed |
//! | `migrate.pre_commit`     | an `n`-shard layout's one-snapshot          |
//! |                          | successor written, manifest not yet flipped |
//! | `migrate.pre_sweep`      | the one-shard manifest committed, the       |
//! |                          | `n`-shard generation not yet swept          |

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::sync::OnceLock;

/// What to do when execution reaches an armed crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `std::process::abort()` — simulates a crash / power loss.
    Crash,
    /// The call site observes an injected `io::Error`.
    Err,
    /// Persist only the first `n` bytes of the record, then abort.
    /// Only honoured at points that write records (`*.mid_write`);
    /// elsewhere it behaves like [`Action::Crash`].
    Short(usize),
}

thread_local! {
    /// Points armed by [`arm`] on this thread.
    static ARMED: RefCell<HashMap<String, Action>> = RefCell::new(HashMap::new());
}

/// The process-wide `RENUVER_FAULT` plan, parsed on first use.
fn env_plan() -> &'static HashMap<String, Action> {
    static PLAN: OnceLock<HashMap<String, Action>> = OnceLock::new();
    PLAN.get_or_init(|| match std::env::var("RENUVER_FAULT") {
        Err(_) => HashMap::new(),
        Ok(spec) => parse(&spec).unwrap_or_else(|e| {
            eprintln!("renuver: ignoring malformed RENUVER_FAULT: {e}");
            HashMap::new()
        }),
    })
}

fn parse(spec: &str) -> Result<HashMap<String, Action>, String> {
    let mut map = HashMap::new();
    for entry in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (point, action) = entry
            .split_once('=')
            .ok_or_else(|| format!("`{entry}` is not `point=action`"))?;
        let action = match action {
            "crash" => Action::Crash,
            "err" => Action::Err,
            other => match other.strip_prefix("short:") {
                Some(n) => Action::Short(
                    n.parse().map_err(|_| format!("bad short length in `{entry}`"))?,
                ),
                None => return Err(format!("unknown action `{action}` in `{entry}`")),
            },
        };
        map.insert(point.to_string(), action);
    }
    Ok(map)
}

/// Arms `action` at `point` for the calling thread (test hook; on that
/// thread it overrides any `RENUVER_FAULT` entry for the same point).
pub fn arm(point: &str, action: Action) {
    ARMED.with(|armed| armed.borrow_mut().insert(point.to_string(), action));
}

/// Disarms a point [`arm`]ed on the calling thread. No-op if it was not
/// armed there.
pub fn disarm(point: &str) {
    ARMED.with(|armed| armed.borrow_mut().remove(point));
}

/// The action armed at `point` for the calling thread — by [`arm`], else
/// by `RENUVER_FAULT` — without executing it. Call sites that can honour
/// `short:<n>` use this to stage partial writes.
pub fn armed(point: &str) -> Option<Action> {
    ARMED
        .with(|armed| armed.borrow().get(point).copied())
        .or_else(|| env_plan().get(point).copied())
}

/// Executes the action armed at `point`: aborts on `crash` (and on
/// `short`, which only write sites stage via [`armed`]), returns an
/// injected error on `err`, and is a no-op when nothing is armed.
pub fn hit(point: &str) -> io::Result<()> {
    match armed(point) {
        None => Ok(()),
        Some(Action::Err) => Err(io::Error::other(format!("injected fault at {point}"))),
        Some(Action::Crash) | Some(Action::Short(_)) => {
            eprintln!("renuver: injected crash at {point}");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_syntax() {
        let map = parse("wal.append.pre_fsync=crash, compact.pre_rename=err,x=short:13")
            .unwrap();
        assert_eq!(map["wal.append.pre_fsync"], Action::Crash);
        assert_eq!(map["compact.pre_rename"], Action::Err);
        assert_eq!(map["x"], Action::Short(13));
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse("nonsense").is_err());
        assert!(parse("p=explode").is_err());
        assert!(parse("p=short:many").is_err());
    }

    #[test]
    fn hit_returns_injected_errors_and_clears_cleanly() {
        arm("test.fault.err_point", Action::Err);
        let err = hit("test.fault.err_point").unwrap_err();
        assert!(err.to_string().contains("injected fault at test.fault.err_point"));
        disarm("test.fault.err_point");
        assert!(hit("test.fault.err_point").is_ok());
        assert!(hit("test.fault.never_armed").is_ok());
    }

    #[test]
    fn an_armed_point_is_scoped_to_the_arming_thread() {
        arm("test.fault.scoped", Action::Err);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(armed("test.fault.scoped"), None);
                assert!(hit("test.fault.scoped").is_ok());
            });
        });
        assert_eq!(armed("test.fault.scoped"), Some(Action::Err));
        disarm("test.fault.scoped");
        assert_eq!(armed("test.fault.scoped"), None);
    }
}
