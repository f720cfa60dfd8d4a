//! The trace-file schema: which kinds exist and which fields each kind
//! carries. This is the machine-checkable half of the contract DESIGN.md
//! documents; CI runs every emitted line through [`validate_line`] (via
//! the `validate_trace` binary) so the schema cannot drift silently.
//!
//! The schema is **closed**: a line with an unknown `kind`, a missing
//! required field, a mistyped field, or a field not listed for its kind
//! is an error. Every line carries the reserved keys `ts_us` (u64),
//! `kind` (string), and `span` (u64, 0 = outside any span).

use crate::json::{self, Value};

/// Field type expected by the schema.
#[derive(Debug, Clone, Copy)]
pub enum Ty {
    /// Non-negative integer.
    U64,
    /// Number or `null` (non-finite floats serialize as `null`).
    F64,
    /// Any string.
    Str,
    /// One of an enumerated set of strings.
    Enum(&'static [&'static str]),
    /// Boolean.
    Bool,
    /// Array of non-negative integers.
    U64Arr,
    /// Array of numbers-or-nulls.
    F64Arr,
    /// Object (nested; members unchecked).
    Obj,
}

/// Cell outcomes as they appear in `cell` records — mirrors
/// `renuver_core::CellOutcome`.
pub const OUTCOMES: &[&str] = &["imputed", "no_candidates", "skipped_budget", "cancelled"];

/// Dry-up reasons for cells that were not imputed — mirrors
/// `renuver_core::DryReason`.
pub const DRY_REASONS: &[&str] =
    &["no_active_rfds", "no_candidates", "all_rejected", "budget", "cancelled"];

/// Server lifecycle events as they appear in `server_event` records —
/// mirrors the emit sites in `renuver-serve` (registry, router, accept
/// loop) and the CLI recovery path.
pub const SERVER_EVENTS: &[&str] = &[
    "recovery",
    "swap",
    "compaction",
    "shed",
    "read_timeout",
    "wal_degraded",
    "wal_healed",
    "tune_started",
    "tune_finished",
    "tune_cancelled",
];

/// Why a tune run stopped — mirrors `renuver_tune::StopReason`.
pub const TUNE_STOPS: &[&str] =
    &["target", "converged", "revisited", "budget", "cancelled", "max_iters"];

/// Schema version stamped (as `v`) on the serving-layer record kinds
/// (`access`, `server_event`) so consumers can detect field changes.
pub const SERVE_SCHEMA_VERSION: u64 = 1;

/// One kind's contract: `(kind, required fields, optional fields)`.
type KindSpec = (&'static str, &'static [(&'static str, Ty)], &'static [(&'static str, Ty)]);

/// The full schema. Kinds, per kind: required fields, then optional.
pub const SPEC: &[KindSpec] = &[
    // Span close: emitted when a span guard drops (children before
    // parents in the file; `parent` rebuilds the hierarchy).
    (
        "span",
        &[("label", Ty::Str), ("parent", Ty::U64), ("dur_us", Ty::U64)],
        &[],
    ),
    // Run bracketing, emitted by the engine / CLI.
    (
        "run_start",
        &[("subject", Ty::Str), ("rows", Ty::U64), ("attrs", Ty::U64)],
        &[("missing", Ty::U64), ("rfds", Ty::U64)],
    ),
    (
        "run_end",
        &[("subject", Ty::Str)],
        &[
            ("imputed", Ty::U64),
            ("unimputed", Ty::U64),
            ("missing", Ty::U64),
            ("rfds", Ty::U64),
        ],
    ),
    // One per column during oracle construction.
    (
        "oracle_column",
        &[
            ("attr", Ty::U64),
            ("mode", Ty::Enum(&["matrix", "direct", "numeric"])),
            ("distinct", Ty::U64),
        ],
        &[],
    ),
    // One per attribute during similarity-index construction.
    (
        "index_attr",
        &[("attr", Ty::U64), ("mode", Ty::Enum(&["text", "numeric", "unindexed"]))],
        &[],
    ),
    // One per missing cell: the outcome plus (when `--explain`-level
    // detail is on) the explain payload.
    (
        "cell",
        &[("row", Ty::U64), ("attr", Ty::U64), ("outcome", Ty::Enum(OUTCOMES))],
        &[
            ("clusters", Ty::U64),
            ("candidates", Ty::U64),
            ("donor_row", Ty::U64),
            ("via_rfd", Ty::U64),
            ("distance", Ty::F64),
            ("margin", Ty::F64),
            ("rfds", Ty::U64Arr),
            ("lhs_dists", Ty::F64Arr),
            ("reason", Ty::Enum(DRY_REASONS)),
            ("trip", Ty::Str),
        ],
    ),
    // The moment the budget first trips (from the budget trip hook).
    ("budget_trip", &[("trip", Ty::Str), ("phase", Ty::Str)], &[]),
    // End-of-run budget accounting.
    (
        "budget_report",
        &[("ops", Ty::U64), ("tripped", Ty::Bool)],
        &[("trip", Ty::Str), ("phase", Ty::Str)],
    ),
    // RFD discovery summary.
    (
        "discovery",
        &[("rfds", Ty::U64), ("truncated", Ty::Bool)],
        &[("lattice_cells", Ty::U64)],
    ),
    // One per lattice cell during discovery (recorded into per-thread
    // buffers, merged in chunk order).
    ("lattice_cell", &[("cell", Ty::U64), ("rfds", Ty::U64)], &[]),
    // The final line: the metrics registry snapshot.
    (
        "metrics",
        &[("counters", Ty::Obj), ("gauges", Ty::Obj), ("histograms", Ty::Obj)],
        &[],
    ),
    // One per served request: the flight recorder's access-log summary.
    // `phases` (budget phase self-times) is present when the request ran
    // with an enabled tracer (`?trace=1` or a limited budget).
    (
        "access",
        &[
            ("v", Ty::U64),
            ("id", Ty::Str),
            ("endpoint", Ty::Str),
            ("status", Ty::U64),
            ("latency_us", Ty::U64),
        ],
        &[
            ("bytes_in", Ty::U64),
            ("bytes_out", Ty::U64),
            ("phases", Ty::Obj),
            ("cells_imputed", Ty::U64),
            ("cells_missing", Ty::U64),
            ("trace_events", Ty::U64),
        ],
    ),
    // Server lifecycle: recovery done, model swap (with the layout
    // generation when durable), compaction, accept-loop shed,
    // read-deadline timeout, WAL fault trip and the swap that heals it.
    (
        "server_event",
        &[("v", Ty::U64), ("event", Ty::Enum(SERVER_EVENTS))],
        &[
            ("seq", Ty::U64),
            ("generation", Ty::U64),
            ("job", Ty::U64),
            ("detail", Ty::Str),
        ],
    ),
    // Tune-run bracketing: one `tune_start` per run with the masking
    // parameters that make the run reproducible.
    (
        "tune_start",
        &[("seed", Ty::U64), ("masked", Ty::U64), ("rfds", Ty::U64)],
        &[("target_f1", Ty::F64), ("max_iters", Ty::U64), ("sample_rate", Ty::F64)],
    ),
    // One per tune iteration: the held-out score, the per-attribute
    // threshold moves chosen from it (`attrs`/`old`/`new` in lockstep),
    // and the work deltas vs the previous iteration that justified them
    // (signed, so F64 — the schema has no signed-integer type).
    (
        "tune_iter",
        &[("iter", Ty::U64), ("f1", Ty::F64)],
        &[
            ("precision", Ty::F64),
            ("recall", Ty::F64),
            ("attrs", Ty::U64Arr),
            ("old", Ty::F64Arr),
            ("new", Ty::F64Arr),
            ("d_f1", Ty::F64),
            ("d_candidates", Ty::F64),
            ("d_verifications", Ty::F64),
            ("d_oracle_hits", Ty::F64),
        ],
    ),
    // Tune-run summary: iterations executed, best held-out F1, and why
    // the loop stopped.
    (
        "tune_end",
        &[("iters", Ty::U64), ("f1", Ty::F64), ("stop", Ty::Enum(TUNE_STOPS))],
        &[("best_iter", Ty::U64), ("partial", Ty::Bool)],
    ),
];

/// All kinds the schema knows.
pub fn kinds() -> Vec<&'static str> {
    SPEC.iter().map(|(k, _, _)| *k).collect()
}

fn check_type(v: &Value, ty: Ty) -> Result<(), String> {
    let ok = match ty {
        Ty::U64 => v.as_u64().is_some(),
        Ty::F64 => matches!(v, Value::Num(_) | Value::Null),
        Ty::Str => v.as_str().is_some(),
        Ty::Enum(allowed) => v.as_str().is_some_and(|s| allowed.contains(&s)),
        Ty::Bool => v.as_bool().is_some(),
        Ty::U64Arr => v
            .as_array()
            .is_some_and(|a| a.iter().all(|x| x.as_u64().is_some())),
        Ty::F64Arr => v
            .as_array()
            .is_some_and(|a| a.iter().all(|x| matches!(x, Value::Num(_) | Value::Null))),
        Ty::Obj => v.as_object().is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {ty:?}, got {v:?}"))
    }
}

/// Validates one trace line against the schema.
pub fn validate_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    let obj = v.as_object().ok_or("line is not a JSON object")?;
    let kind = obj
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing string field \"kind\"")?;
    for reserved in ["ts_us", "span"] {
        let field = obj.get(reserved).ok_or_else(|| format!("missing field {reserved:?}"))?;
        check_type(field, Ty::U64).map_err(|e| format!("field {reserved:?}: {e}"))?;
    }
    let (_, required, optional) = SPEC
        .iter()
        .find(|(k, _, _)| *k == kind)
        .ok_or_else(|| format!("unknown kind {kind:?}"))?;
    for (name, ty) in *required {
        let field = obj
            .get(*name)
            .ok_or_else(|| format!("kind {kind:?}: missing required field {name:?}"))?;
        check_type(field, *ty).map_err(|e| format!("kind {kind:?}, field {name:?}: {e}"))?;
    }
    for (key, val) in obj {
        if matches!(key.as_str(), "ts_us" | "kind" | "span") {
            continue;
        }
        if required.iter().any(|(n, _)| n == key) {
            continue;
        }
        match optional.iter().find(|(n, _)| n == key) {
            Some((_, ty)) => check_type(val, *ty)
                .map_err(|e| format!("kind {kind:?}, field {key:?}: {e}"))?,
            None => return Err(format!("kind {kind:?}: unexpected field {key:?}")),
        }
    }
    Ok(())
}

/// Validates a whole JSONL trace. Returns the number of lines on
/// success, or `(line_number, error)` for the first invalid line.
pub fn validate_trace(text: &str) -> Result<usize, (usize, String)> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| (i + 1, e))?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_lines_pass() {
        for line in [
            r#"{"ts_us":1,"kind":"span","span":2,"label":"core::impute","parent":0,"dur_us":100}"#,
            r#"{"ts_us":1,"kind":"cell","span":3,"row":5,"attr":1,"outcome":"imputed","donor_row":7,"distance":0.5,"rfds":[0,2],"lhs_dists":[0,null]}"#,
            r#"{"ts_us":1,"kind":"cell","span":3,"row":5,"attr":1,"outcome":"no_candidates","reason":"all_rejected"}"#,
            r#"{"ts_us":1,"kind":"budget_trip","span":0,"trip":"DeadlineExceeded","phase":"core::cell"}"#,
            r#"{"ts_us":1,"kind":"metrics","span":0,"counters":{"a":1},"gauges":{},"histograms":{}}"#,
            r#"{"ts_us":1,"kind":"access","span":0,"v":1,"id":"9f3a-1","endpoint":"impute","status":200,"latency_us":850,"bytes_in":64,"bytes_out":512,"phases":{"core::scan":500},"cells_imputed":1,"cells_missing":2,"trace_events":7}"#,
            r#"{"ts_us":1,"kind":"access","span":0,"v":1,"id":"x","endpoint":"error","status":400,"latency_us":5}"#,
            r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"swap","seq":9,"generation":2}"#,
            r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"wal_degraded","detail":"wal append failed"}"#,
            r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"wal_healed","seq":4}"#,
            r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"shed"}"#,
            r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"tune_started","job":3,"detail":"seed 42"}"#,
            r#"{"ts_us":1,"kind":"tune_start","span":1,"seed":42,"masked":12,"rfds":3,"target_f1":0.95,"max_iters":12}"#,
            r#"{"ts_us":1,"kind":"tune_iter","span":1,"iter":2,"f1":0.8,"precision":1.0,"recall":0.66,"attrs":[0,4],"old":[0,1],"new":[1,2],"d_f1":-0.1,"d_candidates":40,"d_verifications":-3,"d_oracle_hits":2}"#,
            r#"{"ts_us":1,"kind":"tune_end","span":1,"iters":5,"f1":0.97,"stop":"target","best_iter":4,"partial":false}"#,
        ] {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn invalid_lines_fail() {
        for (line, why) in [
            (r#"{"ts_us":1,"span":0}"#, "no kind"),
            (r#"{"ts_us":1,"kind":"mystery","span":0}"#, "unknown kind"),
            (r#"{"ts_us":1,"kind":"span","span":2,"label":"x","parent":0}"#, "missing dur_us"),
            (
                r#"{"ts_us":1,"kind":"cell","span":0,"row":1,"attr":0,"outcome":"guessed"}"#,
                "outcome not in enum",
            ),
            (
                r#"{"ts_us":1,"kind":"cell","span":0,"row":1,"attr":0,"outcome":"imputed","bogus":1}"#,
                "unexpected field",
            ),
            (
                r#"{"kind":"budget_trip","span":0,"trip":"x","phase":"y"}"#,
                "missing ts_us",
            ),
            (
                r#"{"ts_us":1,"kind":"cell","span":0,"row":-1,"attr":0,"outcome":"imputed"}"#,
                "negative row",
            ),
            ("not json", "parse error"),
            (
                r#"{"ts_us":1,"kind":"access","span":0,"v":1,"id":"x","endpoint":"impute","status":200}"#,
                "access missing latency_us",
            ),
            (
                r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"rebooted"}"#,
                "event not in enum",
            ),
            (
                r#"{"ts_us":1,"kind":"server_event","span":0,"v":1,"event":"wal_degraded","shard":1}"#,
                "no per-shard events",
            ),
            (
                r#"{"ts_us":1,"kind":"server_event","span":0,"event":"shed"}"#,
                "missing schema version",
            ),
            (
                r#"{"ts_us":1,"kind":"tune_end","span":1,"iters":5,"f1":0.97,"stop":"bored"}"#,
                "stop reason not in enum",
            ),
            (
                r#"{"ts_us":1,"kind":"tune_start","span":1,"seed":42,"masked":12}"#,
                "tune_start missing rfds",
            ),
        ] {
            assert!(validate_line(line).is_err(), "accepted invalid line ({why}): {line}");
        }
    }

    #[test]
    fn whole_trace_validation_reports_line_numbers() {
        let good = r#"{"ts_us":1,"kind":"budget_trip","span":0,"trip":"x","phase":"y"}"#;
        let text = format!("{good}\n\n{good}\nbroken\n");
        match validate_trace(&text) {
            Err((line, _)) => assert_eq!(line, 4),
            Ok(n) => panic!("accepted {n} lines"),
        }
        assert_eq!(validate_trace(&format!("{good}\n{good}\n")), Ok(2));
    }

    #[test]
    fn every_kind_is_unique() {
        let mut ks = kinds();
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(ks.len(), SPEC.len());
    }
}
