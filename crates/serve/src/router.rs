//! Request routing and the imputation endpoints.
//!
//! The API surface (all bodies JSON unless noted):
//!
//! - `GET /healthz` — liveness plus a `state` field
//!   (`ok` | `compacting` | `degraded`), the highest durable sequence
//!   number, the WAL's state (`ok` | `degraded` | `none` when not
//!   durable) and the committed row count. Always `200` while the
//!   process lives.
//! - `GET /v1/model` — the loaded model: schema, row/RFD counts,
//!   fingerprint, provenance, durable sequence number.
//! - `GET /metrics` — the server's metrics registry as the standard
//!   `renuver-obs` text table.
//! - `POST /v1/impute` — tuples with `null` holes in, imputed tuples
//!   with per-cell outcomes out. Accepts `{"tuples": [[...]]}` JSON or,
//!   with `Content-Type: text/csv`, a CSV document whose header names
//!   match the model schema (type annotations optional — values are
//!   coerced to the model's types). Query parameters: `timeout_ms` (budget
//!   for this request, capped by the server ceiling), `explain`
//!   (include per-cell explain records), `explain_sample`
//!   (`all` | `dry` | an integer `k` for every k-th cell).
//! - `POST /v1/ingest` — same body formats as `/v1/impute`, but the
//!   repaired batch is *committed*: appended to the WAL (fsynced before
//!   the response), folded into the model relation, oracle, and index,
//!   and available as donors to subsequent requests. `503` when the
//!   model was served without durability, or after a WAL failure
//!   degraded the log.
//! - `POST /v1/compact` — fold the WAL into a fresh snapshot (atomic
//!   renames) and reset it.
//! - `PUT /v1/model` — hot model swap: the body is a complete `.rnv`
//!   artifact with the same schema fingerprint as the loaded model.
//!   The new model is installed atomically (in-flight requests finish
//!   on the old one); a fingerprint mismatch is rejected with `409`.
//!   `SIGHUP` triggers the same swap from the model path on disk: a
//!   replaced file is installed as is, an unchanged one is re-read with
//!   the durable layout beside it (so no committed batch is lost).
//! - `POST /v1/tune`, `GET`/`DELETE /v1/tune/<id>` — the asynchronous
//!   threshold-tuning job, which can install its result through the
//!   same swap.
//!
//! Every context serves through one [`Registry`], which owns one
//! prepared engine (see `crates/serve/src/registry.rs`).

use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::{Duration, Instant};

use renuver_budget::Budget;
use renuver_core::{BatchResult, Engine, ExplainSample};
use renuver_data::{csv, AttrType, Schema, Tuple, Value};
use renuver_obs::json::{self, write_f64, write_str};
use renuver_obs::{Field, FieldValue, Metrics, TraceRecord, Tracer};

use crate::flight::{FlightOptions, FlightRecorder, SlowEntry};
use crate::http::{Request, Response};
use crate::jobs::{JobState, JobStatus, TuneJobs};
use crate::registry::{Registry, RegistryError};

/// The server's write-path health, surfaced by `GET /healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeState {
    /// Serving reads and (when durable) writes.
    Ok,
    /// A background compaction is writing snapshots.
    Compacting,
    /// The WAL failed: reads are served, ingest is refused until a
    /// model swap or a restart rebuilds the log.
    Degraded,
}

impl ServeState {
    /// The wire label used in `/healthz` and `/v1/model`.
    pub fn label(self) -> &'static str {
        match self {
            ServeState::Ok => "ok",
            ServeState::Compacting => "compacting",
            ServeState::Degraded => "degraded",
        }
    }
}

/// Provenance of the loaded model, surfaced by `GET /v1/model`.
#[derive(Clone)]
pub struct ModelInfo {
    /// Where the model came from: an artifact path or a dataset path.
    pub source: String,
    /// Schema fingerprint (as stored in the artifact header).
    pub schema_fingerprint: u64,
    /// Artifact size in bytes, `0` when the model was built in-process.
    pub artifact_bytes: usize,
}

/// Shared server state: the engine registry, model provenance, the
/// metrics registry, and the request-budget policy.
pub struct Ctx {
    /// The one serving topology.
    registry: Registry,
    /// Model provenance. Behind a lock: a hot swap replaces it.
    info: RwLock<ModelInfo>,
    /// Server-lifetime metrics, rendered by `GET /metrics`.
    pub metrics: Metrics,
    /// Budget applied to requests that do not pass `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Hard ceiling on any per-request `timeout_ms`.
    pub max_timeout_ms: u64,
    /// Where `SIGHUP` reloads the model from, when serving a file, and
    /// the checksum that file ended with when it was last loaded.
    model_file: Mutex<Option<(PathBuf, Option<u32>)>>,
    /// The flight recorder: request ids, access log, slow ring.
    flight: FlightRecorder,
    /// The async tune-job registry (`POST /v1/tune`).
    jobs: TuneJobs,
    /// Weak self-reference, bound by `Server::bind` (or [`Ctx::bind_self`]
    /// in tests), so request handlers can hand an owning handle to the
    /// worker threads they spawn.
    self_ref: Mutex<Weak<Ctx>>,
}

const BASE_COUNTERS: [&str; 17] = [
    "http.requests",
    "http.responses_2xx",
    "http.responses_4xx",
    "http.responses_5xx",
    "http.shed",
    "serve.batches",
    "serve.cells_missing",
    "serve.cells_imputed",
    "serve.budget_tripped",
    "http.timeouts",
    "serve.ingest_batches",
    "serve.ingest_rows",
    "serve.compactions",
    "serve.compact_failed",
    "serve.wal_degraded",
    "serve.swaps",
    "serve.swap_rejected",
];

/// Endpoint labels for latency attribution. `other` covers unknown
/// paths and method mismatches; `error` covers protocol-level failures
/// the connection handler rejects before routing (408/413/431/400).
const ENDPOINTS: [&str; 11] = [
    "healthz", "metrics", "model", "swap", "impute", "ingest", "compact", "debug", "tune", "other",
    "error",
];

/// Windowed latency histogram names, `[endpoint][status class]`, in
/// [`ENDPOINTS`] order. Literal so registration matches observation
/// without leaking (the metrics registry wants `&'static str`).
const LATENCY_WINDOWS: [[&str; 3]; 11] = [
    ["serve.latency.healthz.2xx", "serve.latency.healthz.4xx", "serve.latency.healthz.5xx"],
    ["serve.latency.metrics.2xx", "serve.latency.metrics.4xx", "serve.latency.metrics.5xx"],
    ["serve.latency.model.2xx", "serve.latency.model.4xx", "serve.latency.model.5xx"],
    ["serve.latency.swap.2xx", "serve.latency.swap.4xx", "serve.latency.swap.5xx"],
    ["serve.latency.impute.2xx", "serve.latency.impute.4xx", "serve.latency.impute.5xx"],
    ["serve.latency.ingest.2xx", "serve.latency.ingest.4xx", "serve.latency.ingest.5xx"],
    ["serve.latency.compact.2xx", "serve.latency.compact.4xx", "serve.latency.compact.5xx"],
    ["serve.latency.debug.2xx", "serve.latency.debug.4xx", "serve.latency.debug.5xx"],
    ["serve.latency.tune.2xx", "serve.latency.tune.4xx", "serve.latency.tune.5xx"],
    ["serve.latency.other.2xx", "serve.latency.other.4xx", "serve.latency.other.5xx"],
    ["serve.latency.error.2xx", "serve.latency.error.4xx", "serve.latency.error.5xx"],
];

/// Lifecycle event counters, one per `schema::SERVER_EVENTS` entry.
/// These count even when no `--log-out` sink is attached, so the e2e
/// reconciliation can compare `/metrics` against the event log.
const EVENT_COUNTERS: [(&str, &str); 10] = [
    ("recovery", "serve.events.recovery"),
    ("swap", "serve.events.swap"),
    ("compaction", "serve.events.compaction"),
    ("shed", "serve.events.shed"),
    ("read_timeout", "serve.events.read_timeout"),
    ("wal_degraded", "serve.events.wal_degraded"),
    ("wal_healed", "serve.events.wal_healed"),
    ("tune_started", "serve.events.tune_started"),
    ("tune_finished", "serve.events.tune_finished"),
    ("tune_cancelled", "serve.events.tune_cancelled"),
];

/// The windowed latency histogram for `endpoint` × `status`.
fn latency_name(endpoint: &'static str, status: u16) -> &'static str {
    let ep = ENDPOINTS
        .iter()
        .position(|e| *e == endpoint)
        .expect("endpoint label missing from ENDPOINTS");
    let class = match status {
        200..=299 => 0,
        400..=499 => 1,
        _ => 2,
    };
    LATENCY_WINDOWS[ep][class]
}

/// Pre-registers the observability instruments so `/metrics` shows
/// them (zeroed) before any traffic arrives, matching the
/// `BASE_COUNTERS` convention.
fn register_observability(metrics: &Metrics) {
    for windows in LATENCY_WINDOWS {
        for name in windows {
            metrics.windowed(name);
        }
    }
    for (_, counter) in EVENT_COUNTERS {
        metrics.counter(counter);
    }
}

impl Ctx {
    /// Serves `engine` as a non-durable registry. The engine is kept as
    /// prepared: no oracle or index rebuild.
    pub fn new(
        engine: Engine,
        info: ModelInfo,
        default_timeout_ms: Option<u64>,
        max_timeout_ms: u64,
    ) -> Ctx {
        Ctx::new_sharded(Registry::from_engine(engine), info, default_timeout_ms, max_timeout_ms)
    }

    /// Serves `registry`, with the standard counters registered up front
    /// (so `/metrics` shows zeros instead of omitting untouched
    /// instruments). The name is kept for callers written against the
    /// sharded registry (the repository benchmark uses it).
    pub fn new_sharded(
        registry: Registry,
        info: ModelInfo,
        default_timeout_ms: Option<u64>,
        max_timeout_ms: u64,
    ) -> Ctx {
        let metrics = Metrics::new();
        for name in BASE_COUNTERS {
            metrics.counter(name);
        }
        register_observability(&metrics);
        Ctx {
            registry,
            info: RwLock::new(info),
            metrics,
            default_timeout_ms,
            max_timeout_ms,
            model_file: Mutex::new(None),
            flight: FlightRecorder::new(FlightOptions::default()),
            jobs: TuneJobs::new(),
            self_ref: Mutex::new(Weak::new()),
        }
    }

    /// Replaces the flight recorder (CLI wiring: `--log-out`,
    /// `--slow-threshold-ms`, `--no-flight`). Call before serving.
    pub fn set_flight(&mut self, opts: FlightOptions) {
        self.flight = FlightRecorder::new(opts);
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The tune-job registry.
    pub fn jobs(&self) -> &TuneJobs {
        &self.jobs
    }

    /// Binds the weak self-reference that lets request handlers spawn
    /// worker threads owning the context. `Server::bind` calls this;
    /// tests that route to `/v1/tune` directly must call it themselves.
    pub fn bind_self(self: &Arc<Ctx>) {
        *self.self_ref.lock().unwrap_or_else(|e| e.into_inner()) = Arc::downgrade(self);
    }

    fn self_arc(&self) -> Option<Arc<Ctx>> {
        self.self_ref.lock().unwrap_or_else(|e| e.into_inner()).upgrade()
    }

    /// Records one lifecycle event: bumps its `serve.events.*` counter
    /// (always — the counters are part of `/metrics` regardless of
    /// logging) and appends a `server_event` log line when the recorder
    /// is enabled and a `--log-out` sink is attached.
    pub fn server_event(&self, event: &'static str, fields: Vec<Field>) {
        if let Some((_, counter)) = EVENT_COUNTERS.iter().find(|(e, _)| *e == event) {
            self.metrics.counter(counter).inc();
        }
        self.flight.server_event(event, fields);
    }

    /// Current write-path state, derived from the registry: degraded
    /// while the WAL is, compacting while the background worker runs.
    pub fn state(&self) -> ServeState {
        if self.registry.degraded() {
            ServeState::Degraded
        } else if self.registry.compacting() {
            ServeState::Compacting
        } else {
            ServeState::Ok
        }
    }

    /// Highest durable sequence number (0 when not durable).
    pub fn seq(&self) -> u64 {
        self.registry.seq()
    }

    /// A snapshot of the model provenance.
    pub fn info(&self) -> ModelInfo {
        self.info.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Records where `SIGHUP` should reload the model from; the file as
    /// it is now is taken to be the model being served.
    pub fn set_model_path(&self, path: PathBuf) {
        let checksum = stored_checksum(&path);
        self.set_model_file(path, checksum);
    }

    fn set_model_file(&self, path: PathBuf, checksum: Option<u32>) {
        *self.model_file.lock().unwrap_or_else(|e| e.into_inner()) = Some((path, checksum));
    }

    /// The registered model path, if any.
    pub fn model_path(&self) -> Option<PathBuf> {
        self.model_file.lock().unwrap_or_else(|e| e.into_inner()).as_ref().map(|(p, _)| p.clone())
    }

    /// The engine registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Locks the serving engine, recovering a poisoned lock by rolling
    /// back any transient rows the panicking request left behind.
    pub fn lock_engine(&self) -> std::sync::MutexGuard<'_, Engine> {
        self.registry.lock_engine()
    }
}

/// Per-request observability scratch: the endpoint handlers fill it,
/// `route` folds it into the access-log line and the slow ring.
#[derive(Default)]
struct Telemetry {
    cells_missing: Option<u64>,
    cells_imputed: Option<u64>,
    /// Budget phase self-times (label, µs), present when the request
    /// ran with an enabled tracer.
    phases: Vec<(String, u64)>,
    /// Records returned in the `?trace=1` envelope.
    trace_events: Option<u64>,
}

/// Dispatches one request to its endpoint and accounts it in the
/// registry. Never panics: malformed input maps to 4xx.
pub fn route(ctx: &Ctx, req: &Request) -> Response {
    ctx.metrics.counter("http.requests").inc();
    let started = Instant::now();
    let mut tel = Telemetry::default();
    let (endpoint, mut resp) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz_endpoint(ctx)),
        ("GET", "/metrics") => ("metrics", metrics_endpoint(ctx, req)),
        ("GET", "/v1/model") => ("model", model_endpoint(ctx)),
        ("PUT", "/v1/model") => ("swap", swap_endpoint(ctx, req)),
        ("POST", "/v1/impute") => ("impute", impute_endpoint(ctx, req, &mut tel)),
        ("POST", "/v1/ingest") => ("ingest", ingest_endpoint(ctx, req, &mut tel)),
        ("POST", "/v1/compact") => ("compact", compact_endpoint(ctx)),
        ("GET", "/v1/debug/requests") => ("debug", debug_requests_endpoint(ctx)),
        ("POST", "/v1/tune") => ("tune", tune_submit_endpoint(ctx, req)),
        (method, path) if path.starts_with("/v1/tune/") => {
            ("tune", tune_job_endpoint(ctx, method, path))
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/model" | "/v1/impute" | "/v1/ingest" | "/v1/compact"
            | "/v1/debug/requests" | "/v1/tune",
        ) => ("other", Response::text(405, "method not allowed\n")),
        _ => ("other", Response::text(404, "not found\n")),
    };
    let class = match resp.status {
        200..=299 => "http.responses_2xx",
        400..=499 => "http.responses_4xx",
        _ => "http.responses_5xx",
    };
    ctx.metrics.counter(class).inc();
    finish_request(ctx, req, endpoint, &mut resp, started, tel);
    resp
}

/// The flight recorder's per-request tail: latency histogram, request
/// id echo, access-log line, slow-ring admission. Observation only —
/// when the recorder is off the response leaves byte-identical to one
/// from a recorder-less server (the differential e2e pins this).
fn finish_request(
    ctx: &Ctx,
    req: &Request,
    endpoint: &'static str,
    resp: &mut Response,
    started: Instant,
    tel: Telemetry,
) {
    if !ctx.flight.is_enabled() {
        return;
    }
    let latency_us = started.elapsed().as_micros() as u64;
    ctx.metrics.windowed(latency_name(endpoint, resp.status)).observe(latency_us);
    let id = ctx.flight.request_id(req.header("x-request-id"));
    if ctx.flight.has_log() {
        let mut fields: Vec<Field> = vec![
            ("id", FieldValue::Text(id.clone())),
            ("endpoint", FieldValue::Str(endpoint)),
            ("status", FieldValue::U64(u64::from(resp.status))),
            ("latency_us", FieldValue::U64(latency_us)),
            ("bytes_in", FieldValue::U64(req.body.len() as u64)),
            ("bytes_out", FieldValue::U64(resp.body.len() as u64)),
        ];
        if let Some(v) = tel.cells_missing {
            fields.push(("cells_missing", FieldValue::U64(v)));
        }
        if let Some(v) = tel.cells_imputed {
            fields.push(("cells_imputed", FieldValue::U64(v)));
        }
        if !tel.phases.is_empty() {
            fields.push(("phases", FieldValue::U64Map(tel.phases.clone())));
        }
        if let Some(n) = tel.trace_events {
            fields.push(("trace_events", FieldValue::U64(n)));
        }
        ctx.flight.access(fields);
    }
    ctx.flight.note_slow(SlowEntry {
        id: id.clone(),
        endpoint,
        status: resp.status,
        latency_us,
        phases: tel.phases,
    });
    resp.extra_headers.push(("X-Request-Id", id));
}

/// The connection handler's access-log hook for requests that never
/// reach `route` (read timeout, oversized body/headers, bad request
/// line). They already count in `http.requests`/`http.responses_4xx`;
/// this gives them the same latency attribution, log line, and id echo
/// under the `error` endpoint label.
pub(crate) fn record_protocol_error(
    ctx: &Ctx,
    resp: &mut Response,
    started: Instant,
    bytes_in: usize,
) {
    if !ctx.flight.is_enabled() {
        return;
    }
    let latency_us = started.elapsed().as_micros() as u64;
    ctx.metrics.windowed(latency_name("error", resp.status)).observe(latency_us);
    let id = ctx.flight.request_id(None);
    if ctx.flight.has_log() {
        ctx.flight.access(vec![
            ("id", FieldValue::Text(id.clone())),
            ("endpoint", FieldValue::Str("error")),
            ("status", FieldValue::U64(u64::from(resp.status))),
            ("latency_us", FieldValue::U64(latency_us)),
            ("bytes_in", FieldValue::U64(bytes_in as u64)),
            ("bytes_out", FieldValue::U64(resp.body.len() as u64)),
        ]);
    }
    resp.extra_headers.push(("X-Request-Id", id));
}

/// `GET /metrics`: the standard text table, or Prometheus exposition
/// when asked for via `?format=prometheus` or content negotiation.
fn metrics_endpoint(ctx: &Ctx, req: &Request) -> Response {
    let explicit = req.query_param("format");
    if let Some(f) = explicit {
        if f != "prometheus" && f != "table" {
            return bad_request(format!("format={f:?} is not \"prometheus\" or \"table\""));
        }
    }
    let accept = req.header("accept").unwrap_or("");
    let prometheus = explicit == Some("prometheus")
        || (explicit.is_none()
            && (accept.contains("application/openmetrics-text") || accept.contains("version=0.0.4")));
    if prometheus {
        let mut resp = Response::text(200, ctx.metrics.render_prometheus());
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        resp
    } else {
        Response::text(200, ctx.metrics.render_table())
    }
}

/// `GET /v1/debug/requests`: dump the slow-request ring.
fn debug_requests_endpoint(ctx: &Ctx) -> Response {
    let mut out = format!(
        "{{\"enabled\":{},\"slow_threshold_us\":{},\"requests\":[",
        ctx.flight.is_enabled(),
        ctx.flight.slow_threshold_us()
    );
    for (i, e) in ctx.flight.slow_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        write_str(&mut out, &e.id);
        out.push_str(&format!(
            ",\"endpoint\":\"{}\",\"status\":{},\"latency_us\":{},\"phases\":[",
            e.endpoint, e.status, e.latency_us
        ));
        for (j, (label, us)) in e.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            write_str(&mut out, label);
            out.push_str(&format!(",{us}]"));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// Liveness plus the write-path state. Always `200` while the process
/// can answer at all — orchestrators key restarts off the `state` field
/// (`degraded` means the WAL can no longer accept writes), not the
/// status code, so a degraded-but-readable server keeps serving reads.
fn healthz_endpoint(ctx: &Ctx) -> Response {
    let mut out = format!(
        "{{\"status\":\"ok\",\"state\":\"{}\",\"seq\":{}",
        ctx.state().label(),
        ctx.seq()
    );
    let reg = ctx.registry();
    out.push_str(&format!(",\"compacting\":{}", reg.compacting()));
    let wal = match (reg.is_durable(), reg.degraded()) {
        (false, _) => "none",
        (true, false) => "ok",
        (true, true) => "degraded",
    };
    out.push_str(&format!(",\"wal\":\"{wal}\",\"rows\":{}", reg.rows()));
    if let Some((id, status, iterations)) = ctx.jobs.snapshot() {
        out.push_str(&format!(
            ",\"tune\":{{\"id\":{id},\"status\":\"{}\",\"iterations\":{iterations}}}",
            status.label()
        ));
    }
    out.push('}');
    Response::json(200, out)
}

fn model_endpoint(ctx: &Ctx) -> Response {
    let info = ctx.info();
    let (rows, rfds, indexed) = {
        let engine = ctx.lock_engine();
        (engine.donor_rows(), engine.sigma().len(), engine.index().is_some())
    };
    let attrs = ctx.registry().schema();
    let mut out = String::from("{");
    out.push_str("\"source\":");
    write_str(&mut out, &info.source);
    out.push_str(&format!(
        ",\"schema_fingerprint\":\"{:#018x}\"",
        info.schema_fingerprint
    ));
    out.push_str(&format!(",\"format_version\":{}", crate::artifact::FORMAT_VERSION));
    out.push_str(&format!(",\"artifact_bytes\":{}", info.artifact_bytes));
    out.push_str(&format!(",\"rows\":{rows}"));
    out.push_str(&format!(",\"rfds\":{rfds}"));
    out.push_str(&format!(",\"indexed\":{indexed}"));
    out.push_str(&format!(",\"state\":\"{}\"", ctx.state().label()));
    out.push_str(&format!(",\"seq\":{}", ctx.seq()));
    out.push_str(",\"attrs\":[");
    for (i, attr) in attrs.attrs().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(&mut out, &attr.name);
        out.push_str(",\"type\":");
        write_str(&mut out, type_label(attr.ty));
        out.push('}');
    }
    out.push_str("]}");
    Response::json(200, out)
}

fn type_label(ty: AttrType) -> &'static str {
    match ty {
        AttrType::Text => "text",
        AttrType::Int => "int",
        AttrType::Float => "float",
        AttrType::Bool => "bool",
    }
}

fn bad_request(msg: impl std::fmt::Display) -> Response {
    let mut out = String::from("{\"error\":");
    write_str(&mut out, &msg.to_string());
    out.push('}');
    Response::json(400, out)
}

/// Per-request knobs parsed from the query string.
struct RequestOpts {
    timeout_ms: Option<u64>,
    explain: bool,
    explain_sample: ExplainSample,
    /// `?trace=1`: run traced regardless of budget and return the span
    /// breakdown in a `trace` envelope on the response.
    trace: bool,
}

fn parse_opts(ctx: &Ctx, req: &Request) -> Result<RequestOpts, Response> {
    let timeout_ms = match req.query_param("timeout_ms") {
        None => ctx.default_timeout_ms,
        Some(raw) => Some(
            raw.parse::<u64>()
                .map_err(|_| bad_request(format!("timeout_ms={raw:?} is not an integer")))?,
        ),
    }
    .map(|ms| ms.min(ctx.max_timeout_ms));
    let explain = req.query_param("explain").is_some_and(|v| v != "0");
    let explain_sample = match req.query_param("explain_sample") {
        None | Some("all") => ExplainSample::All,
        Some("dry") => ExplainSample::DryOnly,
        Some(raw) => ExplainSample::EveryKth(raw.parse::<usize>().map_err(|_| {
            bad_request(format!(
                "explain_sample={raw:?} is not \"all\", \"dry\", or an integer"
            ))
        })?),
    };
    let trace = req.query_param("trace").is_some_and(|v| v != "0");
    Ok(RequestOpts { timeout_ms, explain, explain_sample, trace })
}

/// Decodes the request body into tuples, by content type.
fn parse_tuples(schema: &Schema, req: &Request) -> Result<Vec<Tuple>, Response> {
    let content_type = req.header("content-type").unwrap_or("application/json");
    if content_type.starts_with("text/csv") {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| bad_request("CSV body is not UTF-8"))?;
        let rel = csv::read_str(text).map_err(bad_request)?;
        let names: Vec<&str> = rel.schema().attrs().map(|a| a.name.as_str()).collect();
        let expected: Vec<&str> = schema.attrs().map(|a| a.name.as_str()).collect();
        if names != expected {
            return Err(bad_request(format!(
                "CSV header {names:?} does not match the model schema {expected:?}"
            )));
        }
        // The body's header may omit type annotations (every column reads
        // as text then); coerce values to the model's attribute types.
        Ok(rel
            .tuples()
            .map(|t| {
                t.iter()
                    .enumerate()
                    .map(|(col, v)| coerce(v, schema.ty(col)))
                    .collect()
            })
            .collect())
    } else if content_type.starts_with("application/json") {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| bad_request("JSON body is not UTF-8"))?;
        let doc = json::parse(text).map_err(bad_request)?;
        let tuples = doc
            .get("tuples")
            .and_then(|t| t.as_array())
            .ok_or_else(|| bad_request("body must be {\"tuples\": [[...], ...]}"))?;
        let arity = schema.arity();
        let mut out = Vec::with_capacity(tuples.len());
        for (i, row) in tuples.iter().enumerate() {
            let cells = row
                .as_array()
                .ok_or_else(|| bad_request(format!("tuple {i} is not an array")))?;
            if cells.len() != arity {
                return Err(bad_request(format!(
                    "tuple {i} has {} values, schema has {arity}",
                    cells.len()
                )));
            }
            let mut tuple = Tuple::with_capacity(arity);
            for (attr, cell) in cells.iter().enumerate() {
                tuple.push(json_to_value(schema, i, attr, cell)?);
            }
            out.push(tuple);
        }
        Ok(out)
    } else {
        Err(bad_request(format!(
            "unsupported Content-Type {content_type:?} (use application/json or text/csv)"
        )))
    }
}

/// Converts a CSV-sourced value to the model's attribute type. Same
/// leniency as dataset loading: unparseable values become `Null`.
fn coerce(v: &Value, ty: AttrType) -> Value {
    match (v, ty) {
        (Value::Null, _) => Value::Null,
        (Value::Text(_), AttrType::Text)
        | (Value::Int(_), AttrType::Int)
        | (Value::Float(_), AttrType::Float)
        | (Value::Bool(_), AttrType::Bool) => v.clone(),
        (Value::Int(n), AttrType::Float) => Value::Float(*n as f64),
        _ => Value::parse(&v.render(), ty),
    }
}

fn json_to_value(
    schema: &Schema,
    row: usize,
    attr: usize,
    cell: &json::Value,
) -> Result<Value, Response> {
    let ty = schema.ty(attr);
    let name = schema.name(attr);
    let mismatch = |got: &str| {
        bad_request(format!(
            "tuple {row}, attribute {name:?}: expected {} or null, got {got}",
            type_label(ty)
        ))
    };
    Ok(match (cell, ty) {
        (json::Value::Null, _) => Value::Null,
        (json::Value::Num(n), AttrType::Int) => {
            if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 {
                Value::Int(*n as i64)
            } else {
                return Err(mismatch("a non-integer number"));
            }
        }
        (json::Value::Num(n), AttrType::Float) => Value::Float(*n),
        (json::Value::Str(s), AttrType::Text) => Value::Text(s.clone()),
        (json::Value::Bool(b), AttrType::Bool) => Value::Bool(*b),
        (json::Value::Num(_), _) => return Err(mismatch("a number")),
        (json::Value::Str(_), _) => return Err(mismatch("a string")),
        (json::Value::Bool(_), _) => return Err(mismatch("a boolean")),
        (json::Value::Arr(_), _) => return Err(mismatch("an array")),
        (json::Value::Obj(_), _) => return Err(mismatch("an object")),
    })
}

/// Layers per-request knobs over the serving base config.
fn request_config(base: &renuver_core::RenuverConfig, opts: &RequestOpts) -> renuver_core::RenuverConfig {
    let mut config = base.clone();
    config.explain = opts.explain;
    config.explain_sample = opts.explain_sample;
    config.budget = match opts.timeout_ms {
        Some(ms) => Budget::unlimited().with_deadline(Duration::from_millis(ms)),
        None => Budget::unlimited(),
    };
    // One gate for both tracing consumers: a limited request needs
    // phase attribution so a degraded response can say where its budget
    // went, and `?trace=1` asks for the same attribution explicitly
    // (previously unlimited requests could never get it).
    config.tracer = if opts.trace || config.budget.is_limited() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    config
}

/// Reads a `u64` field off a trace record.
fn field_u64(rec: &TraceRecord, name: &str) -> Option<u64> {
    rec.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(n) if *k == name => Some(*n),
        _ => None,
    })
}

/// Reads a string field off a trace record.
fn field_str<'a>(rec: &'a TraceRecord, name: &str) -> Option<&'a str> {
    rec.fields.iter().find_map(|(k, v)| match (v, *k == name) {
        (FieldValue::Str(s), true) => Some(*s),
        (FieldValue::Text(s), true) => Some(s.as_str()),
        _ => None,
    })
}

/// Folds a finished request into the telemetry scratch: cell counts and
/// budget phase self-times.
fn collect_telemetry(result: &BatchResult, tel: &mut Telemetry) {
    tel.cells_missing = Some(result.stats.missing_total as u64);
    tel.cells_imputed = Some(result.stats.imputed as u64);
    tel.phases = result.budget.phases.clone();
}

/// Appends the `?trace=1` envelope to a response body (a JSON object):
/// the closed spans from the request's tracer, capped at `max_events`.
/// The envelope is client-opt-in and independent of the flight
/// recorder's state, so the recorder on/off differential strips nothing
/// but the `X-Request-Id` header.
fn attach_trace(body: &mut String, tracer: &Tracer, max_events: usize, tel: &mut Telemetry) {
    debug_assert!(body.ends_with('}'));
    let records = tracer.records();
    let mut spans = String::new();
    let mut taken = 0usize;
    for rec in records.iter().filter(|r| r.kind == "span") {
        if taken == max_events {
            break;
        }
        if taken > 0 {
            spans.push(',');
        }
        spans.push_str(&format!("{{\"span\":{},\"label\":", rec.span));
        write_str(&mut spans, field_str(rec, "label").unwrap_or("?"));
        spans.push_str(&format!(
            ",\"parent\":{},\"dur_us\":{}}}",
            field_u64(rec, "parent").unwrap_or(0),
            field_u64(rec, "dur_us").unwrap_or(0)
        ));
        taken += 1;
    }
    let total = records.iter().filter(|r| r.kind == "span").count();
    body.pop();
    body.push_str(&format!(
        ",\"trace\":{{\"events\":{taken},\"truncated\":{},\"spans\":[{spans}]}}}}",
        total > taken
    ));
    tel.trace_events = Some(taken as u64);
}

fn impute_endpoint(ctx: &Ctx, req: &Request, tel: &mut Telemetry) -> Response {
    let opts = match parse_opts(ctx, req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };

    // Parsing runs before the engine lock; only the impute holds it.
    let reg = ctx.registry();
    let tuples = match parse_tuples(reg.schema(), req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let config = request_config(reg.config(), &opts);
    let result = match reg.impute(tuples, &config) {
        Ok(result) => result,
        Err(e) => return bad_request(e),
    };

    ctx.metrics.counter("serve.batches").inc();
    ctx.metrics.counter("serve.cells_missing").add(result.stats.missing_total as u64);
    ctx.metrics.counter("serve.cells_imputed").add(result.stats.imputed as u64);
    if result.budget.tripped.is_some() {
        ctx.metrics.counter("serve.budget_tripped").inc();
    }
    collect_telemetry(&result, tel);
    let mut body = render_batch(&result, opts.explain);
    if opts.trace {
        attach_trace(&mut body, &config.tracer, ctx.flight.trace_max_events(), tel);
    }
    Response::json(200, body)
}

fn unavailable(msg: &str) -> Response {
    let mut body = String::from("{\"error\":");
    write_str(&mut body, msg);
    body.push('}');
    let mut resp = Response::json(503, body);
    resp.extra_headers.push(("Retry-After", "1".into()));
    resp
}

/// `POST /v1/ingest`: repair the batch, make it durable, commit it.
///
/// The registry runs the durability contract under its commit lock:
///
/// 1. impute the batch on the engine (transient — rolls back on error),
/// 2. append the *repaired* tuples to the WAL and fsync,
/// 3. fold them into the relation/oracle/index via `commit_tuples`.
///
/// The client sees `200` only after step 2 succeeded, so every
/// acknowledged batch is recoverable; a crash before the fsync loses
/// only batches nobody was told about. A WAL failure degrades the log
/// (writes refused until a swap or restart) rather than risking the log
/// and the engine drifting apart. Compaction, when due, is handed to a
/// background worker — the response never waits on a snapshot rewrite.
fn ingest_endpoint(ctx: &Ctx, req: &Request, tel: &mut Telemetry) -> Response {
    let reg = ctx.registry();
    if !reg.is_durable() {
        return unavailable("model is not durable (serve it from an artifact with --wal)");
    }
    let opts = match parse_opts(ctx, req) {
        Ok(o) => o,
        Err(resp) => return resp,
    };
    let tuples = match parse_tuples(reg.schema(), req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let config = request_config(reg.config(), &opts);
    let outcome = match reg.ingest(tuples, &config) {
        Ok(o) => o,
        Err(RegistryError::Degraded) => {
            return unavailable("the wal is degraded by an earlier failure; swap a model or restart")
        }
        Err(RegistryError::Data(e)) if !reg.degraded() => return bad_request(e),
        Err(e) => {
            ctx.metrics.counter("serve.wal_degraded").inc();
            ctx.server_event("wal_degraded", vec![(
                "detail",
                FieldValue::Text(e.to_string()),
            )]);
            let mut body = String::from("{\"error\":");
            write_str(&mut body, &e.to_string());
            body.push('}');
            return Response::json(500, body);
        }
    };

    ctx.metrics.counter("serve.ingest_batches").inc();
    ctx.metrics.counter("serve.ingest_rows").add(outcome.committed_rows as u64);
    ctx.metrics.counter("serve.cells_missing").add(outcome.batch.stats.missing_total as u64);
    ctx.metrics.counter("serve.cells_imputed").add(outcome.batch.stats.imputed as u64);

    if outcome.wants_compact {
        let metrics = ctx.metrics.clone();
        let flight = ctx.flight.clone();
        reg.spawn_compact(move |result| match result {
            Ok(seq) => {
                metrics.counter("serve.compactions").inc();
                // `Ctx::server_event` needs `&Ctx`; the worker only has
                // clones, so the counter and line are emitted directly.
                metrics.counter("serve.events.compaction").inc();
                flight.server_event("compaction", vec![("seq", FieldValue::U64(seq))]);
            }
            Err(e) => {
                eprintln!("renuver: background compaction failed (will retry): {e}");
                metrics.counter("serve.compact_failed").inc();
            }
        });
    }

    collect_telemetry(&outcome.batch, tel);
    let batch_json = render_batch(&outcome.batch, opts.explain);
    let mut body = format!(
        "{{\"seq\":{},\"committed_rows\":{},\"donor_rows\":{},\"dict_grown\":{},{}",
        outcome.seq,
        outcome.committed_rows,
        outcome.donor_rows,
        outcome.dict_grown,
        &batch_json[1..],
    );
    if opts.trace {
        attach_trace(&mut body, &config.tracer, ctx.flight.trace_max_events(), tel);
    }
    Response::json(200, body)
}

/// `POST /v1/compact`: fold the WAL into a fresh snapshot now.
fn compact_endpoint(ctx: &Ctx) -> Response {
    let reg = ctx.registry();
    if !reg.is_durable() {
        return unavailable("model is not durable (serve it from an artifact with --wal)");
    }
    if reg.compacting() {
        return unavailable("compaction already in progress");
    }
    match reg.compact() {
        Ok(seq) => {
            ctx.metrics.counter("serve.compactions").inc();
            ctx.server_event("compaction", vec![("seq", FieldValue::U64(seq))]);
            Response::json(200, format!("{{\"seq\":{seq}}}"))
        }
        Err(e) => {
            ctx.metrics.counter("serve.compact_failed").inc();
            let mut body = String::from("{\"error\":");
            write_str(&mut body, &format!("compaction failed: {e}"));
            body.push('}');
            Response::json(500, body)
        }
    }
}

/// Knobs a `POST /v1/tune` body may set; everything is optional (an
/// empty body tunes with the defaults and a fingerprint-derived seed).
struct TuneParams {
    seed: Option<u64>,
    rate: Option<f64>,
    max_iters: Option<u64>,
    target_f1: Option<f64>,
    step: Option<f64>,
    /// Install the winning thresholds via the hot-swap path when the
    /// run finishes cleanly.
    install: bool,
}

fn parse_tune_params(body: &[u8]) -> Result<TuneParams, Response> {
    let mut p = TuneParams {
        seed: None,
        rate: None,
        max_iters: None,
        target_f1: None,
        step: None,
        install: false,
    };
    if body.is_empty() {
        return Ok(p);
    }
    let text =
        std::str::from_utf8(body).map_err(|_| bad_request("request body is not UTF-8"))?;
    let parsed = json::parse(text).map_err(|e| bad_request(format!("invalid JSON: {e}")))?;
    let obj = parsed.as_object().ok_or_else(|| bad_request("body must be a JSON object"))?;
    for (key, val) in obj {
        match key.as_str() {
            "seed" => {
                p.seed =
                    Some(val.as_u64().ok_or_else(|| {
                        bad_request("\"seed\" must be an unsigned integer")
                    })?)
            }
            "rate" => {
                let r = val
                    .as_f64()
                    .filter(|r| *r > 0.0 && *r <= 1.0)
                    .ok_or_else(|| bad_request("\"rate\" must be a number in (0, 1]"))?;
                p.rate = Some(r);
            }
            "max_iters" => {
                let n = val
                    .as_u64()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad_request("\"max_iters\" must be a positive integer"))?;
                p.max_iters = Some(n);
            }
            "target_f1" => {
                let t = val
                    .as_f64()
                    .filter(|t| *t > 0.0 && *t <= 1.0)
                    .ok_or_else(|| bad_request("\"target_f1\" must be a number in (0, 1]"))?;
                p.target_f1 = Some(t);
            }
            "step" => {
                let s = val
                    .as_f64()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad_request("\"step\" must be a positive number"))?;
                p.step = Some(s);
            }
            "install" => {
                p.install = val
                    .as_bool()
                    .ok_or_else(|| bad_request("\"install\" must be a boolean"))?;
            }
            other => return Err(bad_request(format!("unknown tune field {other:?}"))),
        }
    }
    Ok(p)
}

/// `POST /v1/tune`: submits the server's one asynchronous job. Answers
/// `202` with the job id immediately; progress and the final report are
/// polled via `GET /v1/tune/<id>`. Single-flight: a second submit while
/// a job runs answers `409`.
fn tune_submit_endpoint(ctx: &Ctx, req: &Request) -> Response {
    let params = match parse_tune_params(&req.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // The worker thread outlives this request, so it needs an owning
    // handle; `Server::bind` parked one behind the weak self-reference.
    let Some(owner) = ctx.self_arc() else {
        return unavailable("tune jobs need a server-bound context");
    };
    let budget = Budget::unlimited();
    let worker_budget = budget.clone();
    let submitted = ctx.jobs.submit(budget, move |id, state| {
        std::thread::Builder::new()
            .name(format!("tune-{id}"))
            .spawn(move || run_tune_job(owner, id, state, worker_budget, params))
            .expect("spawn tune worker")
    });
    match submitted {
        Ok(id) => {
            ctx.server_event("tune_started", vec![("job", FieldValue::U64(id))]);
            Response::json(202, format!("{{\"id\":{id},\"status\":\"running\"}}"))
        }
        Err(running) => Response::json(
            409,
            format!("{{\"error\":\"tune job {running} is already running\",\"id\":{running}}}"),
        ),
    }
}

/// `GET`/`DELETE /v1/tune/<id>`: poll or cancel the latest job. Only
/// the latest job is retained — earlier ids answer `404`.
fn tune_job_endpoint(ctx: &Ctx, method: &str, path: &str) -> Response {
    let Some(id) = path.strip_prefix("/v1/tune/").and_then(|s| s.parse::<u64>().ok()) else {
        return Response::text(404, "not found\n");
    };
    match method {
        "GET" => match ctx.jobs.get(id) {
            // The worker stores the result before flipping the status,
            // so a present result is always the terminal body.
            Some(state) => match state.result() {
                Some(body) => Response::json(200, body),
                None => Response::json(
                    200,
                    format!(
                        "{{\"id\":{id},\"status\":\"running\",\"iterations\":{}}}",
                        state.iterations()
                    ),
                ),
            },
            None => Response::text(404, "not found\n"),
        },
        "DELETE" => match ctx.jobs.cancel(id) {
            Some(JobStatus::Running) => {
                Response::json(202, format!("{{\"id\":{id},\"status\":\"cancelling\"}}"))
            }
            Some(status) => {
                Response::json(200, format!("{{\"id\":{id},\"status\":\"{}\"}}", status.label()))
            }
            None => Response::text(404, "not found\n"),
        },
        _ => Response::text(405, "method not allowed\n"),
    }
}

/// The tune-job worker. Snapshots the engine's relation and RFD set
/// under a brief lock, then tunes entirely off-lock — requests
/// keep serving. On a clean finish with `install`, the winning
/// thresholds are installed through [`Registry::retune`]: the live
/// relation (with any batch ingested while the job ran) is prepared
/// under them and swapped in, so the served model is bit-identical to
/// one prepared from the tuned set directly.
fn run_tune_job(
    ctx: Arc<Ctx>,
    id: u64,
    state: Arc<JobState>,
    budget: Budget,
    params: TuneParams,
) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Read before the snapshot: a swap that lands after it makes the
        // install refuse rather than overwrite the swapped-in model.
        let swaps = ctx.registry().swaps();
        let (rel, sigma) = {
            let engine = ctx.lock_engine();
            (engine.relation().clone(), engine.sigma().clone())
        };
        let fingerprint = ctx.info().schema_fingerprint;
        let defaults = renuver_tune::TuneConfig::default();
        let progress = Arc::clone(&state);
        let cfg = renuver_tune::TuneConfig {
            seed: params.seed.unwrap_or_else(|| renuver_tune::default_seed(fingerprint)),
            sample_rate: params.rate.unwrap_or(defaults.sample_rate),
            max_iters: params.max_iters.map(|n| n as usize).unwrap_or(defaults.max_iters),
            target_f1: params.target_f1.unwrap_or(defaults.target_f1),
            step: params.step.unwrap_or(defaults.step),
            budget,
            progress: Some(Arc::new(move |n| progress.set_iterations(n))),
            ..defaults
        };
        let report = renuver_tune::tune(&rel, &sigma, &cfg);
        let mut tail = format!(",\"report\":{}", report.to_json(rel.schema()));
        if params.install && !report.partial {
            let source = format!("tune job {id}");
            let tuned = report.tuned.clone();
            match install_model(&ctx, &source, source.clone(), 0, |reg| reg.retune(tuned, swaps)) {
                Ok(seq) => tail.push_str(&format!(",\"installed\":true,\"seq\":{seq}")),
                Err(resp) => {
                    tail.push_str(",\"installed\":false,\"install_error\":");
                    let why = String::from_utf8_lossy(&resp.body).trim().to_string();
                    write_str(&mut tail, &why);
                }
            }
        }
        (report, tail)
    }));
    match outcome {
        Ok((report, tail)) => {
            let status =
                if report.partial { JobStatus::Cancelled } else { JobStatus::Done };
            let iterations = report.iterations.len();
            state.set_iterations(iterations as u64);
            state.finish(
                status,
                format!(
                    "{{\"id\":{id},\"status\":\"{}\",\"iterations\":{iterations}{tail}}}",
                    status.label()
                ),
            );
            let event = if report.partial { "tune_cancelled" } else { "tune_finished" };
            ctx.server_event(
                event,
                vec![
                    ("job", FieldValue::U64(id)),
                    (
                        "detail",
                        FieldValue::Text(format!(
                            "stop {} best_f1 {:.3}",
                            report.stop.label(),
                            report.best_f1
                        )),
                    ),
                ],
            );
        }
        Err(_) => {
            state.finish(
                JobStatus::Failed,
                format!("{{\"id\":{id},\"status\":\"failed\",\"error\":\"tune worker panicked\"}}"),
            );
            ctx.server_event(
                "tune_cancelled",
                vec![
                    ("job", FieldValue::U64(id)),
                    ("detail", FieldValue::Str("worker panicked")),
                ],
            );
        }
    }
}

/// `PUT /v1/model`: hot model swap. The body is a complete `.rnv`
/// artifact; its schema fingerprint must match the loaded model's.
fn swap_endpoint(ctx: &Ctx, req: &Request) -> Response {
    match apply_model_swap(ctx, &req.body, "PUT /v1/model") {
        Ok(seq) => Response::json(200, format!("{{\"swapped\":true,\"seq\":{seq}}}")),
        Err(resp) => resp,
    }
}

/// Installs artifact `bytes` as the serving model — shared by
/// `PUT /v1/model` and the `SIGHUP` reload. The new model must carry the
/// same schema fingerprint; requests in flight finish against the old
/// model, new requests see the new one.
pub fn apply_model_swap(ctx: &Ctx, bytes: &[u8], via: &str) -> Result<u64, Response> {
    let art = decode_for_swap(ctx, bytes)?;
    let source = art.source.clone();
    install_model(ctx, via, source, bytes.len(), |reg| reg.swap(art))
}

/// Decodes a replacement model, refusing one whose schema fingerprint
/// differs from the served model's.
fn decode_for_swap(ctx: &Ctx, bytes: &[u8]) -> Result<crate::artifact::Artifact, Response> {
    let art = match crate::artifact::decode(bytes) {
        Ok(a) => a,
        Err(e) => return Err(bad_request(format!("model swap rejected: {e}"))),
    };
    let expected = ctx.info().schema_fingerprint;
    if art.schema_fingerprint != expected {
        ctx.metrics.counter("serve.swap_rejected").inc();
        let mut body = String::from("{\"error\":");
        write_str(
            &mut body,
            &format!(
                "schema fingerprint mismatch: serving {expected:#018x}, swap carries {:#018x}",
                art.schema_fingerprint
            ),
        );
        body.push('}');
        return Err(Response::json(409, body));
    }
    Ok(art)
}

/// Runs one model install (`swap`) on the registry and publishes it:
/// model info, the swap counter and event. Shared by
/// `PUT /v1/model`, the `SIGHUP` reload and the tune-job install.
fn install_model(
    ctx: &Ctx,
    via: &str,
    source: String,
    artifact_bytes: usize,
    swap: impl FnOnce(&Registry) -> Result<u64, RegistryError>,
) -> Result<u64, Response> {
    // A successful swap writes a fresh log, which heals a log an earlier
    // WAL failure degraded; capture the state before so the heal can be
    // logged.
    let reg = ctx.registry();
    let was_degraded = reg.degraded();
    let seq = match swap(reg) {
        Ok(seq) => seq,
        Err(e) => {
            let mut body = String::from("{\"error\":");
            write_str(&mut body, &format!("model swap failed: {e}"));
            body.push('}');
            return Err(Response::json(500, body));
        }
    };
    {
        let mut info = ctx.info.write().unwrap_or_else(|e| e.into_inner());
        info.source = source;
        info.artifact_bytes = artifact_bytes;
    }
    ctx.metrics.counter("serve.swaps").inc();
    ctx.server_event(
        "swap",
        vec![
            ("seq", FieldValue::U64(seq)),
            ("generation", FieldValue::U64(reg.generation())),
            ("detail", FieldValue::Text(via.to_string())),
        ],
    );
    if was_degraded && !reg.degraded() {
        ctx.server_event("wal_healed", vec![("seq", FieldValue::U64(seq))]);
    }
    eprintln!("renuver: model swapped via {via} (seq {seq})");
    Ok(seq)
}

/// The checksum an artifact ends with — a cheap identity that tells a
/// replaced model file from the one already loaded.
fn artifact_checksum(bytes: &[u8]) -> Option<u32> {
    let tail = bytes.get(bytes.len().checked_sub(4)?..)?;
    Some(u32::from_le_bytes(tail.try_into().ok()?))
}

/// [`artifact_checksum`] of the file at `path`, reading only its tail.
fn stored_checksum(path: &std::path::Path) -> Option<u32> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path).ok()?;
    f.seek(SeekFrom::End(-4)).ok()?;
    let mut tail = [0u8; 4];
    f.read_exact(&mut tail).ok()?;
    Some(u32::from_le_bytes(tail))
}

/// Reloads the model from the registered path — the `SIGHUP` handler's
/// slow half, run on the accept loop. A file whose bytes changed since
/// it was loaded is a replacement model and is swapped in as
/// `PUT /v1/model` would. An unchanged file is re-read together with the
/// durable layout beside it ([`Registry::reload`]), so every batch
/// committed since the file was written is kept.
pub fn reload_from_path(ctx: &Ctx) {
    let Some((path, loaded)) = ctx.model_file.lock().unwrap_or_else(|e| e.into_inner()).clone()
    else {
        eprintln!("renuver: SIGHUP ignored — model was not served from a file");
        return;
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("renuver: SIGHUP reload failed to read {}: {e}", path.display());
            return;
        }
    };
    let checksum = artifact_checksum(&bytes);
    let layout = crate::registry::ShardLayout::beside(&path);
    let reloaded = decode_for_swap(ctx, &bytes).and_then(|art| {
        let source = art.source.clone();
        install_model(ctx, "SIGHUP", source, bytes.len(), |reg| {
            if checksum == loaded {
                reg.reload(art, &layout)
            } else {
                reg.swap(art)
            }
        })
    });
    match reloaded {
        Ok(_) => ctx.set_model_file(path, checksum),
        Err(resp) => {
            eprintln!(
                "renuver: SIGHUP reload of {} rejected: {}",
                path.display(),
                String::from_utf8_lossy(&resp.body)
            );
        }
    }
}

/// Serializes a [`BatchResult`] as the `/v1/impute` response document.
pub fn render_batch(result: &BatchResult, explain: bool) -> String {
    let mut out = String::from("{\"tuples\":[");
    for (i, tuple) in result.tuples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in tuple.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Value::Null => out.push_str("null"),
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Float(f) => write_f64(&mut out, *f),
                Value::Text(s) => write_str(&mut out, s),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push(']');
    }
    out.push_str("],\"outcomes\":[");
    for (i, (cell, outcome)) in result.outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"row\":{},\"attr\":{},\"outcome\":\"{}\"}}",
            cell.row,
            cell.col,
            outcome.label()
        ));
    }
    out.push_str(&format!(
        "],\"stats\":{{\"missing\":{},\"imputed\":{},\"unimputed\":{},\"skipped_budget\":{},\"cancelled\":{}}}",
        result.stats.missing_total,
        result.stats.imputed,
        result.stats.unimputed,
        result.stats.skipped_budget,
        result.stats.cancelled
    ));
    out.push_str(&format!(",\"degraded\":{}", result.budget.tripped.is_some()));
    if result.budget.tripped.is_some() || !result.budget.phases.is_empty() {
        out.push_str(",\"budget\":{");
        match result.budget.tripped {
            Some(trip) => {
                out.push_str("\"tripped\":");
                write_str(&mut out, trip.label());
            }
            None => out.push_str("\"tripped\":null"),
        }
        if let Some(phase) = result.budget.tripped_at {
            out.push_str(",\"tripped_at\":");
            write_str(&mut out, phase);
        }
        out.push_str(",\"phases\":[");
        for (i, (label, us)) in result.budget.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_str(&mut out, label);
            out.push_str(&format!(",{us}]"));
        }
        out.push_str("]}");
    }
    if explain {
        out.push_str(",\"explains\":[");
        for (i, exp) in result.explains.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"row\":{},\"attr\":{},\"outcome\":\"{}\",\"clusters\":{},\"candidates\":{}",
                exp.cell.row,
                exp.cell.col,
                exp.outcome.label(),
                exp.clusters,
                exp.candidates
            ));
            if let Some(w) = &exp.winner {
                out.push_str(&format!(
                    ",\"winner\":{{\"donor_row\":{},\"via_rfd\":{},\"distance\":",
                    w.donor_row, w.via_rfd
                ));
                write_f64(&mut out, w.distance);
                if let Some(margin) = w.runner_up_margin {
                    out.push_str(",\"runner_up_margin\":");
                    write_f64(&mut out, margin);
                }
                out.push('}');
            }
            if let Some(dry) = exp.dried_up {
                out.push_str(",\"dried_up\":");
                write_str(&mut out, dry.label());
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_core::RenuverConfig;
    use renuver_rfd::{Constraint, Rfd, RfdSet};

    fn test_ctx() -> Ctx {
        let rel = csv::read_str(
            "City:text,Zip:text\n\
             Malibu,90265\n\
             Malibu,90265\n\
             Hollywood,90028\n",
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )]);
        let fingerprint = crate::artifact::schema_fingerprint(rel.schema());
        let engine = Engine::prepare(rel, rfds, RenuverConfig::default());
        Ctx::new(
            engine,
            ModelInfo {
                source: "test".into(),
                schema_fingerprint: fingerprint,
                artifact_bytes: 0,
            },
            None,
            60_000,
        )
    }

    fn get(path: &str) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path, ""),
        };
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .split('&')
                .filter(|s| !s.is_empty())
                .map(|s| match s.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (s.to_string(), String::new()),
                })
                .collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, content_type: &str, body: &str) -> Request {
        let mut req = get(path);
        req.method = "POST".into();
        req.headers.push(("content-type".into(), content_type.into()));
        req.body = body.as_bytes().to_vec();
        req
    }

    #[test]
    fn healthz_and_unknown_paths() {
        let ctx = test_ctx();
        let resp = route(&ctx, &get("/healthz"));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("state").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(route(&ctx, &get("/nope")).status, 404);
        assert_eq!(route(&ctx, &get("/v1/impute")).status, 405);
        assert_eq!(route(&ctx, &get("/v1/ingest")).status, 405);
        assert_eq!(ctx.metrics.counter("http.requests").get(), 4);
        assert_eq!(ctx.metrics.counter("http.responses_2xx").get(), 1);
        assert_eq!(ctx.metrics.counter("http.responses_4xx").get(), 3);
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("renuver-router-tests-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A test context over a durable registry rooted at a fresh temp dir,
    /// the way `renuver serve --wal` opens one: the test model written as
    /// the base artifact.
    fn durable_ctx(name: &str) -> (Ctx, std::path::PathBuf) {
        let dir = durable_dir(name);
        let snapshot = dir.join("model.rnv");
        let bytes = crate::artifact::encode_engine(&test_ctx().lock_engine(), "test", 0);
        std::fs::write(&snapshot, &bytes).unwrap();
        let art = crate::artifact::decode(&bytes).unwrap();
        let info = ModelInfo {
            source: "test".into(),
            schema_fingerprint: art.schema_fingerprint,
            artifact_bytes: bytes.len(),
        };
        let opts = crate::registry::DurabilityOptions::beside(&snapshot, "test");
        let (registry, _) = Registry::open_durable(
            art,
            RenuverConfig::default(),
            1,
            opts.layout,
            "test",
            opts.compact_bytes,
            opts.compact_records,
        )
        .unwrap();
        (Ctx::new_sharded(registry, info, None, 60_000), dir)
    }

    #[test]
    fn ingest_without_durability_is_503() {
        let ctx = test_ctx();
        let resp = route(
            &ctx,
            &post("/v1/ingest", "application/json", r#"{"tuples": [["Venice", "90291"]]}"#),
        );
        assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
        assert!(resp.extra_headers.iter().any(|(k, _)| *k == "Retry-After"));
        assert_eq!(route(&ctx, &post("/v1/compact", "application/json", "")).status, 503);
    }

    #[test]
    fn ingest_repairs_commits_and_serves_the_new_donor() {
        let (ctx, _dir) = durable_ctx("commit");
        // The batch itself has a hole; ingest must repair then commit it.
        let resp = route(
            &ctx,
            &post(
                "/v1/ingest",
                "application/json",
                r#"{"tuples": [["Venice", "90291"], ["Malibu", null]]}"#,
            ),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("committed_rows").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("donor_rows").unwrap().as_u64(), Some(5));
        let tuples = doc.get("tuples").unwrap().as_array().unwrap();
        assert_eq!(tuples[1].as_array().unwrap()[1].as_str(), Some("90265"));
        assert_eq!(ctx.seq(), 1);
        assert_eq!(ctx.metrics.counter("serve.ingest_rows").get(), 2);
        let health = route(&ctx, &get("/healthz"));
        let doc = json::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
        assert_eq!(doc.get("wal").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("rows").unwrap().as_u64(), Some(5));

        // The committed row is a donor for plain imputation now.
        let resp = route(
            &ctx,
            &post("/v1/impute", "application/json", r#"{"tuples": [["Venice", null]]}"#),
        );
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let tuples = doc.get("tuples").unwrap().as_array().unwrap();
        assert_eq!(tuples[0].as_array().unwrap()[1].as_str(), Some("90291"));
    }

    #[test]
    fn compact_endpoint_rewrites_the_snapshot() {
        let (ctx, dir) = durable_ctx("compact-endpoint");
        let resp = route(
            &ctx,
            &post("/v1/ingest", "application/json", r#"{"tuples": [["Venice", "90291"]]}"#),
        );
        assert_eq!(resp.status, 200);
        let resp = route(&ctx, &post("/v1/compact", "application/json", ""));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(ctx.metrics.counter("serve.compactions").get(), 1);
        let snapshot = crate::artifact::load(dir.join("model.rnv.shard0")).unwrap();
        assert_eq!(snapshot.committed_seq, 1);
        assert_eq!(snapshot.relation.len(), 4);
        assert_eq!(ctx.state(), ServeState::Ok);
    }

    #[test]
    fn injected_wal_failure_degrades_the_server_until_a_swap() {
        let (ctx, dir) = durable_ctx("degrade");
        crate::fault::arm("registry.append", crate::fault::Action::Err);
        let resp = route(
            &ctx,
            &post("/v1/ingest", "application/json", r#"{"tuples": [["Venice", "90291"]]}"#),
        );
        crate::fault::disarm("registry.append");
        assert_eq!(resp.status, 500, "{}", String::from_utf8_lossy(&resp.body));
        assert_eq!(ctx.state(), ServeState::Degraded);
        assert_eq!(ctx.metrics.counter("serve.wal_degraded").get(), 1);
        assert_eq!(ctx.metrics.counter("serve.events.wal_degraded").get(), 1);
        let health = route(&ctx, &get("/healthz"));
        let doc = json::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
        assert_eq!(doc.get("state").unwrap().as_str(), Some("degraded"));
        assert_eq!(doc.get("wal").unwrap().as_str(), Some("degraded"));
        // The engine did not commit the failed batch.
        assert_eq!(ctx.lock_engine().donor_rows(), 3);
        // Subsequent ingests are refused, reads still work.
        let resp = route(
            &ctx,
            &post("/v1/ingest", "application/json", r#"{"tuples": [["Venice", "90291"]]}"#),
        );
        assert_eq!(resp.status, 503);
        assert_eq!(route(&ctx, &get("/v1/model")).status, 200);
        let resp = route(
            &ctx,
            &post("/v1/impute", "application/json", r#"{"tuples": [["Malibu", null]]}"#),
        );
        assert_eq!(resp.status, 200);

        // A swap writes a fresh log: the server heals and logs it.
        let mut swap = post("/v1/model", "application/octet-stream", "");
        swap.method = "PUT".into();
        swap.body = std::fs::read(dir.join("model.rnv")).unwrap();
        assert_eq!(route(&ctx, &swap).status, 200);
        assert_eq!(ctx.state(), ServeState::Ok);
        assert_eq!(ctx.metrics.counter("serve.events.wal_healed").get(), 1);
        let resp = route(
            &ctx,
            &post("/v1/ingest", "application/json", r#"{"tuples": [["Venice", "90291"]]}"#),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn model_endpoint_describes_the_schema() {
        let ctx = test_ctx();
        let resp = route(&ctx, &get("/v1/model"));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("rows").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("rfds").unwrap().as_u64(), Some(1));
        let attrs = doc.get("attrs").unwrap().as_array().unwrap();
        assert_eq!(attrs[0].get("name").unwrap().as_str(), Some("City"));
        assert_eq!(attrs[1].get("type").unwrap().as_str(), Some("text"));
    }

    #[test]
    fn impute_json_round_trip() {
        let ctx = test_ctx();
        let resp = route(
            &ctx,
            &post(
                "/v1/impute?explain=1",
                "application/json",
                r#"{"tuples": [["Malibu", null], ["Atlantis", null]]}"#,
            ),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let tuples = doc.get("tuples").unwrap().as_array().unwrap();
        assert_eq!(tuples[0].as_array().unwrap()[1].as_str(), Some("90265"));
        assert_eq!(tuples[1].as_array().unwrap()[1], json::Value::Null);
        let outcomes = doc.get("outcomes").unwrap().as_array().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].get("outcome").unwrap().as_str(), Some("imputed"));
        assert_eq!(outcomes[1].get("outcome").unwrap().as_str(), Some("no_candidates"));
        let explains = doc.get("explains").unwrap().as_array().unwrap();
        assert_eq!(explains.len(), 2);
        assert_eq!(explains[1].get("dried_up").unwrap().as_str(), Some("no_candidates"));
        assert_eq!(ctx.metrics.counter("serve.cells_imputed").get(), 1);
        assert_eq!(ctx.metrics.counter("serve.cells_missing").get(), 2);
    }

    #[test]
    fn impute_csv_round_trip() {
        let ctx = test_ctx();
        let resp = route(
            &ctx,
            &post("/v1/impute", "text/csv", "City:text,Zip:text\nMalibu,_\n"),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let tuples = doc.get("tuples").unwrap().as_array().unwrap();
        assert_eq!(tuples[0].as_array().unwrap()[1].as_str(), Some("90265"));
    }

    #[test]
    fn untyped_csv_headers_coerce_to_the_model_schema() {
        let rel = csv::read_str("City:text,Class:int\nMalibu,6\nMalibu,6\nVenice,2\n").unwrap();
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(0, 0.0)),
        ]);
        let engine = Engine::prepare(rel, rfds, RenuverConfig::default());
        let ctx = Ctx::new(
            engine,
            ModelInfo { source: "test".into(), schema_fingerprint: 0, artifact_bytes: 0 },
            None,
            60_000,
        );
        // Plain header, no `:type` annotations: "6" must land as Int(6).
        let resp = route(&ctx, &post("/v1/impute", "text/csv", "City,Class\nMalibu,_\n"));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let tuples = doc.get("tuples").unwrap().as_array().unwrap();
        assert_eq!(tuples[0].as_array().unwrap()[1].as_u64(), Some(6));
        // A typed value in the body is accepted too.
        let resp = route(&ctx, &post("/v1/impute", "text/csv", "City,Class\n,2\n"));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let tuples = doc.get("tuples").unwrap().as_array().unwrap();
        assert_eq!(tuples[0].as_array().unwrap()[0].as_str(), Some("Venice"));
    }

    #[test]
    fn invalid_bodies_are_400_never_500() {
        let ctx = test_ctx();
        for (ct, body) in [
            ("application/json", "not json"),
            ("application/json", "{\"rows\": []}"),
            ("application/json", "{\"tuples\": [[\"only one\"]]}"),
            ("application/json", "{\"tuples\": [[1, \"zip\"]]}"),
            ("application/json", "{\"tuples\": [{\"a\": 1}]}"),
            ("text/csv", "Wrong:text,Header:text\nx,y\n"),
            ("application/x-whatever", "???"),
        ] {
            let resp = route(&ctx, &post("/v1/impute", ct, body));
            assert_eq!(resp.status, 400, "{ct} {body:?}");
        }
        // The engine still serves after every rejection.
        let resp = route(
            &ctx,
            &post("/v1/impute", "application/json", r#"{"tuples": [["Malibu", null]]}"#),
        );
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn bad_query_params_are_400() {
        let ctx = test_ctx();
        let req = post("/v1/impute?timeout_ms=soon", "application/json", "{\"tuples\":[]}");
        assert_eq!(route(&ctx, &req).status, 400);
        let req = post(
            "/v1/impute?explain_sample=sometimes",
            "application/json",
            "{\"tuples\":[]}",
        );
        assert_eq!(route(&ctx, &req).status, 400);
    }

    #[test]
    fn timed_requests_report_budget_attribution() {
        let ctx = test_ctx();
        let resp = route(
            &ctx,
            &post(
                "/v1/impute?timeout_ms=60000",
                "application/json",
                r#"{"tuples": [["Malibu", null]]}"#,
            ),
        );
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("degraded").unwrap().as_bool(), Some(false));
        // The tracer was enabled for the limited budget, so phase
        // self-times are attributed even on a healthy response.
        let budget = doc.get("budget").unwrap();
        assert!(!budget.get("phases").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn render_batch_is_valid_json_for_empty_results() {
        let ctx = test_ctx();
        let mut engine = ctx.lock_engine();
        let result = engine.impute_batch(Vec::new()).unwrap();
        drop(engine);
        let doc = json::parse(&render_batch(&result, true)).unwrap();
        assert_eq!(doc.get("tuples").unwrap().as_array().unwrap().len(), 0);
    }

    // ------------------------------------------------- flight recorder

    #[test]
    fn trace_query_attributes_unlimited_budget_requests() {
        let ctx = test_ctx();
        let body = r#"{"tuples": [["Malibu", null]]}"#;
        // Untraced with no deadline: the tracer stays off, so the
        // response carries no budget attribution and no envelope.
        let resp = route(&ctx, &post("/v1/impute", "application/json", body));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(doc.get("budget").is_none(), "untraced healthy response has no budget block");
        assert!(doc.get("trace").is_none(), "no envelope unless ?trace=1");

        // `?trace=1` on the same unlimited budget: phases are attributed
        // and the span breakdown rides back on the response. Before the
        // gate was unified, unlimited-budget requests could never get
        // phase attribution.
        let resp = route(&ctx, &post("/v1/impute?trace=1", "application/json", body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let phases = doc.get("budget").unwrap().get("phases").unwrap();
        assert!(
            !phases.as_array().unwrap().is_empty(),
            "trace=1 must attribute phases on an unlimited budget"
        );
        let trace = doc.get("trace").unwrap();
        assert!(trace.get("events").unwrap().as_u64().unwrap() > 0);
        assert_eq!(trace.get("truncated").unwrap().as_bool(), Some(false));
        let spans = trace.get("spans").unwrap().as_array().unwrap();
        assert!(!spans.is_empty(), "traced run closed no spans");
        for s in spans {
            assert!(s.get("label").unwrap().as_str().is_some());
            assert!(s.get("dur_us").unwrap().as_u64().is_some());
        }
    }

    #[test]
    fn trace_envelope_caps_events_and_composes_with_deadlines() {
        // Cap: trace_max_events=1 keeps exactly one record and flags it.
        let mut ctx = test_ctx();
        ctx.set_flight(FlightOptions { trace_max_events: 1, ..FlightOptions::default() });
        let body = r#"{"tuples": [["Malibu", null]]}"#;
        let resp = route(&ctx, &post("/v1/impute?trace=1", "application/json", body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let trace = doc.get("trace").unwrap();
        assert_eq!(trace.get("events").unwrap().as_u64(), Some(1));
        assert_eq!(trace.get("truncated").unwrap().as_bool(), Some(true));

        // `?trace=1&timeout_ms=...`: the explicit-trace and
        // degraded-attribution paths share one tracer, so both the
        // budget block and the envelope are populated.
        let ctx = test_ctx();
        let resp = route(
            &ctx,
            &post("/v1/impute?trace=1&timeout_ms=60000", "application/json", body),
        );
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(!doc.get("budget").unwrap().get("phases").unwrap().as_array().unwrap().is_empty());
        assert!(doc.get("trace").is_some());
    }

    #[test]
    fn request_ids_are_echoed_and_inbound_ids_honored() {
        let ctx = test_ctx();
        let resp = route(&ctx, &get("/healthz"));
        let (_, minted) = resp
            .extra_headers
            .iter()
            .find(|(k, _)| *k == "X-Request-Id")
            .expect("response must carry a request id");
        assert!(!minted.is_empty());

        let mut req = get("/healthz");
        req.headers.push(("x-request-id".into(), "caller-42".into()));
        let resp = route(&ctx, &req);
        assert!(
            resp.extra_headers.iter().any(|(k, v)| *k == "X-Request-Id" && v == "caller-42"),
            "sane inbound ids are echoed back"
        );

        // A hostile inbound id is replaced, not reflected into the log.
        let mut req = get("/healthz");
        req.headers.push(("x-request-id".into(), "a b\u{7}c".into()));
        let resp = route(&ctx, &req);
        let (_, id) =
            resp.extra_headers.iter().find(|(k, _)| *k == "X-Request-Id").unwrap();
        assert_ne!(id, "a b\u{7}c");
    }

    #[test]
    fn recorder_toggle_never_changes_response_bytes() {
        let on = test_ctx();
        let mut off = test_ctx();
        off.set_flight(FlightOptions { enabled: false, ..FlightOptions::default() });
        let requests = [
            post(
                "/v1/impute?explain=1",
                "application/json",
                r#"{"tuples": [["Malibu", null], ["Atlantis", null]]}"#,
            ),
            post("/v1/impute", "text/csv", "City:text,Zip:text\nMalibu,_\n"),
            post("/v1/impute", "application/json", "not json"),
            get("/v1/model"),
            get("/healthz"),
        ];
        for req in &requests {
            let a = route(&on, req);
            let b = route(&off, req);
            assert_eq!(a.status, b.status);
            assert_eq!(
                a.body, b.body,
                "recorder toggle changed {} {}",
                req.method, req.path
            );
            assert!(a.extra_headers.iter().any(|(k, _)| *k == "X-Request-Id"));
            assert!(!b.extra_headers.iter().any(|(k, _)| *k == "X-Request-Id"));
            let strip = |h: &[(&'static str, String)]| {
                h.iter().filter(|(k, _)| *k != "X-Request-Id").cloned().collect::<Vec<_>>()
            };
            assert_eq!(strip(&a.extra_headers), strip(&b.extra_headers));
        }
    }

    #[test]
    fn slow_ring_feeds_the_debug_endpoint() {
        let mut ctx = test_ctx();
        ctx.set_flight(FlightOptions { slow_threshold_ms: 0, ..FlightOptions::default() });
        let resp = route(
            &ctx,
            &post("/v1/impute", "application/json", r#"{"tuples": [["Malibu", null]]}"#),
        );
        assert_eq!(resp.status, 200);
        let resp = route(&ctx, &get("/v1/debug/requests"));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("enabled").unwrap().as_bool(), Some(true));
        let reqs = doc.get("requests").unwrap().as_array().unwrap();
        assert_eq!(reqs.len(), 1, "only the impute preceded the dump");
        assert_eq!(reqs[0].get("endpoint").unwrap().as_str(), Some("impute"));
        assert_eq!(reqs[0].get("status").unwrap().as_u64(), Some(200));
        assert!(reqs[0].get("id").unwrap().as_str().is_some());

        // Recorder off: the ring stays empty and the endpoint says so.
        let mut off = test_ctx();
        off.set_flight(FlightOptions { enabled: false, ..FlightOptions::default() });
        route(&off, &post("/v1/impute", "application/json", r#"{"tuples": [["Malibu", null]]}"#));
        let resp = route(&off, &get("/v1/debug/requests"));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("enabled").unwrap().as_bool(), Some(false));
        assert!(doc.get("requests").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn access_log_validates_and_reconciles_with_counters() {
        let mut ctx = test_ctx();
        let dir = durable_dir("flight-log");
        let path = dir.join("events.jsonl");
        ctx.set_flight(FlightOptions {
            log: Some(renuver_obs::EventLog::create(&path).unwrap()),
            ..FlightOptions::default()
        });
        let ok_body = r#"{"tuples": [["Malibu", null]]}"#;
        assert_eq!(route(&ctx, &post("/v1/impute", "application/json", ok_body)).status, 200);
        assert_eq!(
            route(&ctx, &post("/v1/impute?trace=1", "application/json", ok_body)).status,
            200
        );
        assert_eq!(route(&ctx, &post("/v1/impute", "application/json", "not json")).status, 400);
        assert_eq!(route(&ctx, &get("/nope")).status, 404);
        assert_eq!(route(&ctx, &post("/v1/compact", "application/json", "")).status, 503);
        assert_eq!(route(&ctx, &get("/healthz")).status, 200);
        ctx.server_event("swap", vec![("seq", FieldValue::U64(7))]);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines = renuver_obs::schema::validate_trace(&text)
            .unwrap_or_else(|(line, why)| panic!("log line {line} invalid: {why}\n{text}"));
        assert_eq!(lines, 7, "6 access lines + 1 server_event:\n{text}");

        let access_status = |line: &str| -> Option<u64> {
            if !line.contains("\"kind\":\"access\"") {
                return None;
            }
            let rest = line.split("\"status\":").nth(1)?;
            rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
        };
        let class = |lo, hi| {
            text.lines()
                .filter_map(access_status)
                .filter(|s| (lo..=hi).contains(s))
                .count() as u64
        };
        assert_eq!(class(200, 299), ctx.metrics.counter("http.responses_2xx").get());
        assert_eq!(class(400, 499), ctx.metrics.counter("http.responses_4xx").get());
        assert_eq!(class(500, 599), ctx.metrics.counter("http.responses_5xx").get());

        // The traced request's line carries phase self-times, cell
        // counts, and the envelope size; the lifecycle event landed in
        // both the log and its counter.
        assert!(
            text.lines().any(|l| l.contains("\"phases\":{") && l.contains("\"trace_events\":")),
            "{text}"
        );
        assert!(text.lines().any(|l| l.contains("\"cells_imputed\":1")), "{text}");
        assert!(
            text.lines()
                .any(|l| l.contains("\"kind\":\"server_event\"") && l.contains("\"event\":\"swap\"")),
            "{text}"
        );
        assert_eq!(ctx.metrics.counter("serve.events.swap").get(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_exposition_renders_and_negotiates() {
        let ctx = test_ctx();
        assert_eq!(
            route(&ctx, &post("/v1/impute", "application/json", r#"{"tuples": [["Malibu", null]]}"#))
                .status,
            200
        );

        // Explicit ?format=prometheus.
        let resp = route(&ctx, &get("/metrics?format=prometheus"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4; charset=utf-8");
        let body = std::str::from_utf8(&resp.body).unwrap();
        assert!(body.contains("# TYPE http_requests counter"), "{body}");
        assert!(body.contains("# TYPE serve_latency_impute_2xx histogram"), "{body}");
        // Every line is a comment or `name[{labels}] value` over the
        // Prometheus charset — the exposition must parse as-is.
        for line in body.lines().filter(|l| !l.is_empty()) {
            if line.starts_with("# ") {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
            assert!(value.chars().all(|c| c.is_ascii_digit()), "bad sample value: {line:?}");
            let bare = name.split('{').next().unwrap();
            assert!(
                !bare.is_empty()
                    && !bare.starts_with(|c: char| c.is_ascii_digit())
                    && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {line:?}"
            );
        }

        // Accept-header negotiation selects the same rendering; the
        // plain table and unknown formats behave as before.
        let mut req = get("/metrics");
        req.headers.push(("accept".into(), "application/openmetrics-text".into()));
        let resp = route(&ctx, &req);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4; charset=utf-8");
        let resp = route(&ctx, &get("/metrics"));
        assert_eq!(resp.content_type, "text/plain; charset=utf-8");
        assert_eq!(route(&ctx, &get("/metrics?format=csv")).status, 400);
    }

    // ------------------------------------------------------ tune jobs

    /// Routes `req` against an Arc-bound context, the way a real server
    /// serves it (tune submission upgrades the weak self-reference).
    fn bound_ctx() -> Arc<Ctx> {
        let ctx = Arc::new(test_ctx());
        ctx.bind_self();
        ctx
    }

    fn delete(path: &str) -> Request {
        let mut req = get(path);
        req.method = "DELETE".into();
        req
    }

    /// Polls `GET /v1/tune/<id>` until the job leaves `running`.
    fn poll_done(ctx: &Ctx, id: u64) -> json::Value {
        for _ in 0..500 {
            let resp = route(ctx, &get(&format!("/v1/tune/{id}")));
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            if doc.get("status").unwrap().as_str() != Some("running") {
                return doc;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("tune job {id} never finished");
    }

    #[test]
    fn tune_job_lifecycle_submit_poll_result() {
        let ctx = bound_ctx();
        let resp = route(&ctx, &post("/v1/tune", "application/json", r#"{"seed": 7}"#));
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("running"));

        let done = poll_done(&ctx, 1);
        assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
        let report = done.get("report").unwrap();
        assert_eq!(report.get("seed").unwrap().as_u64(), Some(7));
        assert!(report.get("thresholds").unwrap().as_str().is_some());
        assert!(done.get("installed").is_none(), "install was not requested");

        // The job is surfaced by /healthz and counted in /metrics.
        let health = route(&ctx, &get("/healthz"));
        let hdoc = json::parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
        let tune = hdoc.get("tune").unwrap();
        assert_eq!(tune.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(tune.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(ctx.metrics.counter("serve.events.tune_started").get(), 1);
        assert_eq!(ctx.metrics.counter("serve.events.tune_finished").get(), 1);
        assert_eq!(ctx.metrics.counter("serve.events.tune_cancelled").get(), 0);

        // Unknown ids and non-numeric ids answer 404.
        assert_eq!(route(&ctx, &get("/v1/tune/99")).status, 404);
        assert_eq!(route(&ctx, &get("/v1/tune/abc")).status, 404);
        // Wrong methods: 405 on the collection and on a job id.
        assert_eq!(route(&ctx, &get("/v1/tune")).status, 405);
        let mut put = get("/v1/tune/1");
        put.method = "PUT".into();
        assert_eq!(route(&ctx, &put).status, 405);
    }

    #[test]
    fn tune_install_swaps_the_served_model() {
        let ctx = bound_ctx();
        let resp = route(
            &ctx,
            &post("/v1/tune", "application/json", r#"{"seed": 3, "install": true}"#),
        );
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let done = poll_done(&ctx, 1);
        assert_eq!(done.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(done.get("installed").unwrap().as_bool(), Some(true), "{done:?}");
        // The install went through the hot-swap path: provenance and the
        // swap counter both show it.
        assert_eq!(ctx.info().source, "tune job 1");
        assert_eq!(ctx.metrics.counter("serve.swaps").get(), 1);
        // The served thresholds are the tuned set.
        let tuned_text = done.get("report").unwrap().get("thresholds").unwrap();
        let engine = ctx.lock_engine();
        let served = engine.sigma().to_text(engine.schema());
        assert_eq!(Some(served.as_str()), tuned_text.as_str());
    }

    #[test]
    fn tune_submit_is_single_flight_and_delete_cancels() {
        let ctx = bound_ctx();
        // Park a synthetic running job so the timing is deterministic.
        let budget = Budget::unlimited();
        let worker = budget.clone();
        let id = ctx
            .jobs()
            .submit(budget, move |_, state| {
                std::thread::spawn(move || {
                    while !worker.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    state.finish(JobStatus::Cancelled, "{\"status\":\"cancelled\"}".into());
                })
            })
            .unwrap();

        let resp = route(&ctx, &post("/v1/tune", "application/json", ""));
        assert_eq!(resp.status, 409, "{}", String::from_utf8_lossy(&resp.body));
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(id));

        // DELETE delivers the cancel; the worker lands a terminal state.
        let resp = route(&ctx, &delete(&format!("/v1/tune/{id}")));
        assert_eq!(resp.status, 202);
        ctx.jobs().shutdown();
        let resp = route(&ctx, &delete(&format!("/v1/tune/{id}")));
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("cancelled"));
        assert_eq!(route(&ctx, &delete("/v1/tune/99")).status, 404);
    }

    #[test]
    fn tune_rejects_bad_params_and_unbound_contexts() {
        let ctx = bound_ctx();
        for body in [
            r#"{"seed": -1}"#,
            r#"{"rate": 0}"#,
            r#"{"rate": 1.5}"#,
            r#"{"max_iters": 0}"#,
            r#"{"target_f1": 0}"#,
            r#"{"step": 0}"#,
            r#"{"install": "yes"}"#,
            r#"{"bogus": 1}"#,
            r#"[1]"#,
            "not json",
        ] {
            let resp = route(&ctx, &post("/v1/tune", "application/json", body));
            assert_eq!(resp.status, 400, "{body}: {}", String::from_utf8_lossy(&resp.body));
        }
        // Without a bound Arc there is nothing to own the worker thread.
        let unbound = test_ctx();
        assert_eq!(route(&unbound, &post("/v1/tune", "application/json", "")).status, 503);
    }
}
