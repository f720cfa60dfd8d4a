//! `serve-read` and `serve-write`: the HTTP server under closed-loop load.
//!
//! Both serve a model prepared from the first 5,000 rows of a seeded
//! Restaurant relation, and post held-out tuples with seeded holes.
//!
//! - `serve-read`: `renuver serve model.rnv` (the default single-engine
//!   topology), two keep-alive connections pulling from one op list of
//!   `/v1/impute` requests. Most carry one tuple; every tenth carries four
//!   whose holes share an attribute, so batch verification has work to
//!   share. Per-request `core` work (mostly the key-RFD re-check)
//!   dominates; discovery and the oracle build happen only in set-up.
//! - `serve-write`: `renuver serve model.rnv --shards 2 --wal` with a low
//!   compaction threshold. One connection posts small `/v1/ingest`
//!   batches back to back, the other posts `/v1/impute` requests. It
//!   exercises the sharded registry, per-shard WAL fsync, snapshot
//!   publish and compaction, which `serve-read` never touches.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use renuver_core::{IndexMode, RenuverConfig};
use renuver_data::{csv, AttrType, Relation, Tuple};
use renuver_datasets::restaurant;
use renuver_distance::oracle::OracleStats;
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_obs::{Metrics, Tracer};
use renuver_rfd::discovery::{discover_outcome, DiscoveryConfig};
use renuver_serve::http::{read_request, write_response};
use renuver_serve::router::{render_batch, route};
use renuver_serve::{
    artifact, Artifact, Ctx, DurabilityOptions, ModelInfo, Registry, ShardLayout, Wal,
};

use crate::http::{self, Conn};
use crate::inputs::{self, check_answer, score_op, Op, Score, ServeData, MODEL_ROWS};
use crate::report::{fmt, Checks, Outcome};
use crate::stats::{mean, median, ratio, supported, tail, Digest};
use crate::sys::{terminate, vm_hwm_mb, HostWatch};
use crate::trace::{add_core_stats, phase_ms, set_core_counts, spans_path, Clock, Recorder, Sums};
use crate::{arg, Run};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Read,
    Write,
}

const SETUPS: usize = 3;
/// Nominal ops per second of `--seconds` on the 2-core reference VM.
const READS_PER_SECOND: f64 = 60.0;
const WRITER_WRITES_PER_SECOND: f64 = 5.0;
const WRITER_READS_PER_SECOND: f64 = 8.5;
/// Every `BATCH_EVERY`-th serve-read request carries `BATCH_TUPLES`.
const BATCH_EVERY: usize = 10;
const BATCH_TUPLES: usize = 4;
/// Tuples per ingest batch.
const WRITE_TUPLES: usize = 2;
const SHARDS: usize = 2;
/// Compactions per serve-write run the WAL threshold is sized for.
const COMPACTIONS: usize = 4;
/// The server's default body limit (`--max-body-mb 4`).
const MAX_BODY: usize = 4 * 1024 * 1024;
const SALT_READS: u64 = 0x5EAD;
/// serve-read takes the keys/cells phase split from every fourth request.
const PHASE_EVERY: usize = 4;
const SALT_WRITES: u64 = 0x3717;
/// The traced run replays the first `1 / REPLAY_PART` of the op list,
/// which holds every attribute, batch size and write in proportion.
const REPLAY_PART: usize = 2;

/// The generated op lists: `reads` go to `/v1/impute`, `writes` to
/// `/v1/ingest` (serve-write only).
struct Ops {
    reads: Vec<Op>,
    writes: Vec<Op>,
}

fn ops(run: &Run, mode: Mode, data: &ServeData) -> Ops {
    let mut rng = inputs::rng(run.seed, SALT_READS);
    let start = rng.below(data.model.arity());
    match mode {
        Mode::Read => {
            let n = run.ops(READS_PER_SECOND, 20);
            // Singles and batches each take the attributes in turn, so
            // both hold every attribute in the same proportion.
            let reads = (0..n)
                .map(|i| {
                    let batches = i / BATCH_EVERY;
                    if i % BATCH_EVERY == BATCH_EVERY - 1 {
                        data.op("/v1/impute", &mut rng, BATCH_TUPLES, start + batches, true)
                    } else {
                        data.op("/v1/impute", &mut rng, 1, start + i - batches, false)
                    }
                })
                .collect();
            Ops {
                reads,
                writes: Vec::new(),
            }
        }
        Mode::Write => {
            let reads = (0..run.ops(WRITER_READS_PER_SECOND, 10))
                .map(|i| data.op("/v1/impute", &mut rng, 1, start + i, false))
                .collect();
            let mut wrng = inputs::rng(run.seed, SALT_WRITES);
            let writes = (0..run.ops(WRITER_WRITES_PER_SECOND, 8))
                .map(|i| {
                    data.op(
                        "/v1/ingest",
                        &mut wrng,
                        WRITE_TUPLES,
                        start + i * WRITE_TUPLES,
                        false,
                    )
                })
                .collect();
            Ops { reads, writes }
        }
    }
}

fn compact_records(ops: &Ops) -> usize {
    (ops.writes.len() / (COMPACTIONS + 1)).max(2)
}

/// A running `renuver serve`.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts the server on an ephemeral port and waits for its ready line.
    fn start(run: &Run, model: &Path, mode: Mode, ops: &Ops) -> Result<Server, String> {
        let (shards, records) = (SHARDS.to_string(), compact_records(ops).to_string());
        let mut args = vec!["serve", arg(model), "--addr", "127.0.0.1:0"];
        if mode == Mode::Write {
            args.extend(["--shards", &shards, "--wal", "--compact-records", &records]);
        }
        let log = std::fs::File::create(model.with_extension("log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(&run.renuver)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning renuver serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut addr = None;
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err("renuver serve exited before it was ready".into());
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
            }
            if line.starts_with("ready state=ok") {
                break;
            }
        }
        let addr = addr.ok_or("no listening line before the ready line")?;
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    /// SIGTERM and wait for the graceful drain; `Ok` when it exited 0
    /// after logging `shutdown complete`.
    fn stop(mut self) -> Result<(), String> {
        let status =
            terminate(&mut self.child, Duration::from_secs(20)).map_err(|e| e.to_string())?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if status.success() && rest.contains("shutdown complete") {
            Ok(())
        } else {
            Err(format!("server shutdown: {status}"))
        }
    }
}

impl Drop for Server {
    /// A server still running here (a run that ends early on an error)
    /// is stopped and reaped, so no run leaves a process behind.
    fn drop(&mut self) {
        let _ = terminate(&mut self.child, Duration::from_secs(5));
    }
}

/// One finished request, from send to the last response byte.
struct Sample {
    op: usize,
    ms: f64,
    status: u16,
    body: Vec<u8>,
}

/// A closed-loop client: one keep-alive connection taking the next op of
/// `ops` from `cursor` until the list is done. Returns its samples and
/// its turnaround gaps (response received to next request sent), the
/// load generator's own lateness.
fn client(addr: &str, ops: &[Op], cursor: &AtomicUsize) -> (Vec<Sample>, Vec<f64>) {
    let mut samples = Vec::new();
    let mut gaps = Vec::new();
    let mut conn = Conn::connect(addr);
    let mut last: Option<Instant> = None;
    loop {
        let op = cursor.fetch_add(1, Ordering::Relaxed);
        if op >= ops.len() {
            break;
        }
        if let Some(t) = last {
            gaps.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        let result = match conn.as_mut() {
            Ok(c) => c.exchange(&ops[op].bytes),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        last = Some(Instant::now());
        match result {
            Ok((status, body)) => samples.push(Sample {
                op,
                ms,
                status,
                body,
            }),
            Err(e) => {
                samples.push(Sample {
                    op,
                    ms,
                    status: 0,
                    body: e.to_string().into_bytes(),
                });
                conn = Conn::connect(addr);
            }
        }
    }
    (samples, gaps)
}

/// Checks one response; returns the answered tuples when it passed.
fn check(op: &Op, s: &Sample, schema: &renuver_data::Schema) -> Result<Vec<Tuple>, String> {
    if s.status != 200 {
        return Err(format!(
            "op {}: status {} {}",
            s.op,
            s.status,
            String::from_utf8_lossy(&s.body)
                .chars()
                .take(160)
                .collect::<String>()
        ));
    }
    let answer = inputs::answer(schema, &s.body).map_err(|e| format!("op {}: {e}", s.op))?;
    check_answer(&op.tuples, &answer).map_err(|e| format!("op {}: {e}", s.op))?;
    Ok(answer)
}

/// The ingest envelope's `seq` and `committed_rows`.
fn ingest_fields(body: &[u8]) -> Option<(u64, u64)> {
    let doc = renuver_obs::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some((
        doc.get("seq")?.as_u64()?,
        doc.get("committed_rows")?.as_u64()?,
    ))
}

/// A counter value from the server's `/metrics` table.
fn metric(addr: &str, name: &str) -> Option<f64> {
    let (status, body) = Conn::connect(addr)
        .ok()?
        .exchange(&http::get("/metrics"))
        .ok()?;
    if status != 200 {
        return None;
    }
    String::from_utf8_lossy(&body).lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(name))
            .then(|| f.next()?.parse().ok())
            .flatten()
    })
}

/// Writes the model CSV and runs `renuver prepare` into `dir`.
fn prepare(run: &Run, data: &ServeData, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let csv_path = dir.join("model.csv");
    csv::write_path(&data.model, &csv_path).map_err(|e| e.to_string())?;
    let model = dir.join("model.rnv");
    let out = run.renuver(&["prepare", arg(&csv_path), "-o", arg(&model), "--limit", "3"])?;
    if !out.status.success() {
        return Err(format!(
            "renuver prepare failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(model)
}

pub fn run(run: &Run, mode: Mode) -> Result<Outcome, String> {
    // Set-up: generate the model and request bodies, prepare the model,
    // start the server and wait until it is ready. Repeated (earlier
    // servers stopped) and the median reported, so set-up time is steady.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for k in 0..if run.trace { 1 } else { SETUPS } {
        let t = if k == 0 { run.started } else { Instant::now() };
        let data = ServeData::restaurant();
        let ops = ops(run, mode, &data);
        let dir = run.path(&format!("setup{k}"));
        let model = prepare(run, &data, &dir)?;
        let server = Server::start(run, &model, mode, &ops)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, _, _, old)) = ready.replace((data, ops, model, server)) {
            old.stop()?;
        }
    }
    let (data, ops, model, server) = ready.expect("at least one set-up ran");
    let schema = data.model.schema().clone();

    // Timed phase: two closed-loop connections.
    let (reads_cursor, writes_cursor) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let host = HostWatch::start();
    let t0 = Instant::now();
    // serve-read: both connections share the read list. serve-write: this
    // thread is the writer, the other the reader.
    let ((a, a_gaps), (b, b_gaps)) = std::thread::scope(|s| {
        let other = s.spawn(|| client(&server.addr, &ops.reads, &reads_cursor));
        let mine = match mode {
            Mode::Read => client(&server.addr, &ops.reads, &reads_cursor),
            Mode::Write => client(&server.addr, &ops.writes, &writes_cursor),
        };
        (mine, other.join().expect("client thread panicked"))
    });
    let wall = t0.elapsed().as_secs_f64();
    let gaps: Vec<f64> = a_gaps.iter().chain(&b_gaps).copied().collect();
    let host = host.stop(&gaps);
    let peak_rss = vm_hwm_mb(server.child.id()).unwrap_or(f64::NAN);
    let compactions = if mode == Mode::Write {
        metric(&server.addr, "serve.compactions")
    } else {
        None
    };

    let (mut reads, writes) = match mode {
        Mode::Read => (a.into_iter().chain(b).collect::<Vec<_>>(), Vec::new()),
        Mode::Write => (b, a),
    };
    reads.sort_by_key(|s| s.op);
    let mut checks = Checks::default();
    let mut score = Score::default();
    let mut digest = Digest::new();
    let rules = restaurant::rules();
    for s in &reads {
        let op = &ops.reads[s.op];
        match check(op, s, &schema) {
            Ok(answer) => {
                if mode == Mode::Read {
                    score_op(&mut score, &rules, &schema, op, &answer);
                    digest.record(&s.body);
                }
                checks.check(Ok(()));
            }
            Err(e) => checks.check(Err(e)),
        }
    }
    for (i, s) in writes.iter().enumerate() {
        let op = &ops.writes[s.op];
        let verdict = check(op, s, &schema).and_then(|answer| {
            score_op(&mut score, &rules, &schema, op, &answer);
            digest.record(&s.body);
            match ingest_fields(&s.body) {
                Some((seq, rows)) if seq == i as u64 + 1 && rows == WRITE_TUPLES as u64 => Ok(()),
                other => Err(format!("op {}: ingest seq/rows {other:?}", s.op)),
            }
        });
        checks.check(verdict);
    }
    if mode == Mode::Write {
        checks.check(match compactions {
            Some(n) if n >= 1.0 => Ok(()),
            other => Err(format!("no compaction ran (serve.compactions {other:?})")),
        });
    }

    let read_ms: Vec<f64> = reads.iter().map(|s| s.ms).collect();
    let write_ms: Vec<f64> = writes.iter().map(|s| s.ms).collect();
    let mut out = Outcome::new(checks);
    out.digest = Some(digest.value());
    out.set("setup_s", median(&setup_s));
    out.set("ops_per_s", (reads.len() + writes.len()) as f64 / wall);
    out.set("read_p50_ms", median(&read_ms));
    out.note(
        "read_p50_ms",
        format!("{} /v1/impute samples", read_ms.len()),
    );
    out.note(
        "read_p99_ms",
        format!("{} samples; needs 1000", read_ms.len()),
    );
    if let Some(p99) = supported(&read_ms, 99) {
        out.set("read_p99_ms", p99);
    }
    if mode == Mode::Write {
        out.set("write_p50_ms", median(&write_ms));
        out.note(
            "write_p50_ms",
            format!("{} /v1/ingest samples", write_ms.len()),
        );
        out.note(
            "write_p90_ms",
            format!("{} samples; needs 100", write_ms.len()),
        );
        if let Some(p90) = supported(&write_ms, 90) {
            out.set("write_p90_ms", p90);
        }
    }
    out.set("f1", score.f1());
    out.note("f1", format!("{} held-out cells", score.cells()));
    out.set("peak_rss_mb", peak_rss);
    match mode {
        Mode::Read => out.line(format!(
            "workload serve-read: {} /v1/impute requests (every {BATCH_EVERY}th carries \
             {BATCH_TUPLES} tuples), 2 keep-alive connections, closed loop; single-engine \
             server, model {MODEL_ROWS} Restaurant rows",
            ops.reads.len()
        )),
        Mode::Write => out.line(format!(
            "workload serve-write: {} /v1/ingest batches of {WRITE_TUPLES} on one connection, \
             {} /v1/impute requests on the other, closed loop; --shards {SHARDS} --wal \
             --compact-records {}; compactions {}",
            ops.writes.len(),
            ops.reads.len(),
            compact_records(&ops),
            compactions.map_or("n/a".to_string(), fmt)
        )),
    }
    out.line(latency_line("read", &read_ms, 99));
    if mode == Mode::Write {
        out.line(latency_line("write", &write_ms, 90));
    }
    out.line(host);

    if let Some(n) = compactions {
        out.set("serve.compactions", n);
    }
    let outcome = if run.trace {
        let e2e_ms = mean(&read_ms.iter().chain(&write_ms).copied().collect::<Vec<_>>());
        traced(run, mode, &model, &ops, &reads, &writes, e2e_ms, &mut out)
    } else {
        Ok(())
    };
    out.checks.check(server.stop());
    outcome?;
    Ok(out)
}

/// `name p50 … ms, pNN … ms (n samples)`, with the highest tail
/// percentile (at most `max_pct`) the sample supports.
fn latency_line(name: &str, ms: &[f64], max_pct: usize) -> String {
    let tail = match tail(ms, max_pct) {
        Some((p, v)) => format!(", p{p} {} ms", fmt(v)),
        None => ", no tail percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "{name} latency: p50 {} ms{tail} ({} samples)",
        fmt(median(ms)),
        ms.len()
    )
}

/// The serving engine configuration `renuver serve` derives from an
/// artifact: the artifact decides whether an index exists.
fn serve_config(art: &Artifact) -> RenuverConfig {
    let index_mode = if art.index.is_some() {
        IndexMode::Indexed
    } else {
        IndexMode::Scan
    };
    RenuverConfig {
        index_mode,
        ..RenuverConfig::default()
    }
}

fn info(model: &Path, art: &Artifact, bytes: usize) -> ModelInfo {
    ModelInfo {
        source: model.display().to_string(),
        schema_fingerprint: art.schema_fingerprint,
        artifact_bytes: bytes,
    }
}

/// One request through the server's own layers, in-process:
/// `read_request` → `route` → `write_response`. Returns status and body.
fn replay(ctx: &Ctx, bytes: &[u8], clock: &mut Clock) -> Result<(u16, Vec<u8>), String> {
    let (req, _) = clock.time("serve.http_read", || {
        read_request(&mut &bytes[..], MAX_BODY)
    });
    let req = req.map_err(|e| e.to_string())?;
    let (resp, _) = clock.time("serve.route", || route(ctx, &req));
    let mut wire = Vec::with_capacity(resp.body.len() + 256);
    let (written, _) = clock.time("serve.http_write", || {
        write_response(&mut wire, &resp, false)
    });
    written.map_err(|e| e.to_string())?;
    Ok((resp.status, resp.body))
}

/// A durable sharded registry over a fresh decode of `bytes`, laid out in
/// `dir`, with the serve-write compaction threshold.
fn durable(bytes: &[u8], dir: &Path, records: usize) -> Result<Registry, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let art = artifact::decode(bytes).map_err(|e| e.to_string())?;
    let config = serve_config(&art);
    let base = dir.join("model.rnv");
    let opts = DurabilityOptions::beside(&base, &art.source);
    let source = art.source.clone();
    Registry::open_durable(
        art,
        config,
        SHARDS,
        ShardLayout::beside(&base),
        &source,
        opts.compact_bytes,
        records as u64,
    )
    .map(|(reg, _)| reg)
    .map_err(|e| e.to_string())
}

/// serve-write's in-process op order: each write followed by its share
/// of the reads, as `(is_write, index)`.
fn interleaved(writes: usize, reads: usize) -> Vec<(bool, usize)> {
    let mut order = Vec::with_capacity(writes + reads);
    for w in 0..writes {
        order.push((true, w));
        order.extend((reads * w / writes..reads * (w + 1) / writes).map(|r| (false, r)));
    }
    order
}

/// The server's response body for op `op`, from the timed phase.
fn body_of(samples: &[Sample], op: usize) -> Option<&Vec<u8>> {
    samples.iter().find(|s| s.op == op).map(|s| &s.body)
}

/// The traced run: set-up probes, then the same request bytes replayed
/// in-process through `read_request` → `route` → `write_response` on a
/// `Ctx` built from the same artifact, with sibling calls into `core`
/// (and, for serve-write, the registry and WAL) on the decoded tuples.
#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    mode: Mode,
    model: &Path,
    ops: &Ops,
    reads: &[Sample],
    writes: &[Sample],
    e2e_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rec = Recorder::new();
    let mut sums = Sums::default();

    // Set-up probes: what `prepare` and server start do, call by call.
    let csv_path = model.with_file_name("model.csv");
    let (rel, read_ms) = rec.probe("data.csv_read", 0, || csv::read_path(&csv_path));
    let rel: Relation = rel.map_err(|e| e.to_string())?;
    let cfg = DiscoveryConfig {
        max_lhs: 2,
        ..DiscoveryConfig::with_limit(3.0)
    };
    let (found, discover_ms) = rec.probe("rfd.discover", 0, || discover_outcome(&rel, &cfg));
    let ((_, keys), _) = rec.probe("rfd.partition_keys", 0, || found.rfds.partition_keys(&rel));
    let (oracle, oracle_ms) = rec.probe("distance.oracle_build", 0, || {
        DistanceOracle::build(&rel, DEFAULT_DICT_CAP)
    });
    let (_, index_ms) = rec.probe("distance.index_build", 0, || {
        SimilarityIndex::build(&rel, &oracle)
    });
    let bytes = std::fs::read(model).map_err(|e| e.to_string())?;
    let (art, decode_ms) = rec.probe("serve.artifact_decode", 0, || artifact::decode(&bytes));
    let mut art = art.map_err(|e| e.to_string())?;
    let model_info = info(model, &art, bytes.len());
    out.checks.check(
        if art.rfds.to_text(rel.schema()) == found.rfds.to_text(rel.schema()) {
            Ok(())
        } else {
            Err("in-process discovery differs from the prepared model's RFDs".into())
        },
    );
    let (mut matrix, mut direct_cols) = (0.0, 0.0);
    for attr in 0..rel.arity() {
        if rel.schema().ty(attr) == AttrType::Text {
            if oracle.dictionary(attr).is_some() {
                matrix += 1.0;
            } else {
                direct_cols += 1.0;
            }
        }
    }
    out.set("data.csv_read_ms", read_ms);
    out.set("data.rows", rel.len() as f64);
    out.set("rfd.discover_ms", discover_ms);
    out.set("rfd.rfds", found.rfds.len() as f64);
    out.set("rfd.key_rfds", keys.len() as f64);
    out.set("distance.oracle_build_ms", oracle_ms);
    out.set("distance.index_build_ms", index_ms);
    out.set("distance.matrix_columns", matrix);
    out.set("distance.direct_columns", direct_cols);
    out.set("serve.artifact_decode_ms", decode_ms);

    let mut mismatches = 0usize;
    let (untraced_ms, traced_first_k, requests, hits, direct) = match mode {
        Mode::Read => {
            let oracle_metrics = Metrics::new();
            art.oracle
                .set_stats(Some(OracleStats::register(&oracle_metrics)));
            let config = serve_config(&art);
            let ctx = Ctx::new(art.into_engine(config), model_info, None, 60_000);
            let replayed = &ops.reads[..ops.reads.len().div_ceil(REPLAY_PART)];
            let k = (replayed.len() / 4).max(1);
            let (mut untraced_ms, mut traced_first_k) = (0.0, 0.0);
            let traced_cfg = {
                let mut c = ctx.lock_engine().config().clone();
                c.tracer = Tracer::enabled();
                c
            };
            for (i, op) in replayed.iter().enumerate() {
                if i < k {
                    let t = Instant::now();
                    replay(&ctx, &op.bytes, &mut Clock::Off)?;
                    untraced_ms += t.elapsed().as_secs_f64() * 1e3;
                }
                let span = rec.open("serve.request", i, None);
                let (_, body) = replay(
                    &ctx,
                    &op.bytes,
                    &mut Clock::On {
                        rec: &mut rec,
                        op_span: span,
                    },
                )?;
                let ms = rec.close(span);
                if i < k {
                    traced_first_k += ms;
                }
                if body_of(reads, i) != Some(&body) {
                    mismatches += 1;
                }
                let (result, _) = rec.probe("core.impute", i, || {
                    ctx.lock_engine().impute_batch(op.tuples.clone())
                });
                let result = result.map_err(|e| e.to_string())?;
                let (rendered, _) = rec.probe("serve.render", i, || render_batch(&result, false));
                sums.add("renders", 1.0);
                if rendered.as_bytes() != body.as_slice() {
                    mismatches += 1;
                }
                add_core_stats(&mut sums, &result.stats);
                // The keys/cells split, from the phase spans of a traced
                // run of every PHASE_EVERY-th request.
                if i % PHASE_EVERY == 0 {
                    let tracer = Tracer::enabled();
                    let cfg = RenuverConfig {
                        tracer: tracer.clone(),
                        ..traced_cfg.clone()
                    };
                    let mut engine = ctx.lock_engine();
                    engine
                        .impute_batch_with(op.tuples.clone(), &cfg)
                        .map_err(|e| e.to_string())?;
                    sums.add(
                        "partition_keys",
                        phase_ms(&tracer, "core::partition_keys") * PHASE_EVERY as f64,
                    );
                    sums.add(
                        "impute_cells",
                        phase_ms(&tracer, "core::impute_cells") * PHASE_EVERY as f64,
                    );
                }
            }
            let hits = oracle_metrics.counter("oracle.matrix_hits").get() as f64;
            let direct = oracle_metrics.counter("oracle.direct_calls").get() as f64;
            (untraced_ms, traced_first_k, replayed.len(), hits, direct)
        }
        Mode::Write => {
            let records = compact_records(ops);
            let mut order = interleaved(ops.writes.len(), ops.reads.len());
            order.truncate(order.len().div_ceil(REPLAY_PART));
            let k = (order.len() / 4).max(1);

            // The one-shard registry against the plain engine on the
            // same tuples, before any write: the registry-gap baseline.
            let one = Registry::build(&art.relation, art.rfds.clone(), serve_config(&art), 1);
            let engine = artifact::decode(&bytes).map_err(|e| e.to_string())?;
            let engine_cfg = serve_config(&engine);
            let mut engine = engine.into_engine(engine_cfg);
            let (mut reg_ms, mut eng_ms) = (0.0, 0.0);
            for op in ops.reads.iter().take(20) {
                let snap = one.snapshot();
                let (a, ms_a) = rec.probe("core.registry1_impute", 0, || {
                    snap.impute(op.tuples.clone(), &snap.config)
                });
                let (b, ms_b) = rec.probe("core.engine_impute", 0, || {
                    engine.impute_batch(op.tuples.clone())
                });
                reg_ms += ms_a;
                eng_ms += ms_b;
                match (a, b) {
                    (Ok(a), Ok(b)) if a.tuples == b.tuples => {}
                    _ => mismatches += 1,
                }
            }
            out.set("core.registry1_over_engine", reg_ms / eng_ms);
            drop((one, engine));

            let untraced = durable(&bytes, &run.path("replay-untraced"), records)?;
            let untraced = Ctx::new_sharded(untraced, model_info.clone(), None, 60_000);
            let served = durable(&bytes, &run.path("replay-ctx"), records)?;
            let ctx = Ctx::new_sharded(served.clone(), model_info, None, 60_000);
            let sibling = durable(&bytes, &run.path("replay-sibling"), records)?;
            let schema_fp = art.schema_fingerprint;
            let (mut wal, _) = Wal::open(run.path("probe.wal"), schema_fp, 0, art.relation.arity())
                .map_err(|e| e.to_string())?;
            let (mut untraced_ms, mut traced_first_k) = (0.0, 0.0);
            for (n, &(is_write, i)) in order.iter().enumerate() {
                let op = if is_write {
                    &ops.writes[i]
                } else {
                    &ops.reads[i]
                };
                if n < k {
                    let t = Instant::now();
                    replay(&untraced, &op.bytes, &mut Clock::Off)?;
                    untraced_ms += t.elapsed().as_secs_f64() * 1e3;
                }
                // The view the route will impute on (for a write, the
                // state its ingest repairs the batch against).
                let snap = served.snapshot();
                let span = rec.open(
                    if is_write {
                        "serve.ingest_request"
                    } else {
                        "serve.request"
                    },
                    n,
                    None,
                );
                let (_, body) = replay(
                    &ctx,
                    &op.bytes,
                    &mut Clock::On {
                        rec: &mut rec,
                        op_span: span,
                    },
                )?;
                let ms = rec.close(span);
                if n < k {
                    traced_first_k += ms;
                }
                // Sibling calls on identical inputs: the core part of the
                // op on the same view, then (for a write, into a registry
                // kept in step with `ctx`) the whole ingest, the WAL
                // append alone, and any compaction the ingest asks for.
                let (result, impute_ms) = rec.probe("core.sharded_impute", n, || {
                    snap.impute(op.tuples.clone(), &snap.config)
                });
                let result = result.map_err(|e| e.to_string())?;
                sums.add("core", impute_ms);
                add_core_stats(&mut sums, &result.stats);
                if n % PHASE_EVERY == 0 {
                    let tracer = Tracer::enabled();
                    let cfg = RenuverConfig {
                        tracer: tracer.clone(),
                        ..snap.config.clone()
                    };
                    snap.impute(op.tuples.clone(), &cfg)
                        .map_err(|e| e.to_string())?;
                    sums.add(
                        "partition_keys",
                        phase_ms(&tracer, "core::partition_keys") * PHASE_EVERY as f64,
                    );
                    sums.add(
                        "impute_cells",
                        phase_ms(&tracer, "core::impute_cells") * PHASE_EVERY as f64,
                    );
                }
                if is_write {
                    if body_of(writes, i) != Some(&body) {
                        mismatches += 1;
                    }
                    let cfg = sibling.snapshot().config.clone();
                    let (outcome, ingest_ms) = rec.probe("serve.ingest", n, || {
                        sibling.ingest(op.tuples.clone(), &cfg)
                    });
                    let outcome = outcome.map_err(|e| e.to_string())?;
                    if outcome.batch.tuples != result.tuples {
                        mismatches += 1;
                    }
                    let before = wal.bytes();
                    let (appended, wal_ms) =
                        rec.probe("serve.wal_append", n, || wal.append(&outcome.batch.tuples));
                    appended.map_err(|e| e.to_string())?;
                    sums.add("writes", 1.0);
                    sums.add("ingest", ingest_ms);
                    sums.add("wal", wal_ms);
                    sums.add("wal_bytes", (wal.bytes() - before) as f64);
                    sums.add("wal_rows", outcome.batch.tuples.len() as f64);
                    if outcome.wants_compact {
                        let (compacted, compact_ms) =
                            rec.probe("serve.compact", n, || sibling.compact());
                        compacted.map_err(|e| e.to_string())?;
                        sums.add("compactions", 1.0);
                        sums.add("compact_ms", compact_ms);
                    }
                } else {
                    let (rendered, _) =
                        rec.probe("serve.render", n, || render_batch(&result, false));
                    sums.add("renders", 1.0);
                    if rendered.as_bytes() != body.as_slice() {
                        mismatches += 1;
                    }
                    sums.add("sharded", impute_ms);
                }
            }
            let writes = sums.get("writes");
            out.set("serve.ingest_ms", ratio(sums.get("ingest"), writes));
            out.set("serve.wal_append_ms", ratio(sums.get("wal"), writes));
            out.set(
                "serve.wal_bytes_per_row",
                ratio(sums.get("wal_bytes"), sums.get("wal_rows")),
            );
            out.set(
                "serve.compact_ms",
                ratio(sums.get("compact_ms"), sums.get("compactions")),
            );
            out.set(
                "core.sharded_impute_ms",
                ratio(sums.get("sharded"), sums.get("renders")),
            );
            // The registry has no oracle: no matrix hits or direct calls.
            (untraced_ms, traced_first_k, order.len(), 0.0, 0.0)
        }
    };
    out.checks.check(if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{mismatches} in-process replays differ from the server's answers"
        ))
    });
    let _ = rec.write_jsonl(&spans_path(run));

    let by_name = rec.self_ms_by_name();
    let n = requests as f64;
    let span = |name: &str| by_name.get(name).copied().unwrap_or(0.0) / n;
    let route_ms = span("serve.route");
    let core_ms = match mode {
        Mode::Read => span("core.impute"),
        Mode::Write => sums.get("core") / n,
    };
    let http = span("serve.http_read") + span("serve.http_write");
    let render_ms = by_name.get("serve.render").copied().unwrap_or(0.0);
    out.set("serve.http_read_us", span("serve.http_read") * 1e3);
    out.set("serve.http_write_us", span("serve.http_write") * 1e3);
    out.set("serve.route_ms", route_ms);
    out.set(
        "serve.render_us",
        ratio(render_ms, sums.get("renders")) * 1e3,
    );
    out.set("serve.self_ms", http + route_ms - core_ms);
    out.set("serve.unattributed_ms", e2e_ms - http - route_ms);
    out.set("core.impute_ms", core_ms);
    out.set("core.self_ms", core_ms);
    out.set("distance.matrix_hit_ratio", ratio(hits, hits + direct));
    set_core_counts(out, &sums, n);
    out.attribute(e2e_ms, traced_first_k, untraced_ms);
    out.layer_table(&run.workload, "per request");
    Ok(())
}
