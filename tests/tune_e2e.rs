//! End-to-end exercise of the threshold-tuning subsystem: the library
//! loop on a real dataset, CLI byte-identity across parallelism, and
//! the `/v1/tune` async job over live loopback sockets.
//!
//! What must hold:
//!
//! - Tuning on the Restaurant sample *improves* held-out F1 — the loop
//!   is not just terminating, it is finding better thresholds.
//! - A fixed `--seed` produces byte-identical tuned thresholds across
//!   repeat runs and every `--parallelism` setting.
//! - The job protocol works over raw sockets: submit → poll → result,
//!   concurrent submit → 409, DELETE mid-run → cancelled partial
//!   report, and a drain (stop flag, as SIGTERM wires it) leaves the
//!   flight event log schema-valid with paired start/terminal events.
//! - A model installed by the job's `install` step serves bit-identical
//!   `/v1/impute` answers to an engine prepared directly from the same
//!   tuned thresholds (differential test).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use renuver::core::{Engine, RenuverConfig};
use renuver::data::csv;
use renuver::obs::{json, EventLog};
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::{Constraint, Rfd, RfdSet};
use renuver::serve::{
    artifact, Ctx, DurabilityOptions, FlightOptions, JobStatus, ModelInfo, Registry, ServeConfig,
    Server,
};
use renuver::tune::{tune, TuneConfig};

// ------------------------------------------------------------ fixtures

/// Twin fixture: every row has a twin whose name differs by exactly two
/// edits (" 2" suffix) and shares its Zip. At the discovered threshold
/// (0) a masked Zip has no donor; widening Name to 2 recovers it from
/// the twin — so tuning has a real, deterministic gradient to climb.
fn twin_csv(pairs: usize) -> String {
    let mut text = String::from("Name:text,Zip:text\n");
    for i in 0..pairs {
        let c = char::from(b'a' + (i % 26) as u8);
        let base = String::from(c).repeat(8);
        text.push_str(&format!("{base},z-{i:02}\n{base} 2,z-{i:02}\n"));
    }
    text
}

fn twin_engine(pairs: usize) -> Engine {
    let rel = csv::read_str(&twin_csv(pairs)).unwrap();
    let rfds =
        RfdSet::from_vec(vec![Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0))]);
    Engine::prepare(rel, rfds, RenuverConfig::default())
}

/// Slow fixture: names are pairwise far apart (distance >= 4), so a
/// tune run at a tiny `step` widens for thousands of iterations without
/// ever reaching its target — a long-running job we can cancel or
/// drain mid-flight with no timing luck involved.
fn slow_engine() -> Engine {
    let mut text = String::from("Name:text,Zip:text\n");
    for i in 0..300 {
        let c1 = char::from(b'a' + (i % 26) as u8);
        let c2 = char::from(b'a' + ((i / 26) % 26) as u8);
        let name = format!("{}{}", String::from(c1).repeat(4), String::from(c2).repeat(4));
        text.push_str(&format!("{name},z{i:03}\n"));
    }
    let rel = csv::read_str(&text).unwrap();
    let rfds =
        RfdSet::from_vec(vec![Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0))]);
    Engine::prepare(rel, rfds, RenuverConfig::default())
}

const SLOW_BODY: &str = r#"{"seed": 1, "rate": 0.5, "max_iters": 3000, "step": 0.001}"#;

// ------------------------------------------------------------- harness

type Running = (SocketAddr, Arc<Ctx>, Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<u64>);

fn info(schema: &renuver::data::Schema) -> ModelInfo {
    ModelInfo {
        source: "tune-e2e".into(),
        schema_fingerprint: renuver::serve::artifact::schema_fingerprint(schema),
        artifact_bytes: 0,
    }
}

fn start(engine: Engine, opts: FlightOptions) -> Running {
    let info = info(engine.schema());
    let mut ctx = Ctx::new(engine, info, None, 60_000);
    ctx.set_flight(opts);
    serve(ctx)
}

/// A durable registry over `model` (laid out beside it on first open,
/// recovered from that layout afterwards).
fn open_durable(model: &std::path::Path) -> Registry {
    let opts = DurabilityOptions::beside(model, "tune-e2e");
    Registry::open_durable(
        artifact::load(model).unwrap(),
        RenuverConfig::default(),
        1,
        opts.layout,
        "tune-e2e",
        opts.compact_bytes,
        opts.compact_records,
    )
    .unwrap()
    .0
}

fn serve(ctx: Ctx) -> Running {
    let ctx = Arc::new(ctx);
    let config = ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
    let server = Server::bind(config, Arc::clone(&ctx)).unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, ctx, stop, handle)
}

/// One raw request on a fresh connection → (status, headers + body).
fn request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw).unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
        .parse()
        .unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    (status, rest)
}

fn body_of(rest: &str) -> &str {
    rest.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or(rest)
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n").into_bytes()
}

fn delete(path: &str) -> Vec<u8> {
    format!("DELETE {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Polls `GET /v1/tune/<id>` until the job reports a terminal status;
/// returns the final body.
fn poll_terminal(addr: SocketAddr, id: u64) -> String {
    for _ in 0..2000 {
        let (status, rest) = request(addr, &get(&format!("/v1/tune/{id}")));
        assert_eq!(status, 200, "{rest}");
        let body = body_of(&rest);
        if !body.contains("\"status\":\"running\"") {
            return body.to_string();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("tune job {id} never reached a terminal status");
}

fn submitted_id(rest: &str) -> u64 {
    let doc = json::parse(body_of(rest)).unwrap();
    doc.get("id").unwrap().as_u64().unwrap()
}

// --------------------------------------------------------------- tests

/// The tune loop finds better thresholds than discovery froze in: on
/// the Restaurant sample (fuzzy duplicates with typo'd names and
/// addresses), held-out F1 strictly improves over the baseline.
#[test]
fn tuning_improves_heldout_f1_on_the_restaurant_sample() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/restaurant_sample.csv");
    let rel = csv::read_path(path).unwrap();
    let rfds = discover(&rel, &DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(3.0) });
    assert!(!rfds.is_empty(), "discovery found nothing to tune");

    let report = tune(&rel, &rfds, &TuneConfig { seed: 42, max_iters: 4, ..TuneConfig::default() });

    assert!(report.masked > 0);
    assert!(!report.partial);
    assert!(
        report.best_f1 > report.baseline.f1,
        "tuning did not improve held-out F1: baseline {:.3}, best {:.3}",
        report.baseline.f1,
        report.best_f1
    );
    // The winning thresholds differ from the input set — the gain came
    // from actual threshold moves, not scoring noise.
    assert_ne!(report.tuned.to_text(rel.schema()), rfds.to_text(rel.schema()));
}

/// Satellite 1: a fixed `--seed` makes the whole CLI run — masking,
/// iteration, final thresholds — byte-identical across repeat runs and
/// every `--parallelism` setting.
#[test]
fn fixed_seed_tune_is_byte_identical_across_runs_and_parallelism() {
    let dir = std::env::temp_dir().join(format!("renuver-tune-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("twins.csv");
    std::fs::write(&data, twin_csv(8)).unwrap();
    let rfds = dir.join("rfds.txt");
    std::fs::write(&rfds, "Name(\u{2264}0) \u{2192} Zip(\u{2264}0)\n").unwrap();

    let run = |tag: &str, extra: &[&str]| {
        let out = dir.join(format!("tuned-{tag}.txt"));
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_renuver"))
            .arg("tune")
            .arg(&data)
            .args(["--rfds", rfds.to_str().unwrap(), "--seed", "7", "--iterations", "6"])
            .args(extra)
            .args(["--out", out.to_str().unwrap()])
            .status()
            .unwrap();
        assert!(status.success(), "tune run {tag} failed");
        std::fs::read(&out).unwrap()
    };

    let serial = run("p1", &["--parallelism", "1"]);
    let two = run("p2", &["--parallelism", "2"]);
    let all_cores = run("p0", &[]);
    let repeat = run("p1-again", &["--parallelism", "1"]);
    assert!(!serial.is_empty());
    assert_eq!(serial, two, "parallelism 2 changed the tuned thresholds");
    assert_eq!(serial, all_cores, "default parallelism changed the tuned thresholds");
    assert_eq!(serial, repeat, "repeat run with the same seed diverged");
    // Sanity: the tuned set really moved off the input thresholds.
    assert_ne!(serial, std::fs::read(&rfds).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The happy-path job protocol over raw sockets: POST → 202 with an
/// id, GET polls through `running` to the final report, the job shows
/// up in `/healthz` and the metrics registry, and unknown ids are 404.
#[test]
fn tune_job_submit_poll_result_over_sockets() {
    let (addr, _ctx, stop, handle) = start(twin_engine(8), FlightOptions::default());

    let (status, rest) = request(addr, &post("/v1/tune", r#"{"seed": 3, "max_iters": 6}"#));
    assert_eq!(status, 202, "{rest}");
    let id = submitted_id(&rest);
    assert_eq!(id, 1);

    let body = poll_terminal(addr, id);
    assert!(body.contains("\"status\":\"done\""), "{body}");
    let doc = json::parse(&body).unwrap();
    let report = doc.get("report").unwrap();
    assert_eq!(report.get("partial").unwrap().as_bool(), Some(false));
    let thresholds = report.get("thresholds").unwrap().as_str().unwrap();
    assert!(thresholds.contains("\u{2192} Zip(\u{2264}0)"), "{thresholds}");
    // The twin fixture needs Name widened to 2 to see the donors.
    assert!(thresholds.contains("Name(\u{2264}2)"), "{thresholds}");

    // The finished job stays visible: /healthz and the counters.
    let (status, rest) = request(addr, &get("/healthz"));
    assert_eq!(status, 200);
    assert!(body_of(&rest).contains("\"tune\":{\"id\":1,\"status\":\"done\""), "{rest}");
    let (status, rest) = request(addr, &get("/metrics"));
    assert_eq!(status, 200);
    let metrics = body_of(&rest).to_string();
    let metric = |name: &str| {
        metrics
            .lines()
            .find_map(|l| {
                let mut it = l.split_whitespace();
                (it.next() == Some(name)).then(|| it.next().unwrap().parse::<u64>().unwrap())
            })
            .unwrap_or_else(|| panic!("metric {name} not in:\n{metrics}"))
    };
    assert_eq!(metric("serve.events.tune_started"), 1);
    assert_eq!(metric("serve.events.tune_finished"), 1);

    let (status, _) = request(addr, &get("/v1/tune/99"));
    assert_eq!(status, 404);
    let (status, _) = request(addr, &get("/v1/tune/banana"));
    assert_eq!(status, 404);

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

/// Single-flight and cancellation: while a long tune runs, a second
/// submit is refused with 409 naming the running job; DELETE answers
/// `cancelling` and the job lands on a `cancelled` *partial* report;
/// after that the slot is free for the next submit.
#[test]
fn concurrent_submit_conflicts_and_delete_cancels_mid_run() {
    let (addr, ctx, stop, handle) = start(slow_engine(), FlightOptions::default());

    let (status, rest) = request(addr, &post("/v1/tune", SLOW_BODY));
    assert_eq!(status, 202, "{rest}");
    let id = submitted_id(&rest);

    // Second submit while the first is running: refused, with the id.
    let (status, rest) = request(addr, &post("/v1/tune", "{}"));
    assert_eq!(status, 409, "{rest}");
    assert!(body_of(&rest).contains(&format!("tune job {id} is already running")), "{rest}");

    // Cancel mid-run.
    let (status, rest) = request(addr, &delete(&format!("/v1/tune/{id}")));
    assert_eq!(status, 202, "{rest}");
    assert!(body_of(&rest).contains("\"status\":\"cancelling\""), "{rest}");

    let body = poll_terminal(addr, id);
    assert!(body.contains("\"status\":\"cancelled\""), "{body}");
    let doc = json::parse(&body).unwrap();
    let report = doc.get("report").unwrap();
    assert_eq!(report.get("partial").unwrap().as_bool(), Some(true));
    assert_eq!(report.get("stop").unwrap().as_str(), Some("cancelled"));

    // DELETE on a terminal job reports its resting status, 200.
    let (status, rest) = request(addr, &delete(&format!("/v1/tune/{id}")));
    assert_eq!(status, 200, "{rest}");
    assert!(body_of(&rest).contains("\"status\":\"cancelled\""), "{rest}");

    // The slot is free again: the next submit gets a fresh id.
    let (status, rest) = request(addr, &post("/v1/tune", SLOW_BODY));
    assert_eq!(status, 202, "{rest}");
    let next = submitted_id(&rest);
    assert_eq!(next, id + 1);
    assert_eq!(ctx.jobs().cancel(next).unwrap(), JobStatus::Running);
    poll_terminal(addr, next);

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

/// Drain (the stop flag, as the SIGTERM handler wires it) while a tune
/// job is mid-run: the server joins cleanly, the job reaches a
/// terminal status, and the flight event log is schema-valid with the
/// start event paired to exactly one terminal event.
#[test]
fn drain_mid_tune_leaves_the_job_log_consistent() {
    let dir = std::env::temp_dir().join(format!("renuver-tune-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("events.jsonl");
    let (addr, ctx, stop, handle) = start(
        slow_engine(),
        FlightOptions { log: Some(EventLog::create(&log_path).unwrap()), ..FlightOptions::default() },
    );

    let (status, rest) = request(addr, &post("/v1/tune", SLOW_BODY));
    assert_eq!(status, 202, "{rest}");
    // Let the worker actually enter the loop before pulling the plug.
    std::thread::sleep(Duration::from_millis(30));

    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread panicked");

    // The drain joined the tune worker: the job is terminal, not lost.
    let (_, job_status, _) = ctx.jobs().snapshot().unwrap();
    assert_ne!(job_status, JobStatus::Running, "drain left the tune job running");

    // Every line of the log validates against the closed schema, and
    // the tune lifecycle is fully recorded: one started event, one
    // terminal event.
    let text = std::fs::read_to_string(&log_path).unwrap();
    renuver::obs::schema::validate_trace(&text)
        .unwrap_or_else(|(line, why)| panic!("log line {line} invalid: {why}"));
    let events = |name: &str| {
        text.lines()
            .filter(|l| {
                l.contains("\"kind\":\"server_event\"")
                    && l.contains(&format!("\"event\":\"{name}\""))
            })
            .count()
    };
    assert_eq!(events("tune_started"), 1, "{text}");
    assert_eq!(events("tune_finished") + events("tune_cancelled"), 1, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Differential acceptance test: a model installed by the tune job's
/// `install` step serves bit-identical `/v1/impute` answers to an
/// engine prepared directly from the same tuned thresholds — on an
/// in-memory server and on a durable one, which must still serve the
/// tuned RFDs after a restart.
#[test]
fn job_installed_model_serves_bit_identical_answers() {
    let dir = std::env::temp_dir().join(format!("renuver-tune-install-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.rnv");
    std::fs::write(&model, artifact::encode_engine(&twin_engine(8), "tune-e2e", 0)).unwrap();

    for durable in [false, true] {
        let running = if durable {
            let registry = open_durable(&model);
            let info = info(registry.schema());
            serve(Ctx::new_sharded(registry, info, None, 60_000))
        } else {
            start(twin_engine(8), FlightOptions::default())
        };
        let (addr, ctx, stop, handle) = running;

        let (status, rest) =
            request(addr, &post("/v1/tune", r#"{"seed": 3, "max_iters": 6, "install": true}"#));
        assert_eq!(status, 202, "{rest}");
        let body = poll_terminal(addr, submitted_id(&rest));
        assert!(body.contains("\"installed\":true"), "{body}");
        assert_eq!(ctx.info().source, "tune job 1");

        // Rebuild the tuned model by hand from the report's thresholds.
        let doc = json::parse(&body).unwrap();
        let thresholds =
            doc.get("report").unwrap().get("thresholds").unwrap().as_str().unwrap().to_string();
        let rel = csv::read_str(&twin_csv(8)).unwrap();
        let tuned = RfdSet::from_text(&thresholds, rel.schema()).unwrap();
        let direct = Engine::prepare(rel, tuned, RenuverConfig::default());
        let (addr2, _ctx2, stop2, handle2) = start(direct, FlightOptions::default());

        // "aaaaaaaa 3" is distance 1 from the twin "aaaaaaaa 2": invisible
        // at the original threshold 0, a donor match at the tuned width.
        let impute = r#"{"tuples": [["aaaaaaaa 3", null], ["bbbbbbbb", null], ["unrelated", null]]}"#;
        let (s1, r1) = request(addr, &post("/v1/impute", impute));
        let (s2, r2) = request(addr2, &post("/v1/impute", impute));
        assert_eq!((s1, s2), (200, 200), "{r1}\n{r2}");
        let (b1, b2) = (body_of(&r1), body_of(&r2));
        assert_eq!(b1, b2, "installed and directly-prepared models diverge (durable={durable})");
        // And the answer is the *tuned* behaviour: the twin's zip fills in.
        assert!(b1.contains("\"z-00\""), "{b1}");

        stop.store(true, Ordering::Relaxed);
        stop2.store(true, Ordering::Relaxed);
        handle.join().unwrap();
        handle2.join().unwrap();

        if durable {
            // The install went through the swap's durable generation: a
            // restart from the layout serves the tuned thresholds.
            drop(ctx);
            let reopened = open_durable(&model);
            let engine = reopened.lock_engine();
            assert_eq!(engine.sigma().to_text(engine.schema()), thresholds);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch ingested while an installing tune job runs is kept: the
/// install prepares the live relation under the tuned thresholds, so
/// the batch is served after it and still there after a restart.
#[test]
fn ingest_during_an_installing_tune_is_kept() {
    let dir = std::env::temp_dir().join(format!("renuver-tune-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.rnv");
    std::fs::write(&model, artifact::encode_engine(&slow_engine(), "tune-e2e", 0)).unwrap();
    let registry = open_durable(&model);
    let info = info(registry.schema());
    let (addr, ctx, stop, handle) = serve(Ctx::new_sharded(registry, info, None, 60_000));

    // About 3,000 × 0.8 ms: the job is still running when the ingest
    // lands. Widths stay below the names' distance of 4, so it never
    // converges early.
    let body = r#"{"seed": 1, "rate": 0.5, "max_iters": 3000, "step": 0.001, "install": true}"#;
    let (status, rest) = request(addr, &post("/v1/tune", body));
    assert_eq!(status, 202, "{rest}");
    let id = submitted_id(&rest);
    // An iteration has run, so the job has taken its relation snapshot.
    while ctx.jobs().snapshot().map_or(0, |(_, _, iters)| iters) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, rest) = request(addr, &post("/v1/ingest", r#"{"tuples": [["qqqqwwww", "z999"]]}"#));
    assert_eq!(status, 200, "{rest}");
    assert_eq!(ctx.jobs().snapshot().unwrap().1, JobStatus::Running, "the job finished first");

    let body = poll_terminal(addr, id);
    assert!(body.contains("\"installed\":true,\"seq\":1"), "{body}");
    assert_eq!(ctx.registry().snapshot().rows(), 301, "the install dropped the ingested batch");
    let thresholds = {
        let engine = ctx.lock_engine();
        engine.sigma().to_text(engine.schema())
    };
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    drop(ctx);

    let reopened = open_durable(&model);
    assert_eq!((reopened.seq(), reopened.snapshot().rows()), (1, 301));
    let engine = reopened.lock_engine();
    assert_eq!(engine.sigma().to_text(engine.schema()), thresholds);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
