//! Zero-downtime model swap under live traffic.
//!
//! A server takes a continuous stream of `/v1/impute` requests
//! while `PUT /v1/model` atomically replaces the serving model
//! mid-stream. What must hold:
//!
//! - **Zero dropped or mixed responses**: every client request answers
//!   `200`, and every body is entirely the old model's answer or
//!   entirely the new one's — never an error, never a blend.
//! - A swap carrying a different schema fingerprint is refused with
//!   `409` and counted under `serve.swap_rejected`; the serving model
//!   is untouched.
//! - `/metrics` reconciles exactly with the client-side tally.
//! - `SIGHUP` drives the same swap path from the model file on disk
//!   (subprocess test, unix only).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use renuver::core::{Engine, RenuverConfig};
use renuver::data::csv;
use renuver::rfd::{Constraint, Rfd, RfdSet};
use renuver::serve::{artifact, Ctx, ModelInfo, Registry, ServeConfig, Server};

/// Zip for City07 in model A is 90049; model B shifts every zip by one,
/// so City07 answers 90050. One glance at a response body tells which
/// model produced it.
fn model_relation(shift: i64) -> renuver::data::Relation {
    let mut text = String::from("City:text,Zip:text\n");
    for i in 0..50 {
        text.push_str(&format!("City{:02},9{:04}\n", i % 25, (i % 25) * 7 + shift));
    }
    csv::read_str(&text).unwrap()
}

fn model_rfds() -> RfdSet {
    RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(0, 0.0)),
    ])
}

fn start() -> (SocketAddr, Arc<Ctx>, Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<u64>) {
    let rel = model_relation(0);
    let fingerprint = artifact::schema_fingerprint(rel.schema());
    let registry = Registry::build(&rel, model_rfds(), RenuverConfig::default(), 1);
    let ctx = Arc::new(Ctx::new_sharded(
        registry,
        ModelInfo { source: "swap-e2e".into(), schema_fingerprint: fingerprint, artifact_bytes: 0 },
        None,
        60_000,
    ));
    let server = Server::bind(
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 4, ..ServeConfig::default() },
        Arc::clone(&ctx),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, ctx, stop, handle)
}

fn request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
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

fn post_impute(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/impute HTTP/1.1\r\nHost: swap\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

fn put_model(bytes: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "PUT /v1/model HTTP/1.1\r\nHost: swap\r\nContent-Type: application/octet-stream\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        bytes.len()
    )
    .into_bytes();
    raw.extend_from_slice(bytes);
    raw
}

fn metric(table: &str, name: &str) -> u64 {
    table
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name)).then(|| it.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("metric {name} not in:\n{table}"))
}

fn encoded_model(shift: i64) -> Vec<u8> {
    let engine = Engine::prepare(model_relation(shift), model_rfds(), RenuverConfig::default());
    artifact::encode_engine(&engine, "swap-e2e-b", 0)
}

#[test]
fn swap_under_load_drops_and_mixes_nothing() {
    let (addr, _ctx, stop, handle) = start();
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 30;

    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        threads.push(std::thread::spawn(move || {
            let (mut old, mut new) = (0u64, 0u64);
            for _ in 0..PER_CLIENT {
                let (status, body) = request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#));
                assert_eq!(status, 200, "request dropped mid-swap: {body}");
                assert!(body.contains("\"imputed\":1"), "{body}");
                // Exactly one model's answer, never both, never neither.
                match (body.contains("90049"), body.contains("90050")) {
                    (true, false) => old += 1,
                    (false, true) => new += 1,
                    other => panic!("mixed/empty response {other:?}: {body}"),
                }
            }
            (old, new)
        }));
    }

    // Swap to model B while the clients are mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let (status, body) = request(addr, &put_model(&encoded_model(1)));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"swapped\":true"), "{body}");

    let mut totals = (0u64, 0u64);
    for t in threads {
        let (old, new) = t.join().expect("client panicked");
        totals = (totals.0 + old, totals.1 + new);
    }
    let (old, new) = totals;
    assert_eq!(old + new, (CLIENTS * PER_CLIENT) as u64);

    // The swap is total: everything after it answers from model B.
    let (status, body) = request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#));
    assert_eq!(status, 200);
    assert!(body.contains("90050"), "post-swap request answered by the old model: {body}");

    // Exact reconciliation: every impute + the PUT answered 2xx, no
    // 4xx/5xx, one swap counted, every successful impute counted.
    let imputes = (CLIENTS * PER_CLIENT) as u64 + 1;
    let (status, table) = request(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(metric(&table, "http.responses_2xx"), imputes + 1);
    assert_eq!(metric(&table, "http.responses_4xx"), 0);
    assert_eq!(metric(&table, "http.responses_5xx"), 0);
    assert_eq!(metric(&table, "serve.swaps"), 1);
    assert_eq!(metric(&table, "serve.swap_rejected"), 0);
    assert_eq!(metric(&table, "serve.cells_imputed"), imputes);

    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread panicked");
}

#[test]
fn fingerprint_mismatch_is_rejected_409_and_model_unchanged() {
    let (addr, ctx, stop, handle) = start();

    // Same column count, different attribute names → different schema
    // fingerprint.
    let alien = csv::read_str("Name:text,Klass:text\nAda,A\nAda,A\n").unwrap();
    let rfds = RfdSet::from_vec(vec![Rfd::new(
        vec![Constraint::new(0, 0.0)],
        Constraint::new(1, 0.0),
    )]);
    let engine = Engine::prepare(alien, rfds, RenuverConfig::default());
    let bytes = artifact::encode_engine(&engine, "alien", 0);

    let (status, body) = request(addr, &put_model(&bytes));
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("fingerprint mismatch"), "{body}");
    assert_eq!(ctx.metrics.counter("serve.swap_rejected").get(), 1);
    assert_eq!(ctx.metrics.counter("serve.swaps").get(), 0);

    // Garbage bytes are a 400, not a 409 (they never reach the guard).
    let (status, _) = request(addr, &put_model(b"not an artifact"));
    assert_eq!(status, 400);

    // The serving model is untouched.
    let (status, body) = request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#));
    assert_eq!(status, 200);
    assert!(body.contains("90049"), "rejected swap still changed the model: {body}");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

/// A served child process, its address, and its stdout — held open so
/// the shutdown line still has a reader.
#[cfg(unix)]
type Served = (std::process::Child, SocketAddr, BufReader<std::process::ChildStdout>);

/// Starts `renuver serve model.rnv` in `dir` with `extra` flags on an
/// ephemeral port, and waits for its ready line.
#[cfg(unix)]
fn spawn_serve(dir: &std::path::Path, extra: &[&str]) -> Served {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_renuver"))
        .current_dir(dir)
        .args(["serve", "model.rnv", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Retry-free startup handshake: banner line, then the ready line.
    let mut lines = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .strip_prefix("listening on ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("bad banner {banner:?}"))
        .parse()
        .unwrap();
    let mut ready = String::new();
    lines.read_line(&mut ready).unwrap();
    assert!(ready.starts_with("ready state=ok seq=0"), "{ready:?}");
    (child, addr, lines)
}

/// Sends `signal` to the child and asserts `kill` delivered it.
#[cfg(unix)]
fn signal(child: &std::process::Child, signal: &str) {
    let sent = std::process::Command::new("kill")
        .arg(signal)
        .arg(child.id().to_string())
        .status()
        .unwrap();
    assert!(sent.success());
}

/// `SIGHUP` re-reads the model file recorded at startup and swaps it in
/// through the same guarded path as `PUT /v1/model` — a live reload with
/// no restart, proven against the real binary.
#[test]
#[cfg(unix)]
fn sighup_reloads_the_model_file_without_downtime() {
    let dir = std::env::temp_dir()
        .join(format!("renuver-swap-e2e-{}", std::process::id()))
        .join("sighup");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let write_model = |shift: i64| {
        let engine =
            Engine::prepare(model_relation(shift), model_rfds(), RenuverConfig::default());
        std::fs::write(dir.join("model.rnv"), artifact::encode_engine(&engine, "sighup", 0))
            .unwrap();
    };
    write_model(0);

    let (mut child, addr, _stdout) = spawn_serve(&dir, &[]);

    let (status, body) = request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#));
    assert_eq!(status, 200);
    assert!(body.contains("90049"), "{body}");

    // Replace the file on disk, poke the server, and wait for the
    // accept loop to pick the reload up (it polls between accepts).
    write_model(1);
    signal(&child, "-HUP");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let (status, body) = request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#));
        assert_eq!(status, 200, "request dropped during SIGHUP reload: {body}");
        if body.contains("90050") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "SIGHUP reload never landed: {body}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    signal(&child, "-TERM");
    assert!(child.wait().unwrap().success(), "serve did not exit cleanly");
}

/// `SIGHUP` on a durable server: an unchanged model file is reloaded
/// through the layout beside it, so a batch ingested since startup —
/// which the artifact on disk never holds — is still served; a replaced
/// file is a new model and is swapped in.
#[test]
#[cfg(unix)]
fn sighup_on_a_durable_server_keeps_ingested_batches() {
    let dir = std::env::temp_dir()
        .join(format!("renuver-swap-e2e-{}", std::process::id()))
        .join("sighup-wal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write_model = |shift: i64| {
        let engine =
            Engine::prepare(model_relation(shift), model_rfds(), RenuverConfig::default());
        std::fs::write(dir.join("model.rnv"), artifact::encode_engine(&engine, "sighup", 0))
            .unwrap();
    };
    write_model(0);
    let (mut child, addr, _stdout) = spawn_serve(&dir, &["--wal"]);

    let batch = r#"{"tuples": [["City99", "99999"]]}"#;
    let raw = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: swap\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{batch}",
        batch.len()
    );
    let (status, body) = request(addr, raw.as_bytes());
    assert_eq!(status, 200, "{body}");

    let reload = |swaps: &str| {
        signal(&child, "-HUP");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let (_, table) =
                request(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
            if table.lines().any(|l| l.split_whitespace().eq(["serve.swaps", swaps])) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "SIGHUP reload never landed: {table}");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    };
    let impute = |city: &str| {
        let (status, body) =
            request(addr, &post_impute(&format!(r#"{{"tuples": [["{city}", null]]}}"#)));
        assert_eq!(status, 200, "{body}");
        body
    };
    reload("1");
    let body = impute("City99");
    assert!(body.contains("99999"), "the reload dropped the ingested batch: {body}");

    write_model(1);
    reload("2");
    assert!(impute("City07").contains("90050"), "the replaced model was not installed");

    signal(&child, "-TERM");
    assert!(child.wait().unwrap().success(), "serve did not exit cleanly");
}
