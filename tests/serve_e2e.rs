//! End-to-end exercise of the HTTP serving stack over real loopback
//! sockets: concurrent clients with mixed valid / malformed / oversized
//! traffic, load shedding under a tiny queue, and graceful shutdown.
//!
//! What must hold:
//!
//! - Every connection gets a well-formed HTTP response — malformed input
//!   maps to 4xx, never to a hung socket or a worker panic (asserted via
//!   `http.responses_5xx == 0` and the server thread joining cleanly).
//! - The `/metrics` registry accounts exactly for what the clients saw:
//!   2xx/4xx class counts and the shed count all reconcile against
//!   client-side tallies and [`Server::run`]'s return value.
//! - Shedding answers `503` with a `Retry-After` header at the accept
//!   loop, without consuming a worker.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use renuver::core::{Engine, RenuverConfig};
use renuver::data::csv;
use renuver::obs::EventLog;
use renuver::rfd::{Constraint, Rfd, RfdSet};
use renuver::serve::{Ctx, FlightOptions, ModelInfo, ServeConfig, Server};

fn test_engine() -> Engine {
    let mut text = String::from("City:text,Zip:text\n");
    for i in 0..50 {
        text.push_str(&format!("City{:02},9{:04}\n", i % 25, (i % 25) * 7));
    }
    let rel = csv::read_str(&text).unwrap();
    let rfds = RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(0, 0.0)),
    ]);
    Engine::prepare(rel, rfds, RenuverConfig::default())
}

fn start(config: ServeConfig) -> (SocketAddr, Arc<Ctx>, Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<u64>) {
    start_flight(config, FlightOptions::default())
}

/// Like [`start`], but with explicit flight-recorder options (the way
/// `renuver serve --log-out`/`--no-flight` wires them).
fn start_flight(
    config: ServeConfig,
    opts: FlightOptions,
) -> (SocketAddr, Arc<Ctx>, Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<u64>) {
    let mut ctx = Ctx::new(
        test_engine(),
        ModelInfo { source: "e2e".into(), schema_fingerprint: 0, artifact_bytes: 0 },
        None,
        60_000,
    );
    ctx.set_flight(opts);
    let ctx = Arc::new(ctx);
    let server = Server::bind(config, Arc::clone(&ctx)).unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, ctx, stop, handle)
}

/// Sends one raw request on a fresh connection; returns the status code
/// and the response headers + body as text. Panics on transport errors —
/// a hung or reset socket is exactly what this suite must catch.
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

fn post_impute(body: &str, extra_query: &str) -> Vec<u8> {
    format!(
        "POST /v1/impute{extra_query} HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

/// Reads a counter out of the `/metrics` text table.
fn metric(table: &str, name: &str) -> u64 {
    table
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name)).then(|| it.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("metric {name} not in:\n{table}"))
}

#[test]
fn concurrent_mixed_traffic_reconciles_with_metrics() {
    let (addr, ctx, stop, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue: 64,
        max_body: 512,
        ..ServeConfig::default()
    });

    const CONNS: usize = 8;
    const PER_CONN: usize = 12;
    let mut clients = Vec::new();
    for c in 0..CONNS {
        clients.push(std::thread::spawn(move || {
            let (mut ok, mut bad, mut huge) = (0u64, 0u64, 0u64);
            for i in 0..PER_CONN {
                match (c + i) % 4 {
                    // Valid: one hole, imputable from the reference data.
                    0 => {
                        let (status, body) =
                            request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#, ""));
                        assert_eq!(status, 200, "{body}");
                        assert!(body.contains("\"imputed\":1"), "{body}");
                        ok += 1;
                    }
                    // Malformed JSON: 400 with a JSON error document.
                    1 => {
                        let (status, body) =
                            request(addr, &post_impute("{\"tuples\": [[broken", ""));
                        assert_eq!(status, 400, "{body}");
                        assert!(body.contains("\"error\""), "{body}");
                        bad += 1;
                    }
                    // Smuggling probe: conflicting Content-Length headers
                    // (RFC 9110 §8.6) must die as 400, not desync the
                    // framing by honoring either declared length.
                    2 => {
                        let raw = b"POST /v1/impute HTTP/1.1\r\nHost: e2e\r\n\
                                    Content-Length: 4\r\nContent-Length: 30\r\n\
                                    Connection: close\r\n\r\nbodyGET /x HTTP/1.1\r\n\r\n";
                        let (status, _) = request(addr, raw);
                        assert_eq!(status, 400);
                        bad += 1;
                    }
                    // Oversized: declared Content-Length over the limit is
                    // refused before the body is read.
                    _ => {
                        let raw = b"POST /v1/impute HTTP/1.1\r\nHost: e2e\r\n\
                                    Content-Length: 100000\r\nConnection: close\r\n\r\n";
                        let (status, _) = request(addr, raw);
                        assert_eq!(status, 413);
                        huge += 1;
                    }
                }
            }
            (ok, bad, huge)
        }));
    }
    let mut totals = (0u64, 0u64, 0u64);
    for c in clients {
        let (ok, bad, huge) = c.join().expect("client panicked");
        totals = (totals.0 + ok, totals.1 + bad, totals.2 + huge);
    }
    let (ok, bad, huge) = totals;
    assert_eq!(ok + bad + huge, (CONNS * PER_CONN) as u64);

    let (status, metrics_resp) = request(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    // The /metrics request renders the table before its own 2xx is
    // counted, so the table shows exactly the client tally.
    assert_eq!(metric(&metrics_resp, "http.responses_2xx"), ok);
    assert_eq!(metric(&metrics_resp, "http.responses_4xx"), bad + huge);
    assert_eq!(metric(&metrics_resp, "http.responses_5xx"), 0, "a worker panicked");
    assert_eq!(metric(&metrics_resp, "http.shed"), 0, "queue of 64 must absorb 8 clients");
    assert_eq!(metric(&metrics_resp, "serve.cells_imputed"), ok);

    stop.store(true, Ordering::Relaxed);
    let shed = handle.join().expect("server thread panicked");
    assert_eq!(shed, 0);
    assert_eq!(ctx.metrics.counter("serve.batches").get(), ok);
}

#[test]
fn overload_sheds_with_503_and_accounts_for_it() {
    // One worker, a one-slot queue, and a deliberately slow request body
    // (64 tuples per batch): most of a 16-connection burst must be shed.
    let (addr, ctx, stop, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue: 1,
        ..ServeConfig::default()
    });
    let tuples: Vec<String> =
        (0..64).map(|i| format!(r#"["City{:02}", null]"#, i % 25)).collect();
    let body = format!("{{\"tuples\": [{}]}}", tuples.join(","));

    const CONNS: usize = 16;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let body = body.clone();
        clients.push(std::thread::spawn(move || {
            let (status, text) = request(addr, &post_impute(&body, ""));
            match status {
                200 => (1u64, 0u64),
                503 => {
                    assert!(
                        text.to_ascii_lowercase().contains("retry-after:"),
                        "503 without Retry-After: {text}"
                    );
                    (0, 1)
                }
                other => panic!("unexpected status {other}: {text}"),
            }
        }));
    }
    let mut served = 0u64;
    let mut shed_seen = 0u64;
    for c in clients {
        let (ok, shed) = c.join().expect("client panicked");
        served += ok;
        shed_seen += shed;
    }
    assert_eq!(served + shed_seen, CONNS as u64);
    assert!(shed_seen > 0, "burst was fully absorbed; shrink the queue or slow the body");

    stop.store(true, Ordering::Relaxed);
    let shed_counted = handle.join().expect("server thread panicked");
    assert_eq!(shed_counted, shed_seen, "Server::run disagrees with clients about shed count");
    assert_eq!(ctx.metrics.counter("http.shed").get(), shed_seen);
    assert_eq!(ctx.metrics.counter("http.responses_2xx").get(), served);
    assert_eq!(ctx.metrics.counter("http.responses_5xx").get(), 0);
    // Shed responses are written at the accept loop, not routed: the
    // request counter only saw the served ones.
    assert_eq!(ctx.metrics.counter("http.requests").get(), served);
}

#[test]
fn healthz_reports_state_and_seq() {
    let (addr, ctx, stop, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let (status, body) = request(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"state\":\"ok\""), "{body}");
    assert!(body.contains("\"seq\":0"), "{body}");

    // A model served without --wal refuses ingest with 503 + Retry-After.
    let ingest_body = r#"{"tuples": [["City07", null]]}"#;
    let raw = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: e2e\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{ingest_body}",
        ingest_body.len()
    );
    let (status, body) = request(addr, raw.as_bytes());
    assert_eq!(status, 503, "{body}");
    assert!(body.to_ascii_lowercase().contains("retry-after:"), "{body}");

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    drop(ctx);
}

/// Slow-loris clients: connections that trickle a request and then
/// stall must be answered with `408` within the read deadline and
/// counted, while a healthy client on the same pool is unaffected.
#[test]
fn stalled_connections_get_408_without_starving_the_pool() {
    let (addr, ctx, stop, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        read_timeout_secs: 1,
        ..ServeConfig::default()
    });

    const LORIS: usize = 3;
    let mut clients = Vec::new();
    for _ in 0..LORIS {
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            // A plausible prefix, then silence.
            stream.write_all(b"POST /v1/impute HTTP/1.1\r\nHost: loris\r\nConte").unwrap();
            let mut reader = BufReader::new(stream);
            let mut status_line = String::new();
            reader.read_line(&mut status_line).unwrap();
            assert!(
                status_line.starts_with("HTTP/1.1 408 "),
                "stalled client expected 408, got {status_line:?}"
            );
        }));
    }
    // A healthy request while the stalls are pending.
    let (status, body) = request(addr, &post_impute(r#"{"tuples": [["City07", null]]}"#, ""));
    assert_eq!(status, 200, "{body}");
    for c in clients {
        c.join().expect("loris client panicked");
    }
    assert_eq!(ctx.metrics.counter("http.timeouts").get(), LORIS as u64);

    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_inflight_requests() {
    let (addr, _ctx, stop, handle) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    });
    // Park a slow request, then request shutdown while it is in flight.
    let tuples: Vec<String> = (0..64).map(|i| format!(r#"["City{:02}", null]"#, i % 25)).collect();
    let body = format!("{{\"tuples\": [{}]}}", tuples.join(","));
    let slow = std::thread::spawn(move || request(addr, &post_impute(&body, "")));
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    handle.join().expect("server thread panicked");
    let (status, text) = slow.join().expect("in-flight client");
    assert_eq!(status, 200, "in-flight request was dropped by shutdown: {text}");
}

/// Pulls the status off an `access` log line, if it is one.
fn access_status(line: &str) -> Option<u64> {
    if !line.contains("\"kind\":\"access\"") {
        return None;
    }
    let rest = line.split("\"status\":").nth(1)?;
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
}

/// The flight-recorder reconciliation: under concurrent mixed traffic —
/// slow valid bodies through a deliberately tiny queue (forcing sheds),
/// malformed JSON, and oversized declared lengths — every response the
/// clients saw is accounted for. Each non-shed response has exactly one
/// schema-valid `access` line whose status class matches the `/metrics`
/// counters, and each accept-loop shed has a `shed` server event; no
/// request is double-counted and none goes missing.
#[test]
fn access_log_reconciles_with_metrics_under_mixed_traffic() {
    let dir = std::env::temp_dir().join(format!("renuver-e2e-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("events.jsonl");
    let (addr, ctx, stop, handle) = start_flight(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue: 1,
            max_body: 4096,
            ..ServeConfig::default()
        },
        FlightOptions {
            log: Some(EventLog::create(&log_path).unwrap()),
            slow_threshold_ms: 0,
            ..FlightOptions::default()
        },
    );

    // 64-tuple bodies keep the single worker busy; a burst of them plus
    // fast malformed/oversized probes overflows the one-slot queue.
    let tuples: Vec<String> = (0..64).map(|i| format!(r#"["City{:02}", null]"#, i % 25)).collect();
    let slow_body = format!("{{\"tuples\": [{}]}}", tuples.join(","));
    // One routed impute before the burst, alone on the worker: the slow
    // ring holds an impute entry however many of the burst's are shed
    // (the ring's 64 slots outlast the burst and the probes below).
    let (status, rest) = request(addr, &post_impute(&slow_body, ""));
    assert_eq!(status, 200, "{rest}");
    const CONNS: usize = 16;
    let mut clients = Vec::new();
    for c in 0..CONNS {
        let slow_body = slow_body.clone();
        clients.push(std::thread::spawn(move || {
            let raw = match c % 2 {
                // Half the burst: slow valid bodies.
                0 => post_impute(&slow_body, ""),
                // The rest alternates malformed JSON and oversized
                // declared lengths (a protocol-level rejection that
                // never reaches the router).
                _ if c % 4 == 1 => post_impute("{\"tuples\": [[broken", ""),
                _ => b"POST /v1/impute HTTP/1.1\r\nHost: e2e\r\n\
                       Content-Length: 100000\r\nConnection: close\r\n\r\n"
                    .to_vec(),
            };
            request(addr, &raw).0
        }));
    }
    let mut tally = std::collections::HashMap::<u16, u64>::new();
    for c in clients {
        *tally.entry(c.join().expect("client panicked")).or_insert(0) += 1;
    }
    let count = |s: u16| tally.get(&s).copied().unwrap_or(0);
    assert_eq!(tally.values().sum::<u64>(), CONNS as u64);
    assert!(count(503) > 0, "burst was fully absorbed; shrink the queue or slow the body");

    // An inbound X-Request-Id is echoed on the response.
    let (status, rest) = request(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: e2e\r\nX-Request-Id: e2e-fixed-id\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(rest.to_ascii_lowercase().contains("x-request-id: e2e-fixed-id"), "{rest}");

    // Prometheus exposition works over the wire and parses line by line.
    let (status, resp) =
        request(addr, b"GET /metrics?format=prometheus HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    let (headers, prom) = resp.split_once("\r\n\r\n").unwrap();
    assert!(
        headers.to_ascii_lowercase().contains("content-type: text/plain; version=0.0.4"),
        "{headers}"
    );
    assert!(prom.contains("# TYPE http_requests counter"), "{prom}");
    assert!(prom.contains("# TYPE serve_latency_impute_2xx histogram"), "{prom}");
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if line.starts_with("# ") {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(value.chars().all(|c| c.is_ascii_digit()), "bad sample value: {line:?}");
        let bare = name.split('{').next().unwrap();
        assert!(
            !bare.is_empty() && bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line:?}"
        );
    }

    // The slow ring kept the burst (threshold 0: everything qualifies).
    let (status, resp) =
        request(addr, b"GET /v1/debug/requests HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(resp.contains("\"enabled\":true"), "{resp}");
    assert!(resp.contains("\"endpoint\":\"impute\""), "{resp}");

    stop.store(true, Ordering::Relaxed);
    let shed_counted = handle.join().expect("server thread panicked");
    assert_eq!(shed_counted, count(503), "accept loop disagrees with clients about sheds");

    // Every line of the log validates against the closed schema.
    let text = std::fs::read_to_string(&log_path).unwrap();
    renuver::obs::schema::validate_trace(&text)
        .unwrap_or_else(|(line, why)| panic!("log line {line} invalid: {why}"));

    // Reconciliation: access lines per status class match the counters
    // exactly, which in turn match what the clients saw (the impute
    // before the burst and the three probes after it add four 2xx on
    // both sides).
    let class = |lo: u64, hi: u64| {
        text.lines().filter_map(access_status).filter(|s| (lo..=hi).contains(s)).count() as u64
    };
    assert_eq!(class(200, 299), ctx.metrics.counter("http.responses_2xx").get());
    assert_eq!(class(400, 499), ctx.metrics.counter("http.responses_4xx").get());
    assert_eq!(class(500, 599), ctx.metrics.counter("http.responses_5xx").get());
    assert_eq!(class(200, 299), count(200) + 4);
    assert_eq!(class(400, 499), count(400) + count(413));
    assert_eq!(class(500, 599), 0, "sheds are not access lines");

    // Sheds: one server_event line each, agreeing with both counters.
    let shed_lines = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"server_event\"") && l.contains("\"event\":\"shed\""))
        .count() as u64;
    assert_eq!(shed_lines, count(503));
    assert_eq!(ctx.metrics.counter("http.shed").get(), count(503));
    assert_eq!(ctx.metrics.counter("serve.events.shed").get(), count(503));

    // Protocol-level rejections (oversized declared length) are logged
    // under the `error` endpoint label — none are silently dropped.
    let error_lines = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"access\"") && l.contains("\"endpoint\":\"error\""))
        .count() as u64;
    assert_eq!(error_lines, count(413));

    std::fs::remove_dir_all(&dir).ok();
}

/// The recorder-off differential, over real sockets: a server with
/// `--no-flight` answers every request with byte-identical bodies and
/// headers, minus only the `X-Request-Id` echo.
#[test]
fn recorder_off_server_is_byte_identical_on_the_wire() {
    let config = || ServeConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServeConfig::default() };
    let (addr_on, _ctx_on, stop_on, handle_on) = start_flight(config(), FlightOptions::default());
    let (addr_off, _ctx_off, stop_off, handle_off) =
        start_flight(config(), FlightOptions { enabled: false, ..FlightOptions::default() });

    let requests: Vec<Vec<u8>> = vec![
        post_impute(r#"{"tuples": [["City07", null]]}"#, ""),
        post_impute(r#"{"tuples": [["City07", null], ["Nowhere", null]]}"#, "?explain=1"),
        post_impute("{\"tuples\": [[broken", ""),
        b"GET /v1/model HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
    ];
    for raw in &requests {
        let (status_on, resp_on) = request(addr_on, raw);
        let (status_off, resp_off) = request(addr_off, raw);
        assert_eq!(status_on, status_off);
        let (h_on, b_on) = resp_on.split_once("\r\n\r\n").unwrap();
        let (h_off, b_off) = resp_off.split_once("\r\n\r\n").unwrap();
        assert_eq!(b_on, b_off, "recorder changed a response body");
        assert!(h_on.to_ascii_lowercase().contains("x-request-id:"), "{h_on}");
        assert!(!h_off.to_ascii_lowercase().contains("x-request-id:"), "{h_off}");
        let strip = |h: &str| {
            h.lines()
                .filter(|l| !l.to_ascii_lowercase().starts_with("x-request-id:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(h_on), strip(h_off), "recorder changed a header beyond the id echo");
    }

    stop_on.store(true, Ordering::Relaxed);
    stop_off.store(true, Ordering::Relaxed);
    handle_on.join().unwrap();
    handle_off.join().unwrap();
}
