//! Measures the serving stack — artifact load vs full rebuild, and
//! `/v1/impute` throughput/latency over loopback — and writes the results
//! to `BENCH_serve.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_serve`
//! (`--quick` shrinks the fixture and request counts, `--out <path>`
//! overrides the output file).
//!
//! Two claims are on trial:
//!
//! * **The artifact earns its keep.** `renuver serve model.rnv` must be
//!   strictly cheaper than `renuver serve dataset.csv`: decoding the
//!   snapshot skips RFD discovery, the O(k²) Levenshtein matrices, and
//!   the index build. On the full 5 000-row fixture the load must be at
//!   least 5× faster than the rebuild — asserted, not just recorded.
//! * **The server holds up under concurrency.** Loopback clients at
//!   1/4/8 connections hammer `/v1/impute` with keep-alive requests;
//!   req/s and p50/p99 latency are recorded per level. The engine is
//!   serialized behind a mutex (requests mutate and roll back engine
//!   state), so added concurrency buys queueing, not speedup — the
//!   numbers document that honestly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use renuver_bench::{median_ms, out_path, quick_mode, synthetic_shops, write_bench_json};
use renuver_core::{Engine, IndexMode, RenuverConfig};
use renuver_rfd::discovery::{discover, DiscoveryConfig};
use renuver_serve::{artifact, Ctx, FlightOptions, ModelInfo, ServeConfig, Server};

/// What `renuver serve <dataset>` does before it can answer a request:
/// RFD discovery plus the oracle/index build.
fn rebuild(rel: &renuver_data::Relation, config: &RenuverConfig) -> Engine {
    let rfds = discover(rel, &DiscoveryConfig::with_limit(3.0));
    Engine::prepare(rel.clone(), rfds, config.clone())
}

/// One keep-alive client connection issuing `count` impute requests,
/// returning each request's latency in microseconds.
fn client_loop(addr: std::net::SocketAddr, body: &str, count: usize) -> Vec<u64> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let request = format!(
        "POST /v1/impute HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut latencies = Vec::with_capacity(count);
    for _ in 0..count {
        let start = Instant::now();
        stream.write_all(request.as_bytes()).expect("write request");
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("read status");
        assert!(status_line.contains("200"), "unexpected response: {status_line}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header");
            if line.trim().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("read body");
        latencies.push(start.elapsed().as_micros() as u64);
    }
    latencies
}

/// Runs `per_conn` requests on each of `concurrency` connections.
/// Returns `(req_per_s, p50_ms, p99_ms)`.
fn measure_level(
    addr: std::net::SocketAddr,
    body: &str,
    concurrency: usize,
    per_conn: usize,
) -> (f64, f64, f64) {
    let start = Instant::now();
    let mut handles = Vec::with_capacity(concurrency);
    for _ in 0..concurrency {
        let body = body.to_string();
        handles.push(std::thread::spawn(move || client_loop(addr, &body, per_conn)));
    }
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    (latencies.len() as f64 / wall, pct(0.50), pct(0.99))
}

fn main() {
    let quick = quick_mode();
    let runs = if quick { 3 } else { 5 };
    let n = if quick { 1_000 } else { 5_000 };
    let per_conn = if quick { 50 } else { 200 };
    let rel = synthetic_shops(n);
    let config = RenuverConfig { index_mode: IndexMode::Indexed, ..RenuverConfig::default() };

    // --- Artifact: load vs rebuild -------------------------------------
    let engine = rebuild(&rel, &config);
    let bytes = artifact::encode_engine(&engine, "bench:synthetic_shops", 0);
    let artifact_bytes = bytes.len();
    let rebuild_ms = median_ms(runs, || drop(rebuild(&rel, &config)));
    let load_ms = median_ms(runs, || drop(artifact::decode(&bytes).expect("decode artifact")));
    let speedup = rebuild_ms / load_ms;
    eprintln!("rebuild {rebuild_ms:.1} ms, load {load_ms:.1} ms ({speedup:.1}x)");
    if !quick {
        assert!(
            speedup >= 5.0,
            "artifact load must be at least 5x faster than rebuild, got {speedup:.2}x \
             (rebuild {rebuild_ms:.1} ms, load {load_ms:.1} ms)"
        );
    }

    // Loaded and rebuilt engines answer identically (the differential
    // suite is the real harness; this catches a stale build).
    let loaded = artifact::decode(&bytes).expect("decode artifact").into_engine(config.clone());
    {
        let mut a = rebuild(&rel, &config);
        let mut b = artifact::decode(&bytes).expect("decode").into_engine(config.clone());
        let probe = vec![vec![
            renuver_data::Value::from("Shop-0007"),
            renuver_data::Value::from("City07"),
            renuver_data::Value::Null,
            renuver_data::Value::Int(3),
        ]];
        assert_eq!(
            a.impute_batch(probe.clone()).unwrap(),
            b.impute_batch(probe).unwrap(),
            "loaded and rebuilt engines diverged"
        );
    }

    // --- Server throughput ---------------------------------------------
    let ctx = Arc::new(Ctx::new(
        loaded,
        ModelInfo {
            source: "bench:synthetic_shops".into(),
            schema_fingerprint: artifact::schema_fingerprint(rel.schema()),
            artifact_bytes,
        },
        None,
        60_000,
    ));
    let server = Server::bind(
        ServeConfig { addr: "127.0.0.1:0".into(), workers: 8, queue: 64, ..ServeConfig::default() },
        Arc::clone(&ctx),
    )
    .expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let stop = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // One hole per request: LHS values present, Zip missing.
    let body = r#"{"tuples": [["Shop-0007", "City07", null, 3]]}"#;
    let mut levels = Vec::new();
    for concurrency in [1usize, 4, 8] {
        let (rps, p50, p99) = measure_level(addr, body, concurrency, per_conn);
        eprintln!("c={concurrency}: {rps:.0} req/s, p50 {p50:.2} ms, p99 {p99:.2} ms");
        levels.push(format!(
            "{{\n    \"concurrency\": {concurrency},\n    \"requests\": {},\n    \
             \"req_per_s\": {rps:.1},\n    \"p50_ms\": {p50:.3},\n    \"p99_ms\": {p99:.3}\n  }}",
            concurrency * per_conn
        ));
    }

    // Server-side latency, from the flight recorder's rolling-window
    // histogram (what `/metrics` reports as p50/p95/p99) — read right
    // after the sweep so the 60 s window still holds its samples.
    let lat = ctx.metrics.windowed("serve.latency.impute.2xx");
    let (lat_p50_us, lat_p95_us, lat_p99_us) = lat.quantiles();
    let lat_count = lat.all_time().count();
    eprintln!(
        "server-side impute latency: n={lat_count}, p50 {lat_p50_us} us, \
         p95 {lat_p95_us} us, p99 {lat_p99_us} us"
    );

    stop.store(true, Ordering::Relaxed);
    let shed = server_thread.join().expect("join server");
    assert_eq!(shed, 0, "benchmark load must not be shed (queue too small?)");
    let imputed = ctx.metrics.counter("serve.cells_imputed").get();

    // --- Flight-recorder overhead --------------------------------------
    // The same model under the same load with the recorder on vs off
    // (`--no-flight`). Interleaved best-of-3 rounds damp scheduler
    // noise; the recorder must cost under 5% of throughput.
    let overhead_conc = 4usize;
    let mut best = [0.0f64; 2]; // [on, off]
    for _ in 0..3 {
        for (slot, enabled) in [(0usize, true), (1, false)] {
            let engine =
                artifact::decode(&bytes).expect("decode artifact").into_engine(config.clone());
            let mut ctx = Ctx::new(
                engine,
                ModelInfo {
                    source: "bench:synthetic_shops".into(),
                    schema_fingerprint: artifact::schema_fingerprint(rel.schema()),
                    artifact_bytes,
                },
                None,
                60_000,
            );
            ctx.set_flight(FlightOptions { enabled, ..FlightOptions::default() });
            let server = Server::bind(
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 8,
                    queue: 64,
                    ..ServeConfig::default()
                },
                Arc::new(ctx),
            )
            .expect("bind");
            let addr = server.local_addr().expect("local_addr");
            let stop = server.shutdown_handle();
            let server_thread = std::thread::spawn(move || server.run().expect("server run"));
            let (rps, _, _) = measure_level(addr, body, overhead_conc, per_conn);
            stop.store(true, Ordering::Relaxed);
            server_thread.join().expect("join server");
            best[slot] = best[slot].max(rps);
        }
    }
    let (rps_on, rps_off) = (best[0], best[1]);
    let overhead_pct = (rps_off / rps_on - 1.0) * 100.0;
    eprintln!(
        "flight recorder: on {rps_on:.0} req/s, off {rps_off:.0} req/s \
         ({overhead_pct:+.2}% overhead)"
    );
    if !quick {
        assert!(
            overhead_pct < 5.0,
            "flight recorder must cost under 5% throughput, measured {overhead_pct:.2}% \
             (on {rps_on:.0} req/s, off {rps_off:.0} req/s)"
        );
    }

    let json = format!(
        "{{\n  \
         \"rows\": {n},\n  \
         \"runs_per_measurement\": {runs},\n  \
         \"artifact\": {{\n    \
         \"bytes\": {artifact_bytes},\n    \
         \"rebuild_ms\": {rebuild_ms:.3},\n    \
         \"load_ms\": {load_ms:.3},\n    \
         \"load_speedup\": {speedup:.3}\n  }},\n  \
         \"impute_cells_served\": {imputed},\n  \
         \"server_latency\": {{\n    \
         \"histogram\": \"serve.latency.impute.2xx\",\n    \
         \"count\": {lat_count},\n    \
         \"p50_us\": {lat_p50_us},\n    \
         \"p95_us\": {lat_p95_us},\n    \
         \"p99_us\": {lat_p99_us}\n  }},\n  \
         \"flight_recorder\": {{\n    \
         \"recorder_on_req_per_s\": {rps_on:.1},\n    \
         \"recorder_off_req_per_s\": {rps_off:.1},\n    \
         \"overhead_pct\": {overhead_pct:.3},\n    \
         \"overhead_floor_asserted\": {}\n  }},\n  \
         \"throughput\": [{}]\n}}\n",
        !quick,
        levels.join(", "),
    );

    write_bench_json(&out_path("BENCH_serve.json"), &json);
}
