//! Kill-and-recover matrix for the durable write path, driven through
//! the real `renuver` binary. Each case arms a crash point via the
//! `RENUVER_FAULT` environment variable, lets `renuver ingest` abort
//! mid-flight, then recovers and asserts the surviving model is
//! **bit-identical** (compacted shard snapshot and manifest bytes) to a
//! control model that never crashed and ingested exactly the batches the
//! durability contract says must survive:
//!
//! - crash before the WAL frame is complete on disk → batch absent,
//! - crash after the frame is complete (fsynced or not — a process
//!   abort leaves the page cache intact, so `pre_fsync` behaves like
//!   `post_fsync` here; only the torn-write case models a power cut's
//!   partial frame) → batch replayed,
//! - crash anywhere inside compaction → no logical change at all.
//!
//! Also covered: injected (non-fatal) I/O errors commit nothing,
//! SIGTERM during an in-flight `/v1/ingest` drains gracefully — the
//! batch is fully durable, never half-applied — and a single-file WAL
//! left by an earlier build migrates into the one-shard layout.
//!
//! The single-file cases run on the default one-shard layout `prepare`
//! writes; the sharded cases below run the same matrix at two shards.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const DATA: &str = "\
City:text,Zip:text
Salerno,84084
Salerno,84084
Milano,20121
Milano,20121
Roma,00184
Roma,00184
";
const BATCH1: &str = "City:text,Zip:text\nSalerno,_\nTorino,10121\n";
const BATCH2: &str = "City:text,Zip:text\nNapoli,80100\n";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_renuver"))
}

/// A fresh directory holding `data.csv`, both batches, and a prepared
/// `model.rnv`. Every command below runs with this directory as cwd and
/// uses relative paths, so the provenance strings baked into snapshots
/// are identical across the crashed and control copies.
fn setup(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("renuver-wal-recovery-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("data.csv"), DATA).unwrap();
    std::fs::write(dir.join("batch1.csv"), BATCH1).unwrap();
    std::fs::write(dir.join("batch2.csv"), BATCH2).unwrap();
    let out = bin()
        .current_dir(&dir)
        .args(["prepare", "data.csv", "-o", "model.rnv", "--limit", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "prepare failed: {}", String::from_utf8_lossy(&out.stderr));
    dir
}

fn ingest(dir: &Path, batch: &str, fault: Option<&str>, compact: bool) -> Output {
    let mut cmd = bin();
    cmd.current_dir(dir).args(["ingest", "model.rnv", batch]);
    if compact {
        cmd.arg("--compact");
    }
    match fault {
        Some(spec) => cmd.env("RENUVER_FAULT", spec),
        None => cmd.env_remove("RENUVER_FAULT"),
    };
    cmd.output().unwrap()
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Canonical end state: ingest `batch2.csv` with `--compact` (which
/// first replays whatever the WAL holds), then read the one-shard
/// layout's snapshot and manifest. Two histories that agree on the
/// durable batches yield identical bytes.
fn final_snapshot(dir: &Path) -> Vec<Vec<u8>> {
    let out = ingest(dir, "batch2.csv", None, true);
    assert_ok(&out, "recovery ingest of batch2");
    ["model.rnv.shard0", "model.rnv.manifest"]
        .iter()
        .map(|f| std::fs::read(dir.join(f)).unwrap())
        .collect()
}

/// Control model that ingested exactly `batches` without ever crashing.
fn control_snapshot(tag: &str, batches: &[&str]) -> Vec<Vec<u8>> {
    let dir = setup(tag);
    for b in batches {
        assert_ok(&ingest(&dir, b, None, false), b);
    }
    final_snapshot(&dir)
}

#[test]
fn append_crash_matrix_recovers_bit_identically() {
    // (crash point, does batch1 survive the crash?)
    let matrix = [
        ("wal.append.pre_write=crash", false),
        // 10 bytes is inside the frame header: a torn tail, truncated
        // at recovery.
        ("wal.append.mid_write=short:10", false),
        // The frame hit the file before the abort; replay finds it.
        ("wal.append.pre_fsync=crash", true),
        ("wal.append.post_fsync=crash", true),
    ];
    for (fault, survives) in matrix {
        let point = fault.split('=').next().unwrap();
        let dir = setup(&format!("append-{}", point.replace('.', "-")));
        let out = ingest(&dir, "batch1.csv", Some(fault), false);
        assert!(!out.status.success(), "{fault}: ingest should have died");

        let recovered = final_snapshot(&dir);
        let expected: &[&str] = if survives { &["batch1.csv"] } else { &[] };
        let control = control_snapshot(
            &format!("append-ctl-{}", point.replace('.', "-")),
            expected,
        );
        assert_eq!(
            recovered, control,
            "{fault}: recovered model != control (batch1 survives = {survives})"
        );
    }
}

#[test]
fn compaction_crash_matrix_changes_nothing_logically() {
    // The commit is acknowledged before compaction starts, so batch1
    // must survive a crash at every compaction point.
    for point in
        ["compact.pre_write", "compact.pre_rename", "compact.post_rename", "compact.pre_truncate"]
    {
        let dir = setup(&format!("cpt-{}", point.replace('.', "-")));
        let out = ingest(&dir, "batch1.csv", Some(&format!("{point}=crash")), true);
        assert!(!out.status.success(), "{point}: ingest --compact should have died");

        let recovered = final_snapshot(&dir);
        let control =
            control_snapshot(&format!("cpt-ctl-{}", point.replace('.', "-")), &["batch1.csv"]);
        assert_eq!(recovered, control, "{point}: compaction crash changed the logical state");
    }
}

#[test]
fn injected_wal_error_commits_nothing() {
    let dir = setup("io-err");
    let out = ingest(&dir, "batch1.csv", Some("wal.append.pre_write=err"), false);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wal append failed"), "{stderr}");
    assert!(stderr.contains("injected fault"), "{stderr}");

    // The failed run left no trace: the model equals a control that
    // only ever saw batch2.
    let recovered = final_snapshot(&dir);
    let control = control_snapshot("io-err-ctl", &[]);
    assert_eq!(recovered, control);
}

/// Satellite: SIGTERM while an ingest request is in flight. The server
/// drains the connection — the client gets its `200`, the batch is
/// durable, and a restarted `ingest` replays it; nothing is ever
/// half-applied.
#[test]
#[cfg(unix)]
fn sigterm_during_inflight_ingest_commits_fully_or_not_at_all() {
    let dir = setup("sigterm");
    let mut child = bin()
        .current_dir(&dir)
        .args(["serve", "model.rnv", "--wal", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env_remove("RENUVER_FAULT")
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("bad banner {banner:?}"))
        .to_string();

    // Retry-free handshake: the second stdout line arrives once WAL
    // replay is done and ingest is accepted (no healthz polling).
    let mut ready = String::new();
    lines.read_line(&mut ready).unwrap();
    assert!(ready.starts_with("ready state=ok "), "{ready:?}");

    // Send the request in two halves with SIGTERM in between: the
    // server must finish reading and commit, not cut the socket.
    let body = r#"{"tuples": [["Salerno", null], ["Genova", "16121"]]}"#;
    let head = format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(&body.as_bytes()[..10]).unwrap();
    s.flush().unwrap();
    // Give a worker time to accept the connection and start reading;
    // a SIGTERM before the accept would reset the backlogged socket
    // instead of exercising the in-flight drain.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let kill = Command::new("kill").arg("-TERM").arg(child.id().to_string()).status().unwrap();
    assert!(kill.success());
    std::thread::sleep(std::time::Duration::from_millis(50));
    s.write_all(&body.as_bytes()[10..]).unwrap();

    let mut resp = String::new();
    BufReader::new(s).read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 "), "in-flight ingest was dropped: {resp:?}");
    assert!(resp.contains("\"seq\":1"), "{resp}");
    assert!(child.wait().unwrap().success(), "serve did not exit cleanly after drain");

    // The acknowledged batch is durable: a cold recovery replays it and
    // lands on the same bytes as a never-interrupted control.
    let recovered = final_snapshot(&dir);
    // Control: the same two tuples ingested through the CLI, no signal.
    let dir_ctl = setup("sigterm-ctl");
    std::fs::write(
        dir_ctl.join("sig_batch.csv"),
        "City:text,Zip:text\nSalerno,_\nGenova,16121\n",
    )
    .unwrap();
    assert_ok(&ingest(&dir_ctl, "sig_batch.csv", None, false), "control batch");
    assert_eq!(recovered, final_snapshot(&dir_ctl));
}

/// A model served by an earlier build keeps its durable state in one
/// `model.rnv.wal` beside the artifact. The first durable open replays
/// that log into the engine, writes the one-shard layout, and removes
/// the old log only once the manifest is durable — so a crash between
/// the two (the `migrate.pre_unlink` window) reopens onto the layout
/// with every record applied exactly once.
#[test]
fn single_file_wal_migrates_into_a_one_shard_layout() {
    use renuver::core::{Engine, RenuverConfig};
    use renuver::data::{csv, Value};
    use renuver::rfd::RfdSet;
    use renuver::serve::{artifact, fault, DurabilityOptions, Registry, Wal};

    let rel = csv::read_str(DATA).unwrap();
    let rfds = RfdSet::from_text("City(<=0) -> Zip(<=0)\nZip(<=0) -> City(<=0)", rel.schema())
        .unwrap();
    let t = |c: &str, z: &str| vec![Value::from(c), Value::from(z)];
    let logged = [vec![t("Torino", "10121"), t("Bari", "70121")], vec![t("Napoli", "80100")]];
    for crash_before_unlink in [false, true] {
        let dir = std::env::temp_dir()
            .join(format!("renuver-wal-recovery-{}", std::process::id()))
            .join(format!("migrate-{crash_before_unlink}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.rnv");
        let legacy = dir.join("model.rnv.wal");
        let prepared = Engine::prepare(rel.clone(), rfds.clone(), RenuverConfig::default());
        std::fs::write(&model, artifact::encode_engine(&prepared, "migrate", 0)).unwrap();
        let fp = artifact::schema_fingerprint(rel.schema());
        let (mut wal, _) = Wal::open(&legacy, fp, 0, rel.arity()).unwrap();
        for batch in &logged {
            wal.append(batch).unwrap();
        }
        drop(wal);

        let open = || {
            let opts = DurabilityOptions::beside(&model, "migrate");
            Registry::open_durable(
                artifact::load(&model).unwrap(),
                RenuverConfig::default(),
                1,
                opts.layout,
                "migrate",
                opts.compact_bytes,
                opts.compact_records,
            )
        };
        if crash_before_unlink {
            fault::arm("migrate.pre_unlink", fault::Action::Err);
            let first = open();
            fault::disarm("migrate.pre_unlink");
            assert!(first.is_err(), "the armed fault must interrupt the migration");
            assert!(dir.join("model.rnv.manifest").exists(), "manifest committed before the fault");
            assert!(legacy.exists(), "the old log outlives the interrupted migration");
        }
        let (reg, report) = open().expect("migrating open");
        let expected_replays = if crash_before_unlink { 0 } else { logged.len() };
        assert_eq!(report.replayed, expected_replays, "crash_before_unlink={crash_before_unlink}");
        assert_eq!((reg.n_shards(), reg.seq()), (1, 2));
        assert!(!legacy.exists(), "the migrated log is removed");

        // Every record exactly once, in log order, like an engine that
        // committed them directly.
        let mut grown = Engine::prepare(rel.clone(), rfds.clone(), RenuverConfig::default());
        for batch in &logged {
            grown.commit_tuples(batch.clone()).unwrap();
        }
        assert_eq!(
            reg.lock_engine().relation().tuples().collect::<Vec<_>>(),
            grown.relation().tuples().collect::<Vec<_>>()
        );
        let cfg = reg.snapshot().config.clone();
        let next = reg.ingest(vec![vec![Value::from("Napoli"), Value::Null]], &cfg).unwrap();
        assert_eq!(next.seq, 3);
        assert_eq!(next.batch.tuples[0][1], Value::from("80100"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------------ sharded layouts
//
// `prepare --shards 2` writes two shard snapshots and a routing
// manifest beside the artifact; `ingest` recovers that layout and
// commits through the registry. Two shards differ from one in exactly
// one place: a batch is committed only once it is appended to *every*
// shard WAL, so a crash anywhere inside the append fan-out leaves the
// batch absent (an orphan frame on an earlier log sits beyond the
// committed horizon and is truncated when recovery normalizes).
// Compaction crashes — including the window where one shard's snapshot
// is renamed while its sibling and the manifest are still old — must
// change nothing logically, per shard, byte for byte.

const SHARDS: usize = 2;

fn setup_sharded(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("renuver-shard-recovery-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("data.csv"), DATA).unwrap();
    std::fs::write(dir.join("batch1.csv"), BATCH1).unwrap();
    std::fs::write(dir.join("batch2.csv"), BATCH2).unwrap();
    let out = bin()
        .current_dir(&dir)
        .args(["prepare", "data.csv", "-o", "model.rnv", "--limit", "3", "--shards", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "prepare failed: {}", String::from_utf8_lossy(&out.stderr));
    dir
}

/// Canonical sharded end state: recover + ingest `batch2.csv` with
/// `--compact`, then read every shard snapshot plus the manifest. Two
/// histories that agree on the durable batches agree on every byte of
/// every shard.
fn final_sharded_state(dir: &Path) -> Vec<Vec<u8>> {
    let out = ingest(dir, "batch2.csv", None, true);
    assert_ok(&out, "sharded recovery ingest of batch2");
    let mut files = Vec::new();
    for k in 0..SHARDS {
        files.push(std::fs::read(dir.join(format!("model.rnv.shard{k}"))).unwrap());
    }
    files.push(std::fs::read(dir.join("model.rnv.manifest")).unwrap());
    files
}

fn sharded_control(tag: &str, batches: &[&str]) -> Vec<Vec<u8>> {
    let dir = setup_sharded(tag);
    for b in batches {
        assert_ok(&ingest(&dir, b, None, false), b);
    }
    final_sharded_state(&dir)
}

#[test]
fn sharded_append_crash_matrix_commits_nothing() {
    // Every append crash point leaves the batch uncommitted: the fault
    // fires on the first shard WAL the fan-out touches, so no state
    // where all logs carry the frame is ever reached.
    for fault in [
        "wal.append.pre_write=crash",
        "wal.append.mid_write=short:10",
        "wal.append.pre_fsync=crash",
        "wal.append.post_fsync=crash",
    ] {
        let point = fault.split('=').next().unwrap();
        let dir = setup_sharded(&format!("append-{}", point.replace('.', "-")));
        let out = ingest(&dir, "batch1.csv", Some(fault), false);
        assert!(!out.status.success(), "{fault}: sharded ingest should have died");

        let recovered = final_sharded_state(&dir);
        let control =
            sharded_control(&format!("append-ctl-{}", point.replace('.', "-")), &[]);
        assert_eq!(
            recovered, control,
            "{fault}: per-shard recovery differs from a control that never saw batch1"
        );
    }
}

#[test]
fn sharded_compaction_crash_matrix_changes_nothing_logically() {
    // The commit is acknowledged before compaction, so batch1 survives a
    // crash at every point — including `compact.shard_done`, the
    // sharded-only window where shard 0's snapshot is already at the new
    // seq while shard 1 and the manifest still hold the old one.
    // Recovery must notice the mixed seqs and normalize.
    for point in [
        "compact.pre_write",
        "compact.pre_rename",
        "compact.shard_done",
        "compact.post_rename",
        "compact.pre_truncate",
    ] {
        let dir = setup_sharded(&format!("cpt-{}", point.replace('.', "-")));
        let out = ingest(&dir, "batch1.csv", Some(&format!("{point}=crash")), true);
        assert!(!out.status.success(), "{point}: sharded ingest --compact should have died");

        let recovered = final_sharded_state(&dir);
        let control = sharded_control(
            &format!("cpt-ctl-{}", point.replace('.', "-")),
            &["batch1.csv"],
        );
        assert_eq!(
            recovered, control,
            "{point}: sharded compaction crash changed the logical state"
        );
    }
}

/// Swap crash window: the server dies after writing the whole
/// next-generation layout (snapshots + fresh WALs under `.g1.*` names)
/// but before the atomic manifest flip that commits it. The old
/// generation must win: recovery serves the old model plus every
/// acknowledged batch, byte for byte, and sweeps the orphaned files.
#[test]
#[cfg(unix)]
fn swap_crash_before_manifest_flip_preserves_the_old_model() {
    let dir = setup_sharded("swap-crash");
    assert_ok(&ingest(&dir, "batch1.csv", None, false), "batch1");

    // A replacement model: same schema (same fingerprint), one more row.
    std::fs::write(dir.join("data2.csv"), format!("{DATA}Bari,70121\n")).unwrap();
    let out = bin()
        .current_dir(&dir)
        .args(["prepare", "data2.csv", "-o", "model2.rnv", "--limit", "3"])
        .output()
        .unwrap();
    assert_ok(&out, "prepare model2");

    let mut child = bin()
        .current_dir(&dir)
        .args(["serve", "model.rnv", "--shards", "2", "--wal", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env("RENUVER_FAULT", "swap.pre_commit=crash")
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("bad banner {banner:?}"))
        .to_string();
    let mut ready = String::new();
    lines.read_line(&mut ready).unwrap();
    assert!(ready.starts_with("ready state=ok "), "{ready:?}");

    // PUT the new model; the armed fault aborts the process mid-swap.
    let body = std::fs::read(dir.join("model2.rnv")).unwrap();
    let mut raw = format!(
        "PUT /v1/model HTTP/1.1\r\nHost: t\r\nContent-Type: application/octet-stream\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(&body);
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(&raw).unwrap();
    let mut resp = String::new();
    let _ = BufReader::new(s).read_to_string(&mut resp);
    assert!(!resp.starts_with("HTTP/1.1 200"), "swap should have crashed, got: {resp:?}");
    assert!(!child.wait().unwrap().success(), "serve should have aborted mid-swap");

    // The aborted generation's files are on disk but uncommitted.
    assert!(dir.join("model.rnv.g1.shard0").exists(), "crash landed before the g1 write");

    // Recovery lands on exactly the state of a control that ingested
    // batch1 and was never asked to swap, and sweeps the orphans.
    let recovered = final_sharded_state(&dir);
    let control = sharded_control("swap-crash-ctl", &["batch1.csv"]);
    assert_eq!(recovered, control, "interrupted swap changed the logical state");
    for k in 0..SHARDS {
        assert!(!dir.join(format!("model.rnv.g1.shard{k}")).exists());
        assert!(!dir.join(format!("model.rnv.g1.shard{k}.wal")).exists());
    }
}

/// One shard's WAL is corrupted while a sibling keeps the full history:
/// the registry comes up `degraded` for the crashed shard only, keeps
/// serving imputes (the sibling's log rebuilds the dead shard's tail in
/// memory), and refuses ingest until the shard heals.
#[test]
#[cfg(unix)]
fn corrupt_shard_wal_serves_degraded_for_that_shard_only() {
    let dir = setup_sharded("degraded");
    assert_ok(&ingest(&dir, "batch1.csv", None, false), "batch1");

    // Flip a byte inside shard 0's WAL header: the log refuses to open.
    let wal_path = dir.join("model.rnv.shard0.wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[9] ^= 0xff;
    std::fs::write(&wal_path, &bytes).unwrap();

    let mut child = bin()
        .current_dir(&dir)
        .args(["serve", "model.rnv", "--shards", "2", "--wal", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    lines.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("bad banner {banner:?}"))
        .to_string();
    let mut ready = String::new();
    lines.read_line(&mut ready).unwrap();
    assert!(ready.starts_with("ready state=degraded "), "{ready:?}");

    let send = |raw: &str| {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut resp = String::new();
        BufReader::new(s).read_to_string(&mut resp).unwrap();
        resp
    };

    // Only shard 0 is degraded, and batch1's two rows were rebuilt from
    // the sibling's log: 6 base rows + 2 replayed across the shards.
    let health = send("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(health.contains("\"state\":\"degraded\""), "{health}");
    assert!(
        health.contains("{\"shard\":0,\"state\":\"degraded\""),
        "shard 0 should be degraded: {health}"
    );
    assert!(
        health.contains("{\"shard\":1,\"state\":\"ok\""),
        "shard 1 should be healthy: {health}"
    );
    let rows: u64 = health
        .split("\"rows\":")
        .skip(1)
        .map(|r| r.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(rows, 8, "replayed batch rows missing from the registry: {health}");

    // Reads still answer from the recovered state.
    let body = r#"{"tuples": [["Salerno", null]]}"#;
    let resp = send(&format!(
        "POST /v1/impute HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    assert!(resp.contains("84084"), "{resp}");

    // Writes are refused: acknowledging a batch a degraded log never saw
    // would fork the shards.
    let resp = send(&format!(
        "POST /v1/ingest HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");

    let kill = Command::new("kill").arg("-TERM").arg(child.id().to_string()).status().unwrap();
    assert!(kill.success());
    assert!(child.wait().unwrap().success(), "serve did not exit cleanly");
}
