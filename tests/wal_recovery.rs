//! Kill-and-recover matrix for the durable write path, driven through
//! the real `renuver` binary. Each case arms a crash point via the
//! `RENUVER_FAULT` environment variable, lets `renuver ingest` abort
//! mid-flight, then recovers and asserts the surviving model is
//! **bit-identical** (compacted snapshot and manifest bytes) to a
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
//! batch is fully durable, never half-applied — a single-file WAL left
//! by an earlier build migrates into the layout, a swap that crashes
//! before its commit keeps the old model, and a WAL with a flipped byte
//! before its last frame serves degraded without being rewritten.
//!
//! The last section migrates two-shard layouts written by an earlier
//! build, crashed at every migration step, into one snapshot and one
//! WAL.

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
    use renuver::serve::{artifact, fault, DurabilityOptions, Manifest, Registry, Wal};

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
        let manifest = Manifest::load(&dir.join("model.rnv.manifest")).unwrap();
        assert_eq!((manifest.n_shards, reg.seq()), (1, 2));
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

// ------------------------------------------------------- one layout

/// The compaction window between the snapshot rename and the manifest
/// rename: the snapshot is ahead of the manifest and must hold exactly
/// the replayed rows its seq covers.
#[test]
fn compaction_crash_between_the_renames_changes_nothing_logically() {
    let dir = setup("cpt-compact-snapshot_done");
    let out = ingest(&dir, "batch1.csv", Some("compact.snapshot_done=crash"), true);
    assert!(!out.status.success(), "ingest --compact should have died");
    let recovered = final_snapshot(&dir);
    let control = control_snapshot("cpt-ctl-compact-snapshot_done", &["batch1.csv"]);
    assert_eq!(recovered, control, "the compaction crash changed the logical state");
}

/// A served child process, its address, its ready line, and its stdout —
/// held open so the shutdown line still has a reader.
#[cfg(unix)]
type Served = (std::process::Child, String, String, BufReader<std::process::ChildStdout>);

/// Spawns `renuver serve model.rnv` in `dir` with `extra` flags on an
/// ephemeral port and reads its startup handshake.
#[cfg(unix)]
fn spawn_serve(dir: &Path, extra: &[&str], fault: Option<&str>) -> Served {
    let mut cmd = bin();
    cmd.current_dir(dir)
        .args(["serve", "model.rnv", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    match fault {
        Some(spec) => cmd.env("RENUVER_FAULT", spec),
        None => cmd.env_remove("RENUVER_FAULT"),
    };
    let mut child = cmd.spawn().unwrap();
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
    (child, addr, ready, lines)
}

/// One request on a fresh connection; the whole response.
#[cfg(unix)]
fn send(addr: &str, raw: &[u8]) -> String {
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(raw).unwrap();
    let mut resp = String::new();
    let _ = BufReader::new(s).read_to_string(&mut resp);
    resp
}

#[cfg(unix)]
fn post_json(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Swap crash window: the server dies after writing the whole
/// next-generation layout (snapshot + fresh WAL under `.g1.*` names)
/// but before the atomic manifest flip that commits it. The old
/// generation must win: recovery serves the old model plus every
/// acknowledged batch, byte for byte, and sweeps the orphaned files.
/// The server runs with `--shards 2`, which it ignores: it notes that
/// and writes the one-snapshot layout.
#[test]
#[cfg(unix)]
fn swap_crash_before_manifest_flip_preserves_the_old_model() {
    let dir = setup("swap-crash");
    assert_ok(&ingest(&dir, "batch1.csv", None, false), "batch1");

    // A replacement model: same schema (same fingerprint), one more row.
    std::fs::write(dir.join("data2.csv"), format!("{DATA}Bari,70121\n")).unwrap();
    let out = bin()
        .current_dir(&dir)
        .args(["prepare", "data2.csv", "-o", "model2.rnv", "--limit", "3"])
        .output()
        .unwrap();
    assert_ok(&out, "prepare model2");

    let (mut child, addr, ready, _stdout) =
        spawn_serve(&dir, &["--shards", "2", "--wal"], Some("swap.pre_commit=crash"));
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
    let resp = send(&addr, &raw);
    assert!(!resp.starts_with("HTTP/1.1 200"), "swap should have crashed, got: {resp:?}");
    assert!(!child.wait().unwrap().success(), "serve should have aborted mid-swap");
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("--shards is ignored"), "{stderr}");

    // The aborted generation's files are on disk but uncommitted, and
    // the live layout has one snapshot and one WAL.
    assert!(dir.join("model.rnv.g1.shard0").exists(), "crash landed before the g1 write");
    assert!(!dir.join("model.rnv.shard1").exists() && !dir.join("model.rnv.g1.shard1").exists());

    // Recovery lands on exactly the state of a control that ingested
    // batch1 and was never asked to swap, and sweeps the orphans.
    let recovered = final_snapshot(&dir);
    let control = control_snapshot("swap-crash-ctl", &["batch1.csv"]);
    assert_eq!(recovered, control, "interrupted swap changed the logical state");
    assert!(!dir.join("model.rnv.g1.shard0").exists());
    assert!(!dir.join("model.rnv.g1.shard0.wal").exists());
}

/// A byte flipped inside the first of two frames is mid-log damage, not
/// a torn tail: the server comes up `degraded`, serves the snapshot,
/// refuses ingest, and leaves the log byte-identical for an operator —
/// truncating it would drop both acknowledged batches.
#[test]
#[cfg(unix)]
fn a_flipped_wal_byte_serves_degraded_and_keeps_the_log() {
    let dir = setup("degraded");
    // Two batches in one server's life, so the log holds two frames (a
    // CLI `ingest` folds the log it recovers before appending).
    let (mut child, addr, ready, _stdout) = spawn_serve(&dir, &["--wal"], None);
    assert!(ready.starts_with("ready state=ok seq=0"), "{ready:?}");
    for body in [r#"{"tuples": [["Torino", "10121"]]}"#, r#"{"tuples": [["Bari", "70121"]]}"#] {
        let resp = send(&addr, &post_json("/v1/ingest", body));
        assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    }
    let kill = Command::new("kill").arg("-TERM").arg(child.id().to_string()).status().unwrap();
    assert!(kill.success());
    assert!(child.wait().unwrap().success(), "serve did not exit cleanly");

    // A payload byte of the first frame: past the 24-byte header, the
    // frame's length prefix and its seq.
    let wal_path = dir.join("model.rnv.shard0.wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[24 + 4 + 8 + 2] ^= 0x40;
    std::fs::write(&wal_path, &bytes).unwrap();

    let (mut child, addr, ready, _stdout) = spawn_serve(&dir, &["--wal"], None);
    assert!(ready.starts_with("ready state=degraded seq=0"), "{ready:?}");

    let health = send(&addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(health.contains("\"state\":\"degraded\""), "{health}");
    assert!(health.contains("\"wal\":\"degraded\",\"rows\":6"), "{health}");

    // Reads answer from the snapshot.
    let resp = send(&addr, &post_json("/v1/impute", r#"{"tuples": [["Salerno", null]]}"#));
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    assert!(resp.contains("84084"), "{resp}");

    // Writes are refused: the log cannot take an append behind damage.
    let resp = send(&addr, &post_json("/v1/ingest", r#"{"tuples": [["Salerno", null]]}"#));
    assert!(resp.starts_with("HTTP/1.1 503 "), "{resp}");

    let kill = Command::new("kill").arg("-TERM").arg(child.id().to_string()).status().unwrap();
    assert!(kill.success());
    assert!(child.wait().unwrap().success(), "serve did not exit cleanly");
    assert_eq!(std::fs::read(&wal_path).unwrap(), bytes, "the damaged log was rewritten");
}

// ------------------------------------------- layouts of earlier builds

/// The base data and batch of the two-shard fixtures: two more rows
/// than [`DATA`], so both shards own base rows, and a batch whose rows
/// land on different shards.
const SHARDED_DATA: &str = "\
City:text,Zip:text
Salerno,84084
Salerno,84084
Milano,20121
Milano,20121
Roma,00184
Roma,00184
Bari,70121
Bari,70121
";
const SHARDED_BATCH1: &str = "City:text,Zip:text\nRoma,_\nPalermo,90121\n";

/// The files of a two-shard layout.
const TWO_SHARD_FILES: [&str; 6] = [
    "model.rnv",
    "model.rnv.manifest",
    "model.rnv.shard0",
    "model.rnv.shard0.wal",
    "model.rnv.shard1",
    "model.rnv.shard1.wal",
];

/// A fresh directory holding a copy of the two-shard fixture `which`
/// (plus `batch2.csv`), under `tests/fixtures/two_shard_layout/`. An
/// earlier build, whose `prepare --shards N` wrote N-shard layouts,
/// wrote both fixtures in a directory holding [`SHARDED_DATA`] as
/// `data.csv` and [`SHARDED_BATCH1`] as `batch1.csv`:
///
/// ```text
/// # ingested/: batch1 committed to both shard logs
/// renuver prepare data.csv -o model.rnv --limit 3 --shards 2
/// renuver ingest model.rnv batch1.csv
/// # mid_compaction/: on a fresh prepare, the compaction after batch1
/// # crashed once shard 0's snapshot was renamed (shard 0 at seq 1,
/// # shard 1 and the manifest still at seq 0)
/// renuver prepare data.csv -o model.rnv --limit 3 --shards 2
/// RENUVER_FAULT=compact.shard_done=crash renuver ingest model.rnv batch1.csv --compact
/// ```
fn two_shard_copy(tag: &str, which: &str) -> PathBuf {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/two_shard_layout")
        .join(which);
    let dir = std::env::temp_dir()
        .join(format!("renuver-wal-recovery-{}", std::process::id()))
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in TWO_SHARD_FILES {
        std::fs::copy(fixture.join(f), dir.join(f)).unwrap();
    }
    std::fs::write(dir.join("batch2.csv"), BATCH2).unwrap();
    dir
}

/// The live snapshot's bytes and the manifest of the layout in `dir`,
/// which must have one shard. The generation is zeroed: a migrated
/// layout is one generation ahead of a never-sharded one.
fn live_state(dir: &Path) -> (Vec<u8>, renuver::serve::Manifest) {
    use renuver::serve::{Manifest, ShardLayout};
    let m = Manifest::load(&dir.join("model.rnv.manifest")).unwrap();
    assert_eq!((m.n_shards, m.attrs.len()), (1, 0), "{}: not a one-shard manifest", dir.display());
    let snapshot = ShardLayout::beside(dir.join("model.rnv")).shard_snapshot(m.generation, 0);
    (std::fs::read(snapshot).unwrap(), Manifest { generation: 0, ..m })
}

/// The migrated end state: `ingest batch2.csv --compact` (which first
/// migrates or recovers whatever the layout holds); then no file of the
/// two-shard generation may be left.
fn migrated_state(dir: &Path) -> (Vec<u8>, renuver::serve::Manifest) {
    assert_ok(&ingest(dir, "batch2.csv", None, true), "migrating ingest of batch2");
    for f in &TWO_SHARD_FILES[2..] {
        assert!(!dir.join(f).exists(), "{f} survived the migration");
    }
    live_state(dir)
}

/// The fixture's base model, never sharded: its first durable open
/// writes the one-snapshot layout, then batch1 and (with `--compact`)
/// batch2 are ingested.
fn never_sharded_control(tag: &str) -> (Vec<u8>, renuver::serve::Manifest) {
    let dir = two_shard_copy(tag, "ingested");
    for f in &TWO_SHARD_FILES[1..] {
        std::fs::remove_file(dir.join(f)).unwrap();
    }
    std::fs::write(dir.join("batch1.csv"), SHARDED_BATCH1).unwrap();
    assert_ok(&ingest(&dir, "batch1.csv", None, false), "control batch1");
    assert_ok(&ingest(&dir, "batch2.csv", None, true), "control batch2");
    live_state(&dir)
}

/// Every file of the two-shard layout in `dir`, in [`TWO_SHARD_FILES`]
/// order.
fn two_shard_bytes(dir: &Path) -> Vec<Vec<u8>> {
    TWO_SHARD_FILES.iter().map(|f| std::fs::read(dir.join(f)).unwrap()).collect()
}

#[test]
fn migration_matrix_recovers_every_acknowledged_batch() {
    let control = never_sharded_control("migrate-ctl");
    assert_eq!(control.1.seq, 2);

    // A clean migration: generation 1 holds one snapshot and one WAL
    // (batch2 waits in the WAL), and the next open recovers it.
    let dir = two_shard_copy("migrate-clean", "ingested");
    let base = renuver::serve::artifact::load(dir.join("model.rnv")).unwrap();
    let data = renuver::data::csv::read_str(SHARDED_DATA).unwrap();
    assert!(base.relation == data, "the fixture was not prepared from SHARDED_DATA");
    let out = ingest(&dir, "batch2.csv", None, false);
    assert_ok(&out, "migrating ingest");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("migrated the 2-shard layout"), "{stderr}");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("model.rnv"))
        .collect();
    files.sort();
    assert_eq!(
        files,
        ["model.rnv", "model.rnv.g1.shard0", "model.rnv.g1.shard0.wal", "model.rnv.manifest"]
    );
    let m = renuver::serve::Manifest::load(&dir.join("model.rnv.manifest")).unwrap();
    assert_eq!((m.n_shards, m.seq, m.generation, m.assign.len()), (1, 1, 1, 10));
    let clean = two_shard_copy("migrate-clean-final", "ingested");
    assert_eq!(migrated_state(&clean), control, "clean migration");

    // A crash before the manifest rename leaves the two-shard layout
    // untouched — its logs are only read — and the reopen migrates again.
    let dir = two_shard_copy("migrate-pre-commit", "ingested");
    let before = two_shard_bytes(&dir);
    let out = ingest(&dir, "batch2.csv", Some("migrate.pre_commit=crash"), false);
    assert!(!out.status.success(), "migrate.pre_commit: ingest should have died");
    assert!(two_shard_bytes(&dir) == before, "an uncommitted migration changed the layout");
    assert!(dir.join("model.rnv.g1.shard0").exists(), "the crash landed before the g1 write");
    assert_eq!(migrated_state(&dir), control, "crash at migrate.pre_commit");

    // A crash after it reopens onto the one-shard layout; the two-shard
    // generation is swept then.
    let dir = two_shard_copy("migrate-pre-sweep", "ingested");
    let out = ingest(&dir, "batch2.csv", Some("migrate.pre_sweep=crash"), false);
    assert!(!out.status.success(), "migrate.pre_sweep: ingest should have died");
    assert_eq!(live_state(&dir).1.seq, 1, "the one-shard manifest is committed");
    assert!(dir.join("model.rnv.shard1").exists(), "the crash landed after the sweep");
    assert_eq!(migrated_state(&dir), control, "crash at migrate.pre_sweep");

    // Shard 0's log will not open (a flipped header byte): shard 1's
    // log holds the full batch and rebuilds shard 0's row of it, and the
    // migrated layout starts healthy (the ingest of batch2 succeeds).
    let dir = two_shard_copy("migrate-bad-sibling", "ingested");
    let wal = dir.join("model.rnv.shard0.wal");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[9] ^= 0xff;
    std::fs::write(&wal, &bytes).unwrap();
    assert_eq!(migrated_state(&dir), control, "unreadable shard-0 log");

    // The compaction after batch1 crashed between the shard snapshots:
    // shard 0's snapshot is ahead of the manifest and holds batch1's
    // Palermo row, which replay must not apply twice.
    let dir = two_shard_copy("migrate-mid-compaction", "mid_compaction");
    assert_eq!(migrated_state(&dir), control, "mid-compaction layout");
}

/// The read-only load (`inspect`, `serve` without `--wal`, `tune`)
/// reads a two-shard layout as it is and writes nothing.
#[test]
fn a_two_shard_layout_loads_read_only_as_it_is() {
    let dir = two_shard_copy("read-only", "mid_compaction");
    let before = two_shard_bytes(&dir);
    let out = bin().current_dir(&dir).args(["inspect", "model.rnv"]).output().unwrap();
    assert_ok(&out, "inspect");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("  tuples:      10\n"), "{stdout}");
    assert!(stdout.contains("  seq:         1\n"), "{stdout}");
    assert!(stdout.contains("2 shards (migrated on the next durable open)"), "{stdout}");
    assert!(stdout.contains("(batches past seq 0)"), "{stdout}");
    assert!(two_shard_bytes(&dir) == before, "a read-only load wrote to the layout");
}
