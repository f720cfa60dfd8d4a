//! Integration tests for the `renuver` command-line binary: the full
//! stats → discover → inject → impute → evaluate loop over temp files.

use std::path::PathBuf;
use std::process::Command;

const DATA: &str = "\
City:text,Zip:text,Pop:int
Salerno,84084,130000
Salerno,84084,130000
Milano,20121,1350000
Milano,20121,1350000
Roma,00184,2870000
Roma,00184,2870000
";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_renuver"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("renuver-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_through_the_cli() {
    let dir = tempdir("pipeline");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();

    // stats
    let out = bin().arg("stats").arg(&data).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("tuples:  6"), "{stdout}");

    // discover
    let rfds = dir.join("rfds.txt");
    let out = bin()
        .args(["discover"])
        .arg(&data)
        .args(["--limit", "3", "--out"])
        .arg(&rfds)
        .output()
        .unwrap();
    assert!(out.status.success());
    let rfd_text = std::fs::read_to_string(&rfds).unwrap();
    assert!(rfd_text.contains("→"), "{rfd_text}");

    // inject
    let holes = dir.join("holes.csv");
    let out = bin()
        .arg("inject")
        .arg(&data)
        .args(["--rate", "0.2", "--seed", "1", "--out"])
        .arg(&holes)
        .output()
        .unwrap();
    assert!(out.status.success());

    // impute
    let fixed = dir.join("fixed.csv");
    let out = bin()
        .arg("impute")
        .arg(&holes)
        .arg("--rfds")
        .arg(&rfds)
        .arg("--out")
        .arg(&fixed)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // evaluate: the duplicated tuples make every cell perfectly imputable.
    let out = bin()
        .arg("evaluate")
        .arg("--original")
        .arg(&data)
        .arg("--incomplete")
        .arg(&holes)
        .arg("--imputed")
        .arg(&fixed)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("precision: 1.000"), "{stdout}");
    assert!(stdout.contains("recall:    1.000"), "{stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command \"frobnicate\""), "{stderr}");
    // The error names every valid subcommand so a typo is self-correcting.
    for cmd in [
        "stats", "audit", "discover", "inject", "impute", "evaluate", "compare", "tune",
        "prepare", "inspect", "serve",
    ] {
        assert!(stderr.contains(cmd), "missing {cmd} in: {stderr}");
    }
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn prepare_inspect_serve_round_trip() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = tempdir("serve");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();

    // prepare: dataset → .rnv artifact (discovery runs, no --rfds).
    let model = dir.join("model.rnv");
    let out = bin()
        .arg("prepare")
        .arg(&data)
        .args(["--limit", "3"])
        .arg("-o")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("6 tuples"), "{stdout}");

    // inspect: summarizes without loading an engine.
    let out = bin().arg("inspect").arg(&model).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["format:      v2", "tuples:      6", "City: text", "Pop: int"] {
        assert!(stdout.contains(needle), "missing {needle:?} in: {stdout}");
    }

    // inspect rejects a non-artifact cleanly.
    let out = bin().arg("inspect").arg(&data).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"), "stderr should name the bad magic");

    // serve: artifact → listening server; exercise it over loopback and
    // shut it down with SIGTERM, which must exit 0 (graceful drain).
    let mut child = bin()
        .arg("serve")
        .arg(&model)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("listening on"), "{line}");
    let addr: std::net::SocketAddr = line
        .split_whitespace()
        .find_map(|tok| tok.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let body = r#"{"tuples": [["Salerno", null, 130000]]}"#;
    write!(
        stream,
        "POST /v1/impute HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut resp = String::new();
    BufReader::new(stream).read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("84084"), "{resp}");

    assert!(Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .unwrap()
        .success());
    let status = child.wait().unwrap();
    assert!(status.success(), "SIGTERM must drain and exit 0, got {status:?}");
}

#[test]
fn trace_out_writes_a_schema_listed_jsonl_file() {
    let dir = tempdir("trace");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();
    let holes = dir.join("holes.csv");
    assert!(bin()
        .arg("inject")
        .arg(&data)
        .args(["--rate", "0.2", "--seed", "1", "--out"])
        .arg(&holes)
        .status()
        .unwrap()
        .success());
    let trace = dir.join("run.jsonl");
    let out = bin()
        .arg("impute")
        .arg(&holes)
        .args(["--limit", "3", "--out", "/dev/null", "--metrics", "--trace-out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("trace: wrote"), "{stderr}");
    // --metrics prints the counter table.
    assert!(stderr.contains("core.cells_imputed"), "{stderr}");
    let text = std::fs::read_to_string(&trace).unwrap();
    for kind in ["run_start", "cell", "span", "run_end", "metrics"] {
        assert!(text.contains(&format!("\"kind\":\"{kind}\"")), "missing {kind}:\n{text}");
    }

    // The trace flags are renuver-pipeline-only: baselines reject them.
    let out = bin()
        .arg("impute")
        .arg(&holes)
        .args(["--approach", "knn", "--metrics"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("renuver pipeline only"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = bin().args(["stats", "/nonexistent/nope.csv"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn inject_validates_rate() {
    let dir = tempdir("rate");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();
    let out = bin()
        .arg("inject")
        .arg(&data)
        .args(["--rate", "7", "--out", "/tmp/x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rate"));
}

#[test]
fn impute_with_donor_file() {
    let dir = tempdir("donors");
    let target = dir.join("target.csv");
    std::fs::write(&target, "City:text,Zip:text\nSalerno,\n").unwrap();
    let donor = dir.join("donor.csv");
    std::fs::write(&donor, "City:text,Zip:text\nSalerno,84084\n").unwrap();
    let rfds = dir.join("rfds.txt");
    std::fs::write(&rfds, "City(<=0) -> Zip(<=0)\n").unwrap();
    let out = bin()
        .arg("impute")
        .arg(&target)
        .arg("--rfds")
        .arg(&rfds)
        .arg("--donors")
        .arg(&donor)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("84084"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("imputed 1/1"));
}

#[test]
fn approach_flag_selects_baselines() {
    let dir = tempdir("approach");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();
    let holes = dir.join("holes.csv");
    assert!(bin()
        .arg("inject")
        .arg(&data)
        .args(["--rate", "0.15", "--seed", "4", "--out"])
        .arg(&holes)
        .status()
        .unwrap()
        .success());
    for approach in ["knn", "holoclean", "derand", "renuver"] {
        let out = bin()
            .arg("impute")
            .arg(&holes)
            .args(["--approach", approach, "--limit", "3", "--out", "/dev/null"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{approach}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("imputed"), "{approach}: {stderr}");
    }
    let out = bin()
        .arg("impute")
        .arg(&holes)
        .args(["--approach", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn audit_detects_violations() {
    let dir = tempdir("audit");
    let data = dir.join("bad.csv");
    std::fs::write(
        &data,
        "City:text,Zip:text\nSalerno,84084\nSalerno,99999\n",
    )
    .unwrap();
    let rfds = dir.join("rfds.txt");
    std::fs::write(&rfds, "City(<=0) -> Zip(<=0)\n").unwrap();
    let out = bin().arg("audit").arg(&data).arg("--rfds").arg(&rfds).output().unwrap();
    assert!(!out.status.success()); // violations → non-zero exit
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("VIOLATED"), "{stdout}");

    let clean = dir.join("good.csv");
    std::fs::write(&clean, "City:text,Zip:text\nSalerno,84084\nMilano,20121\n").unwrap();
    let out = bin().arg("audit").arg(&clean).arg("--rfds").arg(&rfds).output().unwrap();
    assert!(out.status.success());
}

#[test]
fn compare_runs_all_approaches() {
    let dir = tempdir("compare");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();
    let out = bin()
        .arg("compare")
        .arg(&data)
        .args(["--rate", "0.2", "--limit", "3", "--seeds", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["RENUVER", "Derand", "Holoclean", "kNN"] {
        assert!(stdout.contains(name), "{stdout}");
    }
    // An incomplete input is rejected with a clear message.
    let holes = dir.join("holes.csv");
    std::fs::write(&holes, "A:int\n1\n_\n").unwrap();
    let out = bin().arg("compare").arg(&holes).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("complete instance"));
}

#[test]
fn compare_metrics_diff_renders_the_delta_table() {
    let dir = tempdir("metrics-diff");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();
    let out = bin()
        .arg("compare")
        .arg(&data)
        .args(["--rate", "0.2", "--limit", "3", "--seeds", "2", "--metrics-diff"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The rendered table is pinned: the shared MetricsDiff engine's
    // header, the reference line, and one row per approach.
    assert!(stdout.contains("work deltas vs RENUVER:"), "{stdout}");
    let header = "variant       Δcandidates  Δverifications  Δoracle-hits  Δclusters  Δimputed  Δphases (us)";
    assert!(stdout.contains(header), "{stdout}");
    let table: Vec<&str> = stdout.lines().skip_while(|l| !l.starts_with("variant")).collect();
    assert_eq!(table.len(), 5, "header + 4 approach rows: {stdout}");
    // The reference row diffs against itself: all-zero deltas.
    let renuver_row = table[1];
    assert!(renuver_row.starts_with("RENUVER"), "{renuver_row}");
    for field in renuver_row.split_whitespace().skip(1).take(5) {
        assert_eq!(field, "0", "{renuver_row}");
    }
    for name in ["Derand", "Holoclean", "kNN"] {
        assert!(table.iter().any(|row| row.starts_with(name)), "{stdout}");
    }
}

#[test]
fn tune_improves_thresholds_and_writes_them() {
    // Twin rows: names two edits apart sharing a Zip. At the discovery
    // threshold a masked Zip has no donor; tuning widens until it does.
    let mut data = String::from("Name:text,Zip:text\n");
    for i in 0..8u8 {
        let c = (b'a' + i) as char;
        let name = String::from(c).repeat(4);
        data.push_str(&format!("{name},zip-{c}\n{name} 2,zip-{c}\n"));
    }
    let dir = tempdir("tune");
    let path = dir.join("twins.csv");
    std::fs::write(&path, &data).unwrap();
    let rfds = dir.join("rfds.txt");
    std::fs::write(&rfds, "Name(≤0) → Zip(≤0)\n").unwrap();

    let tuned = dir.join("tuned.txt");
    let out = bin()
        .arg("tune")
        .arg(&path)
        .args(["--seed", "7", "--rfds"])
        .arg(&rfds)
        .arg("--out")
        .arg(&tuned)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("stop:"), "{stderr}");
    let tuned_text = std::fs::read_to_string(&tuned).unwrap();
    assert_ne!(tuned_text, "Name(≤0) → Zip(≤0)\n", "tuning must widen the LHS");
    assert!(tuned_text.contains("→ Zip(≤0)"), "RHS must stay put: {tuned_text}");
}

#[test]
fn impute_discovers_when_no_rfds_given() {
    let dir = tempdir("disc");
    let data = dir.join("data.csv");
    std::fs::write(&data, DATA).unwrap();
    let holes = dir.join("holes.csv");
    assert!(bin()
        .arg("inject")
        .arg(&data)
        .args(["--rate", "0.1", "--seed", "2", "--out"])
        .arg(&holes)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .arg("impute")
        .arg(&holes)
        .args(["--limit", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("discovering"), "{stderr}");
    // Output CSV lands on stdout when --out is absent.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("City:text"), "{stdout}");
}

#[test]
fn ingest_coerces_an_untyped_batch_header_like_a_typed_one() {
    // A batch CSV may leave out the type annotations; its columns then read
    // as text and are coerced to the model's types. Both batches must
    // repair and commit the same rows, byte for byte on disk.
    let rows = "Salerno,_,130000\nNapoli,80100,960000\n";
    let mut states = Vec::new();
    for (tag, header) in [("typed", "City:text,Zip:text,Pop:int"), ("untyped", "City,Zip,Pop")] {
        let dir = tempdir(&format!("ingest-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("data.csv"), DATA).unwrap();
        std::fs::write(dir.join("batch.csv"), format!("{header}\n{rows}")).unwrap();
        let run = |args: &[&str]| {
            let out = bin().current_dir(&dir).args(args).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{tag} {args:?}: {stderr}");
            out
        };
        run(&["prepare", "data.csv", "--limit", "3", "-o", "model.rnv"]);
        let out = run(&["ingest", "model.rnv", "batch.csv", "--compact"]);
        let repaired = String::from_utf8(out.stdout).unwrap();
        assert!(repaired.contains("Salerno,84084,130000"), "{tag}: {repaired}");
        let mut layout: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("model.rnv."))
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect();
        layout.sort();
        assert!(!layout.is_empty(), "{tag}: ingest wrote no durable layout");
        states.push((repaired, layout));
    }
    assert_eq!(states[0].0, states[1].0, "the repaired batches differ");
    assert!(states[0].1 == states[1].1, "the committed layouts differ");
}
