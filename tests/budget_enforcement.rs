//! End-to-end budget enforcement through the CLI binary: limited runs exit
//! 0 with a non-empty partial result and explicit truncation markers, and
//! ops-limited runs are bit-for-bit reproducible.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_renuver"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("renuver-budget-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A synthetic relation wide and tall enough that full discovery or
/// imputation takes far longer than the budgets used below: four text
/// columns with overlapping-but-distinct values across `rows` rows.
fn heavy_csv(rows: usize, holes: bool) -> String {
    let mut out = String::from("A:text,B:text,C:text,D:text\n");
    for i in 0..rows {
        let d = if holes && i % 7 == 3 {
            "_".to_owned()
        } else {
            format!("d{:04}", i % 251)
        };
        out.push_str(&format!(
            "a{:03},b{:04},c{:05},{d}\n",
            i % 97,
            i % 193,
            i * 31 % 1009,
        ));
    }
    out
}

/// Like [`heavy_csv`] but with long high-entropy cells over eight text
/// columns. Discovery bounds every distance at the attribute's limit, so
/// long cells no longer make a pair expensive; the lattice over eight
/// attributes does. Full discovery on 4 000 such rows takes about 3 s in
/// a debug build on a 2-core box (the four-column version took 0.8–1.1 s
/// and raced the deadline), so a 1-second deadline trips mid-search.
fn heavy_long_csv(rows: usize) -> String {
    let mut out = String::from("A:text,B:text,C:text,D:text,E:text,F:text,G:text,H:text\n");
    for i in 0..rows {
        let pad: String = (0..10)
            .map(|k| format!("{:06}", (i * 7919 + k * 104_729 + 13) % 999_983))
            .collect();
        let cells: Vec<String> = (b'a'..=b'h')
            .zip([97, 193, 1009, 251, 61, 127, 509, 331])
            .map(|(c, m)| format!("{}{:05}{pad}", c as char, if c == b'c' { i * 31 % m } else { i % m }))
            .collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn discover_with_one_second_deadline_returns_partial_frontier() {
    let dir = tempdir("deadline");
    let data = dir.join("heavy.csv");
    std::fs::write(&data, heavy_long_csv(4000)).unwrap();
    let rfds = dir.join("rfds.txt");

    let out = bin()
        .arg("discover")
        .arg(&data)
        .args(["--limit", "5", "--max-lhs", "2", "--timeout-secs", "1", "--out"])
        .arg(&rfds)
        .output()
        .unwrap();
    // Partial results are SUCCESS, not failure.
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("truncated"), "expected a truncation marker: {stderr}");
    // The frontier found before the deadline is non-empty and parseable.
    let text = std::fs::read_to_string(&rfds).unwrap();
    assert!(
        text.lines().any(|l| !l.trim().is_empty()),
        "partial frontier should not be empty: {text:?}"
    );
}

#[test]
fn ops_limited_discovery_is_deterministic_and_exits_zero() {
    let dir = tempdir("ops-det");
    let data = dir.join("heavy.csv");
    std::fs::write(&data, heavy_csv(600, false)).unwrap();

    let run = || {
        bin()
            .arg("discover")
            .arg(&data)
            .args(["--limit", "5", "--ops-limit", "64"])
            .output()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.status.success());
    assert!(stderr_of(&a).contains("truncated"), "{}", stderr_of(&a));
    assert!(!a.stdout.is_empty(), "partial frontier should be non-empty");
    // Ops limits count deterministic checkpoints, so two runs agree byte
    // for byte — stdout (the frontier) and exit status alike.
    assert_eq!(a.stdout, b.stdout);
    assert_eq!(a.status.code(), b.status.code());
}

#[test]
fn zero_ops_imputation_reports_skipped_cells_and_writes_partial_output() {
    let dir = tempdir("impute-skip");
    let data = dir.join("holes.csv");
    std::fs::write(&data, heavy_csv(300, true)).unwrap();
    let rfds = dir.join("rfds.txt");
    // D is reconstructible from (A, B, C) at threshold 0 given enough rows;
    // hand the imputer one exact dependency so the unbudgeted path would
    // impute, then strangle the budget.
    std::fs::write(&rfds, "A(<=0), B(<=0), C(<=0) -> D(<=0)\n").unwrap();
    let repaired = dir.join("repaired.csv");

    let out = bin()
        .arg("impute")
        .arg(&data)
        .args(["--ops-limit", "0", "--rfds"])
        .arg(&rfds)
        .arg("--out")
        .arg(&repaired)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("operation limit"), "{stderr}");
    assert!(stderr.contains("cells skipped"), "{stderr}");
    // The partial relation was still written (identical to the input here:
    // every cell was skipped).
    let text = std::fs::read_to_string(&repaired).unwrap();
    assert_eq!(text.lines().count(), 301, "300 rows + header");
}

#[test]
fn unlimited_runs_print_no_budget_markers() {
    let dir = tempdir("unlimited");
    let data = dir.join("small.csv");
    std::fs::write(&data, heavy_csv(40, true)).unwrap();

    let out = bin()
        .arg("impute")
        .arg(&data)
        .args(["--limit", "1"])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(!stderr.contains("budget:"), "{stderr}");
    assert!(!stderr.contains("truncated"), "{stderr}");
}
