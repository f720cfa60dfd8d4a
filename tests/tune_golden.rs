//! Golden pins for threshold tuning: on fixed inputs, the stop reason,
//! the iteration count, the best iteration, and a 64-bit FNV-1a digest of
//! a timing-free rendering of the whole report — every iteration's
//! scores (as `f64` bits), work counters, work deltas and threshold
//! moves, then the tuned RFD text. Any change to the tune loop, the
//! imputation it runs or the scoring that alters one decision fails
//! here, so a faster loop can prove it left every tuned RFD
//! byte-identical.

use std::fmt::Write as _;

use renuver::data::{csv, Relation};
use renuver::datasets::restaurant;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::{Constraint, Rfd, RfdSet};
use renuver::tune::{tune, TuneConfig, TuneReport};

/// 64-bit FNV-1a: a digest that is stable across builds and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything the report decides, without its wall-clock fields
/// (`elapsed`, phase times).
fn render(report: &TuneReport, rel: &Relation) -> String {
    let mut out = String::new();
    for it in &report.iterations {
        let s = &it.scores;
        let w = &it.work;
        let d = &it.diff;
        let _ = writeln!(
            out,
            "iter {} scores {:x} {:x} {:x} {} {} {} work {} {} {} {} {} diff {} {} {} {} {}",
            it.iter,
            s.precision.to_bits(),
            s.recall.to_bits(),
            s.f1.to_bits(),
            s.missing,
            s.imputed,
            s.correct,
            w.candidates_scored,
            w.verifications,
            w.oracle_hits,
            w.clusters_visited,
            w.imputed,
            d.d_candidates_scored,
            d.d_verifications,
            d.d_oracle_hits,
            d.d_clusters_visited,
            d.d_imputed,
        );
        for mv in &it.moves {
            let _ = writeln!(
                out,
                "  move {} {:x} {:x}",
                mv.attr,
                mv.old.to_bits(),
                mv.new.to_bits()
            );
        }
    }
    out.push_str(&report.tuned.to_text(rel.schema()));
    out
}

/// Tunes and compares `(stop, iterations, best_iter, digest)` with its pin.
fn check(
    case: &str,
    rel: &Relation,
    rfds: &RfdSet,
    cfg: &TuneConfig,
    pin: (&str, usize, usize, u64),
) {
    let report = tune(rel, rfds, cfg);
    let digest = fnv1a(render(&report, rel).as_bytes());
    let got = (
        report.stop.label(),
        report.iterations.len(),
        report.best_iter,
        digest,
    );
    assert_eq!(
        got, pin,
        "{case}: got ({:?}, {}, {}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}

/// The `bench_tune` fixture: Restaurant at 864 rows (generator seed 11)
/// under four deliberately tight RFDs, 10% of the target cells held out.
fn fixture() -> (Relation, RfdSet) {
    let rel = restaurant::generate_n(restaurant::TUPLES, 11);
    let rfds = RfdSet::from_text(
        "Name(<=0) -> Phone(<=4)\n\
         Name(<=0) -> Address(<=6)\n\
         Phone(<=0) -> City(<=12)\n\
         Type(<=0) -> Class(<=0)",
        rel.schema(),
    )
    .unwrap();
    (rel, rfds)
}

fn fixture_config(seed: u64) -> TuneConfig {
    TuneConfig {
        seed,
        sample_rate: 0.1,
        ..TuneConfig::default()
    }
}

#[test]
fn fixture_seed_7_stops_on_a_revisit() {
    let (rel, rfds) = fixture();
    check(
        "fixture seed 7",
        &rel,
        &rfds,
        &fixture_config(7),
        ("revisited", 3, 1, 0x5953_3396_c75c_e744),
    );
}

#[test]
fn fixture_seed_5_converges() {
    let (rel, rfds) = fixture();
    check(
        "fixture seed 5",
        &rel,
        &rfds,
        &fixture_config(5),
        ("converged", 9, 8, 0xfc20_aaed_8d9c_b1c5),
    );
}

#[test]
fn restaurant_sample_with_discovered_rfds_hits_the_iteration_cap() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/restaurant_sample.csv");
    let rel = csv::read_path(path).unwrap();
    let rfds = discover(
        &rel,
        &DiscoveryConfig {
            max_lhs: 2,
            ..DiscoveryConfig::with_limit(3.0)
        },
    );
    let cfg = TuneConfig {
        seed: 42,
        max_iters: 4,
        ..TuneConfig::default()
    };
    check(
        "restaurant sample",
        &rel,
        &rfds,
        &cfg,
        ("max_iters", 4, 3, 0x478b_ab72_b28e_ef0f),
    );
}

#[test]
fn twin_fixture_reaches_a_lowered_target() {
    // Every row has a twin two edits away sharing its Zip: widening
    // Name's threshold to 2 turns the twins into donors.
    let mut text = String::from("Name:text,Zip:text\n");
    for i in 0..12 {
        let base = String::from(char::from(b'a' + i as u8)).repeat(8);
        text.push_str(&format!("{base},z-{i:02}\n{base} 2,z-{i:02}\n"));
    }
    let rel = csv::read_str(&text).unwrap();
    let rfds = RfdSet::from_vec(vec![Rfd::new(
        vec![Constraint::new(0, 0.0)],
        Constraint::new(1, 0.0),
    )]);
    let cfg = TuneConfig {
        seed: 3,
        target_f1: 0.6,
        ..TuneConfig::default()
    };
    check(
        "twin target",
        &rel,
        &rfds,
        &cfg,
        ("target", 3, 2, 0x35bf_be3c_8086_d98f),
    );
}

#[test]
fn parallelism_leaves_the_report_unchanged() {
    let (rel, rfds) = fixture();
    for parallelism in [1, 2] {
        let cfg = TuneConfig {
            parallelism,
            ..fixture_config(7)
        };
        check(
            &format!("fixture seed 7 at parallelism {parallelism}"),
            &rel,
            &rfds,
            &cfg,
            ("revisited", 3, 1, 0x5953_3396_c75c_e744),
        );
    }
}
