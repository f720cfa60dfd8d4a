//! Golden pins for RFD discovery: the frontier that `discover` emits on
//! fixed inputs, pinned as its size and a 64-bit FNV-1a digest of
//! `RfdSet::to_text`. Any change to the pattern table, the lattice search
//! or the pruning that alters Σ on these inputs fails here, so a speed-up
//! of discovery can prove it left the output byte-identical.
//!
//! The two sampled cases (above `DiscoveryConfig::max_pairs` tuple pairs)
//! pin today's seeded pair sample; they are expected to change when
//! discovery stops sampling.

use renuver::data::Relation;
use renuver::datasets::{physician, restaurant, Dataset};
use renuver::eval::inject;
use renuver::rfd::discovery::{auto_limits, discover, DiscoveryConfig};

/// Generation seed of every pinned dataset.
const SEED: u64 = 42;

/// 64-bit FNV-1a: a digest that is stable across builds and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn config(limit: f64) -> DiscoveryConfig {
    DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(limit) }
}

/// Discovers on `rel` and compares the frontier with its pin.
fn check(case: &str, rel: &Relation, cfg: &DiscoveryConfig, rfds: usize, digest: u64) {
    let text = discover(rel, cfg).to_text(rel.schema());
    let got = (text.lines().count(), fnv1a(text.as_bytes()));
    assert_eq!(got, (rfds, digest), "{case}: got ({}, {:#018x})", got.0, got.1);
}

fn paper_dataset(ds: Dataset, pins: [(usize, u64); 2]) {
    let rel = ds.relation(SEED);
    for (limit, (rfds, digest)) in [3.0, 15.0].into_iter().zip(pins) {
        check(&format!("{} limit {limit}", ds.name()), &rel, &config(limit), rfds, digest);
    }
}

#[test]
fn restaurant_frontiers_are_pinned() {
    paper_dataset(Dataset::Restaurant, [(26, 0x2418_4aa9_18e2_9d1e), (211, 0x842c_7a13_d631_4f1d)]);
}

#[test]
fn cars_frontiers_are_pinned() {
    paper_dataset(Dataset::Cars, [(142, 0x1f09_2bf8_f3b6_8356), (479, 0x4743_957a_3ddb_4a9c)]);
}

#[test]
fn glass_frontiers_are_pinned() {
    paper_dataset(Dataset::Glass, [(349, 0x43e9_e0b3_de49_23a6), (490, 0x62ec_9da3_c9c4_af94)]);
}

#[test]
fn bridges_frontiers_are_pinned() {
    paper_dataset(Dataset::Bridges, [(161, 0x2451_7808_9ba3_e40a), (377, 0x6680_7ebf_3fb7_af07)]);
}

#[test]
fn restaurant_with_holes_frontier_is_pinned() {
    // Nulls quantize to MISSING, which never satisfies an LHS and never
    // witnesses a violation.
    let (holes, _) = inject(&Dataset::Restaurant.relation(SEED), 0.05, 1);
    check("Restaurant 5% holes limit 3", &holes, &config(3.0), 23, 0xfbd8_935a_b6a6_753e);
}

#[test]
fn cars_with_auto_limits_frontier_is_pinned() {
    let rel = Dataset::Cars.relation(SEED);
    let cfg = DiscoveryConfig { per_attr_limits: Some(auto_limits(&rel, 0.05)), ..config(3.0) };
    check("Cars auto limits 0.05", &rel, &cfg, 90, 0x8ff2_414a_87d3_1969);
}

#[test]
fn sampled_physician_frontier_is_pinned() {
    // 1,036 rows: 536,130 tuple pairs, above the 400,000-pair cap.
    let rel = physician::generate(1036, SEED);
    check("Physician 1036 rows limit 3", &rel, &config(3.0), 349, 0x1983_07b9_d2f9_64e2);
}

#[test]
fn sampled_serve_model_frontier_is_pinned() {
    // The first 5,000 rows of a 6,000-row Restaurant relation: the
    // serving benchmark's model, whose Address and Phone dictionaries hold
    // more value pairs than the sample visits.
    let full = restaurant::generate_n(6000, SEED);
    let rows = full.tuples().take(5000).cloned().collect();
    let rel = Relation::new(full.schema().clone(), rows).unwrap();
    check("serve model limit 3", &rel, &config(3.0), 19, 0x59c9_1d21_0ddc_9a81);
}
