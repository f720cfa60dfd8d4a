//! Measures metadata discovery — RFD discovery per paper dataset at the
//! lowest and highest threshold limits, its scaling with the tuple count,
//! DC discovery for the Holoclean baseline, and the Pareto-skyline search
//! against the brute-force reference — and writes the results to
//! `BENCH_discovery.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_discovery`
//! (`--quick` takes 3 runs per measurement instead of 7, `--out <path>`
//! overrides the output file). Discovery spreads its text columns'
//! distance fills and its lattice cells over every available core, so
//! `machine_cores` belongs with the timings. Each RFD row also splits one
//! traced run into its two layers: `patterns_ms` (the `rfd::patterns`
//! span, the pair scan that builds the pattern table) and `lattice_ms`
//! (the `rfd::lattice` span, the skyline search over it). The
//! skyline/naive pair runs on one thread, and the run asserts that both
//! produce an equivalent maximal RFD set.

use renuver_bench::{
    available_cores, discovery_config, median_ms, out_path, quick_mode, write_bench_json,
    DATA_SEED,
};
use renuver_data::{AttrType, Relation, Schema, Value};
use renuver_datasets::{physician, Dataset};
use renuver_dc::{discover_dcs, DcDiscoveryConfig};
use renuver_obs::{FieldValue, Tracer};
use renuver_rfd::discovery::{discover, DiscoveryConfig};
use renuver_rfd::naive::{discover_naive, NaiveConfig};
use renuver_rfd::RfdSet;

fn main() {
    let cores = available_cores();
    let runs = if quick_mode() { 3 } else { 7 };

    let mut rfd = Vec::new();
    for ds in Dataset::all() {
        let rel = ds.relation(DATA_SEED);
        for limit in [3.0, 15.0] {
            rfd.push(time_rfd_discovery(ds.name(), &rel, limit, runs));
        }
    }
    // The first three Physician rungs of Table 5 (limit 3).
    let scaling: Vec<String> = [104, 208, 1036]
        .into_iter()
        .map(|n| time_rfd_discovery("Physician", &physician::generate(n, DATA_SEED), 3.0, runs))
        .collect();
    let dc: Vec<String> = [Dataset::Restaurant, Dataset::Glass]
        .into_iter()
        .map(|ds| {
            let rel = ds.relation(DATA_SEED);
            let mut dcs = 0;
            let ms = median_ms(runs, || {
                dcs = discover_dcs(&rel, &DcDiscoveryConfig::default()).len()
            });
            format!(
                "{{\"dataset\": \"{}\", \"rows\": {}, \"dcs\": {dcs}, \"median_ms\": {ms:.3}}}",
                ds.name(),
                rel.len()
            )
        })
        .collect();

    // The skyline search against the brute-force reference, on an input
    // small enough for the reference to finish (12 tuples, 3 attributes,
    // grid limit 3, LHS ≤ 2).
    let toy = toy_relation();
    let cfg = DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(3.0) };
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (mut skyline, mut naive) = (RfdSet::new(), RfdSet::new());
    let skyline_ms = median_ms(runs, || skyline = one_thread.install(|| discover(&toy, &cfg)));
    let naive_ms = median_ms(runs, || naive = discover_naive(&toy, &NaiveConfig::new(3, 2)));
    let covered = |x: &RfdSet, y: &RfdSet| x.iter().all(|rx| y.iter().any(|ry| ry.implies(rx)));
    assert!(
        covered(&skyline, &naive) && covered(&naive, &skyline),
        "skyline and naive frontiers differ\nskyline:\n{}naive:\n{}",
        skyline.to_text(toy.schema()),
        naive.to_text(toy.schema())
    );

    let json = format!(
        "{{\n  \
         \"machine_cores\": {cores},\n  \
         \"runs_per_measurement\": {runs},\n  \
         \"max_lhs\": {},\n  \
         \"rfd_discovery\": [\n    {}\n  ],\n  \
         \"rfd_discovery_scaling\": [\n    {}\n  ],\n  \
         \"dc_discovery\": [\n    {}\n  ],\n  \
         \"skyline_vs_naive\": {{\n    \
         \"rows\": {},\n    \
         \"limit\": 3,\n    \
         \"rfds_skyline\": {},\n    \
         \"rfds_naive\": {},\n    \
         \"skyline_ms\": {skyline_ms:.3},\n    \
         \"naive_ms\": {naive_ms:.3},\n    \
         \"speedup\": {:.1}\n  }}\n}}\n",
        discovery_config(3.0).max_lhs,
        rfd.join(",\n    "),
        scaling.join(",\n    "),
        dc.join(",\n    "),
        toy.len(),
        skyline.len(),
        naive.len(),
        naive_ms / skyline_ms,
    );
    write_bench_json(&out_path("BENCH_discovery.json"), &json);
}

/// Median time of [`discover`] under the bench's discovery settings, as a
/// JSON object with the size of the frontier it found and the per-layer
/// split of one extra traced run.
fn time_rfd_discovery(name: &str, rel: &Relation, limit: f64, runs: usize) -> String {
    let cfg = discovery_config(limit);
    let mut rfds = 0;
    let ms = median_ms(runs, || rfds = discover(rel, &cfg).len());
    let tracer = Tracer::enabled();
    discover(rel, &DiscoveryConfig { tracer: tracer.clone(), ..cfg });
    let span_ms = |label: &'static str| {
        let us: u64 = tracer
            .records()
            .iter()
            .filter(|r| r.kind == "span")
            .filter(|r| r.fields.contains(&("label", FieldValue::Str(label))))
            .filter_map(|r| match r.fields.iter().find(|(k, _)| *k == "dur_us") {
                Some((_, FieldValue::U64(us))) => Some(*us),
                _ => None,
            })
            .sum();
        us as f64 / 1e3
    };
    format!(
        "{{\"dataset\": \"{name}\", \"rows\": {}, \"limit\": {limit}, \"rfds\": {rfds}, \
         \"median_ms\": {ms:.3}, \"patterns_ms\": {:.3}, \"lattice_ms\": {:.3}}}",
        rel.len(),
        span_ms("rfd::patterns"),
        span_ms("rfd::lattice"),
    )
}

fn toy_relation() -> Relation {
    let schema =
        Schema::new([("A", AttrType::Int), ("B", AttrType::Int), ("C", AttrType::Int)]).unwrap();
    let rows: Vec<_> = (0..12i64)
        .map(|i| vec![Value::Int(i % 5), Value::Int(i % 3 * 4), Value::Int(i)])
        .collect();
    Relation::new(schema, rows).unwrap()
}
