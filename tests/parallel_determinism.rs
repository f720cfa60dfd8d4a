//! Parallel-vs-sequential equivalence: `RenuverConfig::parallelism` must
//! not change a single bit of the output.
//!
//! `parallelism` sizes only the distance oracle's matrix fill; key
//! partitioning, donor scans and verification scans run sequentially at
//! every setting. `parallelism: 1` fills the matrix on the calling
//! thread; any other setting splits its rows into chunks across a pool
//! and merges them in index order. These tests pin that contract on the
//! paper's restaurant sample and on a relation large enough (5 000 rows,
//! a dictionary far past the parallel fallback threshold) that the
//! parallel fill actually executes.

use renuver::core::{Renuver, RenuverConfig, ImputationResult};
use renuver::data::{AttrType, Relation, Schema, Value};
use renuver::datasets::Dataset;
use renuver::eval::inject;
use renuver::rfd::discovery::{discover, DiscoveryConfig};
use renuver::rfd::RfdSet;

fn run(rel: &Relation, sigma: &RfdSet, parallelism: usize) -> ImputationResult {
    let cfg = RenuverConfig { parallelism, trace: true, ..RenuverConfig::default() };
    Renuver::new(cfg).impute(rel, sigma)
}

#[test]
fn restaurant_sample_identical_across_thread_counts() {
    let rel = Dataset::Restaurant.relation(11);
    let (incomplete, _truth) = inject(&rel, 0.03, 11);
    let sigma = discover(
        &incomplete,
        &DiscoveryConfig { max_lhs: 2, ..DiscoveryConfig::with_limit(6.0) },
    );
    let sequential = run(&incomplete, &sigma, 1);
    assert!(sequential.stats.imputed > 0, "degenerate fixture: nothing imputed");
    for threads in [0, 2, 4] {
        let parallel = run(&incomplete, &sigma, threads);
        assert_eq!(sequential, parallel, "parallelism={threads} diverged");
    }
}

/// 5 000 rows with a high-cardinality text column (the oracle builds a
/// dictionary distance matrix for it in parallel) and planted RFDs.
fn synthetic_5k() -> (Relation, RfdSet) {
    let schema = Schema::new([
        ("Name", AttrType::Text),
        ("City", AttrType::Text),
        ("Zip", AttrType::Text),
        ("Class", AttrType::Int),
    ])
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..5_000usize)
        .map(|i| {
            let city_id = i % 40;
            vec![
                Value::from(format!("Shop-{:04}", i % 800).as_str()),
                Value::from(format!("City{city_id:02}").as_str()),
                Value::from(format!("9{:04}", city_id * 7).as_str()),
                Value::Int((i % 9) as i64),
            ]
        })
        .collect();
    let rel = Relation::new(schema, rows).unwrap();
    let sigma = RfdSet::from_text(
        "City(<=0) -> Zip(<=0)\n\
         Zip(<=1) -> City(<=3)\n\
         Name(<=3) -> City(<=6)\n\
         Zip(<=0) -> Class(<=8)",
        rel.schema(),
    )
    .unwrap();
    (rel, sigma)
}

#[test]
fn synthetic_5k_rows_identical_across_thread_counts() {
    let (rel, sigma) = synthetic_5k();
    let (incomplete, truth) = inject(&rel, 0.002, 23);
    assert!(truth.len() > 10, "fixture should knock out a few dozen cells");
    let sequential = run(&incomplete, &sigma, 1);
    assert!(sequential.stats.imputed > 0, "degenerate fixture: nothing imputed");
    let parallel = run(&incomplete, &sigma, 4);
    assert_eq!(sequential, parallel);
}
