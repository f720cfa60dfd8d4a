//! Ablation of the design choices DESIGN.md pins where the paper
//! contradicts itself — cluster visiting order (Algorithm 2 line 1 says
//! descending, §5(b) and Figure 1 go ascending) and verification scope
//! (Algorithm 4's LHS-only check vs Definition 4.3's `r' ⊨ Σ`) — plus key
//! re-evaluation, a per-cluster candidate cap, and the cell visiting
//! order. Every configuration imputes the same Restaurant instance (RFD
//! threshold limit 15, 3% missing, injection seed 1); the table pairs each
//! one's median wall time with its effect on quality.
//!
//! Run with `cargo run -p renuver-bench --release --bin ablation`
//! (`--quick` takes 3 timing runs per configuration instead of 7). The
//! committed output is `results/ablation.txt`.

use renuver_bench::{
    available_cores, median_ms, print_header, print_row, quick_mode, rfds_for, DATA_SEED,
};
use renuver_core::{ClusterOrder, ImputationOrder, Renuver, RenuverConfig, VerifyScope};
use renuver_datasets::Dataset;
use renuver_eval::inject;

fn configs() -> Vec<(&'static str, RenuverConfig)> {
    vec![
        ("paper_default", RenuverConfig::default()),
        (
            "clusters_descending",
            RenuverConfig {
                cluster_order: ClusterOrder::Descending,
                ..RenuverConfig::default()
            },
        ),
        (
            "verify_full_sigma",
            RenuverConfig { verify_scope: VerifyScope::Full, ..RenuverConfig::default() },
        ),
        (
            "no_key_reactivation",
            RenuverConfig { skip_key_reevaluation: true, ..RenuverConfig::default() },
        ),
        (
            "candidate_cap_8",
            RenuverConfig {
                max_candidates_per_cluster: Some(8),
                ..RenuverConfig::default()
            },
        ),
        (
            "column_major_order",
            RenuverConfig {
                imputation_order: ImputationOrder::ColumnMajor,
                ..RenuverConfig::default()
            },
        ),
        (
            "fewest_missing_first",
            RenuverConfig {
                imputation_order: ImputationOrder::FewestMissingFirst,
                ..RenuverConfig::default()
            },
        ),
    ]
}

fn main() {
    let runs = if quick_mode() { 3 } else { 7 };
    let ds = Dataset::Restaurant;
    let rfds = rfds_for(ds, 15.0);
    let (incomplete, _) = inject(&ds.relation(DATA_SEED), 0.03, 1);
    println!(
        "Ablation: {} (limit 15, {} RFDs), 3% missing (inject seed 1); \
         median of {runs} runs on {} core(s)\n",
        ds.name(),
        rfds.len(),
        available_cores()
    );
    let widths = [20, 9, 17, 8];
    print_header(&["configuration", "median ms", "imputed / missing", "rejected"], &widths);
    for (name, config) in configs() {
        let engine = Renuver::new(config);
        let mut result = None;
        let ms = median_ms(runs, || result = Some(engine.impute(&incomplete, &rfds)));
        let stats = result.expect("median_ms runs at least once").stats;
        print_row(
            &[
                name.to_string(),
                format!("{ms:.1}"),
                format!("{} / {}", stats.imputed, stats.missing_total),
                stats.verification_failures.to_string(),
            ],
            &widths,
        );
    }
}
