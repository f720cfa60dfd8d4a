//! Measures the durable write path and the incremental-append speedup
//! it rides on, writing results to `BENCH_ingest.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_ingest`
//! (`--quick` shrinks the fixture, `--out <path>` overrides the output
//! file). Three questions, one fixture (the synthetic shop relation):
//!
//! 1. **Incremental vs rebuild** — growing a prepared engine by a batch
//!    through [`Engine::commit_tuples`] vs rebuilding the oracle/index
//!    from scratch on the extended relation. This is the algorithmic
//!    claim behind `/v1/ingest`: the rebuild is quadratic in the
//!    dictionary, the append touches only the new rows' values.
//! 2. **WAL overhead** — `Registry::ingest` of the same batch on a
//!    durable registry (the CRC-framed, fsynced WAL write in front of
//!    the commit, as `renuver ingest` and the server run it) vs on an
//!    in-memory registry. The delta is the durability tax.
//! 3. **Recovery** — reopening a durable registry whose log holds many
//!    small records (snapshot read plus replay), plus one compaction:
//!    the cold-restart cost an operator actually waits on.

use std::path::Path;

use renuver_bench::{
    available_cores, median, median_ms, out_path, quick_mode, synthetic_shops, time_ms,
    write_bench_json,
};
use renuver_core::{Engine, RenuverConfig};
use renuver_data::{Relation, Tuple};
use renuver_rfd::{Constraint, Rfd, RfdSet};
use renuver_serve::{artifact, DurabilityOptions, RecoveryReport, Registry, Wal};

fn sigma() -> RfdSet {
    // The planted City→Zip / Zip→City dependencies of the fixture.
    RfdSet::from_vec(vec![
        Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
        Rfd::new(vec![Constraint::new(2, 0.0)], Constraint::new(1, 0.0)),
    ])
}

fn split(rel: &Relation, base_rows: usize) -> (Relation, Vec<Tuple>) {
    let base: Vec<Tuple> = rel.tuples().take(base_rows).cloned().collect();
    let rest: Vec<Tuple> = rel.tuples().skip(base_rows).cloned().collect();
    (Relation::new(rel.schema().clone(), base).unwrap(), rest)
}

/// Opens the durable registry beside `model` (writing its layout on the
/// first open, recovering it afterwards).
fn open(model: &Path, config: &RenuverConfig) -> (Registry, RecoveryReport) {
    let opts = DurabilityOptions::beside(model, "bench");
    Registry::open_durable(
        artifact::load(model).unwrap(),
        config.clone(),
        1,
        opts.layout,
        "bench",
        opts.compact_bytes,
        opts.compact_records,
    )
    .unwrap()
}

/// Median milliseconds of `timed` over `runs`, each run on fresh state
/// from the untimed `setup`.
fn median_timed<S>(runs: usize, mut setup: impl FnMut() -> S, mut timed: impl FnMut(S)) -> f64 {
    let samples = (0..runs)
        .map(|_| {
            let state = setup();
            time_ms(|| timed(state))
        })
        .collect();
    median(samples)
}

fn main() {
    let quick = quick_mode();
    let (rows, batch_rows, runs, wal_records) =
        if quick { (800, 40, 3, 20) } else { (5000, 250, 5, 200) };
    let full = synthetic_shops(rows);
    let base_rows = rows - batch_rows;
    let (base, batch) = split(&full, base_rows);
    let config = RenuverConfig::default();

    // 1. Incremental append vs full rebuild for one batch. Engine is
    // not Clone, so each run gets a faithful copy via the artifact
    // round-trip; the decode cost is identical across the measurements
    // being compared, so deltas and ratios are still meaningful.
    let prepared = Engine::prepare(base, sigma(), config.clone());
    let bytes = artifact::encode_engine(&prepared, "bench", 0);
    let commit_only_ms = median_ms(runs, || {
        let mut e = artifact::decode(&bytes).unwrap().into_engine(config.clone());
        let _ = e.commit_tuples(batch.clone()).unwrap();
    });
    let rebuild_ms = median_ms(runs, || {
        drop(Engine::prepare(full.clone(), sigma(), config.clone()));
    });

    // 2. The durability tax: the same batch through `Registry::ingest`,
    // with and without the WAL in front of the commit.
    let dir = std::env::temp_dir().join(format!("renuver-bench-ingest-{}", std::process::id()));
    let model = dir.join("model.rnv");
    let fresh_layout = || {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&model, &bytes).unwrap();
        open(&model, &config).0
    };
    let durable_ms = median_timed(runs, fresh_layout, |reg| {
        reg.ingest(batch.clone(), &config).unwrap();
    });
    let in_memory_ms = median_timed(
        runs,
        || Registry::from_engine(artifact::decode(&bytes).unwrap().into_engine(config.clone())),
        |reg| {
            reg.ingest(batch.clone(), &config).unwrap();
        },
    );

    // 3. Cold recovery: `wal_records` one-row records in the WAL,
    // replayed on reopen (which also folds them into the snapshot),
    // then one compaction of the recovered registry.
    let logged_layout = || {
        let schema_fp = fresh_layout().schema_fp();
        let wal_path = renuver_serve::ShardLayout::beside(&model).shard_wal(0, 0);
        let (mut wal, _) = Wal::open(wal_path, schema_fp, 0, full.arity()).unwrap();
        for t in batch.iter().cycle().take(wal_records) {
            wal.append(std::slice::from_ref(t)).unwrap();
        }
    };
    let replay_ms = median_timed(runs, logged_layout, |()| {
        let (_, report) = open(&model, &config);
        assert_eq!(report.replayed, wal_records);
    });
    let compact_ms = median_timed(runs, || open(&model, &config).0, |reg| {
        reg.compact().unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);

    let batch_per_s = |ms: f64| if ms > 0.0 { batch_rows as f64 / (ms / 1e3) } else { 0.0 };
    let json = format!(
        "{{\n  \"rows\": {rows},\n  \"machine_cores\": {},\n  \"batch_rows\": {batch_rows},\n  \"runs_per_measurement\": {runs},\n  \
         \"append\": {{\n    \"commit_ms\": {commit_only_ms:.3},\n    \"commit_rows_per_s\": {:.1},\n    \
         \"rebuild_ms\": {rebuild_ms:.3},\n    \"speedup_vs_rebuild\": {:.3}\n  }},\n  \
         \"durability\": {{\n    \"ingest_ms\": {in_memory_ms:.3},\n    \
         \"wal_ingest_ms\": {durable_ms:.3},\n    \"overhead_ms\": {:.3}\n  }},\n  \
         \"recovery\": {{\n    \"wal_records\": {wal_records},\n    \"replay_ms\": {replay_ms:.3},\n    \
         \"records_per_s\": {:.1},\n    \"compact_ms\": {compact_ms:.3}\n  }}\n}}\n",
        available_cores(),
        batch_per_s(commit_only_ms),
        if commit_only_ms > 0.0 { rebuild_ms / commit_only_ms } else { 0.0 },
        (durable_ms - in_memory_ms).max(0.0),
        if replay_ms > 0.0 { wal_records as f64 / (replay_ms / 1e3) } else { 0.0 },
    );
    write_bench_json(&out_path("BENCH_ingest.json"), &json);
}
