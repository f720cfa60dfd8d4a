//! Golden pins for the durable on-disk layout: every file a one-snapshot,
//! one-WAL registry writes beside `model.rnv`, pinned by name and by a
//! 64-bit FNV-1a digest of its bytes.
//!
//! One fixed script runs through the library API on a fresh directory:
//! the first durable open of a prepared artifact, two ingests, a
//! compaction, a model swap, one more ingest, a drop and a reopen (whose
//! recovery folds the replayed batch into a fresh snapshot), and a last
//! compaction. The directory is pinned after the first two ingests,
//! after the post-swap ingest, and at the end, so a change to the
//! manifest, the snapshot encoding, the WAL framing, the generation
//! names or the recovery fold fails here. A refactor of the registry
//! proves it kept the format by passing this suite unchanged.

use std::path::Path;

use renuver::core::{Engine, RenuverConfig};
use renuver::data::{csv, Relation, Value};
use renuver::rfd::RfdSet;
use renuver::serve::{artifact, DurabilityOptions, Registry};

const DATA: &str = "\
Name:text,City:text,Zip:text
Granita,Malibu,90265
Chinois,Santa Monica,90401
Citrus,Los Angeles,90036
Fenix,Hollywood,90046
Valentino,Santa Monica,90401
Spago,Hollywood,90046
";

const RFDS: &str = "City(<=0) -> Zip(<=0)\nZip(<=0) -> City(<=0)";

/// 64-bit FNV-1a, as in `tests/discovery_golden.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every file beside `model.rnv` in `dir` as `"<name> <digest>"`,
/// sorted by name, against its pin.
fn check(stage: &str, dir: &Path, want: &[&str]) {
    let mut got: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name != "model.rnv")
        .map(|name| format!("{name} {:#018x}", fnv1a(&std::fs::read(dir.join(&name)).unwrap())))
        .collect();
    got.sort();
    assert_eq!(got, want, "{stage}: the layout files changed");
}

fn row(name: &str, city: &str, zip: Option<&str>) -> Vec<Value> {
    vec![Value::from(name), Value::from(city), zip.map_or(Value::Null, Value::from)]
}

fn open(model: &Path) -> Registry {
    let opts = DurabilityOptions::beside(model, "golden");
    Registry::open_durable(
        artifact::load(model).unwrap(),
        RenuverConfig::default(),
        1,
        opts.layout,
        "golden",
        opts.compact_bytes,
        opts.compact_records,
    )
    .unwrap()
    .0
}

#[test]
fn one_shard_layout_bytes_are_pinned() {
    let dir = std::env::temp_dir()
        .join(format!("renuver-layout-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.rnv");
    let rel = csv::read_str(DATA).unwrap();
    let sigma = RfdSet::from_text(RFDS, rel.schema()).unwrap();
    let prepared = Engine::prepare(rel.clone(), sigma.clone(), RenuverConfig::default());
    std::fs::write(&model, artifact::encode_engine(&prepared, "golden", 0)).unwrap();

    // First durable open, then two ingests; the second carries a hole
    // that the registry repairs before logging it.
    let reg = open(&model);
    let cfg = reg.snapshot().config.clone();
    reg.ingest(vec![row("Patina", "Los Angeles", Some("90036"))], &cfg).unwrap();
    reg.ingest(vec![row("Nobu", "Malibu", None), row("Ivy", "Venice", Some("90291"))], &cfg)
        .unwrap();
    check(
        "after two ingests",
        &dir,
        &[
            "model.rnv.manifest 0xf7d48cf2508309c8",
            "model.rnv.shard0 0xa24f17ba41d5f41d",
            "model.rnv.shard0.wal 0xb58620516029e242",
        ],
    );

    // Compact, swap in a grown model, ingest once more.
    assert_eq!(reg.compact().unwrap(), 2);
    let mut grown: Relation = rel.clone();
    grown.push(row("Mastro's", "Beverly Hills", Some("90210"))).unwrap();
    let swapped = Engine::prepare(grown, sigma, RenuverConfig::default());
    let art = artifact::decode(&artifact::encode_engine(&swapped, "golden-swap", 0)).unwrap();
    assert_eq!(reg.swap(art).unwrap(), 2);
    reg.ingest(vec![row("Lucques", "Beverly Hills", None)], &cfg).unwrap();
    check(
        "after the swap and an ingest",
        &dir,
        &[
            "model.rnv.g1.shard0 0xd59f9e9fc96e6485",
            "model.rnv.g1.shard0.wal 0x4c4f53ba31c71c99",
            "model.rnv.manifest 0x3b6b8c1f49c72dc6",
        ],
    );
    drop(reg);

    // Reopen (recovery replays and folds the post-swap batch), compact.
    let reg = open(&model);
    assert_eq!((reg.seq(), reg.snapshot().rows()), (3, 8));
    assert_eq!(reg.compact().unwrap(), 3);
    drop(reg);
    check(
        "after reopen and compaction",
        &dir,
        &[
            "model.rnv.g1.shard0 0x1246d3f2908fb594",
            "model.rnv.g1.shard0.wal 0xc8b478274142ed2c",
            "model.rnv.manifest 0xc6150a92a9ccafbb",
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}
