//! The engine registry: the one serving topology.
//!
//! A registry owns one prepared [`Engine`] behind a mutex for its whole
//! life. Every `/v1/impute` request, every ingest repair and every
//! commit goes through that engine — [`Engine::impute_batch_with`] and
//! [`Engine::commit_tuples`] — so a registry answers byte-identically to
//! a plain engine by construction. Reads serialize on the engine lock,
//! and each request runs its per-cell loop on the thread that took it.
//! A model swap replaces the engine inside the same mutex, so a request
//! sees either the old model or the new one, never a blend.
//!
//! A durable registry keeps one snapshot and one write-ahead log beside
//! its base model; the snapshot is cut from the engine's relation
//! whenever one is written, never kept as a second copy.
//!
//! ## On-disk layout
//!
//! | file                   | holds                                           |
//! |------------------------|-------------------------------------------------|
//! | `model.rnv.shard0`     | the snapshot (a v2 artifact, no distance cache) |
//! | `model.rnv.shard0.wal` | the write-ahead log                             |
//! | `model.rnv.manifest`   | the live generation and the seq it folds        |
//!
//! These are the names and the v2 manifest an earlier, sharded build
//! wrote at one shard (one shard, no partition attributes, an all-zero
//! row-owner table), so such a layout opens as it is. A model swap
//! writes the whole replacement under the next generation's names
//! (`model.rnv.g<gen>.shard0[.wal]`) and commits by atomically renaming
//! a manifest that records the new generation, so a crash anywhere
//! inside a swap leaves either the complete old layout or the complete
//! new one.
//!
//! ## Recovery
//!
//! With the manifest at seq `M`, the log opens at `snapshot_seq = M` (the
//! manifest is written before the log is reset) and its last seq is the
//! committed horizon. The snapshot supplies the relation and RFD set (so
//! a swapped model survives a restart), the engine is prepared once, and
//! batches `M+1 ..= committed` replay through [`Engine::commit_tuples`].
//! A snapshot ahead of the manifest (a crash between the two renames of
//! a compaction) must hold exactly the replayed rows its seq covers.
//! Whenever the snapshot is behind the committed horizon, recovery folds
//! the replayed tail into a fresh snapshot with one compaction. A log
//! that will not open (a foreign header, or a flipped byte before its
//! last frame) leaves the registry `degraded`: it serves its snapshot,
//! refuses ingest, and leaves the log as it is until a swap writes a
//! fresh one.
//!
//! An earlier build could write `n > 1` shards, each snapshot holding the
//! rows the manifest's owner table assigns it and each log holding every
//! batch. The reader reads such a layout for any `n` — it merges the
//! rows in global order, takes the minimum horizon over the readable
//! logs, and checks every snapshot that is ahead — so a read-only
//! [`Registry::load`] serves it as it is. The first durable open
//! migrates it: with the logs only read, it writes generation `g+1` (one
//! snapshot at the committed seq and a fresh log), stores a one-shard
//! manifest (the commit point) and sweeps generation `g`. A crash before
//! the rename reopens onto the untouched layout and migrates again. A
//! shard whose log will not open is rebuilt from a sibling's log. The
//! shard counts [`Registry::build`] and [`Registry::open_durable`] still
//! take (and `serve --shards N`) are ignored.
//!
//! The first durable open of an artifact with no manifest reuses the
//! artifact's decoded oracle and index, replays a `model.rnv.wal` left by
//! the earlier single-file store (records above the artifact's seq), and
//! then writes the layout; the old log is removed only after the manifest
//! rename is durable.
//!
//! Compaction folds into the snapshot, never into the base model, so
//! once a layout exists the model a `model.rnv` path holds is the
//! layout's committed state. [`Registry::load`] reads it that way for
//! non-durable consumers (`serve` without `--wal`, `tune`, `inspect`) —
//! the same algorithm with the logs only read, never truncated or
//! created — and [`Registry::reload`] does so for `SIGHUP`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use renuver_core::{BatchResult, Engine, RenuverConfig};
use renuver_data::{AttrId, DataError, Relation, Schema, Tuple, Value};
use renuver_rfd::RfdSet;

use crate::artifact::{self, Artifact, ArtifactError};
use crate::fault;
use crate::wal::{sync_parent_dir, Wal, WalError};

/// Manifest magic: `RNVM`.
const MANIFEST_MAGIC: [u8; 4] = *b"RNVM";
/// Manifest format version. v2 added the layout generation.
const MANIFEST_VERSION: u32 = 2;

/// Compact once the WAL exceeds this many bytes (default).
pub const DEFAULT_COMPACT_BYTES: u64 = 4 << 20;
/// Compact once the WAL holds this many records (default).
pub const DEFAULT_COMPACT_RECORDS: u64 = 256;

// ---------------------------------------------------------------- layout

/// Path conventions for the durable layout rooted at a base `.rnv` path.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    base: PathBuf,
}

impl ShardLayout {
    /// A layout rooted beside `base` (conventionally the `model.rnv` the
    /// registry was prepared from).
    pub fn beside(base: impl Into<PathBuf>) -> ShardLayout {
        ShardLayout { base: base.into() }
    }

    fn suffixed(&self, suffix: &str) -> PathBuf {
        let mut os = self.base.clone().into_os_string();
        os.push(suffix);
        PathBuf::from(os)
    }

    /// `.g<gen>` for swapped-in layouts; generation 0 keeps the bare
    /// names.
    fn gen_prefix(gen: u64) -> String {
        if gen == 0 { String::new() } else { format!(".g{gen}") }
    }

    /// `model.rnv[.g<gen>].shard<k>` — the snapshot of layout generation
    /// `gen` (`k` is 0; an earlier build's `n`-shard layouts also have
    /// `k` up to `n - 1`).
    pub fn shard_snapshot(&self, gen: u64, k: usize) -> PathBuf {
        self.suffixed(&format!("{}.shard{k}", Self::gen_prefix(gen)))
    }

    /// `model.rnv[.g<gen>].shard<k>.wal` — the write-ahead log of layout
    /// generation `gen`, numbered like [`ShardLayout::shard_snapshot`].
    pub fn shard_wal(&self, gen: u64, k: usize) -> PathBuf {
        self.suffixed(&format!("{}.shard{k}.wal", Self::gen_prefix(gen)))
    }

    /// `model.rnv.manifest` — the layout manifest. Generation-less: the
    /// manifest names the live generation and its atomic rename is the
    /// commit point of every layout rewrite.
    pub fn manifest(&self) -> PathBuf {
        self.suffixed(".manifest")
    }

    /// `model.rnv.wal` — the log of the earlier single-file store, which
    /// the first durable open migrates into the layout.
    pub fn legacy_wal(&self) -> PathBuf {
        self.suffixed(".wal")
    }

    /// Removes the whole durable layout beside the base — manifest, every
    /// generation's snapshot and log files and a single-file WAL —
    /// leaving the base model alone. `prepare` clears the layout of the
    /// model it replaces before writing the new one.
    pub fn clear(&self) -> io::Result<()> {
        remove_if_present(&self.manifest())?;
        self.sweep_generations(None);
        remove_if_present(&self.legacy_wal())
    }

    /// Best-effort removal of every snapshot and log file whose
    /// generation is not `current` (`None` removes them all): losers of
    /// an interrupted swap, or the previous layout after a committed one.
    /// Never touches the manifest or the base model.
    fn sweep_generations(&self, current: Option<u64>) {
        let Some(base_name) = self.base.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let parent = self.base.parent().unwrap_or_else(|| Path::new("."));
        let dir = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(suffix) = name
                .strip_prefix(base_name)
                .and_then(|s| s.strip_prefix('.'))
            else {
                continue;
            };
            // `shard<k>...` is generation 0; `g<gen>.shard<k>...` is a
            // swapped generation. Anything else (manifest, tmp files of
            // the manifest, the base model) is left alone.
            let gen = if suffix.starts_with("shard") {
                0
            } else if let Some(rest) = suffix.strip_prefix('g') {
                match rest.split_once('.') {
                    Some((num, tail)) if tail.starts_with("shard") => {
                        match num.parse::<u64>() {
                            Ok(g) => g,
                            Err(_) => continue,
                        }
                    }
                    _ => continue,
                }
            } else {
                continue;
            };
            if Some(gen) != current {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// How to wire durability for a model: where the layout lives and when
/// to fold the WAL back into the snapshot.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// The layout beside the model.
    pub layout: ShardLayout,
    /// Provenance string stamped into snapshots.
    pub source: String,
    /// Compact once the WAL exceeds this many bytes.
    pub compact_bytes: u64,
    /// Compact once the WAL holds this many records.
    pub compact_records: u64,
}

impl DurabilityOptions {
    /// Conventional wiring for a model at `model_path`: the layout beside
    /// it, default compaction thresholds.
    pub fn beside(model_path: impl Into<PathBuf>, source: &str) -> DurabilityOptions {
        DurabilityOptions {
            layout: ShardLayout::beside(model_path),
            source: source.to_string(),
            compact_bytes: DEFAULT_COMPACT_BYTES,
            compact_records: DEFAULT_COMPACT_RECORDS,
        }
    }
}

// -------------------------------------------------------------- manifest

/// The layout manifest: the live generation and the seq its snapshot
/// folds, plus the row-owner table of an earlier build's `n`-shard
/// layouts (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Schema fingerprint — must match every snapshot and WAL.
    pub schema_fp: u64,
    /// Number of shards in the layout: 1 for every layout this build
    /// writes.
    pub n_shards: usize,
    /// The seq this manifest (and the `assign` table) covers.
    pub seq: u64,
    /// Layout generation: which `[.g<gen>]` file set holds the snapshot
    /// and WAL. A model swap writes the whole next generation before
    /// flipping this in one atomic manifest rename.
    pub generation: u64,
    /// Partition attributes an `n`-shard layout hashed rows by.
    pub attrs: Vec<usize>,
    /// `assign[g]` = owning shard of global row `g`, for all rows at
    /// `seq`. Locals are re-derived by counting in order.
    pub assign: Vec<u32>,
}

impl Manifest {
    /// The manifest this build writes: one shard owning all `rows`, no
    /// partition attributes.
    fn single(schema_fp: u64, seq: u64, generation: u64, rows: usize) -> Manifest {
        Manifest { schema_fp, n_shards: 1, seq, generation, attrs: Vec::new(), assign: vec![0; rows] }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(48 + self.attrs.len() * 4 + self.assign.len() * 4);
        buf.extend_from_slice(&MANIFEST_MAGIC);
        buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.schema_fp.to_le_bytes());
        buf.extend_from_slice(&(self.n_shards as u32).to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.generation.to_le_bytes());
        buf.extend_from_slice(&(self.attrs.len() as u32).to_le_bytes());
        for &a in &self.attrs {
            buf.extend_from_slice(&(a as u32).to_le_bytes());
        }
        buf.extend_from_slice(&(self.assign.len() as u64).to_le_bytes());
        for &s in &self.assign {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let crc = artifact::crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Manifest, RegistryError> {
        let bad = |m: &str| RegistryError::Manifest(m.to_string());
        if bytes.len() < 4 + 4 + 8 + 4 + 8 + 8 + 4 + 8 + 4 {
            return Err(bad("manifest truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(tail.try_into().unwrap());
        if crc != artifact::crc32(body) {
            return Err(bad("manifest checksum mismatch"));
        }
        let mut at = 0usize;
        let mut take = |n: usize| -> Result<&[u8], RegistryError> {
            let s = body.get(at..at + n).ok_or_else(|| {
                RegistryError::Manifest("manifest truncated".to_string())
            })?;
            at += n;
            Ok(s)
        };
        if take(4)? != MANIFEST_MAGIC {
            return Err(bad("not a registry manifest (bad magic)"));
        }
        let version = u32::from_le_bytes(take(4)?.try_into().unwrap());
        if version != MANIFEST_VERSION {
            return Err(bad(&format!("unsupported manifest version {version}")));
        }
        let schema_fp = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let n_shards = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let generation = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let n_attrs = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            attrs.push(u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize);
        }
        let n_rows = u64::from_le_bytes(take(8)?.try_into().unwrap()) as usize;
        let mut assign = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let s = u32::from_le_bytes(take(4)?.try_into().unwrap());
            if s as usize >= n_shards {
                return Err(bad("manifest assigns a row to a shard out of range"));
            }
            assign.push(s);
        }
        if at != body.len() {
            return Err(bad("trailing bytes after manifest payload"));
        }
        if n_shards == 0 {
            return Err(bad("manifest has no shards"));
        }
        Ok(Manifest { schema_fp, n_shards, seq, generation, attrs, assign })
    }

    /// Loads and validates the manifest at `path`.
    pub fn load(path: &Path) -> Result<Manifest, RegistryError> {
        Manifest::decode(&fs::read(path)?)
    }

    /// Writes the manifest durably: temp file, fsync, rename, dir fsync.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.encode(), None)
    }
}

/// Writes `bytes` to `path` durably: temp file, fsync, rename, dir
/// fsync. `pre_rename` names the fault point hit between the fsync and
/// the rename.
fn write_atomic(path: &Path, bytes: &[u8], pre_rename: Option<&str>) -> io::Result<()> {
    let mut tmp_os = path.to_path_buf().into_os_string();
    tmp_os.push(".tmp");
    let tmp = PathBuf::from(tmp_os);
    fs::write(&tmp, bytes)?;
    fs::File::open(&tmp)?.sync_all()?;
    if let Some(point) = pre_rename {
        fault::hit(point)?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

// ---------------------------------------------------------------- errors

/// Everything that can go wrong building, recovering, committing to, or
/// swapping a registry.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem error.
    Io(io::Error),
    /// A snapshot failed to load or encode.
    Artifact(ArtifactError),
    /// A WAL failed to open or is corrupt beyond its torn tail.
    Wal(WalError),
    /// The manifest is missing, corrupt, or inconsistent.
    Manifest(String),
    /// A model's schema fingerprint does not match the registry's.
    SchemaMismatch { expected: u64, got: u64 },
    /// Replay could not reconstruct a consistent state.
    Recovery(String),
    /// The WAL append failed; the batch was not committed.
    WalAppend(io::Error),
    /// The batch itself was rejected by the imputation core.
    Data(DataError),
    /// Ingest refused because the WAL is degraded.
    Degraded,
    /// A tune install refused because the model was swapped while the
    /// job ran.
    Swapped,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry i/o error: {e}"),
            RegistryError::Artifact(e) => write!(f, "snapshot error: {e}"),
            RegistryError::Wal(e) => write!(f, "{e}"),
            RegistryError::Manifest(m) => write!(f, "manifest error: {m}"),
            RegistryError::SchemaMismatch { expected, got } => write!(
                f,
                "schema fingerprint mismatch: registry has {expected:#x}, model has {got:#x}"
            ),
            RegistryError::Recovery(m) => write!(f, "recovery failed: {m}"),
            RegistryError::WalAppend(e) => write!(f, "wal append failed, nothing committed: {e}"),
            RegistryError::Data(e) => write!(f, "{e}"),
            RegistryError::Degraded => write!(f, "the wal is degraded — ingest refused"),
            RegistryError::Swapped => write!(f, "the model was swapped while the job ran"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}
impl From<ArtifactError> for RegistryError {
    fn from(e: ArtifactError) -> Self {
        RegistryError::Artifact(e)
    }
}
impl From<WalError> for RegistryError {
    fn from(e: WalError) -> Self {
        RegistryError::Wal(e)
    }
}
impl From<DataError> for RegistryError {
    fn from(e: DataError) -> Self {
        RegistryError::Data(e)
    }
}

// ------------------------------------------------------------------ snap

/// A handle on the live model: the serve-time base config and the
/// committed seq when the handle was taken. Imputes run on the
/// registry's one engine, so a commit or swap that lands after the
/// handle was taken is visible to it.
pub struct Snap {
    reg: Registry,
    /// The serve-time base config (per-request options are layered on a
    /// clone of this).
    pub config: RenuverConfig,
    /// The committed seq when this handle was taken.
    pub seq: u64,
}

impl Snap {
    /// Donor rows in the live model.
    pub fn rows(&self) -> usize {
        self.reg.lock_engine().donor_rows()
    }

    /// [`Registry::impute`] on the live model.
    pub fn impute(
        &self,
        tuples: Vec<Tuple>,
        config: &RenuverConfig,
    ) -> Result<BatchResult, DataError> {
        self.reg.impute(tuples, config)
    }
}

/// What recovery found and did, for startup logging.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Batches replayed from the WAL (or from a migrated single-file
    /// WAL).
    pub replayed: usize,
    /// Rows committed by replay.
    pub rows: usize,
    /// The committed seq after recovery.
    pub seq: u64,
    /// Whether the WAL could not be opened: the registry serves its
    /// snapshot and refuses ingest.
    pub degraded: bool,
    /// Whether recovery folded the replayed batches into a fresh
    /// snapshot.
    pub folded: bool,
}

// ------------------------------------------------------------- registry

/// The durable half of a registry: the WAL (`None` while degraded) plus
/// the layout and compaction thresholds.
struct Store {
    layout: ShardLayout,
    wal: Option<Wal>,
    /// The live layout generation (file-name suffix of snapshot and WAL).
    generation: u64,
    source: String,
    compact_bytes: u64,
    compact_records: u64,
}

impl Store {
    /// Writes layout generation `gen` — `engine`'s snapshot at `seq` and a
    /// fresh WAL — and commits it by storing its manifest; `pre_commit`
    /// names the fault point just before that rename. Files of other
    /// generations are left for the caller to sweep.
    fn commit_generation(
        &mut self,
        gen: u64,
        engine: &Engine,
        seq: u64,
        schema_fp: u64,
        pre_commit: Option<&str>,
    ) -> Result<(), RegistryError> {
        let rel = engine.relation();
        let snapshot = snapshot_bytes(engine, &self.source, seq);
        write_atomic(&self.layout.shard_snapshot(gen, 0), &snapshot, None)?;
        // An earlier attempt at this generation may have failed before
        // its commit point; a fresh log is wanted either way, and a stale
        // or corrupt predecessor being gone is what lets a swap heal a
        // degraded registry.
        let wal_path = self.layout.shard_wal(gen, 0);
        remove_if_present(&wal_path)?;
        let (wal, _) = Wal::open(&wal_path, schema_fp, seq, rel.arity())?;
        if let Some(point) = pre_commit {
            fault::hit(point)?;
        }
        Manifest::single(schema_fp, seq, gen, rel.len()).store(&self.layout.manifest())?;
        self.generation = gen;
        self.wal = Some(wal);
        Ok(())
    }
}

/// The commit-locked half of a registry: the committed seq and the
/// durable store. Lock order: this before the engine.
struct State {
    seq: u64,
    store: Option<Store>,
}

struct Inner {
    engine: Mutex<Engine>,
    state: Mutex<State>,
    config: RenuverConfig,
    schema: Schema,
    schema_fp: u64,
    /// Whether commits are logged (fixed at construction).
    durable: bool,
    /// The committed seq, published so handles never wait on the commit
    /// lock (which compaction holds across its file writes).
    seq: AtomicU64,
    /// Committed rows, published for `/healthz` beside the seq.
    rows: AtomicUsize,
    /// Whether the WAL is unusable (ingest refused).
    degraded: AtomicBool,
    compacting: AtomicBool,
    swaps: AtomicU64,
}

impl Inner {
    /// Locks the engine, recovering a poisoned lock by rolling back any
    /// transient rows the panicking request left behind.
    fn lock_engine(&self) -> MutexGuard<'_, Engine> {
        match self.engine.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                g.reset_transient();
                g
            }
        }
    }
}

/// The engine registry. Cloning shares the underlying state; the
/// background compaction worker holds a clone.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

/// The outcome of a committed ingest.
pub struct IngestOutcome {
    /// The imputation result for the batch (same shape as `/v1/impute`).
    pub batch: BatchResult,
    /// The batch's sequence number.
    pub seq: u64,
    /// Rows committed (= the batch size).
    pub committed_rows: usize,
    /// Donor pool size after commit (total reference rows).
    pub donor_rows: usize,
    /// Dictionary entries the oracle grew by.
    pub dict_grown: usize,
    /// Whether the WAL has crossed its compaction thresholds.
    pub wants_compact: bool,
}

impl Registry {
    // -------------------------------------------------------- construct

    /// Builds an in-memory (non-durable) registry by preparing an engine
    /// over `rel`. `_n_shards` is ignored; it stays for callers written
    /// against the sharded registry (the repository benchmark passes 2).
    pub fn build(rel: &Relation, sigma: RfdSet, config: RenuverConfig, _n_shards: usize) -> Registry {
        Registry::from_engine(Engine::prepare(rel.clone(), sigma, config))
    }

    /// Wraps an already prepared engine in an in-memory (non-durable)
    /// registry. The engine's oracle and index are kept as they are.
    pub fn from_engine(engine: Engine) -> Registry {
        Registry::assemble(engine, State { seq: 0, store: None }, false)
    }

    fn assemble(engine: Engine, state: State, degraded: bool) -> Registry {
        let schema = engine.schema().clone();
        let inner = Inner {
            config: engine.config().clone(),
            schema_fp: artifact::schema_fingerprint(&schema),
            schema,
            durable: state.store.is_some(),
            seq: AtomicU64::new(state.seq),
            rows: AtomicUsize::new(engine.donor_rows()),
            degraded: AtomicBool::new(degraded),
            compacting: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
            engine: Mutex::new(engine),
            state: Mutex::new(state),
        };
        Registry { inner: Arc::new(inner) }
    }

    /// Opens (or initializes) a durable registry beside `base`.
    ///
    /// With no manifest on disk the artifact's engine is used as decoded
    /// (oracle and index included), a single-file WAL beside it is
    /// migrated, and the layout is written. With a manifest, the layout
    /// recovers per the module-level algorithm, and an earlier build's
    /// `n`-shard layout is migrated to one snapshot and one WAL.
    /// `_n_shards` is ignored; it stays for callers written against the
    /// sharded registry (the repository benchmark passes 2).
    pub fn open_durable(
        base: Artifact,
        config: RenuverConfig,
        _n_shards: usize,
        layout: ShardLayout,
        source: &str,
        compact_bytes: u64,
        compact_records: u64,
    ) -> Result<(Registry, RecoveryReport), RegistryError> {
        let store = Store {
            layout,
            wal: None,
            generation: 0,
            source: source.to_string(),
            compact_bytes,
            compact_records,
        };
        if store.layout.manifest().exists() {
            Registry::recover(base, config, store)
        } else {
            Registry::first_open(base, config, store)
        }
    }

    fn first_open(
        base: Artifact,
        config: RenuverConfig,
        mut store: Store,
    ) -> Result<(Registry, RecoveryReport), RegistryError> {
        let schema_fp = base.schema_fingerprint;
        let mut seq = base.committed_seq;
        let mut engine = base.into_engine(config);
        let arity = engine.relation().arity();
        let layout = &store.layout;
        // No manifest references any layout file yet: leftovers of an
        // interrupted first open are garbage.
        layout.sweep_generations(None);

        // Migrate the single-file store: its records above the artifact's
        // seq replay through the live commit path before the layout is
        // written, so the layout's first snapshot already holds them.
        let legacy = layout.legacy_wal();
        let migrating = legacy.exists();
        let mut report = RecoveryReport::default();
        if migrating {
            let (wal, records) = Wal::open(&legacy, schema_fp, seq, arity)?;
            for rec in records {
                report.rows += commit_replayed(&mut engine, rec.seq, rec.tuples)?;
                report.replayed += 1;
            }
            seq = wal.last_seq();
        }

        store.commit_generation(0, &engine, seq, schema_fp, None)?;
        if migrating {
            // The manifest rename is durable: the layout now holds every
            // record the old log did.
            fault::hit("migrate.pre_unlink")?;
            remove_if_present(&legacy)?;
        }
        report.seq = seq;
        Ok((Registry::assemble(engine, State { seq, store: Some(store) }, false), report))
    }

    fn recover(
        base: Artifact,
        config: RenuverConfig,
        mut store: Store,
    ) -> Result<(Registry, RecoveryReport), RegistryError> {
        let layout = store.layout.clone();
        let schema_fp = base.schema_fingerprint;
        let arity = base.relation.arity();
        let read = read_layout(base, config, &layout, true)?;
        let (n, gen) = (read.manifest.n_shards, read.manifest.generation);
        // Sweep losers of an interrupted swap or migration (files of any
        // generation other than the committed one) before they can
        // shadow a later write to the same generation number, and finish
        // a single-file migration that crashed after its manifest commit.
        layout.sweep_generations(Some(gen));
        finish_migration(&layout, schema_fp, read.manifest.seq, arity);
        store.generation = gen;
        let mut report = read.report;
        if n > 1 {
            let point = Some("migrate.pre_commit");
            store.commit_generation(gen + 1, &read.engine, report.seq, schema_fp, point)?;
            fault::hit("migrate.pre_sweep")?;
            layout.sweep_generations(Some(gen + 1));
            eprintln!("renuver: migrated the {n}-shard layout into one snapshot and one wal");
            report.folded = true;
        } else {
            store.wal = read.wal;
            report.degraded = store.wal.is_none();
        }
        let state = State { seq: report.seq, store: Some(store) };
        let reg = Registry::assemble(read.engine, state, report.degraded);
        if n == 1 && read.behind {
            // Fold the replayed tail into a fresh snapshot at the
            // committed horizon and reset the log.
            reg.compact()?;
            report.folded = true;
        }
        Ok((reg, report))
    }

    /// A non-durable registry over the model the file at `layout`'s base
    /// holds: `base` (that file, decoded) as is, or — when a durable
    /// layout sits beside the file — the layout's committed state, read
    /// the way recovery reads it. Writes nothing. `serve` without
    /// `--wal`, `tune` and `inspect` load models this way.
    pub fn load(
        base: Artifact,
        config: RenuverConfig,
        layout: &ShardLayout,
    ) -> Result<Registry, RegistryError> {
        let (engine, seq) = load_model(base, config, layout)?;
        Ok(Registry::assemble(engine, State { seq, store: None }, false))
    }

    // ---------------------------------------------------------- queries

    /// A handle on the live model: the base config and the committed seq.
    /// Never waits on the commit lock.
    pub fn snapshot(&self) -> Snap {
        Snap { reg: self.clone(), config: self.inner.config.clone(), seq: self.seq() }
    }

    /// Locks the serving engine (recovering a poisoned lock). Hold it
    /// briefly: every request serializes on it.
    pub fn lock_engine(&self) -> MutexGuard<'_, Engine> {
        self.inner.lock_engine()
    }

    /// Imputes a batch on the live model — [`Engine::impute_batch_with`]
    /// under the engine lock.
    pub fn impute(
        &self,
        tuples: Vec<Tuple>,
        config: &RenuverConfig,
    ) -> Result<BatchResult, DataError> {
        self.inner.lock_engine().impute_batch_with(tuples, config)
    }

    /// The serve-time base config (per-request options are layered on a
    /// clone of this).
    pub fn config(&self) -> &RenuverConfig {
        &self.inner.config
    }

    /// The committed sequence number (0 for a fresh model).
    pub fn seq(&self) -> u64 {
        self.inner.seq.load(Ordering::Acquire)
    }

    /// Committed rows in the live model. Never waits on the engine.
    pub fn rows(&self) -> usize {
        self.inner.rows.load(Ordering::Acquire)
    }

    /// The model schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The layout's shard count: 1 for every registry. Kept for callers
    /// written against the sharded registry; it goes together with the
    /// unused shard-count arguments of [`Registry::build`] and
    /// [`Registry::open_durable`].
    pub fn n_shards(&self) -> usize {
        1
    }

    /// The registry's schema fingerprint.
    pub fn schema_fp(&self) -> u64 {
        self.inner.schema_fp
    }

    /// Whether commits are logged to the WAL.
    pub fn is_durable(&self) -> bool {
        self.inner.durable
    }

    /// Whether the WAL is unusable: imputes are served, ingest is
    /// refused until a swap or a restart rebuilds the log.
    pub fn degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Acquire)
    }

    /// Whether a background compaction is in flight.
    pub fn compacting(&self) -> bool {
        self.inner.compacting.load(Ordering::Acquire)
    }

    /// Completed model swaps.
    pub fn swaps(&self) -> u64 {
        self.inner.swaps.load(Ordering::Acquire)
    }

    /// The live layout generation (0 for non-durable registries, which
    /// have no on-disk layout to version).
    pub fn generation(&self) -> u64 {
        self.lock_state().store.as_ref().map_or(0, |s| s.generation)
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ----------------------------------------------------------- ingest

    /// Repairs and commits a batch: impute under the engine lock, append
    /// the repaired batch to the WAL (no engine lock held across the
    /// fsync), then commit under the engine lock. The commit lock
    /// serializes the three steps against other commits. Refused while
    /// the WAL is degraded — acknowledging a batch the log never saw
    /// would lose it on the next recovery.
    pub fn ingest(
        &self,
        tuples: Vec<Tuple>,
        config: &RenuverConfig,
    ) -> Result<IngestOutcome, RegistryError> {
        let mut state = self.lock_state();
        // Degradation only transitions while this lock is held (the
        // append below, `swap`, and recovery all run under it), so
        // checking here cannot race with a concurrent ingest that
        // degrades the log after we looked.
        if self.degraded() {
            return Err(RegistryError::Degraded);
        }
        let batch = self.inner.lock_engine().impute_batch_with(tuples, config)?;

        let seq = state.seq + 1;
        if let Some(store) = state.store.as_mut() {
            // A missing handle is a hard refusal, never a skip.
            let Some(wal) = store.wal.as_mut() else {
                return Err(RegistryError::Degraded);
            };
            let appended = fault::hit("registry.append")
                .and_then(|()| wal.append(&batch.tuples).map(|_| ()));
            if let Err(e) = appended {
                // Drop the handle: the log is degraded until a swap or
                // restart rebuilds it. The batch is NOT acknowledged; a
                // frame that did reach the log is a torn tail to the next
                // recovery, or beyond the horizon it replays.
                store.wal = None;
                self.inner.degraded.store(true, Ordering::Release);
                return Err(RegistryError::WalAppend(e));
            }
        }

        let stats = match self.inner.lock_engine().commit_tuples(batch.tuples.clone()) {
            Ok(stats) => stats,
            Err(e) => {
                // The log holds a batch the engine refused: only a
                // restart (replay) re-syncs them, so refuse writes.
                if state.store.is_some() {
                    self.inner.degraded.store(true, Ordering::Release);
                }
                return Err(RegistryError::Data(e));
            }
        };
        state.seq = seq;
        self.inner.seq.store(seq, Ordering::Release);
        self.inner.rows.store(stats.donors, Ordering::Release);
        let wants_compact = state.store.as_ref().is_some_and(|s| {
            s.wal.as_ref().is_some_and(|w| {
                w.bytes() >= s.compact_bytes || w.records() >= s.compact_records
            })
        });
        drop(state);
        Ok(IngestOutcome {
            committed_rows: stats.rows,
            donor_rows: stats.donors,
            dict_grown: stats.dict_grown,
            batch,
            seq,
            wants_compact,
        })
    }

    // ------------------------------------------------------- compaction

    /// Folds the WAL into a fresh snapshot, rewrites the manifest, and
    /// resets the log. Fault points: `compact.pre_write`,
    /// `compact.pre_rename`, `compact.snapshot_done` once the snapshot is
    /// live — the window where it is ahead of the manifest —
    /// `compact.post_rename` after the manifest and `compact.pre_truncate`
    /// before the log reset. Readers wait on the engine only while the
    /// snapshot is cut from the relation, never across file writes.
    pub fn compact(&self) -> Result<u64, RegistryError> {
        let mut state = self.lock_state();
        let seq = state.seq;
        let Some(store) = state.store.as_mut() else {
            return Ok(seq);
        };
        fault::hit("compact.pre_write")?;
        let (snapshot, rows) = {
            let engine = self.inner.lock_engine();
            (snapshot_bytes(&engine, &store.source, seq), engine.relation().len())
        };
        let path = store.layout.shard_snapshot(store.generation, 0);
        write_atomic(&path, &snapshot, Some("compact.pre_rename"))?;
        fault::hit("compact.snapshot_done")?;
        Manifest::single(self.inner.schema_fp, seq, store.generation, rows)
            .store(&store.layout.manifest())?;
        fault::hit("compact.post_rename")?;
        if let Some(wal) = store.wal.as_mut() {
            fault::hit("compact.pre_truncate")?;
            wal.reset(seq)?;
        }
        Ok(seq)
    }

    /// Kicks off a background compaction if none is running. Returns
    /// whether a worker was spawned; `done` runs on the worker with the
    /// result.
    pub fn spawn_compact(
        &self,
        done: impl FnOnce(Result<u64, RegistryError>) + Send + 'static,
    ) -> bool {
        if self
            .inner
            .compacting
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let reg = self.clone();
        std::thread::spawn(move || {
            let result = reg.compact();
            reg.inner.compacting.store(false, Ordering::Release);
            done(result);
        });
        true
    }

    // ------------------------------------------------------------- swap

    /// Atomically replaces the model with `art` (its decoded oracle and
    /// index included): rewrites the durable layout (a fresh WAL — this
    /// also clears a degraded log) and replaces the engine inside its
    /// mutex. In-flight imputes finish on the old engine; the seq counter
    /// keeps running. Rejected when the schema fingerprint differs.
    ///
    /// The durable rewrite is crash-atomic: every file of the new layout
    /// — snapshot *and* fresh WAL — is written under the next
    /// generation's names, invisible to recovery, and the single commit
    /// point is the atomic manifest rename that flips the generation. A
    /// crash before it leaves the old generation byte-for-byte intact
    /// (including its log, so no acknowledged batch is lost); a crash
    /// after it recovers onto the complete new layout. Files of the
    /// losing generation are swept post-commit and again at recovery.
    pub fn swap(&self, art: Artifact) -> Result<u64, RegistryError> {
        self.check_schema(art.schema_fingerprint)?;
        let state = self.lock_state();
        let seq = art.committed_seq;
        self.install(state, art.into_engine(self.inner.config.clone()), seq)
    }

    /// Reloads the model from the file at `layout`'s base (`base` is that
    /// file, decoded) — what `SIGHUP` does when the file is unchanged.
    /// The model is loaded as [`Registry::load`] does, so with a durable
    /// layout beside the file its committed state comes back — for a
    /// registry reloading its own layout, every batch it committed. The
    /// read and the install both run under the commit lock, so no commit
    /// lands between them.
    pub fn reload(&self, base: Artifact, layout: &ShardLayout) -> Result<u64, RegistryError> {
        self.check_schema(base.schema_fingerprint)?;
        let state = self.lock_state();
        let (engine, seq) = load_model(base, self.inner.config.clone(), layout)?;
        self.install(state, engine, seq)
    }

    /// Prepares the live relation under `sigma` and installs it — the
    /// tune-job install. The relation is read under the commit lock, so
    /// batches committed while the job ran are kept. Refused when a swap
    /// landed after [`Registry::swaps`] read `swaps`: the job tuned a
    /// model that is no longer served.
    pub fn retune(&self, sigma: RfdSet, swaps: u64) -> Result<u64, RegistryError> {
        let state = self.lock_state();
        if self.swaps() != swaps {
            return Err(RegistryError::Swapped);
        }
        let rel = self.inner.lock_engine().relation().clone();
        let seq = state.seq;
        self.install(state, Engine::prepare(rel, sigma, self.inner.config.clone()), seq)
    }

    fn check_schema(&self, schema_fp: u64) -> Result<(), RegistryError> {
        if schema_fp == self.inner.schema_fp {
            Ok(())
        } else {
            Err(RegistryError::SchemaMismatch { expected: self.inner.schema_fp, got: schema_fp })
        }
    }

    /// Installs `engine` at `seq` (or the current seq, if later) — the
    /// body of [`Registry::swap`], run under the commit lock.
    fn install(
        &self,
        mut state: MutexGuard<'_, State>,
        engine: Engine,
        seq: u64,
    ) -> Result<u64, RegistryError> {
        let seq = state.seq.max(seq);
        if let Some(store) = state.store.as_mut() {
            let gen = store.generation + 1;
            store.commit_generation(gen, &engine, seq, self.inner.schema_fp, Some("swap.pre_commit"))?;
            // Committed. The old generation is garbage from here on.
            store.layout.sweep_generations(Some(gen));
        }
        self.inner.rows.store(engine.donor_rows(), Ordering::Release);
        let old = std::mem::replace(&mut *self.inner.lock_engine(), engine);
        drop(old);
        state.seq = seq;
        self.inner.seq.store(seq, Ordering::Release);
        self.inner.degraded.store(false, Ordering::Release);
        // Counted before the commit lock is released, so `retune` sees
        // every swap that landed before it took the lock.
        self.inner.swaps.fetch_add(1, Ordering::AcqRel);
        drop(state);
        Ok(seq)
    }
}

// ---------------------------------------------------------------- shared

/// A durable layout as recovery reads it.
struct LayoutRead {
    manifest: Manifest,
    /// The engine at the committed horizon: the manifest's rows merged
    /// from the snapshots, then the WAL suffix replayed.
    engine: Engine,
    /// The log of a one-shard layout, opened for append (`None` when it
    /// is unusable, or the read was read-only or of an `n`-shard layout).
    wal: Option<Wal>,
    /// Replay counts and the committed seq.
    report: RecoveryReport,
    /// Whether a snapshot or log seq differs from the committed horizon.
    behind: bool,
}

/// Reads the layout beside `base`'s file per the module-level algorithm
/// and builds its engine. `writable` opens the log of a one-shard layout
/// for append (truncating a torn tail); otherwise, and for every log of
/// an `n`-shard layout, the logs are only read, and nothing is written.
fn read_layout(
    base: Artifact,
    config: RenuverConfig,
    layout: &ShardLayout,
    writable: bool,
) -> Result<LayoutRead, RegistryError> {
    let schema_fp = base.schema_fingerprint;
    let m = Manifest::load(&layout.manifest())?;
    if m.schema_fp != schema_fp {
        return Err(RegistryError::SchemaMismatch { expected: m.schema_fp, got: schema_fp });
    }
    let n = m.n_shards;
    let arity = base.relation.arity();
    // `shard_of` indexes tuples with these, so a stale manifest paired
    // with a same-fingerprint model must fail cleanly here rather than
    // panic out of bounds during replay.
    if let Some(&a) = m.attrs.iter().find(|&&a| a >= arity) {
        return Err(RegistryError::Manifest(format!(
            "manifest partition attribute {a} out of range for arity {arity}"
        )));
    }
    let gen = m.generation;

    // Snapshots, each possibly ahead of the manifest after a
    // mid-compaction crash. They carry the live RFD set — a swapped
    // model's, not the base artifact's.
    let mut parts = Vec::with_capacity(n);
    let mut snap_seq = Vec::with_capacity(n);
    let mut sigma = None;
    for k in 0..n {
        let art = artifact::load(layout.shard_snapshot(gen, k))?;
        if art.schema_fingerprint != schema_fp {
            return Err(RegistryError::SchemaMismatch {
                expected: schema_fp,
                got: art.schema_fingerprint,
            });
        }
        snap_seq.push(art.committed_seq);
        sigma.get_or_insert(art.rfds);
        parts.push(art.relation.into_tuples().into_iter());
    }
    let sigma = sigma.expect("a manifest has at least one shard");

    // The manifest's rows, merged in global order.
    let mut rows = Vec::with_capacity(m.assign.len());
    for &s in &m.assign {
        let row = parts[s as usize].next().ok_or_else(|| {
            RegistryError::Recovery(format!("shard {s} snapshot holds fewer rows than the manifest"))
        })?;
        rows.push(row);
    }

    // Logs open at the manifest seq: the manifest is written before any
    // log reset, so every base_seq ≤ m.seq. An `n`-shard layout's logs
    // each hold every batch, so one readable log rebuilds the rows of a
    // shard whose own log is unreadable.
    let append = writable && n == 1;
    let mut records = Vec::new();
    let mut wal = None;
    let mut healthy_seqs = Vec::with_capacity(n);
    for k in 0..n {
        let path = layout.shard_wal(gen, k);
        let opened = if append {
            Wal::open(&path, schema_fp, m.seq, arity).map(|(log, recs)| (log.last_seq(), recs, Some(log)))
        } else {
            Wal::read(&path, schema_fp, m.seq, arity).map(|(last, recs)| (last, recs, None))
        };
        match opened {
            Ok((last, recs, log)) => {
                if recs.len() > records.len() {
                    records = recs;
                }
                healthy_seqs.push(last);
                wal = wal.or(log);
            }
            Err(e) => {
                eprintln!("renuver: wal {} unusable ({e})", path.display());
            }
        }
    }
    if healthy_seqs.is_empty() && writable && n > 1 {
        return Err(RegistryError::Recovery(format!(
            "no wal of the {n}-shard layout is readable; nothing to migrate from"
        )));
    }
    if healthy_seqs.is_empty() && snap_seq.iter().any(|&s| s != m.seq) {
        return Err(RegistryError::Recovery(
            "no readable wal and a snapshot is ahead of the manifest".to_string(),
        ));
    }
    let committed = healthy_seqs.iter().copied().min().unwrap_or(m.seq);
    // Every readable log holds m.seq+1 ..= its last_seq; the longest list
    // read covers the committed horizon.
    records.retain(|r| r.seq <= committed);

    // A snapshot ahead of the manifest holds exactly the replayed rows
    // its seq covers.
    let mut ahead = vec![0usize; n];
    for rec in &records {
        for t in &rec.tuples {
            let k = shard_of(t, &m.attrs, n);
            if rec.seq <= snap_seq[k] {
                ahead[k] += 1;
            }
        }
    }
    for (k, part) in parts.iter().enumerate() {
        if part.len() != ahead[k] {
            return Err(RegistryError::Recovery(format!(
                "shard {k} snapshot holds {} rows past the manifest but the wal accounts for {} — \
                 snapshot and wal disagree",
                part.len(),
                ahead[k]
            )));
        }
    }
    drop(parts);

    let behind =
        snap_seq.iter().any(|&s| s != committed) || healthy_seqs.iter().any(|&s| s != committed);
    let rel = Relation::new(base.relation.schema().clone(), rows)
        .map_err(|e| RegistryError::Recovery(format!("snapshots disagree with the schema: {e}")))?;
    // A layout that still holds exactly the artifact's model keeps the
    // artifact's decoded oracle and index; anything else (a compacted or
    // swapped layout) is prepared once.
    let mut engine = if gen == 0 && rel == base.relation && sigma == base.rfds {
        base.into_engine(config)
    } else {
        drop(base);
        Engine::prepare(rel, sigma, config)
    };
    let mut report = RecoveryReport { seq: committed, ..Default::default() };
    for rec in records {
        report.rows += commit_replayed(&mut engine, rec.seq, rec.tuples)?;
        report.replayed += 1;
    }
    Ok(LayoutRead { manifest: m, engine, wal, report, behind })
}

/// The shard an `n`-shard layout of an earlier build assigned `tuple`
/// to: FNV-1a over the rendered partition-attribute values, mod `n`. Only
/// the reader's check of snapshots ahead of the manifest routes rows.
fn shard_of(tuple: &[Value], attrs: &[AttrId], n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &a in attrs {
        for &b in tuple[a].render().as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Attribute separator: ("ab", "") and ("a", "b") must not collide
        // into systematically identical buckets.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % n as u64) as usize
}

/// The model the file at `layout`'s base holds, read without writing
/// anything: `base` (that file, decoded) as is when no manifest sits
/// beside it, else the layout's committed state. Returns the engine and
/// its committed seq.
fn load_model(
    base: Artifact,
    config: RenuverConfig,
    layout: &ShardLayout,
) -> Result<(Engine, u64), RegistryError> {
    if !layout.manifest().exists() {
        let seq = base.committed_seq;
        return Ok((base.into_engine(config), seq));
    }
    let read = read_layout(base, config, layout, false)?;
    Ok((read.engine, read.report.seq))
}

/// Commits one replayed WAL record, returning its row count.
fn commit_replayed(engine: &mut Engine, seq: u64, tuples: Vec<Tuple>) -> Result<usize, RegistryError> {
    engine
        .commit_tuples(tuples)
        .map(|stats| stats.rows)
        .map_err(|e| RegistryError::Recovery(format!("wal seq {seq} disagrees with the model schema: {e}")))
}

/// The snapshot of `engine` at `seq`: its relation and RFD set, encoded
/// without a distance cache — recovery prepares the engine once, so a
/// cached matrix would be pure bloat. Encoded straight from the
/// relation, never copied out of it.
fn snapshot_bytes(engine: &Engine, source: &str, seq: u64) -> Vec<u8> {
    let rel = engine.relation();
    let rows = (0..rel.len()).map(|g| rel.tuple(g));
    artifact::encode_uncached(rel.schema(), rows, engine.sigma(), source, seq)
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => {
            sync_parent_dir(path);
            Ok(())
        }
    }
}

/// Removes the single-file WAL a migration left behind when it crashed
/// after the manifest commit: the layout holds everything up to `seq`.
/// A log with records past `seq` is not a migration leftover and stays.
fn finish_migration(layout: &ShardLayout, schema_fp: u64, seq: u64, arity: usize) {
    let legacy = layout.legacy_wal();
    if !legacy.exists() {
        return;
    }
    match Wal::open(&legacy, schema_fp, seq, arity) {
        Ok((_, records)) if records.is_empty() => {
            let _ = remove_if_present(&legacy);
        }
        _ => eprintln!(
            "renuver: ignoring {}: the layout's manifest is the durable state",
            legacy.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::{AttrType, Schema, Value};
    use renuver_distance::DistanceOracle;
    use renuver_rfd::RfdSet;

    fn schema() -> Schema {
        Schema::new([("City", AttrType::Text), ("Zip", AttrType::Text)]).unwrap()
    }

    fn relation() -> Relation {
        let rows = [
            ("Salerno", "84121"),
            ("Salerno", "84121"),
            ("Milano", "20121"),
            ("Milano", "20121"),
            ("Roma", "00142"),
            ("Roma", "00142"),
        ];
        let tuples = rows
            .iter()
            .map(|(c, z)| vec![Value::from(*c), Value::from(*z)])
            .collect();
        Relation::new(schema(), tuples).unwrap()
    }

    fn sigma() -> RfdSet {
        RfdSet::from_text("City(<=0) -> Zip(<=0)\nZip(<=0) -> City(<=0)", &schema()).unwrap()
    }

    fn artifact_bytes(rel: &Relation, seq: u64) -> Vec<u8> {
        let oracle = DistanceOracle::build(rel, 0);
        artifact::encode(rel, &sigma(), &oracle, None, "test", seq)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("renuver-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A fresh directory holding the test model as `model.rnv`.
    fn model_dir(tag: &str) -> (PathBuf, ShardLayout) {
        let base = tmpdir(tag).join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        (base, layout)
    }

    fn try_open(base: &Path) -> Result<(Registry, RecoveryReport), RegistryError> {
        let art = artifact::load(base).unwrap();
        let layout = ShardLayout::beside(base);
        Registry::open_durable(art, RenuverConfig::default(), 1, layout, "test", 1 << 20, 1 << 20)
    }

    fn open(base: &Path) -> (Registry, RecoveryReport) {
        try_open(base).unwrap()
    }

    fn ingest(reg: &Registry, city: &str, zip: Option<&str>) -> Result<IngestOutcome, RegistryError> {
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from(city), zip.map_or(Value::Null, Value::from)]], &cfg)
    }

    #[test]
    fn manifest_roundtrips() {
        let m = Manifest {
            schema_fp: 0xdead_beef,
            n_shards: 3,
            seq: 42,
            generation: 7,
            attrs: vec![0, 2],
            assign: vec![0, 1, 2, 1, 0],
        };
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = Manifest {
            schema_fp: 1,
            n_shards: 2,
            seq: 0,
            generation: 0,
            attrs: vec![0],
            assign: vec![0, 1],
        };
        let mut bytes = m.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(Manifest::decode(&bytes).is_err());
    }

    #[test]
    fn in_memory_registry_imputes_and_ingests() {
        let reg = Registry::build(&relation(), sigma(), RenuverConfig::default(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.rows(), 6);
        let cfg = snap.config.clone();
        let out = snap
            .impute(vec![vec![Value::from("Salerno"), Value::Null]], &cfg)
            .unwrap();
        assert_eq!(out.tuples[0][1], Value::from("84121"));
        let outcome = ingest(&reg, "Torino", Some("10121")).unwrap();
        assert_eq!(outcome.seq, 1);
        assert_eq!(outcome.donor_rows, 7);
        assert_eq!(reg.snapshot().rows(), 7);
    }

    #[test]
    fn reopen_replays_only_unfolded_batches_and_folds_them() {
        let (base, layout) = model_dir("reopen");
        let (reg, rep) = open(&base);
        assert_eq!(rep.seq, 0);
        ingest(&reg, "Torino", Some("10121")).unwrap();
        assert_eq!(reg.compact().unwrap(), 1);
        ingest(&reg, "Bari", Some("70121")).unwrap();
        ingest(&reg, "Napoli", None).unwrap();
        drop(reg);

        // Only the post-compaction batches replay, and recovery folds
        // them: a snapshot at the horizon, an empty log.
        let (reg2, rep2) = open(&base);
        assert_eq!((rep2.seq, rep2.replayed, rep2.degraded, rep2.folded), (3, 2, false, true));
        assert_eq!(reg2.snapshot().rows(), 9);
        assert_eq!(artifact::load(layout.shard_snapshot(0, 0)).unwrap().committed_seq, 3);
        drop(reg2);
        let (_, rep3) = open(&base);
        assert_eq!((rep3.seq, rep3.replayed, rep3.folded), (3, 0, false));
    }

    /// A WAL that will not open — a foreign header, or a byte flipped
    /// before its last frame — degrades the registry: it serves its
    /// snapshot, refuses ingest, and leaves the log byte-identical.
    #[test]
    fn an_unreadable_wal_degrades_and_is_left_alone() {
        for (tag, flip) in [("header", 9), ("mid-log", 24 + 4 + 8 + 2)] {
            let (base, layout) = model_dir(&format!("degrade-{tag}"));
            let (reg, _) = open(&base);
            for city in ["Torino", "Bari", "Napoli"] {
                ingest(&reg, city, Some("10121")).unwrap();
            }
            drop(reg);
            let wal_path = layout.shard_wal(0, 0);
            let mut bytes = fs::read(&wal_path).unwrap();
            bytes[flip] ^= 0x40;
            fs::write(&wal_path, &bytes).unwrap();

            let (reg2, rep) = open(&base);
            assert!(rep.degraded && reg2.degraded(), "{tag}");
            assert_eq!((rep.seq, rep.replayed, rep.folded), (0, 0, false), "{tag}");
            assert_eq!(reg2.snapshot().rows(), 6, "{tag}: the snapshot is served");
            let cfg = reg2.snapshot().config.clone();
            let imputed =
                reg2.impute(vec![vec![Value::from("Salerno"), Value::Null]], &cfg).unwrap();
            assert_eq!(imputed.tuples[0][1], Value::from("84121"), "{tag}");
            assert!(matches!(ingest(&reg2, "Lecce", Some("73100")), Err(RegistryError::Degraded)));
            drop(reg2);
            assert_eq!(fs::read(&wal_path).unwrap(), bytes, "{tag}: the damaged log was rewritten");
        }
    }

    #[test]
    fn swap_replaces_the_model_and_heals_a_degraded_wal() {
        let (base, _) = model_dir("swap");
        let (reg, _) = open(&base);
        // A fingerprint mismatch is rejected outright.
        let other_schema =
            Schema::new([("Name", AttrType::Text), ("Klass", AttrType::Int)]).unwrap();
        let other = Relation::new(
            other_schema.clone(),
            vec![vec![Value::from("a"), Value::Int(1)]],
        )
        .unwrap();
        let other_rfds = RfdSet::from_text("Name(<=0) -> Klass(<=0)", &other_schema).unwrap();
        let oracle = DistanceOracle::build(&other, 0);
        let bad = artifact::decode(&artifact::encode(&other, &other_rfds, &oracle, None, "x", 0))
            .unwrap();
        assert!(matches!(reg.swap(bad), Err(RegistryError::SchemaMismatch { .. })));
        assert_eq!(reg.swaps(), 0);

        fault::arm("registry.append", fault::Action::Err);
        assert!(ingest(&reg, "Torino", Some("10121")).is_err());
        fault::disarm("registry.append");
        assert!(reg.degraded());

        // A matching swap replaces the relation, writes a fresh log and
        // bumps the counter.
        let mut bigger = relation();
        bigger.push(vec![Value::from("Bari"), Value::from("70121")]).unwrap();
        let art = artifact::decode(&artifact_bytes(&bigger, 0)).unwrap();
        reg.swap(art).unwrap();
        assert_eq!(reg.swaps(), 1);
        assert!(!reg.degraded());
        assert_eq!(reg.snapshot().rows(), 7);
        ingest(&reg, "Torino", Some("10121")).unwrap();
        assert_eq!(reg.snapshot().rows(), 8);
    }

    #[test]
    fn recover_rejects_a_manifest_attribute_out_of_range() {
        let (base, layout) = model_dir("bad-attrs");
        drop(open(&base));

        // A manifest whose partition attrs point past the model's arity
        // must be refused cleanly, not panic inside `shard_of`.
        let mut m = Manifest::load(&layout.manifest()).unwrap();
        m.attrs = vec![7];
        m.store(&layout.manifest()).unwrap();
        let err = match try_open(&base) {
            Err(e) => e,
            Ok(_) => panic!("manifest with out-of-range attrs was accepted"),
        };
        assert!(
            matches!(err, RegistryError::Manifest(ref m) if m.contains("out of range")),
            "{err}"
        );
    }

    #[test]
    fn append_failure_degrades_and_blocks_ingest_until_a_restart() {
        let (base, _) = model_dir("append-fail");
        let (reg, _) = open(&base);
        ingest(&reg, "Torino", Some("10121")).unwrap();

        // The append fails: the batch must not be acknowledged and the
        // log degrades.
        fault::arm("registry.append", fault::Action::Err);
        let err = match ingest(&reg, "Bari", Some("70121")) {
            Err(e) => e,
            Ok(_) => panic!("a failed append was acknowledged"),
        };
        fault::disarm("registry.append");
        assert!(matches!(err, RegistryError::WalAppend(_)), "{err}");
        assert!(reg.degraded());
        assert_eq!(reg.snapshot().seq, 1, "a failed append must not advance the seq");
        assert_eq!(reg.snapshot().rows(), 7);

        // The next ingest is refused under the commit lock — the missing
        // handle is a hard error, never a silent skip.
        assert!(matches!(ingest(&reg, "Bari", Some("70121")), Err(RegistryError::Degraded)));
        drop(reg);

        let (reg2, rep) = open(&base);
        assert_eq!((rep.seq, rep.replayed, rep.degraded), (1, 1, false));
        assert_eq!(reg2.snapshot().rows(), 7);
        assert_eq!(ingest(&reg2, "Bari", Some("70121")).unwrap().seq, 2);
    }

    #[test]
    fn interrupted_swap_preserves_the_old_generation() {
        let (base, layout) = model_dir("swap-interrupt");
        let (reg, _) = open(&base);
        ingest(&reg, "Torino", Some("10121")).unwrap();

        // The swap dies after writing the whole generation-1 layout but
        // before the manifest commit: the disk state equals a crash in
        // that window, and the old generation must win.
        let mut bigger = relation();
        bigger.push(vec![Value::from("Bari"), Value::from("70121")]).unwrap();
        let art = artifact::decode(&artifact_bytes(&bigger, 0)).unwrap();
        fault::arm("swap.pre_commit", fault::Action::Err);
        let err = reg.swap(art).unwrap_err();
        fault::disarm("swap.pre_commit");
        assert!(matches!(err, RegistryError::Io(_)), "{err}");
        assert_eq!(reg.swaps(), 0);
        assert_eq!(reg.snapshot().rows(), 7, "a failed swap must not change the model");
        assert!(
            layout.shard_snapshot(1, 0).exists(),
            "the aborted generation's files linger until the sweep"
        );
        // The old generation's WAL still accepts commits.
        ingest(&reg, "Napoli", Some("80121")).unwrap();
        drop(reg);

        // Recovery reads the old manifest, replays both acknowledged
        // batches, and sweeps the orphaned generation-1 files.
        let (reg2, rep) = open(&base);
        assert_eq!((rep.seq, rep.replayed), (2, 2));
        assert_eq!(reg2.snapshot().rows(), 8);
        assert!(!layout.shard_snapshot(1, 0).exists());
        assert!(!layout.shard_wal(1, 0).exists());
    }

    #[test]
    fn clear_removes_the_layout_and_keeps_the_model() {
        let (base, layout) = model_dir("clear");
        drop(open(&base));
        assert!(layout.manifest().exists() && layout.shard_snapshot(0, 0).exists());
        layout.clear().unwrap();
        assert!(!layout.manifest().exists() && !layout.shard_snapshot(0, 0).exists());
        assert!(!layout.shard_wal(0, 0).exists());
        assert!(base.exists());
    }

    /// `SIGHUP` after ingests: the base artifact still holds its
    /// prepare-time rows, but loading or reloading the file goes through
    /// the layout, so every committed batch — folded or still in a log —
    /// is kept, and a restart after the reload still has them.
    #[test]
    fn reload_after_ingest_keeps_every_committed_batch() {
        let (base, layout) = model_dir("reload");
        let (reg, _) = open(&base);
        let cfg = reg.snapshot().config.clone();
        ingest(&reg, "Torino", Some("10121")).unwrap();
        reg.compact().unwrap();
        ingest(&reg, "Napoli", Some("80121")).unwrap();
        let live = reg.lock_engine().relation().clone();
        let wal = fs::read(layout.shard_wal(0, 0)).unwrap();

        // The read-only load (`serve` without --wal, `tune`, `inspect`)
        // sees the committed state and writes nothing.
        let loaded = Registry::load(artifact::load(&base).unwrap(), cfg.clone(), &layout).unwrap();
        assert_eq!((loaded.seq(), loaded.is_durable()), (2, false));
        assert_eq!(*loaded.lock_engine().relation(), live);
        assert_eq!(fs::read(layout.shard_wal(0, 0)).unwrap(), wal);

        assert_eq!(reg.reload(artifact::load(&base).unwrap(), &layout).unwrap(), 2);
        assert_eq!(*reg.lock_engine().relation(), live);
        assert_eq!(reg.generation(), 1);
        ingest(&reg, "Bari", Some("70121")).unwrap();
        drop(reg);
        let (reg, _) = open(&base);
        assert_eq!((reg.seq(), reg.snapshot().rows()), (3, 9));
    }

    /// The tune-job install prepares the live relation, so a batch
    /// committed while the job ran survives it; a swap that landed while
    /// the job ran makes it refuse.
    #[test]
    fn retune_keeps_batches_and_refuses_after_a_swap() {
        let (base, _) = model_dir("retune");
        let (reg, _) = open(&base);
        let tuned = RfdSet::from_text("City(<=1) -> Zip(<=0)", &schema()).unwrap();
        let swaps = reg.swaps();
        ingest(&reg, "Torino", Some("10121")).unwrap();
        assert_eq!(reg.retune(tuned.clone(), swaps).unwrap(), 1);
        assert_eq!(reg.snapshot().rows(), 7);
        assert_eq!(served_rfds(&reg), tuned.to_text(&schema()));

        let swaps = reg.swaps();
        reg.swap(artifact::load(&base).unwrap()).unwrap();
        assert!(matches!(reg.retune(tuned.clone(), swaps), Err(RegistryError::Swapped)));
        drop(reg);
        let (reg, _) = open(&base);
        assert_eq!(served_rfds(&reg), sigma().to_text(&schema()));
    }

    fn served_rfds(reg: &Registry) -> String {
        let engine = reg.lock_engine();
        engine.sigma().to_text(engine.schema())
    }

    /// A committed swap sweeps the old generation, and a reopen serves
    /// the swapped model — its RFDs, not the base artifact's — plus the
    /// batches committed after it.
    #[test]
    fn committed_swap_survives_reopen_and_sweeps_the_old_generation() {
        let (base, layout) = model_dir("swap-commit");
        let (reg, _) = open(&base);
        ingest(&reg, "Torino", Some("10121")).unwrap();

        let tuned = RfdSet::from_text("City(<=1) -> Zip(<=0)", &schema()).unwrap();
        let oracle = DistanceOracle::build(&relation(), 0);
        let art = artifact::decode(&artifact::encode(&relation(), &tuned, &oracle, None, "tuned", 0))
            .unwrap();
        assert_eq!(reg.swap(art).unwrap(), 1);
        let want = tuned.to_text(&schema());
        assert_eq!(served_rfds(&reg), want);
        assert_eq!(Manifest::load(&layout.manifest()).unwrap().generation, 1);
        assert!(layout.shard_snapshot(1, 0).exists());
        assert!(!layout.shard_snapshot(0, 0).exists(), "old generation swept after commit");
        assert!(!layout.shard_wal(0, 0).exists());
        ingest(&reg, "Napoli", Some("80121")).unwrap();
        drop(reg);

        let (reg, rep) = open(&base);
        assert_eq!((rep.seq, rep.replayed), (2, 1));
        assert_eq!(served_rfds(&reg), want, "a restart reverted the swap");
        // 6 swapped-in rows + the post-swap batch.
        assert_eq!((reg.snapshot().rows(), reg.generation()), (7, 1));
    }
}
