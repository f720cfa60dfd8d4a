//! The engine registry: the one serving topology.
//!
//! A registry owns one prepared [`Engine`] behind a mutex for its whole
//! life. Every `/v1/impute` request, every ingest repair and every
//! commit goes through that engine — [`Engine::impute_batch_with`] and
//! [`Engine::commit_tuples`] — so a registry answers byte-identically to
//! a plain engine by construction. Reads serialize on the engine lock;
//! the engine parallelizes inside each request. A model swap replaces the
//! engine inside the same mutex, so a request sees either the old model
//! or the new one, never a blend.
//!
//! Shards are only the on-disk layout: every committed row is assigned
//! to a shard with [`renuver_core::shard_of`], and a durable registry
//! keeps one snapshot and one write-ahead log per shard. In memory the
//! registry keeps the assignment (one shard id per global row), never a
//! second copy of the relation; per-shard row sets are cut from the
//! engine's relation whenever a snapshot is written.
//!
//! ## On-disk layout
//!
//! Beside a base model at `model.rnv`, a durable registry keeps
//!
//! | file                  | holds                                         |
//! |-----------------------|-----------------------------------------------|
//! | `model.rnv.shard<k>`  | shard `k`'s snapshot (a normal v2 artifact)   |
//! | `model.rnv.shard<k>.wal` | shard `k`'s write-ahead log                |
//! | `model.rnv.manifest`  | routing table: shard id per global base row   |
//!
//! A model swap never rewrites those files in place: it writes the whole
//! replacement layout under the next generation's names
//! (`model.rnv.g<gen>.shard<k>[.wal]`) and commits by atomically
//! renaming a manifest that records the new generation — the manifest is
//! the single switch, so a crash anywhere inside a swap leaves either
//! the complete old layout or the complete new one, never a mix.
//!
//! Every shard WAL records the **full repaired batch** (not just the
//! shard's own rows). That redundancy is the recovery story: any healthy
//! WAL can rebuild the rows of a shard whose own log is gone, so a
//! single-shard crash degrades exactly one shard instead of the registry.
//!
//! ## Recovery
//!
//! With the manifest at seq `M` and shard snapshots at seqs `s_k ≥ M`
//! (mixed after a mid-compaction crash), every WAL is opened at
//! `snapshot_seq = M` — the manifest is always written before any WAL is
//! truncated, so `base_seq ≤ M` holds for every log. The committed
//! horizon is the minimum `last_seq` over healthy WALs. The manifest's
//! rows are merged from the shard snapshots in global row order into one
//! relation, the model's RFD set is read from the snapshots (so a swapped
//! model survives a restart), the engine is prepared once, and batches
//! `M+1 ..= committed` replay through [`Engine::commit_tuples`]. A
//! snapshot ahead of the manifest must hold exactly the replayed rows its
//! seq covers. A recovery that finds mixed snapshot seqs compacts once to
//! normalize.
//!
//! The first durable open of an artifact with no manifest reuses the
//! artifact's decoded oracle and index, replays a `model.rnv.wal` left by
//! the earlier single-file store (records above the artifact's seq), and
//! then writes the layout; the old log is removed only after the manifest
//! rename is durable.
//!
//! Compaction folds into the shard snapshots, never into the base model,
//! so once a layout exists the model a `model.rnv` path holds is the
//! layout's committed state. [`Registry::load`] reads it that way for
//! non-durable consumers (`serve` without `--wal`, `tune`, `inspect`) —
//! the same algorithm with the logs only read, never truncated or
//! created — and [`Registry::reload`] does so for `SIGHUP`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use renuver_core::{assign, partition_attrs, shard_of, BatchResult, Engine, RenuverConfig};
use renuver_data::{DataError, Relation, Schema, Tuple};
use renuver_rfd::RfdSet;

use crate::artifact::{self, Artifact, ArtifactError};
use crate::fault;
use crate::wal::{sync_parent_dir, Wal, WalError};

/// Manifest magic: `RNVM`.
const MANIFEST_MAGIC: [u8; 4] = *b"RNVM";
/// Manifest format version. v2 added the layout generation.
const MANIFEST_VERSION: u32 = 2;

/// Compact once any shard WAL exceeds this many bytes (default).
pub const DEFAULT_COMPACT_BYTES: u64 = 4 << 20;
/// Compact once any shard WAL holds this many records (default).
pub const DEFAULT_COMPACT_RECORDS: u64 = 256;

// ---------------------------------------------------------------- layout

/// Path conventions for a sharded model rooted at a base `.rnv` path.
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
    /// names `prepare` writes.
    fn gen_prefix(gen: u64) -> String {
        if gen == 0 { String::new() } else { format!(".g{gen}") }
    }

    /// `model.rnv[.g<gen>].shard<k>` — shard `k`'s snapshot in layout
    /// generation `gen`.
    pub fn shard_snapshot(&self, gen: u64, k: usize) -> PathBuf {
        self.suffixed(&format!("{}.shard{k}", Self::gen_prefix(gen)))
    }

    /// `model.rnv[.g<gen>].shard<k>.wal` — shard `k`'s write-ahead log
    /// in layout generation `gen`.
    pub fn shard_wal(&self, gen: u64, k: usize) -> PathBuf {
        self.suffixed(&format!("{}.shard{k}.wal", Self::gen_prefix(gen)))
    }

    /// `model.rnv.manifest` — the routing manifest. Generation-less: the
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
    /// generation's shard files and a single-file WAL — leaving the base
    /// model alone. `prepare` clears the layout of the model it replaces
    /// before writing the new one.
    pub fn clear(&self) -> io::Result<()> {
        remove_if_present(&self.manifest())?;
        self.sweep_generations(None);
        remove_if_present(&self.legacy_wal())
    }

    /// Best-effort removal of every shard file whose generation is not
    /// `current` (`None` removes them all): losers of an interrupted
    /// swap, or the previous layout after a committed one. Never touches
    /// the manifest or the base model.
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
/// to fold the shard WALs back into snapshots.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// The layout beside the model.
    pub layout: ShardLayout,
    /// Provenance string stamped into shard snapshots.
    pub source: String,
    /// Compact once any shard WAL exceeds this many bytes.
    pub compact_bytes: u64,
    /// Compact once any shard WAL holds this many records.
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

/// The routing manifest: which shard owns each global base row, plus the
/// partition attributes so WAL replay re-derives identical assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Schema fingerprint — must match every shard snapshot and WAL.
    pub schema_fp: u64,
    /// Number of shards in the layout.
    pub n_shards: usize,
    /// The seq this manifest (and the `assign` table) covers.
    pub seq: u64,
    /// Layout generation: which `[.g<gen>]` file set holds the shard
    /// snapshots and WALs. A model swap writes the whole next generation
    /// before flipping this in one atomic manifest rename.
    pub generation: u64,
    /// Partition attributes hashed by [`shard_of`].
    pub attrs: Vec<usize>,
    /// `assign[g]` = owning shard of global row `g`, for all rows at
    /// `seq`. Locals are re-derived by counting in order.
    pub assign: Vec<u32>,
}

impl Manifest {
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
        write_atomic(path, &self.encode())
    }
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_os = path.to_path_buf().into_os_string();
    tmp_os.push(".tmp");
    let tmp = PathBuf::from(tmp_os);
    fs::write(&tmp, bytes)?;
    fs::File::open(&tmp)?.sync_all()?;
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
    /// A shard snapshot failed to load or encode.
    Artifact(ArtifactError),
    /// A WAL failed to open or is corrupt beyond its torn tail.
    Wal(WalError),
    /// The manifest is missing, corrupt, or inconsistent.
    Manifest(String),
    /// A model's schema fingerprint does not match the registry's.
    SchemaMismatch { expected: u64, got: u64 },
    /// Replay could not reconstruct a consistent state.
    Recovery(String),
    /// A shard WAL append failed; the batch was not committed.
    WalAppend(io::Error),
    /// The batch itself was rejected by the imputation core.
    Data(DataError),
    /// Ingest refused because one or more shards are degraded.
    Degraded(Vec<usize>),
    /// A tune install refused because the model was swapped while the
    /// job ran.
    Swapped,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry i/o error: {e}"),
            RegistryError::Artifact(e) => write!(f, "shard snapshot error: {e}"),
            RegistryError::Wal(e) => write!(f, "{e}"),
            RegistryError::Manifest(m) => write!(f, "manifest error: {m}"),
            RegistryError::SchemaMismatch { expected, got } => write!(
                f,
                "schema fingerprint mismatch: registry has {expected:#x}, model has {got:#x}"
            ),
            RegistryError::Recovery(m) => write!(f, "shard recovery failed: {m}"),
            RegistryError::WalAppend(e) => write!(f, "wal append failed, nothing committed: {e}"),
            RegistryError::Data(e) => write!(f, "{e}"),
            RegistryError::Degraded(shards) => {
                write!(f, "shards degraded: {shards:?} — ingest refused")
            }
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
    /// The model schema.
    pub fn schema(&self) -> &Schema {
        self.reg.schema()
    }

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

/// Per-shard health, reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving and accepting ingests.
    Ok,
    /// The shard's WAL is unusable: imputes are served (its rows were
    /// rebuilt from sibling logs) but ingest is refused.
    Degraded,
}

impl ShardState {
    /// Stable label for JSON payloads.
    pub fn label(self) -> &'static str {
        match self {
            ShardState::Ok => "ok",
            ShardState::Degraded => "degraded",
        }
    }
}

/// What recovery found and did, for startup logging.
#[derive(Debug, Clone, Default)]
pub struct ShardRecovery {
    /// Batches replayed from the WAL horizon (or from a migrated
    /// single-file WAL).
    pub replayed: usize,
    /// Rows committed by replay.
    pub rows: usize,
    /// The committed seq after recovery.
    pub seq: u64,
    /// Shards whose WAL could not be opened.
    pub degraded: Vec<usize>,
    /// Whether recovery compacted to normalize mixed snapshot seqs.
    pub normalized: bool,
}

// ------------------------------------------------------------- registry

/// The durable half of a registry: per-shard WALs (`None` = degraded)
/// plus the layout and compaction thresholds.
struct Store {
    layout: ShardLayout,
    wals: Vec<Option<Wal>>,
    /// The live layout generation (file-name suffix of snapshots/WALs).
    generation: u64,
    source: String,
    compact_bytes: u64,
    compact_records: u64,
}

/// The commit-locked half of a registry: the row assignment and the
/// durable store. Lock order: this before the engine.
struct State {
    attrs: Vec<usize>,
    assign: Vec<u32>,
    seq: u64,
    store: Option<Store>,
}

struct Inner {
    engine: Mutex<Engine>,
    state: Mutex<State>,
    config: RenuverConfig,
    schema: Schema,
    schema_fp: u64,
    n_shards: usize,
    /// Whether commits are logged (fixed at construction).
    durable: bool,
    /// The committed seq, published so handles never wait on the commit
    /// lock (which compaction holds across its file writes).
    seq: AtomicU64,
    /// Rows per shard, published for `/healthz` and the shard gauges.
    shard_rows: Vec<AtomicUsize>,
    shard_states: Vec<AtomicU8>,
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

    fn publish_rows(&self, assign: &[u32]) {
        for (slot, n) in self.shard_rows.iter().zip(shard_counts(assign, self.n_shards)) {
            slot.store(n, Ordering::Release);
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
    /// The owning shard of each committed row, in batch order.
    pub shards: Vec<usize>,
    /// Whether any shard WAL has crossed its compaction thresholds.
    pub wants_compact: bool,
}

impl Registry {
    // -------------------------------------------------------- construct

    /// Builds an in-memory (non-durable) registry by preparing an engine
    /// over `rel`.
    pub fn build(rel: &Relation, sigma: RfdSet, config: RenuverConfig, n_shards: usize) -> Registry {
        Registry::from_engine(Engine::prepare(rel.clone(), sigma, config), n_shards)
    }

    /// Wraps an already prepared engine in an in-memory (non-durable)
    /// registry. The engine's oracle and index are kept as they are.
    pub fn from_engine(engine: Engine, n_shards: usize) -> Registry {
        let n_shards = n_shards.max(1);
        let (attrs, assign) = route(engine.relation(), engine.sigma(), n_shards);
        let state = State { attrs, assign, seq: 0, store: None };
        Registry::assemble(engine, state, n_shards, &[])
    }

    fn assemble(engine: Engine, state: State, n_shards: usize, degraded: &[usize]) -> Registry {
        let schema = engine.schema().clone();
        let inner = Inner {
            config: engine.config().clone(),
            schema_fp: artifact::schema_fingerprint(&schema),
            schema,
            n_shards,
            durable: state.store.is_some(),
            seq: AtomicU64::new(state.seq),
            shard_rows: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
            shard_states: (0..n_shards)
                .map(|k| AtomicU8::new(u8::from(degraded.contains(&k))))
                .collect(),
            compacting: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
            engine: Mutex::new(engine),
            state: Mutex::new(state),
        };
        inner.publish_rows(&inner.state.lock().expect("fresh lock").assign);
        Registry { inner: Arc::new(inner) }
    }

    /// Writes the layout for `rel` beside `layout`'s base at `seq`
    /// without opening WALs — the `prepare --shards` path, run on a
    /// [cleared](ShardLayout::clear) layout. Returns the shard row counts.
    pub fn prepare_layout(
        rel: &Relation,
        sigma: &RfdSet,
        n_shards: usize,
        layout: &ShardLayout,
        source: &str,
        seq: u64,
    ) -> Result<Vec<usize>, RegistryError> {
        let n_shards = n_shards.max(1);
        let (attrs, assign) = route(rel, sigma, n_shards);
        write_shard_snapshots(layout, 0, n_shards, false, |k| {
            shard_bytes(rel, &assign, k, sigma, source, seq)
        })?;
        let schema_fp = artifact::schema_fingerprint(rel.schema());
        let rows = shard_counts(&assign, n_shards);
        Manifest { schema_fp, n_shards, seq, generation: 0, attrs, assign }
            .store(&layout.manifest())?;
        Ok(rows)
    }

    /// Opens (or initializes) a durable registry beside `base`.
    ///
    /// With no manifest on disk the artifact's engine is used as decoded
    /// (oracle and index included), a single-file WAL beside it is
    /// migrated, and the layout is written at `n_shards`. With a
    /// manifest, the layout recovers per the module-level algorithm and
    /// keeps its own shard count.
    pub fn open_durable(
        base: Artifact,
        config: RenuverConfig,
        n_shards: usize,
        layout: ShardLayout,
        source: &str,
        compact_bytes: u64,
        compact_records: u64,
    ) -> Result<(Registry, ShardRecovery), RegistryError> {
        let store = Store {
            layout,
            wals: Vec::new(),
            generation: 0,
            source: source.to_string(),
            compact_bytes,
            compact_records,
        };
        if store.layout.manifest().exists() {
            Registry::recover(base, config, store)
        } else {
            Registry::first_open(base, config, n_shards.max(1), store)
        }
    }

    fn first_open(
        base: Artifact,
        config: RenuverConfig,
        n_shards: usize,
        mut store: Store,
    ) -> Result<(Registry, ShardRecovery), RegistryError> {
        let schema_fp = base.schema_fingerprint;
        let mut seq = base.committed_seq;
        let mut engine = base.into_engine(config);
        let arity = engine.relation().arity();
        let layout = &store.layout;
        // No manifest references any shard file yet: leftovers of an
        // interrupted first open are garbage.
        layout.sweep_generations(None);

        // Migrate the single-file store: its records above the artifact's
        // seq replay through the live commit path before the layout is
        // written, so the layout's first snapshots already hold them.
        let legacy = layout.legacy_wal();
        let migrating = legacy.exists();
        let mut report = ShardRecovery::default();
        if migrating {
            let (wal, records) = Wal::open(&legacy, schema_fp, seq, arity)?;
            for rec in records {
                report.rows += commit_replayed(&mut engine, rec.seq, rec.tuples)?;
                report.replayed += 1;
            }
            seq = wal.last_seq();
        }

        let (attrs, assign) = route(engine.relation(), engine.sigma(), n_shards);
        write_shard_snapshots(layout, 0, n_shards, false, |k| {
            shard_bytes(engine.relation(), &assign, k, engine.sigma(), &store.source, seq)
        })?;
        store.wals = fresh_wals(layout, 0, n_shards, schema_fp, seq, arity)?;
        Manifest { schema_fp, n_shards, seq, generation: 0, attrs: attrs.clone(), assign: assign.clone() }
            .store(&layout.manifest())?;
        if migrating {
            // The manifest rename is durable: the layout now holds every
            // record the old log did.
            fault::hit("migrate.pre_unlink")?;
            remove_if_present(&legacy)?;
        }
        report.seq = seq;
        let state = State { attrs, assign, seq, store: Some(store) };
        Ok((Registry::assemble(engine, state, n_shards, &[]), report))
    }

    fn recover(
        base: Artifact,
        config: RenuverConfig,
        mut store: Store,
    ) -> Result<(Registry, ShardRecovery), RegistryError> {
        let layout = store.layout.clone();
        let schema_fp = base.schema_fingerprint;
        let arity = base.relation.arity();
        let read = read_layout(base, config, &layout, true)?;
        let gen = read.manifest.generation;
        // Sweep losers of an interrupted swap (files of any generation
        // other than the committed one) before they can shadow a later
        // swap to the same generation number, and finish a migration
        // that crashed after its manifest commit.
        layout.sweep_generations(Some(gen));
        finish_migration(&layout, schema_fp, read.manifest.seq, arity);
        store.generation = gen;
        store.wals = read.wals;
        let mut report = read.report;
        let state =
            State { attrs: read.manifest.attrs, assign: read.assign, seq: report.seq, store: Some(store) };
        let reg = Registry::assemble(read.engine, state, read.manifest.n_shards, &report.degraded);
        if read.mixed {
            // Normalize: rewrite every snapshot + the manifest at the
            // committed horizon and reset the healthy logs.
            reg.compact()?;
            report.normalized = true;
        }
        Ok((reg, report))
    }

    /// A non-durable one-shard registry over the model the file at
    /// `layout`'s base holds: `base` (that file, decoded) as is, or — when
    /// a durable layout sits beside the file — the layout's committed
    /// state, read the way recovery reads it. Writes nothing. `serve`
    /// without `--wal`, `tune` and `inspect` load models this way.
    pub fn load(
        base: Artifact,
        config: RenuverConfig,
        layout: &ShardLayout,
    ) -> Result<Registry, RegistryError> {
        let (engine, seq) = load_model(base, config, layout)?;
        let assign = vec![0; engine.relation().len()];
        let state = State { attrs: Vec::new(), assign, seq, store: None };
        Ok(Registry::assemble(engine, state, 1, &[]))
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

    /// The model schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Number of shards in the layout.
    pub fn n_shards(&self) -> usize {
        self.inner.n_shards
    }

    /// The registry's schema fingerprint.
    pub fn schema_fp(&self) -> u64 {
        self.inner.schema_fp
    }

    /// Whether commits are logged to per-shard WALs.
    pub fn is_durable(&self) -> bool {
        self.inner.durable
    }

    /// Per-shard health, shard order.
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.inner
            .shard_states
            .iter()
            .map(|s| if s.load(Ordering::Acquire) == 0 { ShardState::Ok } else { ShardState::Degraded })
            .collect()
    }

    /// Indices of degraded shards.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.shard_states()
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ShardState::Degraded)
            .map(|(k, _)| k)
            .collect()
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

    /// Committed rows per shard.
    pub fn shard_rows(&self) -> Vec<usize> {
        self.inner.shard_rows.iter().map(|n| n.load(Ordering::Acquire)).collect()
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ----------------------------------------------------------- ingest

    /// Repairs and commits a batch: impute under the engine lock, append
    /// the full repaired batch to every healthy shard WAL (no engine lock
    /// held across the fsync), then commit under the engine lock. The
    /// commit lock serializes the three steps against other commits.
    /// Refused while any shard is degraded — acknowledging a batch a
    /// degraded log never saw would silently fork the shards on the next
    /// recovery.
    pub fn ingest(
        &self,
        tuples: Vec<Tuple>,
        config: &RenuverConfig,
    ) -> Result<IngestOutcome, RegistryError> {
        let mut state = self.lock_state();
        // Degradation only transitions while this lock is held (the
        // append fan-out below, `swap`, and recovery all run under it),
        // so checking here cannot race with a concurrent ingest that
        // degrades a shard after we looked.
        let degraded = self.degraded_shards();
        if !degraded.is_empty() {
            return Err(RegistryError::Degraded(degraded));
        }
        let batch = self.inner.lock_engine().impute_batch_with(tuples, config)?;

        let seq = state.seq + 1;
        if let Some(store) = state.store.as_mut() {
            for k in 0..store.wals.len() {
                // A missing handle is a hard refusal, never a skip.
                let Some(wal) = store.wals[k].as_mut() else {
                    return Err(RegistryError::Degraded(vec![k]));
                };
                let appended = fault::hit(&format!("registry.append.shard{k}"))
                    .and_then(|()| wal.append(&batch.tuples).map(|_| ()));
                if let Err(e) = appended {
                    // Drop the handle: the shard is degraded until a swap
                    // or restart rebuilds its log. The batch is NOT
                    // acknowledged; logs that already hold this seq are
                    // beyond the committed horizon and will be truncated
                    // by the next compaction.
                    store.wals[k] = None;
                    self.inner.shard_states[k].store(1, Ordering::Release);
                    return Err(RegistryError::WalAppend(e));
                }
            }
        }

        let stats = match self.inner.lock_engine().commit_tuples(batch.tuples.clone()) {
            Ok(stats) => stats,
            Err(e) => {
                // The logs hold a batch the engine refused: only a
                // restart (replay) re-syncs them, so refuse writes.
                if state.store.is_some() {
                    for s in &self.inner.shard_states {
                        s.store(1, Ordering::Release);
                    }
                }
                return Err(RegistryError::Data(e));
            }
        };
        let shards: Vec<usize> =
            batch.tuples.iter().map(|t| shard_of(t, &state.attrs, self.inner.n_shards)).collect();
        for &k in &shards {
            state.assign.push(k as u32);
            self.inner.shard_rows[k].fetch_add(1, Ordering::AcqRel);
        }
        state.seq = seq;
        self.inner.seq.store(seq, Ordering::Release);
        let wants_compact = state.store.as_ref().is_some_and(|s| {
            s.wals.iter().flatten().any(|w| {
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
            shards,
            wants_compact,
        })
    }

    // ------------------------------------------------------- compaction

    /// Folds every shard's WAL into a fresh snapshot, rewrites the
    /// manifest, and resets the healthy logs. Fault points, hit per
    /// shard: `compact.pre_write`, `compact.pre_rename`, and
    /// `compact.shard_done` after each shard's snapshot goes live — the
    /// window where a crash leaves snapshot seqs mixed; then
    /// `compact.post_rename` after the manifest and `compact.pre_truncate`
    /// before each log reset. Readers wait on the engine only while a
    /// shard's rows are cut from the relation, never across file writes.
    pub fn compact(&self) -> Result<u64, RegistryError> {
        let mut state = self.lock_state();
        let seq = state.seq;
        let State { attrs, assign, store, .. } = &mut *state;
        let Some(store) = store.as_mut() else {
            return Ok(seq);
        };
        write_shard_snapshots(&store.layout, store.generation, self.inner.n_shards, true, |k| {
            let engine = self.inner.lock_engine();
            shard_bytes(engine.relation(), assign, k, engine.sigma(), &store.source, seq)
        })?;
        Manifest {
            schema_fp: self.inner.schema_fp,
            n_shards: self.inner.n_shards,
            seq,
            generation: store.generation,
            attrs: attrs.clone(),
            assign: assign.clone(),
        }
        .store(&store.layout.manifest())?;
        fault::hit("compact.post_rename")?;
        for wal in store.wals.iter_mut().flatten() {
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
    /// index included): rewrites the durable layout (fresh WALs — this
    /// also clears any degraded shard) and replaces the engine inside its
    /// mutex. In-flight imputes finish on the old engine; the seq counter
    /// keeps running. Rejected when the schema fingerprint differs.
    ///
    /// The durable rewrite is crash-atomic: every file of the new layout
    /// — snapshots *and* fresh WALs — is written under the next
    /// generation's names, invisible to recovery, and the single commit
    /// point is the atomic manifest rename that flips the generation. A
    /// crash before it leaves the old generation byte-for-byte intact
    /// (including its logs, so no acknowledged batch is lost); a crash
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
        let n = self.inner.n_shards;
        let seq = state.seq.max(seq);
        let (attrs, assign) = route(engine.relation(), engine.sigma(), n);
        if let Some(store) = state.store.as_mut() {
            let old_gen = store.generation;
            let new_gen = old_gen + 1;
            write_shard_snapshots(&store.layout, new_gen, n, false, |k| {
                shard_bytes(engine.relation(), &assign, k, engine.sigma(), &store.source, seq)
            })?;
            // An earlier swap to this generation may have failed before
            // its commit point; fresh logs are wanted either way, and
            // stale or corrupt predecessors being gone is what lets a
            // swap heal a degraded shard.
            let arity = engine.relation().arity();
            let wals = fresh_wals(&store.layout, new_gen, n, self.inner.schema_fp, seq, arity)?;
            fault::hit("swap.pre_commit")?;
            Manifest {
                schema_fp: self.inner.schema_fp,
                n_shards: n,
                seq,
                generation: new_gen,
                attrs: attrs.clone(),
                assign: assign.clone(),
            }
            .store(&store.layout.manifest())?;
            // Committed. The old generation is garbage from here on.
            store.generation = new_gen;
            store.wals = wals;
            for k in 0..n {
                let _ = fs::remove_file(store.layout.shard_snapshot(old_gen, k));
                let _ = fs::remove_file(store.layout.shard_wal(old_gen, k));
            }
        }
        let old = std::mem::replace(&mut *self.inner.lock_engine(), engine);
        drop(old);
        self.inner.publish_rows(&assign);
        state.attrs = attrs;
        state.assign = assign;
        state.seq = seq;
        self.inner.seq.store(seq, Ordering::Release);
        for s in &self.inner.shard_states {
            s.store(0, Ordering::Release);
        }
        // Counted before the commit lock is released, so `retune` sees
        // every swap that landed before it took the lock.
        self.inner.swaps.fetch_add(1, Ordering::AcqRel);
        drop(state);
        Ok(seq)
    }
}

// ---------------------------------------------------------------- shared

/// Rows per shard under `assign`.
fn shard_counts(assign: &[u32], n: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n];
    for &k in assign {
        counts[k as usize] += 1;
    }
    counts
}

/// A durable layout as recovery reads it.
struct LayoutRead {
    manifest: Manifest,
    /// The engine at the committed horizon: the manifest's rows merged
    /// from the shard snapshots, then the WAL suffix replayed.
    engine: Engine,
    /// The manifest's assignment extended by the replayed rows.
    assign: Vec<u32>,
    /// Shard logs opened for append (`None` = degraded, or a read-only
    /// read).
    wals: Vec<Option<Wal>>,
    /// Replay counts, the committed seq and the degraded shards.
    report: ShardRecovery,
    /// Whether snapshot or log seqs differ from the committed horizon.
    mixed: bool,
}

/// Reads the layout beside `base`'s file per the module-level algorithm
/// and builds its engine. `writable` opens the shard logs for append
/// (truncating torn tails); otherwise they are only read, and nothing is
/// written.
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
    // panic out of bounds during replay or ingest.
    if let Some(&a) = m.attrs.iter().find(|&&a| a >= arity) {
        return Err(RegistryError::Manifest(format!(
            "manifest partition attribute {a} out of range for arity {arity}"
        )));
    }
    let gen = m.generation;

    // Shard snapshots, each possibly ahead of the manifest after a
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

    // WALs open at the manifest seq: the manifest is written before any
    // WAL reset, so every base_seq ≤ m.seq. An unopenable WAL degrades
    // its shard; siblings carry the full batches.
    let mut records = Vec::new();
    let mut wals = Vec::with_capacity(n);
    let mut healthy_seqs = Vec::with_capacity(n);
    let mut degraded = Vec::new();
    for k in 0..n {
        let path = layout.shard_wal(gen, k);
        let opened = if writable {
            Wal::open(&path, schema_fp, m.seq, arity).map(|(wal, recs)| (wal.last_seq(), recs, Some(wal)))
        } else {
            Wal::read(&path, schema_fp, m.seq, arity).map(|(last, recs)| (last, recs, None))
        };
        match opened {
            Ok((last, recs, wal)) => {
                if recs.len() > records.len() {
                    records = recs;
                }
                healthy_seqs.push(last);
                wals.push(wal);
            }
            Err(e) => {
                eprintln!("renuver: shard {k} wal unusable ({e}); shard degraded");
                degraded.push(k);
                wals.push(None);
            }
        }
    }
    if healthy_seqs.is_empty() && snap_seq.iter().any(|&s| s != m.seq) {
        return Err(RegistryError::Recovery(
            "no readable wal and shard snapshots are ahead of the manifest".to_string(),
        ));
    }
    let committed = healthy_seqs.iter().copied().min().unwrap_or(m.seq);
    // Every healthy log holds m.seq+1 ..= its last_seq; the longest list
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

    let mixed =
        snap_seq.iter().any(|&s| s != committed) || healthy_seqs.iter().any(|&s| s != committed);
    let rel = Relation::new(base.relation.schema().clone(), rows)
        .map_err(|e| RegistryError::Recovery(format!("shard snapshots disagree with the schema: {e}")))?;
    // A layout that still holds exactly the artifact's model keeps the
    // artifact's decoded oracle and index; anything else (a compacted or
    // swapped layout) is prepared once.
    let mut engine = if gen == 0 && rel == base.relation && sigma == base.rfds {
        base.into_engine(config)
    } else {
        drop(base);
        Engine::prepare(rel, sigma, config)
    };
    let mut assign = m.assign.clone();
    let mut report = ShardRecovery { seq: committed, degraded, ..Default::default() };
    for rec in records {
        assign.extend(rec.tuples.iter().map(|t| shard_of(t, &m.attrs, n) as u32));
        report.rows += commit_replayed(&mut engine, rec.seq, rec.tuples)?;
        report.replayed += 1;
    }
    Ok(LayoutRead { manifest: m, engine, assign, wals, report, mixed })
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

/// The partition attributes and row assignment for `rel` over `n`
/// shards. One shard routes every row to itself, so it skips the
/// key-RFD scan that picks the attributes.
fn route(rel: &Relation, sigma: &RfdSet, n: usize) -> (Vec<usize>, Vec<u32>) {
    if n == 1 {
        return (Vec::new(), vec![0; rel.len()]);
    }
    let attrs = partition_attrs(rel, sigma);
    let assign = assign(rel.tuples(), &attrs, n);
    (attrs, assign)
}

/// Commits one replayed WAL record, returning its row count.
fn commit_replayed(engine: &mut Engine, seq: u64, tuples: Vec<Tuple>) -> Result<usize, RegistryError> {
    engine
        .commit_tuples(tuples)
        .map(|stats| stats.rows)
        .map_err(|e| RegistryError::Recovery(format!("wal seq {seq} disagrees with the model schema: {e}")))
}

/// Shard `k`'s snapshot: its rows of `rel` under `assign`, in global
/// order, encoded without a distance cache — recovery prepares one
/// engine over the merged relation, so a per-shard matrix would be pure
/// bloat. Encoded straight from `rel`, never copied out of it.
fn shard_bytes(
    rel: &Relation,
    assign: &[u32],
    k: usize,
    sigma: &RfdSet,
    source: &str,
    seq: u64,
) -> Vec<u8> {
    let rows = (0..assign.len().min(rel.len()))
        .filter(move |&g| assign[g] as usize == k)
        .map(move |g| rel.tuple(g));
    artifact::encode_uncached(rel.schema(), rows, sigma, source, seq)
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

/// Header-only WALs for every shard of generation `gen`, replacing any
/// files already at those paths.
fn fresh_wals(
    layout: &ShardLayout,
    gen: u64,
    n: usize,
    schema_fp: u64,
    seq: u64,
    arity: usize,
) -> Result<Vec<Option<Wal>>, RegistryError> {
    (0..n)
        .map(|k| {
            let path = layout.shard_wal(gen, k);
            remove_if_present(&path)?;
            Ok(Some(Wal::open(&path, schema_fp, seq, arity)?.0))
        })
        .collect()
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

/// Writes one snapshot per shard (temp + fsync + rename + dir fsync)
/// under generation `gen`'s names; `encode(k)` yields shard `k`'s bytes.
/// `faults` wires the compaction crash points, per shard.
fn write_shard_snapshots(
    layout: &ShardLayout,
    gen: u64,
    n: usize,
    faults: bool,
    mut encode: impl FnMut(usize) -> Vec<u8>,
) -> Result<(), RegistryError> {
    for k in 0..n {
        if faults {
            fault::hit("compact.pre_write")?;
        }
        let bytes = encode(k);
        let path = layout.shard_snapshot(gen, k);
        let mut tmp_os = path.clone().into_os_string();
        tmp_os.push(".tmp");
        let tmp = PathBuf::from(tmp_os);
        fs::write(&tmp, &bytes)?;
        fs::File::open(&tmp)?.sync_all()?;
        if faults {
            fault::hit("compact.pre_rename")?;
        }
        fs::rename(&tmp, &path)?;
        sync_parent_dir(&path);
        if faults {
            fault::hit("compact.shard_done")?;
        }
    }
    Ok(())
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
        let reg = Registry::build(&relation(), sigma(), RenuverConfig::default(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.rows(), 6);
        let cfg = snap.config.clone();
        let out = snap
            .impute(vec![vec![Value::from("Salerno"), Value::Null]], &cfg)
            .unwrap();
        assert_eq!(out.tuples[0][1], Value::from("84121"));
        let outcome = reg
            .ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg)
            .unwrap();
        assert_eq!(outcome.seq, 1);
        assert_eq!(outcome.donor_rows, 7);
        assert_eq!(reg.snapshot().rows(), 7);
    }

    #[test]
    fn durable_registry_survives_reopen() {
        let dir = tmpdir("reopen");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let art = artifact::load(&base).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, rep) = Registry::open_durable(
            art, RenuverConfig::default(), 2, layout.clone(), "test", 1 << 20, 1 << 20,
        )
        .unwrap();
        assert_eq!(rep.seq, 0);
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        reg.ingest(vec![vec![Value::from("Napoli"), Value::Null]], &cfg).unwrap();
        let before: Vec<usize> = reg.shard_rows();
        drop(reg);

        let art = artifact::load(&base).unwrap();
        let (reg2, rep2) = Registry::open_durable(
            art, RenuverConfig::default(), 2, layout, "test", 1 << 20, 1 << 20,
        )
        .unwrap();
        assert_eq!(rep2.seq, 2);
        assert_eq!(rep2.replayed, 2);
        assert!(rep2.degraded.is_empty());
        assert_eq!(reg2.shard_rows(), before);
        assert_eq!(reg2.snapshot().rows(), 8);
    }

    #[test]
    fn compaction_resets_wals_and_recovery_skips_folded_batches() {
        let dir = tmpdir("compact");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            3,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        assert_eq!(reg.compact().unwrap(), 1);
        reg.ingest(vec![vec![Value::from("Bari"), Value::from("70121")]], &cfg).unwrap();
        let rows = reg.shard_rows();
        drop(reg);

        let (reg2, rep) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            3,
            layout,
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        // Only the post-compaction batch replays.
        assert_eq!(rep.replayed, 1);
        assert_eq!(rep.seq, 2);
        assert_eq!(reg2.shard_rows(), rows);
    }

    #[test]
    fn corrupt_shard_wal_degrades_only_that_shard() {
        let dir = tmpdir("degrade");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        let rows = reg.snapshot().rows();
        drop(reg);

        // Flip a header byte of shard 1's log: schema fp mismatch.
        let wal_path = layout.shard_wal(0, 1);
        let mut bytes = fs::read(&wal_path).unwrap();
        bytes[9] ^= 0xff;
        fs::write(&wal_path, &bytes).unwrap();

        let (reg2, rep) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout,
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        assert_eq!(rep.degraded, vec![1]);
        assert_eq!(
            reg2.shard_states(),
            vec![ShardState::Ok, ShardState::Degraded]
        );
        // State was rebuilt from shard 0's full-batch log.
        assert_eq!(reg2.snapshot().rows(), rows);
        // Ingest is refused while degraded.
        let cfg = reg2.snapshot().config.clone();
        let err = match reg2.ingest(vec![vec![Value::from("Bari"), Value::from("70121")]], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("degraded registry accepted an ingest"),
        };
        assert!(matches!(err, RegistryError::Degraded(ref s) if s == &vec![1]));
    }

    #[test]
    fn swap_replaces_model_and_heals_degraded_shards() {
        let dir = tmpdir("swap");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
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

        // A matching swap replaces the relation and bumps the counter.
        let mut bigger = relation();
        bigger.push(vec![Value::from("Bari"), Value::from("70121")]).unwrap();
        let art = artifact::decode(&artifact_bytes(&bigger, 0)).unwrap();
        reg.swap(art).unwrap();
        assert_eq!(reg.swaps(), 1);
        assert_eq!(reg.snapshot().rows(), 7);
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        assert_eq!(reg.snapshot().rows(), 8);
    }

    #[test]
    fn recover_rejects_out_of_range_partition_attrs() {
        let dir = tmpdir("bad-attrs");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        drop(reg);

        // A manifest whose partition attrs point past the model's arity
        // must be refused cleanly, not panic inside `shard_of`.
        let mut m = Manifest::load(&layout.manifest()).unwrap();
        m.attrs = vec![7];
        m.store(&layout.manifest()).unwrap();
        let err = match Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout,
            "test",
            1 << 20,
            1 << 20,
        ) {
            Err(e) => e,
            Ok(_) => panic!("manifest with out-of-range attrs was accepted"),
        };
        assert!(
            matches!(err, RegistryError::Manifest(ref m) if m.contains("out of range")),
            "{err}"
        );
    }

    #[test]
    fn mid_fanout_append_failure_degrades_and_blocks_ingest_without_forking() {
        let dir = tmpdir("fanout");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();

        // Shard 1's append fails after shard 0 already logged the frame:
        // the batch must not be acknowledged and shard 1 degrades.
        fault::arm("registry.append.shard1", fault::Action::Err);
        let err = match reg.ingest(vec![vec![Value::from("Bari"), Value::from("70121")]], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("fan-out failure was acknowledged"),
        };
        fault::disarm("registry.append.shard1");
        assert!(matches!(err, RegistryError::WalAppend(_)), "{err}");
        assert_eq!(reg.shard_states(), vec![ShardState::Ok, ShardState::Degraded]);
        assert_eq!(reg.snapshot().seq, 1, "failed fan-out must not advance the seq");
        assert_eq!(reg.snapshot().rows(), 7);

        // The next ingest is refused under the commit lock — the None
        // slot is a hard error, never a silent skip.
        let err = match reg.ingest(vec![vec![Value::from("Bari"), Value::from("70121")]], &cfg) {
            Err(e) => e,
            Ok(_) => panic!("degraded registry accepted an ingest"),
        };
        assert!(matches!(err, RegistryError::Degraded(ref s) if s == &vec![1]), "{err}");
        drop(reg);

        // Recovery truncates shard 0's orphan frame (it sits beyond the
        // committed horizon) instead of forking the logs.
        let (reg2, rep) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout,
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        assert_eq!(rep.seq, 1);
        assert_eq!(rep.replayed, 1);
        assert!(rep.degraded.is_empty());
        assert!(rep.normalized, "the orphan frame leaves the logs mixed");
        assert_eq!(reg2.snapshot().rows(), 7);
        let cfg = reg2.snapshot().config.clone();
        let outcome = reg2
            .ingest(vec![vec![Value::from("Bari"), Value::from("70121")]], &cfg)
            .unwrap();
        assert_eq!(outcome.seq, 2);
    }

    #[test]
    fn interrupted_swap_preserves_the_old_generation() {
        let dir = tmpdir("swap-interrupt");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();

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
        // The old generation's WALs still accept commits.
        reg.ingest(vec![vec![Value::from("Napoli"), Value::from("80121")]], &cfg).unwrap();
        drop(reg);

        // Recovery reads the old manifest, replays both acknowledged
        // batches, and sweeps the orphaned generation-1 files.
        let (reg2, rep) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        assert_eq!(rep.seq, 2);
        assert_eq!(rep.replayed, 2);
        assert_eq!(reg2.snapshot().rows(), 8);
        assert!(!layout.shard_snapshot(1, 0).exists());
        assert!(!layout.shard_wal(1, 0).exists());
    }

    #[test]
    fn committed_swap_is_atomic_across_reopen_and_sweeps_the_old_generation() {
        let dir = tmpdir("swap-commit");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let (reg, _) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout.clone(),
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();

        let mut bigger = relation();
        bigger.push(vec![Value::from("Bari"), Value::from("70121")]).unwrap();
        let art = artifact::decode(&artifact_bytes(&bigger, 0)).unwrap();
        assert_eq!(reg.swap(art).unwrap(), 1);
        assert_eq!(Manifest::load(&layout.manifest()).unwrap().generation, 1);
        assert!(layout.shard_snapshot(1, 0).exists());
        assert!(!layout.shard_snapshot(0, 0).exists(), "old generation swept after commit");
        assert!(!layout.shard_wal(0, 0).exists());
        reg.ingest(vec![vec![Value::from("Napoli"), Value::from("80121")]], &cfg).unwrap();
        drop(reg);

        let (reg2, rep) = Registry::open_durable(
            artifact::load(&base).unwrap(),
            RenuverConfig::default(),
            2,
            layout,
            "test",
            1 << 20,
            1 << 20,
        )
        .unwrap();
        assert_eq!(rep.seq, 2);
        assert_eq!(rep.replayed, 1);
        // 7 swapped-in rows + the post-swap batch.
        assert_eq!(reg2.snapshot().rows(), 8);
    }

    fn open_at(base: &Path, n: usize) -> Registry {
        let art = artifact::load(base).unwrap();
        let layout = ShardLayout::beside(base);
        Registry::open_durable(art, RenuverConfig::default(), n, layout, "test", 1 << 20, 1 << 20)
            .unwrap()
            .0
    }

    #[test]
    fn an_existing_layout_keeps_its_shard_count() {
        let dir = tmpdir("keep-count");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        Registry::prepare_layout(&relation(), &sigma(), 3, &layout, "test", 0).unwrap();
        let reg = open_at(&base, 1);
        assert_eq!((reg.n_shards(), reg.seq(), reg.snapshot().rows()), (3, 0, 6));
        layout.clear().unwrap();
        assert!(!layout.manifest().exists() && !layout.shard_snapshot(0, 0).exists());
        assert!(base.exists());
    }

    /// `SIGHUP` after ingests: the base artifact still holds its
    /// prepare-time rows, but loading or reloading the file goes through
    /// the layout, so every committed batch — folded or still in a log —
    /// is kept, and a restart after the reload still has them.
    #[test]
    fn reload_after_ingest_keeps_every_committed_batch() {
        let dir = tmpdir("reload");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let reg = open_at(&base, 1);
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        reg.compact().unwrap();
        reg.ingest(vec![vec![Value::from("Napoli"), Value::from("80121")]], &cfg).unwrap();
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
        reg.ingest(vec![vec![Value::from("Bari"), Value::from("70121")]], &cfg).unwrap();
        drop(reg);
        let reg = open_at(&base, 1);
        assert_eq!((reg.seq(), reg.snapshot().rows()), (3, 9));
    }

    /// The tune-job install prepares the live relation, so a batch
    /// committed while the job ran survives it; a swap that landed while
    /// the job ran makes it refuse.
    #[test]
    fn retune_keeps_batches_and_refuses_after_a_swap() {
        let dir = tmpdir("retune");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let reg = open_at(&base, 2);
        let tuned = RfdSet::from_text("City(<=1) -> Zip(<=0)", &schema()).unwrap();
        let swaps = reg.swaps();
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        assert_eq!(reg.retune(tuned.clone(), swaps).unwrap(), 1);
        assert_eq!(reg.snapshot().rows(), 7);
        assert_eq!(served_rfds(&reg), tuned.to_text(&schema()));

        let swaps = reg.swaps();
        reg.swap(artifact::load(&base).unwrap()).unwrap();
        assert!(matches!(reg.retune(tuned.clone(), swaps), Err(RegistryError::Swapped)));
        drop(reg);
        let reg = open_at(&base, 2);
        assert_eq!(served_rfds(&reg), sigma().to_text(&schema()));
    }

    fn served_rfds(reg: &Registry) -> String {
        let engine = reg.lock_engine();
        engine.sigma().to_text(engine.schema())
    }

    #[test]
    fn swapped_model_survives_reopen() {
        let dir = tmpdir("swap-reopen");
        let base = dir.join("model.rnv");
        fs::write(&base, artifact_bytes(&relation(), 0)).unwrap();
        let layout = ShardLayout::beside(&base);
        let open = || {
            Registry::open_durable(
                artifact::load(&base).unwrap(),
                RenuverConfig::default(),
                2,
                layout.clone(),
                "test",
                1 << 20,
                1 << 20,
            )
            .unwrap()
            .0
        };
        let reg = open();
        let tuned = RfdSet::from_text("City(<=1) -> Zip(<=0)", &schema()).unwrap();
        let oracle = DistanceOracle::build(&relation(), 0);
        let art = artifact::decode(&artifact::encode(&relation(), &tuned, &oracle, None, "tuned", 0))
            .unwrap();
        reg.swap(art).unwrap();
        let want = tuned.to_text(&schema());
        assert_eq!(served_rfds(&reg), want);
        let cfg = reg.snapshot().config.clone();
        reg.ingest(vec![vec![Value::from("Torino"), Value::from("10121")]], &cfg).unwrap();
        drop(reg);

        // The base artifact still carries the prepared RFDs; the reopen
        // must serve the swapped ones from the committed generation.
        let reg = open();
        assert_eq!(served_rfds(&reg), want, "a restart reverted the swap");
        assert_eq!(reg.snapshot().rows(), 7);
        assert_eq!(reg.generation(), 1);
    }
}
