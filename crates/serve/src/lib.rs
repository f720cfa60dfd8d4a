//! Imputation-as-a-service: versioned model artifacts and an HTTP server.
//!
//! RENUVER's preparation work — RFD discovery, the dictionary-encoded
//! distance matrices, the similarity index — dwarfs the per-tuple
//! imputation cost, which makes the train-once / serve-many split
//! natural. This crate supplies both halves:
//!
//! - [`artifact`] — a versioned, checksummed single-file snapshot
//!   (`.rnv`) of a prepared model: relation + RFD set + oracle + index.
//!   Loading skips every quadratic build step and answers bit-for-bit
//!   identically to a fresh build.
//! - [`registry`] — the one serving topology: a registry owns one
//!   prepared engine, and every `/v1/impute`, ingest repair and commit
//!   runs on it, so served answers equal the engine's by construction.
//!   A durable registry (`serve --wal`, `ingest`) keeps one snapshot and
//!   one write-ahead log beside the model, under a manifest whose atomic
//!   rename commits every layout rewrite. A layout an earlier build
//!   wrote at `n > 1` shards is read as it is and migrated to one
//!   snapshot and one log on its first durable open (`serve --shards N`,
//!   which chose the shard count, is still accepted and ignored). Once a
//!   layout exists it is the model the `.rnv` path holds; non-durable
//!   readers load its committed state read-only. Compaction runs
//!   off-request, and `PUT /v1/model` / `SIGHUP` / a tune install swap
//!   the serving model atomically, guarded by the schema fingerprint; a
//!   swap writes a fresh log, which heals a degraded one (`wal_healed`).
//! - [`wal`], [`fault`] — the durable write path: every accepted ingest
//!   batch is fsynced into the CRC-framed log before the client sees a
//!   success response, and recovery replays the log through the same
//!   deterministic commit code the live server runs — so a restart after
//!   a crash at *any* point yields a model bit-identical to one that
//!   never crashed. [`fault`] is the injection harness the
//!   crash-recovery test matrix drives.
//! - [`jobs`] — the single-flight async job registry behind
//!   `POST /v1/tune`: one background tune at a time, monotonic ids,
//!   poll/cancel via `GET`/`DELETE /v1/tune/<id>`, budget-based
//!   cancellation with partial reports, and a graceful-drain join so
//!   shutdown never orphans a running job. A finished tune can install
//!   its winning thresholds through the same checked swap path as
//!   `PUT /v1/model`.
//! - [`http`], [`server`], [`router`] — a dependency-free HTTP/1.1
//!   server (the build container is offline; `std::net` is all there
//!   is) with a fixed worker pool, a bounded accept queue that sheds
//!   load with `503` + `Retry-After`, per-request execution budgets,
//!   and graceful drain on SIGTERM.
//!
//! The CLI front ends are `renuver prepare` (dataset → artifact),
//! `renuver inspect` (artifact and layout → summary), `renuver ingest`
//! (batch → repaired, WAL-committed model growth), and `renuver serve`
//! (artifact or dataset → listening server).

pub mod artifact;
mod codec;
pub mod fault;
pub mod flight;
pub mod http;
pub mod jobs;
pub mod registry;
pub mod router;
pub mod server;
pub mod wal;

pub use artifact::{Artifact, ArtifactError, ArtifactInfo};
pub use flight::{FlightOptions, FlightRecorder, SlowEntry};
pub use jobs::{JobState, JobStatus, TuneJobs};
pub use registry::{
    DurabilityOptions, IngestOutcome, Manifest, RecoveryReport, Registry, RegistryError,
    ShardLayout, Snap,
};
pub use router::{Ctx, ModelInfo, ServeState};
pub use server::{install_signal_handlers, ServeConfig, Server};
pub use wal::{Wal, WalError, WalRecord};
