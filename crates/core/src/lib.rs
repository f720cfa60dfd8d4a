//! The RENUVER imputation algorithm (paper Section 5).
//!
//! RENUVER takes a relation `r` and a set of RFD_c's `Σ` holding on it and
//! fills missing values in three steps:
//!
//! 1. **Pre-processing** (Algorithm 1 lines 1–6): extract the incomplete
//!    tuples `r̂` and drop key-RFDs from `Σ` to obtain `Σ'`.
//! 2. **RFD selection** (lines 7–10): for each missing value `t[A] = _`,
//!    select the RFDs with RHS attribute `A` and partition them into
//!    clusters `ρ_A^i` by RHS threshold.
//! 3. **Imputation** (lines 11–14, Algorithms 2–4): walk the clusters,
//!    generate plausible candidate tuples, rank them by the Equation 2
//!    distance value, and accept the first candidate whose value keeps the
//!    whole instance consistent (`IS_FAULTLESS`). After each successful
//!    imputation, key-RFDs are re-examined — an imputed value can turn a key
//!    into a usable dependency (Example 5.1), and the imputed tuple itself
//!    becomes a candidate for later missing values.

pub mod algorithm;
pub mod audit;
pub mod candidates;
pub mod config;
pub mod engine;
pub mod external;
pub mod result;
pub mod verify;

pub use algorithm::Renuver;
pub use audit::{audit, AuditConfig, AuditReport};
pub use candidates::{find_candidate_tuples, find_candidate_tuples_with, Candidate};
pub use config::{
    ClusterOrder, ExplainSample, ImputationOrder, IndexMode, RenuverConfig, VerifyScope,
};
pub use engine::{BatchResult, CommitStats, Engine};
pub use external::SchemaMismatch;
pub use result::{
    CellExplain, CellOutcome, DryReason, ExplainWinner, ImputationResult, ImputationStats,
    ImputedCell, TraceEvent,
};
pub use verify::{is_faultless, VerifyPlan};
