//! Configuration knobs for the RENUVER algorithm.
//!
//! The defaults follow the paper's prose and worked examples; the
//! alternatives cover the points where the paper is ambiguous (see
//! DESIGN.md) and feed the `ablation` bench binary.

use renuver_budget::Budget;
use renuver_obs::Tracer;

/// Order in which the RHS-threshold clusters `ρ_A^i` are visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterOrder {
    /// Lowest RHS threshold first — the order of Section 5(b) ("from lowest
    /// to highest threshold values") and of the Figure 1 walk-through
    /// (ρ⁰ before ρ¹ before ρ²). Tighter RHS thresholds come from
    /// dependencies whose candidates agree more closely on `A`, so this
    /// visits the most trustworthy candidates first. Default.
    #[default]
    Ascending,
    /// Highest RHS threshold first — the literal reading of Algorithm 2
    /// line 1 ("in descending order of RHS threshold"). Exposed for the
    /// `ablation` bench binary.
    Descending,
}

/// Which dependencies the post-imputation consistency check examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyScope {
    /// Check only RFDs whose LHS contains the imputed attribute — Algorithm
    /// 4 line 1 as written. This is also the only reading consistent with
    /// the Figure 1 walk-through: the accepted imputation of `t7[Phone]`
    /// with t2's phone would be rejected by `φ3: City(≤2) → Phone(≤2)`
    /// (t3 and t7 share the city but end with distant phones) if RFDs with
    /// the imputed attribute on the RHS were checked too. Default.
    #[default]
    LhsOnly,
    /// Additionally check RFDs whose RHS is the imputed attribute, giving
    /// the full `r' ⊨ Σ` guarantee Definition 4.3 asks for. Stricter than
    /// the paper's implementation: higher precision, lower recall. Exposed
    /// for the `ablation` bench binary.
    Full,
}

/// Order in which missing cells are visited (Algorithm 1 lines 11–12).
///
/// The paper walks tuples in relation order, attributes within each tuple
/// (row-major). The order matters because imputed tuples immediately become
/// candidate donors for later cells; the alternatives are exposed for the
/// `ablation` bench binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImputationOrder {
    /// Tuple by tuple, attributes in schema order — the paper's order.
    #[default]
    RowMajor,
    /// Attribute by attribute across all tuples: every Phone first, then
    /// every City, … Groups the per-attribute cluster work together.
    ColumnMajor,
    /// Tuples with the fewest missing values first: the most-complete
    /// tuples are repaired (and become reliable donors) before the
    /// hardest ones are attempted.
    FewestMissingFirst,
}

/// How `distance ≤ t` predicates are resolved in candidate generation,
/// key detection, and verification.
///
/// Every mode produces bit-for-bit identical [`crate::ImputationResult`]s
/// (asserted by `tests/index_differential.rs`): the
/// [`renuver_distance::SimilarityIndex`] only prunes which rows receive
/// the exact distance check, never the check itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Always scan every row — the reference path.
    Scan,
    /// Always build and consult the per-attribute similarity index.
    Indexed,
    /// Build the index only for relations of at least
    /// [`AUTO_MIN_ROWS`] rows, where construction pays for itself;
    /// smaller relations take the scan path. Default.
    #[default]
    Auto,
}

/// Row count at which [`IndexMode::Auto`] switches from scanning to
/// indexing: below this, a scan touches so few rows that the index build
/// costs more than it saves.
pub const AUTO_MIN_ROWS: usize = 256;

/// Which missing cells get a [`crate::result::CellExplain`] record (and a
/// `cell` trace event). On very wide runs the per-cell events dominate the
/// trace; sampling keeps traced runs small without touching any
/// imputation decision — the sample gate sits strictly on the emission
/// side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExplainSample {
    /// Every missing cell. Default.
    #[default]
    All,
    /// Every k-th missing cell in visiting order, starting with the
    /// first (`0` and `1` both mean every cell).
    EveryKth(usize),
    /// Only cells that stayed dry — skipped, cancelled, or without an
    /// admissible candidate. Imputed cells are elided.
    DryOnly,
}

impl ExplainSample {
    /// Whether the `seq`-th missing cell (0-based, visiting order) with
    /// the given outcome passes the sample gate.
    pub fn admits(self, seq: usize, imputed: bool) -> bool {
        match self {
            ExplainSample::All => true,
            ExplainSample::EveryKth(k) => k <= 1 || seq.is_multiple_of(k),
            ExplainSample::DryOnly => !imputed,
        }
    }
}

/// RENUVER configuration.
#[derive(Debug, Clone)]
pub struct RenuverConfig {
    /// Cluster visiting order (default: ascending RHS threshold).
    pub cluster_order: ClusterOrder,
    /// Consistency-check scope (default: LHS-only, per Algorithm 4).
    pub verify_scope: VerifyScope,
    /// Skip the key-RFD re-examination after successful imputations
    /// (Algorithm 1 line 14). `false` (default) re-examines, as the paper
    /// does; `true` trades a little recall for speed — the `ablation`
    /// bench binary quantifies the trade.
    pub skip_key_reevaluation: bool,
    /// Cap on how many ranked candidates are verified per cluster before
    /// falling through to the next cluster. `None` (default) verifies all,
    /// as in Algorithm 2.
    pub max_candidates_per_cluster: Option<usize>,
    /// Missing-cell visiting order (default: the paper's row-major).
    pub imputation_order: ImputationOrder,
    /// Collect a [`crate::result::TraceEvent`] log of every decision
    /// (clusters visited, candidates rejected). Off by default — the log
    /// grows with the candidate count.
    pub trace: bool,
    /// Worker threads for the imputation hot paths (distance-matrix
    /// construction, donor-row scans, verification scans). `0` (default)
    /// uses all available cores; `1` runs the exact sequential code path;
    /// any other value caps the pool at that many threads.
    ///
    /// Results are bit-for-bit identical for every setting: the parallel
    /// scans partition rows into fixed chunks and merge them back in index
    /// order, so candidate ranking, tie-breaking, and the final
    /// [`crate::result::ImputationResult`] never depend on the thread
    /// count. `tests/parallel_determinism.rs` asserts this equivalence on
    /// the restaurant sample and a 5k-row synthetic relation.
    pub parallelism: usize,
    /// Execution budget for the run, polled before each missing cell and
    /// inside the hot scans (oracle build, key partitioning). The default
    /// budget is unlimited; with a limit set the run degrades instead of
    /// overrunning — see [`crate::result::CellOutcome`] for the per-cell
    /// taxonomy and [`RenuverConfig::degrade_at`] for the intermediate
    /// rung.
    pub budget: Budget,
    /// Budget-pressure fraction (see [`Budget::pressure`]) at which the
    /// engine drops from full verification to the changed-cell
    /// neighborhood check ([`crate::verify::VerifyPlan::build_over`]).
    /// `1.0` disables the intermediate rung (full verify until the budget
    /// trips); the default `0.9` spends the last tenth of the budget in
    /// the cheap mode to fill more cells before the hard stop.
    pub degrade_at: f64,
    /// Similarity-index usage (default: [`IndexMode::Auto`]). The indexed
    /// and scan paths make identical decisions; this only trades index
    /// construction time against per-cell scan time.
    pub index_mode: IndexMode,
    /// Structured tracer for the run. The default is disabled — every
    /// instrumentation site short-circuits on one branch and the run's
    /// decisions are bit-for-bit identical to an uninstrumented build
    /// (asserted by `tests/trace_schema.rs`). An enabled tracer collects
    /// spans, events, and metrics; serialize with
    /// [`renuver_obs::Tracer::write_jsonl`].
    pub tracer: Tracer,
    /// Collect a per-cell [`crate::result::CellExplain`] record — which
    /// RFDs generated candidates, the winner's LHS distance vector and
    /// runner-up margin, the first dry-up reason — into
    /// [`crate::result::ImputationResult::explains`]. Off by default; an
    /// enabled tracer computes the same records for its `cell` events
    /// whether or not this flag stores them in the result.
    pub explain: bool,
    /// Which cells the explain/trace emission covers (default: all).
    /// Applies to both [`RenuverConfig::explain`] records and the
    /// tracer's `cell` events; decisions are unaffected.
    pub explain_sample: ExplainSample,
    /// Share witness scans and candidate scans between missing cells with
    /// the same imputed attribute and LHS signature (the batch
    /// verification cache, `crate::batch`). `true` (default) caches;
    /// results are bit-for-bit identical either way (asserted by
    /// `tests/batch_differential.rs`) — this only trades memory for
    /// skipped relation scans on signature-sharing cells.
    pub batch_verify: bool,
}

impl Default for RenuverConfig {
    fn default() -> Self {
        RenuverConfig {
            cluster_order: ClusterOrder::default(),
            verify_scope: VerifyScope::default(),
            skip_key_reevaluation: false,
            max_candidates_per_cluster: None,
            imputation_order: ImputationOrder::default(),
            trace: false,
            parallelism: 0,
            budget: Budget::unlimited(),
            degrade_at: 0.9,
            index_mode: IndexMode::default(),
            tracer: Tracer::disabled(),
            explain: false,
            explain_sample: ExplainSample::default(),
            batch_verify: true,
        }
    }
}

impl RenuverConfig {
    /// The paper-faithful default configuration.
    pub fn paper() -> Self {
        RenuverConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let cfg = RenuverConfig::default();
        assert_eq!(cfg.cluster_order, ClusterOrder::Ascending);
        assert_eq!(cfg.verify_scope, VerifyScope::LhsOnly);
        assert!(!cfg.skip_key_reevaluation);
        assert!(cfg.max_candidates_per_cluster.is_none());
        assert_eq!(cfg.imputation_order, ImputationOrder::RowMajor);
        assert_eq!(cfg.parallelism, 0, "default uses all available cores");
        assert!(!cfg.budget.is_limited(), "default budget is unlimited");
        assert_eq!(cfg.degrade_at, 0.9);
        assert_eq!(cfg.index_mode, IndexMode::Auto);
        assert!(!cfg.tracer.is_enabled(), "default tracer is disabled");
        assert!(!cfg.explain, "explain records are opt-in");
        assert_eq!(cfg.explain_sample, ExplainSample::All, "no sampling by default");
        assert!(cfg.batch_verify, "signature-sharing cache is on by default");
    }

    #[test]
    fn sample_gates() {
        assert!(ExplainSample::All.admits(7, true));
        assert!(ExplainSample::EveryKth(0).admits(7, true));
        assert!(ExplainSample::EveryKth(1).admits(7, true));
        assert!(ExplainSample::EveryKth(3).admits(0, true));
        assert!(!ExplainSample::EveryKth(3).admits(1, true));
        assert!(ExplainSample::EveryKth(3).admits(3, false));
        assert!(ExplainSample::DryOnly.admits(4, false));
        assert!(!ExplainSample::DryOnly.admits(4, true));
    }
}
