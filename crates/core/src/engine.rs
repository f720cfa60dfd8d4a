//! A long-lived imputation engine for serving workloads.
//!
//! [`Renuver::impute`] is one-shot: it clones the relation and rebuilds
//! the distance oracle and similarity index on every call. That is the
//! right shape for batch repair but wasteful for a server answering many
//! small requests against the same reference instance. [`Engine`] owns
//! the relation, oracle, index, and RFD set once and answers per-request
//! imputation by *appending* the request tuples, running the shared
//! per-cell loop ([`Renuver::impute_prepared`]) over just the appended
//! rows, and rolling the appended state back — no clone of the reference
//! relation, no rebuild of the distance structures.
//!
//! # Equivalence with the one-shot path
//!
//! [`Engine::impute_batch`] produces bit-for-bit the same values as
//! appending the batch to the reference relation and calling
//! [`Renuver::impute_appended`] (asserted by `tests/serve_differential.rs`):
//!
//! - **Oracle.** Appended values already in a column's dictionary reuse
//!   their code; unknown values take the direct-computation fallback.
//!   Distances are integral Levenshtein counts, exact in both the `f32`
//!   matrix and the direct `f64` kernel, so both paths report identical
//!   distances — the same argument that makes `update_cell` sound.
//! - **Index.** Appended rows join the postings (known values) or the
//!   always-scanned foreign set (unknown values); either way every
//!   `rows_within` answer stays a superset that the caller re-checks
//!   exactly, so pruning differences cannot change decisions.
//! - **Key partitioning** runs per request over the full instance
//!   including the appended rows, exactly as `impute_appended` would.
//! - **Batch verification.** The shared per-cell loop carries the
//!   signature-sharing cache (`crate::batch`) when
//!   [`RenuverConfig::batch_verify`] is on, so request tuples whose
//!   missing cells share an imputed attribute and LHS signature — the
//!   common shape of a `/v1/impute` batch drawn from one broken feed —
//!   reuse one witness scan and one candidate scan per cluster. The
//!   cache lives and dies inside a single `impute_prepared` call, so it
//!   never leaks state across requests, and
//!   `tests/batch_differential.rs` pins that batches answer identically
//!   with it off.

use renuver_budget::BudgetReport;
use renuver_data::{Cell, DataError, Relation, Schema, Tuple};
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_obs::FieldValue;
use renuver_rfd::RfdSet;

use crate::algorithm::{build_distance, Renuver};
use crate::config::RenuverConfig;
use crate::result::{CellExplain, CellOutcome, ImputationStats, ImputedCell};

/// A prepared imputation model: reference relation, distance oracle,
/// similarity index, and RFD set, ready to answer
/// [`Engine::impute_batch`] requests without per-request rebuilds.
pub struct Engine {
    renuver: Renuver,
    sigma: RfdSet,
    rel: Relation,
    /// Rows `0..base_len` are the reference instance; anything beyond is
    /// transient request state and always rolled back before returning.
    base_len: usize,
    oracle: DistanceOracle,
    index: Option<SimilarityIndex>,
}

/// What [`Engine::impute_batch`] returns: the request tuples with their
/// missing values filled where possible, plus the same per-cell records
/// [`crate::ImputationResult`] carries — with every [`Cell`] remapped to
/// *batch-relative* rows (`0..tuples.len()`).
///
/// Donor rows in [`ImputedCell`] and
/// [`crate::result::ExplainWinner`] stay engine-absolute: a donor row
/// `< Engine::donor_rows()` names a reference tuple, and a donor row
/// `>= donor_rows()` names the batch tuple at `row - donor_rows()`
/// (earlier request tuples become donors for later cells, as in the
/// paper's main loop).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The request tuples after imputation, in request order.
    pub tuples: Vec<Tuple>,
    /// Outcome per missing cell, batch-relative, in visiting order.
    pub outcomes: Vec<(Cell, CellOutcome)>,
    /// Successful imputations, batch-relative cells.
    pub imputed: Vec<ImputedCell>,
    /// Per-cell explain records (when configured), batch-relative cells.
    pub explains: Vec<CellExplain>,
    /// Run counters for this batch.
    pub stats: ImputationStats,
    /// Budget accounting for this batch (excluded from `==`: elapsed
    /// wall-time differs between otherwise identical runs).
    pub budget: BudgetReport,
}

impl PartialEq for BatchResult {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
            && self.outcomes == other.outcomes
            && self.imputed == other.imputed
            && self.explains == other.explains
            && self.stats == other.stats
    }
}

/// Accounting for one [`Engine::commit_tuples`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStats {
    /// Rows adopted into the reference instance by this commit.
    pub rows: usize,
    /// Donor rows after the commit (`== Engine::donor_rows()`).
    pub donors: usize,
    /// Dictionary entries the oracle's matrix columns grew by.
    pub dict_grown: usize,
}

impl Engine {
    /// Builds an engine over `rel` and `sigma`: constructs the distance
    /// oracle and (per [`RenuverConfig::index_mode`]) the similarity
    /// index once, under a thread pool sized by
    /// [`RenuverConfig::parallelism`].
    pub fn prepare(rel: Relation, sigma: RfdSet, config: RenuverConfig) -> Engine {
        let (oracle, index) = match rayon::ThreadPoolBuilder::new()
            .num_threads(config.parallelism)
            .build()
        {
            Ok(pool) => pool.install(|| build_distance(&rel, &config)),
            Err(_) => build_distance(&rel, &config),
        };
        Engine::from_parts(rel, sigma, oracle, index, config)
    }

    /// Assembles an engine from already-built parts — the artifact-load
    /// path, where the oracle and index come deserialized from disk
    /// instead of being rebuilt.
    ///
    /// The caller is responsible for `oracle` and `index` being
    /// consistent with `rel` (the artifact loader validates this
    /// structurally; a mismatched oracle would answer wrong distances).
    pub fn from_parts(
        rel: Relation,
        sigma: RfdSet,
        oracle: DistanceOracle,
        index: Option<SimilarityIndex>,
        config: RenuverConfig,
    ) -> Engine {
        let base_len = rel.len();
        Engine {
            renuver: Renuver::new(config),
            sigma,
            rel,
            base_len,
            oracle,
            index,
        }
    }

    /// The reference instance's schema.
    pub fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// Number of reference tuples serving as donors.
    pub fn donor_rows(&self) -> usize {
        self.base_len
    }

    /// The RFD set the engine imputes with.
    pub fn sigma(&self) -> &RfdSet {
        &self.sigma
    }

    /// The reference relation.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RenuverConfig {
        self.renuver.config()
    }

    /// The dictionary-encoded distance oracle (for artifact snapshots).
    pub fn oracle(&self) -> &DistanceOracle {
        &self.oracle
    }

    /// The similarity index, if one was built (for artifact snapshots).
    pub fn index(&self) -> Option<&SimilarityIndex> {
        self.index.as_ref()
    }

    /// Drops any transient (appended) rows, restoring the engine to its
    /// reference state. A no-op in normal operation — [`Engine::impute_batch`]
    /// always rolls back before returning — but a server recovering an
    /// engine from a poisoned lock (a request panicked mid-batch) calls
    /// this to guarantee the reference instance before serving again.
    pub fn reset_transient(&mut self) {
        self.rel.truncate(self.base_len);
        self.oracle.truncate_rows(self.base_len);
        if let Some(ix) = self.index.as_mut() {
            ix.truncate_rows(self.base_len);
        }
    }

    /// Imputes the missing cells of `tuples` against the reference
    /// instance with the engine's own configuration.
    ///
    /// The tuples are appended, imputed exactly as
    /// [`Renuver::impute_appended`] would (see the module docs for the
    /// equivalence argument), and rolled back, so the engine's reference
    /// state is unchanged on return. Tuples must match the engine schema;
    /// on a [`DataError`] nothing is retained.
    pub fn impute_batch(&mut self, tuples: Vec<Tuple>) -> Result<BatchResult, DataError> {
        let config = self.renuver.config().clone();
        self.impute_batch_with(tuples, &config)
    }

    /// [`Engine::impute_batch`] under a per-request configuration —
    /// typically the engine config with a request-scoped
    /// [`renuver_budget::Budget`], tracer, or explain sampling swapped
    /// in. Structural knobs that shaped the prepared state
    /// ([`RenuverConfig::index_mode`]) are taken from the engine, not
    /// from `config`: the index either exists or it doesn't.
    pub fn impute_batch_with(
        &mut self,
        tuples: Vec<Tuple>,
        config: &RenuverConfig,
    ) -> Result<BatchResult, DataError> {
        let base = self.base_len;
        for tuple in tuples {
            if let Err(e) = self.rel.push(tuple) {
                // Arity or type mismatch part-way through the batch:
                // drop the rows already appended and report.
                self.rel.truncate(base);
                return Err(e);
            }
        }
        for row in base..self.rel.len() {
            self.oracle.append_row(&self.rel, row);
            if let Some(ix) = self.index.as_mut() {
                ix.append_row(&self.rel, row);
            }
        }

        let runner = Renuver::new(config.clone());
        let row_range = base..self.rel.len();
        let parts = {
            let mut run = || {
                let tracer = &runner.config().tracer;
                let chunks_before = rayon::chunks_dispatched();
                let run_span = tracer.span("core::impute");
                tracer.event("run_start", run_span.id(), || {
                    vec![
                        ("subject", FieldValue::Str("impute")),
                        ("rows", FieldValue::U64(self.rel.len() as u64)),
                        ("attrs", FieldValue::U64(self.rel.arity() as u64)),
                        ("missing", FieldValue::U64(self.rel.missing_count() as u64)),
                        ("rfds", FieldValue::U64(self.sigma.len() as u64)),
                    ]
                });
                runner.impute_prepared(
                    &mut self.rel,
                    &mut self.oracle,
                    &mut self.index,
                    &self.sigma,
                    row_range.clone(),
                    &run_span,
                    chunks_before,
                )
            };
            match rayon::ThreadPoolBuilder::new()
                .num_threads(runner.config().parallelism)
                .build()
            {
                Ok(pool) => pool.install(run),
                Err(_) => run(),
            }
        };

        let repaired: Vec<Tuple> =
            (base..self.rel.len()).map(|row| self.rel.tuple(row).clone()).collect();

        // Roll the transient rows back: the engine answers the next
        // request from the untouched reference state.
        self.rel.truncate(base);
        self.oracle.truncate_rows(base);
        if let Some(ix) = self.index.as_mut() {
            ix.truncate_rows(base);
        }

        let rebase = |cell: Cell| Cell::new(cell.row - base, cell.col);
        Ok(BatchResult {
            tuples: repaired,
            outcomes: parts
                .outcomes
                .into_iter()
                .map(|(cell, outcome)| (rebase(cell), outcome))
                .collect(),
            imputed: parts
                .imputed
                .into_iter()
                .map(|mut rec| {
                    rec.cell = rebase(rec.cell);
                    rec
                })
                .collect(),
            explains: parts
                .explains
                .into_iter()
                .map(|mut exp| {
                    exp.cell = rebase(exp.cell);
                    exp
                })
                .collect(),
            stats: parts.stats,
            budget: parts.budget,
        })
    }

    /// Permanently appends `tuples` to the reference instance: the rows
    /// become donors for every subsequent request, the oracle's
    /// dictionaries/matrices and the index's posting lists grow to cover
    /// them ([`DistanceOracle::commit_rows`] /
    /// [`SimilarityIndex::commit_rows`]), and [`Engine::donor_rows`]
    /// advances past them.
    ///
    /// The tuples are adopted **as given** — no imputation runs. The
    /// durable write path calls [`Engine::impute_batch_with`] first and
    /// commits the repaired tuples it returns; WAL replay commits the
    /// repaired tuples recorded at ingest time through this same method,
    /// which is what makes a recovered engine bit-identical to one that
    /// never crashed: both states are the same sequence of deterministic
    /// `commit_tuples` calls over the same snapshot.
    ///
    /// On a [`DataError`] (arity/type mismatch part-way through) the
    /// whole batch rolls back via the transactional truncate and the
    /// engine keeps its prior reference state.
    pub fn commit_tuples(&mut self, tuples: Vec<Tuple>) -> Result<CommitStats, DataError> {
        let base = self.base_len;
        for tuple in tuples {
            if let Err(e) = self.rel.push(tuple) {
                self.rel.truncate(base);
                return Err(e);
            }
        }
        for row in base..self.rel.len() {
            self.oracle.append_row(&self.rel, row);
            if let Some(ix) = self.index.as_mut() {
                ix.append_row(&self.rel, row);
            }
        }
        // Infallible from here on: the commit either happened entirely
        // (all pushes succeeded above) or not at all.
        let dict_grown = self.oracle.commit_rows(&self.rel, base, DEFAULT_DICT_CAP);
        if let Some(ix) = self.index.as_mut() {
            ix.commit_rows(&self.rel, base);
        }
        self.base_len = self.rel.len();
        Ok(CommitStats { rows: self.base_len - base, donors: self.base_len, dict_grown })
    }

    /// Repairs `tuples` with the engine's shared per-cell loop, then
    /// commits the repaired batch — `impute_batch_with` followed by
    /// [`Engine::commit_tuples`], the in-process shape of `/v1/ingest`.
    /// On error nothing is retained.
    pub fn ingest_batch_with(
        &mut self,
        tuples: Vec<Tuple>,
        config: &RenuverConfig,
    ) -> Result<(BatchResult, CommitStats), DataError> {
        let result = self.impute_batch_with(tuples, config)?;
        let stats = self.commit_tuples(result.tuples.clone())?;
        Ok((result, stats))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::{AttrType, Schema, Value};
    use renuver_rfd::{Constraint, Rfd};

    fn shop_schema() -> Schema {
        Schema::new([("City", AttrType::Text), ("Zip", AttrType::Text)]).unwrap()
    }

    fn reference() -> Relation {
        let t = |c: &str, z: &str| vec![Value::Text(c.into()), Value::Text(z.into())];
        Relation::new(
            shop_schema(),
            vec![
                t("West Jordan", "84084"),
                t("West Jordan", "84084"),
                t("Salt Lake", "84101"),
                t("Salt Lake", "84101"),
                t("Provo", "84601"),
            ],
        )
        .unwrap()
    }

    fn sigma() -> RfdSet {
        RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )])
    }

    #[test]
    fn batch_matches_impute_appended() {
        let rel = reference();
        let sigma = sigma();
        let batch = vec![
            vec![Value::Text("Salt Lake".into()), Value::Null],
            vec![Value::Text("Provo".into()), Value::Null],
            vec![Value::Text("Nowhere".into()), Value::Null],
        ];

        // Reference: append + one-shot incremental run.
        let mut appended = rel.clone();
        for t in &batch {
            appended.push(t.clone()).unwrap();
        }
        let oneshot = Renuver::new(RenuverConfig::default()).impute_appended(
            &appended,
            rel.len(),
            &sigma,
        );

        let mut engine = Engine::prepare(rel.clone(), sigma, RenuverConfig::default());
        let result = engine.impute_batch(batch.clone()).unwrap();

        for (i, t) in result.tuples.iter().enumerate() {
            assert_eq!(t, oneshot.relation.tuple(rel.len() + i), "batch row {i}");
        }
        assert_eq!(result.stats, oneshot.stats);
        assert_eq!(result.tuples[0][1], Value::Text("84101".into()));
        assert_eq!(result.tuples[1][1], Value::Text("84601".into()));
        assert_eq!(result.tuples[2][1], Value::Null, "no donor city within 0");

        // The engine rolled its state back and answers again identically.
        assert_eq!(engine.relation().len(), engine.donor_rows());
        let again = engine.impute_batch(batch).unwrap();
        assert_eq!(again, result);
    }

    #[test]
    fn outcomes_are_batch_relative() {
        let mut engine = Engine::prepare(reference(), sigma(), RenuverConfig::default());
        let result = engine
            .impute_batch(vec![vec![Value::Text("Provo".into()), Value::Null]])
            .unwrap();
        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0].0, Cell::new(0, 1));
        assert_eq!(result.outcomes[0].1, CellOutcome::Imputed);
        assert_eq!(result.imputed[0].cell, Cell::new(0, 1));
        assert!(
            result.imputed[0].donor_row < engine.donor_rows(),
            "donor came from the reference instance"
        );
    }

    #[test]
    fn commit_tuples_matches_prepare_from_scratch() {
        let mut engine = Engine::prepare(reference(), sigma(), RenuverConfig::default());
        let batch = vec![
            vec![Value::Text("Ogden".into()), Value::Text("84401".into())],
            vec![Value::Text("Provo".into()), Value::Text("84601".into())],
        ];
        let stats = engine.commit_tuples(batch.clone()).unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.donors, 7);
        assert_eq!(stats.dict_grown, 2, "Ogden and 84401 are new dictionary values");
        assert_eq!(engine.donor_rows(), 7);

        // The committed engine's distance structures are bit-identical to
        // an engine prepared over the grown relation from scratch.
        let mut grown = reference();
        for t in &batch {
            grown.push(t.clone()).unwrap();
        }
        let fresh = Engine::prepare(grown, sigma(), RenuverConfig::default());
        assert_eq!(engine.oracle().to_snapshot(), fresh.oracle().to_snapshot());
        assert_eq!(
            engine.index().map(|ix| ix.to_snapshot()),
            fresh.index().map(|ix| ix.to_snapshot())
        );

        // The committed rows serve as donors for later requests.
        let result = engine
            .impute_batch(vec![vec![Value::Text("Ogden".into()), Value::Null]])
            .unwrap();
        assert_eq!(result.tuples[0][1], Value::Text("84401".into()));
    }

    #[test]
    fn ingest_repairs_then_commits() {
        let mut engine = Engine::prepare(reference(), sigma(), RenuverConfig::default());
        let config = engine.config().clone();
        let (result, stats) = engine
            .ingest_batch_with(
                vec![vec![Value::Text("Provo".into()), Value::Null]],
                &config,
            )
            .unwrap();
        assert_eq!(result.tuples[0][1], Value::Text("84601".into()));
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.dict_grown, 0, "the repaired tuple only holds known values");
        assert_eq!(engine.donor_rows(), 6);
        // The adopted row is a full-fledged donor; the engine's state is
        // exactly prepare() over the repaired relation.
        let mut grown = reference();
        grown.push(vec![Value::Text("Provo".into()), Value::Text("84601".into())]).unwrap();
        let fresh = Engine::prepare(grown, sigma(), RenuverConfig::default());
        assert_eq!(engine.oracle().to_snapshot(), fresh.oracle().to_snapshot());
    }

    #[test]
    fn failed_commit_rolls_back_entirely() {
        let mut engine = Engine::prepare(reference(), sigma(), RenuverConfig::default());
        let before = engine.oracle().to_snapshot();
        let err = engine.commit_tuples(vec![
            vec![Value::Text("Ogden".into()), Value::Text("84401".into())],
            vec![Value::Text("arity".into())],
        ]);
        assert!(err.is_err());
        assert_eq!(engine.donor_rows(), 5);
        assert_eq!(engine.relation().len(), 5);
        assert_eq!(engine.oracle().to_snapshot(), before);
    }

    #[test]
    fn bad_tuples_leave_the_engine_clean() {
        let mut engine = Engine::prepare(reference(), sigma(), RenuverConfig::default());
        let err = engine.impute_batch(vec![
            vec![Value::Text("Provo".into()), Value::Null],
            vec![Value::Text("arity".into())],
        ]);
        assert!(err.is_err());
        assert_eq!(engine.relation().len(), engine.donor_rows());
        // Still serviceable after the failed request.
        let ok = engine
            .impute_batch(vec![vec![Value::Text("Provo".into()), Value::Null]])
            .unwrap();
        assert_eq!(ok.tuples[0][1], Value::Text("84601".into()));
    }
}
