//! A long-lived imputation engine: distance structures built once,
//! imputed against many times.
//!
//! [`Renuver::impute`] is one-shot: it clones the relation and rebuilds
//! the distance oracle and similarity index on every call. That is the
//! right shape for batch repair but wasteful for a caller that imputes
//! against the same instance again and again. [`Engine`] owns the
//! relation, oracle, index, and RFD set once, and both of its callers run
//! the shared per-cell loop ([`Renuver::impute_prepared`]) on that state:
//!
//! - **Serving** answers per-request imputation by *appending* the
//!   request tuples, imputing just the appended rows, and rolling the
//!   appended state back ([`Engine::impute_batch`]) — no clone of the
//!   reference relation, no rebuild of the distance structures.
//! - **Threshold tuning** (`renuver_tune`) prepares one engine over the
//!   masked relation per run. Each iteration swaps only the RFD set
//!   ([`Engine::with_thresholds`]), imputes the relation's own holes in
//!   place and puts every written cell back to null
//!   ([`Engine::impute_and_restore`]), so a run builds its distances once
//!   however many threshold vectors it scores.
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

use renuver_budget::BudgetReport;
use renuver_data::{Cell, DataError, Relation, Schema, Tuple, Value};
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_rfd::RfdSet;

use crate::algorithm::{build_distance, start_run, Renuver};
use crate::config::RenuverConfig;
use crate::result::{CellExplain, CellOutcome, ImputationResult, ImputationStats, ImputedCell};

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
        let (oracle, index) = build_distance(&rel, &config);
        Engine::from_parts(rel, sigma, oracle, index, config)
    }

    /// Assembles an engine from parts that
    /// [`crate::algorithm::build_distance`] built over `rel` — how a
    /// decoded model artifact becomes an engine.
    ///
    /// The caller is responsible for `oracle` and `index` having been
    /// built from `rel`: a mismatched oracle would answer wrong distances.
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

    /// The engine with its RFD set replaced by `sigma`. The relation,
    /// oracle and index move over as they are: distances depend only on
    /// the relation's values, never on thresholds, so the prepared
    /// structures answer for any Σ over the same schema.
    pub fn with_thresholds(self, sigma: RfdSet) -> Engine {
        Engine { sigma, ..self }
    }

    /// Imputes the reference instance's own missing cells (rows
    /// `0..donor_rows()`) with the engine's RFD set and configuration,
    /// then puts every written cell back to null, so the engine is
    /// exactly its prepared state again on return. This is how
    /// `renuver_tune` scores many threshold vectors against one distance
    /// build.
    ///
    /// The result equals [`Renuver::impute`]'s over the relation the
    /// engine was prepared from (`==`, wherever that relation holds no
    /// NaN): both run [`Renuver::impute_prepared`] over the same oracle
    /// and index, built here once instead of per call. The restore is
    /// exact because every written cell was null before the run. Setting
    /// it back to [`Value::Null`] and re-interning it returns the oracle's
    /// code to the null code and removes the index posting the write
    /// added, keeping postings sorted. Imputation never grows a dictionary
    /// or a matrix.
    pub fn impute_and_restore(&mut self) -> ImputationResult {
        let run_span = start_run(&self.renuver.config().tracer, &self.rel, &self.sigma);
        let parts = self.renuver.impute_prepared(
            &mut self.rel,
            &mut self.oracle,
            &mut self.index,
            &self.sigma,
            0..self.base_len,
            &run_span,
        );
        drop(run_span);
        let repaired = self.rel.clone();
        for rec in &parts.imputed {
            let Cell { row, col } = rec.cell;
            self.rel.set_value(row, col, Value::Null);
            self.oracle.update_cell(&self.rel, row, col);
            if let Some(ix) = self.index.as_mut() {
                ix.update_cell(&self.rel, row, col);
            }
        }
        parts.into_result(repaired)
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
    /// from `config`: the index either exists or it doesn't. A
    /// per-request [`RenuverConfig::parallelism`] has no effect: it sizes
    /// only the distance build, which [`Engine::prepare`] already ran,
    /// and the per-cell loop is sequential.
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
        let run_span = start_run(&runner.config().tracer, &self.rel, &self.sigma);
        let parts = runner.impute_prepared(
            &mut self.rel,
            &mut self.oracle,
            &mut self.index,
            &self.sigma,
            row_range,
            &run_span,
        );
        drop(run_span);

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
    use crate::config::AUTO_MIN_ROWS;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
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

    /// A seeded relation with planted dependencies (a name's base decides
    /// its city and class), name variants one or two edits apart,
    /// non-ASCII text, NaN floats, and about one null in eight cells.
    fn seeded_relation(rows: usize, seed: u64) -> Relation {
        const BASES: [&str; 5] = ["Granita", "Grañita", "Spago", "Ōsaka", "Café Bleu"];
        const SUFFIXES: [&str; 4] = ["", "s", " 2", "é"];
        const CITIES: [&str; 4] = ["Malibu", "Málibu", "Los Angeles", "Zürich"];
        let schema = Schema::new([
            ("Name", AttrType::Text),
            ("City", AttrType::Text),
            ("Class", AttrType::Int),
            ("Score", AttrType::Float),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tuples = (0..rows)
            .map(|_| {
                let base = rng.random_range(0..BASES.len());
                let city = base % CITIES.len();
                let suffix = SUFFIXES[rng.random_range(0..SUFFIXES.len())];
                let mut tuple = vec![
                    Value::Text(format!("{}{suffix}", BASES[base])),
                    Value::from(CITIES[city]),
                    Value::Int(city as i64),
                    if rng.random_bool(0.1) {
                        Value::Float(f64::NAN)
                    } else {
                        Value::Float(rng.random_range(0..6i64) as f64 / 2.0)
                    },
                ];
                for value in &mut tuple {
                    if rng.random_bool(0.12) {
                        *value = Value::Null;
                    }
                }
                tuple
            })
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    /// The RFD set of [`seeded_relation`] with `width` added to every LHS
    /// threshold, as the tune loop widens it.
    fn widened_sigma(width: f64) -> RfdSet {
        let rfd = |lhs: &[(usize, f64)], rhs: (usize, f64)| {
            Rfd::new(
                lhs.iter().map(|&(a, t)| Constraint::new(a, t + width)).collect::<Vec<_>>(),
                Constraint::new(rhs.0, rhs.1),
            )
        };
        RfdSet::from_vec(vec![
            rfd(&[(0, 0.0)], (1, 0.0)),
            rfd(&[(1, 0.0)], (2, 0.0)),
            rfd(&[(0, 1.0)], (2, 0.0)),
            rfd(&[(1, 0.0), (2, 0.0)], (3, 0.5)),
            rfd(&[(3, 0.0)], (2, 1.0)),
        ])
    }

    /// Everything `ImputationResult`'s `==` compares, as `Debug` text:
    /// the relations hold NaN, which `==` never equates with itself.
    fn canon(r: &ImputationResult) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            r.relation, r.imputed, r.unimputed, r.outcomes, r.stats, r.trace, r.explains
        )
    }

    #[test]
    fn impute_and_restore_matches_one_shot_runs_and_restores_exactly() {
        for (rows, seed) in [(60, 1), (AUTO_MIN_ROWS + 44, 2)] {
            let masked = seeded_relation(rows, seed);
            let config = RenuverConfig {
                parallelism: 1,
                trace: true,
                explain: true,
                ..RenuverConfig::default()
            };
            let fresh = Engine::prepare(masked.clone(), widened_sigma(0.0), config.clone());
            assert_eq!(fresh.index().is_some(), rows >= AUTO_MIN_ROWS);
            let oracle = fresh.oracle().to_snapshot();
            let index = fresh.index().map(SimilarityIndex::to_snapshot);
            let mut engine = fresh;
            // Text cells written (and so restored) across the sequence.
            let mut text_imputed = 0;
            for width in [0.0, 1.0, 2.0, 0.0, 3.0] {
                let sigma = widened_sigma(width);
                engine = engine.with_thresholds(sigma.clone());
                let got = engine.impute_and_restore();
                let want = Renuver::new(config.clone()).impute(&masked, &sigma);
                let case = format!("{rows} rows, width {width}");
                assert_eq!(canon(&got), canon(&want), "{case}: result");
                assert_eq!(format!("{:?}", engine.relation()), format!("{masked:?}"), "{case}");
                assert_eq!(engine.oracle().to_snapshot(), oracle, "{case}: oracle");
                assert_eq!(engine.index().map(SimilarityIndex::to_snapshot), index, "{case}");
                text_imputed += got
                    .imputed
                    .iter()
                    .filter(|rec| masked.schema().ty(rec.cell.col) == AttrType::Text)
                    .count();
            }
            assert!(text_imputed > 0, "{rows} rows: no text cell was written, so none restored");
        }
    }
}
