//! The RENUVER main procedure (Algorithms 1 and 2).

use renuver_budget::{BudgetReport, BudgetTrip};
use renuver_data::{Cell, Relation};
use renuver_distance::{DistanceOracle, SimilarityIndex, DEFAULT_DICT_CAP};
use renuver_obs::{Field, FieldValue, Span, Tracer};
use renuver_rfd::check::stays_key_after_update_with_index;
use renuver_rfd::{Rfd, RfdSet};

use crate::candidates::{find_candidate_tuples_with, sort_candidates};
use crate::config::{ClusterOrder, ImputationOrder, IndexMode, RenuverConfig, AUTO_MIN_ROWS};
use crate::result::{
    CellExplain, CellOutcome, DryReason, ExplainWinner, ImputationResult, ImputationStats,
    ImputedCell, TraceEvent,
};
use crate::verify::VerifyPlan;

/// Builds the distance structures a run imputes against. Shared by the
/// one-shot path, [`crate::engine::Engine::prepare`] and the model
/// artifact's decoder, so all three make the same decisions.
///
/// - The oracle dictionary-encodes the text columns once (cap
///   [`DEFAULT_DICT_CAP`]); every distance query in key detection,
///   candidate generation, and verification becomes a matrix lookup.
///   Under a tripped budget the build degrades column-wise to direct
///   computation (same answers, no cache).
/// - The similarity index, per [`RenuverConfig::index_mode`], prunes the
///   `distance ≤ t` scans of the same three steps. Decisions are
///   identical with or without it (the superset contract in
///   `renuver_distance::index`). Budget trips degrade construction per
///   attribute to the scan path.
///
/// The build runs under a thread pool sized by
/// [`RenuverConfig::parallelism`]: the oracle's matrix fill is the one
/// parallel step of an imputation run. Everything after it is sequential,
/// because each imputation can turn its tuple into a donor for the next
/// cell.
pub fn build_distance(
    rel: &Relation,
    config: &RenuverConfig,
) -> (DistanceOracle, Option<SimilarityIndex>) {
    let build = || {
        let budget = &config.budget;
        let tracer = &config.tracer;
        let oracle = DistanceOracle::build_traced(rel, DEFAULT_DICT_CAP, budget, tracer);
        let index = match config.index_mode {
            IndexMode::Scan => None,
            IndexMode::Indexed => Some(SimilarityIndex::build_traced(rel, &oracle, budget, tracer)),
            IndexMode::Auto => (rel.len() >= AUTO_MIN_ROWS)
                .then(|| SimilarityIndex::build_traced(rel, &oracle, budget, tracer)),
        };
        (oracle, index)
    };
    match rayon::ThreadPoolBuilder::new().num_threads(config.parallelism).build() {
        Ok(pool) => pool.install(build),
        // Pool construction can fail when the OS refuses new threads; the
        // build then runs on the calling thread's default width.
        Err(_) => build(),
    }
}

/// Opens a run's `core::impute` span and emits its `run_start` event —
/// shared by every caller of [`Renuver::impute_prepared`], so a run traces
/// the same whichever path prepared its distance structures.
pub(crate) fn start_run(tracer: &Tracer, rel: &Relation, sigma: &RfdSet) -> Span {
    let run_span = tracer.span("core::impute");
    tracer.event("run_start", run_span.id(), || {
        vec![
            ("subject", FieldValue::Str("impute")),
            ("rows", FieldValue::U64(rel.len() as u64)),
            ("attrs", FieldValue::U64(rel.arity() as u64)),
            ("missing", FieldValue::U64(rel.missing_count() as u64)),
            ("rfds", FieldValue::U64(sigma.len() as u64)),
        ]
    });
    run_span
}

/// What one cell's imputation attempt produced: the written cell (when one
/// stuck) plus the explain-level detail the caller folds into a
/// [`CellExplain`] and the tracer's `cell` event. The heavy fields
/// (`generating_rfds`, `winner`) are only populated when explain detail
/// was requested; the counts are always exact.
struct CellAttempt {
    imputed: Option<ImputedCell>,
    clusters: usize,
    candidates: usize,
    generating_rfds: Vec<usize>,
    winner: Option<ExplainWinner>,
    dried_up: Option<DryReason>,
}

/// Everything [`Renuver::impute_prepared`] produces except the relation
/// itself (which the caller owns and passed in by `&mut`). The one-shot
/// path folds these straight into an [`ImputationResult`]; the serving
/// engine remaps the cell coordinates to batch-relative first.
pub(crate) struct PreparedParts {
    pub(crate) imputed: Vec<ImputedCell>,
    pub(crate) unimputed: Vec<Cell>,
    pub(crate) outcomes: Vec<(Cell, CellOutcome)>,
    pub(crate) stats: ImputationStats,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) explains: Vec<CellExplain>,
    pub(crate) budget: BudgetReport,
}

impl PreparedParts {
    /// The one-shot result: these parts beside the imputed `relation`.
    pub(crate) fn into_result(self, relation: Relation) -> ImputationResult {
        ImputationResult {
            relation,
            imputed: self.imputed,
            unimputed: self.unimputed,
            outcomes: self.outcomes,
            stats: self.stats,
            trace: self.trace,
            explains: self.explains,
            budget: self.budget,
        }
    }
}

/// Flattens a [`CellExplain`] into the `cell` trace-event payload
/// (schema: `renuver_obs::schema`, kind `cell`).
fn cell_event_fields(exp: &CellExplain) -> Vec<Field> {
    let mut fields = vec![
        ("row", FieldValue::U64(exp.cell.row as u64)),
        ("attr", FieldValue::U64(exp.cell.col as u64)),
        ("outcome", FieldValue::Str(exp.outcome.label())),
        ("clusters", FieldValue::U64(exp.clusters as u64)),
        ("candidates", FieldValue::U64(exp.candidates as u64)),
    ];
    if !exp.generating_rfds.is_empty() {
        fields.push((
            "rfds",
            FieldValue::U64s(exp.generating_rfds.iter().map(|&i| i as u64).collect()),
        ));
    }
    if let Some(w) = &exp.winner {
        fields.push(("donor_row", FieldValue::U64(w.donor_row as u64)));
        fields.push(("via_rfd", FieldValue::U64(w.via_rfd as u64)));
        fields.push(("distance", FieldValue::F64(w.distance)));
        if let Some(margin) = w.runner_up_margin {
            fields.push(("margin", FieldValue::F64(margin)));
        }
        fields.push(("lhs_dists", FieldValue::F64s(w.lhs_distances.clone())));
    }
    if let Some(reason) = exp.dried_up {
        fields.push(("reason", FieldValue::Str(reason.label())));
        if let DryReason::Budget(trip) = reason {
            fields.push(("trip", FieldValue::Str(trip.label())));
        }
    }
    fields
}

/// The RENUVER imputation engine.
///
/// ```
/// use renuver_core::{Renuver, RenuverConfig};
/// use renuver_rfd::{Constraint, Rfd, RfdSet};
/// use renuver_data::{AttrType, Relation, Schema, Value};
///
/// let schema = Schema::new([("City", AttrType::Text), ("Zip", AttrType::Text)]).unwrap();
/// let rel = Relation::new(schema, vec![
///     vec!["Salerno".into(), "84084".into()],
///     vec!["Salerno".into(), Value::Null],
/// ]).unwrap();
/// // City(≤0) → Zip(≤0): same city, same zip.
/// let rfds = RfdSet::from_vec(vec![
///     Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
/// ]);
/// let result = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
/// assert_eq!(result.relation.value(1, 1), &Value::Text("84084".into()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Renuver {
    config: RenuverConfig,
}

impl Renuver {
    /// Creates an engine with the given configuration.
    pub fn new(config: RenuverConfig) -> Self {
        Renuver { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RenuverConfig {
        &self.config
    }

    /// Runs RENUVER (Algorithm 1) over `rel` with the dependency set
    /// `sigma`, returning the imputed relation and per-cell outcomes.
    ///
    /// The input relation is not modified; imputation happens on a clone
    /// (`r'` in the paper's notation).
    pub fn impute(&self, rel: &Relation, sigma: &RfdSet) -> ImputationResult {
        self.impute_rows(rel, sigma, 0..rel.len())
    }

    /// Incremental imputation (the paper's Section 7 future-work item on
    /// incremental scenarios): only the missing cells of the freshly
    /// appended tuples `first_new_row..` are imputed; the existing tuples
    /// serve as donors and consistency witnesses but are never modified.
    ///
    /// Appending a batch and calling this is equivalent to re-running the
    /// full algorithm with the old rows' missing cells masked — the
    /// pre-processing (key detection over the whole instance) and the
    /// verification still consider every tuple.
    pub fn impute_appended(
        &self,
        rel: &Relation,
        first_new_row: usize,
        sigma: &RfdSet,
    ) -> ImputationResult {
        self.impute_rows(rel, sigma, first_new_row..rel.len())
    }

    /// [`Renuver::impute`] restricted to missing cells in `row_range`.
    /// Rows outside the range participate as candidate donors and in
    /// verification but are never imputed — the engine of
    /// [`Renuver::impute_with_donors`] and [`Renuver::impute_appended`].
    pub(crate) fn impute_rows(
        &self,
        rel: &Relation,
        sigma: &RfdSet,
        row_range: std::ops::Range<usize>,
    ) -> ImputationResult {
        let run_span = start_run(&self.config.tracer, rel, sigma);
        let mut rel = rel.clone();
        // Both structures are kept current after every imputation.
        let (mut oracle, mut index) = build_distance(&rel, &self.config);
        self.impute_prepared(&mut rel, &mut oracle, &mut index, sigma, row_range, &run_span)
            .into_result(rel)
    }

    /// The core of [`Renuver::impute_rows`] over *prebuilt* state:
    /// runs pre-processing (key partitioning) and the per-cell imputation
    /// loop against a relation whose oracle and index the caller already
    /// owns. This is the seam the serving [`crate::engine::Engine`] uses
    /// to answer requests without rebuilding the distance structures —
    /// the one-shot path above builds them fresh and delegates here, so
    /// both paths make bit-for-bit identical decisions by construction.
    ///
    /// `rel`, `oracle`, and `index` are mutated in place (imputations
    /// write cells and re-index them); `run_span` parents the emitted
    /// trace.
    pub(crate) fn impute_prepared(
        &self,
        rel: &mut Relation,
        oracle: &mut DistanceOracle,
        index: &mut Option<SimilarityIndex>,
        sigma: &RfdSet,
        row_range: std::ops::Range<usize>,
        run_span: &Span,
    ) -> PreparedParts {
        let budget = &self.config.budget;
        let tracer = &self.config.tracer;
        // Explain detail feeds both the result's `explains` vector and the
        // tracer's per-cell events; computing it is gated on either
        // consumer so disabled runs do no extra work.
        let explain_on = self.config.explain || tracer.is_enabled();
        let mut stats = ImputationStats::default();

        // Pre-processing (lines 1-6): Σ' = non-key RFDs; r̂ = incomplete
        // tuples. `active` tracks Σ' membership so key-RFDs can be
        // re-admitted after imputations (line 14 / Example 5.1). When the
        // budget cuts the key scan short, unchecked RFDs stay active.
        let (non_keys, keys, _keys_cut) = {
            let _span = run_span.child("core::partition_keys");
            sigma.partition_keys_budgeted_with(oracle, index.as_ref(), rel, budget)
        };
        stats.keys_filtered = keys.len();
        let mut active = vec![false; sigma.len()];
        for &i in &non_keys {
            active[i] = true;
        }
        let mut dormant_keys = keys;

        let mut incomplete = rel.incomplete_rows();
        incomplete.retain(|&row| row_range.contains(&row));
        let mut imputed = Vec::new();
        let mut unimputed = Vec::new();
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut explains: Vec<CellExplain> = Vec::new();
        // Registered once per run, and only when the tracer is enabled: a
        // disabled run touches no registry.
        let candidates_per_cell =
            tracer.is_enabled().then(|| tracer.metrics().histogram("core.candidates_per_cell"));

        // Imputation (lines 11-14): visit missing cells in the configured
        // order (paper default: tuple by tuple, attributes within). The
        // budget ladder per cell: full verify until the budget trips, then
        // skip the rest.
        let cells_span = run_span.child("core::impute_cells");
        let cells = self.ordered_cells(rel, &incomplete);
        let mut outcomes: Vec<(Cell, CellOutcome)> = Vec::with_capacity(cells.len());
        for Cell { row, col: attr } in cells {
            {
                if !rel.is_missing(row, attr) {
                    continue;
                }
                let cell = Cell::new(row, attr);
                stats.missing_total += 1;
                if let Err(trip) = budget.check("core::cell") {
                    let outcome = if trip == BudgetTrip::Cancelled {
                        stats.cancelled += 1;
                        CellOutcome::Cancelled
                    } else {
                        stats.skipped_budget += 1;
                        CellOutcome::SkippedBudget
                    };
                    if self.config.trace {
                        trace.push(TraceEvent::LeftMissing { cell });
                    }
                    unimputed.push(cell);
                    stats.unimputed += 1;
                    outcomes.push((cell, outcome));
                    if explain_on && self.config.explain_sample.admits(stats.missing_total - 1, false)
                    {
                        let exp = CellExplain {
                            cell,
                            outcome,
                            clusters: 0,
                            candidates: 0,
                            generating_rfds: Vec::new(),
                            winner: None,
                            dried_up: Some(if outcome == CellOutcome::Cancelled {
                                DryReason::Cancelled
                            } else {
                                DryReason::Budget(trip)
                            }),
                        };
                        cells_span.event("cell", || cell_event_fields(&exp));
                        if self.config.explain {
                            explains.push(exp);
                        }
                    }
                    continue;
                }
                if self.config.trace {
                    trace.push(TraceEvent::CellStarted { cell });
                }
                let CellAttempt {
                    imputed: written,
                    clusters,
                    candidates,
                    generating_rfds,
                    winner,
                    dried_up,
                } = self.impute_missing_value(
                    &mut *rel,
                    oracle,
                    index.as_ref(),
                    row,
                    attr,
                    sigma,
                    &active,
                    explain_on,
                    &mut stats,
                    &mut trace,
                );
                if let Some(h) = &candidates_per_cell {
                    h.observe(candidates as u64);
                }
                let outcome = match written {
                    Some(cell_rec) => {
                        oracle.update_cell(rel, row, attr);
                        if let Some(ix) = index.as_mut() {
                            ix.update_cell(rel, row, attr);
                        }
                        if self.config.trace {
                            trace.push(TraceEvent::Imputed {
                                cell: cell_rec.cell,
                                donor_row: cell_rec.donor_row,
                            });
                        }
                        imputed.push(cell_rec);
                        stats.imputed += 1;
                        outcomes.push((cell, CellOutcome::Imputed));
                        // Line 14: an imputed value can turn a key-RFD into
                        // a usable one; only pairs involving `row` changed.
                        if !self.config.skip_key_reevaluation {
                            dormant_keys.retain(|&k| {
                                if stays_key_after_update_with_index(
                                    oracle,
                                    index.as_ref(),
                                    rel,
                                    sigma.get(k),
                                    row,
                                ) {
                                    true
                                } else {
                                    active[k] = true;
                                    stats.keys_reactivated += 1;
                                    false
                                }
                            });
                        }
                        CellOutcome::Imputed
                    }
                    None => {
                        if self.config.trace {
                            trace.push(TraceEvent::LeftMissing { cell });
                        }
                        unimputed.push(cell);
                        stats.unimputed += 1;
                        outcomes.push((cell, CellOutcome::NoCandidates));
                        CellOutcome::NoCandidates
                    }
                };
                if explain_on
                    && self
                        .config
                        .explain_sample
                        .admits(stats.missing_total - 1, outcome == CellOutcome::Imputed)
                {
                    let exp = CellExplain {
                        cell,
                        outcome,
                        clusters,
                        candidates,
                        generating_rfds,
                        winner,
                        dried_up,
                    };
                    cells_span.event("cell", || cell_event_fields(&exp));
                    if self.config.explain {
                        explains.push(exp);
                    }
                }
            }
        }

        drop(cells_span);

        // Roll the run counters into the metrics registry and bracket the
        // trace with the budget accounting and run summary.
        if tracer.is_enabled() {
            let m = tracer.metrics();
            m.counter("core.cells_imputed").add(stats.imputed as u64);
            m.counter("core.cells_no_candidates")
                .add((stats.unimputed - stats.skipped_budget - stats.cancelled) as u64);
            m.counter("core.cells_skipped_budget").add(stats.skipped_budget as u64);
            m.counter("core.cells_cancelled").add(stats.cancelled as u64);
            m.counter("core.candidates_scored").add(stats.candidates_scored as u64);
            m.counter("core.clusters_visited").add(stats.clusters_visited as u64);
            m.counter("core.verifications").add(stats.verifications as u64);
            m.counter("core.verification_failures")
                .add(stats.verification_failures as u64);
            m.counter("core.keys_reactivated").add(stats.keys_reactivated as u64);
        }
        let mut report = budget.report();
        if tracer.is_enabled() {
            // Per-phase self-time attribution from the spans closed so
            // far (the still-open run span is excluded by construction).
            report.phases = renuver_obs::flamegraph::phase_totals(&tracer.records());
        }
        tracer.event("budget_report", run_span.id(), || {
            let mut fields = vec![
                ("ops", FieldValue::U64(report.ops)),
                ("tripped", FieldValue::Bool(report.tripped.is_some())),
            ];
            if let Some(trip) = report.tripped {
                fields.push(("trip", FieldValue::Str(trip.label())));
            }
            if let Some(phase) = report.tripped_at {
                fields.push(("phase", FieldValue::Str(phase)));
            }
            fields
        });
        tracer.event("run_end", run_span.id(), || {
            vec![
                ("subject", FieldValue::Str("impute")),
                ("imputed", FieldValue::U64(stats.imputed as u64)),
                ("unimputed", FieldValue::U64(stats.unimputed as u64)),
                ("missing", FieldValue::U64(stats.missing_total as u64)),
            ]
        });

        PreparedParts {
            imputed,
            unimputed,
            outcomes,
            stats,
            trace,
            explains,
            budget: report,
        }
    }

    /// Produces the missing cells of the given rows in the configured
    /// visiting order.
    fn ordered_cells(&self, rel: &Relation, rows: &[usize]) -> Vec<Cell> {
        let mut cells: Vec<Cell> = Vec::new();
        for &row in rows {
            for attr in 0..rel.arity() {
                if rel.is_missing(row, attr) {
                    cells.push(Cell::new(row, attr));
                }
            }
        }
        match self.config.imputation_order {
            ImputationOrder::RowMajor => {}
            ImputationOrder::ColumnMajor => {
                cells.sort_by_key(|c| (c.col, c.row));
            }
            ImputationOrder::FewestMissingFirst => {
                let mut per_row = vec![0usize; rel.len()];
                for c in &cells {
                    per_row[c.row] += 1;
                }
                cells.sort_by_key(|c| (per_row[c.row], c.row, c.col));
            }
        }
        cells
    }

    /// IMPUTE_MISSING_VALUE (Algorithm 2): walks the RHS-threshold clusters
    /// for `attr`, scoring and verifying candidates until one sticks.
    /// Returns the attempt record: the imputed cell when a candidate passed
    /// verification (the cell stays missing otherwise), always with the
    /// cluster/candidate counts, and — when `explain_on` — the generating
    /// RFDs, the winner's distance breakdown, and the dry-up reason.
    #[allow(clippy::too_many_arguments)]
    fn impute_missing_value(
        &self,
        rel: &mut Relation,
        oracle: &DistanceOracle,
        index: Option<&SimilarityIndex>,
        row: usize,
        attr: usize,
        sigma: &RfdSet,
        active: &[bool],
        explain_on: bool,
        stats: &mut ImputationStats,
        trace: &mut Vec<TraceEvent>,
    ) -> CellAttempt {
        // RFD selection (Algorithm 1 lines 8-9), restricted to the active
        // Σ'. Clusters hold sigma indices (so explain records can name the
        // dependencies) and come back in ascending RHS-threshold order.
        let mut clusters: Vec<(f64, Vec<usize>)> = Vec::new();
        for (i, rfd) in sigma.iter().enumerate() {
            if !active[i] || rfd.rhs_attr() != attr {
                continue;
            }
            let thr = rfd.rhs_threshold();
            match clusters.iter_mut().find(|(t, _)| *t == thr) {
                Some((_, v)) => v.push(i),
                None => clusters.push((thr, vec![i])),
            }
        }
        // total_cmp, not partial_cmp().unwrap(): a NaN threshold (possible
        // with degenerate discovered RFDs) must not panic the engine.
        clusters.sort_by(|a, b| a.0.total_cmp(&b.0));
        if self.config.cluster_order == ClusterOrder::Descending {
            clusters.reverse();
        }
        let mut attempt = CellAttempt {
            imputed: None,
            clusters: clusters.len(),
            candidates: 0,
            generating_rfds: Vec::new(),
            winner: None,
            dried_up: None,
        };
        if clusters.is_empty() {
            attempt.dried_up = Some(DryReason::NoActiveRfds);
            return attempt;
        }

        // Verification runs against the FULL Σ, dormant keys included: the
        // imputation under test can itself create the first LHS-similar
        // pair of a key-RFD (Example 5.1) and violate it in the same stroke
        // — checking only Σ' would let that slip through. (Algorithm 4 is
        // handed Σ', but Definition 4.3 demands `r' ⊨ Σ`.) The plan hoists
        // the candidate-independent pair scans out of the candidate loop;
        // `VerifyPlan::admits` is equivalent to `is_faultless` on the
        // mutated relation, over every row, whatever the budget has left.
        let plan = VerifyPlan::build_with(
            oracle,
            index,
            rel,
            row,
            attr,
            sigma.iter(),
            self.config.verify_scope,
        );

        for (cluster_threshold, members) in &clusters {
            stats.clusters_visited += 1;
            let rfds: Vec<&Rfd> = members.iter().map(|&i| sigma.get(i)).collect();
            let mut candidates = find_candidate_tuples_with(oracle, index, rel, row, attr, &rfds);
            stats.candidates_scored += candidates.len();
            attempt.candidates += candidates.len();
            if self.config.trace {
                trace.push(TraceEvent::ClusterVisited {
                    cell: Cell::new(row, attr),
                    rhs_threshold: *cluster_threshold,
                    candidates: candidates.len(),
                });
            }
            if explain_on {
                for cand in &candidates {
                    attempt.generating_rfds.push(members[cand.via]);
                }
            }
            sort_candidates(&mut candidates);
            if let Some(cap) = self.config.max_candidates_per_cluster {
                candidates.truncate(cap);
            }
            for (pos, cand) in candidates.iter().enumerate() {
                stats.verifications += 1;
                if plan.admits(oracle, rel, attr, cand.row) {
                    if explain_on {
                        // Explain detail for the winner, computed against
                        // the pre-imputation relation: the per-constraint
                        // distances whose mean is the winning score, and
                        // the gap to the next-ranked candidate.
                        let via_rfd = members[cand.via];
                        let lhs_distances = sigma
                            .get(via_rfd)
                            .lhs()
                            .iter()
                            .map(|c| {
                                oracle
                                    .distance_bounded(rel, c.attr, row, cand.row, c.threshold)
                                    .unwrap_or(f64::NAN)
                            })
                            .collect();
                        attempt.winner = Some(ExplainWinner {
                            donor_row: cand.row,
                            distance: cand.distance,
                            via_rfd,
                            lhs_distances,
                            runner_up_margin: candidates
                                .get(pos + 1)
                                .map(|next| next.distance - cand.distance),
                        });
                    }
                    let value = rel.value(cand.row, attr).clone();
                    rel.set_value(row, attr, value.clone());
                    attempt.imputed = Some(ImputedCell {
                        cell: Cell::new(row, attr),
                        value,
                        donor_row: cand.row,
                        distance: cand.distance,
                        cluster_threshold: *cluster_threshold,
                        via: rfds[cand.via].clone(),
                    });
                    attempt.generating_rfds.sort_unstable();
                    attempt.generating_rfds.dedup();
                    return attempt;
                }
                stats.verification_failures += 1;
                if self.config.trace {
                    trace.push(TraceEvent::CandidateRejected {
                        cell: Cell::new(row, attr),
                        donor_row: cand.row,
                        distance: cand.distance,
                    });
                }
            }
        }
        attempt.dried_up = Some(if attempt.candidates == 0 {
            DryReason::NoCandidates
        } else {
            DryReason::AllRejected
        });
        attempt.generating_rfds.sort_unstable();
        attempt.generating_rfds.dedup();
        attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VerifyScope;
    use renuver_data::{AttrType, Schema, Value};
    use renuver_rfd::Constraint;

    /// Table 2 sample: Name, City, Phone, Type, Class.
    fn restaurant_sample() -> Relation {
        let schema = Schema::new([
            ("Name", AttrType::Text),
            ("City", AttrType::Text),
            ("Phone", AttrType::Text),
            ("Type", AttrType::Text),
            ("Class", AttrType::Int),
        ])
        .unwrap();
        let t = |name: &str, city: Option<&str>, phone: Option<&str>, ty: Option<&str>, class: i64| {
            vec![
                Value::from(name),
                city.map(Value::from).unwrap_or(Value::Null),
                phone.map(Value::from).unwrap_or(Value::Null),
                ty.map(Value::from).unwrap_or(Value::Null),
                Value::Int(class),
            ]
        };
        Relation::new(
            schema,
            vec![
                t("Granita", Some("Malibu"), Some("310/456-0488"), Some("Californian"), 6),
                t("Chinois Main", Some("LA"), Some("310-392-9025"), Some("French"), 5),
                t("Citrus", Some("Los Angeles"), Some("213/857-0034"), Some("Californian"), 6),
                t("Citrus", Some("Los Angeles"), None, Some("Californian"), 6),
                t("Fenix", Some("Hollywood"), Some("213/848-6677"), None, 5),
                t("Fenix Argyle", None, Some("213/848-6677"), Some("French (new)"), 5),
                t("C. Main", Some("Los Angeles"), None, Some("French"), 5),
            ],
        )
        .unwrap()
    }

    /// The Figure 1 dependency set φ1..φ7.
    fn figure_1_sigma() -> RfdSet {
        RfdSet::from_vec(vec![
            // φ1: Name(≤8), Phone(≤0), Class(≤1) → Type(≤0)  [key]
            Rfd::new(
                vec![Constraint::new(0, 8.0), Constraint::new(2, 0.0), Constraint::new(4, 1.0)],
                Constraint::new(3, 0.0),
            ),
            // φ2: Class(≤0) → Type(≤5)
            Rfd::new(vec![Constraint::new(4, 0.0)], Constraint::new(3, 5.0)),
            // φ3: City(≤2) → Phone(≤2)
            Rfd::new(vec![Constraint::new(1, 2.0)], Constraint::new(2, 2.0)),
            // φ4: Name(≤4) → Phone(≤1)
            Rfd::new(vec![Constraint::new(0, 4.0)], Constraint::new(2, 1.0)),
            // φ5: Name(≤8), Phone(≤0) → City(≤9)
            Rfd::new(
                vec![Constraint::new(0, 8.0), Constraint::new(2, 0.0)],
                Constraint::new(1, 9.0),
            ),
            // φ6: Name(≤6), City(≤9) → Phone(≤0)
            Rfd::new(
                vec![Constraint::new(0, 6.0), Constraint::new(1, 9.0)],
                Constraint::new(2, 0.0),
            ),
            // φ7: Phone(≤1) → Class(≤0)
            Rfd::new(vec![Constraint::new(2, 1.0)], Constraint::new(4, 0.0)),
        ])
    }

    #[test]
    fn doc_example_city_zip() {
        let schema =
            Schema::new([("City", AttrType::Text), ("Zip", AttrType::Text)]).unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec!["Salerno".into(), "84084".into()],
                vec!["Salerno".into(), Value::Null],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )]);
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert_eq!(result.relation.value(1, 1), &Value::Text("84084".into()));
        assert_eq!(result.stats.imputed, 1);
        assert_eq!(result.stats.missing_total, 1);
    }

    #[test]
    fn figure_1_t7_phone_gets_t2_value() {
        // The paper's walk-through: imputing t7[Phone] first tries t3's
        // phone (dist 3), which φ7 rejects, then accepts t2's phone
        // (dist 7.5).
        let rel = restaurant_sample();
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &figure_1_sigma());
        let cell = Cell::new(6, 2);
        let imputed = result.imputed.iter().find(|c| c.cell == cell);
        let imputed = imputed.expect("t7[Phone] should be imputed");
        assert_eq!(imputed.value, Value::Text("310-392-9025".into()));
        assert_eq!(imputed.donor_row, 1);
        assert_eq!(imputed.distance, 7.5);
        // The justifying RFD recorded via `Candidate::via` must be one of
        // the cluster's Phone-RHS dependencies, resolved through the
        // cluster-slice index (not a candidate-list position).
        assert_eq!(imputed.via.rhs_attr(), 2);
        assert!(figure_1_sigma().iter().any(|r| *r == imputed.via));
        // At least one verification failed along the way (t3 rejected).
        assert!(result.stats.verification_failures >= 1);
    }

    #[test]
    fn input_relation_untouched() {
        let rel = restaurant_sample();
        let before = rel.clone();
        let _ = Renuver::new(RenuverConfig::default()).impute(&rel, &figure_1_sigma());
        assert_eq!(rel, before);
    }

    #[test]
    fn no_rfds_means_nothing_imputed() {
        let rel = restaurant_sample();
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &RfdSet::new());
        assert_eq!(result.stats.imputed, 0);
        assert_eq!(result.stats.unimputed, result.stats.missing_total);
        assert_eq!(result.relation.missing_count(), rel.missing_count());
    }

    #[test]
    fn complete_relation_is_noop() {
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        let rel = Relation::new(
            schema,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3), Value::Int(4)]],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 1.0)],
            Constraint::new(1, 1.0),
        )]);
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert_eq!(result.stats.missing_total, 0);
        assert_eq!(result.relation, rel);
    }

    #[test]
    fn imputed_tuple_becomes_candidate() {
        // Row 1 misses B; row 2 misses B and only matches row 1 on A.
        // Once row 1 is imputed from row 0, row 2 can be imputed from row 1.
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(10), Value::Int(5)],
                vec![Value::Int(10), Value::Null],
                vec![Value::Int(11), Value::Null],
            ],
        )
        .unwrap();
        // A(≤0) → B(≤0) fills row 1 from row 0; A(≤1) → B(≤2) then lets
        // row 2 borrow from rows 0/1.
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
            Rfd::new(vec![Constraint::new(0, 1.0)], Constraint::new(1, 2.0)),
        ]);
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert_eq!(result.stats.imputed, 2);
        assert_eq!(result.relation.value(1, 1), &Value::Int(5));
        assert_eq!(result.relation.value(2, 1), &Value::Int(5));
    }

    #[test]
    fn inconsistent_candidates_left_missing() {
        // Both potential donors for row 2's B trip the guard
        // B(≤0) → C(≤0) — equal B values with distant C values — so the
        // cell stays missing (Section 4: better unimputed than wrong).
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("B", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(100), Value::Int(7)],
                vec![Value::Int(1), Value::Int(200), Value::Int(8)],
                vec![Value::Int(1), Value::Null, Value::Int(9)],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![
            // Candidate generator: A(≤0) → B(≤200).
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 200.0)),
            // Consistency guard with B on the LHS: B(≤0) → C(≤0). Imputing
            // row 2 with either donor's B makes it B-equal to a row whose C
            // differs from row 2's.
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
        ]);
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert_eq!(result.stats.imputed, 0);
        assert!(result.relation.is_missing(2, 1));
        assert_eq!(result.unimputed, vec![Cell::new(2, 1)]);
        assert_eq!(result.stats.verification_failures, 2);
    }

    #[test]
    fn full_scope_rejects_what_lhs_only_accepts() {
        // A(≤1) → B(≤100) with non-transitive LHS similarity: row 2 (A=1)
        // is within distance 1 of both row 0 (A=0, B=0) and row 1 (A=2,
        // B=500), which are NOT similar to each other — so the dependency
        // holds on the input. Either candidate value for row 2's B puts it
        // within 1 of a tuple whose B is 500 away. LhsOnly (Algorithm 4
        // literal, B not on any LHS) accepts the first candidate; Full
        // (Definition 4.3) rejects both.
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(0), Value::Int(0)],
                vec![Value::Int(2), Value::Int(500)],
                vec![Value::Int(1), Value::Null],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 1.0)],
            Constraint::new(1, 100.0),
        )]);
        let full = Renuver::new(RenuverConfig {
            verify_scope: VerifyScope::Full,
            ..RenuverConfig::default()
        })
        .impute(&rel, &rfds);
        assert_eq!(full.stats.imputed, 0);
        assert_eq!(full.stats.verification_failures, 2);
        let lhs_only = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert_eq!(lhs_only.stats.imputed, 1);
        assert_eq!(lhs_only.relation.value(2, 1), &Value::Int(0));
    }

    #[test]
    fn key_reactivation_enables_late_imputation() {
        // Schema (A, C, B). φ_c: C(≤0) → B(≤0) starts as a key: row 1's C is
        // missing and rows 0/2 have distinct C. φ_a: A(≤0) → C(≤0) fills
        // row 1's C from row 0 (A=1), turning φ_c non-key (Example 5.1);
        // φ_c then fills row 1's B — processed after C in column order.
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("C", AttrType::Int),
            ("B", AttrType::Int),
        ])
        .unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(9), Value::Int(40)],
                vec![Value::Int(1), Value::Null, Value::Null],
                vec![Value::Int(5), Value::Int(8), Value::Int(77)],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
        ]);
        let with = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert_eq!(with.stats.imputed, 2);
        assert_eq!(with.relation.value(1, 1), &Value::Int(9));
        assert_eq!(with.relation.value(1, 2), &Value::Int(40));
        assert_eq!(with.stats.keys_reactivated, 1);
        assert_eq!(with.stats.keys_filtered, 1);

        // With re-evaluation disabled, B stays missing.
        let without = Renuver::new(RenuverConfig {
            skip_key_reevaluation: true,
            ..RenuverConfig::default()
        })
        .impute(&rel, &rfds);
        assert_eq!(without.relation.value(1, 1), &Value::Int(9));
        assert!(without.relation.is_missing(1, 2));
    }

    #[test]
    fn candidate_cap_limits_verifications() {
        let rel = restaurant_sample();
        let capped = Renuver::new(RenuverConfig {
            max_candidates_per_cluster: Some(1),
            ..RenuverConfig::default()
        })
        .impute(&rel, &figure_1_sigma());
        let uncapped = Renuver::new(RenuverConfig::default()).impute(&rel, &figure_1_sigma());
        assert!(capped.stats.verifications <= uncapped.stats.verifications);
    }

    #[test]
    fn incremental_imputes_only_appended_rows() {
        // Two batches: the base instance has a missing value of its own,
        // which incremental imputation must leave alone.
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null], // pre-existing hole
                // appended batch:
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(9), Value::Int(90)],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 1.0)],
            Constraint::new(1, 0.0),
        )]);
        let result = Renuver::new(RenuverConfig::default()).impute_appended(&rel, 2, &rfds);
        assert_eq!(result.stats.missing_total, 1); // only the appended hole
        assert_eq!(result.relation.value(2, 1), &Value::Int(10));
        assert!(result.relation.is_missing(1, 1)); // old hole untouched
    }

    #[test]
    fn incremental_with_empty_batch_is_noop() {
        let schema = Schema::new([("A", AttrType::Int)]).unwrap();
        let rel = Relation::new(schema, vec![vec![Value::Null]]).unwrap();
        let result = Renuver::new(RenuverConfig::default()).impute_appended(
            &rel,
            rel.len(),
            &RfdSet::new(),
        );
        assert_eq!(result.stats.missing_total, 0);
        assert_eq!(result.relation, rel);
    }

    #[test]
    fn imputation_orders_visit_all_cells() {
        use crate::config::ImputationOrder;
        let rel = restaurant_sample();
        let sigma = figure_1_sigma();
        for order in [
            ImputationOrder::RowMajor,
            ImputationOrder::ColumnMajor,
            ImputationOrder::FewestMissingFirst,
        ] {
            let result = Renuver::new(RenuverConfig {
                imputation_order: order,
                ..RenuverConfig::default()
            })
            .impute(&rel, &sigma);
            assert_eq!(result.stats.missing_total, rel.missing_count(), "{order:?}");
            assert_eq!(
                result.stats.imputed + result.stats.unimputed,
                result.stats.missing_total,
                "{order:?}"
            );
        }
    }

    #[test]
    fn fewest_missing_first_can_unlock_chains() {
        // Row 1 misses only B (easy); row 2 misses B and C. Row-major hits
        // row 1 first anyway here, so instead demonstrate the order is
        // honored: column-major imputes all B cells before any C cell,
        // which the donor chain B→C requires in this construction.
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("B", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(100)],
                // C missing and B missing; C's donor needs row 1's B first.
                vec![Value::Int(1), Value::Null, Value::Null],
            ],
        )
        .unwrap();
        let sigma = RfdSet::from_vec(vec![
            // A(≤0) → B(≤0) fills B; B(≤0) → C(≤0) then fills C.
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
        ]);
        let result = Renuver::new(RenuverConfig::default()).impute(&rel, &sigma);
        assert_eq!(result.stats.imputed, 2);
        assert_eq!(result.relation.value(1, 2), &Value::Int(100));
    }

    #[test]
    fn trace_records_the_walkthrough() {
        let rel = restaurant_sample();
        let traced = Renuver::new(RenuverConfig { trace: true, ..RenuverConfig::default() })
            .impute(&rel, &figure_1_sigma());
        use crate::result::TraceEvent as E;
        // One CellStarted per missing value, one terminal event each.
        let started = traced.trace.iter().filter(|e| matches!(e, E::CellStarted { .. })).count();
        assert_eq!(started, rel.missing_count());
        let terminal = traced
            .trace
            .iter()
            .filter(|e| matches!(e, E::Imputed { .. } | E::LeftMissing { .. }))
            .count();
        assert_eq!(terminal, rel.missing_count());
        // t7[Phone]'s rejection of donor t3 (distance 3) is in the log.
        assert!(traced.trace.iter().any(|e| matches!(
            e,
            E::CandidateRejected { cell, donor_row: 2, distance } if *cell == Cell::new(6, 2) && *distance == 3.0
        )), "{:#?}", traced.trace);
        // Rejections in the log match the counter.
        let rejected = traced
            .trace
            .iter()
            .filter(|e| matches!(e, E::CandidateRejected { .. }))
            .count();
        assert_eq!(rejected, traced.stats.verification_failures);
        // Untraced runs have an empty log and identical outcomes.
        let plain = Renuver::new(RenuverConfig::default()).impute(&rel, &figure_1_sigma());
        assert!(plain.trace.is_empty());
        assert_eq!(plain.relation, traced.relation);
    }

    #[test]
    fn explain_records_account_for_every_cell() {
        let rel = restaurant_sample();
        let sigma = figure_1_sigma();
        let tracer = renuver_obs::Tracer::enabled();
        let cfg = RenuverConfig {
            tracer: tracer.clone(),
            explain: true,
            ..RenuverConfig::default()
        };
        let r = Renuver::new(cfg).impute(&rel, &sigma);
        assert_eq!(r.explains.len(), r.stats.missing_total);
        for e in &r.explains {
            match e.outcome {
                CellOutcome::Imputed => {
                    // The winner matches the provenance record, names its
                    // sigma index, and its LHS distance vector averages to
                    // the winning score.
                    let w = e.winner.as_ref().expect("imputed cell has a winner");
                    let ic = r.imputed.iter().find(|c| c.cell == e.cell).unwrap();
                    assert_eq!(w.donor_row, ic.donor_row);
                    assert_eq!(w.distance, ic.distance);
                    assert_eq!(sigma.get(w.via_rfd), &ic.via);
                    let mean =
                        w.lhs_distances.iter().sum::<f64>() / w.lhs_distances.len() as f64;
                    assert!((mean - w.distance).abs() < 1e-9, "{e:?}");
                    assert!(e.generating_rfds.contains(&w.via_rfd));
                    assert!(e.dried_up.is_none());
                }
                _ => {
                    assert!(e.winner.is_none());
                    assert!(e.dried_up.is_some(), "{e:?}");
                }
            }
        }
        // One `cell` trace event per missing cell.
        let cell_events = tracer.records().iter().filter(|rec| rec.kind == "cell").count();
        assert_eq!(cell_events, r.stats.missing_total);
        // Tracing + explain change no decision.
        let plain = Renuver::new(RenuverConfig::default()).impute(&rel, &sigma);
        assert_eq!(plain.relation, r.relation);
        assert_eq!(plain.outcomes, r.outcomes);
        assert_eq!(plain.stats, r.stats);
        assert!(plain.explains.is_empty(), "explain is opt-in");
    }

    #[test]
    fn t7_phone_explain_names_the_race() {
        // The walk-through cell t7[Phone]: donor t2 wins at distance 7.5
        // after t3 (distance 3) is rejected — so the winner's runner-up
        // margin, if any, is measured from 7.5, and φ6 generated both
        // candidates.
        let rel = restaurant_sample();
        let sigma = figure_1_sigma();
        let cfg = RenuverConfig { explain: true, ..RenuverConfig::default() };
        let r = Renuver::new(cfg).impute(&rel, &sigma);
        let e = r.explains.iter().find(|e| e.cell == Cell::new(6, 2)).unwrap();
        assert_eq!(e.outcome, CellOutcome::Imputed);
        assert!(e.candidates >= 2, "{e:?}");
        let w = e.winner.as_ref().unwrap();
        assert_eq!(w.donor_row, 1);
        assert_eq!(w.distance, 7.5);
        assert_eq!(sigma.get(w.via_rfd).rhs_attr(), 2);
    }

    #[test]
    fn dry_reasons_distinguish_no_rfds_no_candidates_and_rejections() {
        use renuver_budget::BudgetTrip;
        // (a) All candidates rejected by the consistency guard.
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("B", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        let rel = Relation::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(100), Value::Int(7)],
                vec![Value::Int(1), Value::Int(200), Value::Int(8)],
                vec![Value::Int(1), Value::Null, Value::Int(9)],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 200.0)),
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
        ]);
        let cfg = RenuverConfig { explain: true, ..RenuverConfig::default() };
        let r = Renuver::new(cfg.clone()).impute(&rel, &rfds);
        assert_eq!(r.explains[0].dried_up, Some(DryReason::AllRejected));
        assert_eq!(r.explains[0].candidates, 2);

        // (b) No active RFD targets the attribute at all.
        let rel_b = Relation::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Int(2), Value::Int(5)],
            ],
        )
        .unwrap();
        let only_b =
            RfdSet::from_vec(vec![Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0))]);
        let r = Renuver::new(cfg.clone()).impute(&rel_b, &only_b);
        assert_eq!(r.explains[0].dried_up, Some(DryReason::NoActiveRfds));
        assert_eq!(r.explains[0].clusters, 0);

        // (c) Clusters exist but match no donor: rows 1 and 2 keep the RFD
        // non-key (they are LHS-similar with equal C), but neither is
        // A-similar to the target row 0.
        let rel_c = Relation::new(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Null],
                vec![Value::Int(50), Value::Int(2), Value::Int(5)],
                vec![Value::Int(50), Value::Int(3), Value::Int(5)],
            ],
        )
        .unwrap();
        let tight =
            RfdSet::from_vec(vec![Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(2, 0.0))]);
        let r = Renuver::new(cfg.clone()).impute(&rel_c, &tight);
        assert_eq!(r.explains[0].dried_up, Some(DryReason::NoCandidates));
        assert!(r.explains[0].clusters > 0 && r.explains[0].candidates == 0);

        // (d) Budget trips before the cell: the explain names the trip.
        let skipped = Renuver::new(RenuverConfig {
            budget: renuver_budget::Budget::unlimited().with_ops_limit(0),
            parallelism: 1,
            ..cfg
        })
        .impute(&rel, &rfds);
        assert_eq!(skipped.explains.len(), skipped.stats.missing_total);
        assert!(skipped
            .explains
            .iter()
            .all(|e| e.dried_up == Some(DryReason::Budget(BudgetTrip::Ops))));
    }

    #[test]
    fn traced_run_emits_spans_and_run_brackets() {
        let rel = restaurant_sample();
        let tracer = renuver_obs::Tracer::enabled();
        let cfg = RenuverConfig { tracer: tracer.clone(), ..RenuverConfig::default() };
        let _ = Renuver::new(cfg).impute(&rel, &figure_1_sigma());
        let records = tracer.records();
        let labels: Vec<&str> = records
            .iter()
            .filter(|r| r.kind == "span")
            .filter_map(|r| {
                r.fields.iter().find(|(n, _)| *n == "label").map(|(_, v)| match v {
                    renuver_obs::FieldValue::Str(s) => *s,
                    _ => "",
                })
            })
            .collect();
        for want in
            ["core::impute", "core::partition_keys", "core::impute_cells", "distance::oracle_build"]
        {
            assert!(labels.contains(&want), "missing span {want}: {labels:?}");
        }
        for kind in ["run_start", "run_end", "budget_report"] {
            assert_eq!(records.iter().filter(|r| r.kind == kind).count(), 1, "{kind}");
        }
        // The whole trace validates against the schema.
        let text = tracer.to_jsonl();
        renuver_obs::schema::validate_trace(&text).unwrap();
        // Run counters landed in the registry.
        let m = tracer.metrics();
        assert!(m.counter("core.cells_imputed").get() > 0);
        assert_eq!(
            m.histogram("core.candidates_per_cell").count() as usize,
            rel.missing_count()
        );
    }

    #[test]
    fn stats_are_consistent() {
        let rel = restaurant_sample();
        let r = Renuver::new(RenuverConfig::default()).impute(&rel, &figure_1_sigma());
        assert_eq!(r.stats.missing_total, rel.missing_count());
        assert_eq!(r.stats.imputed + r.stats.unimputed, r.stats.missing_total);
        assert_eq!(r.imputed.len(), r.stats.imputed);
        assert_eq!(r.unimputed.len(), r.stats.unimputed);
        assert_eq!(
            r.relation.missing_count(),
            rel.missing_count() - r.stats.imputed
        );
    }

    #[test]
    fn outcomes_cover_every_missing_cell() {
        let rel = restaurant_sample();
        let r = Renuver::new(RenuverConfig::default()).impute(&rel, &figure_1_sigma());
        assert_eq!(r.outcomes.len(), r.stats.missing_total);
        let imputed =
            r.outcomes.iter().filter(|(_, o)| *o == CellOutcome::Imputed).count();
        assert_eq!(imputed, r.stats.imputed);
        let no_cand =
            r.outcomes.iter().filter(|(_, o)| *o == CellOutcome::NoCandidates).count();
        assert_eq!(no_cand, r.stats.unimputed);
        // An unlimited run trips nothing.
        assert_eq!(r.stats.skipped_budget, 0);
        assert_eq!(r.stats.cancelled, 0);
        assert!(r.budget.tripped.is_none());
    }

    #[test]
    fn exhausted_budget_skips_cells_but_stays_consistent() {
        // A zero-op budget trips before the first cell: everything is
        // skipped, the stats invariant holds, and the report names the
        // trip site.
        let rel = restaurant_sample();
        let cfg = RenuverConfig {
            budget: renuver_budget::Budget::unlimited().with_ops_limit(0),
            parallelism: 1,
            ..RenuverConfig::default()
        };
        let r = Renuver::new(cfg).impute(&rel, &figure_1_sigma());
        assert_eq!(r.stats.imputed, 0);
        assert_eq!(r.stats.unimputed, rel.missing_count());
        assert_eq!(r.stats.skipped_budget, rel.missing_count());
        assert!(r
            .outcomes
            .iter()
            .all(|(_, o)| *o == CellOutcome::SkippedBudget));
        assert_eq!(r.stats.imputed + r.stats.unimputed, r.stats.missing_total);
        assert_eq!(r.budget.tripped, Some(renuver_budget::BudgetTrip::Ops));
        assert!(r.budget.tripped_at.is_some());
        // The input is returned unchanged (minus nothing).
        assert_eq!(r.relation.missing_count(), rel.missing_count());
    }

    #[test]
    fn cancelled_run_reports_cancelled_cells() {
        let rel = restaurant_sample();
        let budget = renuver_budget::Budget::unlimited();
        budget.cancel();
        let cfg =
            RenuverConfig { budget, parallelism: 1, ..RenuverConfig::default() };
        let r = Renuver::new(cfg).impute(&rel, &figure_1_sigma());
        assert_eq!(r.stats.imputed, 0);
        assert_eq!(r.stats.cancelled, rel.missing_count());
        assert!(r.outcomes.iter().all(|(_, o)| *o == CellOutcome::Cancelled));
        assert_eq!(r.budget.tripped, Some(renuver_budget::BudgetTrip::Cancelled));
    }

    #[test]
    fn budget_limited_runs_are_deterministic() {
        // Two runs under the same finite ops budget at parallelism = 1 make
        // bit-for-bit identical decisions. Ops limits are deterministic
        // (unlike wall-clock deadlines), so the trip lands on the same cell.
        let rel = restaurant_sample();
        let sigma = figure_1_sigma();
        // Calibrate the limit off an unlimited run's checkpoint count: half
        // of it always trips mid-run (the per-cell checks come last), so the
        // test keeps exercising the budget path even as check density
        // evolves.
        let full = {
            let cfg = RenuverConfig { parallelism: 1, ..RenuverConfig::default() };
            Renuver::new(cfg).impute(&rel, &sigma)
        };
        let limit = full.budget.ops / 2;
        let run = || {
            let cfg = RenuverConfig {
                budget: renuver_budget::Budget::unlimited().with_ops_limit(limit),
                parallelism: 1,
                ..RenuverConfig::default()
            };
            Renuver::new(cfg).impute(&rel, &sigma)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // The limit is tight enough that something was actually skipped —
        // otherwise this test wouldn't exercise the budget path at all.
        assert!(a.stats.skipped_budget > 0, "{:?}", a.stats);
    }

    #[test]
    fn nearly_spent_budget_still_verifies_against_every_row() {
        // A manual clock 95 s into a 100 s deadline: the budget has not
        // tripped, so every cell gets the full check.
        let nearly_spent = || {
            let clock = renuver_budget::ManualClock::new();
            clock.advance(std::time::Duration::from_secs(95));
            RenuverConfig {
                budget: renuver_budget::Budget::unlimited()
                    .with_deadline(std::time::Duration::from_secs(100))
                    .with_manual_clock(clock),
                parallelism: 1,
                ..RenuverConfig::default()
            }
        };
        // The doc example still fills its cell.
        let schema =
            Schema::new([("City", AttrType::Text), ("Zip", AttrType::Text)]).unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec!["Salerno".into(), "84084".into()],
                vec!["Salerno".into(), Value::Null],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )]);
        let result = Renuver::new(nearly_spent()).impute(&rel, &rfds);
        assert_eq!(result.relation.value(1, 1), &Value::Text("84084".into()));
        assert_eq!(result.stats.imputed, 1);
        assert!(result.budget.tripped.is_none());

        // The only Phone donor, row 0, has Class 6 where row 1 has 5, so
        // writing its Phone into row 1 breaks Phone(≤0) → Class(≤0)
        // against a row no imputation touched. The cell stays missing,
        // as it does without a budget.
        let schema = Schema::new([
            ("City", AttrType::Text),
            ("Phone", AttrType::Text),
            ("Class", AttrType::Int),
        ])
        .unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec!["Salerno".into(), "089-1".into(), Value::Int(6)],
                vec!["Salerno".into(), Value::Null, Value::Int(5)],
            ],
        )
        .unwrap();
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(1, 0.0)),
            Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0)),
        ]);
        let unlimited = Renuver::new(RenuverConfig::default()).impute(&rel, &rfds);
        assert!(unlimited.relation.is_missing(1, 1));
        let result = Renuver::new(nearly_spent()).impute(&rel, &rfds);
        assert!(result.budget.tripped.is_none());
        assert!(result.relation.is_missing(1, 1), "{:?}", result.relation.value(1, 1));
        assert_eq!(result.stats.imputed, 0);
        assert_eq!(result.stats.verification_failures, 1);
        assert_eq!(result.outcomes, vec![(Cell::new(1, 1), CellOutcome::NoCandidates)]);
    }
}
