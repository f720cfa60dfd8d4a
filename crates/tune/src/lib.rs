//! TRIARD-style threshold auto-tuning (`renuver tune`, `POST /v1/tune`).
//!
//! RENUVER's imputation quality hinges on the per-attribute similarity
//! thresholds of its RFDs, but discovery freezes them at model-build
//! time. This crate treats them as quantities to *fit* against held-out
//! data instead:
//!
//! 1. **Mask** a seeded, stratified sample of known cells in every
//!    attribute the RFD set can impute ([`mask::mask_sample`]).
//! 2. **Impute** the masked relation with the current thresholds. A run
//!    builds its distances once: it prepares one
//!    [`renuver_core::Engine`] over the masked relation, and each
//!    iteration swaps in only the widened RFD set, imputes the masked
//!    cells in place and puts them back to null. A width vector the run
//!    has already scored is answered from a memo, without imputing.
//! 3. **Score** the result against the hidden truth with `eval`'s
//!    precision/recall machinery.
//! 4. **Adjust**: per target attribute, widen the LHS thresholds of the
//!    RFDs that impute it when the attribute is recall-starved, tighten
//!    when precision bleeds below the floor; repeat from 2 until the
//!    quality target, convergence (or a stall on widths an earlier
//!    iteration already scored), the iteration cap, or a budget trip.
//!
//! Every iteration is a budget checkpoint, and every threshold move is
//! recorded with the score- and work-deltas that justified it (the
//! shared [`renuver_eval::MetricsDiff`] engine). The whole run is a pure
//! function of `(relation, rfds, config)` — seeded masking, sorted
//! iteration order, no wall-clock in any decision — so a fixed seed
//! reproduces byte-identical thresholds at any `parallelism`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use renuver_budget::Budget;
use renuver_core::{Engine, RenuverConfig};
use renuver_data::{AttrId, Relation};
use renuver_eval::{evaluate, GroundTruth, Scores, WorkMetrics};
use renuver_obs::{FieldValue, Tracer};
use renuver_rfd::{Constraint, Rfd, RfdSet};
use renuver_rulekit::RuleSet;

pub mod mask;
pub mod report;

pub use report::{StopReason, ThresholdMove, TuneIteration, TuneReport};

/// Per-iteration progress hook: called with the number of completed
/// iterations. Lets an async caller (the `/v1/tune` job) expose live
/// progress without touching the loop's determinism.
pub type ProgressHook = Arc<dyn Fn(u64) + Send + Sync>;

/// Tuning knobs. [`TuneConfig::default`] matches the CLI defaults.
#[derive(Clone)]
pub struct TuneConfig {
    /// Masking/iteration seed. Callers without an opinion should pass
    /// [`default_seed`] of the model fingerprint so repeat runs agree.
    pub seed: u64,
    /// Fraction of each target attribute's known cells to hold out.
    pub sample_rate: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Held-out F1 at which tuning declares victory.
    pub target_f1: f64,
    /// Width added (or removed) per move, in threshold units.
    pub step: f64,
    /// Cap on the width offset any attribute may accumulate.
    pub max_width: f64,
    /// Precision floor: an attribute imputing below it gets tightened
    /// and frozen (no further widening) to prevent oscillation.
    pub min_precision: f64,
    /// Worker threads for the run's one distance build (`0` = all
    /// cores); the per-cell loop is sequential. The tuned thresholds are
    /// identical for every setting.
    pub parallelism: usize,
    /// Execution budget; checked before every iteration and polled
    /// inside the distance build and every imputation run. Cancel it to
    /// stop a tune mid-run with a partial report.
    pub budget: Budget,
    /// Structured tracer: emits `tune_start` / `tune_iter` / `tune_end`.
    pub tracer: Tracer,
    /// Validation rules for scoring (exact match when empty).
    pub rules: RuleSet,
    /// Optional per-iteration progress callback.
    pub progress: Option<ProgressHook>,
}

impl std::fmt::Debug for TuneConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuneConfig")
            .field("seed", &self.seed)
            .field("sample_rate", &self.sample_rate)
            .field("max_iters", &self.max_iters)
            .field("target_f1", &self.target_f1)
            .field("step", &self.step)
            .field("max_width", &self.max_width)
            .field("min_precision", &self.min_precision)
            .field("parallelism", &self.parallelism)
            .field("progress", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 0,
            sample_rate: 0.2,
            max_iters: 12,
            target_f1: 0.95,
            step: 1.0,
            max_width: 8.0,
            min_precision: 0.66,
            parallelism: 0,
            budget: Budget::unlimited(),
            tracer: Tracer::disabled(),
            rules: RuleSet::new(),
            progress: None,
        }
    }
}

/// The default tune seed for a model: a mix of its schema fingerprint,
/// so repeat runs over the same model agree without coordination.
pub fn default_seed(fingerprint: u64) -> u64 {
    fingerprint ^ 0x7E0E_517E_7E0E_517E
}

/// Rebuilds `rfds` with each attribute's width offset added to the LHS
/// thresholds of every RFD targeting it (RHS thresholds are untouched —
/// widening what a donor may *supply* would trade correctness, not
/// recall). Offsets absent from `widths` count as zero.
pub fn widened(rfds: &RfdSet, widths: &BTreeMap<AttrId, f64>) -> RfdSet {
    RfdSet::from_vec(
        rfds.iter()
            .map(|rfd| {
                let w = widths.get(&rfd.rhs_attr()).copied().unwrap_or(0.0);
                Rfd::new(
                    rfd.lhs()
                        .iter()
                        .map(|c| Constraint::new(c.attr, (c.threshold + w).max(0.0)))
                        .collect::<Vec<_>>(),
                    rfd.rhs(),
                )
            })
            .collect(),
    )
}

/// Per-attribute held-out scores: the slice of the ground truth whose
/// cells live in `attr`, judged like [`evaluate`] judges the whole run.
fn attr_scores(rel: &Relation, truth: &GroundTruth, rules: &RuleSet, attr: AttrId) -> Scores {
    let mut missing = 0usize;
    let mut imputed = 0usize;
    let mut correct = 0usize;
    for (cell, expected) in truth.iter().filter(|(c, _)| c.col == attr) {
        missing += 1;
        let got = rel.value(cell.row, cell.col);
        if got.is_null() {
            continue;
        }
        imputed += 1;
        if rules.validate(rel.schema().name(attr), &got.render(), &expected.render()) {
            correct += 1;
        }
    }
    Scores::from_counts(missing, imputed, correct)
}

/// What one imputation run measured: everything a later iteration on
/// the same widths needs, so a revisit is answered without imputing.
#[derive(Clone)]
struct Scored {
    scores: Scores,
    work: WorkMetrics,
    /// Held-out scores per target attribute, in `targets` order.
    per_attr: Vec<Scores>,
}

/// Runs the tune loop over `rel` with `rfds` as the starting thresholds.
///
/// The run prepares one [`Engine`] over the masked relation — one
/// distance build, after the first budget checkpoint passes — and each
/// iteration swaps in only the widened RFD set and imputes the masked
/// cells in place ([`Engine::impute_and_restore`]). Distances depend on
/// values, never on thresholds, so every iteration answers exactly what
/// [`renuver_core::Renuver::impute`] would on the masked relation. A
/// width vector the run has already scored is answered from a memo.
///
/// The returned report always reflects the iterations that actually ran;
/// when the budget trips or the run is cancelled, `partial` is set and
/// `tuned` holds the best thresholds seen so far (the discovery set if
/// nothing ran).
pub fn tune(rel: &Relation, rfds: &RfdSet, cfg: &TuneConfig) -> TuneReport {
    let targets: Vec<AttrId> = rfds
        .iter()
        .map(Rfd::rhs_attr)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (masked, truth) = mask::mask_sample(rel, &targets, cfg.seed, cfg.sample_rate);
    let run_span = cfg.tracer.span("tune::run");
    cfg.tracer.event("tune_start", run_span.id(), || {
        vec![
            ("seed", FieldValue::U64(cfg.seed)),
            ("masked", FieldValue::U64(truth.len() as u64)),
            ("rfds", FieldValue::U64(rfds.len() as u64)),
            ("target_f1", FieldValue::F64(cfg.target_f1)),
            ("max_iters", FieldValue::U64(cfg.max_iters as u64)),
            ("sample_rate", FieldValue::F64(cfg.sample_rate)),
        ]
    });

    let mut widths: BTreeMap<AttrId, f64> = targets.iter().map(|&a| (a, 0.0)).collect();
    let mut frozen: BTreeSet<AttrId> = BTreeSet::new();
    let mut iterations: Vec<TuneIteration> = Vec::new();
    let mut prev_work: Option<WorkMetrics> = None;
    let mut prev_f1 = 0.0f64;
    let mut baseline = Scores::default();
    let mut best: Option<(f64, usize)> = None;
    let mut best_widths = widths.clone();
    // Every width vector scored so far, with what it scored. A run that
    // tripped the budget is never stored: the loop ends there.
    let mut memo: Vec<(BTreeMap<AttrId, f64>, Scored)> = Vec::new();
    let mut masked = Some(masked);
    let mut engine: Option<Engine> = None;
    let mut prepare = Duration::ZERO;
    let mut stop = if truth.is_empty() { StopReason::Converged } else { StopReason::MaxIters };

    for iter in 0..cfg.max_iters {
        if truth.is_empty() {
            break;
        }
        if cfg.budget.check("tune::iter").is_err() {
            stop = if cfg.budget.is_cancelled() {
                StopReason::Cancelled
            } else {
                StopReason::Budget
            };
            break;
        }
        // The run's one distance build, after the first checkpoint
        // passed: a run cancelled before it starts builds nothing.
        if let Some(masked) = masked.take() {
            let started = Instant::now();
            let engine_cfg = RenuverConfig {
                budget: cfg.budget.clone(),
                parallelism: cfg.parallelism,
                ..RenuverConfig::default()
            };
            engine = Some(Engine::prepare(masked, rfds.clone(), engine_cfg));
            prepare = started.elapsed();
        }
        let started = Instant::now();
        let memoized = memo.iter().find(|(w, _)| *w == widths).map(|(_, run)| run.clone());
        let revisited = memoized.is_some();
        let (run, tripped) = match memoized {
            Some(run) => (run, false),
            None => {
                let mut prepared = engine
                    .take()
                    .expect("the engine is prepared before the first iteration")
                    .with_thresholds(widened(rfds, &widths));
                let result = prepared.impute_and_restore();
                engine = Some(prepared);
                let tripped = result.budget.tripped.is_some();
                let run = Scored {
                    scores: evaluate(&result.relation, &truth, &cfg.rules),
                    work: WorkMetrics::from_stats(&result.stats, result.budget.phases.clone()),
                    per_attr: targets
                        .iter()
                        .map(|&attr| attr_scores(&result.relation, &truth, &cfg.rules, attr))
                        .collect(),
                };
                if !tripped {
                    memo.push((widths.clone(), run.clone()));
                }
                (run, tripped)
            }
        };
        let elapsed = started.elapsed();
        let Scored { scores, work, per_attr } = run;
        let diff = prev_work.as_ref().map(|p| work.diff(p)).unwrap_or_default();
        if iter == 0 {
            baseline = scores;
        }
        if best.map_or(true, |(f1, _)| scores.f1 > f1) {
            best = Some((scores.f1, iter));
            best_widths = widths.clone();
        }

        // Decide the next moves from this iteration's per-attribute
        // scores — unless the loop is done here.
        let mut moves: Vec<ThresholdMove> = Vec::new();
        if scores.f1 < cfg.target_f1 && !tripped {
            for (&attr, s) in targets.iter().zip(&per_attr) {
                let w = widths[&attr];
                if s.imputed > 0 && s.precision < cfg.min_precision && w > 0.0 {
                    // Precision bleeding: step back and freeze the
                    // attribute so it cannot oscillate.
                    frozen.insert(attr);
                    moves.push(ThresholdMove { attr, old: w, new: (w - cfg.step).max(0.0) });
                } else if s.recall < 1.0 && w + cfg.step <= cfg.max_width && !frozen.contains(&attr)
                {
                    moves.push(ThresholdMove { attr, old: w, new: w + cfg.step });
                }
            }
        }
        cfg.tracer.event("tune_iter", run_span.id(), || {
            vec![
                ("iter", FieldValue::U64(iter as u64)),
                ("f1", FieldValue::F64(scores.f1)),
                ("precision", FieldValue::F64(scores.precision)),
                ("recall", FieldValue::F64(scores.recall)),
                ("attrs", FieldValue::U64s(moves.iter().map(|m| m.attr as u64).collect())),
                ("old", FieldValue::F64s(moves.iter().map(|m| m.old).collect())),
                ("new", FieldValue::F64s(moves.iter().map(|m| m.new).collect())),
                ("d_f1", FieldValue::F64(scores.f1 - prev_f1)),
                ("d_candidates", FieldValue::F64(diff.d_candidates_scored as f64)),
                ("d_verifications", FieldValue::F64(diff.d_verifications as f64)),
                ("d_oracle_hits", FieldValue::F64(diff.d_oracle_hits as f64)),
            ]
        });
        for mv in &moves {
            widths.insert(mv.attr, mv.new);
        }
        let f1 = scores.f1;
        let stalled = moves.is_empty();
        iterations.push(TuneIteration { iter, scores, work: work.clone(), diff, moves, elapsed });
        if let Some(hook) = &cfg.progress {
            hook(iterations.len() as u64);
        }
        prev_work = Some(work);
        prev_f1 = f1;
        if tripped {
            stop = if cfg.budget.is_cancelled() {
                StopReason::Cancelled
            } else {
                StopReason::Budget
            };
            break;
        }
        if f1 >= cfg.target_f1 {
            stop = StopReason::Target;
            break;
        }
        if stalled {
            stop = if revisited { StopReason::Revisited } else { StopReason::Converged };
            break;
        }
    }

    let (best_f1, best_iter) = best.unwrap_or((0.0, 0));
    let partial = matches!(stop, StopReason::Budget | StopReason::Cancelled);
    let tuned = widened(rfds, &best_widths);
    cfg.tracer.event("tune_end", run_span.id(), || {
        vec![
            ("iters", FieldValue::U64(iterations.len() as u64)),
            ("f1", FieldValue::F64(best_f1)),
            ("stop", FieldValue::Str(stop.label())),
            ("best_iter", FieldValue::U64(best_iter as u64)),
            ("partial", FieldValue::Bool(partial)),
        ]
    });
    TuneReport {
        seed: cfg.seed,
        masked: truth.len(),
        prepare,
        baseline,
        best_f1,
        best_iter,
        iterations,
        tuned,
        stop,
        partial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::csv;
    use renuver_obs::schema::validate_trace;

    /// Pairs of rows whose names differ by an edit distance of 2
    /// (`" 2"` suffix) but agree on City. At the discovery threshold
    /// `Name(≤0)` a masked City cell has no donor; widening the LHS to
    /// ≥2 admits the twin and recall jumps.
    fn twin_rel() -> Relation {
        // Base names are 4 repeated letters, pairwise edit distance ≥ 4,
        // so nothing but the twin ever enters a widened cluster.
        let mut text = String::from("Name:text,City:text\n");
        for i in 0..12u8 {
            let c = (b'a' + i) as char;
            let name: String = std::iter::repeat(c).take(4).collect();
            text.push_str(&format!("{name},city-{c}\n{name} 2,city-{c}\n"));
        }
        csv::read_str(&text).unwrap()
    }

    fn sigma() -> RfdSet {
        RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )])
    }

    #[test]
    fn tuning_beats_the_discovery_thresholds_on_the_twin_fixture() {
        let rel = twin_rel();
        let cfg = TuneConfig { seed: 42, tracer: Tracer::enabled(), ..TuneConfig::default() };
        let report = tune(&rel, &sigma(), &cfg);
        assert_eq!(report.baseline.f1, 0.0, "no exact-name donor at width 0");
        assert!(
            report.best_f1 > report.baseline.f1,
            "tuning must improve held-out F1: {report:?}"
        );
        // Every masked cell whose twin survived masking is recovered
        // once the width reaches the twin distance (seed 42 masks both
        // rows of one pair, so recall tops out below 1.0 here).
        assert!(report.best_f1 >= 0.7, "twins are near-perfect donors: {report:?}");
        assert!(!report.partial);
        // The winning set widened Name's LHS threshold, not City's RHS.
        let tuned = report.tuned.get(0);
        assert!(tuned.lhs()[0].threshold >= 2.0, "{:?}", report.tuned);
        assert_eq!(tuned.rhs_threshold(), 0.0);
        // Every emitted line satisfies the closed trace schema.
        let trace = cfg.tracer.to_jsonl();
        validate_trace(&trace).unwrap_or_else(|(l, e)| panic!("line {l}: {e}\n{trace}"));
        assert!(trace.contains("\"kind\":\"tune_start\""), "{trace}");
        assert!(trace.contains("\"kind\":\"tune_iter\""), "{trace}");
        assert!(trace.contains("\"kind\":\"tune_end\""), "{trace}");
    }

    #[test]
    fn fixed_seed_is_byte_identical_across_parallelism() {
        let rel = twin_rel();
        let schema = rel.schema().clone();
        let text_for = |par: usize| {
            let cfg = TuneConfig { seed: 7, parallelism: par, ..TuneConfig::default() };
            tune(&rel, &sigma(), &cfg).tuned.to_text(&schema)
        };
        let serial = text_for(1);
        assert_eq!(serial, text_for(2));
        assert_eq!(serial, text_for(0));
    }

    #[test]
    fn cancelled_runs_return_a_partial_report() {
        let rel = twin_rel();
        let budget = Budget::unlimited();
        budget.cancel();
        let cfg = TuneConfig { seed: 1, budget, ..TuneConfig::default() };
        let report = tune(&rel, &sigma(), &cfg);
        assert_eq!(report.stop, StopReason::Cancelled);
        assert!(report.partial);
        assert!(report.iterations.is_empty());
        // Nothing ran, so the "best" thresholds are the discovery set.
        assert_eq!(report.tuned.to_text(rel.schema()), sigma().to_text(rel.schema()));
    }

    /// Isolated name pairs one edit apart whose cities disagree: a
    /// widened cluster always offers a *consistent but wrong* donor, so
    /// the tuner must back the width off and freeze the attribute.
    fn bleed_rel() -> Relation {
        let mut text = String::from("Name:text,City:text\n");
        for i in 0..8u8 {
            let c = (b'a' + i) as char;
            let base: String = std::iter::repeat(c).take(4).collect();
            text.push_str(&format!("{base},alpha-{c}\n{}z,omega-{c}\n", &base[..3]));
        }
        csv::read_str(&text).unwrap()
    }

    #[test]
    fn precision_bleed_tightens_and_freezes() {
        let rel = bleed_rel();
        let cfg = TuneConfig { seed: 3, max_iters: 6, ..TuneConfig::default() };
        let report = tune(&rel, &sigma(), &cfg);
        let tightened: Vec<&ThresholdMove> = report
            .iterations
            .iter()
            .flat_map(|it| it.moves.iter())
            .filter(|m| m.new < m.old)
            .collect();
        assert!(
            !tightened.is_empty(),
            "conflicting donors must trigger a tighten: {report:?}"
        );
    }

    #[test]
    fn stall_on_already_scored_widths_stops_as_revisited() {
        // Width 0 → widen to 1 (no exact-name donor) → the wrong donor
        // makes City bleed, so it steps back to 0 and freezes → the
        // frozen loop stalls on the widths iteration 0 scored.
        let cfg = TuneConfig { seed: 3, max_iters: 6, ..TuneConfig::default() };
        let report = tune(&bleed_rel(), &sigma(), &cfg);
        let moves: Vec<(f64, f64)> =
            report.iterations.iter().flat_map(|it| &it.moves).map(|m| (m.old, m.new)).collect();
        assert_eq!(moves, [(0.0, 1.0), (1.0, 0.0)], "{report:?}");
        assert_eq!(report.iterations.len(), 3);
        assert_eq!(report.stop, StopReason::Revisited);
        // A stall at the width cap, on widths never scored before, is
        // still convergence.
        let capped = TuneConfig { seed: 42, max_width: 1.0, ..TuneConfig::default() };
        assert_eq!(tune(&twin_rel(), &sigma(), &capped).stop, StopReason::Converged);
    }

    #[test]
    fn widened_leaves_unrelated_attributes_alone() {
        let rfds = RfdSet::from_vec(vec![
            Rfd::new(vec![Constraint::new(0, 1.0)], Constraint::new(1, 0.5)),
            Rfd::new(vec![Constraint::new(1, 2.0)], Constraint::new(2, 0.0)),
        ]);
        let widths: BTreeMap<AttrId, f64> = [(1usize, 3.0)].into_iter().collect();
        let out = widened(&rfds, &widths);
        // RFD targeting attr 1 widened on the LHS only.
        assert_eq!(out.get(0).lhs()[0].threshold, 4.0);
        assert_eq!(out.get(0).rhs_threshold(), 0.5);
        // RFD targeting attr 2 untouched.
        assert_eq!(out.get(1).lhs()[0].threshold, 2.0);
    }
}
