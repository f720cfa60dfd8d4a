//! Tune-run records: per-iteration explain data, the final report, and
//! its JSON rendering (the `/v1/tune` result payload).

use std::time::Duration;

use renuver_data::{AttrId, Schema};
use renuver_eval::{MetricsDiff, Scores, WorkMetrics};
use renuver_obs::json;
use renuver_rfd::RfdSet;

/// Why the tune loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The held-out F1 reached the configured target.
    Target,
    /// No attribute had a legal move left.
    Converged,
    /// No attribute had a legal move left, and an earlier iteration had
    /// already scored these exact widths: the loop came back to
    /// thresholds it had moved away from.
    Revisited,
    /// The run's budget tripped.
    Budget,
    /// The run was cancelled (`Budget::cancel`).
    Cancelled,
    /// The iteration cap was reached.
    MaxIters,
}

impl StopReason {
    /// The schema label (`obs::schema::TUNE_STOPS`).
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Target => "target",
            StopReason::Converged => "converged",
            StopReason::Revisited => "revisited",
            StopReason::Budget => "budget",
            StopReason::Cancelled => "cancelled",
            StopReason::MaxIters => "max_iters",
        }
    }
}

/// One recorded threshold move: the width offset applied to the LHS
/// thresholds of every RFD targeting `attr`, before → after.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdMove {
    /// The RHS attribute whose imputation the move serves.
    pub attr: AttrId,
    /// Width offset before the move.
    pub old: f64,
    /// Width offset after the move.
    pub new: f64,
}

/// One tune iteration: the score it measured, the work it did, the
/// deltas vs the previous iteration, and the moves chosen from them.
#[derive(Debug, Clone)]
pub struct TuneIteration {
    /// Iteration index, 0-based (iteration 0 runs the unmodified
    /// discovery thresholds — the baseline).
    pub iter: usize,
    /// Held-out scores under this iteration's thresholds.
    pub scores: Scores,
    /// Work counters of this iteration's imputation run.
    pub work: WorkMetrics,
    /// Work deltas vs the previous iteration (all-zero for iteration 0).
    pub diff: MetricsDiff,
    /// Threshold moves chosen *after* scoring this iteration (empty when
    /// the loop stopped here).
    pub moves: Vec<ThresholdMove>,
    /// Wall time of the iteration (reporting only; never a decision
    /// input).
    pub elapsed: Duration,
}

/// The full outcome of a tune run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Seed that produced the mask (and therefore the whole run).
    pub seed: u64,
    /// Held-out cells masked.
    pub masked: usize,
    /// Scores of the unmodified discovery thresholds (iteration 0).
    pub baseline: Scores,
    /// Best held-out F1 reached.
    pub best_f1: f64,
    /// Iteration that reached it (earliest on ties).
    pub best_iter: usize,
    /// Every executed iteration, in order.
    pub iterations: Vec<TuneIteration>,
    /// The RFD set rebuilt with the best iteration's width offsets —
    /// what an install step should serve.
    pub tuned: RfdSet,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// `true` when the run stopped early on a budget trip or
    /// cancellation — the report covers only the iterations that ran.
    pub partial: bool,
}

impl TuneReport {
    /// Renders the report as the JSON object `/v1/tune/<id>` returns.
    /// Purely derived from the report (no clocks), except the per-
    /// iteration `elapsed_us` timing field.
    pub fn to_json(&self, schema: &Schema) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"seed\":{},\"masked\":{}", self.seed, self.masked));
        out.push_str(",\"stop\":");
        json::write_str(&mut out, self.stop.label());
        out.push_str(&format!(",\"partial\":{}", self.partial));
        out.push_str(",\"baseline\":");
        write_scores(&mut out, &self.baseline);
        out.push_str(&format!(",\"best\":{{\"iter\":{},\"f1\":", self.best_iter));
        json::write_f64(&mut out, self.best_f1);
        out.push_str("},\"iterations\":[");
        for (i, it) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"iter\":{},\"scores\":", it.iter));
            write_scores(&mut out, &it.scores);
            out.push_str(&format!(
                ",\"elapsed_us\":{},\"candidates\":{},\"verifications\":{},\"oracle_hits\":{}",
                it.elapsed.as_micros(),
                it.work.candidates_scored,
                it.work.verifications,
                it.work.oracle_hits,
            ));
            out.push_str(&format!(
                ",\"d_candidates\":{},\"d_verifications\":{},\"d_oracle_hits\":{}",
                it.diff.d_candidates_scored, it.diff.d_verifications, it.diff.d_oracle_hits,
            ));
            out.push_str(",\"moves\":[");
            for (j, mv) in it.moves.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"attr\":");
                json::write_str(&mut out, schema.name(mv.attr));
                out.push_str(",\"old\":");
                json::write_f64(&mut out, mv.old);
                out.push_str(",\"new\":");
                json::write_f64(&mut out, mv.new);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("],\"thresholds\":");
        json::write_str(&mut out, &self.tuned.to_text(schema));
        out.push('}');
        out
    }
}

fn write_scores(out: &mut String, s: &Scores) {
    out.push_str("{\"precision\":");
    json::write_f64(out, s.precision);
    out.push_str(",\"recall\":");
    json::write_f64(out, s.recall);
    out.push_str(",\"f1\":");
    json::write_f64(out, s.f1);
    out.push_str(&format!(
        ",\"missing\":{},\"imputed\":{},\"correct\":{}}}",
        s.missing, s.imputed, s.correct
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::{AttrType, Schema};
    use renuver_obs::schema::TUNE_STOPS;
    use renuver_rfd::{Constraint, Rfd};

    #[test]
    fn stop_labels_match_the_trace_schema() {
        let all = [
            StopReason::Target,
            StopReason::Converged,
            StopReason::Revisited,
            StopReason::Budget,
            StopReason::Cancelled,
            StopReason::MaxIters,
        ];
        let labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels, TUNE_STOPS);
    }

    #[test]
    fn report_json_is_valid_and_carries_the_thresholds() {
        let schema = Schema::new([("Name", AttrType::Text), ("City", AttrType::Text)]).unwrap();
        let tuned = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 2.0)],
            Constraint::new(1, 0.0),
        )]);
        let report = TuneReport {
            seed: 42,
            masked: 6,
            baseline: Scores::from_counts(6, 2, 1),
            best_f1: 0.9,
            best_iter: 2,
            iterations: vec![TuneIteration {
                iter: 0,
                scores: Scores::from_counts(6, 2, 1),
                work: WorkMetrics::default(),
                diff: MetricsDiff::default(),
                moves: vec![ThresholdMove { attr: 0, old: 0.0, new: 1.0 }],
                elapsed: Duration::from_micros(1200),
            }],
            tuned,
            stop: StopReason::Target,
            partial: false,
        };
        let text = report.to_json(&schema);
        let v = json::parse(&text).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("seed").unwrap().as_u64(), Some(42));
        assert_eq!(obj.get("stop").unwrap().as_str(), Some("target"));
        let thresholds = obj.get("thresholds").unwrap().as_str().unwrap();
        assert!(thresholds.contains("Name"), "{thresholds}");
        let iters = obj.get("iterations").unwrap().as_array().unwrap();
        let mv = iters[0].as_object().unwrap().get("moves").unwrap().as_array().unwrap();
        assert_eq!(mv[0].as_object().unwrap().get("attr").unwrap().as_str(), Some("Name"));
    }
}
