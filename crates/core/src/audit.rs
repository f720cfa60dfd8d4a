//! Post-hoc semantic-consistency audit (Definition 4.3).
//!
//! RENUVER verifies each imputation as it happens; this module answers the
//! *global* question after the fact: does `r' ⊨ Σ` hold, and if not, which
//! dependencies are violated, by which pairs, and do imputed cells
//! participate? Downstream users run the audit after any repair — ours or
//! a third party's — to quantify how much integrity an imputation bought
//! or cost.

use renuver_data::{Cell, Relation};
use renuver_distance::{DistanceOracle, DEFAULT_DICT_CAP};
use renuver_rfd::check::{pair_satisfies_lhs_with, pair_satisfies_rhs_with};
use renuver_rfd::{Rfd, RfdSet};

/// One violated dependency with its witnessing pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the violated RFD in the audited set.
    pub rfd: usize,
    /// Violating pairs `(i, j)`, `i < j`, capped at
    /// [`AuditConfig::max_pairs_per_rfd`].
    pub pairs: Vec<(usize, usize)>,
    /// Total violating pairs (may exceed `pairs.len()` when capped).
    pub total_pairs: usize,
}

/// Audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Cap on the witnessing pairs recorded per violated dependency (the
    /// count in [`Violation::total_pairs`] is always exact).
    pub max_pairs_per_rfd: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { max_pairs_per_rfd: 16 }
    }
}

/// The audit result: violations plus summary counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Violated dependencies, in `Σ` order.
    pub violations: Vec<Violation>,
    /// Dependencies checked.
    pub checked: usize,
    /// Dependencies satisfied.
    pub satisfied: usize,
    /// Total violating pairs across all dependencies.
    pub violating_pairs: usize,
    /// Violating pairs where at least one side is one of the audited
    /// cells (e.g. freshly imputed cells) — the share attributable to the
    /// repair when those cells are passed in.
    pub pairs_touching_audited_cells: usize,
}

impl AuditReport {
    /// `true` iff the instance satisfies every audited dependency —
    /// Definition 4.3's `r' ⊨ Σ`.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Audits `rel` against `sigma`. `audited_cells` (typically the imputed
/// cells of a repair) attributes violations: a violating pair counts as
/// "touching" when either tuple owns one of those cells on an attribute
/// the dependency mentions.
pub fn audit(
    rel: &Relation,
    sigma: &RfdSet,
    audited_cells: &[Cell],
    cfg: &AuditConfig,
) -> AuditReport {
    let oracle = DistanceOracle::build(rel, DEFAULT_DICT_CAP);
    let mut report = AuditReport { checked: sigma.len(), ..AuditReport::default() };
    for (idx, rfd) in sigma.iter().enumerate() {
        let mut pairs = Vec::new();
        let mut total = 0usize;
        let n = rel.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if pair_satisfies_lhs_with(&oracle, rel, rfd, i, j)
                    && !pair_satisfies_rhs_with(&oracle, rel, rfd, i, j)
                {
                    total += 1;
                    if pairs.len() < cfg.max_pairs_per_rfd {
                        pairs.push((i, j));
                    }
                    if touches(rfd, i, j, audited_cells) {
                        report.pairs_touching_audited_cells += 1;
                    }
                }
            }
        }
        if total > 0 {
            report.violating_pairs += total;
            report.violations.push(Violation { rfd: idx, pairs, total_pairs: total });
        } else {
            report.satisfied += 1;
        }
    }
    report
}

/// Does the pair `(i, j)` involve an audited cell on an attribute `rfd`
/// mentions?
fn touches(rfd: &Rfd, i: usize, j: usize, cells: &[Cell]) -> bool {
    cells.iter().any(|c| {
        (c.row == i || c.row == j)
            && (rfd.lhs_contains(c.col) || rfd.rhs_attr() == c.col)
    })
}

/// Renders the report with dependency notation, e.g. for CLI output.
pub fn render_report(report: &AuditReport, sigma: &RfdSet, rel: &Relation) -> String {
    let mut out = format!(
        "audit: {}/{} dependencies satisfied, {} violating pairs\n",
        report.satisfied, report.checked, report.violating_pairs
    );
    if !report.violations.is_empty() {
        out.push_str(&format!(
            "       {} violating pairs touch the audited cells\n",
            report.pairs_touching_audited_cells
        ));
    }
    for v in &report.violations {
        out.push_str(&format!(
            "  VIOLATED {} ({} pairs, e.g. {:?})\n",
            sigma.get(v.rfd).display(rel.schema()),
            v.total_pairs,
            &v.pairs[..v.pairs.len().min(3)],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Renuver;
    use crate::config::RenuverConfig;
    use renuver_data::{AttrType, Schema, Value};
    use renuver_rfd::Constraint;

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        Relation::new(schema, rows).unwrap()
    }

    fn a_to_b() -> RfdSet {
        RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )])
    }

    #[test]
    fn clean_instance_is_consistent() {
        let r = rel(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ]);
        let report = audit(&r, &a_to_b(), &[], &AuditConfig::default());
        assert!(report.is_consistent());
        assert_eq!(report.satisfied, 1);
        assert_eq!(report.violating_pairs, 0);
    }

    #[test]
    fn violations_reported_with_pairs() {
        let r = rel(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(99)],
            vec![Value::Int(1), Value::Int(10)],
        ]);
        let report = audit(&r, &a_to_b(), &[], &AuditConfig::default());
        assert!(!report.is_consistent());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].total_pairs, 2); // (0,1) and (1,2)
        assert_eq!(report.violations[0].pairs, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn pair_cap_respected_but_total_exact() {
        let mut rows = vec![vec![Value::Int(1), Value::Int(10)]; 6];
        rows.push(vec![Value::Int(1), Value::Int(99)]);
        let r = rel(rows);
        let report = audit(&r, &a_to_b(), &[], &AuditConfig { max_pairs_per_rfd: 2 });
        assert_eq!(report.violations[0].pairs.len(), 2);
        assert_eq!(report.violations[0].total_pairs, 6);
    }

    #[test]
    fn audited_cells_attribution() {
        let r = rel(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(99)],
        ]);
        // The pair violates; attributing cell (1, B) marks it as touching.
        let touched = audit(&r, &a_to_b(), &[Cell::new(1, 1)], &AuditConfig::default());
        assert_eq!(touched.pairs_touching_audited_cells, 1);
        // A cell on an attribute the RFD never mentions does not count...
        // (no such attribute exists in this 2-column schema; use a row the
        // violation does not involve instead).
        let untouched = audit(&r, &a_to_b(), &[], &AuditConfig::default());
        assert_eq!(untouched.pairs_touching_audited_cells, 0);
    }

    #[test]
    fn attribution_requires_a_mentioned_attribute() {
        // A cell on a row the violating pair involves, but on an attribute
        // the dependency never mentions, must not attribute the pair.
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("B", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        let r = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Int(7)],
                vec![Value::Int(1), Value::Int(99), Value::Int(8)],
            ],
        )
        .unwrap();
        let sigma = RfdSet::from_vec(vec![Rfd::new(
            vec![Constraint::new(0, 0.0)],
            Constraint::new(1, 0.0),
        )]);
        let off_attr = audit(&r, &sigma, &[Cell::new(1, 2)], &AuditConfig::default());
        assert_eq!(off_attr.violating_pairs, 1);
        assert_eq!(off_attr.pairs_touching_audited_cells, 0);
        // The same row with the RHS attribute does attribute it.
        let on_attr = audit(&r, &sigma, &[Cell::new(1, 1)], &AuditConfig::default());
        assert_eq!(on_attr.pairs_touching_audited_cells, 1);
        // As does an LHS attribute.
        let on_lhs = audit(&r, &sigma, &[Cell::new(0, 0)], &AuditConfig::default());
        assert_eq!(on_lhs.pairs_touching_audited_cells, 1);
    }

    #[test]
    fn renuver_output_passes_its_own_audit_under_full_scope() {
        // With Full verification, every imputation preserves r' ⊨ Σ for
        // pairs involving imputed rows; starting from a consistent
        // instance the whole output must audit clean.
        let r = rel(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(2), Value::Null],
        ]);
        let sigma = a_to_b();
        let result = Renuver::new(RenuverConfig {
            verify_scope: crate::config::VerifyScope::Full,
            ..RenuverConfig::default()
        })
        .impute(&r, &sigma);
        assert_eq!(result.stats.imputed, 2);
        let cells: Vec<Cell> = result.imputed.iter().map(|ic| ic.cell).collect();
        let report = audit(&result.relation, &sigma, &cells, &AuditConfig::default());
        assert!(report.is_consistent(), "{report:?}");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The report's verdict agrees with an independent brute-force
            /// sweep over the same oracle primitive: a clean report means
            /// no violating pair exists, and the pair counts stay exact no
            /// matter how tight the recording cap is.
            #[test]
            fn clean_report_admits_no_violating_pair(
                rows in proptest::collection::vec((0i64..4, 0i64..4), 2..12),
                cap in 1usize..4,
            ) {
                let r = rel(rows.iter().map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]).collect());
                let sigma = a_to_b();
                let report = audit(&r, &sigma, &[], &AuditConfig { max_pairs_per_rfd: cap });

                let oracle = DistanceOracle::build(&r, 3000);
                let rfd = sigma.get(0);
                let mut violating = 0usize;
                for i in 0..r.len() {
                    for j in (i + 1)..r.len() {
                        if pair_satisfies_lhs_with(&oracle, &r, rfd, i, j)
                            && !pair_satisfies_rhs_with(&oracle, &r, rfd, i, j)
                        {
                            violating += 1;
                        }
                    }
                }
                prop_assert_eq!(report.is_consistent(), violating == 0);
                prop_assert_eq!(report.violating_pairs, violating);
                if let Some(v) = report.violations.first() {
                    prop_assert_eq!(v.total_pairs, violating);
                    prop_assert!(v.pairs.len() <= cap.min(violating));
                }
            }
        }
    }

    #[test]
    fn render_is_readable() {
        let r = rel(vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(99)],
        ]);
        let sigma = a_to_b();
        let report = audit(&r, &sigma, &[], &AuditConfig::default());
        let text = render_report(&report, &sigma, &r);
        assert!(text.contains("0/1 dependencies satisfied"), "{text}");
        assert!(text.contains("VIOLATED A(≤0) → B(≤0)"), "{text}");
    }
}
