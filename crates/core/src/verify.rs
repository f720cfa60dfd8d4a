//! Post-imputation consistency verification (Algorithm 4, IS_FAULTLESS).

use renuver_data::{AttrId, Relation};
use renuver_rfd::check::{pair_satisfies_lhs, pair_satisfies_rhs};
use renuver_rfd::Rfd;

use crate::config::VerifyScope;

/// IS_FAULTLESS: `true` iff the relation, with tuple `row` freshly imputed
/// on `attr`, still satisfies every RFD in `sigma` (restricted to the
/// dependencies the imputation can affect).
///
/// Only pairs involving `row` can newly violate a dependency — every other
/// pair is unchanged — so the check walks `(row, j)` pairs for each
/// relevant RFD:
///
/// - RFDs with `attr` on the **LHS** (Algorithm 4 line 1): the imputed
///   value may make `row` LHS-similar to tuples it previously was not,
///   exposing an RHS violation.
/// - With [`VerifyScope::Full`] (the Definition 4.3 semantics, see
///   `config`), RFDs with `attr` on the **RHS** as well: the imputed value
///   may disagree with an LHS-similar tuple, as in Example 4.4.
///
/// A pair whose RHS values are not both present cannot witness a violation
/// (Definition 3.2 compares actual values).
pub fn is_faultless<'a>(
    rel: &Relation,
    row: usize,
    attr: AttrId,
    sigma: impl Iterator<Item = &'a Rfd>,
    scope: VerifyScope,
) -> bool {
    for rfd in sigma {
        let relevant = match scope {
            VerifyScope::LhsOnly => rfd.lhs_contains(attr),
            VerifyScope::Full => rfd.lhs_contains(attr) || rfd.rhs_attr() == attr,
        };
        if !relevant {
            continue;
        }
        for j in 0..rel.len() {
            if j == row {
                continue;
            }
            let (i, j2) = (row.min(j), row.max(j));
            if pair_satisfies_lhs(rel, rfd, i, j2) && !pair_satisfies_rhs(rel, rfd, i, j2) {
                return false;
            }
        }
    }
    true
}

use renuver_distance::{intersect_sorted, DistanceOracle, SimilarityIndex};

/// The per-RFD witness predicate for `attr`-on-LHS entries: `j` witnesses
/// a rejection iff it has a value on `attr`, satisfies the RFD's other LHS
/// constraints against `row`, and already violates the RHS against `row`.
fn close_witness(
    oracle: &DistanceOracle,
    rel: &Relation,
    row: usize,
    attr: AttrId,
    rfd: &Rfd,
    j: usize,
) -> bool {
    if j == row {
        return false;
    }
    let tj = rel.tuple(j);
    if tj[attr].is_null() {
        return false; // pair can never satisfy the attr constraint
    }
    for c in rfd.lhs() {
        if c.attr == attr {
            continue;
        }
        if oracle.distance_bounded(rel, c.attr, row, j, c.threshold).is_none() {
            return false;
        }
    }
    // Violates iff RHS distance exceeds the threshold (missing j RHS →
    // not evaluable → no violation).
    let rhs = rfd.rhs();
    !tj[rhs.attr].is_null()
        && oracle.distance_bounded(rel, rhs.attr, row, j, rhs.threshold).is_none()
}

/// The per-RFD witness predicate for `attr`-as-RHS entries (`Full` scope):
/// `j` witnesses a rejection iff it has a value on `attr` and satisfies
/// the RFD's whole LHS against `row`.
fn far_witness(
    oracle: &DistanceOracle,
    rel: &Relation,
    row: usize,
    attr: AttrId,
    rfd: &Rfd,
    j: usize,
) -> bool {
    if j == row {
        return false;
    }
    if rel.tuple(j)[attr].is_null() {
        return false; // RHS pair not evaluable
    }
    rfd.lhs().iter().all(|c| oracle.distance_bounded(rel, c.attr, row, j, c.threshold).is_some())
}

/// A precompiled consistency check for one cell `(row, attr)`.
///
/// [`is_faultless`] rescans every pair for every candidate, but only the
/// candidate value itself changes between candidates of one cell — the
/// other LHS distances, the RHS distances of LHS-relevant RFDs, and the
/// LHS satisfaction of RHS-relevant RFDs are all fixed. `VerifyPlan`
/// hoists that invariant work out of the candidate loop:
///
/// - For each RFD with `attr` on its **LHS**: precompute the rows that
///   satisfy the remaining LHS constraints *and* already violate the RHS —
///   a candidate is rejected iff it is within the `attr` threshold of such
///   a row.
/// - For each RFD with `attr` as its **RHS** (`Full` scope only):
///   precompute the rows that satisfy the whole LHS — a candidate is
///   rejected iff it is beyond the RHS threshold from such a row's value.
///
/// The witnesses come from the whole instance: every missing cell gets
/// this one check, whatever the budget has left.
///
/// Equivalent to [`is_faultless`] (asserted by tests and the
/// `verify_plan_matches_is_faultless` property test in `tests/`), but one
/// relation scan per cell instead of one per candidate.
pub struct VerifyPlan {
    /// Reject when the candidate value is *within* the threshold of any
    /// listed row's value on the imputed attribute.
    reject_if_close: Vec<WitnessSet>,
    /// Reject when the candidate value is *beyond* the threshold from any
    /// listed row's value.
    reject_if_far: Vec<WitnessSet>,
}

/// One compiled entry of a [`VerifyPlan`]: a threshold on the imputed
/// attribute and the witness rows it is measured against, ascending.
struct WitnessSet {
    thr: f64,
    rows: Vec<usize>,
}

/// Row collection for plan building: the rows satisfying `pred`, in
/// ascending order, from the index-seeded `base` when there is one and
/// from the full `0..n` scan otherwise. Callers exclude the imputed row
/// inside `pred`.
fn collect_rows(n: usize, base: Option<&[usize]>, pred: impl Fn(usize) -> bool) -> Vec<usize> {
    match base {
        Some(rows) => rows.iter().copied().filter(|&j| pred(j)).collect(),
        None => (0..n).filter(|&j| pred(j)).collect(),
    }
}

impl VerifyPlan {
    /// Builds the plan for imputing `(row, attr)`; `rel[row][attr]` must
    /// currently be missing.
    pub fn build<'a>(
        oracle: &DistanceOracle,
        rel: &Relation,
        row: usize,
        attr: AttrId,
        sigma: impl Iterator<Item = &'a Rfd>,
        scope: VerifyScope,
    ) -> VerifyPlan {
        Self::build_with(oracle, None, rel, row, attr, sigma, scope)
    }

    /// [`VerifyPlan::build`] with an optional [`SimilarityIndex`]: each
    /// RFD's witness scan is seeded with the index-retrieved superset of
    /// rows satisfying its indexed candidate-independent LHS constraints,
    /// then filtered by the same exact predicate the scan applies to all
    /// rows — the resulting plan is identical, it was just built from
    /// fewer exact checks. An empty witness list can never reject, so it
    /// is dropped.
    pub fn build_with<'a>(
        oracle: &DistanceOracle,
        index: Option<&SimilarityIndex>,
        rel: &Relation,
        row: usize,
        attr: AttrId,
        sigma: impl Iterator<Item = &'a Rfd>,
        scope: VerifyScope,
    ) -> VerifyPlan {
        debug_assert!(rel.is_missing(row, attr));
        // Superset of the rows within threshold of `row` on every *indexed*
        // constraint in `lhs` (minus the `skip` attribute); `None` when no
        // constraint is indexed and the full scan is needed.
        let index_base = |lhs: &[renuver_rfd::Constraint], skip: Option<AttrId>| {
            let mut base: Option<Vec<usize>> = None;
            for c in lhs {
                if Some(c.attr) == skip {
                    continue;
                }
                // Unindexed constraints stay with the exact predicate; any
                // indexed one already prunes the witness scan.
                let Some(within) =
                    index.and_then(|ix| ix.rows_within(rel, c.attr, row, c.threshold))
                else {
                    continue;
                };
                base = Some(match base {
                    None => within,
                    Some(acc) => intersect_sorted(&acc, &within),
                });
            }
            base
        };
        let mut reject_if_close = Vec::new();
        let mut reject_if_far = Vec::new();
        let t = rel.tuple(row);
        for rfd in sigma {
            if rfd.lhs_contains(attr) {
                // Candidate-independent parts: the other LHS constraints
                // and the (fixed) RHS comparison.
                if t[rfd.rhs().attr].is_null() {
                    continue; // RHS not evaluable → cannot violate
                }
                let Some(thr) =
                    rfd.lhs().iter().find(|c| c.attr == attr).map(|c| c.threshold)
                else {
                    continue; // unreachable: lhs_contains checked above
                };
                let base = index_base(rfd.lhs(), Some(attr));
                let rows = collect_rows(rel.len(), base.as_deref(), |j| {
                    close_witness(oracle, rel, row, attr, rfd, j)
                });
                if !rows.is_empty() {
                    reject_if_close.push(WitnessSet { thr, rows });
                }
            } else if scope == VerifyScope::Full && rfd.rhs_attr() == attr {
                // LHS is fully candidate-independent.
                let base = index_base(rfd.lhs(), None);
                let rows = collect_rows(rel.len(), base.as_deref(), |j| {
                    far_witness(oracle, rel, row, attr, rfd, j)
                });
                if !rows.is_empty() {
                    reject_if_far.push(WitnessSet { thr: rfd.rhs_threshold(), rows });
                }
            }
        }
        VerifyPlan { reject_if_close, reject_if_far }
    }

    /// `true` iff imputing the cell with the value of `donor_row` on the
    /// imputed attribute keeps the instance consistent. Candidates are
    /// always values of existing tuples (Algorithm 3), so the comparison
    /// is one oracle lookup per witness row.
    pub fn admits(
        &self,
        oracle: &DistanceOracle,
        rel: &Relation,
        attr: AttrId,
        donor_row: usize,
    ) -> bool {
        // `close` entries reject on a witness *within* `thr`, far ones on a
        // witness *beyond* it: both are "some witness whose within-ness
        // equals `close`".
        let rejects = |set: &WitnessSet, close: bool| {
            set.rows.iter().any(|&j| {
                oracle.distance_bounded(rel, attr, donor_row, j, set.thr).is_some() == close
            })
        };
        !self.reject_if_close.iter().any(|set| rejects(set, true))
            && !self.reject_if_far.iter().any(|set| rejects(set, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::{AttrType, Relation, Schema, Value};
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

    #[test]
    fn example_5_9_rejects_class_violation() {
        // Impute t7[Phone] with t3's phone; φ: Phone(≤1) → Class(≤0) is then
        // violated by (t3, t7): same phone, classes 6 vs 5.
        let mut rel = restaurant_sample();
        rel.set_value(6, 2, rel.value(2, 2).clone());
        let phi = Rfd::new(vec![Constraint::new(2, 1.0)], Constraint::new(4, 0.0));
        assert!(!is_faultless(&rel, 6, 2, [&phi].into_iter(), VerifyScope::LhsOnly));
        assert!(!is_faultless(&rel, 6, 2, [&phi].into_iter(), VerifyScope::Full));
    }

    #[test]
    fn accepts_consistent_imputation() {
        // Impute t7[Phone] with t2's phone instead (the paper's accepted
        // choice): Phone(≤1) → Class(≤0) stays satisfied — t2 and t7 share
        // class 5, and no other tuple is within phone distance 1.
        let mut rel = restaurant_sample();
        rel.set_value(6, 2, rel.value(1, 2).clone());
        let phi = Rfd::new(vec![Constraint::new(2, 1.0)], Constraint::new(4, 0.0));
        assert!(is_faultless(&rel, 6, 2, [&phi].into_iter(), VerifyScope::Full));
    }

    #[test]
    fn example_4_4_rhs_scope_difference() {
        // Impute t7[Phone] with t1's phone. φ0: Phone(≤0) → City(≤10) has
        // the imputed attribute on its LHS and catches the violation in
        // both scopes; Name(≤20) → Phone(≤2) has it on the RHS and is only
        // checked under Full.
        let mut rel = restaurant_sample();
        rel.set_value(6, 2, rel.value(0, 2).clone());
        let phi0 = Rfd::new(vec![Constraint::new(2, 0.0)], Constraint::new(1, 10.0));
        assert!(!is_faultless(&rel, 6, 2, [&phi0].into_iter(), VerifyScope::Full));
        assert!(!is_faultless(&rel, 6, 2, [&phi0].into_iter(), VerifyScope::LhsOnly));

        let name_phone = Rfd::new(vec![Constraint::new(0, 20.0)], Constraint::new(2, 2.0));
        // Every tuple is within Name distance 20 of t7, and t1's phone is
        // far from the others → RHS violation, visible only in Full scope.
        assert!(!is_faultless(
            &rel, 6, 2,
            [&name_phone].into_iter(),
            VerifyScope::Full
        ));
        assert!(is_faultless(
            &rel, 6, 2,
            [&name_phone].into_iter(),
            VerifyScope::LhsOnly
        ));
    }

    #[test]
    fn irrelevant_rfds_are_skipped() {
        // An RFD not mentioning the imputed attribute is never checked, even
        // if (hypothetically) violated elsewhere.
        let rel = restaurant_sample();
        // City(≤0) → Class(≤0): t3/t7 share "Los Angeles" with classes 6, 5
        // → violated in the data, but irrelevant to imputing Phone.
        let phi = Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(4, 0.0));
        assert!(is_faultless(&rel, 6, 2, [&phi].into_iter(), VerifyScope::Full));
    }

    #[test]
    fn indexed_plan_admits_exactly_like_scan_plan() {
        let rel = restaurant_sample();
        let oracle = DistanceOracle::build(&rel, 3000);
        let index = SimilarityIndex::build(&rel, &oracle);
        let sigma = [
            Rfd::new(vec![Constraint::new(2, 1.0)], Constraint::new(4, 0.0)),
            Rfd::new(
                vec![Constraint::new(0, 8.0), Constraint::new(2, 0.0)],
                Constraint::new(1, 9.0),
            ),
            Rfd::new(vec![Constraint::new(0, 20.0)], Constraint::new(2, 2.0)),
        ];
        for scope in [VerifyScope::LhsOnly, VerifyScope::Full] {
            for (row, attr) in [(6, 2), (3, 2), (5, 1), (4, 3)] {
                assert!(rel.is_missing(row, attr));
                let scan =
                    VerifyPlan::build(&oracle, &rel, row, attr, sigma.iter(), scope);
                let indexed = VerifyPlan::build_with(
                    &oracle,
                    Some(&index),
                    &rel,
                    row,
                    attr,
                    sigma.iter(),
                    scope,
                );
                for donor in 0..rel.len() {
                    if rel.is_missing(donor, attr) {
                        continue;
                    }
                    assert_eq!(
                        scan.admits(&oracle, &rel, attr, donor),
                        indexed.admits(&oracle, &rel, attr, donor),
                        "scope {scope:?} cell ({row},{attr}) donor {donor}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_and_direct_oracles_admit_the_same_donors() {
        // The same plan built against a matrix-backed oracle (dictionary
        // lookups) and a direct oracle (distance kernels) must admit
        // identically for every donor: the matrix caches distances, it
        // does not approximate them.
        let rel = restaurant_sample();
        let matrix = DistanceOracle::build(&rel, 3000);
        let direct = DistanceOracle::direct(&rel);
        let sigma = [
            Rfd::new(vec![Constraint::new(2, 1.0)], Constraint::new(4, 0.0)),
            Rfd::new(
                vec![Constraint::new(0, 8.0), Constraint::new(2, 0.0)],
                Constraint::new(1, 9.0),
            ),
            Rfd::new(vec![Constraint::new(0, 20.0)], Constraint::new(2, 2.0)),
            Rfd::new(vec![Constraint::new(1, 2.0)], Constraint::new(2, 1.0)),
        ];
        for scope in [VerifyScope::LhsOnly, VerifyScope::Full] {
            for (row, attr) in [(6, 2), (3, 2), (5, 1), (4, 3)] {
                let cached = VerifyPlan::build(&matrix, &rel, row, attr, sigma.iter(), scope);
                let computed = VerifyPlan::build(&direct, &rel, row, attr, sigma.iter(), scope);
                for donor in 0..rel.len() {
                    if rel.is_missing(donor, attr) {
                        continue;
                    }
                    assert_eq!(
                        cached.admits(&matrix, &rel, attr, donor),
                        computed.admits(&direct, &rel, attr, donor),
                        "scope {scope:?} cell ({row},{attr}) donor {donor}"
                    );
                }
            }
        }
    }

    #[test]
    fn missing_rhs_pairs_do_not_violate() {
        // t5/t6 same phone; t6's City missing → Phone(≤0) → City(≤0) cannot
        // be violated by that pair.
        let rel = restaurant_sample();
        let phi = Rfd::new(vec![Constraint::new(2, 0.0)], Constraint::new(1, 0.0));
        assert!(is_faultless(&rel, 4, 2, [&phi].into_iter(), VerifyScope::Full));
    }
}
