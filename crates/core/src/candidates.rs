//! Generation of plausible candidate tuples (Algorithm 3).

use renuver_data::{AttrId, Relation};
use renuver_distance::{intersect_sorted, union_sorted, DistanceOracle, SimilarityIndex};
use renuver_rfd::Rfd;

/// A plausible candidate tuple for a missing value, scored by the minimum
/// Equation 2 distance value across the cluster's RFDs.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Row of the candidate tuple `t_j`.
    pub row: usize,
    /// `dist_min`: the smallest `Σ_B p[B] / |X|` over the cluster RFDs whose
    /// LHS the pair satisfies.
    pub distance: f64,
    /// Index (within the cluster slice) of the RFD that achieved
    /// `dist_min` — the dependency that justifies this candidate.
    pub via: usize,
}

/// FIND_CANDIDATE_TUPLES (Algorithm 3): scores every tuple `t_j ≠ t` with
/// `t_j[A] ≠ _` against the cluster `ρ_A^i` of RFDs, returning the tuples
/// that satisfy at least one RFD's LHS constraints, each with its minimum
/// distance value.
///
/// Distances are resolved through the [`DistanceOracle`] (dictionary-encoded
/// per-column caches); an attribute's distance is only needed up to the
/// largest threshold any cluster RFD puts on it, and a tuple that exceeds
/// every threshold on some attribute short-circuits the RFDs requiring it.
pub fn find_candidate_tuples(
    oracle: &DistanceOracle,
    rel: &Relation,
    row: usize,
    attr: AttrId,
    cluster: &[&Rfd],
) -> Vec<Candidate> {
    find_candidate_tuples_with(oracle, None, rel, row, attr, cluster)
}

/// The donor rows worth scoring, retrieved through the index: the union
/// over the cluster's RFDs of the intersection of each RFD's per-LHS-
/// constraint `rows_within` supersets. `None` when some RFD has no indexed
/// LHS attribute — every row would have to be scored anyway, so the caller
/// scans. The returned rows are ascending, so scoring them in order yields
/// exactly the scan's output (the score closure re-checks every constraint
/// exactly; see the superset contract in `renuver_distance::index`).
fn index_candidate_rows(
    index: &SimilarityIndex,
    rel: &Relation,
    row: usize,
    cluster: &[&Rfd],
) -> Option<Vec<usize>> {
    let mut union: Vec<usize> = Vec::new();
    for rfd in cluster {
        let mut rows: Option<Vec<usize>> = None;
        for c in rfd.lhs() {
            let Some(within) = index.rows_within(rel, c.attr, row, c.threshold) else {
                continue; // unindexed attribute — the exact check covers it
            };
            rows = Some(match rows {
                None => within,
                Some(acc) => intersect_sorted(&acc, &within),
            });
        }
        // An RFD with no indexed LHS attribute can match any row: no
        // pruning is possible for the whole cluster.
        let rows = rows?;
        union = union_sorted(&union, &rows);
    }
    Some(union)
}

/// [`find_candidate_tuples`] with an optional [`SimilarityIndex`]: when
/// every RFD of the cluster has at least one indexed LHS attribute, only
/// the index-retrieved donor rows are scored instead of all `n`. Output is
/// bit-for-bit identical either way (asserted by
/// `tests/index_differential.rs`).
pub fn find_candidate_tuples_with(
    oracle: &DistanceOracle,
    index: Option<&SimilarityIndex>,
    rel: &Relation,
    row: usize,
    attr: AttrId,
    cluster: &[&Rfd],
) -> Vec<Candidate> {
    let m = rel.arity();
    // Largest threshold each attribute is compared against in this
    // cluster; distances above it are never needed exactly.
    let mut max_thr: Vec<Option<f64>> = vec![None; m];
    for rfd in cluster {
        for c in rfd.lhs() {
            let slot = &mut max_thr[c.attr];
            *slot = Some(slot.map_or(c.threshold, |t: f64| t.max(c.threshold)));
        }
    }
    // One reusable distance buffer for the whole scan: the partial distance
    // pattern over the attributes this cluster uses (`None` = missing value
    // on either side, or beyond every threshold).
    let mut dist_buf: Vec<Option<f64>> = vec![None; m];
    let score = |j: usize| {
        if j == row || rel.is_missing(j, attr) {
            return None;
        }
        for (a, slot) in dist_buf.iter_mut().enumerate() {
            *slot = max_thr[a].and_then(|thr| oracle.distance_bounded(rel, a, row, j, thr));
        }
        let mut dist_min = f64::INFINITY;
        let mut via = 0usize;
        for (idx, rfd) in cluster.iter().enumerate() {
            let lhs = rfd.lhs();
            let satisfied =
                lhs.iter().all(|c| matches!(dist_buf[c.attr], Some(d) if d <= c.threshold));
            if satisfied {
                let sum: f64 = lhs.iter().map(|c| dist_buf[c.attr].unwrap()).sum();
                let dist = sum / lhs.len() as f64;
                if dist < dist_min {
                    dist_min = dist;
                    via = idx;
                }
            }
        }
        dist_min.is_finite().then_some(Candidate { row: j, distance: dist_min, via })
    };
    match index.and_then(|ix| index_candidate_rows(ix, rel, row, cluster)) {
        Some(rows) => rows.into_iter().filter_map(score).collect(),
        None => (0..rel.len()).filter_map(score).collect(),
    }
}

/// Sorts candidates by ascending distance value (Algorithm 2 line 3),
/// breaking ties by row index so the order — and therefore the whole
/// imputation — is deterministic.
///
/// Uses [`f64::total_cmp`], so NaN distances (possible when a discovered
/// RFD carries a NaN threshold) sort after every finite value instead of
/// panicking mid-imputation.
pub fn sort_candidates(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.row.cmp(&b.row)));
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
    fn example_4_6_single_candidate() {
        // φ0: Phone(≤0) → City(≤10). Imputing t6[City]: only t5 shares the
        // phone, so t5 is the only candidate.
        let rel = restaurant_sample();
        let phi0 = Rfd::new(vec![Constraint::new(2, 0.0)], Constraint::new(1, 10.0));
        let cands = find_candidate_tuples(&DistanceOracle::direct(&rel), &rel, 5, 1, &[&phi0]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].row, 4);
        assert_eq!(cands[0].distance, 0.0);
    }

    #[test]
    fn example_5_8_two_candidates_ranked() {
        // φ6: Name(≤6), City(≤9) → Phone(≤0) for t7[Phone]: candidates t2
        // (dist 7.5) and t3 (dist 3).
        let rel = restaurant_sample();
        let phi6 = Rfd::new(
            vec![Constraint::new(0, 6.0), Constraint::new(1, 9.0)],
            Constraint::new(2, 0.0),
        );
        let mut cands = find_candidate_tuples(&DistanceOracle::direct(&rel), &rel, 6, 2, &[&phi6]);
        sort_candidates(&mut cands);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].row, 2);
        assert_eq!(cands[0].distance, 3.0);
        assert_eq!(cands[1].row, 1);
        assert_eq!(cands[1].distance, 7.5);
    }

    #[test]
    fn candidates_skip_missing_donor_values() {
        // t4 would match t3 closely but its Phone is missing → not a donor.
        let rel = restaurant_sample();
        let phi6 = Rfd::new(
            vec![Constraint::new(0, 6.0), Constraint::new(1, 9.0)],
            Constraint::new(2, 0.0),
        );
        let cands = find_candidate_tuples(&DistanceOracle::direct(&rel), &rel, 6, 2, &[&phi6]);
        assert!(cands.iter().all(|c| c.row != 3 && c.row != 6));
    }

    #[test]
    fn minimum_distance_across_cluster_rfds() {
        // Two RFDs in one cluster: Class(≤1) → Phone and City(≤0) → Phone.
        // For a pair matching both, dist_min is the smaller mean.
        let rel = restaurant_sample();
        let by_class = Rfd::new(vec![Constraint::new(4, 1.0)], Constraint::new(2, 0.0));
        let by_city = Rfd::new(vec![Constraint::new(1, 0.0)], Constraint::new(2, 0.0));
        let mut cands = find_candidate_tuples(&DistanceOracle::direct(&rel), &rel, 6, 2, &[&by_class, &by_city]);
        sort_candidates(&mut cands);
        // t3 matches by_city with City distance 0 and by_class with Class
        // distance 1 → min is 0, achieved via the second RFD of the cluster.
        let t3 = cands.iter().find(|c| c.row == 2).unwrap();
        assert_eq!(t3.distance, 0.0);
        assert_eq!(t3.via, 1);
        // `via` indexes the cluster slice, not the candidate list: after
        // sorting it still names the RFD that achieved dist_min, so the
        // engine attributes the imputation to the right dependency.
        for c in &cands {
            let lhs = [&by_class, &by_city][c.via].lhs();
            let sum: f64 = lhs
                .iter()
                .map(|con| {
                    DistanceOracle::direct(&rel)
                        .distance_bounded(&rel, con.attr, 6, c.row, con.threshold)
                        .unwrap()
                })
                .sum();
            assert_eq!(c.distance, sum / lhs.len() as f64, "row {}", c.row);
        }
    }

    #[test]
    fn no_candidates_when_no_lhs_match() {
        let rel = restaurant_sample();
        // Name(≤0) → Phone: no other tuple shares t7's exact name.
        let rfd = Rfd::new(vec![Constraint::new(0, 0.0)], Constraint::new(2, 0.0));
        assert!(find_candidate_tuples(&DistanceOracle::direct(&rel), &rel, 6, 2, &[&rfd]).is_empty());
    }

    #[test]
    fn indexed_candidates_equal_scan_on_sample() {
        let rel = restaurant_sample();
        let oracle = DistanceOracle::build(&rel, 3000);
        let index = SimilarityIndex::build(&rel, &oracle);
        let phi6 = Rfd::new(
            vec![Constraint::new(0, 6.0), Constraint::new(1, 9.0)],
            Constraint::new(2, 0.0),
        );
        let by_class = Rfd::new(vec![Constraint::new(4, 1.0)], Constraint::new(2, 0.0));
        for cluster in [vec![&phi6], vec![&by_class], vec![&phi6, &by_class]] {
            for row in 0..rel.len() {
                for attr in 0..rel.arity() {
                    let scan = find_candidate_tuples(&oracle, &rel, row, attr, &cluster);
                    let indexed = find_candidate_tuples_with(
                        &oracle,
                        Some(&index),
                        &rel,
                        row,
                        attr,
                        &cluster,
                    );
                    assert_eq!(scan, indexed, "row {row} attr {attr}");
                }
            }
        }
    }

    #[test]
    fn sort_is_deterministic_on_ties() {
        let mut cands = vec![
            Candidate { row: 5, distance: 1.0, via: 0 },
            Candidate { row: 2, distance: 1.0, via: 0 },
            Candidate { row: 9, distance: 0.5, via: 0 },
        ];
        sort_candidates(&mut cands);
        let rows: Vec<usize> = cands.iter().map(|c| c.row).collect();
        assert_eq!(rows, vec![9, 2, 5]);
    }

    #[test]
    fn sort_survives_nan_distances() {
        // Regression: this used to be `partial_cmp(..).unwrap()`, which
        // panics as soon as a NaN distance shows up (e.g. via a discovered
        // RFD with a NaN threshold). NaN now sorts after every finite
        // value, deterministically.
        let mut cands = vec![
            Candidate { row: 1, distance: f64::NAN, via: 0 },
            Candidate { row: 4, distance: 2.0, via: 0 },
            Candidate { row: 3, distance: f64::NAN, via: 0 },
            Candidate { row: 2, distance: 0.0, via: 0 },
        ];
        sort_candidates(&mut cands);
        let rows: Vec<usize> = cands.iter().map(|c| c.row).collect();
        assert_eq!(rows, vec![2, 4, 1, 3]);
        assert!(cands[2].distance.is_nan() && cands[3].distance.is_nan());
    }
}
