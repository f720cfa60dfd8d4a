//! Naive RFD discovery by direct validation — the reference
//! implementation the skyline search is checked against.
//!
//! Enumerates every candidate `X_Φ1 → A_φ2` on the integer threshold grid
//! (LHS sets up to `max_lhs`, all threshold combinations) and keeps the
//! ones that [`holds`] on the instance, pruning non-maximal candidates.
//! Complexity is `O((limit+1)^(|X|+1))` per LHS set *times* an `O(n²)`
//! validation each — exponential in arity and useless beyond toy sizes,
//! but trivially correct. Tests use it as ground truth for
//! [`crate::discovery::discover`]; the `bench_discovery` binary times it
//! against the skyline search.

use renuver_data::{AttrId, Relation};

use crate::check::holds;
use crate::model::{Constraint, Rfd};
use crate::set::RfdSet;

/// Configuration for [`discover_naive`].
#[derive(Debug, Clone)]
pub struct NaiveConfig {
    /// Threshold limit (integer grid `0..=limit`), as in
    /// [`crate::discovery::DiscoveryConfig::limit`].
    pub limit: u16,
    /// Maximum LHS attributes.
    pub max_lhs: usize,
}

impl NaiveConfig {
    /// Creates a config.
    pub fn new(limit: u16, max_lhs: usize) -> Self {
        NaiveConfig { limit, max_lhs }
    }
}

/// Discovers all maximal RFDs on the grid by brute-force validation.
///
/// "Maximal" matches the skyline semantics: an RFD is dropped if another
/// *holding* RFD implies it ([`Rfd::implies`]: subset LHS, looser LHS
/// thresholds, tighter RHS threshold).
pub fn discover_naive(rel: &Relation, cfg: &NaiveConfig) -> RfdSet {
    let m = rel.arity();
    let mut all: Vec<Rfd> = Vec::new();
    for rhs in 0..m {
        let lhs_attrs: Vec<AttrId> = (0..m).filter(|&a| a != rhs).collect();
        for set in subsets(&lhs_attrs, cfg.max_lhs) {
            for alphas in grid(set.len(), cfg.limit) {
                let lhs: Vec<Constraint> = set
                    .iter()
                    .zip(&alphas)
                    .map(|(&a, &t)| Constraint::new(a, t as f64))
                    .collect();
                for beta in 0..=cfg.limit {
                    let rfd = Rfd::new(lhs.clone(), Constraint::new(rhs, beta as f64));
                    if holds(rel, &rfd) {
                        all.push(rfd);
                        break; // larger β is implied by this one
                    }
                }
            }
        }
    }
    let mut set = RfdSet::from_vec(all);
    set.prune_implied();
    set
}

/// Non-empty subsets of `attrs` with at most `max` elements.
fn subsets(attrs: &[AttrId], max: usize) -> Vec<Vec<AttrId>> {
    let mut out: Vec<Vec<AttrId>> = vec![vec![]];
    for &a in attrs {
        let mut grown: Vec<Vec<AttrId>> = out
            .iter()
            .filter(|s| s.len() < max)
            .map(|s| {
                let mut s = s.clone();
                s.push(a);
                s
            })
            .collect();
        out.append(&mut grown);
    }
    out.retain(|s| !s.is_empty());
    out
}

/// All threshold vectors in `[0, limit]^k`.
fn grid(k: usize, limit: u16) -> Vec<Vec<u16>> {
    let mut out = vec![vec![]];
    for _ in 0..k {
        out = out
            .into_iter()
            .flat_map(|prefix: Vec<u16>| {
                (0..=limit).map(move |v| {
                    let mut p = prefix.clone();
                    p.push(v);
                    p
                })
            })
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{discover, DiscoveryConfig};
    use renuver_data::{AttrType, Schema, Value};

    fn rel(rows: &[(i64, i64, i64)]) -> Relation {
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("B", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        Relation::new(
            schema,
            rows.iter()
                .map(|&(a, b, c)| vec![Value::Int(a), Value::Int(b), Value::Int(c)])
                .collect(),
        )
        .unwrap()
    }

    /// Two RFD sets are equivalent iff each element of one is implied by
    /// some element of the other.
    fn equivalent(a: &RfdSet, b: &RfdSet) -> bool {
        let covered = |x: &RfdSet, y: &RfdSet| {
            x.iter().all(|rx| y.iter().any(|ry| ry.implies(rx)))
        };
        covered(a, b) && covered(b, a)
    }

    #[test]
    fn skyline_discovery_matches_naive_reference() {
        let cases: Vec<Vec<(i64, i64, i64)>> = vec![
            vec![(1, 10, 5), (1, 10, 5), (2, 20, 5), (3, 30, 6)],
            vec![(1, 7, 1), (2, 7, 2), (3, 9, 3), (4, 9, 4), (5, 12, 5)],
            vec![(0, 0, 0), (1, 1, 1), (2, 2, 2)],
            vec![(1, 100, 3), (1, 200, 3), (2, 100, 4), (2, 200, 4)],
        ];
        for rows in cases {
            let r = rel(&rows);
            let naive = discover_naive(&r, &NaiveConfig::new(3, 2));
            let fast = discover(
                &r,
                &DiscoveryConfig {
                    max_lhs: 2,
                    ..DiscoveryConfig::with_limit(3.0)
                },
            );
            assert!(
                equivalent(&naive, &fast),
                "mismatch on {rows:?}\nnaive:\n{}\nfast:\n{}",
                naive.to_text(r.schema()),
                fast.to_text(r.schema())
            );
        }
    }

    #[test]
    fn naive_handles_missing_values_like_skyline() {
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        let r = Relation::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Null],
                vec![Value::Null, Value::Int(12)],
                vec![Value::Int(2), Value::Int(12)],
            ],
        )
        .unwrap();
        let naive = discover_naive(&r, &NaiveConfig::new(3, 1));
        let fast = discover(
            &r,
            &DiscoveryConfig { max_lhs: 1, ..DiscoveryConfig::with_limit(3.0) },
        );
        assert!(
            equivalent(&naive, &fast),
            "naive:\n{}\nfast:\n{}",
            naive.to_text(r.schema()),
            fast.to_text(r.schema())
        );
    }

    #[test]
    fn subsets_and_grid_shapes() {
        assert_eq!(subsets(&[0, 1, 2], 2).len(), 6); // C(3,1)+C(3,2)
        assert_eq!(grid(2, 3).len(), 16);
        assert_eq!(grid(0, 5), vec![Vec::<u16>::new()]);
    }
}
