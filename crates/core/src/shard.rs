//! Row-to-shard routing for the durable on-disk layout.
//!
//! A shard set is a partition of the donor relation's rows into N
//! disjoint groups, persisted as one snapshot and one write-ahead log per
//! shard. Rows are assigned by hashing the partition attributes — the LHS
//! of the lowest-index *key* RFD when one exists, the union of all LHS
//! attributes otherwise. The assignment only shapes how the relation is
//! laid out on disk; imputation always runs on one prepared
//! [`crate::Engine`] over the whole relation in global row order, so
//! answers never depend on it.

use renuver_data::{AttrId, Relation, Tuple, Value};
use renuver_rfd::RfdSet;

/// The partition attributes for `rel` under `sigma`: the LHS of the
/// lowest-index key RFD when one exists, else the union of all LHS
/// attributes, else every attribute. Purely a routing choice — results
/// are independent of it.
pub fn partition_attrs(rel: &Relation, sigma: &RfdSet) -> Vec<AttrId> {
    for rfd in sigma.iter() {
        if renuver_rfd::check::is_key(rel, rfd) {
            let mut attrs: Vec<AttrId> = rfd.lhs().iter().map(|c| c.attr).collect();
            attrs.sort_unstable();
            attrs.dedup();
            return attrs;
        }
    }
    let mut attrs: Vec<AttrId> =
        sigma.iter().flat_map(|r| r.lhs().iter().map(|c| c.attr)).collect();
    attrs.sort_unstable();
    attrs.dedup();
    if attrs.is_empty() {
        (0..rel.arity()).collect()
    } else {
        attrs
    }
}

/// The owning shard of a tuple: FNV-1a over the rendered partition-attr
/// values, mod `n_shards`. Stable across processes and platforms — the
/// serve layer persists the attrs in its manifest precisely so WAL replay
/// re-derives the same assignment.
pub fn shard_of(tuple: &[Value], attrs: &[AttrId], n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &a in attrs {
        for &b in tuple[a].render().as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Attribute separator: ("ab", "") and ("a", "b") must not collide
        // into systematically identical buckets.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % n_shards as u64) as usize
}

/// The owning shard of each tuple, in order — the row assignment of a
/// relation (`assign(rel.tuples(), ..)`) or the routing step of a
/// commit.
pub fn assign<'a>(
    tuples: impl IntoIterator<Item = &'a Tuple>,
    attrs: &[AttrId],
    n_shards: usize,
) -> Vec<u32> {
    tuples.into_iter().map(|t| shard_of(t, attrs, n_shards) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::{AttrType, Schema};

    fn rel() -> Relation {
        let schema = Schema::new([("City", AttrType::Text), ("Zip", AttrType::Text)]).unwrap();
        let t = |c: &str, z: &str| vec![Value::from(c), Value::from(z)];
        Relation::new(schema, vec![t("a", "1"), t("b", "2"), t("a", "3")]).unwrap()
    }

    #[test]
    fn key_rfd_lhs_wins_the_partition_attrs() {
        let rel = rel();
        // Zip is a key here (all distinct); City is not.
        let sigma = RfdSet::from_text("City(<=0) -> Zip(<=0)\nZip(<=0) -> City(<=0)", rel.schema())
            .unwrap();
        assert_eq!(partition_attrs(&rel, &sigma), vec![1]);
    }

    #[test]
    fn one_shard_takes_every_row_and_routing_is_stable() {
        let rel = rel();
        assert_eq!(assign(rel.tuples(), &[0], 1), vec![0, 0, 0]);
        let twice = (assign(rel.tuples(), &[0], 4), assign(rel.tuples(), &[0], 4));
        assert_eq!(twice.0, twice.1);
        // Equal partition values always share a shard.
        assert_eq!(twice.0[0], twice.0[2]);
    }
}
