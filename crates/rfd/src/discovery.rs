//! Distance-based RFD_c discovery.
//!
//! The paper obtains its RFD sets from the discovery algorithm of Caruccio
//! et al. (ref. \[6\], multi-attribute dominance), which is not available as
//! open source. This module is a from-scratch replacement with the same
//! contract: given a relation and a *threshold limit* (the paper uses
//! {3, 6, 9, 12, 15}), produce the RFD_c's `X_Φ1 → A_φ2` — with all
//! thresholds on the integer grid `0..=limit` — that hold on the instance.
//!
//! ## Method
//!
//! 1. Compute the distance pattern of every tuple pair (optionally a seeded
//!    sample of pairs for large instances), quantized to the integer grid:
//!    `q = ceil(δ)` clamped to `limit + 1`, `MISSING` where either value is
//!    null. Patterns are deduplicated; only distinct patterns drive search.
//! 2. For a fixed RHS attribute `A` and RHS threshold `β`, a pair is
//!    **violating** iff `q[A] > β`. A candidate LHS `(X, α)` is valid iff no
//!    violating pair satisfies it, i.e. there is no violating pattern `p`
//!    with `p[x] ≤ α_x` on every `x ∈ X` (patterns with a missing or
//!    beyond-limit LHS coordinate never satisfy the LHS and can be ignored).
//! 3. The feasible `α` region is downward closed, so it suffices to emit its
//!    **maximal elements** (a Pareto skyline over the grid), computed from
//!    the Pareto-minimal violating points by a recursive sweep on the last
//!    coordinate. Processing `β` from `limit` down to `0` only ever *adds*
//!    violating points, so the minimal-point set is maintained
//!    incrementally.
//! 4. Finally, RFDs implied by a more general one (subset LHS, looser LHS
//!    thresholds, tighter RHS threshold — [`Rfd::implies`]) are pruned.
//!
//! The result is deterministic for a fixed config (sampling uses a seeded
//! in-crate PRNG).

use std::collections::HashMap;

use renuver_budget::{Budget, BudgetReport};
use renuver_data::{AttrId, Relation};
use renuver_distance::functions::value_distance;
use renuver_obs::{FieldValue, LocalBuffer, Tracer};

use crate::model::{Constraint, Rfd};
use crate::set::RfdSet;

/// Marker for "either value missing" in quantized patterns.
const MISSING: u16 = u16::MAX;

/// Tuple pairs examined between budget checks during pattern building.
/// The first stride always completes, so even a zero budget leaves the
/// search a (sampled) pattern table to work from rather than an empty one
/// — an empty table would make every candidate RFD look feasible.
const PATTERN_CHECK_STRIDE: usize = 1024;

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Threshold limit: every LHS and RHS threshold lies in `0..=limit`.
    /// The paper's evaluation uses limits {3, 6, 9, 12, 15} (Section 6.1).
    pub limit: f64,
    /// Optional per-attribute limits overriding `limit`, indexed by
    /// attribute id (entries beyond the vector fall back to `limit`).
    /// Implements the paper's first future-work item (Section 7):
    /// "thresholds whose upper bound depends on attribute domains and
    /// value distributions" — see [`auto_limits`] for the
    /// distribution-scaled variant.
    pub per_attr_limits: Option<Vec<f64>>,
    /// Maximum number of LHS attributes per RFD (lattice depth).
    pub max_lhs: usize,
    /// Cap on the number of tuple pairs examined; instances with more pairs
    /// are sampled deterministically. Sampling makes discovery approximate
    /// (an emitted RFD may be violated by an unsampled pair), which is the
    /// standard trade-off for n in the tens of thousands.
    pub max_pairs: usize,
    /// Seed for pair sampling.
    pub seed: u64,
    /// Remove implied RFDs before returning.
    pub prune_implied: bool,
    /// Execution budget, polled between pattern-building strides, lattice
    /// cells, and RHS-threshold sweep steps. On a trip the search stops
    /// expanding and [`discover_outcome`] returns the Pareto frontier
    /// found so far, flagged `truncated`. The default budget is unlimited.
    pub budget: Budget,
    /// Structured tracer (default: disabled). An enabled tracer records
    /// `rfd::patterns` / `rfd::lattice` spans, one `lattice_cell` event
    /// per searched lattice cell (buffered per worker thread, merged in
    /// task order so the trace is deterministic), and a final `discovery`
    /// summary event.
    pub tracer: Tracer,
}

impl DiscoveryConfig {
    /// Config with the given threshold limit and defaults for the rest.
    pub fn with_limit(limit: f64) -> Self {
        DiscoveryConfig {
            limit,
            per_attr_limits: None,
            max_lhs: 3,
            max_pairs: 400_000,
            seed: 0x5EED,
            prune_implied: true,
            budget: Budget::unlimited(),
            tracer: Tracer::disabled(),
        }
    }
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig::with_limit(3.0)
    }
}

/// Derives per-attribute threshold limits from the value distribution
/// (the paper's Section 7 future-work item): each attribute's limit is
/// `fraction` of its observed spread — the value range for numeric
/// columns, the longest value length for text columns, 1 for booleans —
/// clamped to `1..=255`. The upper clamp bounds the discovery grid: the
/// RHS threshold sweep is linear in the limit, so an unbounded numeric
/// range (say, population counts) must not translate into a
/// hundred-thousand-step grid.
pub fn auto_limits(rel: &Relation, fraction: f64) -> Vec<f64> {
    use renuver_data::AttrType;
    (0..rel.arity())
        .map(|attr| {
            let spread = match rel.schema().ty(attr) {
                AttrType::Text => rel
                    .tuples()
                    .filter_map(|t| t[attr].as_text())
                    .map(|s| s.chars().count() as f64)
                    .fold(0.0, f64::max),
                AttrType::Bool => 1.0,
                _ => {
                    let vals: Vec<f64> =
                        rel.tuples().filter_map(|t| t[attr].as_f64()).collect();
                    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    if hi > lo {
                        hi - lo
                    } else {
                        0.0
                    }
                }
            };
            (spread * fraction).floor().clamp(1.0, 255.0)
        })
        .collect()
}

/// Splitmix64: tiny deterministic PRNG for pair sampling (keeps this crate
/// free of the `rand` dependency).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (bound > 0) via rejection-free mul-shift.
    fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

/// Quantizes a distance to the integer grid: `ceil(d)` clamped to
/// `limit + 1` (every value beyond the limit behaves identically — it can
/// satisfy no constraint and violates every RHS threshold).
#[inline]
fn quantize(d: f64, limit_q: u16) -> u16 {
    let q = d.ceil();
    if q >= limit_q as f64 {
        limit_q
    } else {
        q.max(0.0) as u16
    }
}

/// Resolves the effective per-attribute threshold limits on the integer
/// grid.
fn attr_limits(cfg: &DiscoveryConfig, m: usize) -> Vec<u16> {
    let global = cfg.limit.floor().clamp(0.0, u16::MAX as f64 - 2.0) as u16;
    match &cfg.per_attr_limits {
        None => vec![global; m],
        Some(per) => (0..m)
            .map(|a| {
                per.get(a)
                    .map(|l| l.floor().clamp(0.0, u16::MAX as f64 - 2.0) as u16)
                    .unwrap_or(global)
            })
            .collect(),
    }
}

/// Distinct quantized distance patterns with, per pattern, a multiplicity
/// count (informational) — the search input built by step 1.
struct PatternTable {
    /// One quantized entry per attribute per pattern, row-major.
    rows: Vec<u16>,
    arity: usize,
    len: usize,
}

impl PatternTable {
    #[inline]
    fn get(&self, row: usize, attr: usize) -> u16 {
        self.rows[row * self.arity + attr]
    }
}

/// Builds the deduplicated pattern table over (a sample of) tuple pairs.
/// The second component is `false` when the budget cut the pair scan
/// short — the table is then a deterministic prefix sample, which makes
/// discovery approximate in the same way `max_pairs` sampling does.
fn build_patterns(rel: &Relation, cfg: &DiscoveryConfig) -> (PatternTable, bool) {
    let n = rel.len();
    let m = rel.arity();
    let limits = attr_limits(cfg, m);
    let total_pairs = n.saturating_mul(n.saturating_sub(1)) / 2;

    let mut seen: HashMap<Vec<u16>, u32> = HashMap::new();
    let pattern_of = |i: usize, j: usize, buf: &mut Vec<u16>| {
        buf.clear();
        let ti = rel.tuple(i);
        let tj = rel.tuple(j);
        for a in 0..m {
            let q = match value_distance(&ti[a], &tj[a]) {
                None => MISSING,
                Some(d) => quantize(d, limits[a] + 1),
            };
            buf.push(q);
        }
    };

    let mut complete = true;
    let mut processed = 0usize;
    let mut buf = Vec::with_capacity(m);
    if total_pairs <= cfg.max_pairs {
        'scan: for i in 0..n {
            for j in (i + 1)..n {
                processed += 1;
                if processed.is_multiple_of(PATTERN_CHECK_STRIDE)
                    && cfg.budget.check("rfd::patterns").is_err()
                {
                    complete = false;
                    break 'scan;
                }
                pattern_of(i, j, &mut buf);
                *seen.entry(buf.clone()).or_insert(0) += 1;
            }
        }
    } else {
        let mut rng = SplitMix64(cfg.seed);
        for _ in 0..cfg.max_pairs {
            processed += 1;
            if processed.is_multiple_of(PATTERN_CHECK_STRIDE)
                && cfg.budget.check("rfd::patterns").is_err()
            {
                complete = false;
                break;
            }
            let i = rng.below(n as u64) as usize;
            let mut j = rng.below((n - 1) as u64) as usize;
            if j >= i {
                j += 1;
            }
            pattern_of(i, j, &mut buf);
            *seen.entry(buf.clone()).or_insert(0) += 1;
        }
    }

    let len = seen.len();
    let mut rows = Vec::with_capacity(len * m);
    for (pat, _count) in seen {
        rows.extend_from_slice(&pat);
    }
    (PatternTable { rows, arity: m, len }, complete)
}

/// Pareto-minimal point set under componentwise `≤`, maintained
/// incrementally. Only minimal points constrain the feasible-α region.
struct MinimalPoints {
    points: Vec<Vec<u16>>,
}

impl MinimalPoints {
    fn new() -> Self {
        MinimalPoints { points: Vec::new() }
    }

    /// Inserts `p`, dropping it if dominated and evicting points it
    /// dominates. (`a` dominates `b` iff `a ≤ b` componentwise.)
    fn insert(&mut self, p: &[u16]) {
        for q in &self.points {
            if q.iter().zip(p).all(|(a, b)| a <= b) {
                return; // dominated by an existing minimal point
            }
        }
        self.points.retain(|q| !p.iter().zip(q.iter()).all(|(a, b)| a <= b));
        self.points.push(p.to_vec());
    }
}

/// Maximal feasible threshold vectors `α`, `α_i ∈ [0, limits[i]]`, such
/// that no point `p` satisfies `p ≤ α` componentwise. `points` must be
/// Pareto-minimal (not required for correctness, only for speed) with all
/// coordinates within the per-dimension limits.
fn maximal_alphas(points: &[Vec<u16>], k: usize, limits: &[u16]) -> Vec<Vec<u16>> {
    if points.iter().any(|p| p.iter().all(|&c| c == 0)) {
        return Vec::new(); // the all-zero point forbids every α
    }
    if points.is_empty() {
        return vec![limits[..k].to_vec()];
    }
    if k == 1 {
        let min = points.iter().map(|p| p[0]).min().unwrap();
        // min ≥ 1 here (all-zero handled above).
        return vec![vec![(min - 1).min(limits[0])]];
    }
    // Candidate values for the last coordinate: the full limit, plus one
    // below each distinct point coordinate (descending, without repeats).
    let mut cands: Vec<u16> = points
        .iter()
        .map(|p| p[k - 1].saturating_sub(1).min(limits[k - 1]))
        .collect();
    cands.push(limits[k - 1]);
    cands.sort_unstable_by(|a, b| b.cmp(a));
    cands.dedup();

    let mut result: Vec<Vec<u16>> = Vec::new();
    for &last in &cands {
        // Points still active when α_last = last: those with p_last ≤ last.
        let active: Vec<Vec<u16>> = points
            .iter()
            .filter(|p| p[k - 1] <= last)
            .map(|p| p[..k - 1].to_vec())
            .collect();
        // Re-minimize the projection (projection can break minimality).
        let mut min_active = MinimalPoints::new();
        for p in &active {
            min_active.insert(p);
        }
        for mut prefix in maximal_alphas(&min_active.points, k - 1, limits) {
            prefix.push(last);
            // Keep only Pareto-maximal vectors across all `last` choices.
            if !result
                .iter()
                .any(|r| r.iter().zip(&prefix).all(|(a, b)| a >= b))
            {
                result.retain(|r| !r.iter().zip(&prefix).all(|(a, b)| a <= b));
                result.push(prefix);
            }
        }
    }
    result
}

/// Enumerates the non-empty subsets of `attrs` with at most `max_lhs`
/// elements, smallest first.
fn lhs_sets(attrs: &[AttrId], max_lhs: usize) -> Vec<Vec<AttrId>> {
    let mut out: Vec<Vec<AttrId>> = Vec::new();
    let mut level: Vec<Vec<AttrId>> = attrs.iter().map(|&a| vec![a]).collect();
    for _ in 0..max_lhs {
        out.extend(level.iter().cloned());
        let mut next = Vec::new();
        for set in &level {
            let last = *set.last().unwrap();
            for &a in attrs.iter().filter(|&&a| a > last) {
                let mut bigger = set.clone();
                bigger.push(a);
                next.push(bigger);
            }
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }
    out
}

/// The skyline search for one `(RHS attribute, LHS attribute set)` pair —
/// the unit of work [`discover`] distributes across threads. Returns the
/// strongest RFDs of that lattice cell, raw (unpruned), plus whether the
/// budget cut the RHS-threshold sweep short (the emitted RFDs still hold;
/// they just may be weaker than a full sweep would have tightened them
/// to).
fn discover_for_rhs_set(
    patterns: &PatternTable,
    rhs: AttrId,
    set: &[AttrId],
    cfg: &DiscoveryConfig,
) -> (Vec<Rfd>, bool) {
    let m = patterns.arity;
    let limits = attr_limits(cfg, m);
    let rhs_limit = limits[rhs];
    let mut out = Vec::new();
    let mut truncated = false;
    {
        let k = set.len();
        let set_limits: Vec<u16> = set.iter().map(|&a| limits[a]).collect();
        // Project patterns onto the LHS set, keeping per projected point the
        // maximum RHS quantized distance (the tightest violation it can
        // witness). Points with a missing or beyond-limit LHS coordinate
        // never satisfy any LHS and are skipped; patterns with a missing RHS
        // cannot witness a violation and contribute rhs_q = 0.
        let mut proj: HashMap<u64, u16> = HashMap::new();
        'pattern: for row in 0..patterns.len {
            let mut key = 0u64;
            for &a in set {
                let c = patterns.get(row, a);
                if c > limits[a] {
                    continue 'pattern;
                }
                key = (key << 16) | c as u64;
            }
            let rhs_q = match patterns.get(row, rhs) {
                MISSING => 0,
                q => q,
            };
            let e = proj.entry(key).or_insert(0);
            *e = (*e).max(rhs_q);
        }

        // Sort projected points by rhs_q descending: processing β from the
        // limit downwards, a point becomes violating once β < rhs_q.
        let mut points: Vec<(u16, Vec<u16>)> = proj
            .into_iter()
            .map(|(key, rhs_q)| {
                let mut coords = vec![0u16; k];
                let mut key = key;
                for i in (0..k).rev() {
                    coords[i] = (key & 0xFFFF) as u16;
                    key >>= 16;
                }
                (rhs_q, coords)
            })
            .collect();
        points.sort_unstable_by_key(|(rhs_q, _)| std::cmp::Reverse(*rhs_q));

        let mut minimal = MinimalPoints::new();
        let mut next = 0usize;
        let mut beta = rhs_limit as i32;
        // Pending skylines: skyline vector -> smallest β at which it is
        // still feasible (a smaller β strictly strengthens the RFD).
        let mut strongest: Vec<(Vec<u16>, u16)> = Vec::new();
        while beta >= 0 {
            // The first sweep step (β = limit) always runs, so every
            // visited lattice cell emits at least its weakest skyline even
            // under an exhausted budget.
            if beta < rhs_limit as i32 && cfg.budget.check("rfd::beta_sweep").is_err() {
                truncated = true;
                break;
            }
            while next < points.len() && points[next].0 as i32 > beta {
                // rhs_q never exceeds the quantization clamp rhs_limit + 1.
                debug_assert!(points[next].0 <= rhs_limit + 1);
                minimal.insert(&points[next].1);
                next += 1;
            }
            for alpha in maximal_alphas(&minimal.points, k, &set_limits) {
                match strongest.iter_mut().find(|(a, _)| *a == alpha) {
                    Some((_, b)) => *b = beta as u16, // still feasible: tighten
                    None => strongest.push((alpha, beta as u16)),
                }
            }
            beta -= 1;
        }

        for (alpha, beta) in strongest {
            let lhs = set
                .iter()
                .zip(&alpha)
                .map(|(&a, &t)| Constraint::new(a, t as f64))
                .collect();
            out.push(Rfd::new(lhs, Constraint::new(rhs, beta as f64)));
        }
    }
    (out, truncated)
}

/// Discovers the RFD_c's holding on `rel` under `cfg` (see module docs).
///
/// ```
/// use renuver_data::{csv, Relation};
/// use renuver_rfd::check::holds;
/// use renuver_rfd::discovery::{discover, DiscoveryConfig};
///
/// let rel = csv::read_str(
///     "City:text,Zip:text\n\
///      Salerno,84084\n\
///      Salerno,84084\n\
///      Milano,20121\n",
/// ).unwrap();
/// let rfds = discover(&rel, &DiscoveryConfig::with_limit(3.0));
/// assert!(!rfds.is_empty());
/// assert!(rfds.iter().all(|rfd| holds(&rel, rfd)));
/// ```
pub fn discover(rel: &Relation, cfg: &DiscoveryConfig) -> RfdSet {
    discover_outcome(rel, cfg).rfds
}

/// What a (possibly budget-limited) discovery run produced.
#[derive(Debug)]
pub struct DiscoveryOutcome {
    /// The discovered Pareto frontier — everything found before the budget
    /// tripped.
    pub rfds: RfdSet,
    /// `true` when the budget cut actual search work (pattern pairs,
    /// lattice cells, or sweep steps) — the frontier is then a valid but
    /// partial answer.
    pub truncated: bool,
    /// Snapshot of the budget at the end of the run.
    pub budget: BudgetReport,
}

/// [`discover`] with budget-outcome reporting: on budget exhaustion the
/// search stops expanding and returns what it found so far (flagged
/// [`DiscoveryOutcome::truncated`]) instead of running unbounded. The
/// first lattice cell always runs, so even a zero budget yields the
/// relation's weakest frontier rather than nothing.
pub fn discover_outcome(rel: &Relation, cfg: &DiscoveryConfig) -> DiscoveryOutcome {
    let tracer = &cfg.tracer;
    let run_span = tracer.span("rfd::discover");
    let m = rel.arity();
    if m < 2 || rel.len() < 2 {
        tracer.event("discovery", run_span.id(), || {
            vec![
                ("rfds", FieldValue::U64(0)),
                ("truncated", FieldValue::Bool(false)),
                ("lattice_cells", FieldValue::U64(0)),
            ]
        });
        return DiscoveryOutcome {
            rfds: RfdSet::new(),
            truncated: false,
            budget: cfg.budget.report(),
        };
    }
    let (patterns, patterns_complete) = {
        let _span = run_span.child("rfd::patterns");
        build_patterns(rel, cfg)
    };
    let mut truncated = !patterns_complete;

    // One task per (RHS attribute, LHS attribute set) lattice cell, in
    // (rhs ascending, lhs_sets order), spread across the installed thread
    // pool. Tasks are heavy and few, so the minimum fan-out length drops
    // to 2; the in-order merge keeps the emitted RFD order identical at
    // every thread count.
    let tasks: Vec<(AttrId, Vec<AttrId>)> = (0..m)
        .flat_map(|rhs| {
            let lhs_attrs: Vec<AttrId> = (0..m).filter(|&a| a != rhs).collect();
            lhs_sets(&lhs_attrs, cfg.max_lhs)
                .into_iter()
                .map(move |set| (rhs, set))
        })
        .collect();
    let lattice_span = run_span.child("rfd::lattice");
    let lattice_span_id = lattice_span.id();
    // Each task carries its own event buffer: workers never contend on the
    // tracer, and absorbing the buffers in task order below keeps the
    // trace independent of thread scheduling (disabled tracers make the
    // buffers inert).
    let results: Vec<(Vec<Rfd>, bool, LocalBuffer)> =
        rayon::par_map_indexed_with_min(tasks.len(), 2, |i| {
            let mut buf = LocalBuffer::new(tracer);
            // Cell 0 always runs; later cells are dropped wholesale once
            // the budget has tripped.
            if i > 0 && cfg.budget.check("rfd::lattice").is_err() {
                return (Vec::new(), true, buf);
            }
            let (rhs, set) = &tasks[i];
            let (cell, cut) = discover_for_rhs_set(&patterns, *rhs, set, cfg);
            buf.event("lattice_cell", lattice_span_id, || {
                vec![
                    ("cell", FieldValue::U64(i as u64)),
                    ("rfds", FieldValue::U64(cell.len() as u64)),
                ]
            });
            (cell, cut, buf)
        });
    let mut rfds: Vec<Rfd> = Vec::new();
    let mut buffers: Vec<LocalBuffer> = Vec::with_capacity(results.len());
    for (cell, cut, buf) in results {
        truncated |= cut;
        rfds.extend(cell);
        buffers.push(buf);
    }
    tracer.absorb_ordered(buffers);
    drop(lattice_span);

    let raw = rfds.len();
    let mut set = RfdSet::from_vec(rfds);
    if cfg.prune_implied {
        set.prune_implied();
    }
    if tracer.is_enabled() {
        let metrics = tracer.metrics();
        metrics.counter("rfd.lattice_cells").add(tasks.len() as u64);
        metrics.counter("rfd.emitted_raw").add(raw as u64);
        metrics.counter("rfd.discovered").add(set.len() as u64);
    }
    let n_rfds = set.len();
    let n_cells = tasks.len();
    tracer.event("discovery", run_span.id(), || {
        vec![
            ("rfds", FieldValue::U64(n_rfds as u64)),
            ("truncated", FieldValue::Bool(truncated)),
            ("lattice_cells", FieldValue::U64(n_cells as u64)),
        ]
    });
    DiscoveryOutcome { rfds: set, truncated, budget: cfg.budget.report() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::holds;
    use renuver_data::{AttrType, Schema, Value};

    #[test]
    fn traced_discovery_is_deterministic_across_parallelism() {
        let rel = two_col(&[(1, 10), (2, 20), (3, 30), (1, 11), (7, 70)]);
        let run = |threads: usize| {
            let tracer = Tracer::enabled();
            let cfg = DiscoveryConfig { tracer: tracer.clone(), ..DiscoveryConfig::with_limit(3.0) };
            (pool(threads).install(|| discover_outcome(&rel, &cfg)), tracer)
        };
        let (seq, t_seq) = run(1);
        let (par, t_par) = run(2);
        assert_eq!(seq.rfds, par.rfds);
        // Same lattice_cell payloads in the same order at every thread
        // count: buffers are absorbed in task order, not completion order.
        let cells = |t: &Tracer| -> Vec<Vec<renuver_obs::Field>> {
            t.records()
                .iter()
                .filter(|r| r.kind == "lattice_cell")
                .map(|r| r.fields.clone())
                .collect()
        };
        assert_eq!(cells(&t_seq), cells(&t_par));
        assert!(!cells(&t_seq).is_empty());
        // One summary event; the whole trace validates against the schema.
        let summaries =
            t_par.records().iter().filter(|r| r.kind == "discovery").count();
        assert_eq!(summaries, 1);
        renuver_obs::schema::validate_trace(&t_par.to_jsonl()).unwrap();
        assert_eq!(
            t_par.metrics().counter("rfd.discovered").get(),
            par.rfds.len() as u64
        );
        // An untraced run discovers the same frontier.
        let plain = pool(2).install(|| discover(&rel, &DiscoveryConfig::with_limit(3.0)));
        assert_eq!(plain, par.rfds);
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
    }

    fn two_col(rows: &[(i64, i64)]) -> Relation {
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Int)]).unwrap();
        Relation::new(
            schema,
            rows.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn quantize_grid() {
        assert_eq!(quantize(0.0, 4), 0);
        assert_eq!(quantize(2.0, 4), 2);
        assert_eq!(quantize(2.1, 4), 3);
        assert_eq!(quantize(3.9, 4), 4);
        assert_eq!(quantize(97.0, 4), 4);
    }

    #[test]
    fn minimal_points_dominance() {
        let mut mp = MinimalPoints::new();
        mp.insert(&[3, 3]);
        mp.insert(&[5, 5]); // dominated
        assert_eq!(mp.points.len(), 1);
        mp.insert(&[1, 4]); // incomparable
        assert_eq!(mp.points.len(), 2);
        mp.insert(&[1, 1]); // dominates both? dominates [3,3] and [1,4]
        assert_eq!(mp.points, vec![vec![1, 1]]);
    }

    #[test]
    fn maximal_alphas_no_points() {
        assert_eq!(maximal_alphas(&[], 2, &[5, 5]), vec![vec![5, 5]]);
    }

    #[test]
    fn maximal_alphas_zero_point_blocks_all() {
        assert!(maximal_alphas(&[vec![0, 0]], 2, &[5, 5]).is_empty());
    }

    #[test]
    fn maximal_alphas_one_dim() {
        assert_eq!(maximal_alphas(&[vec![3]], 1, &[5]), vec![vec![2]]);
    }

    #[test]
    fn maximal_alphas_staircase() {
        // Points (2,5) and (4,1) with limit 5. The maximal feasible α are:
        //   (1,5) — below both points in the first coordinate;
        //   (3,4) — dodges (2,5) on y and (4,1) on x;
        //   (5,0) — below both points in the second coordinate.
        let pts = vec![vec![2, 5], vec![4, 1]];
        let mut alphas = maximal_alphas(&pts, 2, &[5, 5]);
        alphas.sort();
        assert_eq!(alphas, vec![vec![1, 5], vec![3, 4], vec![5, 0]]);
    }

    #[test]
    fn lhs_sets_enumeration() {
        let sets = lhs_sets(&[0, 2, 3], 2);
        assert_eq!(
            sets,
            vec![
                vec![0],
                vec![2],
                vec![3],
                vec![0, 2],
                vec![0, 3],
                vec![2, 3]
            ]
        );
        assert_eq!(lhs_sets(&[1], 3), vec![vec![1]]);
    }

    #[test]
    fn discovered_rfds_hold_on_instance() {
        // B = A + noise ≤ 1 when A close; plus an outlier pair.
        let rel = two_col(&[(1, 10), (2, 11), (3, 12), (10, 40), (11, 41), (30, 90)]);
        let cfg = DiscoveryConfig::with_limit(5.0);
        let set = discover(&rel, &cfg);
        assert!(!set.is_empty());
        for rfd in set.iter() {
            assert!(holds(&rel, rfd), "discovered RFD violated: {:?}", rfd);
        }
    }

    #[test]
    fn exact_fd_discovered_at_threshold_zero() {
        // B is a function of A (equal A ⇒ equal B).
        let rel = two_col(&[(1, 7), (1, 7), (2, 9), (2, 9), (3, 11)]);
        let cfg = DiscoveryConfig::with_limit(3.0);
        let set = discover(&rel, &cfg);
        // Some RFD A(≤α) → B(≤0) with α ≥ 0 must exist.
        assert!(
            set.iter().any(|r| r.rhs_attr() == 1 && r.rhs_threshold() == 0.0
                && r.lhs_attrs() == vec![0]),
            "missing exact FD; got: {set:?}"
        );
    }

    #[test]
    fn no_rfd_claims_more_than_data_supports() {
        // B unrelated to A: pairs with same A but B far apart at every
        // threshold ≤ limit. The only A→B RFDs must have high RHS or
        // infeasibly low LHS (none, since A repeats with distance 0).
        let rel = two_col(&[(1, 0), (1, 100), (2, 50), (2, 200)]);
        let cfg = DiscoveryConfig::with_limit(3.0);
        let set = discover(&rel, &cfg);
        for rfd in set.iter() {
            if rfd.rhs_attr() == 1 {
                assert!(holds(&rel, rfd));
            }
        }
        // In particular A(≤0) → B(≤3) must NOT be discovered.
        assert!(!set
            .iter()
            .any(|r| r.rhs_attr() == 1 && r.lhs_attrs() == vec![0] && r.rhs_threshold() <= 3.0));
    }

    #[test]
    fn rfd_count_grows_with_limit() {
        let rel = two_col(&[(1, 10), (2, 12), (3, 14), (8, 30), (9, 31), (15, 60), (16, 62)]);
        let count = |limit: f64| {
            let cfg = DiscoveryConfig::with_limit(limit);
            discover(&rel, &cfg).len()
        };
        assert!(count(3.0) <= count(9.0));
        assert!(count(9.0) <= count(15.0));
    }

    #[test]
    fn deterministic_with_sampling() {
        let rows: Vec<(i64, i64)> = (0..60).map(|i| (i, 2 * i)).collect();
        let rel = two_col(&rows);
        let cfg = DiscoveryConfig {
            max_pairs: 100,
            ..DiscoveryConfig::with_limit(5.0)
        };
        let a = discover(&rel, &cfg);
        let b = discover(&rel, &cfg);
        let schema = rel.schema();
        assert_eq!(a.to_text(schema), b.to_text(schema));
    }

    #[test]
    fn trivial_relations_yield_empty() {
        let schema = Schema::new([("A", AttrType::Int)]).unwrap();
        let rel = Relation::new(schema, vec![vec![Value::Int(1)]]).unwrap();
        assert!(discover(&rel, &DiscoveryConfig::default()).is_empty());
    }

    #[test]
    fn one_row_relation_terminates_with_valid_frontier() {
        // Regression: a single row yields zero tuple pairs — the lattice
        // walk must terminate immediately with an empty frontier, not
        // index into an empty pattern table or loop.
        let schema = Schema::new([("A", AttrType::Int), ("B", AttrType::Text)]).unwrap();
        let rel =
            Relation::new(schema, vec![vec![Value::Int(1), "x".into()]]).unwrap();
        let out = discover_outcome(&rel, &DiscoveryConfig::default());
        assert!(out.rfds.is_empty());
        assert!(!out.truncated);
    }

    #[test]
    fn all_null_column_terminates_with_holding_frontier() {
        // Regression: a column that is null on every row produces MISSING
        // in every pattern coordinate. It can never witness a violation,
        // so discovery must terminate and everything it emits must hold.
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("AllNull", AttrType::Text),
            ("B", AttrType::Int),
        ])
        .unwrap();
        let rows: Vec<_> = (0..6i64)
            .map(|i| vec![Value::Int(i), Value::Null, Value::Int(2 * i)])
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        let cfg = DiscoveryConfig::with_limit(3.0);
        let out = discover_outcome(&rel, &cfg);
        assert!(!out.truncated);
        for rfd in out.rfds.iter() {
            assert!(holds(&rel, rfd), "{rfd:?}");
        }
    }

    #[test]
    fn exhausted_budget_still_yields_partial_frontier() {
        // A zero operation budget: the first pattern stride and the first
        // lattice cell still run, so the outcome is a non-empty truncated
        // frontier — never an unbounded run, never nothing.
        let rows: Vec<(i64, i64)> = (0..30).map(|i| (i, 2 * i)).collect();
        let rel = two_col(&rows);
        let cfg = DiscoveryConfig {
            budget: Budget::unlimited().with_ops_limit(0),
            ..DiscoveryConfig::with_limit(5.0)
        };
        // One thread: cells run, and check the budget, in lattice order.
        let out = pool(1).install(|| discover_outcome(&rel, &cfg));
        assert!(out.truncated, "zero budget must report truncation");
        assert!(!out.rfds.is_empty(), "first lattice cell must still emit");
        assert_eq!(out.budget.tripped, Some(renuver_budget::BudgetTrip::Ops));
    }

    #[test]
    fn budgeted_discovery_is_deterministic_when_sequential() {
        let rows: Vec<(i64, i64)> = (0..40).map(|i| (i % 11, (i * 3) % 13)).collect();
        let rel = two_col(&rows);
        let run = || {
            let cfg = DiscoveryConfig {
                budget: Budget::unlimited().with_ops_limit(10),
                ..DiscoveryConfig::with_limit(5.0)
            };
            let out = pool(1).install(|| discover_outcome(&rel, &cfg));
            (out.rfds.to_text(rel.schema()), out.truncated)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unlimited_budget_reports_untruncated() {
        let rel = two_col(&[(1, 10), (2, 11), (3, 12)]);
        let cfg = DiscoveryConfig::with_limit(3.0);
        let out = discover_outcome(&rel, &cfg);
        assert!(!out.truncated);
        assert_eq!(out.budget.tripped, None);
        assert_eq!(out.rfds.to_text(rel.schema()), discover(&rel, &cfg).to_text(rel.schema()));
    }

    /// Brute force over the full grid: every feasible α, then filter to
    /// the maximal ones. Only viable for tiny grids/dimensions.
    fn maximal_alphas_brute(points: &[Vec<u16>], k: usize, limit: u16) -> Vec<Vec<u16>> {
        fn enumerate(k: usize, limit: u16) -> Vec<Vec<u16>> {
            if k == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for rest in enumerate(k - 1, limit) {
                for v in 0..=limit {
                    let mut a = rest.clone();
                    a.push(v);
                    out.push(a);
                }
            }
            out
        }
        let feasible: Vec<Vec<u16>> = enumerate(k, limit)
            .into_iter()
            .filter(|a| {
                !points
                    .iter()
                    .any(|p| p.iter().zip(a).all(|(pc, ac)| pc <= ac))
            })
            .collect();
        feasible
            .iter()
            .filter(|a| {
                !feasible.iter().any(|b| {
                    *a != b && a.iter().zip(b).all(|(ac, bc)| ac <= bc)
                })
            })
            .cloned()
            .collect()
    }

    #[test]
    fn maximal_alphas_matches_brute_force() {
        // Deterministic pseudo-random point sets in 1–3 dimensions.
        let mut rng = SplitMix64(99);
        for k in 1..=3usize {
            for limit in [2u16, 4, 6] {
                for _case in 0..40 {
                    let n_points = (rng.below(5) + 1) as usize;
                    let mut minimal = MinimalPoints::new();
                    for _ in 0..n_points {
                        let p: Vec<u16> = (0..k)
                            .map(|_| rng.below(limit as u64 + 1) as u16)
                            .collect();
                        minimal.insert(&p);
                    }
                    let mut fast = maximal_alphas(&minimal.points, k, &vec![limit; k]);
                    let mut brute = maximal_alphas_brute(&minimal.points, k, limit);
                    fast.sort();
                    brute.sort();
                    assert_eq!(
                        fast, brute,
                        "k={k} limit={limit} points={:?}",
                        minimal.points
                    );
                }
            }
        }
    }

    #[test]
    fn three_attribute_lhs_discovered_when_needed() {
        // C is determined only by the *combination* of A1, A2, A3 at
        // distance 0 — single- and two-attribute LHSs all have violating
        // pairs, so a 3-attribute RFD must appear (max_lhs = 3).
        let schema = Schema::new([
            ("A1", AttrType::Int),
            ("A2", AttrType::Int),
            ("A3", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        // Rows: every pair of rows agrees on at most 2 of the A's unless
        // they agree on all 3 (and then C agrees).
        let rows = vec![
            vec![Value::Int(0), Value::Int(0), Value::Int(0), Value::Int(10)],
            vec![Value::Int(0), Value::Int(0), Value::Int(0), Value::Int(10)],
            vec![Value::Int(0), Value::Int(0), Value::Int(9), Value::Int(90)],
            vec![Value::Int(0), Value::Int(9), Value::Int(0), Value::Int(50)],
            vec![Value::Int(9), Value::Int(0), Value::Int(0), Value::Int(70)],
        ];
        let rel = Relation::new(schema, rows).unwrap();
        let cfg = DiscoveryConfig::with_limit(3.0);
        let set = discover(&rel, &cfg);
        assert!(
            set.iter().any(|r| r.rhs_attr() == 3 && r.lhs_attrs() == vec![0, 1, 2]),
            "missing 3-attribute RFD in {}",
            set.to_text(rel.schema())
        );
        for rfd in set.iter() {
            assert!(holds(&rel, rfd));
        }
    }

    #[test]
    fn per_attribute_limits_cap_thresholds() {
        let rel = two_col(&[(1, 10), (2, 12), (3, 14), (8, 30), (9, 31)]);
        let cfg = DiscoveryConfig {
            per_attr_limits: Some(vec![2.0, 6.0]),
            ..DiscoveryConfig::with_limit(10.0)
        };
        let set = discover(&rel, &cfg);
        assert!(!set.is_empty());
        for rfd in set.iter() {
            for c in rfd.lhs() {
                let cap = [2.0, 6.0][c.attr];
                assert!(c.threshold <= cap, "{rfd:?} exceeds LHS cap");
            }
            let cap = [2.0, 6.0][rfd.rhs_attr()];
            assert!(rfd.rhs_threshold() <= cap, "{rfd:?} exceeds RHS cap");
            assert!(holds(&rel, rfd));
        }
    }

    #[test]
    fn per_attribute_limits_fall_back_to_global() {
        // A shorter vector than the arity: the missing entry uses `limit`.
        let rel = two_col(&[(1, 10), (2, 12), (3, 14)]);
        let cfg = DiscoveryConfig {
            per_attr_limits: Some(vec![1.0]), // only attr 0 capped
            ..DiscoveryConfig::with_limit(5.0)
        };
        let set = discover(&rel, &cfg);
        for rfd in set.iter() {
            for c in rfd.lhs() {
                if c.attr == 0 {
                    assert!(c.threshold <= 1.0);
                } else {
                    assert!(c.threshold <= 5.0);
                }
            }
        }
    }

    #[test]
    fn auto_limits_scale_with_spread() {
        use renuver_data::AttrType;
        let schema = Schema::new([
            ("Wide", AttrType::Int),
            ("Narrow", AttrType::Int),
            ("Text", AttrType::Text),
            ("Flag", AttrType::Bool),
        ])
        .unwrap();
        let rel = Relation::new(
            schema,
            vec![
                vec![Value::Int(0), Value::Int(5), "abcdefgh".into(), Value::Bool(true)],
                vec![Value::Int(1000), Value::Int(7), "ab".into(), Value::Bool(false)],
            ],
        )
        .unwrap();
        let limits = auto_limits(&rel, 0.1);
        assert_eq!(limits[0], 100.0); // 10% of range 1000
        assert_eq!(limits[1], 1.0); // 10% of range 2, clamped to >= 1
        assert_eq!(limits[2], 1.0); // 10% of max length 8 -> 0.8 -> clamp 1
        assert_eq!(limits[3], 1.0); // booleans
        let wider = auto_limits(&rel, 0.5);
        assert_eq!(wider[0], 255.0); // 500 capped at the grid bound
        assert_eq!(wider[2], 4.0);
    }

    #[test]
    fn auto_limits_feed_discovery() {
        let rel = two_col(&[(1, 10), (2, 12), (3, 14), (80, 300), (90, 310)]);
        let cfg = DiscoveryConfig {
            per_attr_limits: Some(auto_limits(&rel, 0.05)),
            ..DiscoveryConfig::with_limit(3.0)
        };
        let set = discover(&rel, &cfg);
        for rfd in set.iter() {
            assert!(holds(&rel, rfd), "{rfd:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let schema = Schema::new([
            ("A", AttrType::Int),
            ("B", AttrType::Int),
            ("C", AttrType::Int),
        ])
        .unwrap();
        let rows: Vec<_> = (0..20i64)
            .map(|i| vec![Value::Int(i), Value::Int(i / 2), Value::Int(i * 3 % 7)])
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        let cfg = DiscoveryConfig::with_limit(4.0);
        let run = |threads: usize| -> Vec<String> {
            let set = pool(threads).install(|| discover(&rel, &cfg));
            set.iter().map(|r| format!("{r:?}")).collect()
        };
        let mut a = run(1);
        let mut b = run(2);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
