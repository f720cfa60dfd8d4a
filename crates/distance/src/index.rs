//! Similarity indexes: "all rows within threshold `t` of row `r`'s value
//! on attribute `A`" without a full scan.
//!
//! Candidate generation, key detection, and verification all reduce to
//! that one query shape, resolved so far by scanning every row per missing
//! cell. The [`SimilarityIndex`] answers it per attribute:
//!
//! - **Numeric columns** keep a `(value, row)` list sorted by value; an
//!   `|a − b| ≤ t` predicate becomes a binary-search range query over
//!   `[v − t, v + t]`.
//! - **Text columns** keep the dictionary encoding (reusing the
//!   [`DistanceOracle`]'s interning when present), per-value character
//!   lengths, and a positional-q-gram-free inverted index from q-grams to
//!   the dictionary codes containing them. A query enumerates the codes
//!   sharing enough q-grams with the query value (count filtering) and
//!   length-filters them; no edit distance is computed at query time —
//!   the caller's exact check decides each surviving row.
//!
//! ## The superset contract
//!
//! [`SimilarityIndex::rows_within`] returns a **superset** of the rows
//! whose value is within the threshold (plus possibly the query row
//! itself), in ascending row order — never a subset. Callers always
//! re-check each returned row with the same exact predicate the scan path
//! uses (`DistanceOracle::distance_bounded` or the pair checks built on
//! it), so the indexed paths produce bit-for-bit identical results by
//! construction: the index only decides which rows are *worth* the exact
//! check. Those re-checks inherit the kernel dispatch in
//! [`crate::functions`]: matrix-backed attributes answer from the
//! Myers-filled dictionary matrix, and foreign/overflow rows run the
//! dispatched bounded kernel directly — so accelerating the kernels
//! speeds up the index's re-check path without touching this module's
//! pruning logic (`tests/kernel_parity.rs` pins the kernels themselves). Values the index cannot reason about (post-update values outside
//! the dictionary, non-text values in a text column) are always included.
//! The differential harness in `tests/index_differential.rs` asserts the
//! equivalence end to end.
//!
//! Construction is budget-aware: [`SimilarityIndex::build_budgeted`]
//! degrades per attribute to the unindexed state when the budget trips,
//! and every consumer falls back to its scan path for unindexed
//! attributes.

use std::collections::HashMap;

use renuver_budget::Budget;
use renuver_data::{AttrId, AttrType, Relation};
use renuver_obs::{Counter, FieldValue, Histogram, Metrics, Tracer};

use crate::oracle::{DistanceOracle, RowCode};

/// q-gram width for the text inverted index. Each edit operation destroys
/// at most `q` of a string's `len − q + 1` grams, which gives the count
/// filter its bound (see [`TextIndex::codes_within`]).
const QGRAM: usize = 2;

/// Values longer than this never get a gram profile: profiling a
/// megabyte-scale cell costs more than the banded verification it would
/// save. Such values sit on the `ungrammed` side list and are length-
/// filtered + verified on every query instead.
const MAX_GRAM_CHARS: usize = 4096;

/// How many dictionary values to profile between budget checks.
const BUILD_CHECK_STRIDE: usize = 256;

/// Sentinel row code: the cell is missing.
const NO_CODE: u32 = u32::MAX;
/// Sentinel row code: post-update value outside the dictionary.
const FOREIGN_CODE: u32 = u32::MAX - 1;

/// Probe/decline/superset-size statistics for one index, registered
/// against a [`Metrics`] registry. Declines are split by *which* cutoff
/// fired — the selectivity cutoff (superset too large to beat a scan),
/// the weak-filter heuristic (gram bound too loose to be worth
/// counting), an effectively unbounded threshold, or an attribute that
/// was never indexed — because they call for different tuning.
#[derive(Debug, Clone)]
pub struct IndexStats {
    /// `rows_within` calls.
    pub probes: Counter,
    /// Probes answered with a superset.
    pub answered: Counter,
    /// Declines from the selectivity cutoff (estimated superset covered
    /// more than half the relation).
    pub declined_selectivity: Counter,
    /// Declines from the weak-filter heuristic (< ⅓ of the query's
    /// grams would have to survive).
    pub declined_weak_filter: Counter,
    /// Declines because the threshold was effectively unbounded.
    pub declined_unbounded: Counter,
    /// Declines because the attribute has no index (boolean columns,
    /// budget-degraded builds).
    pub declined_unindexed: Counter,
    /// Sizes of the supersets actually returned.
    pub superset_rows: Histogram,
}

impl IndexStats {
    /// Creates (or re-attaches to) the index's instruments in `metrics`.
    pub fn register(metrics: &Metrics) -> Self {
        IndexStats {
            probes: metrics.counter("index.probes"),
            answered: metrics.counter("index.answered"),
            declined_selectivity: metrics.counter("index.declined_selectivity"),
            declined_weak_filter: metrics.counter("index.declined_weak_filter"),
            declined_unbounded: metrics.counter("index.declined_unbounded"),
            declined_unindexed: metrics.counter("index.declined_unindexed"),
            superset_rows: metrics.histogram("index.superset_rows"),
        }
    }

    fn decline(&self, reason: &'static str) {
        match reason {
            SELECTIVITY => self.declined_selectivity.inc(),
            WEAK_FILTER => self.declined_weak_filter.inc(),
            UNBOUNDED => self.declined_unbounded.inc(),
            _ => self.declined_unindexed.inc(),
        }
    }
}

/// Decline reasons threaded out of the per-attribute query paths so the
/// stats can attribute each `None` to the cutoff that produced it.
const SELECTIVITY: &str = "selectivity";
const WEAK_FILTER: &str = "weak_filter";
const UNBOUNDED: &str = "unbounded";
const UNINDEXED: &str = "unindexed";

/// Per-attribute similarity index (see module docs).
pub struct SimilarityIndex {
    attrs: Vec<AttrIndex>,
    /// Probe statistics; `None` (the default) keeps queries at a single
    /// extra branch.
    stats: Option<IndexStats>,
}

enum AttrIndex {
    /// No index for this attribute — consumers take their scan paths.
    /// Covers boolean columns (an equality predicate over ≤ 2 values has
    /// nothing to prune) and budget-degraded builds.
    Unindexed,
    Numeric(NumericIndex),
    // Boxed: a TextIndex is an order of magnitude larger than the other
    // variants, and mixed-type schemas would pay its footprint per column.
    Text(Box<TextIndex>),
}

/// Sorted-value index for `|a − b| ≤ t` range queries.
struct NumericIndex {
    /// `(value, row)` sorted by value (total order), then row. Rows whose
    /// cell is missing or not numeric (including NaN, which no absolute-
    /// difference predicate ever matches) are absent.
    entries: Vec<(f64, usize)>,
    /// Current value per row, for removal on update and query-value lookup.
    row_vals: Vec<Option<f64>>,
}

/// Length filter + q-gram count filter + banded verification for edit
/// distance.
struct TextIndex {
    /// Value → dictionary code.
    value_index: HashMap<String, u32>,
    /// Code → value (the dictionary itself).
    values: Vec<String>,
    /// Code → value length in chars.
    lens: Vec<u32>,
    /// Code → q-gram multiset profile; `None` for values shorter than
    /// `QGRAM` chars or longer than `MAX_GRAM_CHARS`.
    grams: Vec<Option<HashMap<u64, u32>>>,
    /// Codes without a gram profile — checked by length filter on every
    /// counting-mode query (they can never surface through the inverted
    /// index).
    ungrammed: Vec<u32>,
    /// Gram → `(code, multiplicity)` postings.
    inverted: HashMap<u64, Vec<(u32, u32)>>,
    /// Code → rows currently holding that value, ascending.
    postings: Vec<Vec<usize>>,
    /// Rows holding post-update values outside the dictionary, ascending.
    /// Always included in every answer — the index cannot bound their
    /// distance, the caller's exact check can.
    foreign_rows: Vec<usize>,
    /// Current code per row (`NO_CODE` / `FOREIGN_CODE` sentinels).
    row_codes: Vec<u32>,
}

impl SimilarityIndex {
    /// Builds the index for every indexable attribute of `rel`, reusing
    /// the oracle's dictionary encoding for text columns that have one.
    pub fn build(rel: &Relation, oracle: &DistanceOracle) -> Self {
        Self::build_budgeted(rel, oracle, &Budget::unlimited())
    }

    /// [`SimilarityIndex::build`] under a [`Budget`]: once the budget
    /// trips, the remaining attributes stay [unindexed](AttrIndex::Unindexed)
    /// and their consumers fall back to the scan path — results are
    /// unchanged, only the pruning is lost.
    pub fn build_budgeted(rel: &Relation, oracle: &DistanceOracle, budget: &Budget) -> Self {
        Self::build_traced(rel, oracle, budget, &Tracer::disabled())
    }

    /// [`SimilarityIndex::build_budgeted`] with tracing: opens a
    /// `distance::index_build` span (matching the budget phase label),
    /// emits one `index_attr` event per attribute with the layout it
    /// ended up with, and attaches [`IndexStats`] to the tracer's metrics
    /// registry. With a disabled tracer this is exactly
    /// `build_budgeted`.
    pub fn build_traced(
        rel: &Relation,
        oracle: &DistanceOracle,
        budget: &Budget,
        tracer: &Tracer,
    ) -> Self {
        let span = tracer.span("distance::index_build");
        let attrs: Vec<AttrIndex> = (0..rel.arity())
            .map(|attr| {
                if budget.check("distance::index_build").is_err() {
                    return AttrIndex::Unindexed;
                }
                match rel.schema().ty(attr) {
                    AttrType::Int | AttrType::Float => {
                        AttrIndex::Numeric(NumericIndex::build(rel, attr))
                    }
                    AttrType::Text => match TextIndex::build(rel, oracle, attr, budget) {
                        Some(ix) => AttrIndex::Text(Box::new(ix)),
                        None => AttrIndex::Unindexed,
                    },
                    AttrType::Bool => AttrIndex::Unindexed,
                }
            })
            .collect();
        for (attr, ix) in attrs.iter().enumerate() {
            let mode = match ix {
                AttrIndex::Unindexed => "unindexed",
                AttrIndex::Numeric(_) => "numeric",
                AttrIndex::Text(_) => "text",
            };
            span.event("index_attr", || {
                vec![("attr", FieldValue::U64(attr as u64)), ("mode", FieldValue::Str(mode))]
            });
        }
        let stats = tracer.is_enabled().then(|| IndexStats::register(&tracer.metrics()));
        SimilarityIndex { attrs, stats }
    }

    /// Attaches (or detaches) probe statistics after construction.
    pub fn set_stats(&mut self, stats: Option<IndexStats>) {
        self.stats = stats;
    }

    /// `true` iff queries on `attr` are index-accelerated.
    pub fn is_indexed(&self, attr: AttrId) -> bool {
        !matches!(self.attrs[attr], AttrIndex::Unindexed)
    }

    /// Number of indexed attributes (for reporting and tests).
    pub fn indexed_attr_count(&self) -> usize {
        (0..self.attrs.len()).filter(|&a| self.is_indexed(a)).count()
    }

    /// A superset of the rows whose value on `attr` is within `threshold`
    /// of `rel[row][attr]`, ascending (the query row itself may appear).
    /// `None` when the attribute is not indexed **or** the superset would
    /// cover more than half the relation — pruning that weak costs more
    /// (expansion, sorting, merging) than the scan it replaces, so the
    /// caller must scan. See the module docs for the exact contract.
    pub fn rows_within(
        &self,
        rel: &Relation,
        attr: AttrId,
        row: usize,
        threshold: f64,
    ) -> Option<Vec<usize>> {
        if let Some(s) = &self.stats {
            s.probes.inc();
        }
        let outcome = match &self.attrs[attr] {
            AttrIndex::Unindexed => Err(UNINDEXED),
            AttrIndex::Numeric(ix) => ix.rows_within(row, threshold, rel.len()),
            AttrIndex::Text(ix) => ix.rows_within(rel, attr, row, threshold),
        };
        match outcome {
            Ok(rows) => {
                if let Some(s) = &self.stats {
                    s.answered.inc();
                    s.superset_rows.observe(rows.len() as u64);
                }
                Some(rows)
            }
            Err(reason) => {
                if let Some(s) = &self.stats {
                    s.decline(reason);
                }
                None
            }
        }
    }

    /// Re-indexes a cell after its value changed (e.g. an imputation).
    /// Must be called alongside [`DistanceOracle::update_cell`] whenever
    /// the relation the index was built from is mutated.
    pub fn update_cell(&mut self, rel: &Relation, row: usize, attr: AttrId) {
        match &mut self.attrs[attr] {
            AttrIndex::Unindexed => {}
            AttrIndex::Numeric(ix) => ix.update_cell(rel, row, attr),
            AttrIndex::Text(ix) => ix.update_cell(rel, row, attr),
        }
    }

    /// Extends the index to cover a freshly appended row of `rel`. Text
    /// dictionaries never grow: an appended value outside the dictionary
    /// joins the foreign-row list, which every answer includes — so
    /// [`SimilarityIndex::rows_within`] keeps its superset contract and
    /// consumers decide exactly as they would against a rebuilt index.
    /// Rows must be appended in order; undo with
    /// [`SimilarityIndex::truncate_rows`].
    pub fn append_row(&mut self, rel: &Relation, row: usize) {
        for (attr, ix) in self.attrs.iter_mut().enumerate() {
            match ix {
                AttrIndex::Unindexed => {}
                AttrIndex::Numeric(ix) => ix.append_row(rel, row, attr),
                AttrIndex::Text(ix) => ix.append_row(rel, row, attr),
            }
        }
    }

    /// Permanently adopts rows `base..rel.len()` into the index, growing
    /// each text column's dictionary (and its derived q-gram layers) to
    /// cover their values — the *commit* counterpart of the transient
    /// [`SimilarityIndex::append_row`]. After the commit no committed row
    /// is foreign: each one sits in a real posting list, exactly as a
    /// from-scratch build over the grown relation would place it
    /// (`tests/ingest_differential.rs` pins snapshot equality).
    ///
    /// The code assignment matches a rebuild for the same reason the
    /// oracle's [`DistanceOracle::commit_rows`] does: new values first
    /// appear after every reference row, so first-occurrence interning
    /// hands them codes `≥ k` in the same order either way — whether the
    /// rebuild copies the oracle's (also committed) dictionary or
    /// re-interns the column itself. Numeric attributes need no commit
    /// step: [`SimilarityIndex::append_row`] already inserts their
    /// entries at the exact sorted position a rebuild would.
    ///
    /// Requires every committed row to already be covered by
    /// [`SimilarityIndex::append_row`].
    pub fn commit_rows(&mut self, rel: &Relation, base: usize) {
        for (attr, ix) in self.attrs.iter_mut().enumerate() {
            if let AttrIndex::Text(ix) = ix {
                ix.commit_rows(rel, base, attr);
            }
        }
    }

    /// Drops every row `≥ len` from the per-row state and posting lists —
    /// the inverse of [`SimilarityIndex::append_row`].
    pub fn truncate_rows(&mut self, len: usize) {
        for ix in &mut self.attrs {
            match ix {
                AttrIndex::Unindexed => {}
                AttrIndex::Numeric(ix) => ix.truncate_rows(len),
                AttrIndex::Text(ix) => ix.truncate_rows(len),
            }
        }
    }

    /// The per-attribute posting state as plain data — see
    /// [`AttrSnapshot`]. Two indexes with equal snapshots answer every
    /// probe identically.
    pub fn to_snapshot(&self) -> Vec<AttrSnapshot> {
        self.attrs
            .iter()
            .map(|ix| match ix {
                AttrIndex::Unindexed => AttrSnapshot::Unindexed,
                AttrIndex::Numeric(ix) => AttrSnapshot::Numeric { entries: ix.entries.clone() },
                AttrIndex::Text(ix) => AttrSnapshot::Text {
                    values: ix.values.clone(),
                    row_codes: ix.row_codes.clone(),
                },
            })
            .collect()
    }
}

/// Plain-data view of one attribute's index, exposed so tests can compare
/// indexes built different ways (an incrementally committed one against a
/// rebuild).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrSnapshot {
    /// No index for this attribute.
    Unindexed,
    /// Sorted-value range index: `(value, row)` sorted by value then row.
    Numeric {
        /// The sorted entry list (rows with missing/NaN cells absent).
        entries: Vec<(f64, usize)>,
    },
    /// Text index: the dictionary plus the per-row code assignment; the
    /// q-gram layers are pure functions of the dictionary.
    Text {
        /// Code → value.
        values: Vec<String>,
        /// Current code per row (`u32::MAX` = missing, `u32::MAX - 1` =
        /// value outside the dictionary).
        row_codes: Vec<u32>,
    },
}

impl NumericIndex {
    fn build(rel: &Relation, attr: AttrId) -> NumericIndex {
        let mut row_vals = Vec::with_capacity(rel.len());
        let mut entries = Vec::new();
        for row in 0..rel.len() {
            let v = rel.value(row, attr).as_f64().filter(|v| !v.is_nan());
            if let Some(v) = v {
                entries.push((v, row));
            }
            row_vals.push(v);
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        NumericIndex { entries, row_vals }
    }

    /// `Err` carries the decline reason (see the reason constants).
    fn rows_within(&self, row: usize, thr: f64, n_rows: usize) -> Result<Vec<usize>, &'static str> {
        // A missing/non-numeric/NaN query value matches nothing; so do NaN
        // and negative thresholds (distances are non-negative or NaN, and
        // `d ≤ t` is false either way) — all exactly as the scan decides.
        let Some(v) = self.row_vals[row] else { return Ok(Vec::new()) };
        if thr.is_nan() || thr < 0.0 {
            return Ok(Vec::new());
        }
        let (start, end) = if thr == f64::INFINITY {
            // Every present value is a candidate (the exact check still
            // rejects pairs whose difference is NaN, e.g. ∞ vs ∞).
            (0, self.entries.len())
        } else {
            let (lo, hi) = (v - thr, v + thr);
            // The entries are sorted by `total_cmp`, which only disagrees
            // with the IEEE `<` used here on -0.0/0.0 ties — where both
            // predicates are constant across the tie, so partition_point
            // stays valid.
            (
                self.entries.partition_point(|&(x, _)| x < lo),
                self.entries.partition_point(|&(x, _)| x <= hi),
            )
        };
        // Selectivity cutoff: a range covering most of the relation prunes
        // nothing worth the sort below.
        if 2 * (end - start) > n_rows {
            return Err(SELECTIVITY);
        }
        let mut rows: Vec<usize> =
            self.entries[start..end].iter().map(|&(_, r)| r).collect();
        rows.sort_unstable();
        Ok(rows)
    }

    fn append_row(&mut self, rel: &Relation, row: usize, attr: AttrId) {
        debug_assert_eq!(self.row_vals.len(), row, "rows must append in order");
        let v = rel.value(row, attr).as_f64().filter(|v| !v.is_nan());
        self.row_vals.push(v);
        if let Some(v) = v {
            if let Err(pos) = self
                .entries
                .binary_search_by(|&(x, r)| x.total_cmp(&v).then(r.cmp(&row)))
            {
                self.entries.insert(pos, (v, row));
            }
        }
    }

    fn truncate_rows(&mut self, len: usize) {
        for row in len..self.row_vals.len() {
            if let Some(old) = self.row_vals[row] {
                if let Ok(pos) = self
                    .entries
                    .binary_search_by(|&(x, r)| x.total_cmp(&old).then(r.cmp(&row)))
                {
                    self.entries.remove(pos);
                }
            }
        }
        self.row_vals.truncate(len);
    }

    fn update_cell(&mut self, rel: &Relation, row: usize, attr: AttrId) {
        let new = rel.value(row, attr).as_f64().filter(|v| !v.is_nan());
        let old = std::mem::replace(&mut self.row_vals[row], new);
        if let Some(old) = old {
            if let Ok(pos) = self
                .entries
                .binary_search_by(|&(x, r)| x.total_cmp(&old).then(r.cmp(&row)))
            {
                self.entries.remove(pos);
            }
        }
        if let Some(new) = new {
            if let Err(pos) = self
                .entries
                .binary_search_by(|&(x, r)| x.total_cmp(&new).then(r.cmp(&row)))
            {
                self.entries.insert(pos, (new, row));
            }
        }
    }
}

/// The q-gram multiset profile of `chars`, as `(c1 << 32) | c2` keys →
/// multiplicities. `None` when the value is too short to have a gram or
/// too long to be worth profiling.
fn gram_profile(chars_len: usize, s: &str) -> Option<HashMap<u64, u32>> {
    if !(QGRAM..=MAX_GRAM_CHARS).contains(&chars_len) {
        return None;
    }
    let mut profile: HashMap<u64, u32> = HashMap::with_capacity(chars_len);
    let mut prev: Option<char> = None;
    for c in s.chars() {
        if let Some(p) = prev {
            *profile.entry(((p as u64) << 32) | c as u64).or_insert(0) += 1;
        }
        prev = Some(c);
    }
    Some(profile)
}

impl TextIndex {
    /// Builds the text index; `None` when the budget trips mid-build (the
    /// attribute then stays unindexed — a half-built inverted index would
    /// silently drop candidates).
    fn build(
        rel: &Relation,
        oracle: &DistanceOracle,
        attr: AttrId,
        budget: &Budget,
    ) -> Option<TextIndex> {
        let n = rel.len();
        // Dictionary: reuse the oracle's interning when the column has one
        // (the common case); degraded/over-cap columns are re-interned here
        // — the index has no quadratic matrix fill, so no cap applies.
        let (value_index, row_codes) = match oracle.dictionary(attr) {
            Some((map, codes)) => {
                let value_index = map.clone();
                let row_codes = codes
                    .into_iter()
                    .map(|c| match c {
                        RowCode::Code(c) => c,
                        RowCode::Null => NO_CODE,
                        RowCode::Foreign => FOREIGN_CODE,
                    })
                    .collect();
                (value_index, row_codes)
            }
            None => {
                let mut value_index: HashMap<String, u32> = HashMap::new();
                let mut row_codes = Vec::with_capacity(n);
                for row in 0..n {
                    match rel.value(row, attr).as_text() {
                        None => row_codes.push(NO_CODE),
                        Some(s) => {
                            let next = value_index.len() as u32;
                            row_codes
                                .push(*value_index.entry(s.to_owned()).or_insert(next));
                        }
                    }
                }
                (value_index, row_codes)
            }
        };
        let k = value_index.len();
        let mut values = vec![String::new(); k];
        for (s, &c) in &value_index {
            values[c as usize] = s.clone();
        }
        let mut postings = vec![Vec::new(); k];
        let mut foreign_rows = Vec::new();
        for (row, &code) in row_codes.iter().enumerate() {
            match code {
                NO_CODE => {}
                FOREIGN_CODE => foreign_rows.push(row),
                c => postings[c as usize].push(row),
            }
        }
        let mut lens = Vec::with_capacity(k);
        let mut grams = Vec::with_capacity(k);
        let mut ungrammed = Vec::new();
        let mut inverted: HashMap<u64, Vec<(u32, u32)>> = HashMap::new();
        for (code, value) in values.iter().enumerate() {
            if code % BUILD_CHECK_STRIDE == BUILD_CHECK_STRIDE - 1
                && budget.check("distance::index_build").is_err()
            {
                return None;
            }
            let len = value.chars().count();
            lens.push(len as u32);
            let profile = gram_profile(len, value);
            match &profile {
                None => ungrammed.push(code as u32),
                Some(p) => {
                    for (&g, &count) in p {
                        inverted.entry(g).or_default().push((code as u32, count));
                    }
                }
            }
            grams.push(profile);
        }
        Some(TextIndex {
            value_index,
            values,
            lens,
            grams,
            ungrammed,
            inverted,
            postings,
            foreign_rows,
            row_codes,
        })
    }

    /// `Err` carries the decline reason (see the reason constants).
    fn rows_within(
        &self,
        rel: &Relation,
        attr: AttrId,
        row: usize,
        thr: f64,
    ) -> Result<Vec<usize>, &'static str> {
        let code = self.row_codes[row];
        if code == NO_CODE {
            // A missing query value matches nothing (the scan agrees:
            // `distance_bounded` is `None` on a null side).
            return Ok(Vec::new());
        }
        // Floor to an integer edit bound, NaN/negative → 0: the candidate
        // set stays a superset of whatever the exact check accepts (which
        // is nothing at a NaN or negative bound).
        let t = thr.floor().max(0.0);
        if t >= u32::MAX as f64 {
            // Effectively unbounded: every dictionary value qualifies, so
            // the index prunes nothing.
            return Err(UNBOUNDED);
        }
        let codes = if code == FOREIGN_CODE {
            match rel.value(row, attr).as_text() {
                // Non-text value in a text column: the exact check answers
                // `None` for every pair, so the empty set is exact.
                None => return Ok(Vec::new()),
                Some(s) => {
                    let len = s.chars().count();
                    self.codes_within(len, gram_profile(len, s).as_ref(), t as usize)
                        .ok_or(WEAK_FILTER)?
                }
            }
        } else {
            let c = code as usize;
            self.codes_within(self.lens[c] as usize, self.grams[c].as_ref(), t as usize)
                .ok_or(WEAK_FILTER)?
        };
        // Selectivity cutoff, decided before any expansion: when the
        // surviving postings cover most of the relation (the count filter
        // is at its theoretical bound for wide thresholds on short
        // strings), the expansion + sort + merge costs more than the scan
        // it would replace.
        let estimate: usize = codes
            .iter()
            .map(|&c| self.postings[c as usize].len())
            .sum::<usize>()
            + self.foreign_rows.len();
        if 2 * estimate > rel.len() {
            return Err(SELECTIVITY);
        }
        let mut rows: Vec<usize> = codes
            .iter()
            .flat_map(|&c| self.postings[c as usize].iter().copied())
            .collect();
        // Foreign values are unbounded by the index; include them all and
        // let the caller's exact check decide.
        rows.extend_from_slice(&self.foreign_rows);
        rows.sort_unstable();
        Ok(rows)
    }

    /// Dictionary codes whose value *may* be within edit distance `t` of
    /// the query value — a superset pruned by necessary conditions only
    /// (length gap and shared-gram count). No edit distance is computed at
    /// query time: the caller's exact check (an `O(1)` oracle matrix
    /// lookup) re-decides every returned row anyway, so banded
    /// verification here would spend a DP per code to save a lookup per
    /// row.
    ///
    /// Count-filter soundness: a string of `len` chars has `len − q + 1`
    /// q-grams, and one edit operation changes at most `q` of them, so two
    /// strings within edit distance `t` share at least
    /// `max(|G(u)|, |G(v)|) − q·t` grams (counted with multiplicity).
    /// Enumerating candidates through the inverted index is only complete
    /// when that bound is positive — i.e. every candidate must share at
    /// least one gram — otherwise the query falls back to a length-filtered
    /// scan of the dictionary (still per-*value*, not per-row).
    ///
    /// Returns `None` (decline; caller scans) when the shared-gram bound
    /// is too weak to be worth counting: if fewer than a third of the
    /// query's grams need to survive, natural data passes almost every
    /// value through the filter, and the counting pass itself becomes pure
    /// overhead on top of the scan the cutoff would force anyway. Purely a
    /// performance heuristic — `None` never affects results.
    fn codes_within(
        &self,
        qlen: usize,
        qgrams: Option<&HashMap<u64, u32>>,
        t: usize,
    ) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        let q_total = qlen.saturating_sub(QGRAM - 1);
        match qgrams {
            Some(qg) if q_total > QGRAM * t => {
                if 3 * (q_total - QGRAM * t) <= q_total {
                    return None;
                }
                // Dense per-code counters: the dictionary is small (the
                // oracle caps it) and a Vec beats hashing in the hot loop.
                let mut shared = vec![0usize; self.values.len()];
                for (g, &qcount) in qg {
                    if let Some(post) = self.inverted.get(g) {
                        for &(code, count) in post {
                            shared[code as usize] += qcount.min(count) as usize;
                        }
                    }
                }
                for (code, &s) in shared.iter().enumerate() {
                    let clen = self.lens[code] as usize;
                    if clen.abs_diff(qlen) > t {
                        continue;
                    }
                    let c_total = clen.saturating_sub(QGRAM - 1);
                    let needed = q_total.max(c_total).saturating_sub(QGRAM * t);
                    if s >= needed {
                        out.push(code as u32);
                    }
                }
                // Unprofiled values never surface through the inverted
                // index; length-filter them directly.
                for &code in &self.ungrammed {
                    if (self.lens[code as usize] as usize).abs_diff(qlen) <= t {
                        out.push(code);
                    }
                }
            }
            _ => {
                // The query value has no usable gram bound (too short, too
                // long, or t too large): length-filter the dictionary.
                for code in 0..self.values.len() as u32 {
                    if (self.lens[code as usize] as usize).abs_diff(qlen) <= t {
                        out.push(code);
                    }
                }
            }
        }
        Some(out)
    }

    fn append_row(&mut self, rel: &Relation, row: usize, attr: AttrId) {
        debug_assert_eq!(self.row_codes.len(), row, "rows must append in order");
        let code = match rel.value(row, attr).as_text() {
            None => NO_CODE,
            Some(s) => match self.value_index.get(s) {
                Some(&c) => c,
                // Never grow the dictionary on append: a foreign row is
                // included in every answer, so the superset contract (and
                // with it every consumer decision) is preserved.
                None => FOREIGN_CODE,
            },
        };
        self.row_codes.push(code);
        match code {
            NO_CODE => {}
            FOREIGN_CODE => {
                if let Err(pos) = self.foreign_rows.binary_search(&row) {
                    self.foreign_rows.insert(pos, row);
                }
            }
            c => {
                if let Err(pos) = self.postings[c as usize].binary_search(&row) {
                    self.postings[c as usize].insert(pos, row);
                }
            }
        }
    }

    /// See [`SimilarityIndex::commit_rows`]. Grows the dictionary with
    /// every new value in first-occurrence order, derives its q-gram
    /// layers (each new code lands at the *end* of its grams' inverted
    /// lists, preserving the code-ascending order a rebuild produces),
    /// and moves the committed rows out of the foreign set into their
    /// posting lists.
    fn commit_rows(&mut self, rel: &Relation, base: usize, attr: AttrId) {
        let n = rel.len();
        debug_assert_eq!(self.row_codes.len(), n, "commit_rows requires appended coverage");
        for row in base..n {
            let Some(s) = rel.value(row, attr).as_text() else {
                // Missing cell: stays NO_CODE, exactly as appended.
                continue;
            };
            let code = match self.value_index.get(s) {
                Some(&c) => c,
                None => {
                    let c = self.values.len() as u32;
                    self.value_index.insert(s.to_owned(), c);
                    self.values.push(s.to_owned());
                    let len = s.chars().count();
                    self.lens.push(len as u32);
                    let profile = gram_profile(len, s);
                    match &profile {
                        None => self.ungrammed.push(c),
                        Some(p) => {
                            for (&g, &count) in p {
                                self.inverted.entry(g).or_default().push((c, count));
                            }
                        }
                    }
                    self.grams.push(profile);
                    self.postings.push(Vec::new());
                    c
                }
            };
            let old = std::mem::replace(&mut self.row_codes[row], code);
            if old == code {
                continue;
            }
            match old {
                NO_CODE => {}
                FOREIGN_CODE => {
                    if let Ok(pos) = self.foreign_rows.binary_search(&row) {
                        self.foreign_rows.remove(pos);
                    }
                }
                c => {
                    if let Ok(pos) = self.postings[c as usize].binary_search(&row) {
                        self.postings[c as usize].remove(pos);
                    }
                }
            }
            if let Err(pos) = self.postings[code as usize].binary_search(&row) {
                self.postings[code as usize].insert(pos, row);
            }
        }
    }

    fn truncate_rows(&mut self, len: usize) {
        for row in len..self.row_codes.len() {
            match self.row_codes[row] {
                NO_CODE => {}
                FOREIGN_CODE => {
                    if let Ok(pos) = self.foreign_rows.binary_search(&row) {
                        self.foreign_rows.remove(pos);
                    }
                }
                c => {
                    if let Ok(pos) = self.postings[c as usize].binary_search(&row) {
                        self.postings[c as usize].remove(pos);
                    }
                }
            }
        }
        self.row_codes.truncate(len);
    }

    fn update_cell(&mut self, rel: &Relation, row: usize, attr: AttrId) {
        let new_code = match rel.value(row, attr).as_text() {
            None => NO_CODE,
            Some(s) => match self.value_index.get(s) {
                Some(&c) => c,
                // A value outside the dictionary (never produced by
                // RENUVER itself, which copies donor values, but external
                // callers may mutate freely): track the row as foreign
                // rather than growing the dictionary, mirroring the
                // oracle's `DIRECT_CODE` fallback.
                None => FOREIGN_CODE,
            },
        };
        let old_code = std::mem::replace(&mut self.row_codes[row], new_code);
        match old_code {
            NO_CODE => {}
            FOREIGN_CODE => {
                if let Ok(pos) = self.foreign_rows.binary_search(&row) {
                    self.foreign_rows.remove(pos);
                }
            }
            c => {
                if let Ok(pos) = self.postings[c as usize].binary_search(&row) {
                    self.postings[c as usize].remove(pos);
                }
            }
        }
        match new_code {
            NO_CODE => {}
            FOREIGN_CODE => {
                if let Err(pos) = self.foreign_rows.binary_search(&row) {
                    self.foreign_rows.insert(pos, row);
                }
            }
            c => {
                if let Err(pos) = self.postings[c as usize].binary_search(&row) {
                    self.postings[c as usize].insert(pos, row);
                }
            }
        }
    }
}

/// Intersection of two ascending row lists.
pub fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Union (deduplicated) of two ascending row lists.
pub fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!("loop condition"),
        };
        if out.last() != Some(&next) {
            out.push(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::{Schema, Value};

    fn rel(types: &[(&str, AttrType)], rows: Vec<Vec<Value>>) -> Relation {
        let schema = Schema::new(
            types.iter().map(|(n, t)| ((*n).to_owned(), *t)),
        )
        .unwrap();
        Relation::new(schema, rows).unwrap()
    }

    /// Reference implementation: the scan the index must stay a superset
    /// of (and, composed with the exact check, equal to).
    fn scan_within(
        oracle: &DistanceOracle,
        rel: &Relation,
        attr: AttrId,
        row: usize,
        thr: f64,
    ) -> Vec<usize> {
        (0..rel.len())
            .filter(|&j| oracle.distance_bounded(rel, attr, row, j, thr).is_some())
            .collect()
    }

    /// Asserts the superset contract and the filtered equality on every
    /// (row, threshold) combination for one attribute.
    fn assert_matches_scan(rel: &Relation, attr: AttrId, thresholds: &[f64]) {
        let oracle = DistanceOracle::build(rel, 3000);
        let index = SimilarityIndex::build(rel, &oracle);
        for row in 0..rel.len() {
            for &thr in thresholds {
                let scan = scan_within(&oracle, rel, attr, row, thr);
                let Some(got) = index.rows_within(rel, attr, row, thr) else {
                    continue;
                };
                assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted/dedup: {got:?}");
                for &j in &scan {
                    assert!(
                        got.contains(&j),
                        "attr {attr} row {row} thr {thr}: scan row {j} missing from {got:?}"
                    );
                }
                let filtered: Vec<usize> = got
                    .into_iter()
                    .filter(|&j| {
                        oracle.distance_bounded(rel, attr, row, j, thr).is_some()
                    })
                    .collect();
                assert_eq!(filtered, scan, "attr {attr} row {row} thr {thr}");
            }
        }
    }

    #[test]
    fn numeric_range_queries_match_scan() {
        let r = rel(
            &[("A", AttrType::Int), ("B", AttrType::Float)],
            vec![
                vec![Value::Int(5), Value::Float(1.5)],
                vec![Value::Int(-3), Value::Float(f64::NAN)],
                vec![Value::Null, Value::Float(1.5)],
                vec![Value::Int(5), Value::Float(-0.0)],
                vec![Value::Int(7), Value::Float(f64::INFINITY)],
                vec![Value::Int(0), Value::Float(2.25)],
            ],
        );
        let thresholds = [0.0, -0.0, 0.5, 2.0, 100.0, -1.0, f64::NAN, f64::INFINITY];
        assert_matches_scan(&r, 0, &thresholds);
        assert_matches_scan(&r, 1, &thresholds);
    }

    #[test]
    fn text_queries_match_scan() {
        let r = rel(
            &[("Name", AttrType::Text)],
            vec![
                vec!["Granita".into()],
                vec!["Granitas".into()],
                vec![Value::Null],
                vec!["Granita".into()],
                vec!["Fenix".into()],
                vec!["".into()],
                vec!["x".into()],
                vec!["café".into()],
                vec!["cafe".into()],
            ],
        );
        let thresholds = [0.0, 1.0, 2.5, 7.0, 100.0, -2.0, f64::NAN, f64::INFINITY];
        assert_matches_scan(&r, 0, &thresholds);
    }

    #[test]
    fn short_and_unicode_strings_never_falsely_pruned() {
        // Adversarial count-filter inputs: empty strings, strings shorter
        // than q, multibyte chars whose (c1<<32)|c2 keys must not collide.
        let r = rel(
            &[("S", AttrType::Text)],
            vec![
                vec!["".into()],
                vec!["a".into()],
                vec!["ab".into()],
                vec!["ba".into()],
                vec!["日本語".into()],
                vec!["日本".into()],
                vec!["語".into()],
                vec!["αβγδ".into()],
            ],
        );
        assert_matches_scan(&r, 0, &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn megabyte_cells_sit_on_the_ungrammed_list() {
        let big = "x".repeat(1 << 20);
        let r = rel(
            &[("Blob", AttrType::Text)],
            vec![
                vec![big.clone().into()],
                vec![format!("{big}y").into()],
                vec!["small".into()],
            ],
        );
        // Over MAX_MATRIX_VALUE_CHARS → oracle column is Direct → the index
        // interns the column itself; over MAX_GRAM_CHARS → no gram profile.
        assert_matches_scan(&r, 0, &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn commit_rows_matches_rebuild_snapshot_and_queries() {
        let mut r = rel(
            &[("Name", AttrType::Text), ("N", AttrType::Int)],
            vec![
                vec!["Granita".into(), Value::Int(5)],
                vec!["Granitas".into(), Value::Int(6)],
                vec![Value::Null, Value::Int(7)],
            ],
        );
        let oracle = DistanceOracle::build(&r, 3000);
        let mut index = SimilarityIndex::build(&r, &oracle);
        let base = r.len();
        r.push(vec!["Granita".into(), Value::Int(8)]).unwrap(); // known value
        r.push(vec!["Fenix".into(), Value::Int(9)]).unwrap(); // new value
        r.push(vec!["Fenix".into(), Value::Null]).unwrap(); // repeated new value
        r.push(vec![Value::Null, Value::Int(1)]).unwrap(); // missing cell
        r.push(vec!["x".into(), Value::Int(2)]).unwrap(); // new, too short to gram
        for row in base..r.len() {
            index.append_row(&r, row);
        }
        index.commit_rows(&r, base);
        let rebuilt = SimilarityIndex::build(&r, &DistanceOracle::build(&r, 3000));
        assert_eq!(index.to_snapshot(), rebuilt.to_snapshot());
        // No committed row is left on the foreign list, and every probe
        // answers identically to the from-scratch build.
        for attr in 0..r.arity() {
            for row in 0..r.len() {
                for thr in [0.0, 1.0, 3.0, 100.0] {
                    assert_eq!(
                        index.rows_within(&r, attr, row, thr),
                        rebuilt.rows_within(&r, attr, row, thr),
                        "attr {attr} row {row} thr {thr}"
                    );
                }
            }
        }
        // Committing again with nothing appended is a no-op.
        index.commit_rows(&r, r.len());
        assert_eq!(index.to_snapshot(), rebuilt.to_snapshot());
    }

    #[test]
    fn bool_columns_are_unindexed() {
        let r = rel(
            &[("B", AttrType::Bool)],
            vec![vec![Value::Bool(true)], vec![Value::Bool(false)]],
        );
        let oracle = DistanceOracle::build(&r, 3000);
        let index = SimilarityIndex::build(&r, &oracle);
        assert!(!index.is_indexed(0));
        assert_eq!(index.rows_within(&r, 0, 0, 1.0), None);
    }

    #[test]
    fn tripped_budget_degrades_to_unindexed() {
        let r = rel(
            &[("A", AttrType::Int), ("S", AttrType::Text)],
            vec![vec![Value::Int(1), "a".into()], vec![Value::Int(2), "b".into()]],
        );
        let oracle = DistanceOracle::build(&r, 3000);
        let budget = Budget::unlimited().with_ops_limit(0);
        let index = SimilarityIndex::build_budgeted(&r, &oracle, &budget);
        assert_eq!(index.indexed_attr_count(), 0);
        assert_eq!(index.rows_within(&r, 0, 0, 1.0), None);
        assert_eq!(index.rows_within(&r, 1, 0, 1.0), None);
    }

    #[test]
    fn update_cell_tracks_imputations_and_foreign_values() {
        // Wide enough (6 rows) that two-row answers stay under the
        // selectivity cutoff and are actually returned.
        let mut r = rel(
            &[("S", AttrType::Text), ("N", AttrType::Int)],
            vec![
                vec!["Granita".into(), Value::Int(1)],
                vec!["Granitas".into(), Value::Null],
                vec![Value::Null, Value::Int(3)],
                vec!["Fenix".into(), Value::Int(10)],
                vec!["Bistro".into(), Value::Int(20)],
                vec!["Deli".into(), Value::Int(30)],
            ],
        );
        let mut oracle = DistanceOracle::build(&r, 3000);
        let mut index = SimilarityIndex::build(&r, &oracle);
        // Imputation with an existing value: row 2 joins Granita's posting.
        r.set_value(2, 0, "Granita".into());
        oracle.update_cell(&r, 2, 0);
        index.update_cell(&r, 2, 0);
        assert_eq!(index.rows_within(&r, 0, 0, 0.0), Some(vec![0, 2]));
        // Foreign value: always included in every answer on the column.
        r.set_value(2, 0, "Zebra".into());
        oracle.update_cell(&r, 2, 0);
        index.update_cell(&r, 2, 0);
        let got = index.rows_within(&r, 0, 0, 0.0).unwrap();
        assert!(got.contains(&2), "{got:?}");
        // And a foreign *query* value still matches the scan exactly after
        // the caller's filter.
        assert_matches_scan_current(&oracle, &index, &r, 0, &[0.0, 1.0, 6.0]);
        // Numeric update.
        r.set_value(1, 1, Value::Int(2));
        oracle.update_cell(&r, 1, 1);
        index.update_cell(&r, 1, 1);
        assert_eq!(index.rows_within(&r, 1, 0, 1.0), Some(vec![0, 1]));
        // Back to null.
        r.set_value(1, 1, Value::Null);
        oracle.update_cell(&r, 1, 1);
        index.update_cell(&r, 1, 1);
        assert_eq!(index.rows_within(&r, 1, 0, 1.0), Some(vec![0]));
        assert_eq!(index.rows_within(&r, 1, 1, 100.0), Some(vec![]));
    }

    /// Like `assert_matches_scan` but against already-updated state.
    fn assert_matches_scan_current(
        oracle: &DistanceOracle,
        index: &SimilarityIndex,
        rel: &Relation,
        attr: AttrId,
        thresholds: &[f64],
    ) {
        for row in 0..rel.len() {
            for &thr in thresholds {
                let scan = scan_within(oracle, rel, attr, row, thr);
                // `None` (cutoff or unindexed) means "scan", which is
                // trivially exact.
                let Some(got) = index.rows_within(rel, attr, row, thr) else {
                    continue;
                };
                let filtered: Vec<usize> = got
                    .into_iter()
                    .filter(|&j| {
                        oracle.distance_bounded(rel, attr, row, j, thr).is_some()
                    })
                    .collect();
                assert_eq!(filtered, scan, "attr {attr} row {row} thr {thr}");
            }
        }
    }

    #[test]
    fn stats_attribute_each_decline_to_its_cutoff() {
        let r = rel(
            &[("S", AttrType::Text), ("N", AttrType::Int), ("B", AttrType::Bool)],
            vec![
                vec!["Granita".into(), Value::Int(1), Value::Bool(true)],
                vec!["Granitas".into(), Value::Int(2), Value::Bool(false)],
                vec!["Fenix".into(), Value::Int(30), Value::Bool(true)],
                vec!["Bistro".into(), Value::Int(40), Value::Bool(false)],
            ],
        );
        let oracle = DistanceOracle::build(&r, 3000);
        let tracer = Tracer::enabled();
        let index = SimilarityIndex::build_traced(&r, &oracle, &Budget::unlimited(), &tracer);
        let stats = IndexStats::register(&tracer.metrics());

        assert!(index.rows_within(&r, 0, 0, 0.0).is_some()); // answered
        assert_eq!(stats.answered.get(), 1);
        assert_eq!(stats.superset_rows.count(), 1);

        assert_eq!(index.rows_within(&r, 2, 0, 1.0), None); // bool → unindexed
        assert_eq!(stats.declined_unindexed.get(), 1);

        assert_eq!(index.rows_within(&r, 0, 0, f64::INFINITY), None); // unbounded
        assert_eq!(stats.declined_unbounded.get(), 1);

        // Edit bound 2 on ~7-char strings: fewer than ⅓ of the query's
        // grams must survive → the weak-filter heuristic declines.
        assert_eq!(index.rows_within(&r, 0, 0, 2.0), None);
        assert_eq!(stats.declined_weak_filter.get(), 1);

        // A numeric range covering every row trips the selectivity cutoff.
        assert_eq!(index.rows_within(&r, 1, 0, 100.0), None);
        assert_eq!(stats.declined_selectivity.get(), 1);

        assert_eq!(stats.probes.get(), 5);

        // Index attrs were announced: one event per attribute.
        let events = tracer.records().iter().filter(|e| e.kind == "index_attr").count();
        assert_eq!(events, 3);

        // Untraced index: branch stays inert.
        let untraced = SimilarityIndex::build(&r, &oracle);
        let _ = untraced.rows_within(&r, 0, 0, 0.0);
        assert_eq!(stats.probes.get(), 5);
    }

    #[test]
    fn sorted_list_helpers() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[2, 3, 7, 9]), vec![3, 7]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<usize>::new());
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[4]), vec![4]);
        assert_eq!(union_sorted(&[4], &[]), vec![4]);
    }

    fn mixed_rel(n: usize) -> Relation {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::from(format!("name-{:03}", i % 17).as_str()),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        rel(&[("Name", AttrType::Text), ("Score", AttrType::Float)], rows)
    }

    #[test]
    fn appended_rows_keep_the_superset_contract() {
        let mut rel = mixed_rel(64);
        let oracle = DistanceOracle::build(&rel, 3000);
        let mut index = SimilarityIndex::build(&rel, &oracle);
        let base = rel.len();
        // One known value, one foreign, one null per column.
        rel.push(vec!["name-003".into(), Value::Float(7.25)]).unwrap();
        rel.push(vec!["stranger".into(), Value::Float(1e6)]).unwrap();
        rel.push(vec![Value::Null, Value::Null]).unwrap();
        for row in base..rel.len() {
            index.append_row(&rel, row);
        }
        let current = DistanceOracle::direct(&rel);
        for attr in 0..rel.arity() {
            assert_matches_scan_current(&current, &index, &rel, attr, &[0.0, 1.0, 3.0]);
        }
        // Truncation restores exactly the pre-append answers.
        index.truncate_rows(base);
        rel.truncate(base);
        let current = DistanceOracle::direct(&rel);
        for attr in 0..rel.arity() {
            assert_matches_scan_current(&current, &index, &rel, attr, &[0.0, 1.0, 3.0]);
        }
    }
}
