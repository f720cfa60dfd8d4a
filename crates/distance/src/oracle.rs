//! Dictionary-encoded distance lookups.
//!
//! RENUVER, key detection, and candidate generation all ask the same
//! question — `δ_A(t_i[A], t_j[A])` — millions of times, but a column
//! rarely has more than a few hundred *distinct* values. The
//! [`DistanceOracle`] interns each text column and precomputes its full
//! distance matrix once (columns with huge dictionaries fall back to
//! direct computation), so the hot path is an array lookup instead of an
//! `O(len²)` edit-distance dynamic program.
//!
//! Numeric and boolean distances are a subtraction; they are always
//! computed directly.

use std::collections::HashMap;

use renuver_budget::Budget;
use renuver_data::{AttrId, AttrType, Relation, Value};
use renuver_obs::{Counter, FieldValue, Metrics, Tracer};

use crate::functions::{lev_core, value_distance, value_distance_bounded};
use crate::kernels;

/// The dictionary cap every production call site builds with: columns
/// with more distinct values than this answer directly instead of paying
/// an `O(k²)` matrix fill. [`DistanceOracle::commit_rows`] must be handed
/// the same cap the oracle was built with so its degradation decision
/// matches what a full rebuild would do.
pub const DEFAULT_DICT_CAP: usize = 3000;

/// Dictionary values longer than this never enter a precomputed matrix:
/// one megabyte-scale cell would turn the `O(k²)` fill into gigabytes of
/// `O(len²)` Levenshtein work before the first query. Direct computation
/// uses the banded early-exit kernel, which stays proportional to the
/// query threshold instead.
const MAX_MATRIX_VALUE_CHARS: usize = 1024;

/// How many matrix entries to fill between budget checks.
const FILL_CHECK_STRIDE: usize = 64;

/// Code meaning "this cell is missing".
const NULL_CODE: u32 = u32::MAX;
/// Code meaning "value not in the dictionary — compute directly".
const DIRECT_CODE: u32 = u32::MAX - 1;

enum ColumnTable {
    /// Numeric / boolean column: distances are computed directly.
    Numeric,
    /// Text column with an interned dictionary and a full distance matrix.
    Matrix {
        index: HashMap<String, u32>,
        dict_len: usize,
        /// Row-major `dict_len × dict_len` distances.
        data: Vec<f32>,
    },
    /// Text column whose dictionary exceeded the cap.
    Direct,
}

/// Per-row dictionary status of a matrix-encoded text column, as exposed
/// by [`DistanceOracle::dictionary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCode {
    /// The cell's interned dictionary code.
    Code(u32),
    /// The cell is missing.
    Null,
    /// The cell holds a post-update value outside the dictionary; the
    /// oracle computes its distances directly.
    Foreign,
}

/// Query counters for one oracle: how often the precomputed matrix
/// answered versus how often a distance kernel ran directly. Registered
/// against a [`Metrics`] registry so the end-of-run table and the trace
/// file's `metrics` line both see them.
#[derive(Debug, Clone)]
pub struct OracleStats {
    /// Queries answered by an O(1) matrix lookup.
    pub matrix_hits: Counter,
    /// Queries that invoked a distance kernel directly (numeric columns,
    /// degraded text columns, and foreign post-update values).
    pub direct_calls: Counter,
}

impl OracleStats {
    /// Creates (or re-attaches to) the oracle's counters in `metrics`.
    pub fn register(metrics: &Metrics) -> Self {
        OracleStats {
            matrix_hits: metrics.counter("oracle.matrix_hits"),
            direct_calls: metrics.counter("oracle.direct_calls"),
        }
    }
}

/// Per-relation distance cache (see module docs).
pub struct DistanceOracle {
    /// `codes[attr][row]`: dictionary code of the cell, or a sentinel.
    codes: Vec<Vec<u32>>,
    tables: Vec<ColumnTable>,
    /// Query counters; `None` (the default) keeps the hot path at a
    /// single branch.
    stats: Option<OracleStats>,
}

impl DistanceOracle {
    /// Builds the oracle for `rel`, precomputing distance matrices for
    /// every text column with at most `cap` distinct values.
    pub fn build(rel: &Relation, cap: usize) -> Self {
        Self::build_budgeted(rel, cap, &Budget::unlimited())
    }

    /// [`DistanceOracle::build`] under a [`Budget`]: when the budget trips
    /// during a column's matrix fill, that column (and every later text
    /// column) degrades to direct computation — the oracle stays fully
    /// functional, it just answers those columns without a cache. Queries
    /// return the same distances either way.
    pub fn build_budgeted(rel: &Relation, cap: usize, budget: &Budget) -> Self {
        Self::build_traced(rel, cap, budget, &Tracer::disabled())
    }

    /// [`DistanceOracle::build_budgeted`] with tracing: opens a
    /// `distance::oracle_build` span (the same label the budget checks
    /// use), emits one `oracle_column` event per column with the encoding
    /// it ended up with, and attaches [`OracleStats`] counters to the
    /// tracer's metrics registry. With a disabled tracer this is exactly
    /// `build_budgeted`.
    pub fn build_traced(rel: &Relation, cap: usize, budget: &Budget, tracer: &Tracer) -> Self {
        let span = tracer.span("distance::oracle_build");
        let emit = |attr: usize, mode: &'static str, distinct: usize| {
            span.event("oracle_column", || {
                vec![
                    ("attr", FieldValue::U64(attr as u64)),
                    ("mode", FieldValue::Str(mode)),
                    ("distinct", FieldValue::U64(distinct as u64)),
                ]
            });
        };
        let m = rel.arity();
        let n = rel.len();
        let mut codes = vec![Vec::new(); m];
        let mut tables = Vec::with_capacity(m);
        for (attr, code_slot) in codes.iter_mut().enumerate() {
            if rel.schema().ty(attr) != AttrType::Text {
                tables.push(ColumnTable::Numeric);
                emit(attr, "numeric", 0);
                continue;
            }
            if budget.check("distance::oracle_build").is_err() {
                tables.push(ColumnTable::Direct);
                emit(attr, "direct", 0);
                continue;
            }
            let mut index: HashMap<String, u32> = HashMap::new();
            let mut dict: Vec<&str> = Vec::new();
            let mut col_codes = Vec::with_capacity(n);
            for row in 0..n {
                match rel.value(row, attr).as_text() {
                    None => col_codes.push(NULL_CODE),
                    Some(s) => {
                        let next = dict.len() as u32;
                        let code = *index.entry(s.to_owned()).or_insert_with(|| {
                            dict.push(s);
                            next
                        });
                        col_codes.push(code);
                    }
                }
            }
            if dict.len() > cap {
                tables.push(ColumnTable::Direct);
                emit(attr, "direct", dict.len());
                continue;
            }
            let k = dict.len();
            let chars: Vec<Vec<char>> = dict.iter().map(|s| s.chars().collect()).collect();
            if chars.iter().any(|c| c.len() > MAX_MATRIX_VALUE_CHARS) {
                tables.push(ColumnTable::Direct);
                emit(attr, "direct", k);
                continue;
            }
            // The O(k²) Levenshtein fill dominates build time. Each row of
            // the upper triangle is independent, so distribute rows across
            // the installed pool (the per-row results come back in index
            // order, keeping the matrix bit-identical to a sequential
            // fill) and mirror into the lower triangle afterwards. A row
            // that observes a budget trip yields `None`, which discards
            // the whole matrix — a half-filled cache would answer queries
            // with zeros.
            let tails: Vec<Option<Vec<f32>>> = rayon::par_map_indexed(k, |a| {
                if budget.check("distance::matrix_fill").is_err() {
                    return None;
                }
                // Long dictionary values run Myers' bit-parallel kernel
                // with the Peq preprocessing amortized over the whole row
                // of the matrix; short values keep the two-row DP. Both
                // kernels are exact, so the matrix is bit-identical
                // either way.
                let pattern = (kernels::myers_wins(chars[a].len(), None))
                    .then(|| kernels::MyersPattern::new(&chars[a]));
                let mut tail = Vec::with_capacity(k - a - 1);
                for (off, b) in ((a + 1)..k).enumerate() {
                    if off % FILL_CHECK_STRIDE == FILL_CHECK_STRIDE - 1
                        && budget.check("distance::matrix_fill").is_err()
                    {
                        return None;
                    }
                    let d = match &pattern {
                        Some(p) => p.distance(&chars[b]),
                        None => lev_core(&chars[a], &chars[b]),
                    };
                    tail.push(d as f32);
                }
                Some(tail)
            });
            if tails.iter().any(Option::is_none) {
                tables.push(ColumnTable::Direct);
                emit(attr, "direct", k);
                continue;
            }
            let mut data = vec![0.0f32; k * k];
            for (a, tail) in tails.into_iter().enumerate() {
                for (off, d) in tail.into_iter().flatten().enumerate() {
                    let b = a + 1 + off;
                    data[a * k + b] = d;
                    data[b * k + a] = d;
                }
            }
            *code_slot = col_codes;
            tables.push(ColumnTable::Matrix { index, dict_len: k, data });
            emit(attr, "matrix", k);
        }
        let stats = tracer.is_enabled().then(|| OracleStats::register(&tracer.metrics()));
        DistanceOracle { codes, tables, stats }
    }

    /// A cache-free oracle: every query computes directly. Useful for
    /// one-shot calls and as the reference in equivalence tests.
    pub fn direct(rel: &Relation) -> Self {
        DistanceOracle {
            codes: vec![Vec::new(); rel.arity()],
            tables: (0..rel.arity())
                .map(|a| {
                    if rel.schema().ty(a) == AttrType::Text {
                        ColumnTable::Direct
                    } else {
                        ColumnTable::Numeric
                    }
                })
                .collect(),
            stats: None,
        }
    }

    /// Attaches (or detaches) query counters after construction — used by
    /// callers that build the oracle untraced but enable metrics later.
    pub fn set_stats(&mut self, stats: Option<OracleStats>) {
        self.stats = stats;
    }

    /// Distance between `rel[i][attr]` and `rel[j][attr]` — `None` when
    /// either value is missing (or incomparable). Must be called with the
    /// same relation the oracle was built from, kept current through
    /// [`DistanceOracle::update_cell`].
    #[inline]
    pub fn distance(&self, rel: &Relation, attr: AttrId, i: usize, j: usize) -> Option<f64> {
        match &self.tables[attr] {
            ColumnTable::Numeric | ColumnTable::Direct => {
                if let Some(s) = &self.stats {
                    s.direct_calls.inc();
                }
                value_distance(rel.value(i, attr), rel.value(j, attr))
            }
            ColumnTable::Matrix { dict_len, data, .. } => {
                let (a, b) = (self.codes[attr][i], self.codes[attr][j]);
                if a == NULL_CODE || b == NULL_CODE {
                    return None;
                }
                if a == DIRECT_CODE || b == DIRECT_CODE {
                    if let Some(s) = &self.stats {
                        s.direct_calls.inc();
                    }
                    return value_distance(rel.value(i, attr), rel.value(j, attr));
                }
                if let Some(s) = &self.stats {
                    s.matrix_hits.inc();
                }
                Some(data[a as usize * dict_len + b as usize] as f64)
            }
        }
    }

    /// [`DistanceOracle::distance`] filtered by a bound: `Some(d)` only
    /// when `d ≤ max`. Columns without a precomputed matrix use the
    /// early-exit banded Levenshtein kernel, which is the hot path for
    /// high-cardinality text columns (phone numbers, ids).
    #[inline]
    pub fn distance_bounded(
        &self,
        rel: &Relation,
        attr: AttrId,
        i: usize,
        j: usize,
        max: f64,
    ) -> Option<f64> {
        match &self.tables[attr] {
            ColumnTable::Matrix { dict_len, data, .. } => {
                let (a, b) = (self.codes[attr][i], self.codes[attr][j]);
                if a == NULL_CODE || b == NULL_CODE {
                    return None;
                }
                if a == DIRECT_CODE || b == DIRECT_CODE {
                    if let Some(s) = &self.stats {
                        s.direct_calls.inc();
                    }
                    return value_distance_bounded(rel.value(i, attr), rel.value(j, attr), max);
                }
                if let Some(s) = &self.stats {
                    s.matrix_hits.inc();
                }
                Some(data[a as usize * dict_len + b as usize] as f64).filter(|d| *d <= max)
            }
            _ => {
                if let Some(s) = &self.stats {
                    s.direct_calls.inc();
                }
                value_distance_bounded(rel.value(i, attr), rel.value(j, attr), max)
            }
        }
    }

    /// The dictionary encoding of a text column, when one was built: the
    /// value → code interning map plus the per-row code of every cell.
    /// `None` for numeric/boolean columns and for text columns that
    /// degraded to direct computation (over-cap dictionaries, huge cells,
    /// tripped budgets) — the [`crate::SimilarityIndex`] builds its q-gram
    /// layer on top of this encoding and re-interns only when it is absent.
    pub fn dictionary(&self, attr: AttrId) -> Option<(&HashMap<String, u32>, Vec<RowCode>)> {
        match &self.tables[attr] {
            ColumnTable::Matrix { index, .. } => {
                let rows = self.codes[attr]
                    .iter()
                    .map(|&c| match c {
                        NULL_CODE => RowCode::Null,
                        DIRECT_CODE => RowCode::Foreign,
                        c => RowCode::Code(c),
                    })
                    .collect();
                Some((index, rows))
            }
            _ => None,
        }
    }

    /// A borrowed view over one matrix-encoded column, or `None` when the
    /// column has no precomputed matrix (numeric, over-cap, degraded).
    /// Bulk consumers — the [`crate::SimilarityIndex`] rebuild paths and
    /// the core crate's bitset verification — use this to work in
    /// dictionary-code space without per-row `Vec` materialization.
    pub fn matrix_view(&self, attr: AttrId) -> Option<MatrixView<'_>> {
        match &self.tables[attr] {
            ColumnTable::Matrix { dict_len, data, .. } => Some(MatrixView {
                codes: &self.codes[attr],
                dict_len: *dict_len,
                data,
            }),
            _ => None,
        }
    }

    /// Re-interns a cell after its value changed (e.g. an imputation).
    /// A value not present in the column's dictionary falls back to direct
    /// computation for that cell — imputers that copy existing values
    /// (RENUVER always does) keep full cache coverage.
    pub fn update_cell(&mut self, rel: &Relation, row: usize, attr: AttrId) {
        if let ColumnTable::Matrix { index, .. } = &self.tables[attr] {
            self.codes[attr][row] = match rel.value(row, attr) {
                Value::Null => NULL_CODE,
                v => match v.as_text().and_then(|s| index.get(s)) {
                    Some(&code) => code,
                    None => DIRECT_CODE,
                },
            };
        }
    }

    /// Extends the oracle to cover a freshly appended row of `rel` (the
    /// row must already be in the relation). Dictionary-encoded columns
    /// intern the new cell against the *existing* dictionary: a known
    /// value gets its code, an unknown one falls back to direct
    /// computation for that cell — the dictionary and matrix never grow,
    /// so distances are exactly what a full rebuild would answer (known
    /// pairs hit the same matrix entries; Levenshtein distances are
    /// integers, exactly representable in both the `f32` matrix and the
    /// direct `f64` kernel). Rows must be appended in order; undo with
    /// [`DistanceOracle::truncate_rows`].
    pub fn append_row(&mut self, rel: &Relation, row: usize) {
        for (attr, table) in self.tables.iter().enumerate() {
            if let ColumnTable::Matrix { index, .. } = table {
                debug_assert_eq!(self.codes[attr].len(), row, "rows must append in order");
                let code = match rel.value(row, attr) {
                    Value::Null => NULL_CODE,
                    v => match v.as_text().and_then(|s| index.get(s)) {
                        Some(&code) => code,
                        None => DIRECT_CODE,
                    },
                };
                self.codes[attr].push(code);
            }
        }
    }

    /// Permanently adopts rows `base..rel.len()` into the oracle, growing
    /// each matrix column's dictionary and distance matrix to cover their
    /// values — the *commit* counterpart of the transient
    /// [`DistanceOracle::append_row`]. Returns the number of dictionary
    /// entries added across all columns.
    ///
    /// The committed oracle is **bit-identical to a full rebuild** over
    /// the grown relation (`tests/ingest_differential.rs` pins this via
    /// snapshot equality):
    ///
    /// - A rebuild interns values in row order, so every value first
    ///   appearing in the committed rows gets a code `≥ dict_len`, in
    ///   first-occurrence order — exactly the codes assigned here.
    /// - The grown matrix embeds the old `k × k` matrix in its top-left
    ///   corner (old pairs keep their distances) and fills the new
    ///   row/column band with the same exact kernels the build uses;
    ///   Levenshtein distances are integers, exact in `f32`, so kernel
    ///   dispatch cannot perturb a bit.
    /// - A rebuild degrades the column to [`ColumnTable::Direct`] when
    ///   the full dictionary exceeds `cap` or any value exceeds
    ///   [`MAX_MATRIX_VALUE_CHARS`]; the commit applies the same rules to
    ///   the *grown* dictionary, so `cap` must be the cap the oracle was
    ///   built with ([`DEFAULT_DICT_CAP`] at every production call site).
    ///
    /// Requires every committed row to already be covered by
    /// [`DistanceOracle::append_row`] / [`DistanceOracle::update_cell`],
    /// and no row `< base` may carry a foreign (out-of-dictionary) code —
    /// the engine guarantees both: imputation only writes donor copies,
    /// and the reference rows are never mutated.
    pub fn commit_rows(&mut self, rel: &Relation, base: usize, cap: usize) -> usize {
        let n = rel.len();
        let mut grown_total = 0;
        for (attr, (table, col_codes)) in
            self.tables.iter_mut().zip(self.codes.iter_mut()).enumerate()
        {
            let ColumnTable::Matrix { index, dict_len, data } = table else { continue };
            debug_assert_eq!(col_codes.len(), n, "commit_rows requires appended coverage");
            debug_assert!(
                col_codes[..base].iter().all(|&c| c != DIRECT_CODE),
                "reference rows must not hold foreign values at commit time"
            );
            // Intern every new value in first-occurrence order — the same
            // order a full rebuild's row-order pass would meet them in.
            let k = *dict_len;
            let mut new_values: Vec<String> = Vec::new();
            for row in base..n {
                if let Some(s) = rel.value(row, attr).as_text() {
                    if !index.contains_key(s) {
                        index.insert(s.to_owned(), (k + new_values.len()) as u32);
                        new_values.push(s.to_owned());
                    }
                }
            }
            if new_values.is_empty() {
                // Nothing to grow; the appended codes are already final.
                continue;
            }
            let k2 = k + new_values.len();
            // A rebuild over the grown relation would refuse the matrix
            // entirely in these cases — mirror it exactly.
            if k2 > cap
                || new_values.iter().any(|s| s.chars().count() > MAX_MATRIX_VALUE_CHARS)
            {
                *table = ColumnTable::Direct;
                col_codes.clear();
                continue;
            }
            let mut dict = vec![String::new(); k2];
            for (value, &code) in index.iter() {
                dict[code as usize] = value.clone();
            }
            let chars: Vec<Vec<char>> = dict.iter().map(|s| s.chars().collect()).collect();
            // Grow the matrix in place (a reallocation, not a second
            // matrix beside the first) and re-stride the old rows from
            // `k` to `k2`, last row first: a row only ever moves to a
            // higher offset, past every row not yet moved. Then fill the
            // new band, whose entries and zero diagonal overwrite every
            // slot the re-stride left stale. Both kernels are exact, so
            // pairing each new value's pattern against every earlier
            // value answers the same integers the build's upper-triangle
            // fill would.
            let mut grown = std::mem::take(data);
            grown.resize(k2 * k2, 0.0);
            for a in (1..k).rev() {
                grown.copy_within(a * k..(a + 1) * k, a * k2);
            }
            for b in k..k2 {
                grown[b * k2 + b] = 0.0;
                let pattern = (kernels::myers_wins(chars[b].len(), None))
                    .then(|| kernels::MyersPattern::new(&chars[b]));
                for (a, other) in chars.iter().enumerate().take(b) {
                    let d = match &pattern {
                        Some(p) => p.distance(other),
                        None => lev_core(&chars[b], other),
                    } as f32;
                    grown[a * k2 + b] = d;
                    grown[b * k2 + a] = d;
                }
            }
            *data = grown;
            *dict_len = k2;
            grown_total += new_values.len();
            // Re-code the committed rows: every value is in the grown
            // dictionary now, so no committed row stays foreign.
            for (row, code) in col_codes.iter_mut().enumerate().take(n).skip(base) {
                *code = match rel.value(row, attr) {
                    Value::Null => NULL_CODE,
                    v => match v.as_text().and_then(|s| index.get(s)) {
                        Some(&code) => code,
                        None => DIRECT_CODE,
                    },
                };
            }
        }
        grown_total
    }

    /// Drops the per-row state of every row `≥ len` — the inverse of
    /// [`DistanceOracle::append_row`], used to roll a batch of appended
    /// rows back out. Dictionaries and matrices are untouched (appending
    /// never grew them).
    pub fn truncate_rows(&mut self, len: usize) {
        for (attr, table) in self.tables.iter().enumerate() {
            if matches!(table, ColumnTable::Matrix { .. }) {
                self.codes[attr].truncate(len);
            }
        }
    }

    /// Snapshots every column's encoding for serialization — see
    /// [`ColumnSnapshot`]. Inverse of [`DistanceOracle::from_snapshot`].
    pub fn to_snapshot(&self) -> Vec<ColumnSnapshot> {
        self.tables
            .iter()
            .enumerate()
            .map(|(attr, table)| match table {
                ColumnTable::Numeric => ColumnSnapshot::Numeric,
                ColumnTable::Direct => ColumnSnapshot::Direct,
                ColumnTable::Matrix { index, dict_len, data } => {
                    let mut dict = vec![String::new(); *dict_len];
                    for (value, &code) in index {
                        dict[code as usize] = value.clone();
                    }
                    ColumnSnapshot::Matrix {
                        dict,
                        data: data.clone(),
                        codes: self.codes[attr].clone(),
                    }
                }
            })
            .collect()
    }

    /// Rebuilds an oracle from a snapshot, validating every structural
    /// invariant (matrix shape, code ranges, dictionary uniqueness) so a
    /// corrupt snapshot yields an error, never a panicking oracle. Stats
    /// start detached; re-attach with [`DistanceOracle::set_stats`].
    pub fn from_snapshot(columns: Vec<ColumnSnapshot>) -> Result<DistanceOracle, String> {
        let mut codes = Vec::with_capacity(columns.len());
        let mut tables = Vec::with_capacity(columns.len());
        for (attr, col) in columns.into_iter().enumerate() {
            match col {
                ColumnSnapshot::Numeric => {
                    codes.push(Vec::new());
                    tables.push(ColumnTable::Numeric);
                }
                ColumnSnapshot::Direct => {
                    codes.push(Vec::new());
                    tables.push(ColumnTable::Direct);
                }
                ColumnSnapshot::Matrix { dict, data, codes: col_codes } => {
                    let k = dict.len();
                    if k as u64 >= DIRECT_CODE as u64 {
                        return Err(format!("column {attr}: dictionary too large ({k})"));
                    }
                    if data.len() != k * k {
                        return Err(format!(
                            "column {attr}: matrix holds {} entries for {k} values",
                            data.len()
                        ));
                    }
                    let mut index = HashMap::with_capacity(k);
                    for (code, value) in dict.into_iter().enumerate() {
                        if index.insert(value, code as u32).is_some() {
                            return Err(format!(
                                "column {attr}: duplicate dictionary value"
                            ));
                        }
                    }
                    for &c in &col_codes {
                        if (c as usize) >= k && c != NULL_CODE && c != DIRECT_CODE {
                            return Err(format!("column {attr}: row code {c} out of range"));
                        }
                    }
                    codes.push(col_codes);
                    tables.push(ColumnTable::Matrix { index, dict_len: k, data });
                }
            }
        }
        Ok(DistanceOracle { codes, tables, stats: None })
    }
}

/// Read-only view of a matrix-encoded text column: per-row dictionary
/// status plus O(1) code-to-code distances. See
/// [`DistanceOracle::matrix_view`].
pub struct MatrixView<'a> {
    codes: &'a [u32],
    dict_len: usize,
    data: &'a [f32],
}

impl MatrixView<'_> {
    /// Number of distinct values in the dictionary.
    pub fn dict_len(&self) -> usize {
        self.dict_len
    }

    /// Dictionary status of one relation row.
    #[inline]
    pub fn code(&self, row: usize) -> RowCode {
        match self.codes[row] {
            NULL_CODE => RowCode::Null,
            DIRECT_CODE => RowCode::Foreign,
            c => RowCode::Code(c),
        }
    }

    /// Distance between two dictionary codes — the same value the
    /// matrix-backed [`DistanceOracle::distance`] answers for rows
    /// carrying those codes.
    #[inline]
    pub fn distance(&self, a: u32, b: u32) -> f64 {
        self.data[a as usize * self.dict_len + b as usize] as f64
    }
}

/// Portable snapshot of one oracle column, exposed so higher layers can
/// serialize the oracle (the model-artifact format in `renuver-serve`).
/// Matrix data is row-major `dict.len() × dict.len()`, `codes` holds one
/// entry per relation row (`u32::MAX` = missing, `u32::MAX - 1` = value
/// outside the dictionary).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSnapshot {
    /// Numeric / boolean column: distances computed directly, no state.
    Numeric,
    /// Text column answered without a cache (over-cap dictionary, huge
    /// values, or budget-degraded build).
    Direct,
    /// Dictionary-encoded text column with its distance matrix.
    Matrix {
        /// Code → value.
        dict: Vec<String>,
        /// Row-major distance matrix.
        data: Vec<f32>,
        /// Per-row codes (see enum docs for the sentinels).
        codes: Vec<u32>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use renuver_data::Schema;

    fn sample() -> Relation {
        let schema = Schema::new([
            ("Name", AttrType::Text),
            ("Class", AttrType::Int),
        ])
        .unwrap();
        Relation::new(
            schema,
            vec![
                vec!["Granita".into(), Value::Int(6)],
                vec!["Granitas".into(), Value::Int(5)],
                vec![Value::Null, Value::Int(7)],
                vec!["Granita".into(), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn matrix_matches_direct_computation() {
        let rel = sample();
        let cached = DistanceOracle::build(&rel, 1024);
        let direct = DistanceOracle::direct(&rel);
        for attr in 0..rel.arity() {
            for i in 0..rel.len() {
                for j in 0..rel.len() {
                    assert_eq!(
                        cached.distance(&rel, attr, i, j),
                        direct.distance(&rel, attr, i, j),
                        "attr {attr} pair ({i},{j})"
                    );
                    assert_eq!(
                        cached.distance(&rel, attr, i, j),
                        value_distance(rel.value(i, attr), rel.value(j, attr)),
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_values_share_codes() {
        let rel = sample();
        let oracle = DistanceOracle::build(&rel, 1024);
        assert_eq!(oracle.distance(&rel, 0, 0, 3), Some(0.0));
        assert_eq!(oracle.distance(&rel, 0, 0, 1), Some(1.0));
    }

    #[test]
    fn nulls_are_none() {
        let rel = sample();
        let oracle = DistanceOracle::build(&rel, 1024);
        assert_eq!(oracle.distance(&rel, 0, 0, 2), None);
        assert_eq!(oracle.distance(&rel, 1, 2, 3), None);
    }

    #[test]
    fn over_cap_columns_fall_back_to_direct() {
        let rel = sample();
        let oracle = DistanceOracle::build(&rel, 1); // cap below dict size
        assert_eq!(oracle.distance(&rel, 0, 0, 1), Some(1.0));
    }

    #[test]
    fn over_cap_column_full_query_surface() {
        // The over-cap fallback (ColumnTable::Direct) leaves the column's
        // code vector empty — that must stay consistent: every query path
        // computes directly and `update_cell` must be a no-op that doesn't
        // index into the empty codes.
        let mut rel = sample();
        let mut oracle = DistanceOracle::build(&rel, 1);
        let direct = DistanceOracle::direct(&rel);
        for i in 0..rel.len() {
            for j in 0..rel.len() {
                assert_eq!(
                    oracle.distance(&rel, 0, i, j),
                    direct.distance(&rel, 0, i, j),
                    "pair ({i},{j})"
                );
            }
        }
        // Bounded lookups go through the banded kernel, not a matrix.
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 1, 1.0), Some(1.0));
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 1, 0.5), None);
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 2, 5.0), None); // null side
        // An imputation on the Direct column must not panic and must be
        // visible to subsequent queries (they read the relation directly).
        rel.set_value(2, 0, "Granita".into());
        oracle.update_cell(&rel, 2, 0);
        assert_eq!(oracle.distance(&rel, 0, 0, 2), Some(0.0));
        assert_eq!(oracle.distance_bounded(&rel, 0, 1, 2, 1.0), Some(1.0));
    }

    #[test]
    fn update_cell_tracks_imputation() {
        let mut rel = sample();
        let mut oracle = DistanceOracle::build(&rel, 1024);
        // Impute the null Name with an existing value.
        rel.set_value(2, 0, "Granitas".into());
        oracle.update_cell(&rel, 2, 0);
        assert_eq!(oracle.distance(&rel, 0, 0, 2), Some(1.0));
        // A foreign value falls back to direct computation.
        rel.set_value(2, 0, "Fenix".into());
        oracle.update_cell(&rel, 2, 0);
        assert_eq!(
            oracle.distance(&rel, 0, 0, 2),
            value_distance(&"Granita".into(), &"Fenix".into())
        );
        // Back to null.
        rel.set_value(2, 0, Value::Null);
        oracle.update_cell(&rel, 2, 0);
        assert_eq!(oracle.distance(&rel, 0, 0, 2), None);
    }

    #[test]
    fn bounded_filters() {
        let rel = sample();
        let oracle = DistanceOracle::build(&rel, 1024);
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 1, 1.0), Some(1.0));
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 1, 0.5), None);
    }

    #[test]
    fn tripped_budget_degrades_to_direct_with_identical_answers() {
        let rel = sample();
        let budget = Budget::unlimited().with_ops_limit(0);
        let degraded = DistanceOracle::build_budgeted(&rel, 1024, &budget);
        let reference = DistanceOracle::build(&rel, 1024);
        for attr in 0..rel.arity() {
            for i in 0..rel.len() {
                for j in 0..rel.len() {
                    assert_eq!(
                        degraded.distance(&rel, attr, i, j),
                        reference.distance(&rel, attr, i, j),
                        "attr {attr} pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_build_counts_hits_and_emits_column_events() {
        let rel = sample();
        let tracer = Tracer::enabled();
        let oracle = DistanceOracle::build_traced(&rel, 1024, &Budget::unlimited(), &tracer);
        let stats = OracleStats::register(&tracer.metrics());
        let _ = oracle.distance(&rel, 0, 0, 1); // matrix hit
        let _ = oracle.distance(&rel, 1, 0, 1); // numeric → direct
        let _ = oracle.distance_bounded(&rel, 0, 0, 1, 5.0); // matrix hit
        assert_eq!(stats.matrix_hits.get(), 2);
        assert_eq!(stats.direct_calls.get(), 1);
        let records = tracer.records();
        let columns: Vec<_> = records.iter().filter(|r| r.kind == "oracle_column").collect();
        assert_eq!(columns.len(), rel.arity());
        assert!(records.iter().any(|r| r.kind == "span"));
        // Untraced builds must not count: the differential suites compare
        // traced-off runs and the branch must stay inert.
        let untraced = DistanceOracle::build(&rel, 1024);
        let _ = untraced.distance(&rel, 0, 0, 1);
        assert_eq!(stats.matrix_hits.get(), 2);
    }

    #[test]
    fn huge_values_never_enter_a_matrix() {
        // A megabyte-scale cell must not trigger an O(len²) matrix fill;
        // the column degrades to the banded direct kernel, which respects
        // the query bound.
        let schema = Schema::new([("Blob", AttrType::Text)]).unwrap();
        let big = "x".repeat(1 << 20);
        let rel = Relation::new(
            schema,
            vec![vec![big.clone().into()], vec![format!("{big}y").into()]],
        )
        .unwrap();
        let oracle = DistanceOracle::build(&rel, 1024);
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 1, 2.0), Some(1.0));
        assert_eq!(oracle.distance_bounded(&rel, 0, 0, 1, 0.5), None);
    }

    #[test]
    fn appended_rows_answer_like_a_rebuild() {
        let mut rel = sample();
        let mut oracle = DistanceOracle::build(&rel, 1024);
        let base = rel.len();
        // One value already in the dictionary, one foreign, one null.
        rel.push(vec!["Granitas".into(), Value::Int(9)]).unwrap();
        rel.push(vec!["Fenix".into(), Value::Int(2)]).unwrap();
        rel.push(vec![Value::Null, Value::Int(1)]).unwrap();
        for row in base..rel.len() {
            oracle.append_row(&rel, row);
        }
        let rebuilt = DistanceOracle::build(&rel, 1024);
        for attr in 0..rel.arity() {
            for i in 0..rel.len() {
                for j in 0..rel.len() {
                    assert_eq!(
                        oracle.distance(&rel, attr, i, j),
                        rebuilt.distance(&rel, attr, i, j),
                        "attr {attr} pair ({i},{j})"
                    );
                    for max in [0.5, 1.0, 4.0] {
                        assert_eq!(
                            oracle.distance_bounded(&rel, attr, i, j, max),
                            rebuilt.distance_bounded(&rel, attr, i, j, max),
                        );
                    }
                }
            }
        }
        // Rolling the batch back restores the original per-row state.
        oracle.truncate_rows(base);
        rel.truncate(base);
        let fresh = DistanceOracle::build(&rel, 1024);
        for attr in 0..rel.arity() {
            for i in 0..rel.len() {
                for j in 0..rel.len() {
                    assert_eq!(
                        oracle.distance(&rel, attr, i, j),
                        fresh.distance(&rel, attr, i, j),
                    );
                }
            }
        }
    }

    #[test]
    fn commit_rows_is_bit_identical_to_rebuild() {
        let mut rel = sample();
        let mut oracle = DistanceOracle::build(&rel, 1024);
        let base = rel.len();
        // Known value, two occurrences of one new value, a second new
        // value, and a null — the full interning surface.
        rel.push(vec!["Granita".into(), Value::Int(3)]).unwrap();
        rel.push(vec!["Fenix".into(), Value::Int(4)]).unwrap();
        rel.push(vec!["Fenix".into(), Value::Null]).unwrap();
        rel.push(vec!["Spago".into(), Value::Int(8)]).unwrap();
        rel.push(vec![Value::Null, Value::Int(9)]).unwrap();
        for row in base..rel.len() {
            oracle.append_row(&rel, row);
        }
        let grown = oracle.commit_rows(&rel, base, 1024);
        assert_eq!(grown, 2, "Fenix and Spago enter the dictionary once each");
        let rebuilt = DistanceOracle::build(&rel, 1024);
        assert_eq!(oracle.to_snapshot(), rebuilt.to_snapshot());
        // Committing again with nothing appended is a no-op.
        assert_eq!(oracle.commit_rows(&rel, rel.len(), 1024), 0);
        assert_eq!(oracle.to_snapshot(), rebuilt.to_snapshot());
    }

    #[test]
    fn commit_rows_degrades_over_cap_exactly_like_rebuild() {
        let mut rel = sample();
        let mut oracle = DistanceOracle::build(&rel, 3);
        let base = rel.len();
        // The base dictionary holds 2 values; two more breach a cap of 3.
        rel.push(vec!["Fenix".into(), Value::Int(1)]).unwrap();
        rel.push(vec!["Spago".into(), Value::Int(2)]).unwrap();
        for row in base..rel.len() {
            oracle.append_row(&rel, row);
        }
        oracle.commit_rows(&rel, base, 3);
        let rebuilt = DistanceOracle::build(&rel, 3);
        assert_eq!(oracle.to_snapshot(), rebuilt.to_snapshot());
        assert!(matches!(oracle.to_snapshot()[0], ColumnSnapshot::Direct));
        // Degraded columns still answer every query correctly.
        let direct = DistanceOracle::direct(&rel);
        for i in 0..rel.len() {
            for j in 0..rel.len() {
                assert_eq!(
                    oracle.distance(&rel, 0, i, j),
                    direct.distance(&rel, 0, i, j)
                );
            }
        }
    }

    #[test]
    fn commit_rows_degrades_on_huge_values_exactly_like_rebuild() {
        let mut rel = sample();
        let mut oracle = DistanceOracle::build(&rel, 1024);
        let base = rel.len();
        rel.push(vec![Value::Text("x".repeat(MAX_MATRIX_VALUE_CHARS + 1)), Value::Int(1)])
            .unwrap();
        oracle.append_row(&rel, base);
        oracle.commit_rows(&rel, base, 1024);
        let rebuilt = DistanceOracle::build(&rel, 1024);
        assert_eq!(oracle.to_snapshot(), rebuilt.to_snapshot());
        assert!(matches!(oracle.to_snapshot()[0], ColumnSnapshot::Direct));
    }

    #[test]
    fn snapshot_round_trip_preserves_answers() {
        let rel = sample();
        let mut original = DistanceOracle::build(&rel, 1024);
        // A direct (over-cap) column must round-trip too.
        let restored = DistanceOracle::from_snapshot(original.to_snapshot()).unwrap();
        for attr in 0..rel.arity() {
            for i in 0..rel.len() {
                for j in 0..rel.len() {
                    assert_eq!(
                        original.distance(&rel, attr, i, j),
                        restored.distance(&rel, attr, i, j),
                    );
                }
            }
        }
        // Snapshots capture post-update codes (foreign values included).
        let mut rel2 = rel.clone();
        rel2.set_value(3, 0, "Outsider".into());
        original.update_cell(&rel2, 3, 0);
        let restored2 = DistanceOracle::from_snapshot(original.to_snapshot()).unwrap();
        assert_eq!(
            original.distance(&rel2, 0, 3, 0),
            restored2.distance(&rel2, 0, 3, 0)
        );
    }

    #[test]
    fn corrupt_snapshots_are_typed_errors() {
        let rel = sample();
        let oracle = DistanceOracle::build(&rel, 1024);
        // Matrix shape mismatch.
        let mut snap = oracle.to_snapshot();
        if let ColumnSnapshot::Matrix { data, .. } = &mut snap[0] {
            data.pop();
        }
        assert!(DistanceOracle::from_snapshot(snap).err().unwrap().contains("matrix"));
        // Out-of-range row code.
        let mut snap = oracle.to_snapshot();
        if let ColumnSnapshot::Matrix { codes, .. } = &mut snap[0] {
            codes[0] = 9999;
        }
        assert!(DistanceOracle::from_snapshot(snap).err().unwrap().contains("out of range"));
        // Duplicate dictionary value.
        let mut snap = oracle.to_snapshot();
        if let ColumnSnapshot::Matrix { dict, .. } = &mut snap[0] {
            dict[1] = dict[0].clone();
        }
        assert!(DistanceOracle::from_snapshot(snap).err().unwrap().contains("duplicate"));
    }
}
