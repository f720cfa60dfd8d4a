//! Distance functions (`δ_A` in the paper's notation) and the kernel
//! dispatch between the scalar dynamic programs and the bit-parallel
//! Myers kernels in [`crate::kernels`].

use renuver_data::Value;

use crate::kernels;

/// Levenshtein edit distance between two strings, computed over Unicode
/// scalar values.
///
/// This is the `δ` used for text attributes (paper Section 5.3, ref. \[25\]):
/// e.g. `levenshtein("Fenix", "Fenix Argyle") == 7` as in Example 5.5.
/// Long inputs run Myers' bit-parallel kernel, short ones the classic
/// two-row dynamic program; both are exact, so the dispatch is invisible
/// ([`levenshtein_scalar`] is the pinned reference).
pub fn levenshtein(a: &str, b: &str) -> usize {
    if let Some(d) = zero_if_equal(a, b) {
        return d;
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    lev_core(&a, &b)
}

/// The scalar two-row dynamic program, with no bit-parallel dispatch —
/// the reference implementation the parity tests and the kernel
/// benchmark compare against.
pub fn levenshtein_scalar(a: &str, b: &str) -> usize {
    if let Some(d) = zero_if_equal(a, b) {
        return d;
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    lev_core_scalar(&a, &b)
}

/// Equality short-circuit shared by both Levenshtein kernels: identical
/// strings answer 0 before any chars are collected — without it, two
/// identical megabyte cells cost a full O(n²) dynamic program just to
/// report zero.
#[inline]
fn zero_if_equal(a: &str, b: &str) -> Option<usize> {
    (a == b).then_some(0)
}

/// Levenshtein over pre-collected char slices — the dispatch point shared
/// by [`levenshtein`] and the oracle's matrix fill (which collects each
/// dictionary value's chars once instead of once per pair). Routes to the
/// bit-parallel kernel once the shorter side clears
/// [`kernels::MYERS_MIN_CHARS`].
pub(crate) fn lev_core(a: &[char], b: &[char]) -> usize {
    let short_len = a.len().min(b.len());
    if kernels::myers_wins(short_len, None) {
        return kernels::myers_distance(a, b);
    }
    lev_core_scalar(a, b)
}

/// The scalar two-row dynamic program over char slices.
pub(crate) fn lev_core_scalar(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension to minimize the row.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[short.len()]
}

/// Levenshtein distance with an early-exit bound: returns `None` as soon as
/// the distance provably exceeds `max`, avoiding the full `O(|a|·|b|)` work.
///
/// Candidate filtering in RENUVER and RFD discovery only ever asks
/// "is the distance ≤ t?", so the bounded kernel is the hot path.
pub fn levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    if let Some(d) = zero_if_equal(a, b) {
        return Some(d);
    }
    // Allocation-free pre-checks ahead of the `Vec<char>` collects:
    // over-bound megabyte pairs used to pay two large allocations just to
    // fail the length filter. First from byte lengths alone (a UTF-8
    // string of `l` bytes holds between `⌈l/4⌉` and `l` chars, so the
    // char-count gap is at least `char_gap_lower_bound`), then — when the
    // byte bounds are inconclusive — from an exact allocation-free char
    // count.
    if char_gap_lower_bound(a.len(), b.len()) > max {
        return None;
    }
    if a.chars().count().abs_diff(b.chars().count()) > max {
        return None;
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // The distance never exceeds the longer length, so the band half-width
    // doesn't need to either — this also keeps the `i + max` band edge from
    // overflowing when callers pass a `usize::MAX`-style "unbounded" bound.
    let max = max.min(a.len().max(b.len()));
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return (long.len() <= max).then_some(long.len());
    }
    if kernels::myers_wins(short.len(), Some(max)) {
        return kernels::myers_distance_bounded(short, long, max);
    }
    lev_bounded_band(short, long, max)
}

/// The banded scalar kernel with no bit-parallel dispatch — the pinned
/// reference for [`levenshtein_bounded`]. Same contract.
pub fn levenshtein_bounded_scalar(a: &str, b: &str, max: usize) -> Option<usize> {
    if let Some(d) = zero_if_equal(a, b) {
        return Some(d);
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    let max = max.min(a.len().max(b.len()));
    let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
    if short.is_empty() {
        return (long.len() <= max).then_some(long.len());
    }
    lev_bounded_band(short, long, max)
}

/// Lower bound on `|chars(a) - chars(b)|` from byte lengths: UTF-8 packs
/// 1–4 bytes per char, so `chars ∈ [⌈bytes/4⌉, bytes]` for each side.
#[inline]
fn char_gap_lower_bound(a_bytes: usize, b_bytes: usize) -> usize {
    let gap_ab = a_bytes.div_ceil(4).saturating_sub(b_bytes);
    let gap_ba = b_bytes.div_ceil(4).saturating_sub(a_bytes);
    gap_ab.max(gap_ba)
}

/// The Ukkonen band over pre-collected, pre-ordered char slices
/// (`short.len() <= long.len()`, `max` already clamped, `short`
/// non-empty).
fn lev_bounded_band(short: &[char], long: &[char], max: usize) -> Option<usize> {
    // Banded DP (Ukkonen): `d[i][j] >= |i - j|`, so any cell farther than
    // `max` from the diagonal can never contribute to a within-bound
    // answer. Restricting each row to the `2·max + 1` band makes the cost
    // O(len · max) instead of O(len²) — the difference between microseconds
    // and hours on two megabyte cells that differ by one character.
    const INF: usize = usize::MAX / 2;
    let n = short.len();
    let mut prev: Vec<usize> = (0..=n).map(|j| if j <= max { j } else { INF }).collect();
    let mut cur = vec![INF; n + 1];
    for i in 1..=long.len() {
        let lo = i.saturating_sub(max);
        let hi = (i + max).min(n);
        let start = lo.max(1);
        // The cell left of the band re-reads as out-of-band (or as the
        // real first-column boundary when the band touches it).
        cur[start - 1] = if lo == 0 { i } else { INF };
        let mut row_min = cur[start - 1];
        let lc = long[i - 1];
        for j in start..=hi {
            let cost = usize::from(lc != short[j - 1]);
            let val = (prev[j - 1] + cost).min(prev[j] + 1).min(cur[j - 1] + 1);
            cur[j] = val;
            row_min = row_min.min(val);
        }
        if hi < n {
            // Guard the cell the next row will read just past this band.
            cur[hi + 1] = INF;
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (prev[n] <= max).then_some(prev[n])
}

/// Distance between two attribute values (the paper's `δ_A(t[A], t'[A])`).
///
/// Returns `None` when either value is missing — the distance-pattern entry
/// is then flagged `_` (Definition 5.4) — or when the values are of
/// incomparable types (which cannot happen for schema-validated relations
/// but keeps the function total).
///
/// - numeric vs numeric → absolute difference (`Int` promotes to `f64`)
/// - text vs text → Levenshtein edit distance
/// - bool vs bool → `0.0` if equal, `1.0` otherwise (the equality
///   constraint: any threshold `< 1` demands equality)
pub fn value_distance(a: &Value, b: &Value) -> Option<f64> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::Text(x), Value::Text(y)) => Some(levenshtein(x, y) as f64),
        (Value::Bool(x), Value::Bool(y)) => Some(if x == y { 0.0 } else { 1.0 }),
        (x, y) => match (x.as_f64(), y.as_f64()) {
            (Some(x), Some(y)) => Some((x - y).abs()),
            _ => None,
        },
    }
}

/// Like [`value_distance`] but with an early exit: returns `Some(d)` only if
/// `d ≤ max`, and `None` both for missing/incomparable values and for
/// distances exceeding the bound.
pub fn value_distance_bounded(a: &Value, b: &Value, max: f64) -> Option<f64> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => None,
        (Value::Text(x), Value::Text(y)) => {
            // No distance is ≤ a NaN or negative bound; flooring one to an
            // edit bound of 0 would admit equal strings, which the matrix
            // lookup (`d <= max`) rejects.
            if max.is_nan() || max < 0.0 {
                return None;
            }
            levenshtein_bounded(x, y, max.floor() as usize).map(|d| d as f64)
        }
        _ => value_distance(a, b).filter(|d| *d <= max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn levenshtein_paper_example() {
        // Example 5.5: δ(Fenix, Fenix Argyle) = 7.
        assert_eq!(levenshtein("Fenix", "Fenix Argyle"), 7);
    }

    #[test]
    fn levenshtein_symmetric() {
        assert_eq!(levenshtein("restaurant", "rest"), levenshtein("rest", "restaurant"));
    }

    #[test]
    fn levenshtein_unicode() {
        // Each accented char is one scalar value, not multiple bytes.
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_matches_exact_within_limit() {
        let pairs = [("kitten", "sitting"), ("abc", "xyz"), ("", "hello"), ("same", "same")];
        for (a, b) in pairs {
            let d = levenshtein(a, b);
            for max in 0..10 {
                let got = levenshtein_bounded(a, b, max);
                if d <= max {
                    assert_eq!(got, Some(d), "{a} {b} max={max}");
                } else {
                    assert_eq!(got, None, "{a} {b} max={max}");
                }
            }
        }
    }

    #[test]
    fn bounded_early_exit_on_length_gap() {
        assert_eq!(levenshtein_bounded("a", "abcdefgh", 3), None);
    }

    #[test]
    fn bounded_over_bound_long_pairs_exit_before_collecting() {
        // Regression: both `Vec<char>` collects used to run before the
        // length filter, so over-bound megabyte pairs paid two large
        // allocations just to return `None`. The byte-bound pre-check
        // catches grossly mismatched lengths from `str::len` alone…
        let giant = "x".repeat(1 << 22);
        assert_eq!(levenshtein_bounded(&giant, "tiny", 5), None);
        // …and the allocation-free char count catches near-equal byte
        // lengths whose char difference still exceeds the bound.
        let longer = "x".repeat((1 << 22) + 7);
        assert_eq!(levenshtein_bounded(&giant, &longer, 6), None);
        // A within-bound pair of the same scale must still answer.
        let close = format!("{giant}yz");
        assert_eq!(levenshtein_bounded(&giant, &close, 6), Some(2));
    }

    #[test]
    fn char_gap_lower_bound_is_a_true_lower_bound() {
        for (a, b) in [
            ("", ""),
            ("a", "abcdefgh"),
            ("日本語", "ab"),
            ("💧💧💧", "x"),
            ("ascii only", "ascii only too"),
            ("🌊🌊🌊🌊🌊🌊🌊🌊", "y"),
        ] {
            let gap = a.chars().count().abs_diff(b.chars().count());
            assert!(
                char_gap_lower_bound(a.len(), b.len()) <= gap,
                "bound overshot the real gap on {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn bounded_survives_unbounded_max() {
        // Regression: `usize::MAX` as the bound used to overflow the band
        // edge (`i + max`). The bound is now clamped to the longer length.
        assert_eq!(levenshtein_bounded("kitten", "sitting", usize::MAX), Some(3));
        assert_eq!(levenshtein_bounded("", "abc", usize::MAX), Some(3));
    }

    #[test]
    fn value_distance_numeric() {
        assert_eq!(value_distance(&Value::Int(5), &Value::Int(2)), Some(3.0));
        assert_eq!(value_distance(&Value::Float(1.5), &Value::Int(1)), Some(0.5));
        assert_eq!(value_distance(&Value::Float(-2.0), &Value::Float(2.0)), Some(4.0));
    }

    #[test]
    fn value_distance_text() {
        assert_eq!(
            value_distance(&Value::Text("LA".into()), &Value::Text("Los Angeles".into())),
            Some(9.0)
        );
    }

    #[test]
    fn value_distance_bool() {
        assert_eq!(value_distance(&Value::Bool(true), &Value::Bool(true)), Some(0.0));
        assert_eq!(value_distance(&Value::Bool(true), &Value::Bool(false)), Some(1.0));
    }

    #[test]
    fn value_distance_null_is_none() {
        assert_eq!(value_distance(&Value::Null, &Value::Int(1)), None);
        assert_eq!(value_distance(&Value::Text("x".into()), &Value::Null), None);
        assert_eq!(value_distance(&Value::Null, &Value::Null), None);
    }

    #[test]
    fn value_distance_incomparable_is_none() {
        assert_eq!(value_distance(&Value::Text("1".into()), &Value::Int(1)), None);
        assert_eq!(value_distance(&Value::Bool(true), &Value::Int(1)), None);
    }

    #[test]
    fn bounded_value_distance_filters() {
        let a = Value::Text("Granita".into());
        let b = Value::Text("Granitas".into());
        assert_eq!(value_distance_bounded(&a, &b, 1.0), Some(1.0));
        assert_eq!(value_distance_bounded(&a, &b, 0.0), None);
        assert_eq!(value_distance_bounded(&Value::Int(9), &Value::Int(3), 5.0), None);
        assert_eq!(value_distance_bounded(&Value::Int(9), &Value::Int(3), 6.0), Some(6.0));
    }

    #[test]
    fn bounded_value_distance_admits_nothing_past_a_nan_or_negative_bound() {
        // Text answers like numbers: `d ≤ max` is false for every `d`.
        let a = Value::Text("Granita".into());
        for max in [f64::NAN, -1.0, -0.5] {
            assert_eq!(value_distance_bounded(&a, &a, max), None, "max={max}");
            assert_eq!(value_distance_bounded(&Value::Int(3), &Value::Int(3), max), None);
        }
        assert_eq!(value_distance_bounded(&a, &a, -0.0), Some(0.0));
        assert_eq!(value_distance_bounded(&a, &a, f64::INFINITY), Some(0.0));
    }
}
