//! Bit-parallel Levenshtein kernels (Myers 1999, multi-word layout after
//! Hyyrö 2003).
//!
//! The classic dynamic program costs one ALU op per matrix cell. Myers'
//! formulation encodes a whole column of the DP matrix as *vertical
//! delta* bit-vectors — `Pv` (cell below is `+1`) and `Mv` (`-1`) — and
//! advances all 64 rows of a word in a constant number of bit operations,
//! so the cost drops from `O(|a|·|b|)` to `O(⌈|a|/64⌉·|b|)`. Patterns
//! longer than one word chain blocks through a horizontal carry (`hin` /
//! `hout`), exactly like a multi-word addition.
//!
//! Two invariants make the multi-word layout exact without padding
//! tricks:
//!
//! - Carries only propagate from low bits to high bits (the `+` in the
//!   `Xh` recurrence and the `<< 1` shifts), so the garbage bits above
//!   row `m-1` in the last block can never corrupt a real row.
//! - The running score is maintained at bit `(m-1) % 64` of the last
//!   block from the *pre-shift* horizontal deltas, so it is read before
//!   any garbage could shift in.
//!
//! The kernels are exact for every input — [`MyersPattern::distance`]
//! equals the scalar two-row DP and [`MyersPattern::distance_bounded`]
//! equals the banded Ukkonen kernel wherever that returns `Some` — which
//! `tests/kernel_parity.rs` pins over the fuzz corpus. Dispatch between
//! the scalar and bit-parallel kernels for one-shot calls lives in
//! [`crate::functions`]; the rule of thumb is in [`myers_wins`]. Matrix
//! fills (the oracle's and discovery's) skip the dispatch: they build
//! one [`MyersPattern`] per dictionary row and run it at every length.

use std::collections::HashMap;

/// Pattern length (in chars) below which a *one-shot* call keeps the
/// scalar kernels: under half a word, building `Peq` costs about as much
/// as the whole two-row DP. A matrix fill is not one-shot — it builds one
/// [`MyersPattern`] per dictionary row and amortizes `Peq` over the row,
/// so it runs Myers at every length.
pub const MYERS_MIN_CHARS: usize = 32;

/// ASCII alphabet size for the dense `Peq` fast path.
const ASCII: usize = 128;

/// Largest pattern (in 64-row blocks) that still gets a dense
/// 128-entry ASCII `Peq` table; longer patterns use the sparse map to
/// keep table memory proportional to the pattern's own alphabet.
const MAX_DENSE_BLOCKS: usize = 64;

/// Decides whether the bit-parallel kernel should run for a one-shot
/// query on a pattern of `short_len` chars, whose `Peq` build the query
/// pays alone. `band` is the Ukkonen half-width (`max`) when the caller
/// has a bound, `None` for an unbounded query. Fills that reuse one
/// pattern across a dictionary row skip this rule.
///
/// Unbounded queries always prefer Myers once the pattern clears
/// [`MYERS_MIN_CHARS`]. Bounded queries keep the banded scalar kernel
/// unless the band is wide relative to the block count — at paper-scale
/// thresholds (single digits against long cells) `O(len·max)` beats
/// `O(len·len/64)`, and a one-shot call also pays the whole `Peq` build
/// that the oracle's pattern reuse amortizes away. The crossover
/// constant (a word step doing ~16 cells' worth of work) is measured,
/// not derived: `bench_kernels` records both regimes.
pub(crate) fn myers_wins(short_len: usize, band: Option<usize>) -> bool {
    if short_len < MYERS_MIN_CHARS {
        return false;
    }
    match band {
        None => true,
        Some(max) => {
            let blocks = short_len.div_ceil(64);
            max.saturating_mul(2).saturating_add(1) >= blocks.saturating_mul(16)
        }
    }
}

/// `Peq` storage: for each alphabet character, one bit-vector (one `u64`
/// per block) with bit `i` set where `pattern[i]` equals that character.
enum Peq {
    /// All pattern chars are ASCII: a dense `128 × blocks` table indexed
    /// by code point. Non-ASCII text chars match nothing by construction.
    Ascii(Box<[u64]>),
    /// General patterns: distinct pattern chars → slot into `table`
    /// (`slots × blocks`); absent text chars read the shared zero row.
    Map { index: HashMap<char, usize>, table: Box<[u64]>, zeros: Box<[u64]> },
}

/// A pattern preprocessed for Myers' algorithm: build once, compare
/// against many texts. The oracle's matrix fill builds one per dictionary
/// row and amortizes the `Peq` construction over `k` comparisons.
pub struct MyersPattern {
    /// Pattern length in chars (`m`).
    len: usize,
    /// `⌈m / 64⌉`.
    blocks: usize,
    peq: Peq,
}

impl MyersPattern {
    /// Preprocesses `pattern` (non-empty; the caller handles the empty
    /// string, whose distance is just the text length).
    pub fn new(pattern: &[char]) -> MyersPattern {
        assert!(!pattern.is_empty(), "empty patterns have no bit-vector");
        let m = pattern.len();
        let blocks = m.div_ceil(64);
        let all_ascii = pattern.iter().all(|&c| (c as u32) < ASCII as u32);
        let peq = if all_ascii && blocks <= MAX_DENSE_BLOCKS {
            let mut table = vec![0u64; ASCII * blocks].into_boxed_slice();
            for (i, &c) in pattern.iter().enumerate() {
                table[(c as usize) * blocks + i / 64] |= 1u64 << (i % 64);
            }
            Peq::Ascii(table)
        } else {
            let mut index: HashMap<char, usize> = HashMap::new();
            for &c in pattern {
                let next = index.len();
                index.entry(c).or_insert(next);
            }
            let mut table = vec![0u64; index.len() * blocks].into_boxed_slice();
            for (i, &c) in pattern.iter().enumerate() {
                table[index[&c] * blocks + i / 64] |= 1u64 << (i % 64);
            }
            Peq::Map { index, table, zeros: vec![0u64; blocks].into_boxed_slice() }
        };
        MyersPattern { len: m, blocks, peq }
    }

    /// Pattern length in chars.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false` — see [`MyersPattern::new`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `Peq` row for one text character.
    #[inline]
    fn eq_row(&self, c: char) -> &[u64] {
        match &self.peq {
            Peq::Ascii(table) => {
                let code = c as u32 as usize;
                if code < ASCII {
                    &table[code * self.blocks..(code + 1) * self.blocks]
                } else {
                    // An all-ASCII pattern never matches a non-ASCII text
                    // char; the zero row lives at... there is none, so
                    // borrow the statically shared empty row below.
                    ZERO_ROW_64.get(..self.blocks).expect("dense blocks fit the static zero row")
                }
            }
            Peq::Map { index, table, zeros } => match index.get(&c) {
                Some(&slot) => &table[slot * self.blocks..(slot + 1) * self.blocks],
                None => zeros,
            },
        }
    }

    /// Edit distance to `text` — exactly [`crate::levenshtein`] on the
    /// same inputs.
    pub fn distance(&self, text: &[char]) -> usize {
        self.run(text, usize::MAX).expect("usize::MAX bound never trips")
    }

    /// Bounded edit distance: `Some(d)` iff `d ≤ max`, with an early exit
    /// once the score provably cannot come back under the bound.
    pub fn distance_bounded(&self, text: &[char], max: usize) -> Option<usize> {
        if self.len.abs_diff(text.len()) > max {
            return None;
        }
        self.run(text, max)
    }

    /// The column loop shared by both entry points. Patterns of up to
    /// [`STACK_BLOCKS`] blocks keep the column state on the stack, so a
    /// pattern compared against many texts allocates nothing per call.
    fn run(&self, text: &[char], max: usize) -> Option<usize> {
        // Column 0 of the DP matrix: every cell is `i`, i.e. all vertical
        // deltas are +1.
        if self.blocks <= STACK_BLOCKS {
            let mut pv = [!0u64; STACK_BLOCKS];
            let mut mv = [0u64; STACK_BLOCKS];
            self.run_in(text, max, &mut pv[..self.blocks], &mut mv[..self.blocks])
        } else {
            self.run_in(text, max, &mut vec![!0u64; self.blocks], &mut vec![0u64; self.blocks])
        }
    }

    /// [`MyersPattern::run`] over caller-provided column state.
    fn run_in(&self, text: &[char], max: usize, pv: &mut [u64], mv: &mut [u64]) -> Option<usize> {
        let blocks = self.blocks;
        let last = blocks - 1;
        let last_bit = 1u64 << ((self.len - 1) % 64);
        let mut score = self.len;
        let n = text.len();
        for (j, &c) in text.iter().enumerate() {
            let eq_row = self.eq_row(c);
            // The top boundary row D[0][j] = j: each new column enters
            // block 0 with a +1 horizontal delta.
            let mut hin: i32 = 1;
            for b in 0..blocks {
                let eq = eq_row[b];
                let pvb = pv[b];
                let mvb = mv[b];
                let xv = eq | mvb;
                // A negative carry-in acts like a match in row 0 of the
                // block (Hyyrö's correction to the one-word recurrence).
                let eq_in = eq | u64::from(hin < 0);
                let xh = (((eq_in & pvb).wrapping_add(pvb)) ^ pvb) | eq_in;
                let mut ph = mvb | !(xh | pvb);
                let mut mh = pvb & xh;
                if b == last {
                    // Pre-shift deltas at row m-1: the score update.
                    if ph & last_bit != 0 {
                        score += 1;
                    } else if mh & last_bit != 0 {
                        score -= 1;
                    }
                }
                let hout = ((ph >> 63) & 1) as i32 - ((mh >> 63) & 1) as i32;
                ph <<= 1;
                mh <<= 1;
                // The carry-in becomes row 0's horizontal delta.
                if hin > 0 {
                    ph |= 1;
                } else if hin < 0 {
                    mh |= 1;
                }
                pv[b] = mh | !(xv | ph);
                mv[b] = ph & xv;
                hin = hout;
            }
            // Each remaining column lowers the score by at most 1, so once
            // `score - remaining` clears `max` no finish can be in bound.
            if score > max.saturating_add(n - j - 1) {
                return None;
            }
        }
        (score <= max).then_some(score)
    }
}

/// Pattern blocks (256 chars) up to which [`MyersPattern::run`] keeps its
/// column state on the stack.
const STACK_BLOCKS: usize = 4;

/// Shared zero `Peq` row for non-ASCII text chars against dense ASCII
/// patterns (covers up to [`MAX_DENSE_BLOCKS`] blocks).
static ZERO_ROW_64: [u64; MAX_DENSE_BLOCKS] = [0u64; MAX_DENSE_BLOCKS];

/// One-shot bit-parallel distance over char slices; picks the shorter
/// side as the pattern so the block count is minimal. The caller is
/// expected to have handled empty inputs (both kernels would, but the
/// scalar path is faster there).
pub(crate) fn myers_distance(a: &[char], b: &[char]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    MyersPattern::new(short).distance(long)
}

/// One-shot bounded bit-parallel distance; same contract as
/// [`crate::levenshtein_bounded`] over pre-collected chars.
pub(crate) fn myers_distance_bounded(a: &[char], b: &[char], max: usize) -> Option<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return (long.len() <= max).then_some(long.len());
    }
    MyersPattern::new(short).distance_bounded(long, max)
}

/// [`myers_distance`] over `&str` — public so the parity tests and the
/// kernel benchmark can drive the bit-parallel path directly, bypassing
/// the size dispatch in [`crate::levenshtein`].
pub fn myers_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    myers_distance(&a, &b)
}

/// [`myers_distance_bounded`] over `&str`; same contract as
/// [`crate::levenshtein_bounded`], bypassing the dispatch.
pub fn myers_levenshtein_bounded(a: &str, b: &str, max: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max {
        return None;
    }
    myers_distance_bounded(&a, &b, max.min(a.len().max(b.len())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{levenshtein_scalar, lev_core_scalar};

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn matches_scalar_on_classic_pairs() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("", "abc"),
            ("abc", ""),
            ("same", "same"),
            ("Fenix", "Fenix Argyle"),
            ("café", "cafe"),
            ("日本語", "日本"),
        ] {
            assert_eq!(myers_levenshtein(a, b), levenshtein_scalar(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn multi_block_patterns_are_exact() {
        // Patterns spanning 1..4 blocks, with edits at the block seams.
        let base: String = ('a'..='z').cycle().take(200).collect();
        let mut edited = chars(&base);
        edited[63] = 'Z'; // last bit of block 0
        edited[64] = 'Z'; // first bit of block 1
        edited.remove(128);
        let edited: String = edited.into_iter().collect();
        assert_eq!(myers_levenshtein(&base, &edited), levenshtein_scalar(&base, &edited));
        for take in [63, 64, 65, 127, 128, 129, 191, 192] {
            let prefix: String = base.chars().take(take).collect();
            assert_eq!(
                myers_levenshtein(&base, &prefix),
                levenshtein_scalar(&base, &prefix),
                "prefix of {take}"
            );
        }
    }

    #[test]
    fn column_state_on_either_side_of_the_stack_edge_is_exact() {
        // Patterns of up to 256 chars keep the column state on the stack,
        // longer ones allocate it; `myers_levenshtein` takes the shorter
        // side (one char shorter here) as the pattern.
        let base: String = ('a'..='z').cycle().take(400).collect();
        for take in [256, 257, 258, 320, 400] {
            let a: String = base.chars().take(take).collect();
            let mut edited = chars(&a);
            edited[take / 2] = '#';
            edited.remove(take / 3);
            let b: String = edited.into_iter().collect();
            let d = levenshtein_scalar(&a, &b);
            assert_eq!(myers_levenshtein(&a, &b), d, "{take} chars");
            assert_eq!(myers_levenshtein_bounded(&a, &b, d), Some(d), "{take} chars");
            assert_eq!(myers_levenshtein_bounded(&a, &b, d - 1), None, "{take} chars");
        }
    }

    #[test]
    fn bounded_agrees_with_unbounded() {
        let a = "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz0123456789";
        let b = "abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz01234567";
        let d = myers_levenshtein(a, b);
        assert_eq!(myers_levenshtein_bounded(a, b, usize::MAX), Some(d));
        assert_eq!(myers_levenshtein_bounded(a, b, d), Some(d));
        assert_eq!(myers_levenshtein_bounded(a, b, d - 1), None);
    }

    #[test]
    fn non_ascii_text_against_ascii_pattern() {
        // The dense table path must treat non-ASCII text chars as
        // no-match, not index out of bounds.
        let pat = "x".repeat(70);
        let text = format!("{}é💧", &pat[..68]);
        assert_eq!(myers_levenshtein(&pat, &text), levenshtein_scalar(&pat, &text));
    }

    #[test]
    fn sparse_map_path_matches() {
        // A pattern with non-ASCII chars forces the map-backed Peq.
        let a: String = "αβγδε".chars().cycle().take(80).collect();
        let b: String = "αβγxε".chars().cycle().take(77).collect();
        assert_eq!(myers_levenshtein(&a, &b), levenshtein_scalar(&a, &b));
        assert_eq!(
            myers_levenshtein_bounded(&a, &b, 10),
            Some(myers_levenshtein(&a, &b)).filter(|d| *d <= 10)
        );
    }

    #[test]
    fn pattern_reuse_matches_one_shot() {
        let rows = ["Granita Beverly Hills", "Granitas", "Fenix at the Argyle", "Art's Deli"];
        for a in rows {
            let pa = chars(a);
            let pat = MyersPattern::new(&pa);
            for b in rows {
                let tb = chars(b);
                assert_eq!(pat.distance(&tb), lev_core_scalar(&pa, &tb), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn bounded_early_exit_is_not_lossy() {
        // Distances right at the bound must survive the early exit.
        let a: String = ('a'..='z').cycle().take(96).collect();
        for edits in 0..6 {
            let mut m = chars(&a);
            for e in 0..edits {
                m[e * 7] = '#';
            }
            let b: String = m.into_iter().collect();
            let d = levenshtein_scalar(&a, &b);
            assert_eq!(myers_levenshtein_bounded(&a, &b, d), Some(d));
            if d > 0 {
                assert_eq!(myers_levenshtein_bounded(&a, &b, d - 1), None);
            }
        }
    }
}
