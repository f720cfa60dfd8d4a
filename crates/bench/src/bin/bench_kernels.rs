//! Measures what the Myers bit-parallel kernel buys over the scalar DP,
//! and writes the results to `BENCH_kernels.json`.
//!
//! Run with `cargo run -p renuver-bench --release --bin bench_kernels`
//! (`--quick` shrinks sample counts, `--out <path>` overrides the output
//! file). Two layers are measured, innermost out:
//!
//! * **kernel** — `levenshtein_scalar` (the O(n·m) row DP) vs
//!   `myers_levenshtein` (O(⌈m/64⌉·n) bit-vectors) on string pairs of
//!   64 / 256 / 1024 chars, plus the bounded variants at a paper-scale
//!   band. The binary asserts the ≥4× floor at 256 chars that CI smokes.
//! * **oracle matrix fill** — the k×k dictionary matrix that dominates
//!   pre-processing, its upper triangle hand-filled with the scalar
//!   kernel vs a one-thread oracle build, which runs one Myers pattern
//!   per dictionary row. Two dictionaries: 100 random names of 64 chars,
//!   and Restaurant's names (`oracle_matrix_fill_short`), every one
//!   shorter than the 32 chars at which a one-shot call would switch to
//!   Myers.

use renuver_bench::{available_cores, median_ms, out_path, quick_mode, write_bench_json};
use renuver_data::{AttrType, Relation, Schema, Value};
use renuver_datasets::restaurant;
use renuver_distance::{levenshtein_scalar, myers_levenshtein, DistanceOracle};
use renuver_distance::functions::levenshtein_bounded_scalar;
use renuver_distance::levenshtein_bounded;

/// Deterministic 64-bit LCG — the bench must not depend on a seeded run
/// of the `rand` crate, and the pairs must be identical across machines.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A string of `len` chars over a 20-letter alphabet with occasional
/// multi-byte chars, so the kernel's `Peq` map path and the UTF-8
/// pre-checks both participate.
fn random_string(rng: &mut Lcg, len: usize) -> String {
    const ALPHABET: [char; 20] = [
        'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q',
        'é', 'ü', 'α',
    ];
    (0..len).map(|_| ALPHABET[(rng.next() % 20) as usize]).collect()
}

/// `pairs` string pairs of `len` chars: half are mutated copies (~len/8
/// edits — the near-duplicate regime RFD thresholds select for), half are
/// independent strings (the far regime the bounded kernel rejects early).
fn make_pairs(rng: &mut Lcg, pairs: usize, len: usize) -> Vec<(String, String)> {
    (0..pairs)
        .map(|i| {
            let a = random_string(rng, len);
            let b = if i % 2 == 0 {
                let mut chars: Vec<char> = a.chars().collect();
                for _ in 0..len / 8 {
                    let at = (rng.next() as usize) % chars.len();
                    chars[at] = ['x', 'y', 'z'][(rng.next() % 3) as usize];
                }
                chars.into_iter().collect()
            } else {
                random_string(rng, len)
            };
            (a, b)
        })
        .collect()
}

/// Median ms to run `kernel` over every pair, with a checksum fold so the
/// calls cannot be optimized away.
fn measure_kernel(
    runs: usize,
    pairs: &[(String, String)],
    mut kernel: impl FnMut(&str, &str) -> usize,
) -> f64 {
    median_ms(runs, || {
        let mut acc = 0usize;
        for (a, b) in pairs {
            acc = acc.wrapping_add(kernel(a, b));
        }
        std::hint::black_box(acc);
    })
}

/// A one-column `Name` relation over `names`.
fn names_relation(names: impl Iterator<Item = Value>) -> Relation {
    let schema = Schema::new([("Name", AttrType::Text)]).unwrap();
    Relation::new(schema, names.map(|v| vec![v]).collect()).unwrap()
}

/// `n` rows cycling through 100 random names of 64 chars.
fn long_text_names(n: usize) -> Relation {
    let mut rng = Lcg(7);
    let names: Vec<String> = (0..100).map(|_| random_string(&mut rng, 64)).collect();
    names_relation((0..n).map(|i| Value::from(names[i % 100].as_str())))
}

/// The oracle's matrix fill of `rel`'s first column against the same
/// upper triangle hand-filled with the scalar DP, as a JSON object. Both
/// sides run on one thread: the kernel, not the core count.
fn measure_fill(runs: usize, rel: &Relation) -> String {
    let dict: Vec<&str> = rel
        .tuples()
        .filter_map(|t| t[0].as_text())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let scalar_ms = median_ms(runs, || {
        let mut acc = 0usize;
        for (i, a) in dict.iter().enumerate() {
            for b in &dict[i + 1..] {
                acc = acc.wrapping_add(levenshtein_scalar(a, b));
            }
        }
        std::hint::black_box(acc);
    });
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let oracle_ms =
        median_ms(runs, || drop(one_thread.install(|| DistanceOracle::build(rel, 3_000))));
    let max_chars = dict.iter().map(|s| s.chars().count()).max().unwrap_or(0);
    format!(
        "{{ \"dictionary\": {}, \"max_chars\": {max_chars}, \"scalar_ms\": {scalar_ms:.3}, \
         \"oracle_ms\": {oracle_ms:.3}, \"speedup\": {:.3} }}",
        dict.len(),
        scalar_ms / oracle_ms,
    )
}

fn main() {
    let runs = if quick_mode() { 3 } else { 7 };
    let pair_count = if quick_mode() { 48 } else { 192 };
    let mut rng = Lcg(42);

    // ---- kernel micro-bench: scalar DP vs Myers, three lengths --------
    let mut kernel_json = String::new();
    let mut speedup_256 = 0.0;
    for len in [64usize, 256, 1024] {
        let pairs = make_pairs(&mut rng, pair_count, len);
        let scalar_ms = measure_kernel(runs, &pairs, levenshtein_scalar);
        let myers_ms = measure_kernel(runs, &pairs, myers_levenshtein);
        let speedup = scalar_ms / myers_ms;
        if len == 256 {
            speedup_256 = speedup;
        }
        // Parity spot-check: the suite pins this exhaustively, but a
        // benchmark of a wrong kernel is worse than no benchmark.
        for (a, b) in pairs.iter().take(8) {
            assert_eq!(levenshtein_scalar(a, b), myers_levenshtein(a, b), "kernel mismatch");
        }
        kernel_json.push_str(&format!(
            "    \"len_{len}\": {{ \"pairs\": {pair_count}, \"scalar_ms\": {scalar_ms:.3}, \
             \"myers_ms\": {myers_ms:.3}, \"speedup\": {speedup:.3} }},\n"
        ));
    }
    assert!(
        speedup_256 >= 4.0,
        "Myers kernel speedup floor regressed: {speedup_256:.2}x at 256 chars (need >= 4x)"
    );

    // ---- bounded kernel: narrow and wide bands ------------------------
    // Band 8 on 256-char strings is the regime RFD thresholds produce.
    // There the Ukkonen band is already sub-quadratic and the dispatch
    // keeps it — the "speedup" documents drop-in parity, not a win. At
    // band 64 the band covers a quarter of the matrix and the dispatch
    // flips to Myers.
    let band_pairs = make_pairs(&mut rng, pair_count, 256);
    let mut bounded_json = String::new();
    for band in [8usize, 64] {
        let scalar_ms = measure_kernel(runs, &band_pairs, |a, b| {
            levenshtein_bounded_scalar(a, b, band).unwrap_or(band + 1)
        });
        let dispatched_ms = measure_kernel(runs, &band_pairs, |a, b| {
            levenshtein_bounded(a, b, band).unwrap_or(band + 1)
        });
        let speedup = scalar_ms / dispatched_ms;
        if band == 8 {
            assert!(
                speedup >= 0.8,
                "dispatched bounded kernel regressed at paper-scale bands: {speedup:.2}x"
            );
        }
        bounded_json.push_str(&format!(
            "    \"bounded_len_256_band_{band}\": {{ \"pairs\": {pair_count}, \
             \"scalar_ms\": {scalar_ms:.3}, \"dispatched_ms\": {dispatched_ms:.3}, \
             \"speedup\": {speedup:.3} }}"
        ));
        bounded_json.push_str(if band == 8 { ",\n" } else { "\n" });
    }

    // ---- oracle dictionary-matrix fill --------------------------------
    let n = if quick_mode() { 4_000 } else { 20_000 };
    let long_fill = measure_fill(runs, &long_text_names(n));
    let restaurants = restaurant::generate_n(restaurant::TUPLES, 42);
    let short_fill =
        measure_fill(runs, &names_relation(restaurants.tuples().map(|t| t[0].clone())));

    let json = format!(
        "{{\n  \
         \"machine_cores\": {},\n  \
         \"runs_per_measurement\": {runs},\n  \
         \"parallelism\": 1,\n  \
         \"kernel\": {{\n\
         {kernel_json}\
         {bounded_json}  }},\n  \
         \"oracle_matrix_fill\": {long_fill},\n  \
         \"oracle_matrix_fill_short\": {short_fill}\n}}\n",
        available_cores(),
    );

    write_bench_json(&out_path("BENCH_kernels.json"), &json);
}
