//! Order statistics, a stable digest, and the seeded generator the
//! workloads draw their inputs from.

/// The median of `values` (mean of the middle pair for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `pct` (1..=100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], pct: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), pct).clamp(1, v.len()) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100)
}

/// Percentile `pct` of `values` when the sample holds at least ten
/// values beyond it; `None` otherwise.
pub fn supported(values: &[f64], pct: usize) -> Option<f64> {
    (values.len() - rank(values.len(), pct) >= 10).then(|| percentile(values, pct))
}

/// The highest of the usual tail percentiles (at most `max_pct`) with at
/// least ten samples beyond it, as `(pct, value)`. `None` when even the
/// 75th percentile is not supported by the sample.
pub fn tail(values: &[f64], max_pct: usize) -> Option<(usize, f64)> {
    [99, 95, 90, 75]
        .into_iter()
        .filter(|&p| p <= max_pct)
        .find_map(|p| Some((p, supported(values, p)?)))
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, 64-bit: a digest that is stable across builds and runs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Adds a length-prefixed record, so record boundaries count.
    pub fn record(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed derived from `seed` for one purpose (`salt`) and index.
pub fn derive(seed: u64, salt: u64, index: u64) -> u64 {
    Rng::new(seed ^ salt.rotate_left(17) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(tail(&v, 99), Some((90, 90.0)));
        assert_eq!(tail(&v[..20], 99), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&w, 99), Some((99, 990.0)));
        assert_eq!(supported(&w[..999], 99), None);
    }

    #[test]
    fn digest_and_rng_are_stable() {
        let mut d = Digest::new();
        d.update(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
    }
}
