//! Small statistics the harness reports with: medians over repeats, the
//! tail-percentile rule, and the FNV fold behind summary fingerprints.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median of NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [(&str, f64); 5] = [
    ("p99", 0.99),
    ("p95", 0.95),
    ("p90", 0.90),
    ("p75", 0.75),
    ("p50", 0.50),
];

/// The highest percentile of `sorted` (ascending) that still has at least
/// ten samples beyond it, with its label; `("max", last)` when even the
/// median has fewer, `("none", 0)` for no samples. A p99 over 80 samples is
/// the maximum under another name, so the label says what was computed.
pub fn tail_percentile(sorted: &[u64]) -> (&'static str, u64) {
    let n = sorted.len();
    let Some(&max) = sorted.last() else {
        return ("none", 0);
    };
    for (label, q) in TAIL_LADDER {
        // Nearest-rank: the ceil(q*n)-th smallest sample.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank >= 10 {
            return (label, sorted[rank - 1]);
        }
    }
    ("max", max)
}

/// Nearest-rank median of an ascending slice (0 when empty).
pub fn p50(sorted: &[u64]) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[n.div_ceil(2) - 1],
    }
}

/// FNV-1a fold over 64-bit words: two runs from one seed must agree
/// bit-for-bit on every scalar folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in, byte by byte.
    pub fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a float in by its bit pattern.
    pub fn fold_f64(&mut self, v: f64) {
        self.fold(v.to_bits());
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow outlier among five repeats does not move the median.
        assert_eq!(median(&[10.0, 10.2, 9.9, 10.1, 3.0]), 10.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let ramp = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 1000 samples: p99 is the 990th, leaving exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(1000)), ("p99", 990));
        // 999 samples: p99 would leave nine beyond, so fall to p95.
        assert_eq!(tail_percentile(&ramp(999)), ("p95", 950));
        assert_eq!(tail_percentile(&ramp(200)), ("p95", 190));
        assert_eq!(tail_percentile(&ramp(199)), ("p90", 180));
        assert_eq!(tail_percentile(&ramp(100)), ("p90", 90));
        assert_eq!(tail_percentile(&ramp(80)), ("p75", 60));
        assert_eq!(tail_percentile(&ramp(40)), ("p75", 30));
        assert_eq!(tail_percentile(&ramp(39)), ("p50", 20));
        assert_eq!(tail_percentile(&ramp(20)), ("p50", 10));
        assert_eq!(tail_percentile(&ramp(19)), ("max", 19));
        assert_eq!(tail_percentile(&[]), ("none", 0));
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(p50(&[]), 0);
        assert_eq!(p50(&[7]), 7);
        assert_eq!(p50(&[1, 2, 3, 4]), 2);
        assert_eq!(p50(&[1, 2, 3, 4, 5]), 3);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let fold = |words: &[u64]| {
            let mut h = Fnv::default();
            words.iter().for_each(|&w| h.fold(w));
            h.finish()
        };
        assert_eq!(fold(&[1, 2]), fold(&[1, 2]));
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
    }
}
