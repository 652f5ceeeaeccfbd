//! Fixed-memory latency aggregation for long-horizon runs.
//!
//! A million-task run cannot keep a per-task `Vec` of sojourn times just to
//! read off p99 at the end; [`LatencyHistogram`] is an HDR-style
//! log-bucketed histogram — exact below 64 ns, then 64 sub-buckets per
//! power of two (≤ 1.6% relative error) — in a fixed ~30 KiB footprint
//! regardless of how many samples are recorded. Recording is O(1) and
//! branch-light; quantile reads are a single bucket scan.

/// Sub-bucket resolution: 2^6 = 64 buckets per octave.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range: msb in `[SUB_BITS, 63]`.
const OCTAVES: usize = (64 - SUB_BITS) as usize;
const BUCKETS: usize = (SUB as usize) * (1 + OCTAVES);

/// A log-bucketed histogram of nanosecond latencies.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
        SUB as usize + octave * SUB as usize + sub
    }
}

/// The largest value a bucket can contain (quantiles report this edge, so
/// estimates err ≤ 1.6% high, never low).
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        idx as u64
    } else {
        let octave = ((idx - SUB as usize) / SUB as usize) as u32;
        let sub = ((idx - SUB as usize) % SUB as usize) as u64;
        match (SUB + sub + 1).checked_mul(1u64 << octave) {
            Some(edge) => edge - 1,
            // Top bucket: its exclusive upper edge is 2^64, so it contains
            // everything up to u64::MAX.
            None => u64::MAX,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one latency sample, in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
        self.max = self.max.max(ns);
    }

    /// Exact mean of all samples (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the upper edge of the bucket
    /// holding the `ceil(q · count)`-th smallest sample. Returns 0 when
    /// empty. `quantile(1.0)` reports the exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_ns", &self.mean_ns())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("p999", &self.quantile(0.999))
            .field("max_ns", &self.max_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_sub_resolution() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        assert_eq!(h.count, SUB);
        assert_eq!(h.max_ns(), SUB - 1);
        // In the exact range, quantiles are exact.
        assert_eq!(h.quantile(0.5), 31);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100_000u64 {
            h.record(i * 1_000); // 1us .. 100ms, well into log buckets
        }
        for &(q, exact) in &[
            (0.50, 50_000_000u64),
            (0.99, 99_000_000),
            (0.999, 99_900_000),
        ] {
            let est = h.quantile(q);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.02, "q={q}: est {est} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn quantile_one_is_exact_max() {
        let mut h = LatencyHistogram::new();
        h.record(123_456_789);
        h.record(7);
        assert_eq!(h.quantile(1.0), 123_456_789);
        assert_eq!(h.max_ns(), 123_456_789);
    }

    #[test]
    fn bucket_round_trip_covers_u64() {
        for v in [
            0,
            1,
            63,
            64,
            65,
            1_000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(bucket_upper(idx) >= v, "v={v} upper={}", bucket_upper(idx));
            // Upper edge stays within 1/SUB of the value (for v >= SUB).
            if v >= SUB {
                assert!(bucket_upper(idx) as f64 <= v as f64 * (1.0 + 2.0 / SUB as f64));
            }
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count, 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.max_ns(), 0);
    }
}
