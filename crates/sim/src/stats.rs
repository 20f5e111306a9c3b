//! Streaming statistics for the benchmark harness.
//!
//! `Histogram` keeps exact samples for percentile queries where the
//! harness needs tail latency; `LogHistogram` is the fixed-bucket
//! log-scale variant the open-loop latency pipeline uses — integer-only
//! bucketing, bounded memory, and percentiles that are reproducible
//! byte-for-byte across reruns and aggregation orders (bucket counts
//! commute where raw-sample streams would have to be re-sorted).

use crate::time::SimDuration;

/// Exact-sample histogram with percentile queries. Intended for experiment
/// result sets (≤ a few million samples), not unbounded telemetry.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Histogram {
            samples: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.samples.push(x);
        self.sorted = false;
    }

    pub fn add_duration(&mut self, d: SimDuration) {
        self.add(d.as_millis_f64());
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// Percentile by nearest-rank on the sorted samples; `p` in `[0, 100]`.
    /// NaN on an empty histogram.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).round() as usize;
        self.samples[rank]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Sub-buckets per power-of-two octave (2^5). Values below `N_SUB` get
/// one exact bucket each; larger values are quantised to a relative
/// resolution of `1/N_SUB` ≈ 3.1 %.
const N_SUB: u64 = 32;
const N_SUB_BITS: u32 = 5;
/// Octaves above the exact range: value bit-widths 6..=64.
const N_BUCKETS: usize = (N_SUB + (64 - N_SUB_BITS as u64) * N_SUB) as usize;

/// Fixed-bucket log-scale histogram over `u64` nanosecond values.
///
/// The bucket layout is HdrHistogram-like but integer-only: values
/// `0..32` get exact buckets; every power-of-two octave above that is
/// split into 32 linear sub-buckets, so the quantisation error is at
/// most one part in 32 (~3.1 %) at any magnitude up to `u64::MAX`.
/// Bucketing uses only bit arithmetic — no floats — so a recorded
/// value lands in the same bucket on every platform, and merging
/// histograms is element-wise count addition (commutative, which is
/// what lets parallel sweeps produce byte-identical percentiles).
///
/// Percentile queries ([`LogHistogram::percentile_ns`]) use the
/// nearest-rank rule on cumulative bucket counts and report the
/// *upper edge* of the containing bucket: a deterministic, slightly
/// conservative (≤ 3.2 % high) tail estimate. Exact `min`/`max`/mean
/// are tracked on the side.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Box<[u64; N_BUCKETS]>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: Box::new([0; N_BUCKETS]),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Bucket index for a value (pure bit arithmetic).
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < N_SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros(); // ≥ N_SUB_BITS
            let shift = msb - N_SUB_BITS;
            let sub = (v >> shift) - N_SUB; // 0..N_SUB
            (N_SUB + (msb - N_SUB_BITS) as u64 * N_SUB + sub) as usize
        }
    }

    /// Largest value mapping to bucket `idx` (the reported percentile
    /// representative).
    #[inline]
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < N_SUB {
            idx
        } else {
            let octave = (idx - N_SUB) / N_SUB;
            let sub = (idx - N_SUB) % N_SUB;
            let shift = octave as u32;
            // Lower edge plus the bucket's width minus one.
            ((N_SUB + sub) << shift) + ((1u64 << shift) - 1)
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean in nanoseconds; NaN when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Exact minimum recorded value; `None` when empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min_ns)
    }

    /// Exact maximum recorded value; `None` when empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max_ns)
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), reported as the
    /// upper edge of the bucket holding the ranked sample, clamped to
    /// the exact observed `[min, max]` range. Returns `None` when empty.
    pub fn percentile_ns(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // ceil(p/100 · total), at least rank 1.
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i).clamp(self.min_ns, self.max_ns));
            }
        }
        Some(self.max_ns)
    }

    pub fn p50_ns(&self) -> Option<u64> {
        self.percentile_ns(50.0)
    }

    pub fn p95_ns(&self) -> Option<u64> {
        self.percentile_ns(95.0)
    }

    pub fn p99_ns(&self) -> Option<u64> {
        self.percentile_ns(99.0)
    }

    /// Element-wise merge: equivalent to having recorded both streams
    /// into one histogram, in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.add(i as f64);
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 100.0);
        let med = h.median();
        assert!((49.0..=52.0).contains(&med));
        let p99 = h.percentile(99.0);
        assert!((98.0..=100.0).contains(&p99));
    }

    #[test]
    fn histogram_empty_is_nan() {
        let mut h = Histogram::new();
        assert!(h.percentile(50.0).is_nan());
        assert!(h.mean().is_nan());
    }

    #[test]
    fn histogram_unsorted_inserts() {
        let mut h = Histogram::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.add(x);
        }
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.mean(), 3.0);
        // Adding after a percentile query re-sorts correctly.
        h.add(0.0);
        assert_eq!(h.percentile(0.0), 0.0);
    }

    #[test]
    fn log_histogram_buckets_are_monotonic_and_cover_u64() {
        let mut prev = 0usize;
        for bits in 0..64 {
            for v in [
                1u64 << bits,
                (1u64 << bits) + 1,
                (1u64 << bits).wrapping_sub(1),
            ] {
                if v == 0 {
                    continue;
                }
                let b = LogHistogram::bucket_of(v);
                assert!(b < N_BUCKETS, "bucket {b} out of range for {v}");
                let _ = prev;
                prev = b;
            }
        }
        // bucket_of is monotone non-decreasing and upper bounds contain
        // their values.
        let mut last = 0;
        for v in (0..4096u64).chain((3..54).map(|s| 1000u64 << s)) {
            let b = LogHistogram::bucket_of(v);
            assert!(b >= last, "bucket order broken at {v}");
            last = b;
            assert!(
                LogHistogram::bucket_upper(b) >= v,
                "upper edge below value {v}"
            );
        }
        assert_eq!(LogHistogram::bucket_of(u64::MAX), N_BUCKETS - 1);
        assert_eq!(LogHistogram::bucket_upper(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn log_histogram_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.percentile_ns(0.0), Some(0));
        assert_eq!(h.percentile_ns(100.0), Some(31));
        // Rank 16 of 32 → value 15 (exact buckets below 32).
        assert_eq!(h.p50_ns(), Some(15));
    }

    #[test]
    fn log_histogram_percentiles_within_resolution() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1_000); // 1µs … 10ms
        }
        let p50 = h.p50_ns().unwrap() as f64;
        let p95 = h.p95_ns().unwrap() as f64;
        let p99 = h.p99_ns().unwrap() as f64;
        // Upper-edge reporting: within +3.2 % of the exact rank value.
        assert!((5_000_000.0..=5_160_000.0).contains(&p50), "p50={p50}");
        assert!((9_500_000.0..=9_804_000.0).contains(&p95), "p95={p95}");
        assert!((9_900_000.0..=10_216_800.0).contains(&p99), "p99={p99}");
        assert_eq!(h.max_ns(), Some(10_000_000));
        assert_eq!(h.min_ns(), Some(1_000));
        assert!((h.mean_ns() - 5_000_500.0).abs() < 1.0);
    }

    #[test]
    fn log_histogram_merge_matches_single_stream() {
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..5_000u64 {
            let v = (i * 2_654_435_761) % 50_000_000;
            whole.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        for p in [1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            assert_eq!(a.percentile_ns(p), whole.percentile_ns(p), "p{p}");
        }
        assert_eq!(a.min_ns(), whole.min_ns());
        assert_eq!(a.max_ns(), whole.max_ns());
        assert_eq!(a.mean_ns(), whole.mean_ns());
    }

    #[test]
    fn log_histogram_empty() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_ns(50.0), None);
        assert!(h.mean_ns().is_nan());
        assert_eq!(h.min_ns(), None);
        assert_eq!(h.max_ns(), None);
    }

    #[test]
    fn log_histogram_percentiles_clamp_to_observed_range() {
        let mut h = LogHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.p50_ns(), Some(1_000_003));
        assert_eq!(h.p99_ns(), Some(1_000_003));
        h.record(2_000_000);
        assert_eq!(h.percentile_ns(100.0), Some(2_000_000));
    }

    #[test]
    fn duration_helpers() {
        let mut h = Histogram::new();
        h.add_duration(SimDuration::from_micros(2500));
        assert_eq!(h.mean(), 2.5);
    }
}
