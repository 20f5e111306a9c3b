//! Deterministic pseudo-random numbers.
//!
//! The determinism of the whole testbed must not hinge on an external
//! crate's version-dependent stream, so the kernel carries its own
//! SplitMix64 implementation (Steele, Lea & Flood, OOPSLA'14 — the same
//! generator `java.util.SplittableRandom` uses, a fitting nod to the
//! paper's Java setting). It is fast, passes BigCrush when used as a
//! 64-bit generator, and supports cheap stream splitting so independent
//! components (clients, network jitter, workload shape) draw from
//! uncorrelated streams derived from one experiment seed.

/// SplitMix64 PRNG. `Clone` yields an identical continuation of the stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from an explicit seed. Equal seeds give equal
    /// streams on every platform.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child stream. Mixing in a label keeps child
    /// streams distinct even when split repeatedly from the same state.
    #[inline]
    pub fn split(&mut self, label: u64) -> SplitMix64 {
        let s = self.next_u64();
        SplitMix64::new(s ^ mix(label.wrapping_add(GAMMA)))
    }

    /// This stream advanced by `k` draws, in O(1): a draw only adds
    /// `GAMMA` to the state, so `k` draws add `k · GAMMA`. Lets a
    /// generator start client `c`'s stream where a sequential generator
    /// would, without drawing the `c` streams before it.
    #[inline]
    #[must_use]
    pub fn jumped(self, k: u64) -> SplitMix64 {
        SplitMix64::new(self.state.wrapping_add(k.wrapping_mul(GAMMA)))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// Uniform in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire's multiply-shift with
    /// rejection to avoid modulo bias. Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    #[inline]
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range: lo > hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Guard against ln(0): next_f64 is in [0,1), so 1-u is in (0,1].
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_below(xs.len() as u64) as usize])
        }
    }
}

/// The SplitMix64 finalizer (variant 13 of Stafford's mixers).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_value() {
        // Reference value for seed 0 from the published SplitMix64 C code.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let mut root1 = SplitMix64::new(7);
        let mut root2 = SplitMix64::new(7);
        let mut c1 = root1.split(3);
        let mut c2 = root2.split(3);
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut d = root1.split(4);
        assert_ne!(c1.next_u64(), d.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(11);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(13);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c} outside tolerance");
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = SplitMix64::new(15);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = r.next_range(5, 8);
            assert!((5..=8).contains(&x));
            seen_lo |= x == 5;
            seen_hi |= x == 8;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = SplitMix64::new(17);
        let hits = (0..100_000).filter(|_| r.next_bool(0.2)).count();
        assert!((18_000..22_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SplitMix64::new(19);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(12.0)).sum();
        let mean = sum / n as f64;
        assert!((11.5..12.5).contains(&mean), "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(21);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_and_nonempty() {
        let mut r = SplitMix64::new(23);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        let xs = [1, 2, 3];
        assert!(xs.contains(r.choose(&xs).unwrap()));
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(1).next_below(0);
    }
}
