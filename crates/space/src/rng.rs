//! A tiny, dependency-free, deterministic PRNG.
//!
//! The build environment is offline-only (see the README "Testing"
//! section), so the workspace cannot depend on the `rand` crate. Every
//! randomized component — the space samplers below, the random / bandit
//! / annealing / portfolio search modules, the synthetic corpus
//! generator, and the hand-rolled property tests — draws from this
//! [`SplitMix64`] generator instead.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA'14) is the 64-bit finalizer
//! used to seed xoshiro-family generators: a Weyl sequence pushed
//! through an avalanching bit-mixer. It passes BigCrush, has a full
//! 2^64 period, and — the property this workspace actually relies on —
//! is exactly reproducible from a seed on every platform, which is what
//! makes seeded searches and parallel-tuning determinism testable.

/// A deterministic SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield identical
    /// streams on every platform.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)`. `n` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SplitMix64::below(0)");
        // Multiply-shift reduction (Lemire); unbiased enough for search
        // heuristics and far cheaper than rejection sampling.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A uniform float in `[lo, hi)` (degenerate ranges return `lo`).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.next_f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_vector() {
        // Reference values for seed 1234567 from the canonical
        // SplitMix64 implementation (Vigna).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_i64_is_inclusive() {
        let mut rng = SplitMix64::new(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..300 {
            let v = rng.range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            lo_seen |= v == -2;
            hi_seen |= v == 2;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut xs: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
