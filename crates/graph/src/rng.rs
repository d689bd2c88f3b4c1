//! Deterministic, cross-platform pseudorandom number generation.
//!
//! The paper's model (footnote 1 of §2) assumes every node draws all of its
//! private random bits *up front*, before the first message is sent. To
//! reproduce that faithfully — and to make every experiment in this
//! repository bit-reproducible across executors (sequential vs. parallel)
//! and across Rust versions — we implement our own small generator instead
//! of depending on `rand`'s version-unstable `StdRng`.
//!
//! The design is the textbook combination used by many simulation code
//! bases: a [SplitMix64](https://prng.di.unimi.it/splitmix64.c) stream is
//! used to expand a seed, and the expanded state drives
//! [xoshiro256++](https://prng.di.unimi.it/xoshiro256plusplus.c), a fast
//! generator with good statistical properties (passes BigCrush).
//!
//! Per-node streams are derived with [`Rng::fork`], which mixes a tag
//! (typically the node id) into the seed through SplitMix64, so that the
//! random bits a node consumes are a pure function of `(master_seed,
//! node_id)` and in particular independent of scheduling order.
//!
//! # Example
//!
//! ```
//! use localavg_graph::rng::Rng;
//!
//! let mut a = Rng::seed_from(7);
//! let mut b = Rng::seed_from(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // reproducible
//!
//! let mut node3 = a.fork(3);
//! let p = node3.f64_unit();
//! assert!((0.0..1.0).contains(&p));
//! ```

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion and for deriving substreams; it is a bijection
/// on `u64` with excellent avalanche behaviour.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudorandom number generator (xoshiro256++).
///
/// Cloning an [`Rng`] duplicates the stream; use [`Rng::fork`] to derive
/// statistically independent substreams instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams
    /// on every platform and Rust version.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent substream tagged by `tag`.
    ///
    /// The derived stream is a pure function of this generator's *current
    /// state* and `tag`; the parent stream is not advanced. This is how the
    /// simulator gives every node its private random bits: node `v` gets
    /// `master.fork(v as u64)`.
    #[must_use]
    pub fn fork(&self, tag: u64) -> Self {
        // Mix the tag through SplitMix64 twice so consecutive tags land far
        // apart, then reseed.
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let _ = splitmix64(&mut sm);
        Rng::seed_from(splitmix64(&mut sm))
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniform integer in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "Rng::index called with bound 0");
        let bound = bound as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as usize;
            }
            // Rejection zone: only reached with probability < bound / 2^64.
            let t = bound.wrapping_neg() % bound;
            if lo >= t {
                return (m >> 64) as usize;
            }
        }
    }

    /// Returns a uniform integer in the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "Rng::range requires lo < hi");
        lo + self.index(hi - lo)
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64_unit() < p
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Returns a uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_across_instances() {
        let mut a = Rng::seed_from(12345);
        let mut b = Rng::seed_from(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn fork_is_deterministic_and_independent_of_parent_use() {
        let parent = Rng::seed_from(99);
        let mut f1 = parent.fork(7);
        let mut f2 = parent.fork(7);
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut f3 = parent.fork(8);
        let mut f4 = parent.fork(7);
        f4.next_u64();
        assert_ne!(f3.next_u64(), f4.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = Rng::seed_from(5);
        let mut b = Rng::seed_from(5);
        let _ = a.fork(1);
        let _ = a.fork(2);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn index_in_bounds_and_covers_values() {
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.index(10);
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn index_roughly_uniform() {
        let mut rng = Rng::seed_from(77);
        let mut counts = [0usize; 8];
        let trials = 80_000;
        for _ in 0..trials {
            counts[rng.index(8)] += 1;
        }
        let expect = trials / 8;
        for &c in &counts {
            assert!(
                (c as isize - expect as isize).unsigned_abs() < expect / 10,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_statistics() {
        let mut rng = Rng::seed_from(8);
        let hits = (0..50_000).filter(|_| rng.chance(0.25)).count();
        let expect = 12_500;
        assert!((hits as isize - expect).unsigned_abs() < 700, "hits={hits}");
    }

    #[test]
    fn f64_unit_range() {
        let mut rng = Rng::seed_from(6);
        for _ in 0..1000 {
            let x = rng.f64_unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn permutation_is_permutation() {
        let mut rng = Rng::seed_from(10);
        let p = rng.permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = Rng::seed_from(11);
        let mut xs: Vec<u32> = (0..20).map(|i| i % 5).collect();
        let mut expect = xs.clone();
        expect.sort_unstable();
        rng.shuffle(&mut xs);
        xs.sort_unstable();
        assert_eq!(xs, expect);
    }

    #[test]
    fn range_bounds() {
        let mut rng = Rng::seed_from(12);
        for _ in 0..100 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    #[should_panic]
    fn index_zero_panics() {
        Rng::seed_from(0).index(0);
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the public-domain splitmix64.c with seed 0.
        let mut s = 0u64;
        let first = splitmix64(&mut s);
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }
}
