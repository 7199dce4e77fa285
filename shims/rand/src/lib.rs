//! Offline shim for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal, API-compatible replacement for the slice of `rand` 0.8 it
//! actually uses: `rngs::StdRng`, [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] over half-open integer ranges, and
//! [`seq::SliceRandom::shuffle`].
//!
//! The generator is xoshiro256** seeded through SplitMix64 — high-quality,
//! fast, and fully deterministic, which is all the experiments need
//! (placements are reproducible per seed; they just differ from upstream
//! `rand`'s ChaCha-based streams).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core trait: a source of random `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (the subset of `rand::SeedableRng` used here).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: Copy {
    /// A sample in `[lo, hi)`; `hi > lo` is the caller's obligation.
    fn sample(rng: &mut dyn FnMut() -> u64, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut dyn FnMut() -> u64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range on an empty range");
                // Every span of these types is in 1..2^64, so the wrapping
                // difference of the sign-extended bounds is exact and the
                // sample needs no wider arithmetic.  Modulo bias is < 2^-64
                // per draw for the spans used here.
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                (range.start as u64).wrapping_add(rng() % span) as $t
            }
        }
    )*};
}

impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A uniform sample from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        let mut draw = || self.next_u64();
        T::sample(&mut draw, range)
    }

    /// A random `bool`.
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256**.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state, as
            // recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Slice helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// In-place slice shuffling.
    pub trait SliceRandom {
        /// Fisher–Yates shuffle driven by `rng`.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = rngs::StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.gen_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&w));
        }
    }

    /// The sampler before it dropped to 64-bit arithmetic.
    fn sample_128(draw: u64, start: i128, end: i128) -> i128 {
        let span = (end - start) as u128;
        start + (draw as u128 % span) as i128
    }

    #[test]
    fn sampling_matches_the_128_bit_formula() {
        let mut r = rngs::StdRng::seed_from_u64(97);
        let mut draws: Vec<u64> = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        draws.extend((0..200).map(|_| r.next_u64()));
        macro_rules! check {
            ($t:ty, $($range:expr),*) => {$(
                let range: Range<$t> = $range;
                for &d in &draws {
                    let got = <$t>::sample(&mut || d, range.clone());
                    let want = sample_128(d, range.start as i128, range.end as i128);
                    assert_eq!(got as i128, want, "{} {range:?} draw {d}", stringify!($t));
                }
            )*};
        }
        // Random spans, wide and narrow, of every type.
        macro_rules! check_random {
            ($($t:ty),*) => {$(
                for _ in 0..50 {
                    let (a, b) = (r.next_u64() as $t, r.next_u64() as $t);
                    let narrow = a.saturating_add(1 + (r.next_u64() % 64) as $t);
                    if a != b {
                        check!($t, a.min(b)..a.max(b));
                    }
                    if a != narrow {
                        check!($t, a..narrow);
                    }
                }
            )*};
        }
        check_random!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
        check!(u64, 0..u64::MAX, u64::MAX - 1..u64::MAX, 0..1);
        check!(
            i64,
            i64::MIN..i64::MAX,
            i64::MIN..i64::MIN + 1,
            -1..0,
            -5..5
        );
        check!(u8, 0..u8::MAX, 200..201);
        check!(i8, i8::MIN..i8::MAX, -128..-127, -1..1);
        check!(u16, 0..u16::MAX);
        check!(i16, i16::MIN..i16::MAX);
        check!(u32, 0..u32::MAX);
        check!(i32, i32::MIN..i32::MAX);
        check!(usize, 0..usize::MAX, 0..1025);
        check!(isize, isize::MIN..isize::MAX);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = rngs::StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }
}
