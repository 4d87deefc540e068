//! Offline shim for the `rand` crate.
//!
//! The build sandbox has no crates.io access, so this workspace vendors the
//! small subset of the rand 0.8 API it actually uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods
//! `gen::<f64>()`, `gen::<bool>()`, `gen::<u64>()` and `gen_range(a..b)`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — not the ChaCha12
//! stream of the real `StdRng`, so random sequences differ from upstream rand,
//! but they are deterministic per seed and of high statistical quality, which
//! is all the synthetic trace generators and tests rely on.

#![warn(missing_docs)]

use core::ops::Range;

/// Types that can seed themselves from a single `u64` (rand-compatible
/// subset of the real trait).
pub trait SeedableRng: Sized {
    /// Construct a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core random source: everything is derived from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Values samplable uniformly from all bit patterns ("standard" distribution).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 != 0
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Draw uniformly from `[lo, hi)`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Unbiased-enough range sampling via 128-bit multiply-shift.
fn mul_shift(rng_word: u64, span: u64) -> u64 {
    ((rng_word as u128 * span as u128) >> 64) as u64
}

impl SampleUniform for u64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + mul_shift(rng.next_u64(), hi - lo)
    }
}

impl SampleUniform for usize {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + mul_shift(rng.next_u64(), (hi - lo) as u64) as usize
    }
}

impl SampleUniform for u32 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + mul_shift(rng.next_u64(), (hi - lo) as u64) as u32
    }
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Convenience extension methods over any [`RngCore`], mirroring rand 0.8.
pub trait Rng: RngCore {
    /// Sample a value of type `T` from the standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from the half-open range `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range called with empty range");
        T::sample_range(self, range.start, range.end)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Unlike the real rand crate's ChaCha12-based `StdRng`, the sequences
    /// are not cryptographic — they only need to be reproducible and
    /// statistically uniform.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the xoshiro state, per
            // the xoshiro authors' recommendation.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(0usize..3);
            assert!(w < 3);
            let f = r.gen_range(1.5f64..2.5);
            assert!((1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn bools_are_balanced() {
        let mut r = StdRng::seed_from_u64(11);
        let heads = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4_600..5_400).contains(&heads), "{heads} heads");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = StdRng::seed_from_u64(0);
        let _ = r.gen_range(5u64..5);
    }
}
