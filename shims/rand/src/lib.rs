//! Offline shim for the `rand` crate (the subset this workspace uses).
//!
//! Provides a deterministic [`rngs::StdRng`] built on xoshiro256++ (seeded through
//! SplitMix64), the [`SeedableRng`] seeding entry point, and the [`Rng`]
//! extension trait with `gen` / `gen_range` over integer and float ranges.
//!
//! The stream differs from the real crate's ChaCha-based `StdRng`; everything
//! in this workspace treats seeds as opaque determinism handles, not as
//! references to the real rand stream.

use std::ops::{Range, RangeInclusive};

/// Low-level source of randomness.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, mirroring `rand::SeedableRng::seed_from_u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// xoshiro256++ state.
#[derive(Debug, Clone)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    fn from_seed_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256PlusPlus {
            s: [next(), next(), next(), next()],
        }
    }
}

impl RngCore for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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

/// Standard-rng namespace, mirroring `rand::rngs`.
pub mod rngs {
    use super::*;

    /// The workspace's deterministic standard generator.
    #[derive(Debug, Clone)]
    pub struct StdRng(pub(crate) Xoshiro256PlusPlus);

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(Xoshiro256PlusPlus::from_seed_u64(seed))
        }
    }
}

/// Types producible by [`Rng::gen`].
pub trait Standard: Sized {
    fn sample_standard(rng: &mut dyn FnMut() -> u64) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample_standard(rng: &mut dyn FnMut() -> u64) -> Self {
                rng() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample_standard(rng: &mut dyn FnMut() -> u64) -> Self {
        rng() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard(rng: &mut dyn FnMut() -> u64) -> Self {
        // Uniform in [0, 1) with 53 bits of precision.
        (rng() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard(rng: &mut dyn FnMut() -> u64) -> Self {
        (rng() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types uniformly samplable within a range.
///
/// The blanket `SampleRange` impls below are generic over this trait (as in
/// the real crate), which is what lets integer literals in
/// `rng.gen_range(0..9)` unify with usage-site type requirements instead of
/// falling back to `i32`.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_half_open(start: Self, end: Self, rng: &mut dyn FnMut() -> u64) -> Self;
    fn sample_inclusive(start: Self, end: Self, rng: &mut dyn FnMut() -> u64) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(start: Self, end: Self, rng: &mut dyn FnMut() -> u64) -> Self {
                let span = (end as i128 - start as i128) as u128;
                let offset = (rng() as u128) % span;
                (start as i128 + offset as i128) as $t
            }
            fn sample_inclusive(start: Self, end: Self, rng: &mut dyn FnMut() -> u64) -> Self {
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng() as u128) % span;
                (start as i128 + offset as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open(start: Self, end: Self, rng: &mut dyn FnMut() -> u64) -> Self {
                let unit = (rng() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                start + (end - start) * unit as $t
            }
            fn sample_inclusive(start: Self, end: Self, rng: &mut dyn FnMut() -> u64) -> Self {
                Self::sample_half_open(start, end, rng)
            }
        }
    )*};
}
impl_sample_uniform_float!(f64, f32);

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_from(self, rng: &mut dyn FnMut() -> u64) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from(self, rng: &mut dyn FnMut() -> u64) -> T {
        assert!(self.start < self.end, "empty gen_range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_from(self, rng: &mut dyn FnMut() -> u64) -> T {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty gen_range");
        T::sample_inclusive(start, end, rng)
    }
}

/// The user-facing extension trait, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// A uniformly random value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        let mut f = || self.next_u64();
        T::sample_standard(&mut f)
    }

    /// A uniformly random value in `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        let mut f = || self.next_u64();
        range.sample_from(&mut f)
    }

    /// A random bool that is `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: u32 = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&w));
            let x: u32 = rng.gen_range(1..=3);
            assert!((1..=3).contains(&x));
            let f: f64 = rng.gen_range(0.5..1.0);
            assert!((0.5..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_float_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
