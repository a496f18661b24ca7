//! Offline shim for the `rand` crate (0.9 API subset).
//!
//! The build environment has no network access, so this workspace vendors a
//! minimal, deterministic stand-in: [`rngs::StdRng`] is a `splitmix64`-seeded
//! `xoshiro256++` generator, and [`Rng::random_range`] supports the integer
//! and float range forms the simulators use. The statistical quality is more
//! than adequate for scenario generation; no cryptographic claims are made.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of randomness: the subset of `rand::Rng` the workspace uses.
pub trait Rng {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniformly random value in `range`.
    fn random_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Seedable generators (`rand::SeedableRng` analogue).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Scalar types uniform range sampling is defined for. Mirrors
/// `rand::distr::uniform::SampleUniform`; the single generic
/// [`SampleRange`] impls below unify the range's element type with the
/// requested output type, which is what lets inference resolve
/// `t += rng.random_range(40..200)` to `usize`.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draws from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_in<R: Rng + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

fn unit_f64(bits: u64) -> f64 {
    // 53 uniform mantissa bits in [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample_in<R: Rng + ?Sized>(lo: Self, hi: Self, _inclusive: bool, rng: &mut R) -> Self {
        assert!(lo < hi || (lo == hi && _inclusive), "empty range");
        lo + unit_f64(rng.next_u64()) * (hi - lo)
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: Rng + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self {
                let (lo, hi) = (lo as i128, hi as i128);
                let span = if inclusive {
                    assert!(lo <= hi, "empty range");
                    (hi - lo) as u128 + 1
                } else {
                    assert!(lo < hi, "empty range");
                    (hi - lo) as u128
                };
                let draw = (rng.next_u64() as u128) % span;
                (lo + draw as i128) as $t
            }
        }
    )*};
}

int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges that can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(*self.start(), *self.end(), true, rng)
    }
}

/// Named generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard generator: `xoshiro256++` seeded via
    /// `splitmix64` — deterministic for a given seed on every platform.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
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
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = rng.random_range(-3.0..3.0);
            assert!((-3.0..3.0).contains(&f));
            let i = rng.random_range(40..200);
            assert!((40..200).contains(&i));
            let u: usize = rng.random_range(0..=9);
            assert!(u <= 9);
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            buckets[rng.random_range(0usize..10)] += 1;
        }
        for b in buckets {
            assert!((700..1300).contains(&b), "bucket count {b} implausible");
        }
    }
}
