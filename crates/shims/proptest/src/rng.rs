//! Deterministic pseudo-random stream (splitmix64).

/// A deterministic RNG; one per property test, seeded from the test name.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeds from an arbitrary byte string (FNV-1a of the test name).
    pub fn from_name(name: &str) -> Rng {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Rng { state: h | 1 }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, full-period, passes practical uniformity tests.
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // test-generation purposes and the stream stays one-draw-per-value.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_name() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::from_name("x");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::from_name("x");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::from_name("y");
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::from_name("bound");
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
