//! Fixed-size array strategies (`prop::array::uniform32`).

use crate::rng::Rng;
use crate::strategy::Strategy;

/// An `[T; 32]` of independent draws from `element`.
pub fn uniform32<S: Strategy>(element: S) -> Uniform<S, 32> {
    Uniform { element }
}

/// See [`uniform32`].
#[derive(Debug, Clone)]
pub struct Uniform<S, const N: usize> {
    element: S,
}

impl<S: Strategy, const N: usize> Strategy for Uniform<S, N> {
    type Value = [S::Value; N];
    fn generate(&self, rng: &mut Rng) -> [S::Value; N] {
        std::array::from_fn(|_| self.element.generate(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn fills_all_slots() {
        let mut rng = Rng::from_name("array");
        let a = uniform32(any::<u64>()).generate(&mut rng);
        assert_eq!(a.len(), 32);
        assert!(a.iter().any(|&v| v != a[0]), "independent draws");
    }
}
