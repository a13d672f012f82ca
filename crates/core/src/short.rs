//! Short sequences kept in place.
//!
//! A compiled operation's programs are short — FileIO's eight have one or
//! two ops each, and fuse to one dispatch — and a bind compiles every one
//! of them, so a `Vec` per program part was most of what a bind allocated.
//! A [`Short<T, N>`] holds up to `N` items inside itself and moves to the
//! heap only past that: a program of up to `N` ops is a value. It reads as
//! a slice (`len`, `iter`, indexing, `for x in &s`) whichever form it is
//! in, and compares as one.

use std::fmt;
use std::ops::Deref;

/// Up to `N` items in place; more spill to the heap.
#[derive(Clone)]
pub struct Short<T: Copy, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// The first `len` of `items` (1..=N); the rest repeat the first item,
    /// so no filler value is needed.
    Inline { len: u8, items: [T; N] },
    /// Empty without allocating, or longer than `N`.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> Short<T, N> {
    /// An empty sequence that will hold `n` items: in place if `n <= N`,
    /// else one heap allocation of exactly `n`.
    pub(crate) fn with_capacity(n: usize) -> Short<T, N> {
        Short(Repr::Heap(if n > N { Vec::with_capacity(n) } else { Vec::new() }))
    }

    /// Appends `item`, spilling to the heap past `N`.
    pub(crate) fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(items);
                spilled.push(item);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(v) if v.capacity() == 0 => {
                self.0 = Repr::Inline { len: 1, items: [item; N] };
            }
            Repr::Heap(v) => v.push(item),
        }
    }
}

impl<T: Copy, const N: usize> Short<T, N> {
    /// Whether the items sit on the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(&self.0, Repr::Heap(v) if v.capacity() > 0)
    }
}

impl<T: Copy, const N: usize> Default for Short<T, N> {
    fn default() -> Short<T, N> {
        Short(Repr::Heap(Vec::new()))
    }
}

impl<T: Copy, const N: usize> Deref for Short<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<'s, T: Copy, const N: usize> IntoIterator for &'s Short<T, N> {
    type Item = &'s T;
    type IntoIter = std::slice::Iter<'s, T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for Short<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Short<T, N> {
        let iter = iter.into_iter();
        let mut s = Short::with_capacity(iter.size_hint().0);
        iter.for_each(|item| s.push(item));
        s
    }
}

impl<T: Copy, const N: usize> From<Vec<T>> for Short<T, N> {
    fn from(v: Vec<T>) -> Short<T, N> {
        if v.len() > N {
            Short(Repr::Heap(v))
        } else {
            v.into_iter().collect()
        }
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for Short<T, N> {
    fn eq(&self, other: &Short<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Copy + Eq, const N: usize> Eq for Short<T, N> {}

impl<T: Copy + PartialEq, const N: usize> PartialEq<Vec<T>> for Short<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for Short<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn up_to_n_items_stay_in_place_and_more_spill() {
        let mut s: Short<u32, 2> = Short::default();
        assert!(s.is_empty() && !s.spilled());
        for (i, x) in [7, 8, 9, 10].into_iter().enumerate() {
            s.push(x);
            assert_eq!(s.len(), i + 1);
            assert_eq!(s.spilled(), i + 1 > 2, "after {} pushes", i + 1);
        }
        assert_eq!(&s[..], [7, 8, 9, 10]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9, 10]);
    }

    /// A sequence sized for `n`, then filled with `items`.
    fn filled<const N: usize>(n: usize, items: &[u32]) -> Short<u32, N> {
        let mut s = Short::with_capacity(n);
        items.iter().for_each(|&x| s.push(x));
        s
    }

    #[test]
    fn a_sized_sequence_allocates_once_and_only_past_n() {
        assert!(!filled::<2>(2, &[1, 2]).spilled());
        let s = filled::<2>(5, &[1, 2, 3, 4, 5]);
        assert!(matches!(&s.0, Repr::Heap(v) if v.capacity() == 5));
    }

    #[test]
    fn equality_is_the_items_whatever_the_form() {
        // Two items in a sequence sized for three (on the heap) against the
        // same two in place.
        let heap = filled::<2>(3, &[4, 5]);
        let inline: Short<u32, 2> = vec![4, 5].into();
        assert!(heap.spilled() && !inline.spilled());
        assert_eq!(heap, inline);
        assert_eq!(inline, vec![4, 5]);
        assert_ne!(inline, vec![4]);
        assert_eq!(format!("{inline:?}"), "[4, 5]");
        assert_eq!(Short::<u32, 1>::from(vec![]), Short::default());
    }
}
