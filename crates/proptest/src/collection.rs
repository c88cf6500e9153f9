//! Collection strategies (`prop::collection::{vec, btree_set}`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// Inclusive bounds on a generated collection's length.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        if self.hi <= self.lo {
            return self.lo;
        }
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec`s of values drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

/// Strategy for `BTreeSet`s of values drawn from `element`. If the element
/// domain is smaller than the requested size, the set saturates at however
/// many distinct values were found.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.sample(rng);
        let mut set = BTreeSet::new();
        // Duplicates don't grow the set, so bound the number of draws.
        let max_attempts = target * 64 + 64;
        for _ in 0..max_attempts {
            if set.len() >= target {
                break;
            }
            set.insert(self.element.new_value(rng));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_size_bounds() {
        let mut rng = TestRng::new(21);
        let s = vec(0u32..10, 4..120);
        for _ in 0..200 {
            let v = s.new_value(&mut rng);
            assert!((4..120).contains(&v.len()));
        }
        // Exact size via plain usize.
        let fixed = vec(-1.0f64..1.0, 16usize);
        assert_eq!(fixed.new_value(&mut rng).len(), 16);
    }

    #[test]
    fn btree_set_yields_distinct_in_range() {
        let mut rng = TestRng::new(22);
        let s = btree_set(0u16..6, 1..=6);
        for _ in 0..200 {
            let set = s.new_value(&mut rng);
            assert!(!set.is_empty() && set.len() <= 6);
            assert!(set.iter().all(|&x| x < 6));
        }
    }

    #[test]
    fn btree_set_saturates_small_domains() {
        let mut rng = TestRng::new(23);
        // Domain of 2 but sizes up to 5: must not loop forever.
        let s = btree_set(0u8..2, 5usize);
        let set = s.new_value(&mut rng);
        assert!(set.len() <= 2);
    }
}
