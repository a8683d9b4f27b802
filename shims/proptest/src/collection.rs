//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = self.len.end - self.len.start;
        let n = self.len.start + if span == 0 { 0 } else { rng.below(span) };
        (0..n).map(|_| self.element.new_value(rng)).collect()
    }
}

/// A `Vec` of values from `element`, with a length drawn uniformly from
/// `len` (half-open, as in `prop::collection::vec(elem, 0..6)`).
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}
