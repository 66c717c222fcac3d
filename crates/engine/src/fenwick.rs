//! Fenwick (binary indexed) tree over `u64` weights with O(log n) point
//! updates and O(log n) weighted sampling.
//!
//! Nothing in the engine samples through it any more: it is the test
//! reference for the count engine's weight trees and for the fault
//! executor's linear occupancy scan, which must pick the same index from
//! the same draw ("sample an index proportional to weight" in prefix-sum
//! order, which the classic Fenwick descend provides).
//!
//! # Examples
//!
//! ```
//! use ssr_engine::fenwick::Fenwick;
//!
//! let mut f = Fenwick::new(4);
//! f.set(0, 1);
//! f.set(2, 3);
//! assert_eq!(f.total(), 4);
//! assert_eq!(f.sample(0), 0);
//! assert_eq!(f.sample(1), 2);
//! assert_eq!(f.sample(3), 2);
//! ```

/// Fenwick tree over non-negative `u64` weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fenwick {
    /// 1-based internal array; `tree[i]` covers a range ending at `i`.
    tree: Vec<u64>,
    /// Cached current weights for O(1) reads and delta computation.
    weights: Vec<u64>,
    /// Cached total weight.
    total: u64,
    /// Largest power of two `<= len`, used by the descend.
    top_bit: usize,
}

impl Fenwick {
    /// Create a tree of `len` zero weights.
    pub fn new(len: usize) -> Self {
        let top_bit = if len == 0 {
            0
        } else {
            1usize << (usize::BITS - 1 - len.leading_zeros())
        };
        Fenwick {
            tree: vec![0; len + 1],
            weights: vec![0; len],
            total: 0,
            top_bit,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn weight(&self, index: usize) -> u64 {
        self.weights[index]
    }

    /// Sum of all weights.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Set the weight at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: u64) {
        let old = self.weights[index];
        if old == value {
            return;
        }
        self.weights[index] = value;
        if value >= old {
            let delta = value - old;
            self.total += delta;
            let mut i = index + 1;
            while i < self.tree.len() {
                self.tree[i] += delta;
                i += i & i.wrapping_neg();
            }
        } else {
            let delta = old - value;
            self.total -= delta;
            let mut i = index + 1;
            while i < self.tree.len() {
                self.tree[i] -= delta;
                i += i & i.wrapping_neg();
            }
        }
    }

    /// Prefix sum of weights over `0..=index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn prefix_sum(&self, index: usize) -> u64 {
        assert!(index < self.len());
        let mut i = index + 1;
        let mut acc = 0;
        while i > 0 {
            acc += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        acc
    }

    /// Smallest `index` such that `prefix_sum(index) > target`, i.e. the
    /// slot containing offset `target` when weights are laid end to end.
    ///
    /// Sampling `target` uniformly from `[0, total())` yields an index
    /// distributed proportionally to its weight.
    ///
    /// # Panics
    ///
    /// Panics if `target >= total()`.
    #[inline]
    pub fn sample(&self, mut target: u64) -> usize {
        debug_assert!(target < self.total, "sample target out of range");
        let mut pos = 0usize;
        let mut step = self.top_bit;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // pos is the count of full slots passed; the sampled index is pos.
        debug_assert!(pos < self.len());
        debug_assert!(self.weights[pos] > 0, "sampled a zero-weight slot");
        pos
    }

    /// Reset every weight to zero.
    pub fn clear(&mut self) {
        self.tree.iter_mut().for_each(|w| *w = 0);
        self.weights.iter_mut().for_each(|w| *w = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn empty_tree() {
        let f = Fenwick::new(0);
        assert_eq!(f.total(), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn set_and_total() {
        let mut f = Fenwick::new(10);
        f.set(3, 5);
        f.set(7, 2);
        assert_eq!(f.total(), 7);
        f.set(3, 1);
        assert_eq!(f.total(), 3);
        assert_eq!(f.weight(3), 1);
        f.set(3, 0);
        assert_eq!(f.total(), 2);
    }

    #[test]
    fn prefix_sums_match_naive() {
        let mut f = Fenwick::new(17);
        let weights = [3u64, 0, 5, 1, 0, 0, 9, 2, 4, 0, 1, 1, 7, 0, 0, 2, 6];
        for (i, &w) in weights.iter().enumerate() {
            f.set(i, w);
        }
        let mut acc = 0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            assert_eq!(f.prefix_sum(i), acc, "prefix at {i}");
        }
    }

    #[test]
    fn sample_covers_each_weighted_slot() {
        let mut f = Fenwick::new(6);
        let weights = [2u64, 0, 3, 0, 0, 1];
        for (i, &w) in weights.iter().enumerate() {
            f.set(i, w);
        }
        // Deterministic: walk every offset and check the slot boundaries.
        let expected = [0, 0, 2, 2, 2, 5];
        for (t, &e) in expected.iter().enumerate() {
            assert_eq!(f.sample(t as u64), e, "target {t}");
        }
    }

    #[test]
    fn sample_distribution_proportional_to_weight() {
        let mut f = Fenwick::new(8);
        let weights = [1u64, 2, 0, 4, 0, 8, 0, 1];
        for (i, &w) in weights.iter().enumerate() {
            f.set(i, w);
        }
        let mut rng = Xoshiro256::seed_from_u64(5);
        let trials = 160_000u64;
        let mut hist = [0u64; 8];
        for _ in 0..trials {
            let t = rng.below(f.total());
            hist[f.sample(t)] += 1;
        }
        let total_w: u64 = weights.iter().sum();
        for i in 0..8 {
            let expected = trials * weights[i] / total_w;
            if weights[i] == 0 {
                assert_eq!(hist[i], 0);
            } else {
                let diff = (hist[i] as i64 - expected as i64).abs();
                assert!(
                    diff < (expected as i64 / 10).max(300),
                    "slot {i}: {} vs ~{expected}",
                    hist[i]
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_lengths() {
        for len in [1usize, 2, 3, 5, 6, 7, 9, 100, 1023, 1025] {
            let mut f = Fenwick::new(len);
            for i in 0..len {
                f.set(i, (i as u64 % 3) + 1);
            }
            // sample every boundary offset
            let mut acc = 0;
            for i in 0..len {
                assert_eq!(f.sample(acc), i, "len {len} slot {i}");
                acc += f.weight(i);
            }
            assert_eq!(acc, f.total());
        }
    }

    #[test]
    fn clear_resets() {
        let mut f = Fenwick::new(4);
        f.set(1, 10);
        f.clear();
        assert_eq!(f.total(), 0);
        assert_eq!(f.weight(1), 0);
        f.set(2, 3);
        assert_eq!(f.sample(0), 2);
    }
}
