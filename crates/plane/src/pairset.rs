//! A dense set of node pairs.
//!
//! The healing layer keeps two sets over `n × n` pairs — the ordered
//! `(source, target)` pairs awaiting repair and the normalized edge set
//! the plane serves — and probes them once per hop of every closure
//! walk. [`PairSet`] stores one bit per pair (`n²/8` bytes, 32 KiB at
//! `n = 512`): membership is a shift and a mask, "every pair" is a word
//! fill, and iteration is ascending in `(s, t)` — the order an ordered
//! tree of tuples would give, which repair passes rely on for
//! deterministic header-id assignment.

use cpr_graph::{Graph, NodeId};

/// A set of `(s, t)` pairs over `n` nodes, one bit per pair, row-major
/// in `s`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct PairSet {
    n: usize,
    len: usize,
    words: Vec<u64>,
}

impl PairSet {
    /// The empty set over `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        PairSet {
            n,
            len: 0,
            words: vec![0; (n * n).div_ceil(64)],
        }
    }

    /// The set holding exactly `pairs`.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a node `≥ n`.
    pub(crate) fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut set = PairSet::new(n);
        for (s, t) in pairs {
            set.insert(s, t);
        }
        set
    }

    /// The edge set of `graph`, each edge once as `(min, max)`.
    pub(crate) fn of_edges(graph: &Graph) -> Self {
        PairSet::from_pairs(
            graph.node_count(),
            graph.edges().map(|(_, (u, v))| (u.min(v), u.max(v))),
        )
    }

    /// Number of pairs in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when no pair is in the set.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `(s, t)` is in the set; `false` for out-of-range nodes.
    #[inline]
    pub(crate) fn contains(&self, s: NodeId, t: NodeId) -> bool {
        if s >= self.n || t >= self.n {
            return false;
        }
        let bit = s * self.n + t;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Adds `(s, t)`; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is `≥ n`.
    pub(crate) fn insert(&mut self, s: NodeId, t: NodeId) -> bool {
        assert!(s < self.n && t < self.n, "pair ({s}, {t}) out of range");
        let bit = s * self.n + t;
        let (word, mask) = (&mut self.words[bit / 64], 1u64 << (bit % 64));
        let new = *word & mask == 0;
        *word |= mask;
        self.len += usize::from(new);
        new
    }

    /// Removes `(s, t)`; returns whether it was present.
    pub(crate) fn remove(&mut self, s: NodeId, t: NodeId) -> bool {
        let present = self.contains(s, t);
        if present {
            let bit = s * self.n + t;
            self.words[bit / 64] &= !(1 << (bit % 64));
            self.len -= 1;
        }
        present
    }

    /// Makes the set hold every ordered pair `s ≠ t`.
    pub(crate) fn fill_off_diagonal(&mut self) {
        let bits = self.n * self.n;
        self.words.fill(u64::MAX);
        if let (Some(last), tail @ 1..) = (self.words.last_mut(), bits % 64) {
            *last = (1 << tail) - 1;
        }
        for v in 0..self.n {
            let bit = v * self.n + v;
            self.words[bit / 64] &= !(1 << (bit % 64));
        }
        self.len = bits - self.n;
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The pairs in ascending `(s, t)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let n = self.n;
        self.words.iter().enumerate().flat_map(move |(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some((bit / n, bit % n))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use rand::{Rng, SeedableRng};

    /// Against the ordered tree it replaced: same membership, same
    /// count under duplicate inserts and removals, same iteration order.
    #[test]
    fn behaves_like_an_ordered_tree_of_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x09A1_25E7);
        for n in [1usize, 2, 7, 8, 9, 31, 64, 65] {
            let mut dense = PairSet::new(n);
            let mut tree: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
            assert!(dense.is_empty());
            for _ in 0..4 * n * n {
                let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen_bool(0.7) {
                    assert_eq!(dense.insert(s, t), tree.insert((s, t)));
                } else {
                    assert_eq!(dense.remove(s, t), tree.remove(&(s, t)));
                }
                assert_eq!(dense.len(), tree.len());
            }
            assert!(dense.iter().eq(tree.iter().copied()), "n = {n}");
            for s in 0..n + 1 {
                for t in 0..n + 1 {
                    assert_eq!(dense.contains(s, t), tree.contains(&(s, t)));
                }
            }
            assert_eq!(dense, PairSet::from_pairs(n, tree.iter().copied()));
            dense.clear();
            assert_eq!((dense.len(), dense.iter().count()), (0, 0));
        }
    }

    /// `fill_off_diagonal` is the word-fill twin of inserting every
    /// ordered pair `s ≠ t` one by one — over whatever was there before.
    #[test]
    fn fill_equals_inserting_every_ordered_pair() {
        for n in [0usize, 1, 2, 8, 11, 64, 67] {
            let mut filled = PairSet::new(n);
            if n > 2 {
                filled.insert(1, 1);
                filled.insert(0, 2);
            }
            filled.fill_off_diagonal();
            let one_by_one = PairSet::from_pairs(
                n,
                (0..n).flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t))),
            );
            assert_eq!(filled, one_by_one, "n = {n}");
            assert_eq!(filled.len(), n * n - n);
            assert!(filled.iter().eq(one_by_one.iter()));
            assert!(filled.iter().all(|(s, t)| s != t));
        }
    }

    #[test]
    fn edge_set_is_normalized() {
        let g = Graph::from_edges(4, [(2, 1), (0, 3)]).unwrap();
        let edges = PairSet::of_edges(&g);
        assert_eq!(edges.iter().collect::<Vec<_>>(), vec![(0, 3), (1, 2)]);
        assert!(!edges.contains(2, 1));
    }
}
