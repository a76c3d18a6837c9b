//! Single-source preferred-path trees.

use cpr_algebra::PathWeight;
use cpr_graph::{EdgeId, Graph, NodeId, Port};

/// The result of a single-source preferred-path computation over a regular
/// algebra: for every destination, its preferred weight and the in-tree
/// parent edge (towards the source).
///
/// Proposition 2 context: for regular algebras the preferred paths
/// emanating from a node always make up a tree, which is what makes a
/// single routing entry per destination sufficient.
#[derive(Clone, Debug)]
pub struct PreferredTree<W> {
    source: NodeId,
    weight: Vec<PathWeight<W>>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    hops: Vec<u32>,
}

impl<W: Clone> PreferredTree<W> {
    /// Assembles a tree from raw per-node arrays (used by the solvers).
    ///
    /// # Panics
    ///
    /// Panics if the array lengths differ.
    pub(crate) fn from_parts(
        source: NodeId,
        weight: Vec<PathWeight<W>>,
        parent: Vec<Option<(NodeId, EdgeId)>>,
        hops: Vec<u32>,
    ) -> Self {
        assert_eq!(weight.len(), parent.len());
        assert_eq!(weight.len(), hops.len());
        PreferredTree {
            source,
            weight,
            parent,
            hops,
        }
    }

    /// Overwrites `t`'s entry (used by the incremental repair).
    pub(crate) fn set_entry(
        &mut self,
        t: NodeId,
        weight: PathWeight<W>,
        parent: Option<(NodeId, EdgeId)>,
        hops: u32,
    ) {
        self.weight[t] = weight;
        self.parent[t] = parent;
        self.hops[t] = hops;
    }

    /// The source node of this tree.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of nodes the computation covered.
    pub fn len(&self) -> usize {
        self.weight.len()
    }

    /// `true` only for a degenerate empty graph.
    pub fn is_empty(&self) -> bool {
        self.weight.is_empty()
    }

    /// The preferred weight from the source to `t` (`φ` when unreachable;
    /// the source itself reports `φ` because the trivial path carries no
    /// weight in a semigroup without identity).
    pub fn weight(&self, t: NodeId) -> &PathWeight<W> {
        &self.weight[t]
    }

    /// The parent of `t` in the tree: its predecessor node and the
    /// connecting edge on the preferred source→`t` path.
    pub fn parent(&self, t: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[t]
    }

    /// Hop count of the preferred source→`t` path (0 for the source).
    pub fn hops(&self, t: NodeId) -> u32 {
        self.hops[t]
    }

    /// `true` when `t` is reachable (the source counts as reachable).
    pub fn reachable(&self, t: NodeId) -> bool {
        t == self.source || self.parent[t].is_some()
    }

    /// The preferred path from the source to `t` as a node sequence
    /// (including both endpoints), or `None` when unreachable.
    pub fn path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        if t == self.source {
            return Some(vec![t]);
        }
        let mut rev = vec![t];
        let mut cur = t;
        while let Some((prev, _)) = self.parent[cur] {
            rev.push(prev);
            cur = prev;
            if cur == self.source {
                rev.reverse();
                return Some(rev);
            }
            if rev.len() > self.weight.len() {
                panic!("parent pointers contain a cycle");
            }
        }
        None
    }

    /// The first hop from the source towards `t`: the neighbour and the
    /// source's local port, or `None` when `t` is unreachable or the
    /// source itself. Walks the parent chain keeping the last child
    /// seen — no path is materialised.
    pub fn first_hop(&self, graph: &Graph, t: NodeId) -> Option<(NodeId, Port)> {
        let mut next = t;
        for _ in 0..self.parent.len() {
            if next == self.source {
                return None;
            }
            let (prev, _) = self.parent[next]?;
            if prev == self.source {
                let port = graph
                    .port_towards(self.source, next)
                    .expect("tree edge must exist in the graph");
                return Some((next, port));
            }
            next = prev;
        }
        panic!("parent pointers contain a cycle");
    }

    /// The neighbour of [`first_hop`](Self::first_hop) for **every**
    /// target in one `O(n)` pass: `hops[t]` is the first node after the
    /// source on the preferred path to `t`, `None` for the source and
    /// for unreachable targets. Each parent chain is climbed only up to
    /// the first node already resolved, so a whole forwarding row costs
    /// `n` steps rather than the sum of its path lengths.
    ///
    /// # Panics
    ///
    /// Panics if the parent pointers contain a cycle.
    pub fn first_hops(&self) -> Vec<Option<NodeId>> {
        let n = self.parent.len();
        let mut hops: Vec<Option<NodeId>> = vec![None; n];
        let mut resolved = vec![false; n];
        let mut chain: Vec<NodeId> = Vec::new();
        for t in 0..n {
            let mut cur = t;
            let hop = loop {
                if cur == self.source {
                    // The topmost climbed node is a child of the source.
                    break chain.last().copied();
                }
                if resolved[cur] {
                    break hops[cur];
                }
                chain.push(cur);
                assert!(chain.len() <= n, "parent pointers contain a cycle");
                match self.parent[cur] {
                    Some((prev, _)) => cur = prev,
                    None => break None,
                }
            };
            for v in chain.drain(..) {
                hops[v] = hop;
                resolved[v] = true;
            }
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_algebra::policies::ShortestPath;
    use cpr_graph::{generators, EdgeWeights};

    fn tree_on_path() -> (Graph, PreferredTree<u64>) {
        let g = generators::path(4);
        let w = EdgeWeights::uniform(&g, 1u64);
        let t = crate::dijkstra(&g, &w, &ShortestPath, 0);
        (g, t)
    }

    #[test]
    fn path_extraction() {
        let (_, t) = tree_on_path();
        assert_eq!(t.path_to(3), Some(vec![0, 1, 2, 3]));
        assert_eq!(t.path_to(0), Some(vec![0]));
        assert_eq!(t.hops(3), 3);
        assert_eq!(t.hops(0), 0);
    }

    #[test]
    fn first_hop_ports() {
        let (g, t) = tree_on_path();
        assert_eq!(t.first_hop(&g, 3), Some((1, 0)));
        assert_eq!(t.first_hop(&g, 0), None);
    }

    /// Per-target `first_hop` is the reference for the one-pass
    /// `first_hops`: random trees (sparse graphs, so some targets are
    /// unreachable), every source, every target incl. the source itself.
    #[test]
    fn first_hops_equals_per_target_first_hop() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1_2575);
        for trial in 0..24 {
            let n = 2 + trial;
            let g = generators::gnp(n, 1.2 / n as f64, &mut rng);
            let w = EdgeWeights::from_fn(&g, |e| (e as u64 * 7 + trial as u64) % 5 + 1);
            let mut unreachable = 0usize;
            for s in g.nodes() {
                let tree = crate::dijkstra(&g, &w, &ShortestPath, s);
                let hops = tree.first_hops();
                assert_eq!(hops.len(), n);
                assert_eq!(hops[s], None);
                for t in g.nodes() {
                    assert_eq!(
                        hops[t],
                        tree.first_hop(&g, t).map(|(next, _)| next),
                        "trial {trial}: {s} → {t}"
                    );
                    // And both agree with the materialised path.
                    assert_eq!(
                        hops[t],
                        tree.path_to(t).and_then(|p| p.get(1).copied()),
                        "trial {trial}: {s} → {t}"
                    );
                    unreachable += usize::from(!tree.reachable(t));
                }
            }
            assert!(
                trial < 8 || unreachable > 0,
                "trial {trial} never disconnects"
            );
        }
    }

    #[test]
    fn unreachable_nodes() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        let t = crate::dijkstra(&g, &w, &ShortestPath, 0);
        assert!(!t.reachable(2));
        assert_eq!(t.path_to(2), None);
        assert!(t.weight(2).is_infinite());
        assert!(t.reachable(0));
    }
}
