//! Affected-region delta recompute over all-pairs preferred routes.
//!
//! Given the all-pairs preferred trees of a topology and an edge delta
//! (removals *and* additions), [`DeltaTracker`] identifies the ordered
//! `(source, target)` pairs whose preferred route can change — bounded
//! by the delta's reach under the algebra, not all `n²` — and repairs
//! the [`PreferredTree`]s of only the sources that own an affected pair,
//! through the exact incremental twin of Dijkstra
//! ([`TreeRepair`](crate::TreeRepair)). Consumers (the self-healing forwarding plane, the serve
//! reconcile path) drive their repair off the affected set through the
//! [`DeltaOracle`] trait instead of rebuilding from scratch.
//!
//! # Soundness
//!
//! *Removals* affect exactly the pairs whose preferred-tree path crossed
//! a removed edge: every other pair's chosen route survives, and because
//! the generalized Dijkstra's tie-break (strictly better weight, or
//! equal weight with strictly fewer hops, earliest offer wins ties) is a
//! function of the final labels, losing candidate routes cannot flip a
//! surviving winner.
//!
//! *Additions* are bounded through the added edge itself: any route that
//! changes must cross some added edge `(x, y)`, so its weight is no
//! better than `opt(s, x) ⊕ w(x, y) ⊕ opt(y, t)` with the segment optima
//! taken from two fresh Dijkstra trees rooted at `x` and `y` on the
//! *new* graph. A pair is marked affected when that via-weight is
//! lex-no-worse than its old label — non-strict, because an equal-weight
//! offer through the new edge can still steal parentship from an
//! incumbent. With [`hop_tiebreak`](DeltaTracker::with_hop_tiebreak)
//! enabled (sound only for strictly monotone algebras such as additive
//! costs), weight ties additionally require `via_hops ≤ old_hops` to
//! mark the pair, which keeps the affected set sharp.
//!
//! # Orientation
//!
//! The tracker's reach analysis runs per preferred tree — `(root, v)`
//! meaning the tree rooted at `root` may change its path to `v` — but
//! the reported pairs are flipped into *route space*: destination-table
//! schemes serve the route `s → t` by walking `s` up the one in-tree
//! rooted at `t` (see `DestTable::build`), so the route pair dirtied by
//! tree-space `(root, v)` is `(v, root)`. For additions the via-bound
//! is evaluated over all ordered pairs and is symmetric (commutative
//! `⊕`, symmetric weights), so the flip only matters for removals,
//! where a removed edge can cross `tree(t) → s` without crossing
//! `tree(s) → t` when ties broke differently in the two trees.
//!
//! The tracker derives edge weights from a caller-supplied symmetric
//! `weigh(u, v)` function so re-added edges keep their weights across
//! arbitrary churn; the algebra's `⊕` must be commutative for the
//! two-orientation via-bound (true for every Table 1 carrier swept
//! here). Retained trees keep their node-level structure exactly; their
//! stored [`EdgeId`](cpr_graph::EdgeId)s may refer to a prior graph
//! revision after edge renumbering, so the tracker only ever consumes
//! node-level accessors.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use cpr_algebra::{PathWeight, RoutingAlgebra};
use cpr_graph::{EdgeWeights, Graph, NodeId};

use crate::dijkstra::dijkstra;
use crate::repair::{EdgeChanges, TreeRepair};
use crate::tree::PreferredTree;

/// The pairs a topology delta can affect, as reported by a
/// [`DeltaOracle`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirtyPairs {
    /// The oracle cannot bound the delta: treat every pair as affected.
    All,
    /// Exactly these ordered `(source, target)` pairs may change.
    Pairs(BTreeSet<(NodeId, NodeId)>),
}

/// A stateful delta oracle: advances its own topology view on each call
/// and reports which ordered pairs the step from its previous view to
/// `graph` can affect.
pub trait DeltaOracle {
    /// Advances the oracle to `graph`, returning the affected pairs of
    /// the delta between the previously observed topology and `graph`.
    fn affected_pairs(&mut self, graph: &Graph) -> DirtyPairs;
}

/// The conservative oracle: every delta affects every pair. Plugging it
/// into a delta-driven repair reproduces the legacy full-recompute
/// behavior.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullDirtyOracle;

impl DeltaOracle for FullDirtyOracle {
    fn affected_pairs(&mut self, _graph: &Graph) -> DirtyPairs {
        DirtyPairs::All
    }
}

/// What one [`DeltaTracker::advance`] step did.
#[derive(Clone, Debug, Default)]
pub struct DeltaReport {
    /// Edges present before the delta but not after.
    pub removed_edges: usize,
    /// Edges present after the delta but not before.
    pub added_edges: usize,
    /// Ordered `(source, target)` pairs whose *served* route can
    /// change, `source != target`. Oriented for destination-rooted
    /// serving: the route for `(s, t)` is the reversed path of the
    /// preferred tree rooted at `t`, so `(s, t)` is listed exactly when
    /// that tree's path to `s` may change.
    pub affected: BTreeSet<(NodeId, NodeId)>,
    /// Tree roots whose preferred tree was repaired (those owning at
    /// least one affected pair).
    pub recomputed_sources: usize,
}

/// Incrementally maintained all-pairs preferred trees under topology
/// churn.
///
/// Owns the current graph, its weights (materialized from the symmetric
/// `weigh` function), and one [`PreferredTree`] per source, advanced in
/// lockstep with the topology via [`advance`](Self::advance).
pub struct DeltaTracker<A: RoutingAlgebra> {
    alg: A,
    weigh: Box<dyn Fn(NodeId, NodeId) -> A::W + Send + Sync>,
    hop_tiebreak: bool,
    graph: Graph,
    weights: EdgeWeights<A::W>,
    trees: Vec<PreferredTree<A::W>>,
}

impl<A> DeltaTracker<A>
where
    A: RoutingAlgebra + Sync,
    A::W: Send + Sync,
{
    /// Builds the tracker on `graph`, computing all `n` preferred trees.
    ///
    /// `weigh(u, v)` must be symmetric (`weigh(u, v) == weigh(v, u)`)
    /// and total over node pairs: it is re-consulted whenever churn
    /// materializes an edge, so a removed-then-restored edge keeps its
    /// weight.
    pub fn new(
        alg: A,
        graph: &Graph,
        weigh: impl Fn(NodeId, NodeId) -> A::W + Send + Sync + 'static,
    ) -> Self {
        let weights = materialize(graph, &weigh);
        let trees = cpr_core::par::par_map_indexed(graph.node_count(), |s| {
            dijkstra(graph, &weights, &alg, s)
        });
        DeltaTracker {
            alg,
            weigh: Box::new(weigh),
            hop_tiebreak: false,
            graph: graph.clone(),
            weights,
            trees,
        }
    }

    /// Enables the hop refinement of the addition bound: a weight tie
    /// only marks a pair affected when the via-route also has no more
    /// hops than the incumbent. Sound only for strictly monotone
    /// algebras (`a ⊕ b` strictly worse than both, e.g. additive
    /// costs); leave off for bottleneck-style carriers such as widest
    /// path, where weight ties must stay conservatively affected.
    #[must_use]
    pub fn with_hop_tiebreak(mut self, on: bool) -> Self {
        self.hop_tiebreak = on;
        self
    }

    /// The topology of the last observed revision.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The weights of the last observed revision.
    pub fn weights(&self) -> &EdgeWeights<A::W> {
        &self.weights
    }

    /// The preferred tree rooted at `s` for the last observed revision.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn tree(&self, s: NodeId) -> &PreferredTree<A::W> {
        &self.trees[s]
    }

    /// Advances the tracker to `new_graph`, returning the affected pairs
    /// of the delta and repairing the trees of affected sources.
    ///
    /// # Panics
    ///
    /// Panics if the node count changes — node arrivals/departures are a
    /// re-provisioning event, not a repairable delta (mirroring the
    /// self-healing plane's contract).
    pub fn advance(&mut self, new_graph: &Graph) -> DeltaReport {
        let n = self.graph.node_count();
        assert_eq!(
            new_graph.node_count(),
            n,
            "DeltaTracker::advance: node count changed"
        );
        let old_edges = edge_set(&self.graph);
        let new_edges = edge_set(new_graph);
        let removed: Vec<(NodeId, NodeId)> = old_edges.difference(&new_edges).copied().collect();
        let added: Vec<(NodeId, NodeId)> = new_edges.difference(&old_edges).copied().collect();
        if removed.is_empty() && added.is_empty() {
            return DeltaReport::default();
        }
        let new_weights = materialize(new_graph, &self.weigh);
        // Internal analysis runs in *tree space*: `(root, v)` means the
        // tree rooted at `root` may change its path to `v`. The report
        // flips each pair into *route space*: destination tables serve
        // the route `s → t` as the reversed `tree(t) → s` path, so
        // tree-space `(root, v)` dirties the served route `(v, root)`.
        let mut tree_affected: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();

        // Removal reach: per source, the subtrees hanging below removed
        // tree edges.
        if !removed.is_empty() {
            let removed_set: BTreeSet<(NodeId, NodeId)> = removed.iter().copied().collect();
            let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            let mut seen = vec![false; n];
            for s in 0..n {
                for list in &mut children {
                    list.clear();
                }
                let mut broken: Vec<NodeId> = Vec::new();
                let tree = &self.trees[s];
                for t in 0..n {
                    if t == s {
                        continue;
                    }
                    if let Some((p, _)) = tree.parent(t) {
                        children[p].push(t);
                        if removed_set.contains(&norm(p, t)) {
                            broken.push(t);
                        }
                    }
                }
                seen.iter_mut().for_each(|b| *b = false);
                while let Some(v) = broken.pop() {
                    if seen[v] {
                        continue;
                    }
                    seen[v] = true;
                    tree_affected.insert((s, v));
                    broken.extend_from_slice(&children[v]);
                }
            }
        }

        // Addition reach: pairs whose best route *via* an added edge is
        // lex-no-worse than their old label. Two fresh Dijkstra trees
        // per added edge on the new graph bound every via-route.
        for &(x, y) in &added {
            let tx = dijkstra(new_graph, &new_weights, &self.alg, x);
            let ty = dijkstra(new_graph, &new_weights, &self.alg, y);
            let e = new_graph
                .edge_between(x, y)
                .expect("added edge is in the new graph");
            let wxy = new_weights.weight(e);
            for s in 0..n {
                for t in 0..n {
                    if s == t || tree_affected.contains(&(s, t)) {
                        continue;
                    }
                    let old_w = self.trees[s].weight(t);
                    let old_h = self.trees[s].hops(t);
                    if self.via_affects(&tx, &ty, x, y, wxy, s, t, old_w, old_h)
                        || self.via_affects(&ty, &tx, y, x, wxy, s, t, old_w, old_h)
                    {
                        tree_affected.insert((s, t));
                    }
                }
            }
        }

        // Repair exactly the trees that own an affected pair, each into
        // the tree a from-scratch Dijkstra on the new graph would build;
        // every other tree provably already is that tree.
        let sources: Vec<NodeId> = {
            let mut out: Vec<NodeId> = tree_affected.iter().map(|&(s, _)| s).collect();
            out.dedup();
            out
        };
        let changes = EdgeChanges {
            removed: &removed,
            added: &added,
        };
        let mut repair = TreeRepair::new();
        for &s in &sources {
            repair.repair_tree(
                &mut self.trees[s],
                new_graph,
                &new_weights,
                &self.alg,
                changes,
            );
        }
        self.graph = new_graph.clone();
        self.weights = new_weights;
        // Flip into route space for consumers.
        let affected: BTreeSet<(NodeId, NodeId)> = tree_affected
            .into_iter()
            .map(|(root, v)| (v, root))
            .collect();
        DeltaReport {
            removed_edges: removed.len(),
            added_edges: added.len(),
            affected,
            recomputed_sources: sources.len(),
        }
    }

    /// Whether the route `s → … → x –(new edge)– y → … → t` can displace
    /// the incumbent label of `(s, t)`: its via-weight (optimal segments
    /// from the endpoint trees) is lex-no-worse than the old label.
    #[allow(clippy::too_many_arguments)]
    fn via_affects(
        &self,
        tx: &PreferredTree<A::W>,
        ty: &PreferredTree<A::W>,
        x: NodeId,
        y: NodeId,
        wxy: &A::W,
        s: NodeId,
        t: NodeId,
        old_w: &PathWeight<A::W>,
        old_h: u32,
    ) -> bool {
        let (seg_s, hop_s) = if s == x {
            (None, 0)
        } else if tx.reachable(s) {
            (Some(tx.weight(s)), tx.hops(s))
        } else {
            return false;
        };
        let (seg_t, hop_t) = if t == y {
            (None, 0)
        } else if ty.reachable(t) {
            (Some(ty.weight(t)), ty.hops(t))
        } else {
            return false;
        };
        let mut via = match seg_s {
            Some(w) => self.alg.combine_pw(w, &PathWeight::Finite(wxy.clone())),
            None => PathWeight::Finite(wxy.clone()),
        };
        if let Some(w) = seg_t {
            via = self.alg.combine_pw(&via, w);
        }
        if !via.is_finite() {
            return false;
        }
        match self.alg.compare_pw(&via, old_w) {
            Ordering::Less => true,
            Ordering::Equal => !self.hop_tiebreak || hop_s + 1 + hop_t <= old_h,
            Ordering::Greater => false,
        }
    }
}

impl<A> DeltaOracle for DeltaTracker<A>
where
    A: RoutingAlgebra + Sync,
    A::W: Send + Sync,
{
    fn affected_pairs(&mut self, graph: &Graph) -> DirtyPairs {
        if graph.node_count() != self.graph.node_count() {
            return DirtyPairs::All;
        }
        DirtyPairs::Pairs(self.advance(graph).affected)
    }
}

fn norm(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

fn edge_set(graph: &Graph) -> BTreeSet<(NodeId, NodeId)> {
    graph.edges().map(|(_, (u, v))| norm(u, v)).collect()
}

fn materialize<W: Clone>(
    graph: &Graph,
    weigh: &(impl Fn(NodeId, NodeId) -> W + ?Sized),
) -> EdgeWeights<W> {
    EdgeWeights::from_fn(graph, |e| {
        let (u, v) = graph.endpoints(e);
        weigh(u, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_algebra::policies::{ShortestPath, WidestPath};
    use cpr_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Deterministic symmetric pseudo-random weight for a node pair.
    fn mix(u: NodeId, v: NodeId, lo: u64, span: u64) -> u64 {
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        let mut h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        lo + h % span
    }

    /// One seeded churn step: removes or adds one random edge, keeping
    /// the graph simple. Returns `None` when the chosen kind is not
    /// possible (e.g. the graph is complete).
    fn churn_step(g: &Graph, rng: &mut StdRng) -> Option<Graph> {
        let n = g.node_count();
        if rng.gen_bool(0.5) && g.edge_count() > 1 {
            // Remove a random edge.
            let victim = rng.gen_range(0..g.edge_count());
            let kept = g.edges().filter(|&(e, _)| e != victim).map(|(_, uv)| uv);
            return Some(Graph::from_edges(n, kept).expect("subgraph is simple"));
        }
        // Add a random non-edge.
        for _ in 0..64 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && !g.contains_edge(u, v) {
                let mut g2 = g.clone();
                g2.add_edge(u, v).expect("non-edge adds cleanly");
                return Some(g2);
            }
        }
        None
    }

    /// After every advance, each tracker tree must be *identical* (path
    /// structure included) to a from-scratch Dijkstra on the new graph —
    /// including the trees the tracker chose not to recompute.
    fn assert_exact<A>(alg: &A, tracker: &DeltaTracker<A>, g: &Graph)
    where
        A: RoutingAlgebra + Sync,
        A::W: Send + Sync,
    {
        let w = materialize(g, &|u: NodeId, v: NodeId| {
            let got = tracker.weights();
            let e = g.edge_between(u, v).expect("edge exists");
            got.weight(e).clone()
        });
        for s in 0..g.node_count() {
            let fresh = dijkstra(g, &w, alg, s);
            for t in 0..g.node_count() {
                if t == s {
                    continue;
                }
                assert_eq!(
                    alg.compare_pw(tracker.tree(s).weight(t), fresh.weight(t)),
                    Ordering::Equal,
                    "weight({s},{t}) drifted"
                );
                assert_eq!(
                    tracker.tree(s).hops(t),
                    fresh.hops(t),
                    "hops({s},{t}) drifted"
                );
                assert_eq!(
                    tracker.tree(s).path_to(t),
                    fresh.path_to(t),
                    "path({s},{t}) drifted"
                );
            }
        }
    }

    #[test]
    fn tracker_matches_fresh_dijkstra_under_random_churn_shortest() {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xDE17_A000 + seed);
            let mut g = generators::gnp_connected(12, 0.3, &mut rng);
            let alg = ShortestPath;
            let mut tracker =
                DeltaTracker::new(alg, &g, |u, v| mix(u, v, 1, 16)).with_hop_tiebreak(true);
            for _ in 0..8 {
                let Some(g2) = churn_step(&g, &mut rng) else {
                    continue;
                };
                tracker.advance(&g2);
                g = g2;
                assert_exact(&ShortestPath, &tracker, &g);
            }
        }
    }

    #[test]
    fn tracker_matches_fresh_dijkstra_under_random_churn_widest() {
        use cpr_algebra::policies::Capacity;
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0x71DE_5700 + seed);
            let mut g = generators::gnp_connected(10, 0.35, &mut rng);
            let alg = WidestPath;
            // Coarse capacities: lots of ties, the hard case for the
            // conservative (tie ⇒ affected) bound.
            let mut tracker = DeltaTracker::new(alg, &g, |u, v| {
                Capacity::new(1 + mix(u, v, 0, 4)).expect("non-zero")
            });
            for _ in 0..8 {
                let Some(g2) = churn_step(&g, &mut rng) else {
                    continue;
                };
                tracker.advance(&g2);
                g = g2;
                assert_exact(&WidestPath, &tracker, &g);
            }
        }
    }

    #[test]
    fn no_delta_reports_nothing() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnp_connected(8, 0.4, &mut rng);
        let mut tracker = DeltaTracker::new(ShortestPath, &g, |u, v| mix(u, v, 1, 9));
        let report = tracker.advance(&g.clone());
        assert_eq!(report.affected.len(), 0);
        assert_eq!(report.recomputed_sources, 0);
        assert_eq!((report.removed_edges, report.added_edges), (0, 0));
    }

    #[test]
    fn addition_affects_improved_pairs_only_sparsely() {
        // A long path plus a chord: only pairs that genuinely shortcut
        // through the chord may be affected.
        let g = generators::path(8);
        let mut tracker = DeltaTracker::new(ShortestPath, &g, |_, _| 1).with_hop_tiebreak(true);
        let mut g2 = g.clone();
        g2.add_edge(0, 7).expect("chord");
        let report = tracker.advance(&g2);
        assert_eq!(report.added_edges, 1);
        assert!(report.affected.contains(&(0, 7)));
        assert!(report.affected.contains(&(7, 0)));
        // Adjacent pairs keep their one-hop route.
        assert!(!report.affected.contains(&(3, 4)));
        assert!(report.affected.len() < 8 * 7, "bound must not blow up");
        assert_exact(&ShortestPath, &tracker, &g2);
    }

    #[test]
    fn full_dirty_oracle_reports_all() {
        let g = generators::path(3);
        assert_eq!(FullDirtyOracle.affected_pairs(&g), DirtyPairs::All);
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn node_count_change_panics() {
        let g = generators::path(4);
        let mut tracker = DeltaTracker::new(ShortestPath, &g, |_, _| 1);
        let _ = tracker.advance(&generators::path(5));
    }
}
