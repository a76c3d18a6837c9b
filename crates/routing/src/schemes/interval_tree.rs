//! Classic interval routing on a spanning tree.
//!
//! Each node stores one DFS interval per tree port; addresses are DFS
//! numbers. Local memory is `O(deg_T(v) · log n)` bits — already sublinear
//! and the conceptual baseline for the `O(log n)` schemes of
//! Fraigniaud–Gavoille and Thorup–Zwick (see
//! [`TzTreeRouting`](crate::TzTreeRouting) for the latter).

use cpr_algebra::RoutingAlgebra;
use cpr_graph::{EdgeId, EdgeWeights, Graph, NodeId};

use crate::bits::{node_id_bits, port_bits};
use crate::scheme::{RouteAction, RoutingScheme};
use crate::schemes::spanning_tree::preferred_spanning_tree;
use crate::tree::RootedTree;

/// Interval tree routing: labels are DFS numbers, each node stores its own
/// interval, its parent port, and one `(interval, port)` entry per child.
///
/// Routes *on the tree only* — for a spanning tree of a selective monotone
/// algebra (Lemma 1), the tree path is a preferred path of the whole graph.
///
/// # Examples
///
/// ```
/// use cpr_algebra::policies::WidestPath;
/// use cpr_graph::{generators, EdgeWeights};
/// use cpr_routing::{route, IntervalTreeRouting};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let g = generators::gnp_connected(12, 0.3, &mut rng);
/// let w = EdgeWeights::random(&g, &WidestPath, &mut rng);
/// let scheme = IntervalTreeRouting::spanning(&g, &w, &WidestPath);
/// let path = route(&scheme, &g, 0, 7).unwrap();
/// assert_eq!(path.last(), Some(&7));
/// ```
#[derive(Clone, Debug)]
pub struct IntervalTreeRouting {
    name: String,
    tree: RootedTree,
    degree: Vec<usize>,
}

impl IntervalTreeRouting {
    /// Builds interval routing over an explicit spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if `tree_edges` is not a spanning tree of `graph`.
    pub fn new(name: String, graph: &Graph, tree_edges: &[EdgeId], root: NodeId) -> Self {
        let tree = RootedTree::from_edges(graph, tree_edges, root)
            .expect("tree_edges must form a spanning tree");
        IntervalTreeRouting {
            name,
            tree,
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
        }
    }

    /// Builds interval routing over the Lemma 1 preferred spanning tree of
    /// the algebra — the Theorem 1 compressible implementation for
    /// selective monotone policies.
    ///
    /// # Panics
    ///
    /// Panics on disconnected graphs (the preferred spanning structure is
    /// then a forest, not a tree).
    pub fn spanning<A: RoutingAlgebra>(
        graph: &Graph,
        weights: &EdgeWeights<A::W>,
        alg: &A,
    ) -> Self {
        let tree_edges = preferred_spanning_tree(graph, weights, alg);
        Self::new(
            format!("interval-tree[{}]", alg.name()),
            graph,
            &tree_edges,
            0,
        )
    }

    /// The underlying rooted tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }
}

impl RoutingScheme for IntervalTreeRouting {
    /// The target's DFS number.
    type Header = u32;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn initial_header(&self, _source: NodeId, target: NodeId) -> Option<u32> {
        Some(self.tree.dfs(target))
    }

    fn step(&self, at: NodeId, header: &u32) -> RouteAction<u32> {
        let d = *header;
        if d == self.tree.dfs(at) {
            return RouteAction::Deliver;
        }
        if self.tree.in_subtree(at, d) {
            for &(c, port) in self.tree.children(at) {
                if self.tree.in_subtree(c, d) {
                    return RouteAction::Forward { port, header: d };
                }
            }
            unreachable!("descendant must be in some child's subtree");
        }
        RouteAction::Forward {
            port: self
                .tree
                .parent_port(at)
                .expect("non-root node has a parent"),
            header: d,
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        let id = node_id_bits(self.tree.len());
        let port = port_bits(self.degree[v]);
        // Own interval + parent port + per-child (interval, port).
        let children = self.tree.children(v).len() as u64;
        2 * id + port + children * (2 * id + port)
    }

    fn label_bits(&self, _v: NodeId) -> u64 {
        node_id_bits(self.tree.len())
    }

    fn header_bits(&self) -> u64 {
        node_id_bits(self.tree.len())
    }

    /// The target's DFS number is the header; no node rewrites it.
    fn destination_labelled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{route, MemoryReport};
    use cpr_algebra::policies::{UsablePath, WidestPath};
    use cpr_algebra::RoutingAlgebra;
    use cpr_graph::generators;
    use cpr_paths::AllPairs;
    use rand::SeedableRng;

    #[test]
    fn routes_along_tree_paths() {
        let g = generators::balanced_tree(2, 4);
        let edges: Vec<_> = g.edges().map(|(e, _)| e).collect();
        let scheme = IntervalTreeRouting::new("t".into(), &g, &edges, 0);
        for s in g.nodes() {
            for t in g.nodes() {
                let path = route(&scheme, &g, s, t).unwrap();
                assert_eq!(path, scheme.tree().tree_path(s, t), "{s} → {t}");
            }
        }
    }

    #[test]
    fn widest_path_routes_are_preferred() {
        // Theorem 1 end-to-end: spanning-tree interval routing implements
        // the widest-path policy exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(400);
        let g = generators::gnp_connected(25, 0.2, &mut rng);
        let w = EdgeWeights::random(&g, &WidestPath, &mut rng);
        let scheme = IntervalTreeRouting::spanning(&g, &w, &WidestPath);
        let ap = AllPairs::compute(&g, &w, &WidestPath);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, &g, s, t).unwrap();
                let got = w.path_weight(&WidestPath, &g, &path);
                assert_eq!(
                    WidestPath.compare_pw(&got, ap.weight(s, t)),
                    std::cmp::Ordering::Equal,
                    "{s} → {t}: tree route not preferred"
                );
            }
        }
    }

    #[test]
    fn memory_is_logarithmic_per_tree_degree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(401);
        let g = generators::gnp_connected(200, 0.05, &mut rng);
        let w = EdgeWeights::random(&g, &UsablePath, &mut rng);
        let scheme = IntervalTreeRouting::spanning(&g, &w, &UsablePath);
        let report = MemoryReport::measure(&scheme);
        let n = g.node_count();
        assert!(report.max_label_bits <= node_id_bits(n));
        // The honest bound: (deg_T(v) + 1) · (2 log n + log d) at every
        // node, and well below the Θ(n log d) of destination tables.
        let max_tree_deg = g
            .nodes()
            .map(|v| scheme.tree().children(v).len() + 1)
            .max()
            .unwrap() as u64;
        let id = node_id_bits(n);
        assert!(report.max_local_bits <= (max_tree_deg + 1) * (2 * id + 8));
        let dest_table_bits = (n as u64 - 1) * (port_bits(g.max_degree()) + 1);
        assert!(
            report.max_local_bits < dest_table_bits / 2,
            "interval routing ({}) should be well below tables ({dest_table_bits})",
            report.max_local_bits
        );
    }

    #[test]
    fn self_route_is_trivial() {
        let g = generators::path(5);
        let edges: Vec<_> = g.edges().map(|(e, _)| e).collect();
        let scheme = IntervalTreeRouting::new("t".into(), &g, &edges, 2);
        assert_eq!(route(&scheme, &g, 3, 3).unwrap(), vec![3]);
    }
}
