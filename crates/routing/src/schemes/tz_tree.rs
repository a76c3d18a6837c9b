//! Thorup–Zwick tree routing: `O(log n)`-bit local state,
//! `O(log² n)`-bit labels.
//!
//! The paper's Table 1 cites this scheme (Thorup & Zwick, SPAA'01) as the
//! `log² n`-bit implementation of selective policies: the routing *tables*
//! shrink to a constant number of words by moving the light-edge ports of
//! the root path into the *labels*. A node keeps only its DFS interval,
//! parent port and heavy-child data; when the target sits below a light
//! child, the needed port is read out of the target's own label — which
//! lists the `≤ log₂ n` light edges on its root path.

use cpr_algebra::RoutingAlgebra;
use cpr_graph::{EdgeId, EdgeWeights, Graph, NodeId, Port};

use crate::bits::{node_id_bits, port_bits};
use crate::scheme::{RouteAction, RoutingScheme};
use crate::schemes::spanning_tree::preferred_spanning_tree;
use crate::tree::RootedTree;

/// A Thorup–Zwick tree-routing label: the node's DFS number plus the light
/// edges `(dfs(u), port-at-u)` on its root path, in root-to-leaf order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TzLabel {
    /// DFS number of the labelled node.
    pub dfs: u32,
    /// `(dfs(u), port)` for every light tree edge `u → child` on the root
    /// path; at most `⌊log₂ n⌋` entries.
    pub light: Vec<(u32, Port)>,
}

/// Thorup–Zwick tree routing over a spanning tree (see module docs).
///
/// # Examples
///
/// ```
/// use cpr_algebra::policies::WidestPath;
/// use cpr_graph::{generators, EdgeWeights};
/// use cpr_routing::{route, TzTreeRouting};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(6);
/// let g = generators::barabasi_albert(30, 2, &mut rng);
/// let w = EdgeWeights::random(&g, &WidestPath, &mut rng);
/// let scheme = TzTreeRouting::spanning(&g, &w, &WidestPath);
/// assert_eq!(route(&scheme, &g, 3, 17).unwrap().last(), Some(&17));
/// ```
#[derive(Clone, Debug)]
pub struct TzTreeRouting {
    name: String,
    tree: RootedTree,
    labels: Vec<TzLabel>,
    degree: Vec<usize>,
}

impl TzTreeRouting {
    /// Builds the scheme over an explicit spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if `tree_edges` is not a spanning tree of `graph`.
    pub fn new(name: String, graph: &Graph, tree_edges: &[EdgeId], root: NodeId) -> Self {
        let tree = RootedTree::from_edges(graph, tree_edges, root)
            .expect("tree_edges must form a spanning tree");
        let labels = graph
            .nodes()
            .map(|v| TzLabel {
                dfs: tree.dfs(v),
                light: tree
                    .light_edges_to(v)
                    .into_iter()
                    .map(|(u, port)| (tree.dfs(u), port))
                    .collect(),
            })
            .collect();
        TzTreeRouting {
            name,
            tree,
            labels,
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
        }
    }

    /// Builds the scheme over the Lemma 1 preferred spanning tree — the
    /// `log² n` implementation of a selective monotone policy from
    /// Table 1.
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
        Self::new(format!("tz-tree[{}]", alg.name()), graph, &tree_edges, 0)
    }

    /// The label of `v`.
    pub fn label(&self, v: NodeId) -> &TzLabel {
        &self.labels[v]
    }

    /// The underlying rooted tree.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }
}

impl RoutingScheme for TzTreeRouting {
    /// The target's full label travels in the header.
    type Header = TzLabel;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.tree.len()
    }

    fn initial_header(&self, _source: NodeId, target: NodeId) -> Option<TzLabel> {
        Some(self.labels[target].clone())
    }

    fn step(&self, at: NodeId, header: &TzLabel) -> RouteAction<TzLabel> {
        let d = header.dfs;
        if d == self.tree.dfs(at) {
            return RouteAction::Deliver;
        }
        if !self.tree.in_subtree(at, d) {
            return RouteAction::Forward {
                port: self
                    .tree
                    .parent_port(at)
                    .expect("target outside subtree implies non-root"),
                header: header.clone(),
            };
        }
        // Target strictly below us: heavy child or a light edge listed in
        // the target's label.
        if let Some((heavy, port)) = self.tree.heavy_child(at) {
            if self.tree.in_subtree(heavy, d) {
                return RouteAction::Forward {
                    port,
                    header: header.clone(),
                };
            }
        }
        let my_dfs = self.tree.dfs(at);
        let port = header
            .light
            .iter()
            .find(|(u_dfs, _)| *u_dfs == my_dfs)
            .map(|&(_, port)| port)
            .expect("descendant below a light child appears in the label");
        RouteAction::Forward {
            port,
            header: header.clone(),
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        let id = node_id_bits(self.tree.len());
        let port = port_bits(self.degree[v]);
        // Own interval (2 ids) + parent port + heavy child interval +
        // heavy child port: O(log n) regardless of degree.
        2 * id + port + 2 * id + port
    }

    fn label_bits(&self, v: NodeId) -> u64 {
        let id = node_id_bits(self.tree.len());
        let port = port_bits(self.degree[v].max(2));
        id + self.labels[v].light.len() as u64 * (id + port)
    }

    fn header_bits(&self) -> u64 {
        (0..self.tree.len())
            .map(|v| self.label_bits(v))
            .max()
            .unwrap_or(0)
    }

    /// The target's label is the header; no node rewrites it.
    fn destination_labelled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{route, MemoryReport};
    use crate::IntervalTreeRouting;
    use cpr_algebra::policies::{UsablePath, WidestPath};
    use cpr_algebra::RoutingAlgebra;
    use cpr_graph::generators;
    use cpr_paths::AllPairs;
    use rand::SeedableRng;

    #[test]
    fn routes_exactly_the_tree_paths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(500);
        for trial in 0..3 {
            let g = generators::gnp_connected(40, 0.1, &mut rng);
            let w = EdgeWeights::random(&g, &UsablePath, &mut rng);
            let tz = TzTreeRouting::spanning(&g, &w, &UsablePath);
            for s in g.nodes() {
                for t in g.nodes() {
                    let path = route(&tz, &g, s, t).unwrap();
                    assert_eq!(path, tz.tree().tree_path(s, t), "trial {trial}: {s} → {t}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_interval_routing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(501);
        let g = generators::barabasi_albert(35, 2, &mut rng);
        let w = EdgeWeights::random(&g, &WidestPath, &mut rng);
        let tree = preferred_spanning_tree(&g, &w, &WidestPath);
        let tz = TzTreeRouting::new("tz".into(), &g, &tree, 0);
        let iv = IntervalTreeRouting::new("iv".into(), &g, &tree, 0);
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(route(&tz, &g, s, t).unwrap(), route(&iv, &g, s, t).unwrap());
            }
        }
    }

    #[test]
    fn implements_widest_path_exactly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(502);
        let g = generators::gnp_connected(30, 0.15, &mut rng);
        let w = EdgeWeights::random(&g, &WidestPath, &mut rng);
        let tz = TzTreeRouting::spanning(&g, &w, &WidestPath);
        let ap = AllPairs::compute(&g, &w, &WidestPath);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(&tz, &g, s, t).unwrap();
                let got = w.path_weight(&WidestPath, &g, &path);
                assert_eq!(
                    WidestPath.compare_pw(&got, ap.weight(s, t)),
                    std::cmp::Ordering::Equal
                );
            }
        }
    }

    #[test]
    fn local_memory_is_constant_words() {
        // The point of TZ: local memory independent of degree.
        let g = generators::star(512);
        let edges: Vec<_> = g.edges().map(|(e, _)| e).collect();
        let tz = TzTreeRouting::new("tz".into(), &g, &edges, 0);
        let report = MemoryReport::measure(&tz);
        // 4 ids + 2 ports ≤ 4·10 + 2·9 = 58 bits at the hub.
        assert!(
            report.max_local_bits <= 64,
            "got {} bits",
            report.max_local_bits
        );
        // Labels stay O(log² n).
        assert!(report.max_label_bits <= 200);
    }

    #[test]
    fn label_light_lists_are_logarithmic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(503);
        let g = generators::gnp_connected(256, 0.03, &mut rng);
        let w = EdgeWeights::random(&g, &UsablePath, &mut rng);
        let tz = TzTreeRouting::spanning(&g, &w, &UsablePath);
        for v in g.nodes() {
            assert!(
                tz.label(v).light.len() <= 8, // ⌊log₂ 256⌋
                "node {v} has {} light entries",
                tz.label(v).light.len()
            );
        }
    }
}
