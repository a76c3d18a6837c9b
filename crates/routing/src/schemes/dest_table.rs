//! Destination-based routing tables (paper Observation 1).
//!
//! The trivial routing function `R̂` for a regular algebra: each node keeps
//! one entry — a local port — per destination, `O(n log d)` bits. By
//! Proposition 2 this is *correct exactly for regular algebras*: the
//! preferred paths from each node form a tree, and by monotonicity +
//! isotonicity the next hop's own preferred path continues the route.

use cpr_algebra::RoutingAlgebra;
use cpr_graph::{EdgeWeights, Graph, NodeId, Port};
use cpr_paths::{dijkstra, EdgeChanges, PriorParent, TreeRepair};

use crate::bits::{node_id_bits, port_bits};
use crate::factory::SchemeFactory;
use crate::scheme::{RouteAction, RoutingScheme};
use crate::schemes::{narrow, port_moves, CUT, NONE};

/// Destination-indexed routing tables: `table[u][t]` is the local port at
/// `u` of the first edge along the preferred `u → t` path.
///
/// # Examples
///
/// ```
/// use cpr_algebra::policies::ShortestPath;
/// use cpr_graph::{generators, EdgeWeights};
/// use cpr_routing::{route, DestTable};
///
/// let g = generators::cycle(5);
/// let w = EdgeWeights::uniform(&g, 1u64);
/// let scheme = DestTable::build(&g, &w, &ShortestPath);
/// assert_eq!(route(&scheme, &g, 0, 2).unwrap(), vec![0, 1, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DestTable {
    name: String,
    n: usize,
    /// `table[u · n + t]`: the port at `u` towards `t`, [`NONE`] when
    /// there is none. Flat and 32 bits per entry: the scheme is cloned
    /// into every serving snapshot.
    table: Vec<u32>,
    degree: Vec<usize>,
}

impl DestTable {
    /// Builds the tables by running the generalized Dijkstra from every
    /// *destination* — in parallel across destinations (`CPR_THREADS`).
    /// The algebra must be regular for the result to implement the
    /// policy (Proposition 2).
    ///
    /// Every node's port towards `t` is its parent edge in the one
    /// in-tree rooted at `t`, never a hop of its own source tree. The
    /// distinction matters exactly when monotonicity is non-strict
    /// (widest-path, usable-path): equally-preferred cycles exist, and
    /// two source trees can break the tie in conflicting directions —
    /// node `u` preferring via `v` while `v` prefers via `u` — weaving
    /// a forwarding loop. Hops along one shared in-tree cannot cycle.
    /// Path weights are direction-independent here because every
    /// Table 1 carrier composes commutatively over undirected edges.
    pub fn build<A: RoutingAlgebra + Sync>(
        graph: &Graph,
        weights: &EdgeWeights<A::W>,
        alg: &A,
    ) -> Self
    where
        A::W: Send + Sync,
    {
        let n = graph.node_count();
        let per_target = cpr_core::par::par_map_indexed(n, |t| {
            let tree = dijkstra(graph, weights, alg, t);
            graph
                .nodes()
                .map(|u| {
                    tree.parent(u).map_or(NONE, |(parent, _)| {
                        narrow(
                            graph
                                .port_towards(u, parent)
                                .expect("tree edge must exist in the graph"),
                        )
                    })
                })
                .collect::<Vec<u32>>()
        });
        let mut table = vec![NONE; n * n];
        for (t, column) in per_target.iter().enumerate() {
            for (u, &port) in column.iter().enumerate() {
                table[u * n + t] = port;
            }
        }
        DestTable {
            name: format!("dest-table[{}]", alg.name()),
            n,
            table,
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
        }
    }

    /// Builds tables from precomputed first hops (`hops[u][t]`); used by
    /// schemes that compute paths with a non-Dijkstra solver.
    pub fn from_first_hops(name: String, hops: Vec<Vec<Option<Port>>>, degree: Vec<usize>) -> Self {
        assert_eq!(hops.len(), degree.len());
        let n = hops.len();
        let mut table = Vec::with_capacity(n * n);
        for row in &hops {
            assert_eq!(row.len(), n, "one entry per destination");
            table.extend(row.iter().map(|hop| hop.map_or(NONE, narrow)));
        }
        DestTable {
            name,
            n,
            table,
            degree,
        }
    }

    /// The incremental factory of a destination-table class over `alg`,
    /// edge `{u, v}` weighing `weigh(u, v)`: it builds with
    /// [`build`](Self::build) and maintains with [`update`](Self::update).
    /// `weigh` must be symmetric, so an edge weighs the same on either
    /// side of a topology step.
    pub fn factory<A, F>(alg: A, weigh: F) -> DestTableFactory<A, F>
    where
        F: Fn(NodeId, NodeId) -> A::W,
        A: RoutingAlgebra,
    {
        DestTableFactory { alg, weigh }
    }

    /// Maintains the tables, built (or last updated) for `from`, across
    /// one topology step to `to`: afterwards they equal
    /// `DestTable::build(to, weights, alg)` entry for entry.
    ///
    /// The table *is* each destination's in-tree, so every destination's
    /// tree is repaired by [`TreeRepair`] — node-granular, touching only
    /// the nodes whose label or tie-break winner can move — with labels
    /// folded from the tables on demand, never stored. Rows of nodes
    /// whose port numbering moved (the endpoints of every changed edge)
    /// are renumbered first.
    ///
    /// `weights` weigh `to`; every edge of both graphs must weigh the
    /// same in both.
    ///
    /// # Panics
    ///
    /// Panics if either graph's node count differs from the tables'.
    pub fn update<A: RoutingAlgebra>(
        &mut self,
        from: &Graph,
        to: &Graph,
        changes: EdgeChanges<'_>,
        weights: &EdgeWeights<A::W>,
        alg: &A,
    ) {
        let n = self.n;
        assert_eq!(from.node_count(), n, "tables built for another node count");
        assert_eq!(to.node_count(), n, "tables built for another node count");
        for (v, moves) in port_moves(from, to) {
            for port in &mut self.table[v * n..(v + 1) * n] {
                if *port != NONE {
                    *port = moves[*port as usize];
                }
            }
        }
        self.degree = to.nodes().map(|v| to.degree(v)).collect();
        let mut repair = TreeRepair::new();
        for t in 0..n {
            let table = &self.table;
            let prior = |v: NodeId| match table[v * n + t] {
                NONE => PriorParent::Unreached,
                CUT => PriorParent::Cut,
                port => {
                    let (node, edge) = to
                        .neighbor_at(v, port as Port)
                        .expect("a renumbered port is a port of the new graph");
                    PriorParent::Via { node, edge }
                }
            };
            for r in repair.repair(to, weights, alg, t, prior, changes) {
                self.table[r.node * n + t] = r.parent.map_or(NONE, |(_, _, port)| narrow(port));
            }
        }
    }

    /// The port `u` uses towards `t`, if routable.
    pub fn port(&self, u: NodeId, t: NodeId) -> Option<Port> {
        match self.table[u * self.n + t] {
            NONE => None,
            port => Some(port as Port),
        }
    }
}

/// A [`SchemeFactory`] that maintains a [`DestTable`] across topology
/// steps instead of rebuilding it; see [`DestTable::factory`].
pub struct DestTableFactory<A, F> {
    alg: A,
    weigh: F,
}

impl<A, F> DestTableFactory<A, F>
where
    A: RoutingAlgebra,
    F: Fn(NodeId, NodeId) -> A::W,
{
    fn weights(&self, graph: &Graph) -> EdgeWeights<A::W> {
        EdgeWeights::from_fn(graph, |e| {
            let (u, v) = graph.endpoints(e);
            (self.weigh)(u, v)
        })
    }
}

impl<A, F> SchemeFactory<DestTable> for DestTableFactory<A, F>
where
    A: RoutingAlgebra + Send + Sync,
    A::W: Send + Sync,
    F: Fn(NodeId, NodeId) -> A::W + Send + Sync,
{
    fn build(&self, graph: &Graph) -> DestTable {
        DestTable::build(graph, &self.weights(graph), &self.alg)
    }

    fn update(
        &self,
        scheme: &mut DestTable,
        from: &Graph,
        to: &Graph,
        changes: EdgeChanges<'_>,
    ) -> bool {
        let n = scheme.n;
        if from.node_count() != n || to.node_count() != n {
            return false;
        }
        scheme.update(from, to, changes, &self.weights(to), &self.alg);
        true
    }
}

impl RoutingScheme for DestTable {
    type Header = NodeId;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<NodeId> {
        if source == target || self.table[source * self.n + target] != NONE {
            Some(target)
        } else {
            None
        }
    }

    fn step(&self, at: NodeId, header: &NodeId) -> RouteAction<NodeId> {
        let target = *header;
        if at == target {
            return RouteAction::Deliver;
        }
        // A reachable pair always has an entry when the algebra is
        // regular; forwarding on port 0 here would mask scheme bugs, so
        // misroute loudly instead.
        let port = match self.table[at * self.n + target] {
            NONE => usize::MAX,
            port => port as Port,
        };
        RouteAction::Forward {
            port,
            header: target,
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        // One port per *other* destination, stored as a dense array
        // indexed by destination id (so no keys are stored), plus one
        // reachability bit per destination.
        let entries = (self.n - 1) as u64;
        entries * (port_bits(self.degree[v]) + 1)
    }

    fn label_bits(&self, _v: NodeId) -> u64 {
        node_id_bits(self.n)
    }

    fn header_bits(&self) -> u64 {
        node_id_bits(self.n)
    }

    /// The target id is the header; no node rewrites it.
    fn destination_labelled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{route, MemoryReport};
    use cpr_algebra::policies::{Capacity, ShortestPath, WidestPath};
    use cpr_algebra::{PathWeight, RoutingAlgebra};
    use cpr_graph::generators;
    use rand::SeedableRng;

    #[test]
    fn routes_all_pairs_on_random_graph_optimally() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let g = generators::gnp_connected(30, 0.15, &mut rng);
        let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let ap = cpr_paths::AllPairs::compute(&g, &w, &ShortestPath);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, &g, s, t).unwrap();
                let got = w.path_weight(&ShortestPath, &g, &path);
                assert_eq!(
                    ShortestPath.compare_pw(&got, ap.weight(s, t)),
                    std::cmp::Ordering::Equal,
                    "suboptimal route {s} → {t}"
                );
            }
        }
    }

    #[test]
    fn routes_widest_paths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let w = EdgeWeights::random(&g, &WidestPath, &mut rng);
        let scheme = DestTable::build(&g, &w, &WidestPath);
        let ap = cpr_paths::AllPairs::compute(&g, &w, &WidestPath);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, &g, s, t).unwrap();
                let got = w.path_weight(&WidestPath, &g, &path);
                assert_eq!(
                    WidestPath.compare_pw(&got, ap.weight(s, t)),
                    std::cmp::Ordering::Equal
                );
            }
        }
    }

    #[test]
    fn widest_path_tie_cycles_cannot_loop() {
        // Capacities drawn from a tiny range force equal-width ties all
        // over the graph. Widest-path is only non-strictly monotone, so
        // per-source trees can break such ties in conflicting
        // directions (u via v, v via u) and weave a forwarding loop —
        // the per-destination in-tree construction cannot. Every pair
        // must route without exhausting the hop budget, at the
        // preferred width.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x71E_100B);
        let g = generators::barabasi_albert(192, 2, &mut rng);
        let w = EdgeWeights::from_fn(&g, |e| {
            let (u, v) = g.endpoints(e);
            Capacity::new((u as u64 * 31 + v as u64) % 4 + 1).unwrap()
        });
        let scheme = DestTable::build(&g, &w, &WidestPath);
        let ap = cpr_paths::AllPairs::compute(&g, &w, &WidestPath);
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, &g, s, t)
                    .unwrap_or_else(|e| panic!("{s} → {t} failed to route: {e:?}"));
                let got = w.path_weight(&WidestPath, &g, &path);
                assert_eq!(
                    WidestPath.compare_pw(&got, ap.weight(s, t)),
                    std::cmp::Ordering::Equal,
                    "{s} → {t}: delivered width diverges from preferred"
                );
            }
        }
    }

    #[test]
    fn unroutable_pairs_rejected_at_source() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        assert!(scheme.initial_header(0, 2).is_none());
        assert!(route(&scheme, &g, 0, 2).is_err());
    }

    #[test]
    fn memory_grows_linearly_in_n() {
        // Observation 1: Θ(n log d) — doubling n roughly doubles memory.
        let mut rng = rand::rngs::StdRng::seed_from_u64(102);
        let mut prev = 0u64;
        for n in [32usize, 64, 128] {
            let g = generators::gnp_connected(n, 0.1, &mut rng);
            let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
            let scheme = DestTable::build(&g, &w, &ShortestPath);
            let report = MemoryReport::measure(&scheme);
            assert!(report.max_local_bits > prev, "memory must grow with n");
            prev = report.max_local_bits;
        }
    }

    #[test]
    fn self_delivery() {
        let g = generators::path(3);
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        assert_eq!(route(&scheme, &g, 1, 1).unwrap(), vec![1]);
    }

    #[test]
    fn weight_of_unreachable_is_phi_sanity() {
        // Sanity-check the test helper itself.
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        assert_eq!(
            w.path_weight(&ShortestPath, &g, &[0, 2]),
            PathWeight::Infinite
        );
    }

    use cpr_graph::Graph;
}
