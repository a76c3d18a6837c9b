//! Bottleneck-class tables for shortest-widest path: an `O(n·(k + log k))`
//! upper bound for the paper's open question.
//!
//! §3.1 leaves open whether the `Ω(n)` bound for the non-isotone
//! `SW = W × S` is tight: "the only trivial routing function for `SW`
//! stores a separate routing table entry for each source-destination
//! pair, which needs `O(n² log d)` bits per router". This scheme improves
//! that trivial upper bound by exploiting the *decomposition* that also
//! powers the exact solver: an `SW`-preferred path is a cost-shortest
//! path inside the subgraph of edges with capacity at least the pair's
//! maximum bottleneck.
//!
//! Forwarding is therefore destination-based *per bottleneck class*: the
//! header carries `(target, class)` where `class` indexes the pair's
//! bottleneck among the `k ≤ m` distinct edge capacities; each node keeps
//! one destination table per class (cost-shortest on the filtered
//! subgraph — a regular computation, so hop-by-hop forwarding is sound
//! within a class), plus its own per-destination class index to
//! initialize headers. Local memory: `O(k·n·log d + n·log k)` bits —
//! sublinear in `n²` whenever the capacity diversity `k` is `o(n)`, which
//! answers the open question's *practical* face: the quadratic trivial
//! bound is not tight when capacities are coarse-grained (e.g. standard
//! link rates).

use cpr_algebra::policies::{Capacity, ShortestPath};
use cpr_graph::{EdgeWeights, Graph, NodeId, Port};
use cpr_paths::{dijkstra, SwWeight};

use crate::bits::{ceil_log2, node_id_bits, port_bits};
use crate::scheme::{RouteAction, RoutingScheme};

/// The header: the destination and its bottleneck-class index (an index
/// into the sorted list of distinct edge capacities).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SwHeader {
    /// The destination node.
    pub target: NodeId,
    /// Index of the pair's maximum bottleneck capacity.
    pub class: usize,
}

/// Destination-based-per-class routing tables for shortest-widest path.
/// See module docs.
///
/// # Examples
///
/// ```
/// use cpr_algebra::policies::Capacity;
/// use cpr_graph::{generators, EdgeWeights};
/// use cpr_routing::{route, SwClassTable};
///
/// let g = generators::cycle(5);
/// let w = EdgeWeights::from_fn(&g, |e| (Capacity::new(e as u64 + 1).unwrap(), 1));
/// let scheme = SwClassTable::build(&g, &w);
/// assert_eq!(route(&scheme, &g, 0, 3).unwrap().last(), Some(&3));
/// ```
#[derive(Clone, Debug)]
pub struct SwClassTable {
    n: usize,
    /// The distinct capacities, ascending; `classes[i]` is class `i`.
    classes: Vec<Capacity>,
    /// `tables[(class · n + u) · n + t]`: port at `u` towards `t` on the
    /// cost-shortest path within the class-`class` subgraph, [`NONE`]
    /// when there is none. Flat and 32 bits per entry: the scheme is
    /// cloned into every serving snapshot.
    tables: Vec<u32>,
    /// `class_of[s · n + t]`: the bottleneck class of the pair, stored at
    /// `s`; [`NONE`] when `t` is unreachable from `s`.
    class_of: Vec<u32>,
    degree: Vec<usize>,
}

/// The "no entry" value of the flat tables (ports and class indices are
/// checked to stay below it at build time).
const NONE: u32 = u32::MAX;

fn narrow(v: usize) -> u32 {
    u32::try_from(v)
        .ok()
        .filter(|&v| v != NONE)
        .expect("port / class index fits 32 bits")
}

impl SwClassTable {
    /// Builds the scheme: one widest-path Dijkstra per source for the
    /// class indices, one cost-Dijkstra per (class, source) for the
    /// tables. Each tree yields its whole row through one
    /// [`first_hops`](cpr_paths::PreferredTree::first_hops) pass and one
    /// neighbour → port table of the source — `O(n)` per tree, nothing
    /// allocated per target.
    ///
    /// # Panics
    ///
    /// Panics if the weighting does not match the graph.
    pub fn build(graph: &Graph, weights: &EdgeWeights<SwWeight>) -> Self {
        let n = graph.node_count();
        assert_eq!(weights.len(), graph.edge_count(), "weighting mismatch");

        let mut classes: Vec<Capacity> = (0..graph.edge_count())
            .map(|e| weights.weight(e).0)
            .collect();
        classes.sort_unstable();
        classes.dedup();

        // Per-class filtered subgraphs. They share node ids but NOT port
        // numbers with the host graph; first hops are mapped back
        // through the host's ports.
        let subgraphs: Vec<(Graph, EdgeWeights<u64>)> = classes
            .iter()
            .map(|&b| {
                let (sub, origin) = graph.filter_edges(|e, _| weights.weight(e).0 >= b);
                let sub_w = EdgeWeights::from_vec(
                    &sub,
                    origin.iter().map(|&e| weights.weight(e).1).collect(),
                );
                (sub, sub_w)
            })
            .collect();
        let tables = cpr_core::par::par_map_indexed(classes.len() * n, |i| -> Vec<u32> {
            let (class, s) = (i / n, i % n);
            let (sub, sub_w) = &subgraphs[class];
            let mut port_of = vec![NONE; n];
            for (port, (next, _)) in graph.neighbors(s).enumerate() {
                port_of[next] = narrow(port);
            }
            dijkstra(sub, sub_w, &ShortestPath, s)
                .first_hops()
                .into_iter()
                .map(|hop| hop.map_or(NONE, |next| port_of[next]))
                .collect()
        })
        .concat();

        // Per-pair bottleneck classes from widest-path trees.
        let caps = EdgeWeights::from_vec(
            graph,
            (0..graph.edge_count())
                .map(|e| weights.weight(e).0)
                .collect(),
        );
        let class_of = cpr_core::par::par_map_indexed(n, |s| -> Vec<u32> {
            let widest = dijkstra(graph, &caps, &cpr_algebra::policies::WidestPath, s);
            (0..n)
                .map(|t| {
                    widest.weight(t).finite().map_or(NONE, |b| {
                        narrow(
                            classes
                                .binary_search(b)
                                .expect("bottleneck is a distinct edge capacity"),
                        )
                    })
                })
                .collect()
        })
        .concat();

        SwClassTable {
            n,
            classes,
            tables,
            class_of,
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
        }
    }

    /// Number of distinct capacity classes `k`.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

impl RoutingScheme for SwClassTable {
    type Header = SwHeader;

    fn name(&self) -> String {
        format!("sw-class-table[k={}]", self.classes.len())
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<SwHeader> {
        if source == target {
            return Some(SwHeader { target, class: 0 });
        }
        match self.class_of[source * self.n + target] {
            NONE => None,
            class => Some(SwHeader {
                target,
                class: class as usize,
            }),
        }
    }

    fn step(&self, at: NodeId, header: &SwHeader) -> RouteAction<SwHeader> {
        if at == header.target {
            return RouteAction::Deliver;
        }
        let port = match self.tables[(header.class * self.n + at) * self.n + header.target] {
            NONE => usize::MAX, // misroute loudly
            port => port as Port,
        };
        RouteAction::Forward {
            port,
            header: *header,
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        let k = self.classes.len() as u64;
        let per_class_entry = port_bits(self.degree[v]) + 1;
        let class_index = ceil_log2(k).max(1) as u64 + 1;
        // k per-class destination tables + the per-destination class map.
        k * (self.n as u64 - 1) * per_class_entry + (self.n as u64 - 1) * class_index
    }

    fn label_bits(&self, _v: NodeId) -> u64 {
        node_id_bits(self.n)
    }

    fn header_bits(&self) -> u64 {
        node_id_bits(self.n) + ceil_log2(self.classes.len() as u64).max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{route, MemoryReport};
    use crate::SrcDestTable;
    use cpr_algebra::{policies, RoutingAlgebra};
    use cpr_graph::generators;
    use cpr_paths::shortest_widest_exact;
    use rand::SeedableRng;

    #[test]
    fn routes_are_exactly_shortest_widest() {
        let sw = policies::shortest_widest();
        let mut rng = rand::rngs::StdRng::seed_from_u64(800);
        for trial in 0..4 {
            let g = generators::gnp_connected(18, 0.25, &mut rng);
            let w = EdgeWeights::random(&g, &sw, &mut rng);
            let scheme = SwClassTable::build(&g, &w);
            for s in g.nodes() {
                let truth = shortest_widest_exact(&g, &w, s);
                for t in g.nodes() {
                    if s == t {
                        continue;
                    }
                    let path = route(&scheme, &g, s, t)
                        .unwrap_or_else(|e| panic!("trial {trial} {s}→{t}: {e}"));
                    let got = w.path_weight(&sw, &g, &path);
                    assert_eq!(
                        sw.compare_pw(&got, truth.weight(t)),
                        std::cmp::Ordering::Equal,
                        "trial {trial}: {s} → {t} suboptimal"
                    );
                }
            }
        }
    }

    /// The build's row extraction (one `first_hops` pass + a port table
    /// per tree) against the per-target reference it replaced: one
    /// materialised path per (class, source, target), its second node
    /// looked up in the host's adjacency. Every `step` and every
    /// `initial_header` answer must be identical, including on graphs
    /// with unreachable pairs.
    #[test]
    fn build_matches_per_target_path_extraction_step_for_step() {
        use cpr_algebra::policies::WidestPath;
        let sw = policies::shortest_widest();
        let mut rng = rand::rngs::StdRng::seed_from_u64(804);
        for trial in 0..6 {
            let n = 10 + 3 * trial;
            let g = if trial % 2 == 0 {
                generators::gnp(n, 1.5 / n as f64, &mut rng)
            } else {
                generators::barabasi_albert(n, 2, &mut rng)
            };
            let w = EdgeWeights::random(&g, &sw, &mut rng);
            let scheme = SwClassTable::build(&g, &w);
            let caps = EdgeWeights::from_fn(&g, |e| w.weight(e).0);
            for (class, &b) in scheme.classes.iter().enumerate() {
                let (sub, origin) = g.filter_edges(|e, _| w.weight(e).0 >= b);
                let sub_w =
                    EdgeWeights::from_vec(&sub, origin.iter().map(|&e| w.weight(e).1).collect());
                for u in g.nodes() {
                    let tree = dijkstra(&sub, &sub_w, &ShortestPath, u);
                    for t in g.nodes() {
                        let header = SwHeader { target: t, class };
                        let expect = if u == t {
                            RouteAction::Deliver
                        } else {
                            let port = tree
                                .path_to(t)
                                .and_then(|path| path.get(1).copied())
                                .map(|next| g.port_towards(u, next).unwrap());
                            RouteAction::Forward {
                                port: port.unwrap_or(usize::MAX),
                                header,
                            }
                        };
                        assert_eq!(
                            scheme.step(u, &header),
                            expect,
                            "trial {trial}: class {class}, {u} → {t}"
                        );
                    }
                }
            }
            for s in g.nodes() {
                let widest = dijkstra(&g, &caps, &WidestPath, s);
                for t in g.nodes() {
                    let expect = if s == t {
                        Some(SwHeader {
                            target: t,
                            class: 0,
                        })
                    } else {
                        widest.weight(t).finite().map(|b| SwHeader {
                            target: t,
                            class: scheme.classes.binary_search(b).unwrap(),
                        })
                    };
                    assert_eq!(
                        scheme.initial_header(s, t),
                        expect,
                        "trial {trial}: {s} → {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn beats_pair_tables_when_capacities_are_coarse() {
        // Few distinct capacities (k = 3) on a moderately large graph:
        // the class tables are far below the Õ(n²) pair tables.
        let sw = policies::shortest_widest();
        let mut rng = rand::rngs::StdRng::seed_from_u64(801);
        let g = generators::gnp_connected(48, 0.12, &mut rng);
        let w = EdgeWeights::from_fn(&g, |e| {
            (
                policies::Capacity::new([10, 100, 1000][e % 3]).unwrap(),
                (e as u64 % 7) + 1,
            )
        });
        let class_scheme = SwClassTable::build(&g, &w);
        assert_eq!(class_scheme.class_count(), 3);
        let pair_scheme = SrcDestTable::build(&g, &sw.name(), |s| {
            let r = shortest_widest_exact(&g, &w, s);
            g.nodes().map(|t| r.path_to(t).map(<[_]>::to_vec)).collect()
        });
        let class_mem = MemoryReport::measure(&class_scheme);
        let pair_mem = MemoryReport::measure(&pair_scheme);
        assert!(
            class_mem.max_local_bits * 3 < pair_mem.max_local_bits,
            "class tables ({}) should be far below pair tables ({})",
            class_mem.max_local_bits,
            pair_mem.max_local_bits
        );
    }

    #[test]
    fn class_routes_agree_with_pair_tables_on_weights() {
        let sw = policies::shortest_widest();
        let mut rng = rand::rngs::StdRng::seed_from_u64(802);
        let g = generators::barabasi_albert(20, 2, &mut rng);
        let w = EdgeWeights::random(&g, &sw, &mut rng);
        let class_scheme = SwClassTable::build(&g, &w);
        let pair_scheme = SrcDestTable::build(&g, &sw.name(), |s| {
            let r = shortest_widest_exact(&g, &w, s);
            g.nodes().map(|t| r.path_to(t).map(<[_]>::to_vec)).collect()
        });
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let a = route(&class_scheme, &g, s, t).unwrap();
                let b = route(&pair_scheme, &g, s, t).unwrap();
                assert_eq!(
                    sw.compare_pw(&w.path_weight(&sw, &g, &a), &w.path_weight(&sw, &g, &b)),
                    std::cmp::Ordering::Equal
                );
            }
        }
    }

    #[test]
    fn unreachable_pairs_rejected() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![(Capacity::new(5).unwrap(), 2)]);
        let scheme = SwClassTable::build(&g, &w);
        assert!(scheme.initial_header(0, 2).is_none());
        assert!(route(&scheme, &g, 0, 2).is_err());
        assert_eq!(route(&scheme, &g, 0, 1).unwrap(), vec![0, 1]);
    }

    #[test]
    fn single_class_degenerates_to_shortest_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(803);
        let g = generators::gnp_connected(15, 0.3, &mut rng);
        let w = EdgeWeights::from_fn(&g, |e| (Capacity::new(7).unwrap(), (e as u64 % 5) + 1));
        let scheme = SwClassTable::build(&g, &w);
        assert_eq!(scheme.class_count(), 1);
        // With one capacity everywhere, SW = plain shortest path.
        let costs = EdgeWeights::from_fn(&g, |e| (e as u64 % 5) + 1);
        for s in g.nodes() {
            let tree = dijkstra(&g, &costs, &ShortestPath, s);
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, &g, s, t).unwrap();
                let cost: u64 = path
                    .windows(2)
                    .map(|h| costs.weight(g.edge_between(h[0], h[1]).unwrap()))
                    .sum();
                assert_eq!(Some(&cost), tree.weight(t).finite());
            }
        }
    }
}
