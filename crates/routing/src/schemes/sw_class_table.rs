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

use cpr_algebra::policies::{Capacity, ShortestPath, WidestPath};
use cpr_graph::{EdgeWeights, Graph, NodeId, Port};
use cpr_paths::{dijkstra, EdgeChanges, PreferredTree, PriorParent, SwWeight, TreeRepair};

use crate::bits::{ceil_log2, node_id_bits, port_bits};
use crate::factory::SchemeFactory;
use crate::scheme::{RouteAction, RoutingScheme};
use crate::schemes::{narrow, port_moves, NONE};

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
/// A built table also keeps the parents of every tree it was read off,
/// which is what [`update`](Self::update) repairs. That state lives on
/// the copy a build returns only: a clone — what a serving snapshot
/// holds — carries the routing tables alone, and equality compares the
/// routing tables alone.
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
#[derive(Debug)]
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
    /// The trees behind the tables; `None` on a clone.
    trees: Option<SwTrees>,
}

/// The parent of every node in every tree an [`SwClassTable`] was read
/// off, [`NONE`] for roots and unreachable nodes — ≤ `(k + 1)·n²` words,
/// kept for incremental maintenance only.
#[derive(Debug)]
struct SwTrees {
    /// `cost[(class · n + s) · n + v]`: `v`'s parent in the cost tree
    /// rooted at `s` within the class-`class` subgraph.
    cost: Vec<u32>,
    /// `widest[s · n + v]`: `v`'s parent in the widest-path tree rooted
    /// at `s`, whose labels are the class indices.
    widest: Vec<u32>,
}

impl Clone for SwClassTable {
    fn clone(&self) -> Self {
        SwClassTable {
            n: self.n,
            classes: self.classes.clone(),
            tables: self.tables.clone(),
            class_of: self.class_of.clone(),
            degree: self.degree.clone(),
            trees: None,
        }
    }
}

impl PartialEq for SwClassTable {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.classes == other.classes
            && self.tables == other.tables
            && self.class_of == other.class_of
            && self.degree == other.degree
    }
}

impl Eq for SwClassTable {}

/// A tree's parents as table words.
fn parent_words<W: Clone>(tree: &PreferredTree<W>) -> Vec<u32> {
    (0..tree.len())
        .map(|v| tree.parent(v).map_or(NONE, |(p, _)| narrow(p)))
        .collect()
}

/// A stored parent word of `v` as `graph` sees it.
fn prior_in(graph: &Graph, parent: u32, v: NodeId) -> PriorParent {
    match parent {
        NONE => PriorParent::Unreached,
        p => graph
            .edge_between(p as NodeId, v)
            .map_or(PriorParent::Cut, |edge| PriorParent::Via {
                node: p as NodeId,
                edge,
            }),
    }
}

/// The distinct capacities of a weighting, ascending.
fn capacity_classes(weights: &EdgeWeights<SwWeight>) -> Vec<Capacity> {
    let mut classes: Vec<Capacity> = (0..weights.len()).map(|e| weights.weight(e).0).collect();
    classes.sort_unstable();
    classes.dedup();
    classes
}

/// The class-`b` subgraph — edges of capacity at least `b` — weighted by
/// cost. It shares node ids, but not port numbers, with the host graph.
fn class_subgraph(
    graph: &Graph,
    weights: &EdgeWeights<SwWeight>,
    b: Capacity,
) -> (Graph, EdgeWeights<u64>) {
    let (sub, origin) = graph.filter_edges(|e, _| weights.weight(e).0 >= b);
    let sub_w = EdgeWeights::from_vec(&sub, origin.iter().map(|&e| weights.weight(e).1).collect());
    (sub, sub_w)
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

        let classes = capacity_classes(weights);
        // Per-class filtered subgraphs. They share node ids but NOT port
        // numbers with the host graph; first hops are mapped back
        // through the host's ports.
        let subgraphs: Vec<(Graph, EdgeWeights<u64>)> = classes
            .iter()
            .map(|&b| class_subgraph(graph, weights, b))
            .collect();
        let (rows, cost): (Vec<Vec<u32>>, Vec<Vec<u32>>) =
            cpr_core::par::par_map_indexed(classes.len() * n, |i| {
                let (class, s) = (i / n, i % n);
                let (sub, sub_w) = &subgraphs[class];
                let mut port_of = vec![NONE; n];
                for (port, (next, _)) in graph.neighbors(s).enumerate() {
                    port_of[next] = narrow(port);
                }
                let tree = dijkstra(sub, sub_w, &ShortestPath, s);
                let row = tree
                    .first_hops()
                    .into_iter()
                    .map(|hop| hop.map_or(NONE, |next| port_of[next]))
                    .collect();
                (row, parent_words(&tree))
            })
            .into_iter()
            .unzip();

        // Per-pair bottleneck classes from widest-path trees.
        let caps = EdgeWeights::from_fn(graph, |e| weights.weight(e).0);
        let (class_of, widest): (Vec<Vec<u32>>, Vec<Vec<u32>>) =
            cpr_core::par::par_map_indexed(n, |s| {
                let tree = dijkstra(graph, &caps, &WidestPath, s);
                let row = (0..n)
                    .map(|t| class_index(&classes, tree.weight(t).finite()))
                    .collect();
                (row, parent_words(&tree))
            })
            .into_iter()
            .unzip();

        SwClassTable {
            n,
            classes,
            tables: rows.concat(),
            class_of: class_of.concat(),
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
            trees: Some(SwTrees {
                cost: cost.concat(),
                widest: widest.concat(),
            }),
        }
    }

    /// Number of distinct capacity classes `k`.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The incremental factory of a shortest-widest class whose edge
    /// `{u, v}` weighs `weigh(u, v)` (symmetric): it builds with
    /// [`build`](Self::build) and maintains with
    /// [`update`](Self::update).
    pub fn factory<F>(weigh: F) -> SwClassTableFactory<F>
    where
        F: Fn(NodeId, NodeId) -> SwWeight,
    {
        SwClassTableFactory { weigh }
    }

    /// Maintains the scheme, built (or last updated) for `from`, across
    /// one topology step to `to`, edge `{u, v}` weighing `weigh(u, v)` on
    /// both sides: afterwards it equals `SwClassTable::build` on `to`.
    ///
    /// Every widest tree (behind the class indices) and every cost tree
    /// of every class whose subgraph the step touches — a changed edge of
    /// capacity `c` touches the classes `≤ c` only — is repaired by
    /// [`TreeRepair`]; a row entry moves only where its tree's first hop
    /// did.
    ///
    /// Returns `false`, leaving the scheme to be rebuilt, when it cannot
    /// apply: on a clone (no trees), across a node-count change, or when
    /// the step changes the set of capacity classes.
    pub fn update(
        &mut self,
        from: &Graph,
        to: &Graph,
        changes: EdgeChanges<'_>,
        weigh: impl Fn(NodeId, NodeId) -> SwWeight,
    ) -> bool {
        let n = self.n;
        if from.node_count() != n || to.node_count() != n {
            return false;
        }
        let weights = EdgeWeights::from_fn(to, |e| {
            let (u, v) = to.endpoints(e);
            weigh(u, v)
        });
        if capacity_classes(&weights) != self.classes {
            return false;
        }
        let Some(trees) = self.trees.as_mut() else {
            return false;
        };
        let k = self.classes.len();
        for (v, moves) in port_moves(from, to) {
            for class in 0..k {
                let row = (class * n + v) * n;
                for port in &mut self.tables[row..row + n] {
                    if *port != NONE {
                        *port = moves[*port as usize];
                    }
                }
            }
        }
        self.degree = to.nodes().map(|v| to.degree(v)).collect();

        let caps = EdgeWeights::from_fn(to, |e| weights.weight(e).0);
        let mut widest = TreeRepair::new();
        for s in 0..n {
            let parents = &mut trees.widest[s * n..(s + 1) * n];
            let prior = |v: NodeId| prior_in(to, parents[v], v);
            for r in widest.repair(to, &caps, &WidestPath, s, prior, changes) {
                parents[r.node] = r.parent.map_or(NONE, |(p, _, _)| narrow(p));
                self.class_of[s * n + r.node] = class_index(&self.classes, r.weight.finite());
            }
        }

        let mut cost = TreeRepair::new();
        let mut stack: Vec<NodeId> = Vec::new();
        let mut stamp = vec![usize::MAX; n];
        for (class, &b) in self.classes.iter().enumerate() {
            let touches = |&(u, v): &(NodeId, NodeId)| weigh(u, v).0 >= b;
            if !changes.removed.iter().chain(changes.added).any(touches) {
                continue;
            }
            let (sub, sub_w) = class_subgraph(to, &weights, b);
            for s in 0..n {
                let base = (class * n + s) * n;
                let parents = &mut trees.cost[base..base + n];
                let prior = |v: NodeId| prior_in(&sub, parents[v], v);
                let repaired = cost.repair(&sub, &sub_w, &ShortestPath, s, prior, changes);
                if repaired.is_empty() {
                    continue;
                }
                for r in repaired {
                    parents[r.node] = r.parent.map_or(NONE, |(p, _, _)| narrow(p));
                    stamp[r.node] = base;
                }
                // A repaired node's first hop is the top of its new
                // parent chain; below it, unrepaired nodes inherit.
                let row = &mut self.tables[base..base + n];
                for r in repaired {
                    let entry = first_hop(parents, s, r.node).map_or(NONE, |hop| {
                        narrow(to.port_towards(s, hop).expect("tree edge"))
                    });
                    if row[r.node] != entry {
                        row[r.node] = entry;
                        stack.push(r.node);
                    }
                }
                while let Some(x) = stack.pop() {
                    for (y, _) in sub.neighbors(x) {
                        if parents[y] as NodeId == x && stamp[y] != base && row[y] != row[x] {
                            row[y] = row[x];
                            stack.push(y);
                        }
                    }
                }
            }
        }
        true
    }
}

/// The class index of a bottleneck, [`NONE`] when unreachable.
fn class_index(classes: &[Capacity], bottleneck: Option<&Capacity>) -> u32 {
    bottleneck.map_or(NONE, |b| {
        narrow(
            classes
                .binary_search(b)
                .expect("bottleneck is a distinct edge capacity"),
        )
    })
}

/// The first node after `root` on `v`'s path in the tree `parents`
/// describes; `None` when `v` is the root or unreachable.
fn first_hop(parents: &[u32], root: NodeId, v: NodeId) -> Option<NodeId> {
    let mut x = v;
    for _ in 0..parents.len() {
        match parents[x] {
            NONE => return None,
            p if p as NodeId == root => return Some(x),
            p => x = p as NodeId,
        }
    }
    panic!("parent pointers contain a cycle");
}

/// A [`SchemeFactory`] that maintains an [`SwClassTable`] across topology
/// steps instead of rebuilding it; see [`SwClassTable::factory`].
pub struct SwClassTableFactory<F> {
    weigh: F,
}

impl<F> SchemeFactory<SwClassTable> for SwClassTableFactory<F>
where
    F: Fn(NodeId, NodeId) -> SwWeight + Send + Sync,
{
    fn build(&self, graph: &Graph) -> SwClassTable {
        let weights = EdgeWeights::from_fn(graph, |e| {
            let (u, v) = graph.endpoints(e);
            (self.weigh)(u, v)
        });
        SwClassTable::build(graph, &weights)
    }

    fn update(
        &self,
        scheme: &mut SwClassTable,
        from: &Graph,
        to: &Graph,
        changes: EdgeChanges<'_>,
    ) -> bool {
        scheme.update(from, to, changes, &self.weigh)
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
