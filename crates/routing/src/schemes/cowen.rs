//! The generalized Cowen stretch-3 compact routing scheme (paper §4.1,
//! Theorem 3).
//!
//! For a **delimited regular** algebra, Cowen's landmark scheme carries
//! over verbatim: pick a landmark set `L`, let every node `u` store routes
//! towards its *cluster* `C(u)` and all landmarks, and address node `v` by
//! the triple `(v, l_v, port at l_v towards v)`. In-cluster packets travel
//! preferred paths; everything else detours through the target's landmark,
//! and Lemma 4 bounds the detour by the algebraic stretch
//! `w(p) ⪯ (w(p*))³`.
//!
//! Balls use the paper's non-strict comparison,
//! `B(u) = {v : w(p*_{u,v}) ⪯ w(p*_{u,l_u})}` — which keeps the scheme
//! correct for *every* regular algebra (the suffix of a preferred path is
//! `⪯` the whole path by monotonicity, so clusters absorb the whole
//! landmark-to-target path). The flip side, faithfully reproduced here: in
//! a selective algebra, where all path weights tie, clusters can grow to
//! `Θ(n)` — the paper's remedy is that selective algebras should use tree
//! routing (Theorem 1) instead, with stretch 1.

use std::cmp::Ordering;

use cpr_algebra::{PathWeight, RoutingAlgebra};
use cpr_graph::{EdgeWeights, Graph, NodeId, Port};
use cpr_paths::{dijkstra, PreferredTree};
use rand::Rng;

use crate::bits::{node_id_bits, port_bits};
use crate::scheme::{RouteAction, RoutingScheme};

/// How the landmark set `L` is chosen.
#[derive(Clone, Debug)]
pub enum LandmarkStrategy {
    /// Use exactly this set.
    Custom(Vec<NodeId>),
    /// Thorup–Zwick random sampling: include each node with probability
    /// `√(ln n / n)`, retrying with a boosted probability while some
    /// cluster exceeds `4·√(n ln n)`; falls back to greedy augmentation
    /// after `attempts` tries. Expected memory `Õ(√n)`.
    TzRandom {
        /// Sampling rounds before falling back to greedy augmentation.
        attempts: u32,
    },
    /// Deterministic greedy: repeatedly promote the node with the largest
    /// cluster to a landmark until every cluster is at most the threshold
    /// (default `2·√(n ln n)`).
    GreedyCluster {
        /// Cluster-size target; `None` uses the default.
        threshold: Option<usize>,
    },
}

/// The Cowen label of a node: `(v, l_v, port at l_v towards v)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CowenLabel {
    /// The node itself.
    pub node: NodeId,
    /// Its landmark (itself, for landmarks).
    pub landmark: NodeId,
    /// The port at the landmark on the preferred path towards `node`
    /// (`None` for landmarks addressing themselves).
    pub landmark_port: Option<Port>,
}

/// The generalized Cowen scheme. See module docs.
///
/// # Examples
///
/// ```
/// use cpr_algebra::policies::ShortestPath;
/// use cpr_graph::{generators, EdgeWeights};
/// use cpr_routing::{route, CowenScheme, LandmarkStrategy};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let g = generators::gnp_connected(40, 0.12, &mut rng);
/// let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
/// let scheme = CowenScheme::build(
///     &g, &w, &ShortestPath,
///     LandmarkStrategy::TzRandom { attempts: 4 },
///     &mut rng,
/// );
/// assert_eq!(route(&scheme, &g, 0, 33).unwrap().last(), Some(&33));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CowenScheme {
    name: String,
    n: usize,
    landmarks: Vec<NodeId>,
    labels: Vec<CowenLabel>,
    /// Sorted `(destination, port)` entries per node: cluster ∪ landmarks.
    tables: Vec<Vec<(NodeId, Port)>>,
    degree: Vec<usize>,
    /// Whether each (implicitly connected) node can reach each other; kept
    /// per pair-free: unreachable targets are detected by a missing label
    /// port and missing table entries.
    reachable_from_landmark: Vec<bool>,
}

impl CowenScheme {
    /// Builds the scheme: all-pairs preferred trees, landmark selection,
    /// balls, clusters, tables and labels.
    ///
    /// The algebra must be delimited and regular for the Theorem 3
    /// guarantees; the scheme is still *constructed* otherwise so that
    /// experiments can observe exactly how the guarantees fail.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or a custom landmark set is empty or
    /// out of bounds.
    pub fn build<A: RoutingAlgebra + Sync, R: Rng + ?Sized>(
        graph: &Graph,
        weights: &EdgeWeights<A::W>,
        alg: &A,
        strategy: LandmarkStrategy,
        rng: &mut R,
    ) -> Self
    where
        A::W: Send + Sync,
    {
        let n = graph.node_count();
        assert!(n > 0, "graph must be non-empty");
        // The all-pairs trees dominate build time and are embarrassingly
        // parallel; landmark selection stays serial because it draws from
        // the caller's rng.
        let trees: Vec<PreferredTree<A::W>> =
            cpr_core::par::par_map_indexed(n, |s| dijkstra(graph, weights, alg, s));

        let landmarks = match strategy {
            LandmarkStrategy::Custom(set) => {
                assert!(!set.is_empty(), "landmark set must be non-empty");
                assert!(set.iter().all(|&l| l < n), "landmark out of bounds");
                let mut set = set;
                set.sort_unstable();
                set.dedup();
                set
            }
            LandmarkStrategy::TzRandom { attempts } => {
                select_tz_random(alg, &trees, n, attempts, rng)
            }
            LandmarkStrategy::GreedyCluster { threshold } => {
                let threshold = threshold.unwrap_or_else(|| default_threshold(n));
                select_greedy(alg, &trees, n, threshold)
            }
        };

        let (landmark_of, clusters) = clusters_for(alg, &trees, n, &landmarks);

        // Labels.
        let labels: Vec<CowenLabel> = (0..n)
            .map(|v| {
                let l = landmark_of[v].unwrap_or(v);
                let landmark_port = if l == v {
                    None
                } else {
                    trees[l].first_hop(graph, v).map(|(_, port)| port)
                };
                CowenLabel {
                    node: v,
                    landmark: l,
                    landmark_port,
                }
            })
            .collect();

        // Tables: cluster ∪ landmarks, first hop along own preferred path.
        let mut tables: Vec<Vec<(NodeId, Port)>> = Vec::with_capacity(n);
        for u in 0..n {
            let mut targets: Vec<NodeId> = clusters[u]
                .iter()
                .copied()
                .chain(landmarks.iter().copied())
                .filter(|&t| t != u)
                .collect();
            targets.sort_unstable();
            targets.dedup();
            let hops = trees[u].first_hops();
            let entries = targets
                .into_iter()
                .filter_map(|t| {
                    let port = graph
                        .port_towards(u, hops[t]?)
                        .expect("tree edge must exist in the graph");
                    Some((t, port))
                })
                .collect();
            tables.push(entries);
        }

        let reachable_from_landmark = (0..n)
            .map(|v| labels[v].landmark == v || labels[v].landmark_port.is_some())
            .collect();

        CowenScheme {
            name: format!("cowen[{}]", alg.name()),
            n,
            landmarks,
            labels,
            tables,
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
            reachable_from_landmark,
        }
    }

    /// The selected landmark set (sorted).
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// The label of `v`.
    pub fn label(&self, v: NodeId) -> &CowenLabel {
        &self.labels[v]
    }

    /// Number of routing-table entries at `v` (cluster + landmarks).
    pub fn table_len(&self, v: NodeId) -> usize {
        self.tables[v].len()
    }

    fn lookup(&self, u: NodeId, t: NodeId) -> Option<Port> {
        self.tables[u]
            .binary_search_by_key(&t, |&(id, _)| id)
            .ok()
            .map(|ix| self.tables[u][ix].1)
    }
}

impl RoutingScheme for CowenScheme {
    type Header = CowenLabel;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<CowenLabel> {
        if source != target && !self.reachable_from_landmark[target] {
            // The landmark cannot reach the target: disconnected pair
            // (under global reachability this never triggers).
            self.lookup(source, target)?;
        }
        Some(self.labels[target].clone())
    }

    fn step(&self, at: NodeId, header: &CowenLabel) -> RouteAction<CowenLabel> {
        let t = header.node;
        if at == t {
            return RouteAction::Deliver;
        }
        if let Some(port) = self.lookup(at, t) {
            return RouteAction::Forward {
                port,
                header: header.clone(),
            };
        }
        if at == header.landmark {
            // The label carries the first hop from the landmark.
            let port = header.landmark_port.unwrap_or(usize::MAX);
            return RouteAction::Forward {
                port,
                header: header.clone(),
            };
        }
        // Head for the target's landmark (always in every table).
        let port = self.lookup(at, header.landmark).unwrap_or(usize::MAX);
        RouteAction::Forward {
            port,
            header: header.clone(),
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        let entry = node_id_bits(self.n) + port_bits(self.degree[v]);
        self.tables[v].len() as u64 * entry
    }

    fn label_bits(&self, v: NodeId) -> u64 {
        // (v, l_v, port at l_v): the paper's 3 log n.
        let l = self.labels[v].landmark;
        2 * node_id_bits(self.n) + port_bits(self.degree[l].max(2))
    }

    fn header_bits(&self) -> u64 {
        (0..self.n).map(|v| self.label_bits(v)).max().unwrap_or(0)
    }

    /// The target's label is the header; no node rewrites it.
    fn destination_labelled(&self) -> bool {
        true
    }
}

/// Default cluster-size target: `2·√(n ln n)`, the knee of the
/// table-size/landmark-count trade-off.
fn default_threshold(n: usize) -> usize {
    let nf = n as f64;
    (2.0 * (nf * nf.ln().max(1.0)).sqrt()).ceil() as usize
}

/// Computes, for the given landmark set, each node's preferred landmark
/// and each node's cluster `C(u) = {v : u ∈ B(v)}` with the paper's
/// non-strict balls `B(v) = {u : w(p*_{v,u}) ⪯ w(p*_{v,l_v})}`.
fn clusters_for<A: RoutingAlgebra>(
    alg: &A,
    trees: &[PreferredTree<A::W>],
    n: usize,
    landmarks: &[NodeId],
) -> (Vec<Option<NodeId>>, Vec<Vec<NodeId>>) {
    let mut landmark_of: Vec<Option<NodeId>> = vec![None; n];
    for v in 0..n {
        let mut best: Option<(NodeId, &PathWeight<A::W>)> = None;
        for &l in landmarks {
            if l == v {
                // Own landmark: the empty path beats everything; stop.
                landmark_of[v] = Some(v);
                break;
            }
            let w = trees[v].weight(l);
            if w.is_infinite() {
                continue;
            }
            best = match best {
                None => Some((l, w)),
                Some((bl, bw)) => {
                    if alg.compare_pw(w, bw) == Ordering::Less {
                        Some((l, w))
                    } else {
                        Some((bl, bw))
                    }
                }
            };
        }
        if landmark_of[v].is_none() {
            landmark_of[v] = best.map(|(l, _)| l);
        }
    }

    let mut clusters: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 0..n {
        let Some(lv) = landmark_of[v] else { continue };
        if lv == v {
            // Landmarks have empty balls: nothing is preferred over the
            // trivial path to themselves.
            continue;
        }
        let dv = trees[v].weight(lv);
        for u in 0..n {
            if u == v {
                continue;
            }
            let w = trees[v].weight(u);
            if w.is_finite() && alg.compare_pw(w, dv) != Ordering::Greater {
                clusters[u].push(v); // u ∈ B(v) ⇒ v ∈ C(u)
            }
        }
    }
    (landmark_of, clusters)
}

fn max_cluster(clusters: &[Vec<NodeId>]) -> usize {
    clusters.iter().map(Vec::len).max().unwrap_or(0)
}

fn select_tz_random<A: RoutingAlgebra, R: Rng + ?Sized>(
    alg: &A,
    trees: &[PreferredTree<A::W>],
    n: usize,
    attempts: u32,
    rng: &mut R,
) -> Vec<NodeId> {
    let nf = n as f64;
    let mut p = (nf.ln().max(1.0) / nf).sqrt().min(1.0);
    let accept = 4.0 * (nf * nf.ln().max(1.0)).sqrt();
    for _ in 0..attempts.max(1) {
        let mut landmarks: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(p)).collect();
        if landmarks.is_empty() {
            landmarks.push(rng.gen_range(0..n));
        }
        let (_, clusters) = clusters_for(alg, trees, n, &landmarks);
        if (max_cluster(&clusters) as f64) <= accept {
            return landmarks;
        }
        p = (p * 1.5).min(1.0);
    }
    // Fall back to deterministic augmentation.
    select_greedy(alg, trees, n, default_threshold(n))
}

fn select_greedy<A: RoutingAlgebra>(
    alg: &A,
    trees: &[PreferredTree<A::W>],
    n: usize,
    threshold: usize,
) -> Vec<NodeId> {
    // Seed with node 0 (deterministic); grow until clusters are small.
    // A landmark's own cluster shrinks only indirectly (other nodes' balls
    // tighten as their landmark distance drops), so candidates are always
    // non-landmarks; if every node is promoted, stop regardless.
    let mut landmarks: Vec<NodeId> = vec![0];
    loop {
        let (_, clusters) = clusters_for(alg, trees, n, &landmarks);
        let worst = clusters
            .iter()
            .enumerate()
            .filter(|(u, _)| landmarks.binary_search(u).is_err())
            .map(|(u, c)| (u, c.len()))
            .max_by_key(|&(u, len)| (len, std::cmp::Reverse(u)));
        match worst {
            Some((u, size)) if size > threshold && landmarks.len() < n => {
                landmarks.push(u);
                landmarks.sort_unstable();
            }
            _ => return landmarks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{route, MemoryReport};
    use cpr_algebra::policies::{self, ShortestPath};
    use cpr_algebra::{check_stretch, StretchVerdict};
    use cpr_graph::generators;
    use cpr_paths::AllPairs;
    use rand::SeedableRng;

    fn verify_stretch3<A>(
        g: &Graph,
        w: &EdgeWeights<A::W>,
        alg: &A,
        scheme: &CowenScheme,
    ) -> (usize, usize)
    where
        A: RoutingAlgebra + Sync,
        A::W: Send + Sync,
    {
        let ap = AllPairs::compute(g, w, alg);
        let mut pairs = 0;
        let mut optimal = 0;
        for s in g.nodes() {
            for t in g.nodes() {
                if s == t {
                    continue;
                }
                let path = route(scheme, g, s, t).unwrap();
                let got = w.path_weight(alg, g, &path);
                let verdict = check_stretch(alg, &got, ap.weight(s, t), 3);
                assert_eq!(
                    verdict,
                    StretchVerdict::Within,
                    "stretch-3 violated {s} → {t}: got {got:?} vs {:?}",
                    ap.weight(s, t)
                );
                pairs += 1;
                if alg.compare_pw(&got, ap.weight(s, t)) == Ordering::Equal {
                    optimal += 1;
                }
            }
        }
        (pairs, optimal)
    }

    #[test]
    fn stretch3_for_shortest_path_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(600);
        for trial in 0..3 {
            let g = generators::gnp_connected(30, 0.12, &mut rng);
            let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
            let scheme = CowenScheme::build(
                &g,
                &w,
                &ShortestPath,
                LandmarkStrategy::TzRandom { attempts: 4 },
                &mut rng,
            );
            let (pairs, _) = verify_stretch3(&g, &w, &ShortestPath, &scheme);
            assert!(pairs > 0, "trial {trial} routed no pairs");
        }
    }

    #[test]
    fn stretch3_for_widest_shortest() {
        // WS is regular and delimited: Theorem 3 applies.
        let ws = policies::widest_shortest();
        let mut rng = rand::rngs::StdRng::seed_from_u64(601);
        let g = generators::barabasi_albert(25, 2, &mut rng);
        let w = EdgeWeights::random(&g, &ws, &mut rng);
        let scheme = CowenScheme::build(
            &g,
            &w,
            &ws,
            LandmarkStrategy::GreedyCluster { threshold: None },
            &mut rng,
        );
        verify_stretch3(&g, &w, &ws, &scheme);
    }

    #[test]
    fn stretch3_for_most_reliable_path() {
        let alg = policies::MostReliablePath;
        let mut rng = rand::rngs::StdRng::seed_from_u64(602);
        let g = generators::gnp_connected(20, 0.2, &mut rng);
        let w = EdgeWeights::random(&g, &alg, &mut rng);
        let scheme = CowenScheme::build(
            &g,
            &w,
            &alg,
            LandmarkStrategy::TzRandom { attempts: 4 },
            &mut rng,
        );
        verify_stretch3(&g, &w, &alg, &scheme);
    }

    #[test]
    fn custom_landmarks_respected() {
        let g = generators::cycle(8);
        let w = EdgeWeights::uniform(&g, 1u64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(603);
        let scheme = CowenScheme::build(
            &g,
            &w,
            &ShortestPath,
            LandmarkStrategy::Custom(vec![0, 4]),
            &mut rng,
        );
        assert_eq!(scheme.landmarks(), &[0, 4]);
        assert_eq!(scheme.label(4).landmark, 4);
        assert_eq!(scheme.label(4).landmark_port, None);
        verify_stretch3(&g, &w, &ShortestPath, &scheme);
    }

    #[test]
    fn landmark_labels_are_three_log_n() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(604);
        let g = generators::gnp_connected(64, 0.1, &mut rng);
        let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
        let scheme = CowenScheme::build(
            &g,
            &w,
            &ShortestPath,
            LandmarkStrategy::TzRandom { attempts: 4 },
            &mut rng,
        );
        let report = MemoryReport::measure(&scheme);
        // 3 log n = 3·6 = 18 bits; ports can add a few.
        assert!(report.max_label_bits <= 3 * 6 + 2);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::with_nodes(1);
        let w = EdgeWeights::uniform(&g, 1u64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(605);
        let scheme = CowenScheme::build(
            &g,
            &w,
            &ShortestPath,
            LandmarkStrategy::GreedyCluster { threshold: None },
            &mut rng,
        );
        assert_eq!(route(&scheme, &g, 0, 0).unwrap(), vec![0]);
    }

    use cpr_graph::Graph;
}
