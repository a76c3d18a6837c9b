//! Property-based tests for the path solvers: cross-solver agreement and
//! structural invariants of preferred trees, on randomized graphs and
//! weightings.

use cpr_algebra::policies::{
    self, Capacity, HopCount, MostReliablePath, ShortestPath, Usable, UsablePath, WidestPath,
};
use cpr_algebra::{PathWeight, Ratio, RoutingAlgebra};
use cpr_graph::{generators, EdgeWeights, Graph, NodeId};
use cpr_paths::{
    bellman_ford, dijkstra, exhaustive_preferred, shortest_widest_exact, AllPairs, EdgeChanges,
    TreeRepair,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BTreeSet;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn small_connected(n: usize, seed: u64) -> Graph {
    generators::gnp_connected(n, 0.3, &mut rng(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three solvers agree for every regular Table 1 algebra on
    /// random instances: Dijkstra = Bellman–Ford = exhaustive.
    #[test]
    fn three_way_solver_agreement(n in 5usize..11, seed in any::<u64>()) {
        let g = small_connected(n, seed);
        macro_rules! check {
            ($alg:expr) => {{
                let alg = $alg;
                let w = EdgeWeights::random(&g, &alg, &mut rng(seed ^ 0xA11CE));
                let dj = dijkstra(&g, &w, &alg, 0);
                let bf = bellman_ford(&g, &w, &alg, 0);
                prop_assert!(bf.converged);
                let ex = exhaustive_preferred(&g, &w, &alg, 0, true);
                for v in g.nodes() {
                    prop_assert_eq!(
                        alg.compare_pw(dj.weight(v), ex.weight(v)),
                        Ordering::Equal,
                        "dijkstra vs exhaustive at {} for {}", v, alg.name()
                    );
                    prop_assert_eq!(
                        alg.compare_pw(bf.tree.weight(v), ex.weight(v)),
                        Ordering::Equal,
                        "bellman-ford vs exhaustive at {} for {}", v, alg.name()
                    );
                }
            }};
        }
        check!(ShortestPath);
        check!(WidestPath);
        check!(MostReliablePath);
        check!(policies::widest_shortest());
    }

    /// Preferred trees really are trees: parent pointers are acyclic, the
    /// extracted paths are simple, and path weights re-derive from edges.
    #[test]
    fn tree_paths_are_simple_and_weight_consistent(n in 5usize..14, seed in any::<u64>()) {
        let g = small_connected(n, seed);
        let w = EdgeWeights::random(&g, &ShortestPath, &mut rng(seed ^ 0x7EE));
        let tree = dijkstra(&g, &w, &ShortestPath, 0);
        for v in g.nodes() {
            let Some(path) = tree.path_to(v) else { continue };
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len(), "non-simple tree path");
            if v != 0 {
                prop_assert_eq!(
                    &w.path_weight(&ShortestPath, &g, &path),
                    tree.weight(v)
                );
                prop_assert_eq!(path.len() as u32 - 1, tree.hops(v));
            }
        }
    }

    /// SW exact solver: the bottleneck of the returned path matches the
    /// widest-path computation and the weight re-derives from the path.
    #[test]
    fn sw_paths_rederive_their_weights(n in 5usize..11, seed in any::<u64>()) {
        let g = small_connected(n, seed);
        let sw = policies::shortest_widest();
        let w = EdgeWeights::random(&g, &sw, &mut rng(seed ^ 0x5111));
        let exact = shortest_widest_exact(&g, &w, 0);
        for v in g.nodes() {
            if v == 0 { continue; }
            let Some(path) = exact.path_to(v) else { continue };
            prop_assert_eq!(
                &w.path_weight(&sw, &g, path),
                exact.weight(v),
                "weight does not re-derive at {}", v
            );
        }
    }

    /// All-pairs: the per-source trees agree with a fresh single-source
    /// run, and `s → t` weights are symmetric for symmetric weightings.
    #[test]
    fn all_pairs_is_consistent(n in 4usize..10, seed in any::<u64>()) {
        let g = small_connected(n, seed);
        let w = EdgeWeights::random(&g, &WidestPath, &mut rng(seed ^ 0xAA));
        let ap = AllPairs::compute(&g, &w, &WidestPath);
        for s in g.nodes() {
            let fresh = dijkstra(&g, &w, &WidestPath, s);
            for t in g.nodes() {
                prop_assert_eq!(
                    WidestPath.compare_pw(ap.weight(s, t), fresh.weight(t)),
                    Ordering::Equal
                );
                prop_assert_eq!(
                    WidestPath.compare_pw(ap.weight(s, t), ap.weight(t, s)),
                    Ordering::Equal
                );
            }
        }
    }

    /// Unreachable means unreachable, consistently: φ in Dijkstra iff φ
    /// exhaustively iff no BFS path.
    #[test]
    fn reachability_agreement(seed in any::<u64>()) {
        // A deliberately disconnected graph: two components.
        let mut r = rng(seed);
        let a = generators::gnp_connected(5, 0.4, &mut r);
        let mut g = Graph::with_nodes(10);
        for (_, (u, v)) in a.edges() {
            g.add_edge(u, v).unwrap();
        }
        // Second component on nodes 5..10 (a path).
        for v in 6..10 {
            g.add_edge(v - 1, v).unwrap();
        }
        let w = EdgeWeights::random(&g, &ShortestPath, &mut r);
        let dj = dijkstra(&g, &w, &ShortestPath, 0);
        let ex = exhaustive_preferred(&g, &w, &ShortestPath, 0, true);
        let bfs = cpr_graph::traversal::bfs_distances(&g, 0);
        for v in g.nodes() {
            if v == 0 { continue; }
            let reachable = bfs[v].is_some();
            prop_assert_eq!(dj.weight(v).is_finite(), reachable);
            prop_assert_eq!(ex.weight(v).is_finite(), reachable);
        }
    }
}

#[test]
fn capacity_tie_break_is_deterministic_across_all_pairs() {
    // A graph with massive weight ties: everything capacity 5.
    let g = generators::grid(4, 4);
    let w = EdgeWeights::uniform(&g, Capacity::new(5).unwrap());
    let a = AllPairs::compute(&g, &w, &WidestPath);
    let b = AllPairs::compute(&g, &w, &WidestPath);
    for s in g.nodes() {
        for t in g.nodes() {
            assert_eq!(a.path(s, t), b.path(s, t));
            // Ties resolve to min-hop paths.
            if s != t {
                let bfs = cpr_graph::traversal::bfs_distances(&g, s);
                assert_eq!(
                    a.path(s, t).unwrap().len() as u32 - 1,
                    bfs[t].unwrap(),
                    "tie-break must pick min-hop"
                );
            }
        }
    }
}

#[test]
fn phi_composition_blocks_paths_in_bounded_algebra() {
    // A path graph with unit cost 2 per hop and a hard budget: nodes past
    // the budget horizon are unreachable even though every edge is fine.
    let g = generators::path(4);
    let w = EdgeWeights::uniform(&g, 2u64);
    let generous = policies::BoundedShortestPath::new(6);
    let dj = dijkstra(&g, &w, &generous, 0);
    assert_eq!(*dj.weight(3), PathWeight::Finite(6));
    let tight = policies::BoundedShortestPath::new(4);
    let dj = dijkstra(&g, &w, &tight, 0);
    assert_eq!(*dj.weight(2), PathWeight::Finite(4));
    assert!(
        dj.weight(3).is_infinite(),
        "2+2+2 blows the ≤4 budget, so node 3 is unreachable"
    );
    // And a detour that fits beats a direct composition that doesn't:
    // 0-1 (4), 1-2 (1); budget 4: direct 0..2 via the cheap pair only.
    let g2 = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
    let w2 = EdgeWeights::from_vec(&g2, vec![3u64, 3, 4]);
    let dj = dijkstra(&g2, &w2, &tight, 0);
    assert_eq!(
        *dj.weight(2),
        PathWeight::Finite(4),
        "the direct in-budget edge wins over the over-budget composition"
    );
}

/// A symmetric pseudo-random hash of an unordered node pair, so an edge
/// keeps its weight across removal and restoration.
fn pair_hash(u: NodeId, v: NodeId, salt: u64) -> u64 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let mut h = (a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(salt);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

fn edge_set(g: &Graph) -> BTreeSet<(NodeId, NodeId)> {
    g.edges().map(|(_, (u, v))| (u.min(v), u.max(v))).collect()
}

/// One seeded churn step over a fixed node set: drop an edge, add a
/// non-edge, restore an earlier casualty, crash a node (every edge it
/// has, at once), cut a bridge, or remove and add in one delta.
/// Removals rebuild the edge list in order, so ports shift at the
/// endpoints; casualties are remembered for restoration.
fn churn_step(g: &Graph, gone: &mut Vec<(NodeId, NodeId)>, rng: &mut impl Rng) -> Graph {
    let n = g.node_count();
    let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(_, uv)| uv).collect();
    let without = |drop: &BTreeSet<(NodeId, NodeId)>| {
        let kept = edges
            .iter()
            .copied()
            .filter(|&(u, v)| !drop.contains(&(u.min(v), u.max(v))));
        Graph::from_edges(n, kept).expect("subgraph is simple")
    };
    let with_new = |g: &Graph, rng: &mut dyn FnMut() -> (NodeId, NodeId)| {
        let mut g2 = g.clone();
        for _ in 0..64 {
            let (u, v) = rng();
            if u != v && !g2.contains_edge(u, v) {
                g2.add_edge(u, v).expect("non-edge adds cleanly");
                break;
            }
        }
        g2
    };
    let norm = |(u, v): (NodeId, NodeId)| (u.min(v), u.max(v));
    match rng.gen_range(0..6) {
        0 if !edges.is_empty() => {
            let e = norm(edges[rng.gen_range(0..edges.len())]);
            gone.push(e);
            without(&BTreeSet::from([e]))
        }
        2 if !gone.is_empty() => {
            let (u, v) = gone.swap_remove(rng.gen_range(0..gone.len()));
            let mut g2 = g.clone();
            if !g2.contains_edge(u, v) {
                g2.add_edge(u, v).expect("restored edge is a non-edge");
            }
            g2
        }
        3 => {
            let x = rng.gen_range(0..n);
            let drop: BTreeSet<_> = g.neighbors(x).map(|(y, _)| norm((x, y))).collect();
            gone.extend(drop.iter().copied());
            without(&drop)
        }
        4 => {
            // A bridge if there is one: the far side becomes unreachable.
            let bridge = edges
                .iter()
                .copied()
                .map(norm)
                .find(|&e| !cpr_graph::traversal::is_connected(&without(&BTreeSet::from([e]))));
            match bridge {
                Some(e) => {
                    gone.push(e);
                    without(&BTreeSet::from([e]))
                }
                None => g.clone(),
            }
        }
        5 if !edges.is_empty() => {
            let e = norm(edges[rng.gen_range(0..edges.len())]);
            gone.push(e);
            let g2 = without(&BTreeSet::from([e]));
            with_new(&g2, &mut || (rng.gen_range(0..n), rng.gen_range(0..n)))
        }
        _ => with_new(g, &mut || (rng.gen_range(0..n), rng.gen_range(0..n))),
    }
}

/// Drives `steps` churn steps, repairing all `n` trees incrementally,
/// and demands after every step that each equals a fresh `dijkstra`
/// entry for entry — parent node and edge id, hops, weight. Every label
/// is handed to `seen`; returns the repairs that fell back to a re-solve
/// and the unreachable labels met.
fn repair_tracks_dijkstra<A>(
    alg: &A,
    weigh: impl Fn(NodeId, NodeId) -> A::W,
    seed: u64,
    steps: usize,
    mut seen: impl FnMut(&PathWeight<A::W>),
) -> Result<(usize, usize), TestCaseError>
where
    A: RoutingAlgebra,
{
    let mut rng = rng(seed);
    let n = rng.gen_range(8..16);
    let mut g = generators::gnp_connected(n, 0.25, &mut rng);
    let weights = |g: &Graph| {
        EdgeWeights::from_fn(g, |e| {
            let (u, v) = g.endpoints(e);
            weigh(u, v)
        })
    };
    let w = weights(&g);
    let mut trees: Vec<_> = g.nodes().map(|s| dijkstra(&g, &w, alg, s)).collect();
    let mut repair = TreeRepair::new();
    let mut gone = Vec::new();
    let mut unreached = 0usize;
    for step in 0..steps {
        let g2 = churn_step(&g, &mut gone, &mut rng);
        let (before, after) = (edge_set(&g), edge_set(&g2));
        let removed: Vec<_> = before.difference(&after).copied().collect();
        let added: Vec<_> = after.difference(&before).copied().collect();
        let w2 = weights(&g2);
        for (s, tree) in trees.iter_mut().enumerate() {
            repair.repair_tree(
                tree,
                &g2,
                &w2,
                alg,
                EdgeChanges {
                    removed: &removed,
                    added: &added,
                },
            );
            let fresh = dijkstra(&g2, &w2, alg, s);
            for v in g2.nodes() {
                prop_assert_eq!(
                    tree.parent(v),
                    fresh.parent(v),
                    "{} seed {} step {}: parent of {} in tree {}",
                    alg.name(),
                    seed,
                    step,
                    v,
                    s
                );
                prop_assert_eq!(tree.hops(v), fresh.hops(v), "hops of {} in tree {}", v, s);
                prop_assert_eq!(
                    tree.weight(v),
                    fresh.weight(v),
                    "weight of {} in tree {}",
                    v,
                    s
                );
                unreached += usize::from(v != s && tree.weight(v).is_infinite());
                seen(tree.weight(v));
            }
        }
        g = g2;
    }
    Ok((repair.fallbacks(), unreached))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental twin is `dijkstra`, bit for bit, across random
    /// churn on every regular Table 1 algebra — fine and coarse weights,
    /// massive hop ties, selective ties — without ever falling back.
    #[test]
    fn tree_repair_equals_dijkstra_under_churn(seed in any::<u64>()) {
        let mut fallbacks = 0;
        fallbacks += repair_tracks_dijkstra(&ShortestPath, |u, v| 1 + pair_hash(u, v, 1) % 8, seed, 10, |_| {})?.0;
        fallbacks += repair_tracks_dijkstra(&HopCount, |_, _| 1, seed ^ 1, 10, |_| {})?.0;
        fallbacks += repair_tracks_dijkstra(
            &WidestPath,
            |u, v| Capacity::new(1 + pair_hash(u, v, 2) % 3).unwrap(),
            seed ^ 2, 10, |_| {},
        )?.0;
        fallbacks += repair_tracks_dijkstra(&UsablePath, |_, _| Usable, seed ^ 3, 10, |_| {})?.0;
        fallbacks += repair_tracks_dijkstra(
            &policies::widest_shortest(),
            |u, v| (1 + pair_hash(u, v, 4) % 3, Capacity::new(1 + pair_hash(u, v, 5) % 3).unwrap()),
            seed ^ 4, 10, |_| {},
        )?.0;
        prop_assert_eq!(fallbacks, 0, "an isotone algebra fell back to a re-solve");
    }

    /// `bounded-shortest-path` with a tight budget: offers past the
    /// budget compose to φ, so connected nodes go unreachable and come
    /// back as churn shortens or lengthens their routes.
    #[test]
    fn tree_repair_handles_phi_offers(seed in any::<u64>()) {
        let alg = policies::BoundedShortestPath::new(9);
        let (fallbacks, unreached) =
            repair_tracks_dijkstra(&alg, |u, v| 1 + pair_hash(u, v, 6) % 4, seed, 12, |_| {})?;
        prop_assert_eq!(fallbacks, 0);
        prop_assert!(unreached > 0, "the budget never bit");
    }

    /// `most-reliable-path` over large-prime denominators: products past
    /// two hops overflow `u64` and round, so labels depend on the fold
    /// order — which the repair reproduces exactly.
    #[test]
    fn tree_repair_folds_rounded_ratios_like_dijkstra(seed in any::<u64>()) {
        const PRIMES: [u64; 4] = [2_147_483_647, 2_147_483_629, 1_999_999_973, 1_000_000_007];
        let mut rounded = 0usize;
        repair_tracks_dijkstra(
            &MostReliablePath,
            |u, v| {
                let h = pair_hash(u, v, 7);
                let den = PRIMES[(h % 4) as usize];
                Ratio::new(den - 1 - (h >> 8) % (den / 2), den).unwrap()
            },
            seed,
            8,
            |w| rounded += usize::from(w.finite().is_some_and(|r| r.denom().is_power_of_two() && r.denom() > 1)),
        )?;
        prop_assert!(rounded > 0, "no product overflowed");
    }

    /// Shortest-widest is monotone but not isotone — a worse label can
    /// make a better offer — and the repair still ends at `dijkstra`'s
    /// tree.
    #[test]
    fn tree_repair_is_exact_for_non_isotone_sw(seed in any::<u64>()) {
        repair_tracks_dijkstra(
            &policies::shortest_widest(),
            |u, v| (Capacity::new(1 + pair_hash(u, v, 8) % 3).unwrap(), 1 + pair_hash(u, v, 9) % 5),
            seed,
            10,
            |_| {},
        )?;
    }
}
