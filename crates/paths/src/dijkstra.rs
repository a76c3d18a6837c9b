//! Generalized Dijkstra over routing algebras.

use std::cmp::Ordering;

use cpr_algebra::{PathWeight, RoutingAlgebra};
use cpr_graph::{EdgeWeights, Graph, NodeId};

use crate::heap::CmpHeap;
use crate::tree::PreferredTree;

/// Single-source preferred paths by the generalization of Dijkstra's
/// algorithm to routing algebras (Sobrinho's "lightest path" algorithm,
/// which the paper's §2.4 invokes for regular algebras).
///
/// **Correctness requires a regular algebra** (monotone and isotone):
/// monotonicity makes the greedy finalization sound, isotonicity makes
/// prefix-optimal paths extend to optimal paths. For non-regular algebras
/// the routine still terminates but may return non-preferred paths — the
/// test-suite demonstrates this on shortest-widest path, and
/// [`exhaustive_preferred`](crate::exhaustive_preferred) provides ground
/// truth.
///
/// Ties in weight are broken deterministically by (fewer hops, smaller
/// node id), so repeated runs yield identical trees — and the tree is a
/// function of its labels, which is what lets
/// [`TreeRepair`](crate::TreeRepair) repair it exactly across a
/// topology change.
///
/// # Examples
///
/// ```
/// use cpr_algebra::{policies::ShortestPath, PathWeight};
/// use cpr_graph::{generators, EdgeWeights};
/// use cpr_paths::dijkstra;
///
/// let g = generators::cycle(5);
/// let w = EdgeWeights::uniform(&g, 1u64);
/// let tree = dijkstra(&g, &w, &ShortestPath, 0);
/// assert_eq!(*tree.weight(2), PathWeight::Finite(2));
/// assert_eq!(tree.path_to(2), Some(vec![0, 1, 2]));
/// ```
///
/// # Panics
///
/// Panics if `source` is out of bounds or the weighting does not match the
/// graph.
pub fn dijkstra<A: RoutingAlgebra>(
    graph: &Graph,
    weights: &EdgeWeights<A::W>,
    alg: &A,
    source: NodeId,
) -> PreferredTree<A::W> {
    let n = graph.node_count();
    assert!(source < n, "source out of bounds");
    assert_eq!(weights.len(), graph.edge_count(), "weighting mismatch");

    let mut weight: Vec<PathWeight<A::W>> = vec![PathWeight::Infinite; n];
    let mut parent: Vec<Option<(NodeId, cpr_graph::EdgeId)>> = vec![None; n];
    let mut hops: Vec<u32> = vec![0; n];
    let mut done = vec![false; n];

    // Heap entries: (weight-to-node, hops, node). Lazy deletion — stale
    // entries are skipped when popped.
    type Entry<W> = (PathWeight<W>, u32, NodeId);
    let cmp = |a: &Entry<A::W>, b: &Entry<A::W>| -> Ordering {
        alg.compare_pw(&a.0, &b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    };
    let mut heap: CmpHeap<Entry<A::W>, _> = CmpHeap::new(cmp);

    // The source's "weight" is the empty composition; relax its edges
    // directly instead of encoding an identity element the semigroup
    // lacks.
    done[source] = true;
    for (v, e) in graph.neighbors(source) {
        let w = PathWeight::Finite(weights.weight(e).clone());
        if better(alg, &w, 1, &weight[v], hops[v], parent[v].is_some()) {
            weight[v] = w.clone();
            parent[v] = Some((source, e));
            hops[v] = 1;
            heap.push((w, 1, v));
        }
    }

    while let Some((w_u, h_u, u)) = heap.pop() {
        if done[u] {
            continue;
        }
        // Stale check: a better entry may have been pushed later.
        if alg.compare_pw(&w_u, &weight[u]) == Ordering::Greater || h_u > hops[u] {
            continue;
        }
        done[u] = true;
        for (v, e) in graph.neighbors(u) {
            if done[v] {
                continue;
            }
            let cand = alg.combine_pw(&weight[u], &PathWeight::Finite(weights.weight(e).clone()));
            if cand.is_infinite() {
                continue;
            }
            let cand_hops = hops[u] + 1;
            if better(
                alg,
                &cand,
                cand_hops,
                &weight[v],
                hops[v],
                parent[v].is_some(),
            ) {
                weight[v] = cand.clone();
                parent[v] = Some((u, e));
                hops[v] = cand_hops;
                heap.push((cand, cand_hops, v));
            }
        }
    }

    PreferredTree::from_parts(source, weight, parent, hops)
}

/// Deterministic label comparison: strictly better weight wins; equal
/// weight with strictly fewer hops wins; anything reached beats
/// unreachable.
pub(crate) fn better<A: RoutingAlgebra>(
    alg: &A,
    cand: &PathWeight<A::W>,
    cand_hops: u32,
    cur: &PathWeight<A::W>,
    cur_hops: u32,
    cur_reached: bool,
) -> bool {
    if !cur_reached {
        return cand.is_finite();
    }
    match alg.compare_pw(cand, cur) {
        Ordering::Less => true,
        Ordering::Equal => cand_hops < cur_hops,
        Ordering::Greater => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_algebra::policies::{self, Capacity, ShortestPath, WidestPath};
    use cpr_graph::generators;

    #[test]
    fn shortest_path_on_weighted_square() {
        // 0-1 (1), 1-3 (1), 0-2 (1), 2-3 (5): prefer 0-1-3 to 3.
        let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let w = EdgeWeights::from_vec(&g, vec![1u64, 1, 1, 5]);
        let tree = dijkstra(&g, &w, &ShortestPath, 0);
        assert_eq!(*tree.weight(3), PathWeight::Finite(2));
        assert_eq!(tree.path_to(3), Some(vec![0, 1, 3]));
        assert_eq!(*tree.weight(2), PathWeight::Finite(1));
    }

    #[test]
    fn widest_path_picks_fat_detour() {
        // 0-1 direct capacity 2; 0-2-1 with capacities 10, 10.
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (2, 1)]).unwrap();
        let caps = vec![2u64, 10, 10];
        let w = EdgeWeights::from_vec(
            &g,
            caps.into_iter()
                .map(|c| Capacity::new(c).unwrap())
                .collect(),
        );
        let tree = dijkstra(&g, &w, &WidestPath, 0);
        assert_eq!(
            *tree.weight(1),
            PathWeight::Finite(Capacity::new(10).unwrap())
        );
        assert_eq!(tree.path_to(1), Some(vec![0, 2, 1]));
    }

    #[test]
    fn widest_shortest_tie_breaks_on_capacity() {
        // Two 2-hop routes to node 3 of equal cost; capacities differ.
        let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap();
        let ws = policies::widest_shortest();
        let mk = |cost: u64, cap: u64| (cost, Capacity::new(cap).unwrap());
        let w = EdgeWeights::from_vec(&g, vec![mk(1, 5), mk(1, 5), mk(1, 10), mk(1, 10)]);
        let tree = dijkstra(&g, &w, &ws, 0);
        assert_eq!(tree.path_to(3), Some(vec![0, 2, 3]));
        assert_eq!(*tree.weight(3), PathWeight::Finite(mk(2, 10)));
    }

    #[test]
    fn equal_weight_prefers_fewer_hops() {
        let g = Graph::from_edges(4, [(0, 3), (0, 1), (1, 2), (2, 3)]).unwrap();
        // Direct 0-3 weight 3 equals 0-1-2-3 (1+1+1): the one-hop path
        // must win the deterministic tie-break.
        let w = EdgeWeights::from_vec(&g, vec![3u64, 1, 1, 1]);
        let tree = dijkstra(&g, &w, &ShortestPath, 0);
        assert_eq!(*tree.weight(3), PathWeight::Finite(3));
        assert_eq!(tree.path_to(3), Some(vec![0, 3]));
        assert_eq!(tree.hops(3), 1);
        // Strictly cheaper detour still beats the direct edge.
        let w2 = EdgeWeights::from_vec(&g, vec![4u64, 1, 1, 1]);
        let tree = dijkstra(&g, &w2, &ShortestPath, 0);
        assert_eq!(tree.path_to(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn disconnected_targets_are_phi() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        let tree = dijkstra(&g, &w, &ShortestPath, 0);
        assert!(tree.weight(2).is_infinite());
        assert!(tree.weight(3).is_infinite());
        assert!(tree.weight(1).is_finite());
    }

    #[test]
    fn deterministic_across_runs() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let g = generators::gnp_connected(60, 0.1, &mut rng);
        let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
        let t1 = dijkstra(&g, &w, &ShortestPath, 5);
        let t2 = dijkstra(&g, &w, &ShortestPath, 5);
        for v in g.nodes() {
            assert_eq!(t1.path_to(v), t2.path_to(v));
        }
    }
}
