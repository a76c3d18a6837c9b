//! Plane-vs-topology drift: a compiled [`ForwardingPlane`] is a snapshot
//! of one topology, and these tests pin down what happens when the live
//! graph moves out from under it — the staleness must be *detected*
//! (topology digest + [`SelfHealingPlane::observe`]), the affected pairs
//! must be served by live fallback while dirty, and
//! [`SelfHealingPlane::repair`] must restore hop-for-hop agreement with
//! the live scheme on the new topology without a full recompile.

use std::collections::BTreeSet;

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{traversal, EdgeWeights, Graph, NodeId};
use cpr_obs::Obs;
use cpr_plane::{CompileError, DirtySource, RepairPolicy, RepairStats, SelfHealingPlane, Served};
use cpr_routing::DestTable;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// One repair pass under the plane's built-in dirty rule, rebuilding
/// only when every pair is dirty (never threshold-forced).
fn repair(healing: &mut SelfHealingPlane<DestTable>, scheme: &DestTable, g: &Graph) -> RepairStats {
    let never_forced = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    healing
        .repair(
            scheme,
            g,
            DirtySource::Walks,
            &never_forced,
            &Obs::disabled(),
        )
        .unwrap()
}

/// `g` minus the undirected edge `(a, b)`, with surviving weights carried
/// over in edge order.
fn without_edge(
    g: &Graph,
    w: &EdgeWeights<u64>,
    a: NodeId,
    b: NodeId,
) -> (Graph, EdgeWeights<u64>) {
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    for (e, (u, v)) in g.edges() {
        if (u.min(v), u.max(v)) == (a.min(b), a.max(b)) {
            continue;
        }
        edges.push((u, v));
        weights.push(*w.weight(e));
    }
    let g2 = Graph::from_edges(g.node_count(), edges).unwrap();
    let w2 = EdgeWeights::from_vec(&g2, weights);
    (g2, w2)
}

/// A non-bridge edge of `g` that some live route of `scheme` actually
/// crosses — failing it is guaranteed to dirty at least one pair while
/// keeping the graph connected.
fn routed_non_bridge_edge(g: &Graph, scheme: &DestTable) -> (NodeId, NodeId) {
    let mut used = BTreeSet::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s == t {
                continue;
            }
            let path = cpr_routing::route(scheme, g, s, t).unwrap();
            for hop in path.windows(2) {
                used.insert((hop[0].min(hop[1]), hop[0].max(hop[1])));
            }
        }
    }
    for &(u, v) in &used {
        let (g2, _) = without_edge(g, &EdgeWeights::uniform(g, 1), u, v);
        if traversal::is_connected(&g2) {
            return (u, v);
        }
    }
    panic!("no routed non-bridge edge in test graph");
}

/// Routes every ordered pair through `healing` and asserts exact node-
/// sequence agreement with the live `scheme` on `graph`. Returns how many
/// pairs were served through at least one patched transition.
fn assert_agrees_all_pairs(
    healing: &mut SelfHealingPlane<DestTable>,
    scheme: &DestTable,
    graph: &Graph,
) -> usize {
    let mut degraded = 0;
    for s in graph.nodes() {
        for t in graph.nodes() {
            if s == t {
                continue;
            }
            let live = cpr_routing::route(scheme, graph, s, t).unwrap();
            let (path, served) = healing.route(scheme, graph, s, t).unwrap();
            assert_eq!(path, live, "pair {s} → {t} disagrees with live scheme");
            if served == Served::Degraded {
                degraded += 1;
            }
        }
    }
    degraded
}

#[test]
fn failed_link_is_detected_repaired_and_reagrees_with_live() {
    let mut r = rng(0xD21F7);
    let g = cpr_graph::generators::gnp_connected(24, 0.18, &mut r);
    let w = EdgeWeights::random(&g, &ShortestPath, &mut r);
    let scheme = DestTable::build(&g, &w, &ShortestPath);

    let mut healing = SelfHealingPlane::new(&scheme, &g).unwrap();
    assert!(healing.base().is_current_for(&g));
    assert!(healing.is_fresh_for(&g));

    // Fail a link the compiled plane actually routes over.
    let (a, b) = routed_non_bridge_edge(&g, &scheme);
    let (g2, w2) = without_edge(&g, &w, a, b);
    let scheme2 = DestTable::build(&g2, &w2, &ShortestPath);

    // Drift is detectable both via the digest and via observe().
    assert!(!healing.base().is_current_for(&g2));
    let stale = healing.observe(&g2, DirtySource::Walks).unwrap();
    assert!(stale.stale);
    assert_eq!(stale.removed_edges, vec![(a.min(b), a.max(b))]);
    assert!(stale.added_edges.is_empty());
    assert!(stale.dirty_pairs > 0, "a routed link must dirty some pair");
    assert!(!healing.is_fresh_for(&g2));

    // Pre-repair: dirty pairs are answered by live fallback — correct
    // routes on the *new* graph, never a hop over the dead link.
    let mut fallbacks = 0;
    for s in g2.nodes() {
        for t in g2.nodes() {
            if s == t {
                continue;
            }
            let (path, served) = healing.route(&scheme2, &g2, s, t).unwrap();
            assert_eq!(path.first(), Some(&s));
            assert_eq!(path.last(), Some(&t));
            for hop in path.windows(2) {
                assert!(
                    g2.edge_between(hop[0], hop[1]).is_some(),
                    "pre-repair route {s} → {t} crossed a dead or fictional link"
                );
            }
            if served == Served::Fallback {
                fallbacks += 1;
            }
        }
    }
    assert_eq!(fallbacks, stale.dirty_pairs);

    // Repair re-traces exactly the dirty pairs, incrementally.
    let stats = repair(&mut healing, &scheme2, &g2);
    assert!(!stats.full_rebuild);
    assert_eq!(stats.dirty_pairs, stale.dirty_pairs);
    assert_eq!(stats.repaired_pairs, stale.dirty_pairs);
    assert_eq!(stats.unroutable_pairs, 0);
    assert!(stats.patched_states > 0);
    assert_eq!(stats.epoch, 1);
    assert!(healing.is_fresh_for(&g2));

    // Post-repair: hop-for-hop agreement with the live scheme everywhere,
    // with the repaired pairs served through the patch layer.
    let degraded = assert_agrees_all_pairs(&mut healing, &scheme2, &g2);
    assert!(degraded > 0, "repaired pairs should be served via patches");

    let c = healing.counters();
    assert_eq!(c.fallback, fallbacks as u64);
    assert_eq!(c.failed, 0);
    assert_eq!(c.epoch, 1);
    assert_eq!(c.repairs, 1);

    // The batch path reports the same split.
    let queries: Vec<(NodeId, NodeId)> = g2
        .nodes()
        .flat_map(|s| g2.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
        .collect();
    let report = healing.serve(&scheme2, &g2, &queries, &Obs::disabled());
    assert_eq!(report.delivered, queries.len());
    assert!(report.failures.is_empty());
    assert_eq!(report.fallback, 0, "nothing is dirty after repair");
    assert_eq!(report.degraded, degraded);
}

#[test]
fn added_link_degenerates_to_full_rebuild() {
    let g = cpr_graph::generators::path(6);
    let w = EdgeWeights::uniform(&g, 1u64);
    let scheme = DestTable::build(&g, &w, &ShortestPath);
    let mut healing = SelfHealingPlane::new(&scheme, &g).unwrap();

    // Close the path into a cycle: every pair may improve.
    let mut edges: Vec<_> = g.edges().map(|(_, uv)| uv).collect();
    edges.push((5, 0));
    let g2 = Graph::from_edges(6, edges).unwrap();
    let w2 = EdgeWeights::uniform(&g2, 1u64);
    let scheme2 = DestTable::build(&g2, &w2, &ShortestPath);

    let stale = healing.observe(&g2, DirtySource::Walks).unwrap();
    assert!(stale.stale);
    assert_eq!(stale.added_edges, vec![(0, 5)]);
    assert_eq!(stale.dirty_pairs, 6 * 5, "a new link dirties every pair");

    let stats = repair(&mut healing, &scheme2, &g2);
    assert!(stats.full_rebuild);
    assert_eq!(stats.repaired_pairs, 6 * 5);
    assert!(healing.is_fresh_for(&g2));
    assert!(healing.base().is_current_for(&g2));

    let degraded = assert_agrees_all_pairs(&mut healing, &scheme2, &g2);
    assert_eq!(degraded, 0, "a rebuilt plane has no patch layer");
}

#[test]
fn node_count_change_is_a_loud_error_not_a_repair() {
    let g = cpr_graph::generators::path(4);
    let w = EdgeWeights::uniform(&g, 1u64);
    let scheme = DestTable::build(&g, &w, &ShortestPath);
    let mut healing = SelfHealingPlane::new(&scheme, &g).unwrap();

    let bigger = cpr_graph::generators::path(5);
    let err = healing.observe(&bigger, DirtySource::Walks).unwrap_err();
    assert_eq!(
        err,
        CompileError::NodeCountMismatch {
            scheme: 4,
            graph: 5
        }
    );
}

#[test]
fn crash_restore_crash_leaves_no_stale_patch_entries() {
    let mut r = rng(0xCAFE5);
    let g = cpr_graph::generators::gnp_connected(20, 0.2, &mut r);
    let w = EdgeWeights::random(&g, &ShortestPath, &mut r);
    let scheme = DestTable::build(&g, &w, &ShortestPath);
    let mut healing = SelfHealingPlane::new(&scheme, &g).unwrap();
    assert_eq!(healing.patch_entries(), 0, "a fresh plane has no patches");

    let (a, b) = routed_non_bridge_edge(&g, &scheme);
    let (g2, w2) = without_edge(&g, &w, a, b);
    let scheme2 = DestTable::build(&g2, &w2, &ShortestPath);

    // Crash #1: the link fails and the plane heals incrementally.
    let stats1 = repair(&mut healing, &scheme2, &g2);
    assert!(!stats1.full_rebuild);
    assert!(stats1.patched_states > 0);
    let first_entries = healing.patch_entries();
    assert!(first_entries > 0);
    assert_agrees_all_pairs(&mut healing, &scheme2, &g2);

    // Restore: the link comes back. An added edge dirties every pair, so
    // the repair degenerates to a rebuild — which must wipe the patch
    // layer, not leave crash #1's overrides shadowing the fresh base.
    let restore = repair(&mut healing, &scheme, &g);
    assert!(restore.full_rebuild);
    assert_eq!(restore.patched_states, 0);
    assert_eq!(
        healing.patch_entries(),
        0,
        "stale patch entries survived the restore rebuild"
    );
    assert!(healing.is_fresh_for(&g));
    let degraded = assert_agrees_all_pairs(&mut healing, &scheme, &g);
    assert_eq!(degraded, 0, "restored plane must serve pure base routes");

    // Crash #2 — the same link again. The rebuilt plane must heal
    // exactly as the original did: identical dirty set and an identical
    // patch layer, with nothing accumulated across the cycle.
    let stats2 = repair(&mut healing, &scheme2, &g2);
    assert!(!stats2.full_rebuild);
    assert_eq!(stats2.dirty_pairs, stats1.dirty_pairs);
    assert_eq!(stats2.repaired_pairs, stats1.repaired_pairs);
    assert_eq!(stats2.unroutable_pairs, 0);
    assert_eq!(stats2.patched_states, stats1.patched_states);
    assert_eq!(
        healing.patch_entries(),
        first_entries,
        "second repair of the same fault produced a different patch layer"
    );
    let degraded2 = assert_agrees_all_pairs(&mut healing, &scheme2, &g2);
    assert!(degraded2 > 0, "healed pairs must route through patches");
}
