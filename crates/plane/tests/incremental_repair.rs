//! True incremental repair: edge additions no longer force a full
//! rebuild. A [`DeltaTracker`] bounds the affected pairs of any delta,
//! [`SelfHealingPlane::observe`] closes that set over the plane's
//! forwarding walks, and [`SelfHealingPlane::repair_with`] patches only
//! the dirty pairs — these tests pin that the patched plane's routes are
//! identical to a from-scratch compile's after every delta, with
//! `full_rebuilds == 0` on additions-only storms, across the adversarial
//! sequences (add→remove-same→add-again, crash→restore→add), and that a
//! [`MultiPlane`] class registered with its own tracker keeps the
//! property while its oracle-less neighbour rebuilds. A snapshot taken
//! after a failed reconcile answers the pairs still awaiting repair with
//! an error.

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{generators, EdgeWeights, Graph, NodeId};
use cpr_plane::{
    CompileError, DeltaTracker, MultiBuilder, MultiPlane, MultiSnapshot, RepairPolicy,
    SelfHealingPlane, Served,
};
use cpr_routing::{DestTable, RouteAction, RouteError, RoutingScheme};
use rand::SeedableRng;

/// Symmetric keyed weight: a pure function of the (unordered) endpoint
/// pair, so an edge keeps its weight across removal/re-addition and
/// across graphs that contain it.
fn weigh(u: NodeId, v: NodeId) -> u64 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let mut x = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 29;
    1 + x % 16
}

fn weights_of(g: &Graph) -> EdgeWeights<u64> {
    EdgeWeights::from_fn(g, |e| {
        let (u, v) = g.endpoints(e);
        weigh(u, v)
    })
}

fn scheme_of(g: &Graph) -> DestTable {
    DestTable::build(g, &weights_of(g), &ShortestPath)
}

fn tracker_of(g: &Graph) -> DeltaTracker<ShortestPath> {
    DeltaTracker::new(ShortestPath, g, weigh).with_hop_tiebreak(true)
}

/// Every ordered pair routed through `healing` must match a from-scratch
/// [`SelfHealingPlane`] compiled on `graph` — node sequence for node
/// sequence.
fn assert_routes_match_fresh(
    healing: &SelfHealingPlane<DestTable>,
    scheme: &DestTable,
    graph: &Graph,
) {
    let fresh = SelfHealingPlane::new(scheme, graph).unwrap();
    for s in graph.nodes() {
        for t in graph.nodes() {
            if s == t {
                continue;
            }
            let want = fresh.lookup(scheme, graph, s, t).map(|(p, _)| p);
            let got = healing.lookup(scheme, graph, s, t).map(|(p, _)| p);
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "pair {s} → {t}: repaired plane diverges from fresh")
                }
                (Err(_), Err(_)) => {}
                _ => panic!("pair {s} → {t}: routability diverges: {want:?} vs {got:?}"),
            }
        }
    }
}

/// `deterministic` non-edges of `g`: the lexicographically first `k`
/// pairs that are not edges (skipping self-pairs).
fn first_non_edges(g: &Graph, k: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    'outer: for u in g.nodes() {
        for v in (u + 1)..g.node_count() {
            if g.edge_between(u, v).is_none() {
                out.push((u, v));
                if out.len() == k {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(out.len(), k, "graph too dense for {k} additions");
    out
}

fn with_extra_edges(g: &Graph, extra: &[(NodeId, NodeId)]) -> Graph {
    let edges: Vec<(NodeId, NodeId)> = g
        .edges()
        .map(|(_, uv)| uv)
        .chain(extra.iter().copied())
        .collect();
    Graph::from_edges(g.node_count(), edges).unwrap()
}

/// The ISSUE acceptance gate: an additions-only storm at n ≥ 512
/// completes with `heal.full_rebuilds == 0` while the repaired plane's
/// routes are identical to a from-scratch compile's.
#[test]
fn additions_only_storm_at_512_repairs_without_rebuild() {
    let mut r = rand::rngs::StdRng::seed_from_u64(0x512AD);
    let base = generators::barabasi_albert(512, 2, &mut r);
    let mut healing = SelfHealingPlane::new(&scheme_of(&base), &base).unwrap();
    let mut tracker = tracker_of(&base);
    let policy = RepairPolicy::default();

    let additions = first_non_edges(&base, 3);
    let mut g = base.clone();
    for (round, &(u, v)) in additions.iter().enumerate() {
        g = with_extra_edges(&g, &[(u, v)]);
        let scheme = scheme_of(&g);
        let stats = healing
            .repair_with(&scheme, &g, &mut tracker, &policy)
            .unwrap();
        assert!(
            !stats.full_rebuild,
            "round {round}: adding {{{u}, {v}}} forced a rebuild \
             (dirty = {} pairs)",
            stats.dirty_pairs
        );
        assert!(!stats.forced_rebuild);
        assert!(
            stats.dirty_pairs < 512 * 511 / 2,
            "round {round}: delta bound degenerated ({} pairs dirty)",
            stats.dirty_pairs
        );
    }
    let c = healing.counters();
    assert_eq!(
        c.full_rebuilds, 0,
        "additions-only storm must never rebuild"
    );
    assert_eq!(c.incremental_repairs, additions.len() as u64);
    assert_routes_match_fresh(&healing, &scheme_of(&g), &g);
}

#[test]
fn add_remove_same_edge_add_again_stays_incremental() {
    let mut r = rand::rngs::StdRng::seed_from_u64(0xADD0);
    let base = generators::gnp_connected(24, 0.18, &mut r);
    let mut healing = SelfHealingPlane::new(&scheme_of(&base), &base).unwrap();
    let mut tracker = tracker_of(&base);
    let policy = RepairPolicy::default();

    let (u, v) = first_non_edges(&base, 1)[0];
    let with_edge = with_extra_edges(&base, &[(u, v)]);

    for (round, g) in [&with_edge, &base, &with_edge].into_iter().enumerate() {
        let scheme = scheme_of(g);
        let stats = healing
            .repair_with(&scheme, g, &mut tracker, &policy)
            .unwrap();
        assert!(
            !stats.full_rebuild,
            "round {round} of add→remove→add forced a rebuild"
        );
        assert_routes_match_fresh(&healing, &scheme, g);
    }
    assert_eq!(healing.counters().full_rebuilds, 0);
    assert_eq!(healing.counters().incremental_repairs, 3);
}

#[test]
fn crash_restore_then_add_edge_stays_incremental() {
    let mut r = rand::rngs::StdRng::seed_from_u64(0xC0A5);
    let base = generators::gnp_connected(20, 0.25, &mut r);
    let mut healing = SelfHealingPlane::new(&scheme_of(&base), &base).unwrap();
    let mut tracker = tracker_of(&base);
    let policy = RepairPolicy {
        // Crashing a node dirties every pair routed through it — allow a
        // large incremental pass before declaring the patch unprofitable.
        max_dirty_fraction: 0.95,
        ..RepairPolicy::default()
    };

    // Crash: a non-cut node loses all its links (node id stays).
    let victim = (0..base.node_count())
        .find(|&x| {
            let survivors: Vec<_> = base
                .edges()
                .map(|(_, uv)| uv)
                .filter(|&(a, b)| a != x && b != x)
                .collect();
            let g = Graph::from_edges(base.node_count(), survivors).unwrap();
            base.nodes().filter(|&y| y != x).all(|y| {
                cpr_graph::traversal::bfs_distances(&g, (x + 1) % base.node_count())[y].is_some()
            })
        })
        .expect("some node is not a cut vertex");
    let crashed = Graph::from_edges(
        base.node_count(),
        base.edges()
            .map(|(_, uv)| uv)
            .filter(|&(a, b)| a != victim && b != victim),
    )
    .unwrap();
    let (u, v) = first_non_edges(&base, 1)[0];
    let grown = with_extra_edges(&base, &[(u, v)]);

    for (label, g) in [("crash", &crashed), ("restore", &base), ("add", &grown)] {
        let scheme = scheme_of(g);
        let stats = healing
            .repair_with(&scheme, g, &mut tracker, &policy)
            .unwrap();
        assert!(!stats.full_rebuild, "{label} step forced a rebuild");
        assert_routes_match_fresh(&healing, &scheme, g);
    }
    assert_eq!(healing.counters().full_rebuilds, 0);
}

/// The loud fallback: a policy whose threshold the dirty set exceeds
/// must rebuild — flagged as *forced* in the stats and counted.
#[test]
fn exceeding_dirty_fraction_forces_a_loud_rebuild() {
    // Closing a uniform-weight path into a cycle improves many pairs, so
    // the dirty set is guaranteed non-empty and a zero threshold trips.
    let base = generators::path(8);
    let uniform = |g: &Graph| EdgeWeights::uniform(g, 1u64);
    let scheme_u = |g: &Graph| DestTable::build(g, &uniform(g), &ShortestPath);
    let mut healing = SelfHealingPlane::new(&scheme_u(&base), &base).unwrap();
    let mut tracker = DeltaTracker::new(ShortestPath, &base, |_, _| 1u64).with_hop_tiebreak(true);
    let policy = RepairPolicy {
        max_dirty_fraction: 0.0,
        ..RepairPolicy::default()
    };

    let grown = with_extra_edges(&base, &[(0, 7)]);
    let scheme = scheme_u(&grown);
    let stats = healing
        .repair_with(&scheme, &grown, &mut tracker, &policy)
        .unwrap();
    assert!(stats.dirty_pairs > 0, "closing the cycle must dirty pairs");
    assert!(stats.full_rebuild, "zero-threshold policy must rebuild");
    assert!(
        stats.forced_rebuild,
        "the rebuild must be flagged as forced"
    );
    assert_eq!(healing.counters().full_rebuilds, 1);
    assert_eq!(healing.counters().incremental_repairs, 0);

    let fresh = SelfHealingPlane::new(&scheme, &grown).unwrap();
    for s in grown.nodes() {
        for t in grown.nodes() {
            if s == t {
                continue;
            }
            assert_eq!(
                healing.lookup(&scheme, &grown, s, t).map(|(p, _)| p),
                fresh.lookup(&scheme, &grown, s, t).map(|(p, _)| p),
                "pair {s} → {t} diverges after forced rebuild"
            );
        }
    }
}

/// The per-class oracle seam of [`MultiPlane`]: two classes routing the
/// same algebra over the same additions-containing event list, one
/// registered with a [`DeltaTracker`], one without. Additions patch the
/// tracked class and rebuild the untracked one; both answer like a
/// fresh compile after every event; and a snapshot serves with the
/// oracle left behind in the master.
#[test]
fn multi_plane_patches_additions_only_for_the_class_with_an_oracle() {
    const TRACKED: usize = 0;
    const UNTRACKED: usize = 1;

    fn assert_both_match_fresh(
        lookup: impl Fn(usize, NodeId, NodeId) -> Option<Vec<NodeId>>,
        graph: &Graph,
    ) {
        let scheme = scheme_of(graph);
        let fresh = SelfHealingPlane::new(&scheme, graph).unwrap();
        for s in graph.nodes() {
            for t in graph.nodes().filter(|&t| t != s) {
                let want = fresh.lookup(&scheme, graph, s, t).ok().map(|(p, _)| p);
                for class in [TRACKED, UNTRACKED] {
                    assert_eq!(
                        lookup(class, s, t),
                        want,
                        "class {class}, pair {s} → {t} diverges from a fresh compile"
                    );
                }
            }
        }
    }
    let master_lookup =
        |m: &MultiPlane, c, s, t| m.lookup(c, s, t).ok().map(|(p, _): (Vec<NodeId>, _)| p);
    let snap_lookup =
        |m: &MultiSnapshot, c, s, t| m.lookup(c, s, t).ok().map(|(p, _): (Vec<NodeId>, _)| p);

    let mut r = rand::rngs::StdRng::seed_from_u64(0x0AC1E);
    let base = generators::barabasi_albert(40, 2, &mut r);
    let registry = MultiBuilder::new()
        .class("tracked", scheme_of)
        .with_oracle(tracker_of(&base))
        .class("untracked", scheme_of);
    let mut multi = MultiPlane::build(&base, registry).unwrap();
    // Never force: a rebuild below must mean "every pair was dirty".
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    let obs = cpr_obs::Obs::disabled();

    let additions = first_non_edges(&base, 3);
    let grown = with_extra_edges(&base, &additions[..1]);
    let (a, b) = grown
        .edges()
        .map(|(_, uv)| uv)
        .find(|&(a, b)| grown.degree(a) > 1 && grown.degree(b) > 1)
        .expect("some edge has no leaf endpoint");
    let pruned = Graph::from_edges(
        grown.node_count(),
        grown.edges().map(|(_, uv)| uv).filter(|&uv| uv != (a, b)),
    )
    .unwrap();
    let regrown = with_extra_edges(&pruned, &additions[1..2]);

    for (label, g, adds) in [
        ("add", &grown, true),
        ("remove", &pruned, false),
        ("add again", &regrown, true),
    ] {
        let report = multi.reconcile(g, &policy, &obs).unwrap();
        assert_eq!(report.added_edges > 0, adds, "{label}: event list drifted");
        let (tracked, untracked) = (
            &report.class_stats[TRACKED].1,
            &report.class_stats[UNTRACKED].1,
        );
        assert!(!tracked.full_rebuild, "{label}: the tracked class rebuilt");
        assert_eq!(
            untracked.full_rebuild, adds,
            "{label}: an oracle-less class rebuilds on additions and only then"
        );
        assert_both_match_fresh(|c, s, t| master_lookup(&multi, c, s, t), g);
    }
    let tracked = multi.classes().next().unwrap();
    assert!(
        tracked.patch_entries() > 0,
        "additions must land as patches"
    );
    assert_eq!(tracked.counters().full_rebuilds, 0);

    // A snapshot serves the topology it was taken on; the oracle stays
    // with the master, which keeps patching additions in lockstep.
    let snapshot = multi.snapshot();
    let last = with_extra_edges(&regrown, &additions[2..]);
    let report = multi.reconcile(&last, &policy, &obs).unwrap();
    assert!(!report.class_stats[TRACKED].1.full_rebuild);
    assert!(report.class_stats[UNTRACKED].1.full_rebuild);
    assert_both_match_fresh(|c, s, t| master_lookup(&multi, c, s, t), &last);
    assert_both_match_fresh(|c, s, t| snap_lookup(&snapshot, c, s, t), &regrown);
}

/// A shortest-path destination table that, when `broken`, delivers
/// every packet where it stands.
#[derive(Clone, PartialEq)]
struct Misdelivers {
    table: DestTable,
    broken: bool,
}

impl RoutingScheme for Misdelivers {
    type Header = NodeId;

    fn name(&self) -> String {
        self.table.name()
    }

    fn node_count(&self) -> usize {
        self.table.node_count()
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<NodeId> {
        self.table.initial_header(source, target)
    }

    fn step(&self, at: NodeId, header: &NodeId) -> RouteAction<NodeId> {
        if self.broken {
            RouteAction::Deliver
        } else {
            self.table.step(at, header)
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        self.table.local_memory_bits(v)
    }

    fn label_bits(&self, v: NodeId) -> u64 {
        self.table.label_bits(v)
    }

    fn header_bits(&self) -> u64 {
        self.table.header_bits()
    }
}

/// A registry of class 0 `sound` and class 1 `flaky`, whose scheme
/// misdelivers on every topology but one with `edges` edges.
fn sound_and_flaky(edges: usize) -> MultiBuilder {
    MultiBuilder::new()
        .class("sound", scheme_of)
        .class("flaky", move |g: &Graph| Misdelivers {
            table: scheme_of(g),
            broken: g.edge_count() != edges,
        })
}

/// The one state in which a published class holds dirty pairs: a
/// reconcile failed (here: one class's scheme misdelivers on the new
/// topology) and a snapshot was taken anyway. The snapshot consults no
/// scheme, so every pair awaiting repair answers `AwaitingRepair` — never
/// a stale hop, never a fallback — and the snapshot reports itself stale.
/// A class that moved to the new topology before the failure serves the
/// snapshot's topology: off its core, and over no edge it lacks.
#[test]
fn a_snapshot_after_a_failed_reconcile_refuses_the_pairs_awaiting_repair() {
    const SOUND: usize = 0;
    const FLAKY: usize = 1;
    let mut r = rand::rngs::StdRng::seed_from_u64(0xD127);
    let base = generators::barabasi_albert(40, 2, &mut r);
    let (x, y) = base
        .edges()
        .map(|(_, uv)| uv)
        .find(|&(a, b)| base.degree(a) > 1 && base.degree(b) > 1)
        .expect("some edge has no leaf endpoint");
    let pruned = Graph::from_edges(
        base.node_count(),
        base.edges().map(|(_, uv)| uv).filter(|&uv| uv != (x, y)),
    )
    .unwrap();
    let mut multi = MultiPlane::build(&base, sound_and_flaky(base.edge_count())).unwrap();
    assert!(multi.snapshot().is_fresh());
    let failed = multi.reconcile(&pruned, &RepairPolicy::default(), &cpr_obs::Obs::disabled());
    assert!(
        matches!(failed, Err(CompileError::Misdelivery { .. })),
        "{failed:?}"
    );
    let dirty = multi.classes().nth(FLAKY).unwrap().dirty_pairs();
    assert!(dirty > 0);

    let snap = multi.snapshot();
    assert!(!snap.is_fresh());
    assert!(!snap.class_on_core(FLAKY));
    let mut awaiting = 0;
    let mut out = Vec::new();
    for s in base.nodes() {
        for t in base.nodes().filter(|&t| t != s) {
            match snap.lookup(FLAKY, s, t) {
                Err(RouteError::AwaitingRepair { source, target }) => {
                    assert_eq!((source, target), (s, t));
                    awaiting += 1;
                }
                Ok((path, served)) => {
                    assert_ne!(served, Served::Fallback, "{s} → {t}");
                    assert!(
                        path.windows(2).all(|h| pruned.contains_edge(h[0], h[1])),
                        "{s} → {t} served {path:?} over the removed edge"
                    );
                    assert_eq!((path[0], path[path.len() - 1]), (s, t));
                }
                Err(e) => panic!("{s} → {t}: {e}"),
            }
            out.clear();
            let into = snap.serving(FLAKY).unwrap().walk_into(s, t, &mut out);
            let looked = snap.lookup(FLAKY, s, t);
            assert_eq!(into.is_ok(), looked.is_ok(), "{s} → {t}");
            if let Ok((path, _)) = looked {
                assert!(out.iter().map(|&v| v as NodeId).eq(path), "{s} → {t}");
            }
        }
    }
    assert_eq!(awaiting, dirty);

    // A failed addition: `sound` rebuilds onto the grown topology before
    // `flaky` fails, so the master's `sound` routes over the new edge
    // while the snapshot's topology (still `base`) lacks it.
    let (u, v) = first_non_edges(&base, 64)
        .into_iter()
        .find(|&(u, v)| {
            let grown = with_extra_edges(&base, &[(u, v)]);
            cpr_routing::route(&scheme_of(&grown), &grown, u, v).is_ok_and(|p| p.len() == 2)
        })
        .expect("some added edge carries its own pair");
    let grown = with_extra_edges(&base, &[(u, v)]);
    let mut multi = MultiPlane::build(&base, sound_and_flaky(base.edge_count())).unwrap();
    let digest = multi.digest();
    let failed = multi.reconcile(&grown, &RepairPolicy::default(), &cpr_obs::Obs::disabled());
    assert!(failed.is_err(), "{failed:?}");
    let snap = multi.snapshot();
    assert_eq!(snap.digest(), digest);
    assert!(!snap.is_fresh());
    assert!(
        !snap.class_on_core(SOUND),
        "rebuilt for a topology it does not serve"
    );
    let crosses = |p: &[NodeId]| {
        p.windows(2)
            .any(|h| (h[0].min(h[1]), h[0].max(h[1])) == (u, v))
    };
    let (mut over, mut refused) = (0, 0);
    for s in base.nodes() {
        for t in base.nodes().filter(|&t| t != s) {
            let master = multi.lookup(SOUND, s, t).unwrap().0;
            over += usize::from(crosses(&master));
            match snap.lookup(SOUND, s, t) {
                Ok((path, _)) => {
                    assert!(
                        !crosses(&path),
                        "{s} → {t} served {path:?} over the added edge"
                    );
                    assert_eq!(path, master, "{s} → {t}");
                }
                Err(RouteError::BadPort { .. }) => refused += 1,
                Err(e) => panic!("{s} → {t}: {e}"),
            }
        }
    }
    assert!(over > 0);
    assert_eq!(refused, over);
}
