//! Contract tests applied uniformly to every routing scheme in the crate
//! through the [`RoutingScheme`] trait: delivered paths are genuine graph
//! paths with the right endpoints, self-routing is trivial, headers stay
//! within their declared bit budget, and memory accounting is internally
//! consistent.

use std::collections::BTreeSet;

use cpr_algebra::policies::{
    self, Capacity, HopCount, MostReliablePath, ShortestPath, Usable, UsablePath, WidestPath,
};
use cpr_algebra::Ratio;
use cpr_graph::{generators, EdgeWeights, Graph, NodeId};
use cpr_paths::{shortest_widest_exact, AllPairs, EdgeChanges};
use cpr_routing::{
    route, CowenScheme, DestTable, IntervalTreeRouting, LabelSwapping, LandmarkStrategy,
    MemoryReport, RoutingScheme, SchemeFactory, SrcDestTable, SwClassTable, TzTreeRouting,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The generic contract every scheme must satisfy on a connected graph.
fn check_contract<S: RoutingScheme>(g: &Graph, scheme: &S) -> Result<(), TestCaseError> {
    prop_assert_eq!(scheme.node_count(), g.node_count());
    let report = MemoryReport::measure(scheme);
    prop_assert_eq!(report.nodes, g.node_count());
    prop_assert!(report.total_bits >= report.max_local_bits);
    prop_assert!(report.avg_local_bits() <= report.max_local_bits as f64 + 1e-9);

    for s in g.nodes() {
        // Self-routing is the trivial path.
        prop_assert_eq!(
            route(scheme, g, s, s).ok(),
            Some(vec![s]),
            "self-route at {} must be trivial",
            s
        );
        for t in g.nodes() {
            if s == t {
                continue;
            }
            let path = match route(scheme, g, s, t) {
                Ok(p) => p,
                Err(e) => return Err(TestCaseError::fail(format!("{s} → {t}: {e}"))),
            };
            prop_assert_eq!(*path.first().unwrap(), s);
            prop_assert_eq!(*path.last().unwrap(), t);
            for hop in path.windows(2) {
                prop_assert!(
                    g.contains_edge(hop[0], hop[1]),
                    "{} → {}: non-edge hop {:?}",
                    s,
                    t,
                    hop
                );
            }
            // The hop budget of `route` already guards against loops; a
            // delivered path of length > n would indicate one anyway.
            prop_assert!(path.len() <= g.node_count());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All seven schemes honour the contract on random connected graphs.
    #[test]
    fn all_schemes_satisfy_the_contract(n in 5usize..16, seed in any::<u64>()) {
        let g = generators::gnp_connected(n, 0.3, &mut rng(seed));
        let mut r = rng(seed ^ 0xC0117AC7);

        let sp = EdgeWeights::random(&g, &ShortestPath, &mut r);
        check_contract(&g, &DestTable::build(&g, &sp, &ShortestPath))?;

        let wp = EdgeWeights::random(&g, &WidestPath, &mut r);
        check_contract(&g, &IntervalTreeRouting::spanning(&g, &wp, &WidestPath))?;
        check_contract(&g, &TzTreeRouting::spanning(&g, &wp, &WidestPath))?;

        check_contract(
            &g,
            &CowenScheme::build(
                &g,
                &sp,
                &ShortestPath,
                LandmarkStrategy::TzRandom { attempts: 3 },
                &mut r,
            ),
        )?;

        let sw = policies::shortest_widest();
        let sww = EdgeWeights::random(&g, &sw, &mut r);
        check_contract(
            &g,
            &SrcDestTable::build(&g, "sw", |s| {
                let routes = shortest_widest_exact(&g, &sww, s);
                g.nodes().map(|t| routes.path_to(t).map(<[_]>::to_vec)).collect()
            }),
        )?;
        check_contract(&g, &SwClassTable::build(&g, &sww))?;

        let ap = AllPairs::compute(&g, &sp, &ShortestPath);
        check_contract(&g, &LabelSwapping::provision(&g, "sp", |s, t| ap.path(s, t)))?;
    }

    /// Header bit budgets: every scheme's headers stay within its declared
    /// `header_bits` (checked via the information content of the header
    /// space each scheme uses).
    #[test]
    fn declared_header_bits_are_honest(n in 8usize..32, seed in any::<u64>()) {
        let g = generators::barabasi_albert(n, 2, &mut rng(seed));
        let mut r = rng(seed ^ 0xBEEF);
        let sp = EdgeWeights::random(&g, &ShortestPath, &mut r);
        // Destination tables: the header is a node id.
        let tables = DestTable::build(&g, &sp, &ShortestPath);
        prop_assert!(tables.header_bits() as u32 >= (usize::BITS - (n - 1).leading_zeros()));
        // Label swapping: the header must cover the largest label table.
        let ap = AllPairs::compute(&g, &sp, &ShortestPath);
        let ls = LabelSwapping::provision(&g, "sp", |s, t| ap.path(s, t));
        prop_assert!(
            (1u64 << ls.header_bits().min(63)) as usize >= ls.max_table_len(),
            "label space 2^{} cannot address {} labels",
            ls.header_bits(),
            ls.max_table_len()
        );
    }
}

#[test]
fn schemes_report_distinct_names() {
    let g = generators::cycle(6);
    let mut r = rng(1);
    let sp = EdgeWeights::random(&g, &ShortestPath, &mut r);
    let wp = EdgeWeights::random(&g, &WidestPath, &mut r);
    let sw = policies::shortest_widest();
    let sww = EdgeWeights::random(&g, &sw, &mut r);
    let ap = AllPairs::compute(&g, &sp, &ShortestPath);
    let names = vec![
        DestTable::build(&g, &sp, &ShortestPath).name(),
        IntervalTreeRouting::spanning(&g, &wp, &WidestPath).name(),
        TzTreeRouting::spanning(&g, &wp, &WidestPath).name(),
        CowenScheme::build(
            &g,
            &sp,
            &ShortestPath,
            LandmarkStrategy::GreedyCluster { threshold: None },
            &mut r,
        )
        .name(),
        SrcDestTable::build(&g, "sw", |s| {
            let routes = shortest_widest_exact(&g, &sww, s);
            g.nodes()
                .map(|t| routes.path_to(t).map(<[_]>::to_vec))
                .collect()
        })
        .name(),
        SwClassTable::build(&g, &sww).name(),
        LabelSwapping::provision(&g, "sp", |s, t| ap.path(s, t)).name(),
    ];
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "scheme names collide: {names:?}");
}

/// A symmetric pseudo-random hash of an unordered node pair.
fn pair_hash(u: NodeId, v: NodeId, salt: u64) -> u64 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let mut h = (a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(salt);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// Seeded churn over a fixed node set, as a topology sequence: removals
/// rebuild the edge list without the edge (so the endpoints' later ports
/// shift down), crashes drop every edge of a node at once, additions
/// append, restorations put a casualty back.
fn churn(g0: &Graph, steps: usize, seed: u64) -> Vec<Graph> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = g0.node_count();
    let mut gone: Vec<(NodeId, NodeId)> = Vec::new();
    let mut out = vec![g0.clone()];
    for _ in 0..steps {
        let g = out.last().unwrap();
        let without = |drop: &BTreeSet<(NodeId, NodeId)>| {
            let kept = g
                .edges()
                .map(|(_, uv)| uv)
                .filter(|&(u, v)| !drop.contains(&(u.min(v), u.max(v))));
            Graph::from_edges(n, kept).unwrap()
        };
        let next = match rng.gen_range(0..4) {
            0 => {
                let (_, (u, v)) = g.edges().nth(rng.gen_range(0..g.edge_count())).unwrap();
                gone.push((u.min(v), u.max(v)));
                without(&BTreeSet::from([(u.min(v), u.max(v))]))
            }
            1 if !gone.is_empty() => {
                let (u, v) = gone.swap_remove(rng.gen_range(0..gone.len()));
                let mut g2 = g.clone();
                if !g2.contains_edge(u, v) {
                    g2.add_edge(u, v).unwrap();
                }
                g2
            }
            2 => {
                let x = rng.gen_range(0..n);
                let drop: BTreeSet<_> = g.neighbors(x).map(|(y, _)| (x.min(y), x.max(y))).collect();
                gone.extend(drop.iter().copied());
                without(&drop)
            }
            _ => {
                let mut g2 = g.clone();
                for _ in 0..64 {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v && !g2.contains_edge(u, v) {
                        g2.add_edge(u, v).unwrap();
                        break;
                    }
                }
                g2
            }
        };
        out.push(next);
    }
    out
}

/// Normalized node pairs of a set of edges.
type Edges = Vec<(NodeId, NodeId)>;

/// The `(removed, added)` edges between two topologies.
fn edge_diff(a: &Graph, b: &Graph) -> (Edges, Edges) {
    let set = |g: &Graph| -> BTreeSet<(NodeId, NodeId)> {
        g.edges().map(|(_, (u, v))| (u.min(v), u.max(v))).collect()
    };
    let (x, y) = (set(a), set(b));
    (
        x.difference(&y).copied().collect(),
        y.difference(&x).copied().collect(),
    )
}

/// Drives a factory across `topologies`, maintaining one scheme through
/// `update` (rebuilding where it declines) and demanding after every step
/// that it equals a fresh `build`. Returns the steps `update` applied.
fn maintained_equals_built<S, F>(factory: &F, topologies: &[Graph]) -> Result<usize, TestCaseError>
where
    S: PartialEq + std::fmt::Debug + RoutingScheme,
    F: SchemeFactory<S>,
{
    let mut scheme = factory.build(&topologies[0]);
    let mut updated = 0;
    for (step, pair) in topologies.windows(2).enumerate() {
        let (removed, added) = edge_diff(&pair[0], &pair[1]);
        let changes = EdgeChanges {
            removed: &removed,
            added: &added,
        };
        if factory.update(&mut scheme, &pair[0], &pair[1], changes) {
            updated += 1;
        } else {
            scheme = factory.build(&pair[1]);
        }
        let fresh = factory.build(&pair[1]);
        prop_assert!(
            scheme == fresh,
            "{} step {}: maintained tables differ from a fresh build",
            fresh.name(),
            step
        );
    }
    Ok(updated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The incremental factories are their builds: after every churn step
    /// — removals that renumber the endpoints' ports, node crashes,
    /// restorations, additions — the maintained tables of all seven
    /// regular Table 1 algebras and of shortest-widest equal freshly
    /// built ones entry for entry.
    #[test]
    fn maintained_tables_equal_fresh_builds(seed in any::<u64>()) {
        let mut r = rng(seed);
        let n = r.gen_range(12..24);
        let g = if seed % 2 == 0 {
            generators::barabasi_albert(n, 2, &mut r)
        } else {
            generators::gnp_connected(n, 0.2, &mut r)
        };
        let topologies = churn(&g, 10, seed ^ 0x5EED);
        let steps = topologies.len() - 1;
        let cap = |u, v, salt| Capacity::new(1 + pair_hash(u, v, salt) % 4).unwrap();
        macro_rules! table {
            ($alg:expr, $weigh:expr) => {{
                let updated =
                    maintained_equals_built(&DestTable::factory($alg, $weigh), &topologies)?;
                prop_assert_eq!(updated, steps, "a destination table declined an update");
            }};
        }
        table!(ShortestPath, |u, v| 1 + pair_hash(u, v, 1) % 9);
        table!(HopCount, |_, _| 1);
        table!(WidestPath, move |u, v| cap(u, v, 2));
        table!(UsablePath, |_, _| Usable);
        table!(MostReliablePath, |u, v| Ratio::new(50 + pair_hash(u, v, 3) % 50, 100).unwrap());
        table!(policies::widest_shortest(), move |u, v| (1 + pair_hash(u, v, 4) % 3, cap(u, v, 5)));
        table!(policies::BoundedShortestPath::new(12), |u, v| 1 + pair_hash(u, v, 6) % 5);
        let sw = SwClassTable::factory(move |u, v| (cap(u, v, 7), 1 + pair_hash(u, v, 8) % 6));
        let updated = maintained_equals_built(&sw, &topologies)?;
        prop_assert!(updated > 0, "shortest-widest never updated in place");
    }
}

/// A removal that changes the capacity-class set is not an update: the
/// factory declines, and the caller's rebuild is what stays exact.
#[test]
fn sw_update_declines_when_the_class_set_changes() {
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    let weigh = |u: NodeId, v: NodeId| {
        let c = if (u.min(v), u.max(v)) == (0, 3) { 9 } else { 2 };
        (Capacity::new(c).unwrap(), 1)
    };
    let factory = SwClassTable::factory(weigh);
    let mut scheme = factory.build(&g);
    let g2 = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let changes = EdgeChanges {
        removed: &[(0, 3)],
        added: &[],
    };
    assert!(!factory.update(&mut scheme, &g, &g2, changes));
    // A clone carries the tables alone, so it declines too.
    let mut clone = factory.build(&g).clone();
    let g3 = Graph::from_edges(4, [(0, 1), (1, 2), (3, 0)]).unwrap();
    let changes = EdgeChanges {
        removed: &[(2, 3)],
        added: &[],
    };
    assert!(!factory.update(&mut clone, &g, &g3, changes));
}
