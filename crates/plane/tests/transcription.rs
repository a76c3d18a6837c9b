//! Transcription against tracing.
//!
//! `compile` transcribes a scheme that declares itself
//! destination-labelled — one `initial_header` and one `step` per
//! `(node, target)` — and traces every other scheme's walks. The two
//! paths must build the same plane: these tests compile each
//! destination-labelled scheme of the workspace both ways, the traced
//! way through [`Traced`], a wrapper that keeps the default declaration,
//! and compare digest, accounting, counts, every initial header id and
//! every walk. Schemes that break the declaration, loop, misdeliver or
//! name a bad port fail both paths with the same error.

use cpr_algebra::policies::{
    BoundedShortestPath, HopCount, MostReliablePath, ShortestPath, UsablePath, WidestPath,
};
use cpr_algebra::{RoutingAlgebra, SampleWeights};
use cpr_bgp::{internet_like, AsGraph, B1CompactScheme, B2CompactScheme, Relationship};
use cpr_graph::{generators, traversal, EdgeWeights, Graph, NodeId, Port};
use cpr_plane::{
    compile, compile_with_threads, validate, CompileError, ForwardingPlane, MultiBuilder,
    MultiPlane, RepairPolicy,
};
use cpr_routing::{
    CowenScheme, DestTable, IntervalTreeRouting, LandmarkStrategy, RouteAction, RouteError,
    RoutingScheme, TzTreeRouting,
};
use rand::SeedableRng;

/// The scheme behind `P` compiled the traced way: every method but the
/// declaration is the scheme's own.
#[derive(PartialEq)]
struct Traced<P>(P);

impl<P, S> RoutingScheme for Traced<P>
where
    P: std::ops::Deref<Target = S>,
    S: RoutingScheme + ?Sized,
{
    type Header = S::Header;

    fn name(&self) -> String {
        self.0.name()
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<S::Header> {
        self.0.initial_header(source, target)
    }

    fn step(&self, at: NodeId, header: &S::Header) -> RouteAction<S::Header> {
        self.0.step(at, header)
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        self.0.local_memory_bits(v)
    }

    fn label_bits(&self, v: NodeId) -> u64 {
        self.0.label_bits(v)
    }

    fn header_bits(&self) -> u64 {
        self.0.header_bits()
    }
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Compiles `scheme` both ways at one and three threads and demands the
/// same plane, pair for pair; returns the transcribed plane.
fn assert_transcribes_as_traced<S>(scheme: &S, g: &Graph, what: &str) -> ForwardingPlane
where
    S: RoutingScheme + Sync,
    S::Header: Send + Sync,
{
    assert!(scheme.destination_labelled(), "{what}: not declared");
    let mut planes = Vec::new();
    for threads in [1, 3] {
        let fast = compile_with_threads(scheme, g, threads)
            .unwrap_or_else(|e| panic!("{what}, transcribed: {e}"));
        let slow = compile_with_threads(&Traced(scheme), g, threads)
            .unwrap_or_else(|e| panic!("{what}, traced: {e}"));
        assert_eq!(fast.digest(), slow.digest(), "{what}, {threads} thread(s)");
        assert_eq!(fast.memory(), slow.memory(), "{what}");
        assert_eq!(fast.state_count(), slow.state_count(), "{what}");
        assert_eq!(fast.header_count(), slow.header_count(), "{what}");
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    fast.initial_id(s, t),
                    slow.initial_id(s, t),
                    "{what}: {s} → {t}"
                );
                assert_eq!(fast.walk(s, t), slow.walk(s, t), "{what}: {s} → {t}");
            }
        }
        planes.push(fast);
    }
    validate(&planes[0], scheme, g).unwrap_or_else(|d| panic!("{what}: {d}"));
    planes.swap_remove(0)
}

/// Both paths fail `scheme` with one and the same error, which is
/// returned.
fn assert_fails_alike<S>(scheme: &S, g: &Graph, what: &str) -> CompileError
where
    S: RoutingScheme + Sync,
    S::Header: Send + Sync,
{
    let fast = compile_with_threads(scheme, g, 2).unwrap_err();
    let slow = compile_with_threads(&Traced(scheme), g, 2).unwrap_err();
    assert_eq!(fast, slow, "{what}");
    fast
}

fn ba(n: usize, seed: u64) -> Graph {
    generators::barabasi_albert(n, 2, &mut rng(seed))
}

/// Two BA components on interleaved ids plus two isolated nodes: header
/// ids come out of target order, and some pairs are unroutable.
fn disconnected() -> Graph {
    let (a, b) = (ba(24, 5), ba(20, 6));
    let edges = a
        .edges()
        .map(|(_, (u, v))| (2 * u, 2 * v))
        .chain(b.edges().map(|(_, (u, v))| (2 * u + 1, 2 * v + 1)))
        .collect::<Vec<_>>();
    Graph::from_edges(2 * 24 + 2, edges).unwrap()
}

/// One small component among many isolated nodes: few states per
/// header, so the plane is sparse.
fn mostly_isolated() -> Graph {
    let core = ba(10, 7);
    let edges = core.edges().map(|(_, e)| e).collect::<Vec<_>>();
    Graph::from_edges(60, edges).unwrap()
}

fn dest_table<A>(g: &Graph, alg: &A, seed: u64) -> DestTable
where
    A: RoutingAlgebra + SampleWeights + Sync,
    A::W: Send + Sync,
{
    DestTable::build(g, &EdgeWeights::random(g, alg, &mut rng(seed)), alg)
}

#[test]
fn destination_tables_transcribe_as_traced_under_table1_algebras() {
    for (name, g) in [
        ("ba", ba(64, 1)),
        ("tree", generators::random_tree(48, &mut rng(2))),
        ("disconnected", disconnected()),
    ] {
        let what = |alg: &str| format!("dest-table[{alg}] on {name}");
        assert_transcribes_as_traced(&dest_table(&g, &ShortestPath, 10), &g, &what("sp"));
        assert_transcribes_as_traced(&dest_table(&g, &HopCount, 11), &g, &what("hops"));
        assert_transcribes_as_traced(&dest_table(&g, &WidestPath, 12), &g, &what("wp"));
        assert_transcribes_as_traced(&dest_table(&g, &UsablePath, 13), &g, &what("usable"));
        assert_transcribes_as_traced(&dest_table(&g, &MostReliablePath, 14), &g, &what("mr"));
        let bounded = BoundedShortestPath::new(12);
        assert_transcribes_as_traced(&dest_table(&g, &bounded, 15), &g, &what("bounded"));
    }
}

#[test]
fn a_disconnected_table_numbers_headers_as_the_tracer_meets_them() {
    let g = disconnected();
    let plane = assert_transcribes_as_traced(&dest_table(&g, &ShortestPath, 3), &g, "dest");
    // Source 0 reaches the even ids first, so odd targets come after.
    assert_eq!(plane.initial_id(0, 2), Some(1));
    assert_eq!(plane.initial_id(1, 1), Some(24));
    assert_eq!(plane.initial_id(0, 1), None);
    assert_eq!(plane.memory().layout, "dense");

    let g = mostly_isolated();
    let plane = assert_transcribes_as_traced(&dest_table(&g, &ShortestPath, 4), &g, "sparse");
    assert_eq!(plane.memory().layout, "sparse");
    assert_eq!(plane.header_count(), 60);
}

#[test]
fn cowen_tree_and_interval_schemes_transcribe_as_traced() {
    for (name, g) in [
        ("ba", ba(64, 21)),
        ("tree", generators::random_tree(48, &mut rng(22))),
    ] {
        let w = EdgeWeights::random(&g, &ShortestPath, &mut rng(23));
        let cowen = CowenScheme::build(
            &g,
            &w,
            &ShortestPath,
            LandmarkStrategy::TzRandom { attempts: 2 },
            &mut rng(24),
        );
        assert_transcribes_as_traced(&cowen, &g, &format!("cowen on {name}"));
        let wp = EdgeWeights::random(&g, &WidestPath, &mut rng(25));
        let tz = TzTreeRouting::spanning(&g, &wp, &WidestPath);
        assert_transcribes_as_traced(&tz, &g, &format!("tz-tree on {name}"));
        let interval = IntervalTreeRouting::spanning(&g, &w, &ShortestPath);
        assert_transcribes_as_traced(&interval, &g, &format!("interval on {name}"));
    }
    // Cowen attaches a header across components, where no port leads:
    // both paths refuse the first such pair alike.
    let g = disconnected();
    let w = EdgeWeights::from_fn(&g, |e| (e as u64 % 5) + 1);
    let cowen = CowenScheme::build(
        &g,
        &w,
        &ShortestPath,
        LandmarkStrategy::TzRandom { attempts: 2 },
        &mut rng(27),
    );
    assert!(matches!(
        assert_fails_alike(&cowen, &g, "cowen on disconnected"),
        CompileError::Route {
            source: 0,
            target: 1,
            error: RouteError::BadPort { at: 0, .. }
        }
    ));
}

#[test]
fn bgp_compact_schemes_transcribe_as_traced() {
    for seed in [31, 32] {
        let asg = internet_like(48, 3, 6, &mut rng(seed));
        let b1 = B1CompactScheme::build(&asg).unwrap();
        assert_transcribes_as_traced(&b1, asg.graph(), "b1-compact");
        let b2 = B2CompactScheme::build(&asg).unwrap();
        assert_transcribes_as_traced(&b2, asg.graph(), "b2-compact");
    }
    // Two hierarchies whose roots peer: routes cross components.
    let asg = AsGraph::from_relationships(
        8,
        [
            (0, 1, Relationship::ProviderOf),
            (0, 2, Relationship::ProviderOf),
            (1, 3, Relationship::ProviderOf),
            (4, 5, Relationship::ProviderOf),
            (4, 6, Relationship::ProviderOf),
            (6, 7, Relationship::ProviderOf),
            (0, 4, Relationship::Peer),
        ],
    )
    .unwrap();
    let b2 = B2CompactScheme::build(&asg).unwrap();
    assert_transcribes_as_traced(&b2, asg.graph(), "b2-compact across components");
}

/// How a [`Toy`] misbehaves.
#[derive(Clone, Copy, PartialEq)]
enum Flaw {
    /// Marks the header on its first hop.
    Rewrites,
    /// Odd sources attach a marked header.
    SourceDependent,
    /// Never delivers.
    Loops,
    /// Delivers one node past the target.
    Misdelivers,
    /// Node 2 forwards on a port it lacks.
    BadPort,
}

/// A ring walker on a cycle: every node forwards clockwise until the
/// packet stands on its target, a header `(target, mark)` — with one
/// [`Flaw`], declared destination-labelled all the same.
struct Toy {
    clockwise: Vec<Port>,
    flaw: Flaw,
}

impl Toy {
    fn on(g: &Graph, flaw: Flaw) -> Self {
        let n = g.node_count();
        let clockwise = g
            .nodes()
            .map(|v| {
                (0..g.degree(v))
                    .find(|&p| g.neighbor_at(v, p).map(|(u, _)| u) == Some((v + 1) % n))
                    .unwrap()
            })
            .collect();
        Toy { clockwise, flaw }
    }
}

impl RoutingScheme for Toy {
    type Header = (NodeId, bool);

    fn name(&self) -> String {
        "toy".into()
    }

    fn node_count(&self) -> usize {
        self.clockwise.len()
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<(NodeId, bool)> {
        Some((
            target,
            self.flaw == Flaw::SourceDependent && source % 2 == 1,
        ))
    }

    fn step(&self, at: NodeId, &(t, mark): &(NodeId, bool)) -> RouteAction<(NodeId, bool)> {
        let n = self.clockwise.len();
        let stop = match self.flaw {
            Flaw::Loops => None,
            Flaw::Misdelivers => Some((t + 1) % n),
            _ => Some(t),
        };
        if stop == Some(at) {
            return RouteAction::Deliver;
        }
        RouteAction::Forward {
            port: if self.flaw == Flaw::BadPort && at == 2 {
                7
            } else {
                self.clockwise[at]
            },
            header: (t, mark || self.flaw == Flaw::Rewrites),
        }
    }

    fn local_memory_bits(&self, _: NodeId) -> u64 {
        1
    }

    fn label_bits(&self, _: NodeId) -> u64 {
        4
    }

    fn header_bits(&self) -> u64 {
        5
    }

    fn destination_labelled(&self) -> bool {
        true
    }
}

#[test]
fn a_broken_declaration_fails_the_transcription_and_only_it() {
    let g = generators::cycle(8);
    // A rewrite on the first hop: pair (0, 1) is the first to take one.
    let rewrites = Toy::on(&g, Flaw::Rewrites);
    assert!(compile_with_threads(&Traced(&rewrites), &g, 2).is_ok());
    assert_eq!(
        compile_with_threads(&rewrites, &g, 2).unwrap_err(),
        CompileError::HeaderMismatch {
            source: 0,
            target: 1,
            at: 0
        }
    );
    // Source 1 attaches a header source 0 does not.
    let by_source = Toy::on(&g, Flaw::SourceDependent);
    assert!(compile_with_threads(&Traced(&by_source), &g, 2).is_ok());
    for threads in [1, 2, 8] {
        assert_eq!(
            compile_with_threads(&by_source, &g, threads).unwrap_err(),
            CompileError::HeaderMismatch {
                source: 1,
                target: 0,
                at: 1
            }
        );
    }
}

#[test]
fn loops_misdeliveries_and_bad_ports_fail_both_paths_alike() {
    let g = generators::cycle(8);
    let looped = assert_fails_alike(&Toy::on(&g, Flaw::Loops), &g, "loop");
    let CompileError::Route {
        source: 0,
        target: 0,
        error: RouteError::HopBudgetExhausted { visited },
    } = looped
    else {
        panic!("a loop is out of hops at (0, 0): {looped:?}");
    };
    assert_eq!(visited.len(), 4 * 8 + 4 + 1);

    assert_eq!(
        assert_fails_alike(&Toy::on(&g, Flaw::Misdelivers), &g, "misdelivery"),
        CompileError::Misdelivery {
            source: 0,
            target: 0,
            delivered: 1
        }
    );
    // (0, 3) is the first pair whose route reaches node 2 undelivered.
    assert_eq!(
        assert_fails_alike(&Toy::on(&g, Flaw::BadPort), &g, "bad port"),
        CompileError::Route {
            source: 0,
            target: 3,
            error: RouteError::BadPort { at: 2, port: 7 }
        }
    );
}

/// `cowen[shortest-path]` with landmarks drawn from a fixed seed, so a
/// rebuild on a changed topology repeats the draw.
fn cowen_of(g: &Graph) -> CowenScheme {
    CowenScheme::build(
        g,
        &EdgeWeights::uniform(g, 1u64),
        &ShortestPath,
        LandmarkStrategy::TzRandom { attempts: 2 },
        &mut rng(61),
    )
}

fn dest_of(g: &Graph) -> DestTable {
    DestTable::build(g, &EdgeWeights::uniform(g, 1u64), &ShortestPath)
}

/// Two transcribed classes, rebuilt by closure on every event.
fn dest_and_cowen() -> MultiBuilder {
    MultiBuilder::new()
        .class("dest", dest_of)
        .class("cowen", cowen_of)
}

/// `g` with its edge list changed by `edit`.
fn edited(g: &Graph, edit: impl FnOnce(&mut Vec<(NodeId, NodeId)>)) -> Graph {
    let mut edges: Vec<_> = g.edges().map(|(_, e)| e).collect();
    edit(&mut edges);
    Graph::from_edges(g.node_count(), edges).unwrap()
}

#[test]
fn an_addition_recompiles_transcribed_classes_as_fresh() {
    let g = ba(64, 71);
    let mut multi = MultiPlane::build(&g, dest_and_cowen()).unwrap();
    let missing = (1..64).find(|&v| g.edge_between(0, v).is_none()).unwrap();
    let grown = edited(&g, |edges| edges.push((0, missing)));
    let obs = cpr_obs::Obs::disabled();
    multi
        .reconcile(&grown, &RepairPolicy::default(), &obs)
        .unwrap();
    let fresh = [
        compile(&dest_of(&grown), &grown).unwrap(),
        compile(&cowen_of(&grown), &grown).unwrap(),
    ];
    let traced = [
        compile(&Traced(&dest_of(&grown)), &grown).unwrap(),
        compile(&Traced(&cowen_of(&grown)), &grown).unwrap(),
    ];
    for ((class, fresh), traced) in multi.classes().zip(&fresh).zip(&traced) {
        assert_eq!(
            class.base().digest(),
            fresh.digest(),
            "{}",
            class.class_name()
        );
        assert_eq!(fresh.digest(), traced.digest(), "{}", class.class_name());
    }
}

#[test]
fn a_removal_retraces_past_a_transcribed_id_space() {
    let g = ba(64, 72);
    let mut multi = MultiPlane::build(&g, dest_and_cowen()).unwrap();
    let traced_classes = MultiBuilder::new()
        .class("dest", |g: &Graph| Traced(Box::new(dest_of(g))))
        .class("cowen", |g: &Graph| Traced(Box::new(cowen_of(g))));
    let mut traced = MultiPlane::build(&g, traced_classes).unwrap();
    let obs = cpr_obs::Obs::disabled();
    // Remove non-bridge edges one after another: each repair re-traces
    // the dirty pairs with the rebuilt schemes, interning labels past
    // the base's id space — the same ids over either base.
    let mut current = g;
    for _ in 0..3 {
        let cut = current
            .edges()
            .map(|(_, e)| e)
            .find(|&e| {
                traversal::is_connected(&edited(&current, |edges| edges.retain(|&x| x != e)))
            })
            .unwrap();
        current = edited(&current, |edges| edges.retain(|&x| x != cut));
        multi
            .reconcile(&current, &RepairPolicy::default(), &obs)
            .unwrap();
        traced
            .reconcile(&current, &RepairPolicy::default(), &obs)
            .unwrap();
        let (snapshot, traced_snapshot) = (multi.snapshot(), traced.snapshot());
        for (class, twin) in multi.classes().zip(traced.classes()) {
            assert_eq!(class.digest(), twin.digest());
            assert_eq!(class.patch_entries(), twin.patch_entries());
        }
        for class in 0..2 {
            for s in current.nodes() {
                for t in current.nodes() {
                    let got = multi.lookup(class, s, t);
                    assert_eq!(got, traced.lookup(class, s, t), "class {class}: {s} → {t}");
                    let published = snapshot.lookup(class, s, t);
                    assert_eq!(published, traced_snapshot.lookup(class, s, t));
                    let path = got.unwrap().0;
                    assert_eq!(path.last(), Some(&t));
                    assert!(path
                        .windows(2)
                        .all(|hop| current.edge_between(hop[0], hop[1]).is_some()));
                }
            }
        }
    }
}
