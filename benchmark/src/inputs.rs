//! The four workloads and their generated inputs. Everything the
//! program under test receives — graph, request streams, event list —
//! is a pure function of `(workload, seed)`; `--seconds` only decides
//! how long the streams are replayed and how long a prefix of the event
//! list is applied.

use std::time::Duration;

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{generators, traversal, EdgeWeights, Graph};
use cpr_plane::{graph_digest, MultiBuilder, TrafficPattern};
use cpr_routing::{CowenScheme, DestTable, LandmarkStrategy};
use cpr_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::daemon::Timetable;
use crate::stats::Fnv;

/// The documented default seed (the paper's PODC 2011 date).
pub const DEFAULT_SEED: u64 = 20_110_606;
/// The held-out seed: never used while tuning, run before a claim.
pub const HELD_OUT_SEED: u64 = 77_003;

/// Client threads = connections of a traffic leg. Fixed by the
/// benchmark (the reference host has two cores), never read from the
/// machine.
pub const CONNECTIONS: usize = 2;
/// Worker count exported as `CPR_THREADS` to the program under test.
pub const CPR_THREADS: usize = 2;
/// Pairs per `Batch` frame.
pub const BATCH: usize = 256;
/// Windows of a timed leg; every timing metric is a median over them.
pub const WINDOWS: usize = 10;
/// `Lookup` requests per connection before the stream repeats.
const LOOKUP_STREAM: usize = 1 << 16;
/// `Batch` frames per connection before the stream repeats.
const BATCH_STREAM: usize = 512;
/// Length of the generated event list, in removal/restoration pairs;
/// a run applies a prefix of it.
const MAX_CHURN_PAIRS: usize = 60;

/// Which class registry a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Registry {
    /// The twelve classes of `cpr_conform::standard_builder()`.
    Standard12,
    /// `dest-table[shortest-path]` and `cowen[shortest-path]`.
    DestCowen,
}

/// Which leg of a workload is the long one (`--seconds`); the other
/// two are short cross legs, present because every workload reports
/// every end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MainLeg {
    /// Single `Lookup` frames on two connections.
    Lookup,
    /// `Batch`-256 frames on two connections.
    Batch,
    /// The event list, with one reader connection beside it.
    Churn,
}

/// One workload; see `README.md` for why each exists.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Final name; later issues refer to it.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Nodes of the Barabási–Albert (m = 2) instance.
    pub n: usize,
    /// Served class registry.
    pub registry: Registry,
    /// The long leg.
    pub main: MainLeg,
    /// Pair distribution of the `Batch` stream (`Lookup` streams are
    /// uniform everywhere).
    pub batch_pattern: TrafficPattern,
    /// Cold bring-ups timed for `setup_s` (median reported).
    pub bringups: usize,
}

/// The four workloads, in report order.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "lookup-steady",
            why: "smallest message on n=512 x 12 classes: per-frame cost (socket, framing, answer bookkeeping, obs lock) dominates, the plane walk is <2% of the round trip",
            n: 512,
            registry: Registry::Standard12,
            main: MainLeg::Lookup,
            batch_pattern: TrafficPattern::Gravity,
            bringups: 5,
        },
        Spec {
            name: "batch-steady",
            why: "Batch-256 gravity frames on the same instance: per-pair cost (answer, MultiSnapshot::lookup, in-core walk, encode) dominates, the socket adds little",
            n: 512,
            registry: Registry::Standard12,
            main: MainLeg::Batch,
            batch_pattern: TrafficPattern::Gravity,
            bringups: 5,
        },
        Spec {
            name: "churn-mixed",
            why: "one reader beside back-to-back reconciles (non-bridge removals, each restored) on n=192 x 12 classes: writes and reads share plane.multi/plane.heal state",
            n: 192,
            registry: Registry::Standard12,
            main: MainLeg::Churn,
            batch_pattern: TrafficPattern::Gravity,
            // 0.2 s each: many, or scheduling noise decides the median.
            bringups: 15,
        },
        Spec {
            name: "bringup-1024",
            why: "set-up dominated: cold bring-ups of dest-table + cowen at n=1024, then uniform Batch-256 over a working set (16 MiB of decoded tables) larger than the core's cache",
            n: 1024,
            registry: Registry::DestCowen,
            main: MainLeg::Batch,
            batch_pattern: TrafficPattern::Uniform,
            bringups: 5,
        },
    ]
}

/// Leg lengths of one run.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// The quiet traffic session: warm-up, windows and slice lengths.
    pub timetable: Timetable,
    /// Removal/restoration pairs per slice of the event list: a slice
    /// is one window of the reconcile metrics and of the reader beside
    /// the churn leg.
    pub churn_slice_pairs: usize,
    /// Untimed warm-up of the reader beside the churn leg.
    pub churn_warmup: Duration,
    /// Removal/restoration pairs applied by the churn leg.
    pub churn_pairs: usize,
    /// Pairs per class replayed against the replica after the legs.
    pub replay_pairs: usize,
}

impl Spec {
    /// Classes served.
    pub fn class_count(&self) -> usize {
        match self.registry {
            Registry::Standard12 => cpr_conform::standard_classes().len(),
            Registry::DestCowen => 2,
        }
    }

    /// A fresh registry builder. The Cowen landmark draw is seeded from
    /// the run's seed, so a rebuild under churn repeats it.
    pub fn builder(&self, seed: u64) -> MultiBuilder {
        match self.registry {
            Registry::Standard12 => cpr_conform::standard_builder(),
            Registry::DestCowen => MultiBuilder::new()
                .class("dest-table[shortest-path]", |g: &Graph| {
                    DestTable::build(g, &EdgeWeights::uniform(g, 1u64), &ShortestPath)
                })
                .class("cowen[shortest-path]", move |g: &Graph| {
                    cowen_scheme(g, seed)
                }),
        }
    }

    /// Leg lengths for a timed phase of `seconds` seconds: the main
    /// leg's windows take a tenth of it each, a cross leg's a thirtieth.
    /// `churn-mixed` applies four event pairs per second of timed phase
    /// (≈ 0.24 s per event on the reference host) in slices of three;
    /// elsewhere the churn leg is a cross leg of three pairs, each its
    /// own slice, each event costing seconds at that size.
    pub fn timing(&self, seconds: u64) -> Timing {
        let main = Duration::from_secs_f64(seconds as f64 / WINDOWS as f64);
        let slice = |leg| if self.main == leg { main } else { main / 3 };
        let (churn_pairs, churn_slice_pairs) = match self.main {
            MainLeg::Churn => ((4 * seconds as usize).clamp(3, MAX_CHURN_PAIRS), 3),
            _ => (3, 1),
        };
        Timing {
            timetable: Timetable {
                warmup: Duration::from_millis(500),
                rounds: WINDOWS,
                slices: [slice(MainLeg::Lookup), slice(MainLeg::Batch)],
            },
            churn_slice_pairs,
            churn_warmup: Duration::from_millis(200),
            churn_pairs,
            replay_pairs: 4096,
        }
    }

    /// `--smoke`: the same code on n = 64, one 0.2 s window per leg and
    /// eight churn events. No bound applies to a smoke run.
    pub fn smoke(&self) -> (Spec, Timing) {
        let spec = Spec {
            n: 64,
            bringups: 1,
            ..self.clone()
        };
        let timing = Timing {
            timetable: Timetable {
                warmup: Duration::from_millis(100),
                rounds: 1,
                slices: [Duration::from_millis(200); 2],
            },
            churn_slice_pairs: 4,
            churn_warmup: Duration::from_millis(50),
            churn_pairs: if self.main == MainLeg::Churn { 4 } else { 1 },
            replay_pairs: 256,
        };
        (spec, timing)
    }
}

/// `cowen[shortest-path]` with `TzRandom { attempts: 4 }` landmarks
/// drawn from `seed`.
pub fn cowen_scheme(g: &Graph, seed: u64) -> CowenScheme {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "cowen", "landmarks"));
    CowenScheme::build(
        g,
        &EdgeWeights::uniform(g, 1u64),
        &ShortestPath,
        LandmarkStrategy::TzRandom { attempts: 4 },
        &mut rng,
    )
}

/// An independent stream seed per (run seed, workload, purpose).
pub fn sub_seed(seed: u64, workload: &str, purpose: &str) -> u64 {
    let mut f = Fnv::default();
    f.word(seed);
    for b in workload.bytes().chain([0]).chain(purpose.bytes()) {
        f.word(u64::from(b));
    }
    f.0
}

/// Everything generated for one run.
pub struct Inputs {
    /// The instance.
    pub graph: Graph,
    /// `cpr_plane::graph_digest` of it.
    pub graph_digest: u64,
    /// Per connection, the cycled `Lookup` stream (uniform pairs, class
    /// round-robin per request).
    pub lookups: Vec<Vec<Request>>,
    /// Per connection, the cycled `Batch`-256 stream (class round-robin
    /// per frame).
    pub batches: Vec<Vec<Request>>,
    /// FNV over every request of both streams, in order.
    pub request_fnv: u64,
    /// Removal edges, one per pair; event `2i` removes `removals[i]`,
    /// event `2i + 1` restores it.
    pub removals: Vec<(u32, u32)>,
    /// `graph` without `removals[i]` (restoration returns to `graph`
    /// itself, so edge order — and with it port numbering — is the
    /// original).
    pub degraded: Vec<Graph>,
    /// FNV over the applied event list.
    pub event_fnv: u64,
    /// Per class, the pairs replayed against the replica.
    pub replay: Vec<Vec<(u32, u32)>>,
}

impl Inputs {
    /// Generates the inputs of `spec` for `seed`.
    pub fn generate(spec: &Spec, seed: u64, timing: &Timing) -> Inputs {
        let rng_for = |purpose: &str| StdRng::seed_from_u64(sub_seed(seed, spec.name, purpose));
        let graph = generators::barabasi_albert(spec.n, 2, &mut rng_for("graph"));
        let classes = spec.class_count();
        let pairs_u32 = |pattern: &TrafficPattern, count: usize, rng: &mut StdRng| {
            cpr_plane::generate(&graph, pattern, count, rng)
                .into_iter()
                .map(|(s, t)| (s as u32, t as u32))
                .collect::<Vec<_>>()
        };

        let mut fnv = Fnv::default();
        let mut lookups = Vec::new();
        let mut batches = Vec::new();
        for conn in 0..CONNECTIONS {
            let mut rng = rng_for(&format!("lookups-{conn}"));
            let stream: Vec<Request> = pairs_u32(&TrafficPattern::Uniform, LOOKUP_STREAM, &mut rng)
                .into_iter()
                .enumerate()
                .map(|(i, (source, target))| Request::Lookup {
                    source,
                    target,
                    class: ((i + conn) % classes) as u8,
                })
                .collect();
            lookups.push(stream);

            let mut rng = rng_for(&format!("batches-{conn}"));
            let stream: Vec<Request> = (0..BATCH_STREAM)
                .map(|i| Request::Batch {
                    pairs: pairs_u32(&spec.batch_pattern, BATCH, &mut rng),
                    class: ((i + conn) % classes) as u8,
                })
                .collect();
            batches.push(stream);
        }
        for request in lookups.iter().chain(&batches).flatten() {
            fold_request(&mut fnv, request);
        }

        // Where the churn leg is the main leg, removals are drawn from
        // all non-bridge edges; where it is a cross leg of three pairs,
        // from the hub-free half, whose cost varies little.
        let hub_free = spec.main != MainLeg::Churn;
        let removals = non_bridge_edges(&graph, MAX_CHURN_PAIRS, hub_free, &mut rng_for("events"))
            .into_iter()
            .take(timing.churn_pairs)
            .collect::<Vec<_>>();
        let degraded = removals.iter().map(|&e| without_edge(&graph, e)).collect();
        let mut event_fnv = Fnv::default();
        for &(u, v) in &removals {
            for remove in [1u64, 0] {
                event_fnv.word(remove);
                event_fnv.word(u64::from(u));
                event_fnv.word(u64::from(v));
            }
        }

        let replay = (0..classes)
            .map(|c| {
                let mut rng = rng_for(&format!("replay-{c}"));
                pairs_u32(&TrafficPattern::Uniform, timing.replay_pairs, &mut rng)
            })
            .collect();

        Inputs {
            graph_digest: graph_digest(&graph),
            graph,
            lookups,
            batches,
            request_fnv: fnv.0,
            removals,
            degraded,
            event_fnv: event_fnv.0,
            replay,
        }
    }

    /// The applied event list: per pair, the removal (`true`, with the
    /// graph it leaves) then the restoration (`false`, the instance).
    pub fn events(&self) -> impl Iterator<Item = (bool, &Graph)> {
        self.degraded
            .iter()
            .flat_map(|degraded| [(true, degraded), (false, &self.graph)])
    }
}

fn fold_request(fnv: &mut Fnv, request: &Request) {
    let mut pair = |class: u8, s: u32, t: u32| {
        fnv.word(u64::from(class) << 40 ^ u64::from(s) << 20 ^ u64::from(t));
    };
    match request {
        Request::Lookup {
            source,
            target,
            class,
        } => pair(*class, *source, *target),
        Request::Batch { pairs, class } => pairs.iter().for_each(|&(s, t)| pair(*class, s, t)),
        _ => unreachable!("streams hold only Lookup and Batch requests"),
    }
}

fn without_edge(graph: &Graph, (u, v): (u32, u32)) -> Graph {
    let gone =
        |a: usize, b: usize| (a as u32, b as u32) == (u, v) || (b as u32, a as u32) == (u, v);
    Graph::from_edges(
        graph.node_count(),
        graph
            .edges()
            .map(|(_, uv)| uv)
            .filter(|&(a, b)| !gone(a, b)),
    )
    .expect("an edge subset of a simple graph is simple")
}

/// Up to `want` distinct edges, in seeded random order, whose removal
/// leaves the graph connected — so no event makes a pair unroutable
/// that was routable, and the instance is itself again after each
/// restoration. With `hub_free`, only edges whose higher-degree endpoint
/// is at most the median such degree over all edges: removing an edge at
/// a hub dirties most pairs, and on a leg of three removals that one
/// draw would decide the reading (n = 512: ≈ 1.9 s up to degree 19,
/// 2.6 s at degree 55).
fn non_bridge_edges(
    graph: &Graph,
    want: usize,
    hub_free: bool,
    rng: &mut StdRng,
) -> Vec<(u32, u32)> {
    let hub_degree = |&(u, v): &(u32, u32)| graph.degree(u as usize).max(graph.degree(v as usize));
    let mut edges: Vec<(u32, u32)> = graph
        .edges()
        .map(|(_, (u, v))| (u as u32, v as u32))
        .collect();
    if hub_free {
        let mut degrees: Vec<usize> = edges.iter().map(hub_degree).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        edges.retain(|e| hub_degree(e) <= median);
    }
    // Fisher–Yates, then keep the first `want` that are not bridges.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range(0..=i));
    }
    edges
        .into_iter()
        .filter(|&e| traversal::is_connected(&without_edge(graph, e)))
        .take(want)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_inputs(name: &str, seed: u64) -> (Spec, Inputs) {
        let spec = specs().into_iter().find(|s| s.name == name).unwrap();
        let (spec, timing) = spec.smoke();
        let inputs = Inputs::generate(&spec, seed, &timing);
        (spec, inputs)
    }

    #[test]
    fn inputs_are_a_pure_function_of_workload_and_seed() {
        let (_, a) = smoke_inputs("churn-mixed", 5);
        let (_, b) = smoke_inputs("churn-mixed", 5);
        let (_, c) = smoke_inputs("churn-mixed", 6);
        let (_, d) = smoke_inputs("lookup-steady", 5);
        assert_eq!(
            (a.graph_digest, a.request_fnv, a.event_fnv),
            (b.graph_digest, b.request_fnv, b.event_fnv)
        );
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.replay, b.replay);
        assert_ne!(a.graph_digest, c.graph_digest);
        assert_ne!(a.request_fnv, c.request_fnv);
        assert_ne!(a.graph_digest, d.graph_digest);
    }

    #[test]
    fn streams_have_the_stated_shape() {
        let (spec, inputs) = smoke_inputs("batch-steady", 9);
        assert_eq!(inputs.lookups.len(), CONNECTIONS);
        assert_eq!(inputs.lookups[0].len(), LOOKUP_STREAM);
        assert_eq!(inputs.batches[1].len(), BATCH_STREAM);
        let classes = spec.class_count();
        assert_eq!(classes, 12);
        for (i, request) in inputs.batches[0].iter().enumerate().take(30) {
            let Request::Batch { pairs, class } = request else {
                panic!("batch stream holds {request:?}");
            };
            assert_eq!(pairs.len(), BATCH);
            assert_eq!(usize::from(*class), i % classes);
            assert!(pairs
                .iter()
                .all(|&(s, t)| s != t && (s.max(t) as usize) < spec.n));
        }
        assert_eq!(inputs.replay.len(), classes);
        assert!(inputs.replay.iter().all(|p| p.len() == 256));
    }

    #[test]
    fn every_removal_keeps_the_instance_connected() {
        let (_, inputs) = smoke_inputs("churn-mixed", 11);
        assert_eq!(inputs.removals.len(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for (&(u, v), degraded) in inputs.removals.iter().zip(&inputs.degraded) {
            assert!(seen.insert((u, v)), "removal edges are distinct");
            assert!(inputs.graph.contains_edge(u as usize, v as usize));
            assert!(!degraded.contains_edge(u as usize, v as usize));
            assert_eq!(degraded.edge_count() + 1, inputs.graph.edge_count());
            assert!(traversal::is_connected(degraded));
        }
        let events: Vec<_> = inputs.events().collect();
        assert_eq!(events.len(), 8);
        assert!(events[0].0 && !events[1].0);
        assert!(!events[0]
            .1
            .contains_edge(inputs.removals[0].0 as usize, inputs.removals[0].1 as usize));
        assert_eq!(graph_digest(events[1].1), inputs.graph_digest);
    }

    #[test]
    fn the_full_runs_are_sized_as_documented() {
        let by_name = |n: &str| specs().into_iter().find(|s| s.name == n).unwrap();
        let t = by_name("churn-mixed").timing(10);
        assert_eq!((t.timetable.rounds, t.churn_pairs), (10, 40));
        assert_eq!(t.timetable.slices, [Duration::from_secs(1) / 3; 2]);
        let t = by_name("churn-mixed").timing(6);
        assert_eq!((t.churn_pairs, t.churn_slice_pairs), (24, 3));
        let t = by_name("batch-steady").timing(6);
        assert_eq!(
            t.timetable.slices,
            [Duration::from_millis(200), Duration::from_millis(600)]
        );
        assert_eq!(by_name("churn-mixed").timing(15).churn_pairs, 60);
        let t = by_name("lookup-steady").timing(10);
        assert_eq!((t.churn_pairs, t.churn_slice_pairs), (3, 1));
        assert_eq!(by_name("bringup-1024").timing(10).churn_pairs, 3);
        assert_eq!(by_name("bringup-1024").class_count(), 2);
    }
}
