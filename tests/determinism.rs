//! Determinism of the parallel control plane.
//!
//! The scoped-thread layer (`cpr_core::par`, `CPR_THREADS`) promises
//! *byte-identical* results at every worker count: `CPR_THREADS=1` is the
//! exact serial code path and every other count must reproduce it. This
//! suite pins that contract for the three parallel consumers —
//! [`AllPairs`], plane compilation (both its transcribing and its tracing
//! path), and the workload generators — under `CPR_THREADS ∈ {1, 2, 8}`
//! and across repeated runs.
//!
//! Tests that read `CPR_THREADS` serialize behind one mutex: the variable
//! is process-global and Rust runs tests on concurrent threads.

use std::sync::Mutex;

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{generators, EdgeWeights, Graph, NodeId};
use cpr_paths::AllPairs;
use cpr_plane::{compile, compile_with_threads, validate, TrafficPattern};
use cpr_routing::{
    CowenScheme, DestTable, IntervalTreeRouting, LandmarkStrategy, RouteAction, RoutingScheme,
};
use rand::SeedableRng;

/// The thread counts the contract is pinned at (serial, small, more
/// workers than this suite's graphs have natural shards for).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
/// Every configuration is run this many times: same-input reruns must be
/// identical too, not just cross-thread-count ones.
const REPEATS: usize = 2;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with `CPR_THREADS` set to `threads`, restoring the previous
/// value afterwards; callers serialize on [`ENV_LOCK`].
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap();
    let previous = std::env::var("CPR_THREADS").ok();
    std::env::set_var("CPR_THREADS", threads.to_string());
    let out = f();
    match previous {
        Some(v) => std::env::set_var("CPR_THREADS", v),
        None => std::env::remove_var("CPR_THREADS"),
    }
    out
}

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn all_pairs_is_identical_for_every_thread_count() {
    let g = generators::gnp_connected(48, 0.12, &mut rng(7));
    let w = EdgeWeights::random(&g, &ShortestPath, &mut rng(8));

    let reference = with_threads(1, || AllPairs::compute(&g, &w, &ShortestPath));
    for threads in THREAD_COUNTS {
        for run in 0..REPEATS {
            let ap = with_threads(threads, || AllPairs::compute(&g, &w, &ShortestPath));
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(
                        ap.weight(s, t),
                        reference.weight(s, t),
                        "weight {s} → {t} diverged (threads = {threads}, run {run})"
                    );
                    assert_eq!(
                        ap.path(s, t),
                        reference.path(s, t),
                        "path {s} → {t} diverged (threads = {threads}, run {run})"
                    );
                }
            }
        }
    }
}

#[test]
fn compiled_planes_are_identical_for_every_thread_count() {
    let g = generators::gnp_connected(40, 0.12, &mut rng(21));
    let w = EdgeWeights::random(&g, &ShortestPath, &mut rng(22));
    let dest = DestTable::build(&g, &w, &ShortestPath);
    let cowen = CowenScheme::build(
        &g,
        &w,
        &ShortestPath,
        LandmarkStrategy::TzRandom { attempts: 2 },
        &mut rng(23),
    );

    let dest_ref = with_threads(1, || compile(&dest, &g).unwrap().digest());
    let cowen_ref = with_threads(1, || compile(&cowen, &g).unwrap().digest());
    for threads in THREAD_COUNTS {
        for run in 0..REPEATS {
            let (dest_plane, cowen_plane) = with_threads(threads, || {
                (compile(&dest, &g).unwrap(), compile(&cowen, &g).unwrap())
            });
            assert_eq!(
                dest_plane.digest(),
                dest_ref,
                "dest-table plane diverged (threads = {threads}, run {run})"
            );
            assert_eq!(
                cowen_plane.digest(),
                cowen_ref,
                "cowen plane diverged (threads = {threads}, run {run})"
            );
            // The parallel validator must accept what the parallel
            // compiler produced, at the same worker count.
            with_threads(threads, || validate(&dest_plane, &dest, &g).unwrap());
        }
    }
}

/// A scheme compiled the traced way: it keeps the default
/// (not destination-labelled) declaration.
struct Traced<'a, S>(&'a S);

impl<S: RoutingScheme> RoutingScheme for Traced<'_, S> {
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

#[test]
fn transcribed_planes_equal_the_traced_ones_for_every_thread_count() {
    // Destination-labelled schemes compile by transcription in blocks of
    // destinations; the traced compile of the same scheme, serial, is the
    // reference. Two components on interleaved ids put header ids out of
    // target order.
    let g = generators::barabasi_albert(150, 2, &mut rng(51));
    let w = EdgeWeights::random(&g, &ShortestPath, &mut rng(52));
    let split = Graph::from_edges(
        150,
        g.edges()
            .filter(|&(_, (u, v))| u % 2 == v % 2)
            .map(|(_, e)| e)
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let dest = DestTable::build(&g, &w, &ShortestPath);
    let dest_split = DestTable::build(&split, &EdgeWeights::uniform(&split, 1u64), &ShortestPath);
    let interval = IntervalTreeRouting::spanning(&g, &w, &ShortestPath);
    let reference = [
        with_threads(1, || compile(&Traced(&dest), &g).unwrap().digest()),
        with_threads(1, || {
            compile(&Traced(&dest_split), &split).unwrap().digest()
        }),
        with_threads(1, || compile(&Traced(&interval), &g).unwrap().digest()),
    ];
    for threads in THREAD_COUNTS {
        for run in 0..REPEATS {
            let digests = with_threads(threads, || {
                [
                    compile(&dest, &g).unwrap().digest(),
                    compile(&dest_split, &split).unwrap().digest(),
                    compile(&interval, &g).unwrap().digest(),
                ]
            });
            assert_eq!(
                digests, reference,
                "transcribed planes diverged (threads = {threads}, run {run})"
            );
        }
    }
}

#[test]
fn explicit_thread_apis_match_the_env_driven_paths() {
    // Benchmarks sweep worker counts through `compute_with_threads` /
    // `compile_with_threads` instead of mutating the environment; both
    // entry points must agree with the `CPR_THREADS` ones.
    let g = generators::gnp_connected(32, 0.15, &mut rng(41));
    let w = EdgeWeights::random(&g, &ShortestPath, &mut rng(42));
    let scheme = DestTable::build(&g, &w, &ShortestPath);

    for threads in THREAD_COUNTS {
        let env_digest = with_threads(threads, || compile(&scheme, &g).unwrap().digest());
        assert_eq!(
            compile_with_threads(&scheme, &g, threads).unwrap().digest(),
            env_digest,
            "compile_with_threads({threads}) diverged from CPR_THREADS={threads}"
        );

        let explicit = AllPairs::compute_with_threads(&g, &w, &ShortestPath, threads);
        let via_env = with_threads(threads, || AllPairs::compute(&g, &w, &ShortestPath));
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(explicit.weight(s, t), via_env.weight(s, t));
                assert_eq!(explicit.path(s, t), via_env.path(s, t));
            }
        }
    }
}

#[test]
fn streaming_compile_digest_is_identical_at_scale() {
    // The streaming per-source-shard compiler pins its merge determinism
    // at a size where the shard count, the intern-merge remap and the
    // distinct-state accounting all actually matter. Debug builds walk
    // the tracer ~20× slower, so they shrink the instance; release runs
    // (and CPR_SLOW_TESTS=1 anywhere) use the full n=2048.
    let n = if std::env::var("CPR_SLOW_TESTS").ok().as_deref() == Some("1") {
        2048
    } else if cfg!(debug_assertions) {
        256
    } else {
        2048
    };
    let g = generators::barabasi_albert(n, 2, &mut rng(2048));
    let w = EdgeWeights::uniform(&g, 1u64);
    let scheme = DestTable::build(&g, &w, &ShortestPath);

    let reference = with_threads(1, || compile(&scheme, &g).unwrap().digest());
    for threads in THREAD_COUNTS {
        let digest = with_threads(threads, || compile(&scheme, &g).unwrap().digest());
        assert_eq!(
            digest, reference,
            "n={n} plane digest diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn workload_generation_ignores_the_thread_count() {
    let g = generators::barabasi_albert(64, 2, &mut rng(33));
    let patterns = [
        TrafficPattern::Uniform,
        TrafficPattern::Gravity,
        TrafficPattern::Hotspot {
            hotspots: 4,
            fraction: 0.7,
        },
    ];
    for pattern in patterns {
        let reference = with_threads(1, || cpr_plane::generate(&g, &pattern, 2000, &mut rng(5)));
        for threads in THREAD_COUNTS {
            for run in 0..REPEATS {
                let queries = with_threads(threads, || {
                    cpr_plane::generate(&g, &pattern, 2000, &mut rng(5))
                });
                assert_eq!(
                    queries, reference,
                    "workload diverged (threads = {threads}, run {run})"
                );
            }
        }
    }
}
