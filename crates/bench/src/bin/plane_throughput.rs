//! **Forwarding-plane throughput** — live `step` simulation vs compiled
//! [`cpr_plane::ForwardingPlane`] lookups, single-threaded and sharded.
//!
//! For each scheme the same uniform query batch is served three ways:
//! through the live simulator (`cpr_routing::route`), through the
//! compiled plane on one shard, and through the compiled plane on 2 and
//! 4 shards. The speedup column is compiled-vs-live on a single thread;
//! the scaling columns show the sharded engine (which can only help on
//! multi-core hosts — shard counts above the core count cost nothing but
//! gain nothing). Scheme construction and plane compilation run on the
//! `CPR_THREADS` scoped-thread layer and compilation is timed.
//!
//! Besides the text table, the run writes a machine-readable report to
//! `BENCH_plane.json` (override with `CPR_BENCH_OUT`). Instance size and
//! batch size come from `CPR_BENCH_N` / `CPR_BENCH_QUERIES` so CI smoke
//! jobs can run a small instance.
//!
//! ```text
//! cargo run --release -p cpr-bench --bin plane_throughput
//! CPR_BENCH_N=64 CPR_BENCH_QUERIES=5000 cargo run --release -p cpr-bench --bin plane_throughput
//! ```

use std::time::Instant;

use cpr_algebra::policies::{ShortestPath, WidestPath};
use cpr_bench::{
    env_size, experiment_rng, experiment_seed, report_path, timing_enabled, timing_field,
    write_report, Json, TextTable, Topology,
};
use cpr_graph::{EdgeWeights, Graph, NodeId};
use cpr_plane::{compile, serve_obs, EngineConfig, TrafficPattern};
use cpr_routing::{route, CowenScheme, DestTable, LandmarkStrategy, RoutingScheme, TzTreeRouting};

const DEFAULT_N: usize = 512;
const DEFAULT_QUERIES: usize = 100_000;
/// Each configuration is timed this many times and the best trial kept,
/// damping scheduler noise on shared hosts.
const TRIALS: usize = 3;
const SHARDS: [usize; 3] = [1, 2, 4];

/// Serves the batch through the live simulator, returning (seconds, hops).
fn live_serve<S: RoutingScheme>(scheme: &S, g: &Graph, queries: &[(NodeId, NodeId)]) -> (f64, u64) {
    let start = Instant::now();
    let mut hops = 0u64;
    for &(s, t) in queries {
        if let Ok(p) = route(scheme, g, s, t) {
            hops += (p.len() - 1) as u64;
        }
    }
    (start.elapsed().as_secs_f64(), hops)
}

fn bench_scheme<S: RoutingScheme + Sync>(
    scheme: &S,
    g: &Graph,
    queries: &[(NodeId, NodeId)],
    table: &mut TextTable,
    obs: &cpr_obs::Obs,
) -> Json
where
    S::Header: Send,
{
    let trials = if timing_enabled() { TRIALS } else { 1 };
    let compile_start = Instant::now();
    let plane = compile(scheme, g).expect("scheme compiles");
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    cpr_plane::validate(&plane, scheme, g).expect("plane matches live simulation");

    let mut live_secs = f64::INFINITY;
    let mut live_hops = 0;
    for _ in 0..trials {
        let (secs, hops) = live_serve(scheme, g, queries);
        live_secs = live_secs.min(secs);
        live_hops = hops;
    }
    let live_qps = queries.len() as f64 / live_secs;

    let mut shard_qps = Vec::new();
    let mut compiled_hops = 0;
    for shards in SHARDS {
        let mut best = 0.0f64;
        for _ in 0..trials {
            let report = serve_obs(
                &plane,
                queries,
                None,
                &EngineConfig::with_shards(shards),
                obs,
            );
            assert!(
                report.failures.is_empty(),
                "{}: {} failures",
                report.scheme,
                report.failures.len()
            );
            compiled_hops = report.total_hops;
            best = best.max(report.throughput_qps());
        }
        shard_qps.push(best);
    }
    assert_eq!(live_hops, compiled_hops, "hop counts must agree");

    let mem = plane.memory();
    table.row(vec![
        scheme.name(),
        format!("{:.2}", live_qps / 1e6),
        format!("{:.2}", shard_qps[0] / 1e6),
        format!("{:.1}×", shard_qps[0] / live_qps),
        format!("{:.2}", shard_qps[1] / 1e6),
        format!("{:.2}", shard_qps[2] / 1e6),
        format!("{}", mem.total_bits() / 8192),
    ]);

    Json::obj([
        ("scheme", Json::str(scheme.name())),
        ("compile_ms", timing_field(compile_ms)),
        ("live_qps", timing_field(live_qps)),
        (
            "plane_qps_by_shards",
            Json::obj(
                SHARDS
                    .iter()
                    .zip(&shard_qps)
                    .map(|(s, &qps)| (s.to_string(), timing_field(qps))),
            ),
        ),
        (
            "plane_digest",
            Json::str(format!("{:016x}", plane.digest())),
        ),
        ("plane_bits", Json::int(mem.total_bits())),
    ])
}

fn main() {
    let n = env_size("CPR_BENCH_N", DEFAULT_N);
    let queries_n = env_size("CPR_BENCH_QUERIES", DEFAULT_QUERIES);
    let out_path = report_path("BENCH_plane.json");
    let threads = cpr_core::par::thread_count();

    let obs = cpr_obs::Obs::from_env();
    let mut rng = experiment_rng("plane-throughput", n);
    let g = Topology::ScaleFree.build(n, &mut rng);
    let sp = EdgeWeights::random(&g, &ShortestPath, &mut rng);
    let wp = EdgeWeights::random(&g, &WidestPath, &mut rng);
    let queries = cpr_plane::generate(&g, &TrafficPattern::Uniform, queries_n, &mut rng);

    println!(
        "Forwarding-plane throughput: n={n} scale-free, {queries_n} uniform queries \
         (best of {TRIALS} trials), {threads} compile thread(s), {} hardware thread(s)\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let mut table = TextTable::new(vec![
        "scheme",
        "live Mq/s",
        "plane×1 Mq/s",
        "speedup",
        "plane×2 Mq/s",
        "plane×4 Mq/s",
        "plane KiB",
    ]);

    let schemes = vec![
        bench_scheme(
            &DestTable::build(&g, &sp, &ShortestPath),
            &g,
            &queries,
            &mut table,
            &obs,
        ),
        bench_scheme(
            &TzTreeRouting::spanning(&g, &wp, &WidestPath),
            &g,
            &queries,
            &mut table,
            &obs,
        ),
        bench_scheme(
            &CowenScheme::build(
                &g,
                &sp,
                &ShortestPath,
                LandmarkStrategy::TzRandom { attempts: 4 },
                &mut rng,
            ),
            &g,
            &queries,
            &mut table,
            &obs,
        ),
    ];

    println!("{table}");

    let report = Json::obj([
        ("bench", Json::str("plane_throughput")),
        ("host", cpr_bench::host_metadata()),
        ("n", Json::int(n)),
        ("edges", Json::int(g.edge_count())),
        ("topology", Json::str("scale-free")),
        ("queries", Json::int(queries_n)),
        (
            "trials",
            Json::int(if timing_enabled() { TRIALS } else { 1 }),
        ),
        // The compile thread count tracks CPR_THREADS; with timing
        // disabled it is nulled so the report stays byte-identical
        // across thread counts (the compiled plane's digest already is).
        (
            "threads",
            if timing_enabled() {
                Json::int(threads)
            } else {
                Json::Null
            },
        ),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("plane-throughput", n))),
        ),
        ("schemes", Json::Arr(schemes)),
        ("metrics", obs.registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
