//! **Internet-scale compilation and serving** — the streaming sharded
//! compiler, the arena-backed merge and the zero-alloc batched lookup
//! core, exercised on an instance two orders of magnitude past the
//! paper-figure sizes.
//!
//! For each scheme (the dense `DestTable` baseline and the paper's
//! compact Cowen scheme) on one scale-free instance, the run:
//!
//! 1. **compiles** the forwarding plane across an explicit thread sweep,
//!    asserting the FNV digest identical at every worker count (the
//!    streaming shard merge is deterministic by construction, this pins
//!    it) and reporting per-count compile times with honestly-gated
//!    speedups ([`speedup_field`] nulls a ratio the host cannot
//!    measure);
//! 2. accounts **memory** exactly from the packed layout: transition,
//!    initial-table and adjacency bits, and the headline bytes-per-node;
//! 3. serves a uniform query batch through the **batched lookup core**
//!    ([`cpr_plane::LookupCore`]), accumulating the *full* joint
//!    `(optimal hops, served hops)` histogram — the complete stretch
//!    distribution, not just mean/max — against parallel-BFS hop optima
//!    ([`cpr_paths::HopMatrix`]);
//! 4. times the same batch through the sharded [`serve_obs`] engine at
//!    1, 2 and 4 shards.
//!
//! Writes `BENCH_scale.json` (override with `CPR_BENCH_OUT`);
//! `CPR_BENCH_N` sets the instance size and `CPR_BENCH_QUERIES` the
//! batch size. With `CPR_BENCH_TIMING=0` every wall-clock and
//! host-dependent field renders as `null` and the report is
//! byte-deterministic — the mode CI's scale-smoke job diffs against the
//! checked-in baseline.
//!
//! ```text
//! cargo run --release -p cpr-bench --bin scale_bench
//! CPR_BENCH_N=2048 CPR_BENCH_TIMING=0 cargo run --release -p cpr-bench --bin scale_bench
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use cpr_algebra::policies::ShortestPath;
use cpr_bench::{
    env_size, experiment_rng, experiment_seed, report_path, speedup_field,
    speedup_unreliable_field, timing_field, write_report, Json, TextTable, Topology,
};
use cpr_graph::{EdgeWeights, Graph, NodeId};
use cpr_paths::HopMatrix;
use cpr_plane::{
    compile_with_threads, serve_obs, BatchScratch, EngineConfig, ForwardingPlane, TrafficPattern,
};
use cpr_routing::{CowenScheme, DestTable, LandmarkStrategy, RoutingScheme};

/// Two orders of magnitude past the n=512 paper-figure instances.
const DEFAULT_N: usize = 10_000;
const DEFAULT_QUERIES: usize = 1_000_000;
/// Queries per lookup-core batch: large enough to amortize the counting
/// sort, small enough that the scratch permutation stays cache-resident.
const CORE_BATCH: usize = 1 << 16;
const SHARDS: [usize; 3] = [1, 2, 4];

/// 1, 2, 4, …, available_parallelism — deduplicated, ascending.
fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, usize::from);
    let mut sweep = vec![1usize, 2, 4, max];
    sweep.retain(|&t| t <= max.max(4));
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

/// The full joint distribution of (optimal hops, served hops) plus the
/// failure count — everything stretch statistics derive from.
struct StretchAccum {
    /// `(optimal, served) → count` over delivered queries with a known
    /// finite optimum.
    joint: BTreeMap<(u32, u32), u64>,
    delivered: u64,
    failed: u64,
    served_hops_total: u64,
}

impl StretchAccum {
    fn new() -> Self {
        StretchAccum {
            joint: BTreeMap::new(),
            delivered: 0,
            failed: 0,
            served_hops_total: 0,
        }
    }

    /// Mean and max of `served / optimal` over scored pairs (optimal ≥ 1).
    fn stretch(&self) -> (f64, f64, u64) {
        let mut sum = 0.0;
        let mut max = 0.0f64;
        let mut samples = 0u64;
        for (&(opt, served), &count) in &self.joint {
            if opt == 0 {
                continue;
            }
            let ratio = f64::from(served) / f64::from(opt);
            sum += ratio * count as f64;
            max = max.max(ratio);
            samples += count;
        }
        let mean = if samples == 0 {
            1.0
        } else {
            sum / samples as f64
        };
        (mean, max, samples)
    }

    fn hist_json(&self) -> Json {
        Json::Arr(
            self.joint
                .iter()
                .map(|(&(opt, served), &count)| {
                    Json::obj([
                        ("opt", Json::int(opt)),
                        ("hops", Json::int(served)),
                        ("count", Json::int(count)),
                    ])
                })
                .collect(),
        )
    }
}

/// Streams `queries` through the zero-alloc batched core in
/// [`CORE_BATCH`]-sized chunks, folding every outcome into the joint
/// histogram. Returns the accumulator and the wall-clock seconds of the
/// pure lookup work.
fn batched_pass(
    plane: &ForwardingPlane,
    queries: &[(NodeId, NodeId)],
    optima: &HopMatrix,
) -> (StretchAccum, f64) {
    let core = plane.lookup_core();
    let mut scratch = BatchScratch::new();
    let mut accum = StretchAccum::new();
    let mut lookup_secs = 0.0;
    for chunk in queries.chunks(CORE_BATCH) {
        let start = Instant::now();
        core.lookup_batch(chunk, &mut scratch);
        lookup_secs += start.elapsed().as_secs_f64();
        for (outcome, &(s, t)) in scratch.results().zip(chunk) {
            match outcome {
                Some(served) => {
                    accum.delivered += 1;
                    accum.served_hops_total += u64::from(served);
                    if let Some(opt) = optima.hops(s, t) {
                        *accum.joint.entry((opt, served)).or_insert(0) += 1;
                    }
                }
                None => accum.failed += 1,
            }
        }
    }
    (accum, lookup_secs)
}

#[allow(clippy::too_many_arguments)]
fn bench_scheme<S: RoutingScheme + Sync>(
    scheme: &S,
    g: &Graph,
    queries: &[(NodeId, NodeId)],
    optima: &HopMatrix,
    sweep: &[usize],
    table: &mut TextTable,
    obs: &cpr_obs::Obs,
) -> Json
where
    S::Header: Send,
{
    let n = g.node_count();

    // Compile sweep: serial first (the digest oracle), then every other
    // worker count must reproduce it bit for bit.
    let start = Instant::now();
    let plane = compile_with_threads(scheme, g, 1).expect("scheme compiles");
    let serial_ms = start.elapsed().as_secs_f64() * 1e3;
    let digest = plane.digest();
    let mut compile_rows = vec![Json::obj([
        ("threads", Json::int(1)),
        ("compile_ms", timing_field(serial_ms)),
        ("compile_speedup", speedup_field(1.0, 1)),
        ("speedup_unreliable", speedup_unreliable_field(1)),
    ])];
    for &threads in sweep.iter().filter(|&&t| t > 1) {
        let start = Instant::now();
        let p = compile_with_threads(scheme, g, threads).expect("scheme compiles");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            p.digest(),
            digest,
            "{}: plane digest diverged at {threads} threads",
            scheme.name()
        );
        compile_rows.push(Json::obj([
            ("threads", Json::int(threads)),
            ("compile_ms", timing_field(ms)),
            ("compile_speedup", speedup_field(serial_ms / ms, threads)),
            ("speedup_unreliable", speedup_unreliable_field(threads)),
        ]));
        obs.incr("bench.sweep_points");
    }

    // Exact memory accounting from the packed layout.
    let mem = plane.memory();
    let total_bytes = mem.total_bits().div_ceil(8);
    let bytes_per_node = total_bytes as f64 / n as f64;

    // The zero-alloc batched core, with the full stretch distribution.
    let (accum, lookup_secs) = batched_pass(&plane, queries, optima);
    let batched_qps = queries.len() as f64 / lookup_secs.max(1e-9);
    let (stretch_mean, stretch_max, stretch_samples) = accum.stretch();

    // The sharded engine on the same batch.
    let mut shard_qps = Vec::new();
    for shards in SHARDS {
        let report = serve_obs(
            &plane,
            queries,
            None,
            &EngineConfig::with_shards(shards),
            obs,
        );
        assert_eq!(
            report.delivered as u64,
            accum.delivered,
            "{}: sharded engine disagrees with batched core",
            scheme.name()
        );
        shard_qps.push((shards, report.throughput_qps()));
    }

    let mean_hops = if accum.delivered == 0 {
        0.0
    } else {
        accum.served_hops_total as f64 / accum.delivered as f64
    };
    table.row(vec![
        scheme.name(),
        mem.layout.to_string(),
        format!("{:.0}", bytes_per_node),
        format!("{:.2}", batched_qps / 1e6),
        format!("{:.2}", mean_hops),
        format!("{stretch_mean:.3}"),
        format!("{stretch_max:.2}"),
        accum.failed.to_string(),
    ]);

    Json::obj([
        ("scheme", Json::str(scheme.name())),
        ("plane_digest", Json::str(format!("{digest:016x}"))),
        ("layout", Json::str(mem.layout)),
        ("headers", Json::int(mem.headers)),
        ("states", Json::int(mem.states)),
        ("entry_width", Json::int(mem.entry_width)),
        (
            "memory",
            Json::obj([
                ("transition_bits", Json::int(mem.transition_bits)),
                ("initial_bits", Json::int(mem.initial_bits)),
                ("adjacency_bits", Json::int(mem.adjacency_bits)),
                ("total_bytes", Json::int(total_bytes)),
                ("bytes_per_node", Json::float(bytes_per_node)),
            ]),
        ),
        ("compile_sweep", Json::Arr(compile_rows)),
        (
            "serve",
            Json::obj([
                ("queries", Json::int(queries.len())),
                ("delivered", Json::int(accum.delivered)),
                ("failed", Json::int(accum.failed)),
                ("mean_hops", Json::float(mean_hops)),
                ("batched_qps", timing_field(batched_qps)),
                (
                    "qps_by_shards",
                    Json::obj(
                        shard_qps
                            .iter()
                            .map(|&(s, qps)| (s.to_string(), timing_field(qps))),
                    ),
                ),
                (
                    "stretch",
                    Json::obj([
                        ("mean", Json::float(stretch_mean)),
                        ("max", Json::float(stretch_max)),
                        ("samples", Json::int(stretch_samples)),
                    ]),
                ),
                ("stretch_hist", accum.hist_json()),
            ]),
        ),
    ])
}

fn main() {
    let n = env_size("CPR_BENCH_N", DEFAULT_N);
    let queries_n = env_size("CPR_BENCH_QUERIES", DEFAULT_QUERIES);
    let out_path = report_path("BENCH_scale.json");
    let sweep = thread_sweep();

    let obs = cpr_obs::Obs::from_env();
    let mut rng = experiment_rng("scale-bench", n);
    let g = Topology::ScaleFree.build(n, &mut rng);
    // Unit weights: hop metric, so BFS optima score stretch exactly.
    let w = EdgeWeights::uniform(&g, 1u64);
    let queries = cpr_plane::generate(&g, &TrafficPattern::Uniform, queries_n, &mut rng);

    println!(
        "Internet-scale compile + serve: n={n} scale-free ({} edges), {queries_n} uniform \
         queries, compile sweep {sweep:?}, {} hardware thread(s)\n",
        g.edge_count(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    let start = Instant::now();
    let optima = HopMatrix::compute(&g);
    let optima_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut table = TextTable::new(vec![
        "scheme",
        "layout",
        "B/node",
        "core Mq/s",
        "avg hops",
        "stretch",
        "max",
        "failed",
    ]);

    let start = Instant::now();
    let dest = DestTable::build(&g, &w, &ShortestPath);
    let dest_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let cowen = CowenScheme::build(
        &g,
        &w,
        &ShortestPath,
        LandmarkStrategy::TzRandom { attempts: 4 },
        &mut rng,
    );
    let cowen_build_ms = start.elapsed().as_secs_f64() * 1e3;

    let schemes = vec![
        bench_scheme(&dest, &g, &queries, &optima, &sweep, &mut table, &obs),
        bench_scheme(&cowen, &g, &queries, &optima, &sweep, &mut table, &obs),
    ];
    println!("{table}");

    obs.set_gauge("bench.nodes", n as i64);
    obs.set_gauge("bench.edges", g.edge_count() as i64);

    let report = Json::obj([
        ("bench", Json::str("scale")),
        ("n", Json::int(n)),
        ("edges", Json::int(g.edge_count())),
        ("topology", Json::str("scale-free")),
        ("queries", Json::int(queries_n)),
        ("host", cpr_bench::host_metadata()),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("scale-bench", n))),
        ),
        ("hop_optima_ms", timing_field(optima_ms)),
        ("hop_optima_bytes", Json::int(optima.bytes())),
        ("dest_build_ms", timing_field(dest_build_ms)),
        ("cowen_build_ms", timing_field(cowen_build_ms)),
        ("schemes", Json::Arr(schemes)),
        ("metrics", obs.registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
