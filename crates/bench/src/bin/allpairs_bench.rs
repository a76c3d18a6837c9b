//! **Control-plane scaling** — all-pairs computation and plane
//! compilation timed across explicit thread counts.
//!
//! The two control-plane hot paths this workspace parallelizes —
//! [`AllPairs::compute`] (one generalized Dijkstra per source) and
//! [`cpr_plane::compile`] (one interning walk per source shard) — are
//! timed at 1, 2, 4 and `available_parallelism` workers on the same
//! instance, using the explicit-thread entry points so the sweep never
//! mutates `CPR_THREADS`. Every parallel result is checked identical to
//! the serial one before its timing is reported: tree weights per pair
//! for all-pairs, the FNV digest for planes.
//!
//! Writes `BENCH_allpairs.json` (override with `CPR_BENCH_OUT`);
//! `CPR_BENCH_N` sets the instance size.
//!
//! ```text
//! cargo run --release -p cpr-bench --bin allpairs_bench
//! CPR_BENCH_N=64 cargo run --release -p cpr-bench --bin allpairs_bench
//! ```

use std::time::Instant;

use cpr_algebra::policies::ShortestPath;
use cpr_algebra::RoutingAlgebra;
use cpr_bench::{
    env_size, experiment_rng, experiment_seed, report_path, speedup_field, speedup_reliable,
    speedup_unreliable_field, timing_enabled, timing_field, write_report, Json, TextTable,
    Topology,
};
use cpr_graph::EdgeWeights;
use cpr_paths::AllPairs;
use cpr_plane::compile_with_threads;
use cpr_routing::DestTable;

const DEFAULT_N: usize = 512;
/// Best-of-trials to damp scheduler noise.
const TRIALS: usize = 3;

/// 1, 2, 4, …, available_parallelism — deduplicated, ascending.
fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, usize::from);
    let mut sweep = vec![1usize, 2, 4, max];
    sweep.retain(|&t| t <= max.max(4));
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

fn best_of<R>(mut run: impl FnMut() -> R) -> (f64, R) {
    // With CPR_BENCH_TIMING=0 the timings render as null anyway, so one
    // trial suffices — the sweep still exercises every thread count and
    // checks every result against the serial reference.
    let trials = if timing_enabled() { TRIALS } else { 1 };
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..trials {
        let start = Instant::now();
        let r = run();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best * 1e3, out.expect("TRIALS ≥ 1"))
}

fn main() {
    let n = env_size("CPR_BENCH_N", DEFAULT_N);
    let out_path = report_path("BENCH_allpairs.json");
    let sweep = thread_sweep();

    let obs = cpr_obs::Obs::from_env();
    let mut rng = experiment_rng("allpairs-bench", n);
    let g = Topology::ScaleFree.build(n, &mut rng);
    let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);

    println!(
        "Control-plane scaling: n={n} scale-free, best of {TRIALS} trials, thread sweep {sweep:?}, \
         {} hardware thread(s)\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    );

    // Serial references: the sweep must reproduce these exactly.
    let (serial_ap_ms, serial_ap) =
        best_of(|| AllPairs::compute_with_threads(&g, &w, &ShortestPath, 1));
    let scheme = DestTable::build(&g, &w, &ShortestPath);
    let (serial_plane_ms, serial_plane) =
        best_of(|| compile_with_threads(&scheme, &g, 1).expect("scheme compiles"));
    let serial_digest = serial_plane.digest();

    let mut table = TextTable::new(vec![
        "threads",
        "all-pairs ms",
        "speedup",
        "compile ms",
        "speedup",
    ]);
    let mut rows = Vec::new();
    for &threads in &sweep {
        let (ap_ms, ap) =
            best_of(|| AllPairs::compute_with_threads(&g, &w, &ShortestPath, threads));
        for s in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    ShortestPath.compare_pw(ap.weight(s, t), serial_ap.weight(s, t)),
                    std::cmp::Ordering::Equal,
                    "all-pairs weight diverged at {threads} threads ({s} → {t})"
                );
            }
        }
        let (plane_ms, plane) =
            best_of(|| compile_with_threads(&scheme, &g, threads).expect("scheme compiles"));
        assert_eq!(
            plane.digest(),
            serial_digest,
            "plane digest diverged at {threads} threads"
        );

        let show_speedup = |ratio: f64| {
            if speedup_reliable(threads) {
                format!("{ratio:.2}×")
            } else {
                "n/a".to_string()
            }
        };
        table.row(vec![
            threads.to_string(),
            format!("{ap_ms:.1}"),
            show_speedup(serial_ap_ms / ap_ms),
            format!("{plane_ms:.1}"),
            show_speedup(serial_plane_ms / plane_ms),
        ]);
        obs.incr("bench.sweep_points");
        rows.push(Json::obj([
            ("threads", Json::int(threads)),
            ("allpairs_ms", timing_field(ap_ms)),
            (
                "allpairs_speedup",
                speedup_field(serial_ap_ms / ap_ms, threads),
            ),
            ("compile_ms", timing_field(plane_ms)),
            (
                "compile_speedup",
                speedup_field(serial_plane_ms / plane_ms, threads),
            ),
            ("speedup_unreliable", speedup_unreliable_field(threads)),
        ]));
    }
    println!("{table}");

    // Logical plane shape: thread-count-invariant (the digest check above
    // proves it), so these land in the embedded registry snapshot.
    obs.set_gauge("plane.headers", serial_plane.header_count() as i64);
    obs.set_gauge("bench.nodes", n as i64);
    obs.set_gauge("bench.edges", g.edge_count() as i64);

    let report = Json::obj([
        ("bench", Json::str("allpairs")),
        ("n", Json::int(n)),
        ("edges", Json::int(g.edge_count())),
        ("topology", Json::str("scale-free")),
        (
            "trials",
            Json::int(if timing_enabled() { TRIALS } else { 1 }),
        ),
        ("host", cpr_bench::host_metadata()),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("allpairs-bench", n))),
        ),
        ("serial_allpairs_ms", timing_field(serial_ap_ms)),
        ("serial_compile_ms", timing_field(serial_plane_ms)),
        ("plane_digest", Json::str(format!("{serial_digest:016x}"))),
        ("sweep", Json::Arr(rows)),
        ("metrics", obs.registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
