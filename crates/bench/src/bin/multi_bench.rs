//! **Multi-algebra serving** — one process, twelve routing policies:
//! all eight Table 1 algebras plus the BGP compositions `B1`–`B4`
//! compiled into a single [`MultiRouteService`] sharing the graph
//! substrate and header tables.
//!
//! The study measures three things:
//!
//! * **substrate sharing** — bytes/node of the multi-plane versus the
//!   sum of twelve independently compiled planes (`memory`), the
//!   issue's headline number;
//! * **per-class serving** — a batched query sweep through every
//!   traffic class over the wire-protocol request shapes, counting
//!   delivered/unroutable per class (`serving.fresh`);
//! * **shared-delta repair** — one topology delta repairing *every*
//!   class from one shared dirty set, with the per-class repair sizes
//!   and the post-swap re-sweep (`repair`, `serving.repaired`,
//!   `serving.restored`).
//!
//! The run writes `BENCH_multi.json` (override with `CPR_BENCH_OUT`).
//! All reported quantities are logical — bit counts, pair counts,
//! permille ratios — and wall-clock fields are nulled under
//! `CPR_BENCH_TIMING=0`, so the file is byte-identical across runs and
//! `CPR_THREADS` settings. Knobs: `CPR_BENCH_N` (nodes),
//! `CPR_BENCH_QUERIES` (queries per class per phase).
//!
//! ```text
//! cargo run --release -p cpr-bench --bin multi_bench
//! CPR_BENCH_N=512 cargo run --release -p cpr-bench --bin multi_bench
//! ```

use std::time::Instant;

use cpr_bench::{
    env_size, experiment_rng, experiment_seed, report_path, timing_field, write_report, Json,
    TextTable,
};
use cpr_conform::{standard_builder, standard_classes};
use cpr_graph::{generators, Graph, NodeId};
use cpr_plane::RepairPolicy;
use cpr_serve::{MultiRouteService, Request, Response, RouteOutcome, ServeConfig};

const DEFAULT_N: usize = 192;
const DEFAULT_QUERIES: usize = 1_000;
const BATCH: usize = 64;

/// The deterministic per-class workload: `queries` pairs drawn by a
/// fixed stride so every class sees the same source/target mix.
fn workload(n: usize, class: usize, queries: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(queries);
    let mut i = 0usize;
    while pairs.len() < queries {
        let s = (i.wrapping_mul(7).wrapping_add(class)) % n;
        let t = (i.wrapping_mul(11).wrapping_add(3)) % n;
        i += 1;
        if s != t {
            pairs.push((s as u32, t as u32));
        }
    }
    pairs
}

#[derive(Default)]
struct ClassTally {
    delivered: u64,
    unroutable: u64,
    hops: u64,
}

/// Sweeps one class through the service over batched wire requests,
/// all answered against one consistent epoch.
fn sweep_class(
    service: &MultiRouteService,
    n: usize,
    class: usize,
    queries: usize,
    expect_epoch: u64,
) -> ClassTally {
    let mut tally = ClassTally::default();
    for chunk in workload(n, class, queries).chunks(BATCH) {
        let reply = service.answer(&Request::Batch {
            pairs: chunk.to_vec(),
            class: u8::try_from(class).expect("registry fits a traffic-class byte"),
        });
        let Response::Batch { epoch, outcomes } = reply else {
            panic!("class {class}: batch answered with {reply:?}");
        };
        assert_eq!(epoch, expect_epoch, "class {class}: served off-epoch");
        for outcome in outcomes {
            match outcome {
                RouteOutcome::Path(path) => {
                    tally.delivered += 1;
                    tally.hops += path.len() as u64 - 1;
                }
                RouteOutcome::Unroutable => tally.unroutable += 1,
                RouteOutcome::Failed(e) => panic!("class {class}: plane failure: {e}"),
            }
        }
    }
    tally
}

/// One serving phase: every class swept, tallies tabulated and
/// JSON-ified. Panics on any plane failure or off-epoch answer.
fn serve_phase(
    service: &MultiRouteService,
    phase: &str,
    n: usize,
    queries: usize,
    epoch: u64,
    table: &mut TextTable,
) -> Json {
    let specs = standard_classes();
    let t0 = Instant::now();
    let mut classes = Vec::with_capacity(specs.len());
    for (class, spec) in specs.iter().enumerate() {
        let tally = sweep_class(service, n, class, queries, epoch);
        let total = tally.delivered + tally.unroutable;
        table.row(vec![
            format!("{phase}/{}", spec.name),
            total.to_string(),
            tally.delivered.to_string(),
            tally.unroutable.to_string(),
            format!("{:.2}", tally.hops as f64 / tally.delivered.max(1) as f64),
        ]);
        classes.push(Json::obj([
            ("class", Json::str(spec.name)),
            ("family", Json::str(spec.family)),
            ("queries", Json::int(total)),
            ("delivered", Json::int(tally.delivered)),
            ("unroutable", Json::int(tally.unroutable)),
            (
                "delivered_permille",
                Json::int(tally.delivered * 1000 / total.max(1)),
            ),
            (
                "mean_hops_permille",
                Json::int(tally.hops * 1000 / tally.delivered.max(1)),
            ),
        ]));
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    Json::obj([
        ("phase", Json::str(phase)),
        ("epoch", Json::int(epoch)),
        ("classes", Json::Arr(classes)),
        ("sweep_ms", timing_field(elapsed_ms)),
    ])
}

/// The substrate-sharing accounting, the report's headline section:
/// `multi_bytes_per_node` versus `independent_bytes_per_node` and the
/// savings in permille. All integers — byte-deterministic.
fn memory_section(service: &MultiRouteService) -> Json {
    let mem = service.memory();
    assert!(
        mem.multi_total_bits < mem.independent_total_bits,
        "substrate sharing must beat {} independent planes ({} vs {} bits)",
        mem.classes,
        mem.multi_total_bits,
        mem.independent_total_bits
    );
    let per_class = mem
        .per_class
        .iter()
        .map(|c| {
            Json::obj([
                ("class", Json::str(c.name.clone())),
                ("transition_bits", Json::int(c.transition_bits)),
                ("initial_bits", Json::int(c.initial_bits)),
                ("initial_shared", Json::Bool(c.initial_shared)),
                ("adjacency_shared", Json::Bool(c.adjacency_shared)),
            ])
        })
        .collect();
    Json::obj([
        ("classes", Json::int(mem.classes)),
        ("nodes", Json::int(mem.nodes)),
        ("multi_total_bits", Json::int(mem.multi_total_bits)),
        (
            "independent_total_bits",
            Json::int(mem.independent_total_bits),
        ),
        (
            "multi_bytes_per_node",
            Json::int(mem.multi_total_bits / 8 / mem.nodes as u64),
        ),
        (
            "independent_bytes_per_node",
            Json::int(mem.independent_total_bits / 8 / mem.nodes as u64),
        ),
        (
            "savings_permille",
            Json::int(1000 - mem.multi_total_bits * 1000 / mem.independent_total_bits),
        ),
        (
            "distinct_initial_tables",
            Json::int(mem.distinct_initial_tables),
        ),
        (
            "distinct_adjacency_tables",
            Json::int(mem.distinct_adjacency_tables),
        ),
        ("per_class", Json::Arr(per_class)),
    ])
}

/// The first edge whose removal keeps the graph connected.
fn first_non_bridge(graph: &Graph) -> Option<(NodeId, NodeId)> {
    graph.edges().find_map(|(e, uv)| {
        let kept = graph.edges().filter(|&(i, _)| i != e).map(|(_, p)| p);
        let g = Graph::from_edges(graph.node_count(), kept).expect("edge subset is valid");
        cpr_graph::traversal::is_connected(&g).then_some(uv)
    })
}

/// One shared-delta reconcile: every class repaired from one dirty set,
/// one epoch swap. Returns the repair summary as JSON.
fn reconcile_step(
    service: &MultiRouteService,
    target: &Graph,
    expect_strategy: &str,
    expect_epoch: u64,
) -> Json {
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        record_budget_ms: cpr_bench::timing_enabled(),
    };
    let t0 = Instant::now();
    let report = service
        .reconcile(target, &policy)
        .expect("reconcile succeeds");
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(report.swapped, "a real delta must publish an epoch");
    assert_eq!(report.epoch, expect_epoch);
    let repair = report.repair.expect("swap carries its repair report");
    assert_eq!(
        repair.strategy, expect_strategy,
        "unexpected repair strategy"
    );
    let class_stats = repair
        .class_stats
        .iter()
        .map(|(name, stats)| {
            // `full_rebuild` is legal (the dirty-set closure can reach
            // every pair, and additions always do); a *forced* rebuild
            // is not — the policy disables the threshold.
            assert!(
                !stats.forced_rebuild,
                "{name}: rebuild must never be forced"
            );
            Json::obj([
                ("class", Json::str(name.clone())),
                ("dirty_pairs", Json::int(stats.dirty_pairs)),
                ("repaired_pairs", Json::int(stats.repaired_pairs)),
                ("patched_states", Json::int(stats.patched_states)),
                ("full_rebuild", Json::Bool(stats.full_rebuild)),
            ])
        })
        .collect();
    Json::obj([
        ("epoch", Json::int(report.epoch)),
        ("strategy", Json::str(repair.strategy)),
        ("removed_edges", Json::int(repair.removed_edges)),
        ("added_edges", Json::int(repair.added_edges)),
        ("shared_dirty_pairs", Json::int(repair.shared_dirty_pairs)),
        ("class_stats", Json::Arr(class_stats)),
        ("reconcile_ms", timing_field(elapsed_ms)),
    ])
}

fn main() {
    let n = env_size("CPR_BENCH_N", DEFAULT_N);
    let queries = env_size("CPR_BENCH_QUERIES", DEFAULT_QUERIES);
    let out_path = report_path("BENCH_multi.json");

    let specs = standard_classes();
    println!(
        "Multi-algebra serving: n={n} scale-free, {} classes from one process, \
         {queries} queries per class per phase\n",
        specs.len()
    );

    let mut rng = experiment_rng("multi", n);
    let graph = generators::barabasi_albert(n, 2, &mut rng);
    let service = MultiRouteService::new(
        &graph,
        standard_builder(),
        ServeConfig::default(),
        cpr_obs::Obs::from_env(),
    )
    .expect("multi compile");

    let memory = memory_section(&service);
    let mut table = TextTable::new(vec![
        "phase/class",
        "queries",
        "delivered",
        "unroutable",
        "hops",
    ]);

    // Phase 1: fresh — every class answers on epoch 0, on the static core.
    let snap = service.current();
    for class in 0..specs.len() {
        assert!(
            snap.class_on_core(class),
            "{}: fresh class must serve from the zero-alloc core",
            specs[class].name
        );
    }
    let fresh = serve_phase(&service, "fresh", n, queries, 0, &mut table);

    // Phase 2: remove one edge — all classes repaired from one shared
    // endpoint dirty set, one swap.
    let (u, v) = first_non_bridge(&graph).expect("scale-free graphs keep a cycle");
    let degraded = Graph::from_edges(
        graph.node_count(),
        graph
            .edges()
            .map(|(_, uv)| uv)
            .filter(|&uv| uv != (u, v) && uv != (v, u)),
    )
    .expect("edge subset is well-formed");
    let repair_degraded = reconcile_step(&service, &degraded, "pairs", 1);
    let repaired = serve_phase(&service, "repaired", n, queries, 1, &mut table);

    // Phase 3: restore the edge — the addition path (full dirty set).
    let repair_restored = reconcile_step(&service, &graph, "all", 2);
    let restored = serve_phase(&service, "restored", n, queries, 2, &mut table);
    println!("{table}");

    let stats = service.stats();
    assert_eq!(stats.failed, 0, "no class may fail a single query");
    assert_eq!(stats.epoch, 2);

    let report = Json::obj([
        ("bench", Json::str("multi")),
        ("host", cpr_bench::host_metadata()),
        ("n", Json::int(n)),
        ("queries_per_class", Json::int(queries)),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("multi", n))),
        ),
        (
            "registry",
            Json::Arr(
                specs
                    .iter()
                    .enumerate()
                    .map(|(class, spec)| {
                        Json::obj([
                            ("class", Json::int(class)),
                            ("name", Json::str(spec.name)),
                            ("family", Json::str(spec.family)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("memory", memory),
        ("serving", Json::Arr(vec![fresh, repaired, restored])),
        ("repair", Json::Arr(vec![repair_degraded, repair_restored])),
        ("metrics", service.obs().registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
