//! Closed-loop serving benchmark over the `cpr-serve` daemon.
//!
//! Boots a [`RouteServer`] over a one-class [`MultiRouteService`] on an
//! ephemeral loopback port, drives it with the seed-deterministic load
//! generator under three traffic mixes (uniform / gravity / hotspot),
//! then pushes a seeded chaos storm through
//! [`MultiRouteService::reconcile`] while measuring latency inside vs
//! outside the repair + swap windows, and finally audits a drain burst
//! hop-for-hop against the live-scheme oracle for the post-swap
//! topology.
//!
//! Writes `BENCH_serve.json` (override with `CPR_BENCH_OUT`). Knobs:
//! `CPR_BENCH_N` (nodes), `CPR_BENCH_QUERIES` (queries per client per
//! steady phase), `CPR_SERVE_CLIENTS` (closed-loop connections).
//!
//! With `CPR_BENCH_TIMING=0` the churn phase *serializes* swaps between
//! client bursts, every wall-clock field renders as `null`, and server-
//! side latency recording is disabled — the whole report (including the
//! embedded registry snapshot with its per-epoch query counters) is
//! then byte-deterministic, which the determinism tests pin across
//! `CPR_THREADS`. With timing enabled the churn phase overlaps load and
//! swaps for honest in-window latency numbers.
//!
//! ```text
//! CPR_BENCH_N=48 CPR_BENCH_QUERIES=2000 cargo run --release -p cpr-bench --bin serve_bench
//! ```

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cpr_algebra::policies::ShortestPath;
use cpr_bench::{
    env_size, experiment_rng, experiment_seed, host_metadata, report_path, timing_enabled,
    timing_field, write_report, Json, TextTable, Topology,
};
use cpr_graph::{EdgeWeights, Graph};
use cpr_obs::Histogram;
use cpr_plane::{MultiBuilder, RepairPolicy, TrafficPattern};
use cpr_routing::{DestTable, RouteError};
use cpr_serve::{
    run_load, LoadConfig, LoadReport, MultiRouteService, MultiSwapReport, RouteOutcome,
    RouteServer, ServeConfig,
};
use cpr_sim::{topology_timeline, FaultPlan, StormConfig, TopologyStep};

const DEFAULT_N: usize = 48;
const DEFAULT_QUERIES: usize = 2000;
const STORM_EVENTS: usize = 6;

fn scheme_for(graph: &Graph) -> DestTable {
    let w = EdgeWeights::uniform(graph, 1u64);
    DestTable::build(graph, &w, &ShortestPath)
}

/// A latency percentile as an integer µs field, `null` without timing.
fn latency_field(h: &Histogram, p: f64) -> Json {
    if timing_enabled() {
        h.percentile(p).map_or(Json::Null, Json::int)
    } else {
        Json::Null
    }
}

fn load_json(load: &LoadReport, elapsed_ms: f64) -> Json {
    Json::obj([
        ("sent", Json::int(load.sent)),
        ("delivered", Json::int(load.delivered)),
        ("unroutable", Json::int(load.unroutable)),
        ("failed", Json::int(load.failed)),
        ("epoch_min", Json::int(load.epoch_min)),
        ("epoch_max", Json::int(load.epoch_max)),
        ("monotonic", Json::Bool(load.monotonic)),
        ("hops", load.hops.to_json()),
        ("latency_p50_us", latency_field(&load.latency_us, 0.50)),
        ("latency_p99_us", latency_field(&load.latency_us, 0.99)),
        ("elapsed_ms", timing_field(elapsed_ms)),
        (
            "qps",
            if timing_enabled() && elapsed_ms > 0.0 {
                Json::float(load.sent as f64 * 1000.0 / elapsed_ms)
            } else {
                Json::Null
            },
        ),
    ])
}

/// Rebuild only when every pair is dirty, never on a threshold — the
/// storm's removal rows report what patching costs.
const POLICY: RepairPolicy = RepairPolicy {
    max_dirty_fraction: 1.0,
    record_budget_ms: false,
};

struct ChurnResult {
    steps: Vec<Json>,
    load: LoadReport,
    elapsed_ms: f64,
    swaps: u64,
}

fn swap_row(step: &TopologyStep, report: &MultiSwapReport, swap_ms: f64) -> Json {
    let repair = &report
        .repair
        .as_ref()
        .expect("swapped steps carry a repair")
        .class_stats[0]
        .1;
    Json::obj([
        ("epoch", Json::int(report.epoch)),
        ("event", Json::str(format!("{:?}", step.event))),
        ("edges", Json::int(step.graph.edge_count())),
        ("dirty_pairs", Json::int(repair.dirty_pairs)),
        ("repaired_pairs", Json::int(repair.repaired_pairs)),
        ("unroutable_pairs", Json::int(repair.unroutable_pairs)),
        ("full_rebuild", Json::Bool(repair.full_rebuild)),
        ("swap_ms", timing_field(swap_ms)),
    ])
}

/// Deterministic churn: swaps strictly alternate with client bursts, so
/// per-epoch query counts (and everything else logical) are a pure
/// function of the seeds.
fn churn_serialized(
    addr: SocketAddr,
    service: &MultiRouteService,
    graph: &Graph,
    changed: &[&TopologyStep],
    clients: usize,
    burst: usize,
    seed: u64,
) -> ChurnResult {
    let started = Instant::now();
    let mut steps = Vec::new();
    let mut load = LoadReport {
        monotonic: true,
        ..LoadReport::default()
    };
    let mut swaps = 0u64;
    for (i, step) in changed.iter().enumerate() {
        let t0 = Instant::now();
        let report = service.reconcile(&step.graph, &POLICY).expect("reconcile");
        assert!(report.swapped, "changed step must swap");
        swaps += 1;
        steps.push(swap_row(step, &report, t0.elapsed().as_secs_f64() * 1e3));
        let cfg = LoadConfig {
            clients,
            queries_per_client: burst,
            pattern: TrafficPattern::Uniform,
            seed: seed.wrapping_add(i as u64 + 1),
            collect_answers: false,
        };
        load.absorb(run_load(addr, graph, &cfg, None).expect("churn burst"));
    }
    ChurnResult {
        steps,
        load,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        swaps,
    }
}

/// Overlapped churn: a load thread hammers the socket continuously
/// while the control plane swaps; each answer's latency sample is
/// tagged by whether it completed inside a repair + swap window.
fn churn_concurrent(
    addr: SocketAddr,
    service: &MultiRouteService,
    graph: &Graph,
    changed: &[&TopologyStep],
    clients: usize,
    burst: usize,
    seed: u64,
) -> ChurnResult {
    let started = Instant::now();
    let window = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let mut steps = Vec::new();
    let mut swaps = 0u64;
    let load = std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let mut merged = LoadReport {
                monotonic: true,
                ..LoadReport::default()
            };
            let mut round = 0u64;
            while !done.load(Ordering::Relaxed) {
                let cfg = LoadConfig {
                    clients,
                    queries_per_client: burst,
                    pattern: TrafficPattern::Uniform,
                    seed: seed.wrapping_add(0x1000).wrapping_add(round),
                    collect_answers: false,
                };
                round += 1;
                merged.absorb(run_load(addr, graph, &cfg, Some(&window)).expect("churn load"));
            }
            merged
        });
        for step in changed {
            // Let the loader land queries on the current epoch first.
            std::thread::sleep(std::time::Duration::from_millis(10));
            window.store(true, Ordering::Relaxed);
            let t0 = Instant::now();
            let report = service.reconcile(&step.graph, &POLICY).expect("reconcile");
            window.store(false, Ordering::Relaxed);
            assert!(report.swapped, "changed step must swap");
            swaps += 1;
            steps.push(swap_row(step, &report, t0.elapsed().as_secs_f64() * 1e3));
        }
        done.store(true, Ordering::Relaxed);
        loader.join().expect("load thread")
    });
    ChurnResult {
        steps,
        load,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        swaps,
    }
}

fn main() {
    let n = env_size("CPR_BENCH_N", DEFAULT_N);
    let queries = env_size("CPR_BENCH_QUERIES", DEFAULT_QUERIES);
    let clients = LoadConfig::clients_from_env(2);
    let out_path = report_path("BENCH_serve.json");

    let mut rng = experiment_rng("serve-bench", n);
    let g = Topology::ScaleFree.build(n, &mut rng);
    let config = ServeConfig {
        record_latency: timing_enabled(),
        ..ServeConfig::default()
    };
    let service = Arc::new(
        MultiRouteService::new(
            &g,
            MultiBuilder::new().class("shortest-path", scheme_for),
            config,
            cpr_obs::Obs::with_null_tracer(),
        )
        .expect("initial compile"),
    );
    let server = RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle();

    let schedule = FaultPlan::Storm(StormConfig {
        events: STORM_EVENTS,
        heal_at_end: true,
        ..StormConfig::default()
    })
    .schedule(&g, &mut rng);
    let timeline = topology_timeline(&g, &schedule).expect("timeline");
    let changed: Vec<&TopologyStep> = timeline.iter().filter(|s| s.changed).collect();
    assert!(!changed.is_empty(), "storm produced no topology change");

    let mut table = TextTable::new(vec!["phase", "sent", "delivered", "p50 µs", "p99 µs"]);
    let fmt_pct = |h: &Histogram, p: f64| {
        h.percentile(p)
            .map_or_else(|| "-".to_string(), |v| v.to_string())
    };

    let (steady, churn, oracle_checked) = std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run());

        // --- Steady state: three traffic mixes against epoch 0. ------
        let patterns = [
            TrafficPattern::Uniform,
            TrafficPattern::Gravity,
            TrafficPattern::Hotspot {
                hotspots: 8,
                fraction: 0.7,
            },
        ];
        let mut steady = Vec::new();
        for pattern in patterns {
            let name = pattern.name();
            let cfg = LoadConfig {
                clients,
                queries_per_client: queries,
                pattern,
                seed: experiment_seed(&format!("serve-load-{name}"), n),
                collect_answers: false,
            };
            let t0 = Instant::now();
            let load = run_load(addr, &g, &cfg, None).expect("steady load");
            let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(load.sent, (clients * queries) as u64, "dropped queries");
            assert_eq!(load.failed, 0, "loud failures in steady state");
            table.row(vec![
                name.to_string(),
                load.sent.to_string(),
                load.delivered.to_string(),
                fmt_pct(&load.latency_us, 0.50),
                fmt_pct(&load.latency_us, 0.99),
            ]);
            steady.push(Json::obj([
                ("pattern", Json::str(name)),
                ("report", load_json(&load, elapsed_ms)),
            ]));
        }

        // --- Churn: swaps under (or between) live load. --------------
        let churn_seed = experiment_seed("serve-churn", n);
        let burst = (queries / 4).max(8);
        let churn = if timing_enabled() {
            churn_concurrent(addr, &service, &g, &changed, clients, burst, churn_seed)
        } else {
            churn_serialized(addr, &service, &g, &changed, clients, burst, churn_seed)
        };
        assert_eq!(churn.load.failed, 0, "loud failures under churn");
        assert!(churn.load.monotonic, "epoch went backwards under churn");
        table.row(vec![
            "churn".to_string(),
            churn.load.sent.to_string(),
            churn.load.delivered.to_string(),
            fmt_pct(&churn.load.latency_us, 0.50),
            fmt_pct(&churn.load.latency_us, 0.99),
        ]);

        // --- Drain: audit answers against the post-swap oracle. ------
        let final_step = changed.last().expect("non-empty");
        let final_scheme = scheme_for(&final_step.graph);
        let cfg = LoadConfig {
            clients,
            queries_per_client: (queries / 4).max(8),
            pattern: TrafficPattern::Uniform,
            seed: experiment_seed("serve-drain", n),
            collect_answers: true,
        };
        let drain = run_load(addr, &g, &cfg, None).expect("drain load");
        assert_eq!(drain.failed, 0, "loud failures in drain");
        let mut checked = 0u64;
        for a in &drain.answers {
            assert_eq!(
                a.epoch, churn.swaps,
                "drain answer not at the final epoch: {} vs {}",
                a.epoch, churn.swaps
            );
            let oracle = cpr_routing::route(
                &final_scheme,
                &final_step.graph,
                a.source as usize,
                a.target as usize,
            );
            match (&a.outcome, oracle) {
                (RouteOutcome::Path(path), Ok(expect)) => {
                    let got: Vec<usize> = path.iter().map(|&v| v as usize).collect();
                    assert_eq!(got, expect, "post-swap answer diverged from oracle");
                }
                (RouteOutcome::Unroutable, Err(RouteError::Unroutable { .. })) => {}
                (outcome, oracle) => panic!(
                    "post-swap ({}, {}): {outcome:?} vs {oracle:?}",
                    a.source, a.target
                ),
            }
            checked += 1;
        }

        stop.store(true, Ordering::Relaxed);
        server_handle
            .join()
            .expect("server thread")
            .expect("server run");
        (steady, churn, checked)
    });

    println!("{table}");

    let stats = service.stats();
    let report = Json::obj([
        ("bench", Json::str("serve")),
        ("host", host_metadata()),
        ("n", Json::int(n)),
        ("edges", Json::int(g.edge_count())),
        ("topology", Json::str("scale-free")),
        ("clients", Json::int(clients)),
        ("queries_per_client", Json::int(queries)),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("serve-bench", n))),
        ),
        (
            "protocol",
            Json::obj([
                ("max_frame", Json::int(config.max_frame)),
                ("max_batch", Json::int(config.max_batch)),
            ]),
        ),
        ("steady", Json::Arr(steady)),
        (
            "churn",
            Json::obj([
                (
                    "mode",
                    Json::str(if timing_enabled() {
                        "concurrent"
                    } else {
                        "serialized"
                    }),
                ),
                ("storm_events", Json::int(STORM_EVENTS)),
                ("swaps", Json::int(churn.swaps)),
                ("steps", Json::Arr(churn.steps)),
                ("load", load_json(&churn.load, churn.elapsed_ms)),
                (
                    "window_latency_p50_us",
                    latency_field(&churn.load.window_latency_us, 0.50),
                ),
                (
                    "window_latency_p99_us",
                    latency_field(&churn.load.window_latency_us, 0.99),
                ),
            ]),
        ),
        (
            "post_swap_oracle",
            Json::obj([
                ("checked", Json::int(oracle_checked)),
                ("mismatches", Json::int(0)),
                ("final_epoch", Json::int(churn.swaps)),
            ]),
        ),
        (
            "stats",
            Json::obj([
                ("queries", Json::int(stats.queries)),
                ("delivered", Json::int(stats.delivered)),
                ("unroutable", Json::int(stats.unroutable)),
                ("failed", Json::int(stats.failed)),
                ("swaps", Json::int(stats.swaps)),
                (
                    "epoch_queries",
                    Json::Arr(
                        stats
                            .epoch_queries
                            .iter()
                            .map(|&(e, q)| {
                                Json::obj([("epoch", Json::int(e)), ("queries", Json::int(q))])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("metrics", service.obs().registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
