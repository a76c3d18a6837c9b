//! **Chaos storms** — seeded fault injection across algebras and both
//! simulators, with hard correctness gates.
//!
//! Three drills, each of which *panics on any robustness violation* so a
//! CI smoke run fails loudly:
//!
//! 1. **Storms**: a seeded fault storm (link flaps, node crash/restarts,
//!    partitions, and message loss/duplication/delay on the asynchronous
//!    simulator) is driven over each monotone policy on a connected
//!    `G(n,p)` instance with a healing tail. The run must quiesce, end
//!    with zero blackholed pairs and zero forwarding loops, and the
//!    final RIBs must agree pairwise with the centralized Dijkstra
//!    solver on the healed topology.
//! 2. **Oscillation**: the BAD GADGET dispute wheel must be *flagged* as
//!    oscillating by the detector within a few rounds — never spun to
//!    the round budget, never mistaken for convergence.
//! 3. **Self-healing plane**: a compiled forwarding plane has a routed
//!    link failed underneath it; staleness must be detected, dirty pairs
//!    served by live fallback, and `repair()` must restore hop-for-hop
//!    agreement with the live scheme on the surviving topology.
//!
//! The run writes `BENCH_chaos.json` (override with `CPR_BENCH_OUT`).
//! The report contains **logical metrics only** — event counts,
//! reconvergence-round percentiles, exposure and repair counters, no
//! wall-clock — so the file is byte-identical across runs at a fixed
//! seed. Instance size and storm length come from `CPR_CHAOS_N` /
//! `CPR_CHAOS_EVENTS` so CI can run a small instance.
//!
//! ```text
//! cargo run --release -p cpr-bench --bin chaos
//! CPR_CHAOS_N=32 CPR_CHAOS_EVENTS=8 cargo run --release -p cpr-bench --bin chaos
//! ```

use std::cmp::Ordering;
use std::collections::BTreeSet;

use cpr_algebra::policies::{self, ShortestPath, WidestPath};
use cpr_algebra::RoutingAlgebra;
use cpr_bench::{
    env_size, experiment_rng, experiment_seed, report_path, write_report, Json, TextTable,
};
use cpr_bgp::bad_gadget;
use cpr_graph::{generators, traversal, EdgeWeights, Graph, NodeId};
use cpr_paths::dijkstra;
use cpr_plane::{DirtySource, RepairPolicy, SelfHealingPlane, Served};
use cpr_routing::{DestTable, RoutingScheme};
use cpr_sim::{
    run_chaos_async_obs, run_chaos_sync, run_chaos_sync_obs, AsyncSimulator, ChaosOptions,
    FaultPlan, RecoveryReport, Simulator, StormConfig,
};

const DEFAULT_N: usize = 48;
const DEFAULT_EVENTS: usize = 10;
const MAX_DELAY: u64 = 9;

/// Asserts the simulator's RIB weights match `dijkstra` truth for every
/// pair on `g` and returns nothing — a disagreement is a harness bug.
fn assert_dijkstra_truth<A: RoutingAlgebra>(
    label: &str,
    alg: &A,
    g: &Graph,
    w: &EdgeWeights<A::W>,
    weight_of: impl Fn(NodeId, NodeId) -> cpr_algebra::PathWeight<A::W>,
) {
    for t in g.nodes() {
        let tree = dijkstra(g, w, alg, t);
        for u in g.nodes() {
            if u != t {
                assert_eq!(
                    alg.compare_pw(&weight_of(u, t), tree.weight(u)),
                    Ordering::Equal,
                    "{label}: {u} → {t} disagrees with the centralized solver \
                     after the healed storm"
                );
            }
        }
    }
}

/// Audit + tabulate one finished storm; panics on any robustness
/// violation (non-quiescence, residual blackholes or loops). The settle
/// percentiles come from the report's [`cpr_obs::Histogram`], the same
/// exact-bucket accumulator the obs registry aggregates across storms.
fn gate_report(label: &str, report: &RecoveryReport, table: &mut TextTable) -> Json {
    assert!(report.quiesced(), "{label}: storm failed to quiesce");
    assert!(!report.oscillating(), "{label}: monotone policy oscillated");
    assert_eq!(
        report.final_blackholes(),
        0,
        "{label}: blackholed pairs at final quiescence"
    );
    assert_eq!(
        report.final_loops(),
        0,
        "{label}: forwarding loops at final quiescence"
    );

    let p50 = report.settle_steps_percentile(0.50);
    let p90 = report.settle_steps_percentile(0.90);
    let max = report.settle_steps_percentile(1.0);
    table.row(vec![
        label.to_string(),
        report.events.len().to_string(),
        report.total_messages().to_string(),
        report.transient_blackhole_exposure().to_string(),
        p50.to_string(),
        p90.to_string(),
        max.to_string(),
    ]);

    Json::obj([
        ("run", Json::str(label)),
        ("events", Json::int(report.events.len())),
        ("quiesced", Json::Bool(report.quiesced())),
        ("messages", Json::int(report.total_messages())),
        (
            "transient_blackhole_exposure",
            Json::int(report.transient_blackhole_exposure()),
        ),
        ("final_blackholes", Json::int(report.final_blackholes())),
        ("final_loops", Json::int(report.final_loops())),
        (
            "settle_steps",
            Json::obj([
                ("p50", Json::int(p50)),
                ("p90", Json::int(p90)),
                ("max", Json::int(max)),
            ]),
        ),
    ])
}

/// One sync + one async storm for `alg` on a fresh seeded instance.
fn storm_pair<A: cpr_algebra::SampleWeights>(
    name: &str,
    alg: &A,
    n: usize,
    events: usize,
    table: &mut TextTable,
    obs: &cpr_obs::Obs,
) -> Vec<Json> {
    let mut rng = experiment_rng(&format!("chaos-{name}"), n);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.5);
    let g = generators::gnp_connected(n, p, &mut rng);
    let w = EdgeWeights::random(&g, alg, &mut rng);
    let plan = FaultPlan::Storm(StormConfig {
        events,
        ..StormConfig::default()
    });
    let opts = ChaosOptions::default();
    let mut out = Vec::new();

    let schedule = plan.schedule(&g, &mut rng);
    let mut sim = Simulator::from_edge_weights(&g, alg, &w);
    let report =
        run_chaos_sync_obs(&mut sim, &schedule, &opts, obs).expect("sync storm events are valid");
    assert_dijkstra_truth(&format!("{name}/sync"), alg, &g, &w, |u, t| {
        sim.weight(u, t)
    });
    out.push(gate_report(&format!("{name}/sync"), &report, table));

    let schedule = plan.schedule(&g, &mut rng);
    let mut sim = AsyncSimulator::from_edge_weights(&g, alg, &w, MAX_DELAY);
    let report = run_chaos_async_obs(&mut sim, &schedule, &mut rng, &opts, obs)
        .expect("async storm events are valid");
    assert_dijkstra_truth(&format!("{name}/async"), alg, &g, &w, |u, t| {
        sim.weight(u, t)
    });
    out.push(gate_report(&format!("{name}/async"), &report, table));

    out
}

/// The BAD GADGET dispute wheel must be flagged, not spun to budget.
fn oscillation_drill() -> Json {
    let (g, arc) = bad_gadget();
    let mut sim = Simulator::new(&g, &cpr_bgp::DisputeAlgebra, arc);
    let schedule =
        FaultPlan::Scripted(Vec::new()).schedule(&g, &mut experiment_rng("chaos-osc", 4));
    let opts = ChaosOptions {
        round_budget: 100_000,
        ..ChaosOptions::default()
    };
    let report = run_chaos_sync(&mut sim, &schedule, &opts).expect("empty schedule is valid");
    assert!(
        report.oscillating(),
        "dispute wheel must be flagged as oscillating"
    );
    assert!(
        !report.quiesced(),
        "dispute wheel must not read as converged"
    );
    assert!(
        report.initial.steps < 100,
        "oscillation detector spun {} rounds instead of cutting off",
        report.initial.steps
    );
    Json::obj([
        ("gadget", Json::str("bad-gadget dispute wheel")),
        ("oscillating", Json::Bool(report.oscillating())),
        ("rounds_to_detection", Json::int(report.initial.steps)),
        ("round_budget", Json::int(opts.round_budget)),
    ])
}

/// Fails a routed, non-bridge link under a compiled plane and drills the
/// detect → fallback → repair → agree cycle.
fn self_healing_drill(n: usize, obs: &cpr_obs::Obs) -> Json {
    let mut rng = experiment_rng("chaos-heal", n);
    let p = (2.5 * (n as f64).ln() / n as f64).min(0.5);
    let g = generators::gnp_connected(n, p, &mut rng);
    let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
    let scheme = DestTable::build(&g, &w, &ShortestPath);
    let mut healing = SelfHealingPlane::new(&scheme, &g).expect("plane compiles");
    assert!(healing.base().is_current_for(&g));

    // A non-bridge edge some live route crosses: failing it dirties
    // pairs without disconnecting the graph.
    let mut used = BTreeSet::new();
    for s in g.nodes() {
        for t in g.nodes() {
            if s != t {
                let path = cpr_routing::route(&scheme, &g, s, t).expect("connected");
                for hop in path.windows(2) {
                    used.insert((hop[0].min(hop[1]), hop[0].max(hop[1])));
                }
            }
        }
    }
    let (mut edges, mut weights) = (Vec::new(), Vec::new());
    let (a, b) = used
        .iter()
        .copied()
        .find(|&(u, v)| {
            let survivors = g
                .edges()
                .filter(|&(_, (x, y))| (x.min(y), x.max(y)) != (u, v))
                .map(|(_, uv)| uv);
            traversal::is_connected(
                &Graph::from_edges(g.node_count(), survivors).expect("subgraph is simple"),
            )
        })
        .expect("some routed edge is not a bridge");
    for (e, (u, v)) in g.edges() {
        if (u.min(v), u.max(v)) != (a, b) {
            edges.push((u, v));
            weights.push(*w.weight(e));
        }
    }
    let g2 = Graph::from_edges(g.node_count(), edges).expect("subgraph is simple");
    let w2 = EdgeWeights::from_vec(&g2, weights);
    let scheme2 = DestTable::build(&g2, &w2, &ShortestPath);

    assert!(
        !healing.base().is_current_for(&g2),
        "topology digest must detect the failed link"
    );
    let stale = healing
        .observe(&g2, DirtySource::Walks)
        .expect("same node count");
    assert!(stale.stale && stale.dirty_pairs > 0);

    // Pre-repair: dirty pairs fall back to the live scheme.
    let mut pre_fallback = 0u64;
    for s in g2.nodes() {
        for t in g2.nodes() {
            if s != t {
                let (_, served) = healing
                    .route(&scheme2, &g2, s, t)
                    .expect("healed plane never fails on a connected graph");
                if served == Served::Fallback {
                    pre_fallback += 1;
                }
            }
        }
    }
    assert_eq!(pre_fallback as usize, stale.dirty_pairs);

    let never_forced = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    let stats = healing
        .repair(&scheme2, &g2, DirtySource::Walks, &never_forced, obs)
        .expect("repair succeeds");
    assert!(
        !stats.full_rebuild,
        "one removed link must patch, not rebuild"
    );
    assert_eq!(stats.unroutable_pairs, 0);
    assert!(healing.is_fresh_for(&g2));

    // Post-repair: hop-for-hop agreement with the live scheme.
    let mut degraded = 0u64;
    for s in g2.nodes() {
        for t in g2.nodes() {
            if s != t {
                let live = cpr_routing::route(&scheme2, &g2, s, t).expect("connected");
                let (path, served) = healing.route(&scheme2, &g2, s, t).expect("repaired");
                assert_eq!(path, live, "{s} → {t} disagrees with live after repair");
                if served == Served::Degraded {
                    degraded += 1;
                }
            }
        }
    }
    assert!(
        degraded > 0,
        "repaired pairs must be served via the patch layer"
    );
    let c = healing.counters();
    assert_eq!(c.failed, 0, "no query may fail across the drill");
    healing.record_health(obs);

    Json::obj([
        ("scheme", Json::str(scheme.name())),
        ("failed_link", Json::arr([Json::int(a), Json::int(b)])),
        ("dirty_pairs", Json::int(stale.dirty_pairs)),
        ("patched_states", Json::int(stats.patched_states)),
        ("repaired_pairs", Json::int(stats.repaired_pairs)),
        ("fallback_queries", Json::int(pre_fallback)),
        ("degraded_queries", Json::int(degraded)),
        ("failed_queries", Json::int(c.failed)),
        ("epoch", Json::int(c.epoch)),
    ])
}

fn main() {
    let n = env_size("CPR_CHAOS_N", DEFAULT_N);
    let events = env_size("CPR_CHAOS_EVENTS", DEFAULT_EVENTS);
    let out_path = report_path("BENCH_chaos.json");

    println!(
        "Chaos storms: n={n} gnp, {events} seeded fault events per storm, \
         async max delay {MAX_DELAY}\n"
    );

    let mut table = TextTable::new(vec![
        "storm",
        "events",
        "messages",
        "exposure",
        "settle p50",
        "settle p90",
        "settle max",
    ]);

    // All storm metrics are logical (event counts, settle-step
    // histograms), so the registry snapshot embedded below is
    // byte-deterministic at a fixed seed. CPR_TRACE additionally streams
    // span/event lines for every fault event without touching the report.
    let obs = cpr_obs::Obs::from_env();

    let mut storms = Vec::new();
    storms.extend(storm_pair(
        "shortest",
        &ShortestPath,
        n,
        events,
        &mut table,
        &obs,
    ));
    storms.extend(storm_pair(
        "widest",
        &WidestPath,
        n,
        events,
        &mut table,
        &obs,
    ));
    storms.extend(storm_pair(
        "widest-shortest",
        &policies::widest_shortest(),
        n,
        events,
        &mut table,
        &obs,
    ));

    println!("{table}");

    let oscillation = oscillation_drill();
    println!("oscillation: bad gadget flagged after {} round(s)", {
        match &oscillation {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == "rounds_to_detection")
                .map_or_else(|| "?".to_string(), |(_, v)| v.to_compact()),
            _ => unreachable!(),
        }
    });

    let heal = self_healing_drill(n, &obs);
    println!("self-healing: detect → fallback → repair → agree ✓");

    let report = Json::obj([
        ("bench", Json::str("chaos")),
        ("host", cpr_bench::host_metadata()),
        ("n", Json::int(n)),
        ("events_per_storm", Json::int(events)),
        ("async_max_delay", Json::int(MAX_DELAY)),
        (
            "seed",
            Json::str(format!("{:#018x}", experiment_seed("chaos-shortest", n))),
        ),
        ("storms", Json::Arr(storms)),
        ("oscillation", oscillation),
        ("self_healing", heal),
        ("metrics", obs.registry.render_json()),
    ]);
    write_report(&out_path, &report);
}
