//! The hot-swap guarantee, proven under live fire: seeded churn from
//! the chaos harness drives epoch swaps while a client hammers the
//! socket, and every answer is audited after the fact:
//!
//! * **zero dropped** — every query the client sent got an answer (the
//!   closed loop would have erred on a dropped one);
//! * **zero stale-topology answers** — epochs stamped on answers are
//!   monotonically non-decreasing, every answer is hop-for-hop equal to
//!   the live-scheme oracle *for its own epoch's topology*, and
//!   `Unroutable` is only ever answered for pairs genuinely
//!   disconnected in that epoch;
//! * **post-swap convergence** — after the final swap and drain, every
//!   answer carries the final epoch and matches the final oracle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{generators, EdgeWeights, Graph};
use cpr_plane::{DeltaTracker, MultiBuilder, RepairPolicy};
use cpr_routing::{DestTable, RouteError};
use cpr_serve::{MultiRouteService, RouteClient, RouteOutcome, RouteServer, ServeConfig};
use cpr_sim::{
    churn_schedule, churn_timeline, topology_timeline, ChurnConfig, ChurnEvent, ChurnTargeting,
    FaultPlan, StormConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xC0FF_EE00_0006;
const N: usize = 20;

fn scheme_for(graph: &Graph) -> DestTable {
    let w = EdgeWeights::uniform(graph, 1u64);
    DestTable::build(graph, &w, &ShortestPath)
}

/// The single-algebra daemon: a one-entry registry.
fn one_class() -> MultiBuilder {
    MultiBuilder::new().class("shortest-path", scheme_for)
}

struct Recorded {
    epoch: u64,
    source: usize,
    target: usize,
    outcome: RouteOutcome,
}

/// Waits until `counter` reaches at least `target` so every published
/// epoch demonstrably serves live queries before the next swap.
fn wait_progress(counter: &AtomicU64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while counter.load(Ordering::Relaxed) < target {
        assert!(
            Instant::now() < deadline,
            "client made no progress; server wedged?"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn churn_under_live_load_never_drops_or_serves_stale() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let g0 = generators::gnp_connected(N, 0.25, &mut rng);
    let scheme0 = scheme_for(&g0);

    let schedule = FaultPlan::Storm(StormConfig {
        events: 10,
        heal_at_end: true,
        ..StormConfig::default()
    })
    .schedule(&g0, &mut rng);
    let timeline = topology_timeline(&g0, &schedule).expect("storm names only live elements");
    assert!(
        timeline.iter().any(|s| s.changed),
        "seeded storm produced no topology change; pick another seed"
    );

    let service = Arc::new(
        MultiRouteService::new(
            &g0,
            one_class(),
            ServeConfig::default(),
            cpr_obs::Obs::with_null_tracer(),
        )
        .expect("initial compile"),
    );
    let server = RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();

    // Oracle state per published epoch.
    let mut oracles: HashMap<u64, (Graph, DestTable)> = HashMap::new();
    oracles.insert(0, (g0.clone(), scheme0));

    let answered = AtomicU64::new(0);
    let churn_done = AtomicBool::new(false);

    let (recorded, swaps) = std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run());

        // The client: stream single lookups as fast as the closed loop
        // allows, recording every answer with its stamped epoch.
        let client_handle = scope.spawn(|| {
            let mut client = RouteClient::connect(addr).expect("connect");
            let mut rng = StdRng::seed_from_u64(SEED ^ 0xA5A5);
            let mut recorded = Vec::new();
            while !churn_done.load(Ordering::Relaxed) {
                for (s, t) in
                    cpr_plane::generate(&g0, &cpr_plane::TrafficPattern::Uniform, 16, &mut rng)
                {
                    let (epoch, outcome) = client.lookup(s as u32, t as u32).expect("lookup");
                    recorded.push(Recorded {
                        epoch,
                        source: s,
                        target: t,
                        outcome,
                    });
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            }
            recorded
        });

        // The control plane: drive each churn step through reconcile,
        // waiting for the client to land queries on every epoch.
        let mut swaps = 0u64;
        for step in &timeline {
            if !step.changed {
                continue;
            }
            let scheme = scheme_for(&step.graph);
            let before = service.current().digest();
            let report = service
                .reconcile(&step.graph, &RepairPolicy::default())
                .expect("reconcile");
            assert!(report.swapped, "a changed step must publish a new epoch");
            assert!(report.digest != before, "changed step with equal digests");
            swaps += 1;
            assert_eq!(
                report.epoch, swaps,
                "epochs advance by exactly one per changed step"
            );
            oracles.insert(report.epoch, (step.graph.clone(), scheme));
            wait_progress(&answered, answered.load(Ordering::Relaxed) + 5);
        }
        churn_done.store(true, Ordering::Relaxed);
        let recorded = client_handle.join().expect("client thread");
        stop.store(true, Ordering::Relaxed);
        server_handle.join().expect("server thread").unwrap();
        (recorded, swaps)
    });

    // --- Audit ---------------------------------------------------------
    assert!(swaps >= 2, "storm produced too few swaps to prove anything");
    assert!(
        recorded.len() as u64 >= swaps * 5,
        "client recorded too few answers"
    );

    // Zero dropped: every send was answered (lookup would have erred),
    // and the server counted exactly what the client saw (plus nothing).
    let stats = service.stats();
    assert_eq!(stats.queries, recorded.len() as u64);
    assert_eq!(
        stats.delivered + stats.unroutable + stats.failed,
        stats.queries
    );
    assert_eq!(stats.swaps, swaps);
    assert_eq!(
        stats.epoch_queries.iter().map(|&(_, q)| q).sum::<u64>(),
        stats.queries,
        "per-epoch counts partition the total"
    );

    // Zero stale answers, part 1: epochs never go backwards.
    let mut last = 0u64;
    for r in &recorded {
        assert!(
            r.epoch >= last,
            "epoch went backwards: {} after {}",
            r.epoch,
            last
        );
        last = r.epoch;
    }
    assert_eq!(last, swaps, "the drain tail must reach the final epoch");

    // Zero stale answers, part 2: every answer agrees hop-for-hop with
    // the live-scheme oracle for its own epoch's topology.
    for r in &recorded {
        let (graph, scheme) = oracles
            .get(&r.epoch)
            .expect("answers only carry published epochs");
        let oracle = cpr_routing::route(scheme, graph, r.source, r.target);
        match (&r.outcome, oracle) {
            (RouteOutcome::Path(path), Ok(expect)) => {
                let got: Vec<usize> = path.iter().map(|&v| v as usize).collect();
                assert_eq!(
                    got, expect,
                    "epoch {} answer for ({}, {}) diverged from its oracle",
                    r.epoch, r.source, r.target
                );
            }
            (RouteOutcome::Unroutable, Err(RouteError::Unroutable { .. })) => {}
            (outcome, oracle) => panic!(
                "epoch {} ({}, {}): answer {outcome:?} vs oracle {oracle:?}",
                r.epoch, r.source, r.target
            ),
        }
    }

    // Post-swap convergence: heal_at_end restored every link, so the
    // final topology is g0's edge set again and a drain burst must be
    // answered entirely at the final epoch, matching the final oracle.
    let (final_graph, _) = &oracles[&swaps];
    assert_eq!(
        cpr_plane::graph_digest(final_graph),
        cpr_plane::graph_digest(&g0),
        "heal_at_end must restore the original edge set"
    );
    let server = RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();
    std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run());
        let mut client = RouteClient::connect(addr).expect("connect");
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x5A5A);
        let (final_graph, final_scheme) = &oracles[&swaps];
        for (s, t) in cpr_plane::generate(&g0, &cpr_plane::TrafficPattern::Uniform, 64, &mut rng) {
            let (epoch, outcome) = client.lookup(s as u32, t as u32).expect("drain lookup");
            assert_eq!(epoch, swaps, "drain answers must all be at the final epoch");
            match (outcome, cpr_routing::route(final_scheme, final_graph, s, t)) {
                (RouteOutcome::Path(path), Ok(expect)) => {
                    let got: Vec<usize> = path.iter().map(|&v| v as usize).collect();
                    assert_eq!(got, expect);
                }
                (RouteOutcome::Unroutable, Err(RouteError::Unroutable { .. })) => {}
                (outcome, oracle) => panic!("drain ({s}, {t}): {outcome:?} vs {oracle:?}"),
            }
        }
        drop(client);
        stop.store(true, Ordering::Relaxed);
        server_handle.join().expect("server thread").unwrap();
    });
}

/// The additions-containing storm: seeded churn with genuinely *new*
/// links (plus targeted crashes and link failures) driven through
/// [`MultiRouteService::reconcile`] — the class registered with its own
/// [`DeltaTracker`] — under live socket load. Every answer
/// is audited hop-for-hop against its epoch's oracle — zero stale
/// answers — and every repair must stay incremental: an added edge
/// patches the affected pairs, it never forces a full rebuild.
#[test]
fn additions_storm_reconciles_incrementally_with_zero_stale_answers() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xADD);
    let g0 = generators::gnp_connected(N, 0.25, &mut rng);
    let scheme0 = scheme_for(&g0);

    let events = churn_schedule(
        &g0,
        &ChurnConfig {
            events: 10,
            targeting: ChurnTargeting::DegreeRanked,
            heal_at_end: true,
            ..ChurnConfig::default()
        },
        &mut rng,
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ChurnEvent::AddLink { .. })),
        "seeded churn storm produced no additions; pick another seed"
    );
    let timeline = churn_timeline(&g0, &events).expect("schedule applies cleanly");

    // The schemes use uniform weights, so the tracker tracks the same
    // preference (hop-count ties broken exactly like the scheme's
    // generalized Dijkstra).
    let tracker = DeltaTracker::new(ShortestPath, &g0, |_, _| 1u64).with_hop_tiebreak(true);
    let service = Arc::new(
        MultiRouteService::new(
            &g0,
            one_class().with_oracle(tracker),
            ServeConfig::default(),
            cpr_obs::Obs::with_null_tracer(),
        )
        .expect("initial compile"),
    );
    let server = RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();

    let mut oracles: HashMap<u64, (Graph, DestTable)> = HashMap::new();
    oracles.insert(0, (g0.clone(), scheme0));

    let answered = AtomicU64::new(0);
    let churn_done = AtomicBool::new(false);
    // Never force: the point of this storm is that *no* delta — adds
    // included — needs a rebuild; dirty == all pairs would still take
    // the rebuild path, and the audit below asserts it never happens.
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };

    let (recorded, swaps) = std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run());
        let client_handle = scope.spawn(|| {
            let mut client = RouteClient::connect(addr).expect("connect");
            let mut rng = StdRng::seed_from_u64(SEED ^ 0x1A1A);
            let mut recorded = Vec::new();
            while !churn_done.load(Ordering::Relaxed) {
                for (s, t) in
                    cpr_plane::generate(&g0, &cpr_plane::TrafficPattern::Uniform, 16, &mut rng)
                {
                    let (epoch, outcome) = client.lookup(s as u32, t as u32).expect("lookup");
                    recorded.push(Recorded {
                        epoch,
                        source: s,
                        target: t,
                        outcome,
                    });
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            }
            recorded
        });

        let mut swaps = 0u64;
        for step in &timeline {
            if !step.changed {
                continue;
            }
            let scheme = scheme_for(&step.graph);
            let report = service.reconcile(&step.graph, &policy).expect("reconcile");
            assert!(report.swapped, "a changed step must publish a new epoch");
            let repair = &report
                .repair
                .as_ref()
                .expect("changed step repairs")
                .class_stats[0]
                .1;
            assert!(
                !repair.full_rebuild,
                "event {:?} forced a full rebuild ({} dirty pairs) — \
                 additions must repair incrementally",
                step.event, repair.dirty_pairs
            );
            swaps += 1;
            oracles.insert(report.epoch, (step.graph.clone(), scheme));
            wait_progress(&answered, answered.load(Ordering::Relaxed) + 5);
        }
        churn_done.store(true, Ordering::Relaxed);
        let recorded = client_handle.join().expect("client thread");
        stop.store(true, Ordering::Relaxed);
        server_handle.join().expect("server thread").unwrap();
        (recorded, swaps)
    });

    assert!(swaps >= 2, "storm produced too few swaps to prove anything");

    // Zero dropped; epochs monotone; zero stale-topology answers.
    let stats = service.stats();
    assert_eq!(stats.queries, recorded.len() as u64);
    assert_eq!(stats.swaps, swaps);
    let mut last = 0u64;
    for r in &recorded {
        assert!(r.epoch >= last, "epoch went backwards");
        last = r.epoch;
    }
    for r in &recorded {
        let (graph, scheme) = oracles
            .get(&r.epoch)
            .expect("answers only carry published epochs");
        let oracle = cpr_routing::route(scheme, graph, r.source, r.target);
        match (&r.outcome, oracle) {
            (RouteOutcome::Path(path), Ok(expect)) => {
                let got: Vec<usize> = path.iter().map(|&v| v as usize).collect();
                assert_eq!(
                    got, expect,
                    "epoch {} answer for ({}, {}) diverged from its oracle",
                    r.epoch, r.source, r.target
                );
            }
            (RouteOutcome::Unroutable, Err(RouteError::Unroutable { .. })) => {}
            (outcome, oracle) => panic!(
                "epoch {} ({}, {}): answer {outcome:?} vs oracle {oracle:?}",
                r.epoch, r.source, r.target
            ),
        }
    }

    // heal_at_end restores every down node/link, so the final topology is
    // the base plus every surviving added link.
    let (final_graph, _) = &oracles[&swaps];
    assert!(
        final_graph.edge_count() >= g0.edge_count(),
        "healed final topology lost base links"
    );
}
