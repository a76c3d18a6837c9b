//! **Observability smoke** — a tiny fully-traced run across the sim,
//! chaos, and plane layers that *self-validates* everything the obs
//! layer emits.
//!
//! The drill: converge a small grid under a traced context, drive a
//! short scripted fault through the chaos harness, compile and serve a
//! forwarding plane, reconcile a twelve-class daemon through a link's
//! removal and restoration — then
//!
//! 1. validate the registry snapshot (compact and pretty renderings)
//!    with [`cpr_obs::json::validate`],
//! 2. validate every line in the tracer's ring buffer, the daemon's
//!    included, and demand the reconcile trace: one `multi.class` span
//!    per class per event whose timing event carries `update_us` /
//!    `observe_us` / `repair_us`, and one `multi.snapshot` span per swap,
//! 3. if `CPR_TRACE` points at a file, read it back and validate every
//!    JSON-line in it, panicking loudly on the first malformed line.
//!
//! CI runs this with `CPR_TRACE=trace.jsonl` and uploads the trace as
//! an artifact; any malformed line fails the job.
//!
//! ```text
//! CPR_TRACE=trace.jsonl cargo run -p cpr-bench --bin obs_smoke
//! ```

use cpr_algebra::policies::ShortestPath;
use cpr_bench::experiment_rng;
use cpr_graph::{generators, EdgeWeights};
use cpr_obs::{json, Obs, TRACE_ENV};
use cpr_plane::{compile, serve_obs, EngineConfig, RepairPolicy, TrafficPattern};
use cpr_routing::DestTable;
use cpr_serve::{MultiRouteService, ServeConfig};
use cpr_sim::{run_chaos_sync_obs, ChaosOptions, FaultPlan, Simulator, StormConfig};

const N_SIDE: usize = 4;
const STORM_EVENTS: usize = 3;
const QUERIES: usize = 64;

fn validate_or_die(what: &str, text: &str) {
    if let Err((offset, msg)) = json::validate(text) {
        panic!("obs-smoke: {what} is not valid JSON at byte {offset}: {msg}");
    }
}

fn main() {
    let obs = Obs::from_env();
    let mut rng = experiment_rng("obs-smoke", N_SIDE);

    // 1. Traced convergence on a grid.
    let g = generators::grid(N_SIDE, N_SIDE);
    let w = EdgeWeights::uniform(&g, 1u64);
    let mut sim = Simulator::from_edge_weights(&g, &ShortestPath, &w);
    let report = sim.run_to_convergence_obs(100, &obs);
    assert!(report.converged, "grid must converge");

    // 2. A short seeded storm through the chaos harness.
    let plan = FaultPlan::Storm(StormConfig {
        events: STORM_EVENTS,
        ..StormConfig::default()
    });
    let schedule = plan.schedule(&g, &mut rng);
    let mut sim = Simulator::from_edge_weights(&g, &ShortestPath, &w);
    let chaos = run_chaos_sync_obs(&mut sim, &schedule, &ChaosOptions::default(), &obs)
        .expect("storm events are valid");
    assert!(chaos.quiesced(), "storm must quiesce");

    // 3. Compile + serve a plane under the same context.
    let scheme = DestTable::build(&g, &w, &ShortestPath);
    let plane = compile(&scheme, &g).expect("scheme compiles");
    let queries = cpr_plane::generate(&g, &TrafficPattern::Uniform, QUERIES, &mut rng);
    let served = serve_obs(&plane, &queries, None, &EngineConfig::with_shards(2), &obs);
    assert!(served.failures.is_empty(), "tiny plane serves everything");

    // 4. Reconcile a twelve-class daemon through one removal and its
    // restoration. The daemon traces into its own ring-only context, so
    // the CPR_TRACE file keeps one writer.
    let classes = cpr_conform::standard_classes().len();
    let daemon = MultiRouteService::new(
        &g,
        cpr_conform::standard_builder(),
        ServeConfig::default(),
        Obs::with_null_tracer(),
    )
    .expect("the standard registry compiles");
    let (_, (u, v)) = g.edges().next().expect("the grid has edges");
    let cut = cpr_graph::Graph::from_edges(
        g.node_count(),
        g.edges().map(|(_, uv)| uv).filter(|&uv| uv != (u, v)),
    )
    .expect("an edge subset is simple");
    for topology in [&cut, &g] {
        let swap = daemon
            .reconcile(topology, &RepairPolicy::default())
            .expect("the daemon reconciles");
        assert!(swap.swapped, "a real delta publishes a new epoch");
    }

    // Gate 1: the registry snapshot parses in both renderings.
    let snapshot = obs.registry.render_json();
    validate_or_die("registry snapshot (compact)", &snapshot.to_compact());
    validate_or_die("registry snapshot (pretty)", &snapshot.to_pretty());

    // Gate 2: every ring-buffer line parses, and the daemon's ring holds
    // the per-class reconcile budget and the snapshot spans.
    let ring = obs.tracer.recent();
    for (i, line) in ring.iter().enumerate() {
        validate_or_die(&format!("ring line {i}"), line);
    }
    let daemon_ring = daemon.obs().tracer.recent();
    for (i, line) in daemon_ring.iter().enumerate() {
        validate_or_die(&format!("daemon ring line {i}"), line);
    }
    let count = |needle: &str| daemon_ring.iter().filter(|l| l.contains(needle)).count();
    let timings: Vec<&String> = daemon_ring
        .iter()
        .filter(|l| l.contains(r#""name":"multi.class.timing""#))
        .collect();
    assert_eq!(
        timings.len(),
        2 * classes,
        "one timing event per class per event"
    );
    for line in &timings {
        for field in ["update_us", "observe_us", "repair_us", "scheme"] {
            assert!(
                line.contains(&format!(r#""{field}":"#)),
                "{line} lacks {field}"
            );
        }
    }
    assert_eq!(
        count(r#""kind":"span_open","name":"multi.class""#),
        2 * classes,
        "one multi.class span per class per event"
    );
    assert_eq!(
        count(r#""name":"multi.snapshot.timing""#),
        2,
        "one snapshot span per swap"
    );

    // Gate 3: if CPR_TRACE wrote a file, every line in it parses.
    obs.tracer.flush();
    let traced_to_file = match std::env::var(TRACE_ENV) {
        Ok(v) if !v.is_empty() && v != "0" && v != "stderr" => Some(v),
        _ => None,
    };
    let mut file_lines = 0usize;
    if let Some(path) = &traced_to_file {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("obs-smoke: cannot read {TRACE_ENV}={path}: {e}"));
        for (i, line) in text.lines().enumerate() {
            validate_or_die(&format!("{path} line {}", i + 1), line);
            file_lines += 1;
        }
        assert!(file_lines > 0, "traced run must emit at least one line");
    }

    println!(
        "obs-smoke OK: convergence in {} round(s), {} chaos event(s), {}/{} queries delivered",
        report.rounds,
        chaos.events.len(),
        served.delivered,
        queries.len()
    );
    println!(
        "obs-smoke OK: {} reconcile timing event(s) over {classes} classes",
        timings.len()
    );
    println!(
        "obs-smoke OK: registry snapshot valid, {} ring line(s) valid{}",
        ring.len() + daemon_ring.len(),
        match &traced_to_file {
            Some(path) => format!(", {file_lines} line(s) in {path} valid"),
            None => String::new(),
        }
    );
}
