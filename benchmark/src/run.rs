//! The untraced run: every end-to-end metric of one workload.
//!
//! Bring-ups → quiet traffic session (`Lookup` and `Batch` legs,
//! interleaved) → churn leg → differential replay. The workload's main
//! leg takes `--seconds`; the other two are short cross legs (see
//! `inputs::Spec::timing`), there because every workload reports every
//! end-to-end metric — which also carries each metric up the instance
//! ladder n = 192 / 512 / 1024.

use cpr_obs::{Json, Obs};
use cpr_serve::RouteClient;

use crate::daemon::{bring_up, churn_leg, traffic_session, ChurnResult, LegResult, Window};
use crate::host;
use crate::inputs::{Inputs, MainLeg, Spec, Timing, CONNECTIONS, CPR_THREADS};
use crate::report::{Metric, Report};
use crate::stats::median;
use crate::verify::{differential_replay, EdgeBits, ReplayResult};

/// Names, units and directions of the end-to-end metrics, in report
/// order. `BENCHMARK.json` fixes a regression bound for each.
pub const END_TO_END: [(&str, &str, &str); 12] = [
    ("setup_s", "s", "lower"),
    ("lookup_qps", "1/s", "higher"),
    ("lookup_p50_us", "us", "lower"),
    ("lookup_p99_us", "us", "lower"),
    ("lookup_cpu_us", "us", "lower"),
    ("batch_pairs_per_s", "1/s", "higher"),
    ("batch_p50_us", "us", "lower"),
    ("batch_cpu_ns_per_pair", "ns", "lower"),
    ("reconcile_remove_p50_ms", "ms", "lower"),
    ("reconcile_add_p50_ms", "ms", "lower"),
    ("bytes_per_node", "B", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// What the legs of one run measured.
pub struct Legs {
    /// Seconds of each timed cold bring-up.
    pub setups: Vec<f64>,
    /// The quiet `Lookup` leg.
    pub lookup: LegResult,
    /// The quiet `Batch` leg.
    pub batch: LegResult,
    /// The churn leg.
    pub churn: ChurnResult,
    /// The post-run replay against the replica.
    pub replay: ReplayResult,
    /// `MultiRouteService::memory().multi_total_bits / 8 / n`.
    pub bytes_per_node: f64,
}

/// Brings the workload up `spec.bringups` times, keeps the first
/// instance as the replica and serves from the last, then runs the
/// three legs and the replay.
fn run_legs(spec: &Spec, timing: &Timing, seed: u64, inputs: &Inputs, bits: &EdgeBits) -> Legs {
    std::thread::scope(|scope| {
        let fresh = || {
            bring_up(
                scope,
                &inputs.graph,
                spec.builder(seed),
                Obs::with_null_tracer(),
            )
        };
        let mut setups = Vec::new();
        // The replica: an instance built independently of the served
        // one. With several bring-ups it is the first of them, kept (not
        // serving) while the later ones are timed; with one, an extra.
        let (replica, seconds) = fresh();
        let replica = replica.shutdown();
        if spec.bringups > 1 {
            setups.push(seconds);
        }
        while setups.len() + 1 < spec.bringups {
            let (daemon, seconds) = fresh();
            daemon.shutdown();
            setups.push(seconds);
        }
        let (daemon, seconds) = fresh();
        setups.push(seconds);

        let epoch = daemon.service.current().epoch();
        let [lookup, batch] = traffic_session(
            daemon.addr,
            &inputs.lookups,
            &inputs.batches,
            bits,
            epoch,
            &timing.timetable,
        );
        let beside_reader = spec.main == MainLeg::Churn;
        let churn = churn_leg(
            &daemon,
            inputs,
            bits,
            beside_reader,
            timing.churn_warmup,
            2 * timing.churn_slice_pairs,
        );

        let mut client = RouteClient::connect(daemon.addr).expect("loopback connect");
        let replica = replica.current();
        let replay = differential_replay(&mut client, &inputs.replay, |class, s, t| {
            replica.lookup(class, s, t).map(|(path, _)| path)
        });
        drop(client);
        let memory = daemon.service.memory();
        daemon.shutdown();
        Legs {
            setups,
            lookup,
            batch,
            churn,
            replay,
            bytes_per_node: memory.multi_total_bits as f64 / 8.0 / memory.nodes as f64,
        }
    })
}

impl Legs {
    /// Operations attempted over all legs.
    pub fn attempted(&self) -> u64 {
        self.lookup.attempted
            + self.batch.attempted
            + self.churn.reader.attempted
            + self.churn.attempted
            + self.replay.attempted
    }

    /// Operations failed over all legs.
    pub fn failed(&self) -> u64 {
        self.lookup.failed
            + self.batch.failed
            + self.churn.reader.failed
            + self.churn.failed
            + self.replay.mismatched
    }

    /// `reconcile` wall time per slice of the event list, the median
    /// over the slice's events: removals, restorations.
    pub fn reconcile_ms(&self) -> (Vec<f64>, Vec<f64>) {
        let slices = self.churn.events.last().map_or(0, |e| e.slice + 1);
        let of = |remove| {
            (0..slices)
                .filter_map(|slice| {
                    let picked = self.churn.events.iter();
                    let ms: Vec<f64> = picked
                        .filter(|e| e.slice == slice && e.remove == remove)
                        .map(|e| e.ms)
                        .collect();
                    median(&ms)
                })
                .collect()
        };
        (of(true), of(false))
    }
}

fn per_window(windows: &[Window], f: impl Fn(&Window) -> Option<f64>) -> Vec<f64> {
    windows.iter().filter_map(f).collect()
}

/// Process CPU nanoseconds per operation, per window.
pub fn cpu_ns_per_op(windows: &[Window]) -> Vec<f64> {
    per_window(windows, |w| Some(w.cpu_ns? / w.ops.max(1) as f64))
}

fn leg_json(leg: &LegResult) -> Json {
    Json::obj([
        ("attempted", Json::int(leg.attempted)),
        ("failed", Json::int(leg.failed)),
        (
            "windows",
            Json::arr(leg.windows.iter().map(|w| {
                Json::obj([
                    ("frames", Json::int(w.frames)),
                    ("ops", Json::int(w.ops)),
                    ("seconds", Json::float(w.seconds)),
                    ("p50_us", Json::float(w.p50_us)),
                    ("tail_us", Json::float(w.tail_us)),
                    ("tail_percentile", Json::float(w.tail_p)),
                    ("cpu_ns", w.cpu_ns.map_or(Json::Null, Json::float)),
                ])
            })),
        ),
    ])
}

/// The `detail` block both runs share: load shape, input digests and
/// what every leg saw.
pub fn detail(spec: &Spec, timing: &Timing, inputs: &Inputs, legs: &Legs) -> Json {
    Json::obj([
        (
            "load",
            Json::obj([
                (
                    "transport",
                    Json::str("loopback TCP (127.0.0.1), server in-process"),
                ),
                (
                    "loop",
                    Json::str("closed: next request after the previous reply"),
                ),
                ("connections", Json::int(CONNECTIONS)),
                ("cpr_threads", Json::int(CPR_THREADS)),
                ("nproc", Json::int(host::nproc())),
                ("windows", Json::int(timing.timetable.rounds)),
                (
                    "lookup_slice_s",
                    Json::float(timing.timetable.slices[0].as_secs_f64()),
                ),
                (
                    "batch_slice_s",
                    Json::float(timing.timetable.slices[1].as_secs_f64()),
                ),
            ]),
        ),
        (
            "inputs",
            Json::obj([
                ("nodes", Json::int(spec.n)),
                ("edges", Json::int(inputs.graph.edge_count())),
                ("classes", Json::int(spec.class_count())),
                (
                    "graph_digest",
                    Json::str(format!("{:016x}", inputs.graph_digest)),
                ),
                (
                    "request_fnv",
                    Json::str(format!("{:016x}", inputs.request_fnv)),
                ),
                ("event_fnv", Json::str(format!("{:016x}", inputs.event_fnv))),
                ("events", Json::int(2 * inputs.removals.len())),
            ]),
        ),
        (
            "setup_s",
            Json::arr(legs.setups.iter().copied().map(Json::float)),
        ),
        ("lookup_leg", leg_json(&legs.lookup)),
        ("batch_leg", leg_json(&legs.batch)),
        ("reader_beside_churn", leg_json(&legs.churn.reader)),
        (
            "events",
            Json::arr(legs.churn.events.iter().map(|e| {
                Json::obj([
                    ("remove", Json::Bool(e.remove)),
                    ("slice", Json::int(e.slice)),
                    ("ms", Json::float(e.ms)),
                    ("dirty_pairs", Json::int(e.dirty_pairs)),
                    ("repaired_pairs", Json::int(e.repaired_pairs)),
                    ("patched_states", Json::int(e.patched_states)),
                    ("full_rebuild_share", Json::float(e.full_rebuild_share)),
                ])
            })),
        ),
        (
            "replay",
            Json::obj([
                ("pairs", Json::int(legs.replay.attempted)),
                ("mismatched", Json::int(legs.replay.mismatched)),
                (
                    "unroutable_on_both_sides",
                    Json::int(legs.replay.unroutable),
                ),
            ]),
        ),
    ])
}

/// Runs `spec` untraced and reports every end-to-end metric.
pub fn end_to_end(spec: &Spec, timing: &Timing, seed: u64, seconds: u64, smoke: bool) -> Report {
    let inputs = Inputs::generate(spec, seed, timing);
    let bits = EdgeBits::of(&inputs.graph);
    let legs = run_legs(spec, timing, seed, &inputs, &bits);

    // `churn-mixed` reads its lookup latency beside the writes; the
    // steady workloads on a quiet daemon. CPU per query is always taken
    // on the quiet leg: beside a reconcile, process CPU is the
    // reconcile's.
    let latency = match spec.main {
        MainLeg::Churn => &legs.churn.reader.windows,
        _ => &legs.lookup.windows,
    };
    let (removals, restorations) = legs.reconcile_ms();
    let rate = |w: &Window, count: u64| Some(count as f64 / w.seconds);
    // Every timing is the quartile over its windows (or samples) on the
    // metric's better side; see `WindowSummary::quiet`.
    let quiet = |name: &'static str, values: &[f64]| {
        let &(name, unit, better) = END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .expect("an end-to-end metric");
        Metric::quiet_of(name, unit, better == "lower", values)
    };
    let values = [
        quiet("setup_s", &legs.setups),
        quiet("lookup_qps", &per_window(latency, |w| rate(w, w.frames))),
        quiet("lookup_p50_us", &per_window(latency, |w| Some(w.p50_us))),
        quiet("lookup_p99_us", &per_window(latency, |w| Some(w.tail_us))),
        quiet(
            "lookup_cpu_us",
            &cpu_ns_per_op(&legs.lookup.windows)
                .iter()
                .map(|ns| ns / 1e3)
                .collect::<Vec<_>>(),
        ),
        quiet(
            "batch_pairs_per_s",
            &per_window(&legs.batch.windows, |w| rate(w, w.ops)),
        ),
        quiet(
            "batch_p50_us",
            &per_window(&legs.batch.windows, |w| Some(w.p50_us)),
        ),
        quiet(
            "batch_cpu_ns_per_pair",
            &cpu_ns_per_op(&legs.batch.windows),
        ),
        quiet("reconcile_remove_p50_ms", &removals),
        quiet("reconcile_add_p50_ms", &restorations),
        Metric::exact("bytes_per_node", "B", legs.bytes_per_node),
        Metric::exact(
            "peak_rss_mb",
            "MiB",
            host::peak_rss_mib().unwrap_or(f64::NAN),
        ),
    ];
    debug_assert!(values
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|m| m.0)));
    Report {
        workload: spec.name,
        seed,
        seconds,
        smoke,
        traced: false,
        metrics: values.to_vec(),
        attempted: legs.attempted(),
        failed: legs.failed(),
        detail: detail(spec, timing, &inputs, &legs),
    }
}
