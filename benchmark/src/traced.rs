//! The traced run: every per-layer metric of one workload, taken from
//! outside by timing public functions on the workload's own generated
//! inputs, single-threaded (the server's threads aside).
//!
//! The request ladder replays each chunk of the request stream at every
//! depth — `RouteClient::call` over the socket, the `Request`/`Response`
//! codec, `MultiRouteService::answer`, `MultiSnapshot::lookup`,
//! `StaticCore::walk` — one span per (depth, chunk), children linked to
//! the layer above, and checks that every depth gives the same answer.
//! `LookupCore::lookup_batch`, the entry the wire path does not reach
//! yet, is timed on the same pairs beside the ladder. The control path
//! gets the same treatment: the event list goes through the service,
//! through a replica `MultiPlane`, and through a single-class
//! `SelfHealingPlane` + `DeltaTracker`, and the self times come out by
//! subtraction.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use cpr_algebra::policies::ShortestPath;
use cpr_graph::EdgeWeights;
use cpr_obs::{Json, Obs};
use cpr_paths::{AllPairs, HopMatrix};
use cpr_plane::{
    compile, BatchScratch, DeltaTracker, LookupCore, MultiPlane, RepairPolicy, SelfHealingPlane,
    StaticCore,
};
use cpr_routing::{DestTable, SwClassTable};
use cpr_serve::{MultiRouteService, Request, Response, RouteClient, RouteOutcome, ServeConfig};

use crate::daemon::{bring_up, churn_leg, ChurnResult};
use crate::host;
use crate::inputs::{cowen_scheme, Inputs, Spec, Timing, CPR_THREADS};
use crate::report::{Metric, Report};
use crate::span::Recorder;
use crate::stats::{median, percentile, tail_sorted};
use crate::verify::{differential_replay, ops_of, EdgeBits, ReplayResult};

/// Per-layer metrics that are counts and repeat exactly from run to
/// run on the same inputs (marked † in `README.md`); `compare` demands
/// they be identical, and a later change may rest a claim on one.
pub const EXACT_COUNTS: [&str; 12] = [
    "plane.engine.batch_allocs_per_query",
    "plane.engine.walk_allocs_per_query",
    "plane.multi.lookup_allocs_per_query",
    "plane.multi.on_core_share",
    "plane.heal.dirty_pairs_per_event",
    "plane.heal.repaired_pairs_per_event",
    "plane.heal.patched_states_per_event",
    "plane.heal.full_rebuild_share",
    "serve.multi.answer_lookup_allocs",
    "serve.multi.answer_batch_allocs_per_pair",
    "serve.proto.resp_encode_allocs",
    "serve.proto.resp_bytes_per_query",
];

/// `Lookup` requests per ladder chunk.
const LOOKUP_CHUNK: usize = 256;

fn ms_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64() * 1e3)
}

/// Mean ns per call of `f` over `iterations` calls.
fn ns_per_call(iterations: u32, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iterations {
        f();
    }
    started.elapsed().as_nanos() as f64 / f64::from(iterations)
}

/// Span names of one ladder (`Lookup` frames or `Batch` frames).
struct Names {
    call: &'static str,
    req_encode: &'static str,
    req_decode: &'static str,
    answer: &'static str,
    answer_obs_off: &'static str,
    resp_encode: &'static str,
    resp_decode: &'static str,
    epoch_load: &'static str,
    multi_lookup: &'static str,
    walk: &'static str,
    batch: &'static str,
}

const LOOKUP_LADDER: Names = Names {
    call: "serve.client.call[lookup]",
    req_encode: "serve.proto.req_encode[lookup]",
    req_decode: "serve.proto.req_decode[lookup]",
    answer: "serve.multi.answer[lookup]",
    answer_obs_off: "serve.multi.answer.obs_off[lookup]",
    resp_encode: "serve.proto.resp_encode[lookup]",
    resp_decode: "serve.proto.resp_decode[lookup]",
    epoch_load: "serve.epoch.load[lookup]",
    multi_lookup: "plane.multi.lookup[lookup]",
    walk: "plane.engine.walk[lookup]",
    batch: "plane.engine.lookup_batch[lookup]",
};

const BATCH_LADDER: Names = Names {
    call: "serve.client.call[batch]",
    req_encode: "serve.proto.req_encode[batch]",
    req_decode: "serve.proto.req_decode[batch]",
    answer: "serve.multi.answer[batch]",
    answer_obs_off: "serve.multi.answer.obs_off[batch]",
    resp_encode: "serve.proto.resp_encode[batch]",
    resp_decode: "serve.proto.resp_decode[batch]",
    epoch_load: "serve.epoch.load[batch]",
    multi_lookup: "plane.multi.lookup[batch]",
    walk: "plane.engine.walk[batch]",
    batch: "plane.engine.lookup_batch[batch]",
};

/// The pristine serving state every depth of the ladder is called on.
struct Depths<'a> {
    addr: SocketAddr,
    client: RouteClient,
    service: &'a MultiRouteService,
    service_obs_off: &'a MultiRouteService,
    /// Per class, the owned core `MultiSnapshot::lookup` walks.
    static_cores: Vec<StaticCore>,
    /// Per class, the batched core of the replica's base plane.
    lookup_cores: Vec<LookupCore<'a>>,
    scratch: BatchScratch,
}

/// What the ladder counted beside its spans.
#[derive(Default)]
struct LadderTally {
    /// Operations (queries or pairs) compared across depths.
    attempted: u64,
    /// Operations on which some depth disagreed with the socket.
    failed: u64,
    /// Response body bytes.
    response_bytes: u64,
}

/// `(class, source, target)` of every query a request carries.
fn queries_of(request: &Request) -> Vec<(usize, usize, usize)> {
    match request {
        Request::Lookup {
            source,
            target,
            class,
        } => vec![(usize::from(*class), *source as usize, *target as usize)],
        Request::Batch { pairs, class } => pairs
            .iter()
            .map(|&(s, t)| (usize::from(*class), s as usize, t as usize))
            .collect(),
        _ => unreachable!("streams hold only Lookup and Batch requests"),
    }
}

fn outcomes_of(response: &Response) -> &[RouteOutcome] {
    match response {
        Response::Route { outcome, .. } => std::slice::from_ref(outcome),
        Response::Batch { outcomes, .. } => outcomes,
        _ => &[],
    }
}

/// Whether a plane-level result is the socket's outcome, hop for hop.
fn same_route<E>(outcome: &RouteOutcome, got: &Result<Vec<usize>, E>) -> bool {
    match (outcome, got) {
        (RouteOutcome::Path(path), Ok(nodes)) => {
            path.len() == nodes.len() && path.iter().zip(nodes).all(|(&p, &q)| p as usize == q)
        }
        (RouteOutcome::Unroutable, Err(_)) => true,
        _ => false,
    }
}

/// Records `items` being drained as one span. The output buffer is
/// allocated before the span starts, so the span's allocation count is
/// the measured function's alone.
fn drain<T>(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<u32>,
    chunk: u32,
    count: usize,
    items: impl Iterator<Item = T>,
) -> (Vec<T>, u32) {
    let mut out = Vec::with_capacity(count);
    let ((), id) = rec.record(name, parent, chunk, count as u32, || out.extend(items));
    (out, id)
}

/// One chunk of the request stream on its way down the ladder.
struct Chunk<'a> {
    id: u32,
    requests: &'a [Request],
    queries: Vec<(usize, usize, usize)>,
    /// The socket's answers: the reference every depth is compared to.
    wire: Vec<Response>,
    /// Per query, whether some depth disagreed with the socket.
    bad: Vec<bool>,
    call_span: u32,
    answer_span: u32,
    lookup_span: u32,
}

impl Chunk<'_> {
    /// Marks the queries of request `i` bad unless `ok`.
    fn check_frame(&mut self, i: usize, ok: bool) {
        if !ok {
            let before: usize = self.requests[..i].iter().map(|r| ops_of(r) as usize).sum();
            let n = ops_of(&self.requests[i]) as usize;
            self.bad[before..before + n].fill(true);
        }
    }
}

/// The socket's outcome for each query, in query order; `None` where
/// the frame was not answered with one outcome per query.
fn wire_outcomes<'a>(requests: &[Request], wire: &'a [Response]) -> Vec<Option<&'a RouteOutcome>> {
    requests
        .iter()
        .zip(wire)
        .flat_map(|(request, response)| {
            let n = ops_of(request) as usize;
            let outcomes = outcomes_of(response);
            (0..n).map(move |k| {
                if outcomes.len() == n {
                    outcomes.get(k)
                } else {
                    None
                }
            })
        })
        .collect()
}

/// Runs `work` while a second connection keeps its own closed loop of
/// `requests` going: the load shape of the untraced run (two
/// connections, both cores busy), without which a lone connection's
/// round trip is mostly the wake-up of an idle core.
fn beside_companion<R>(addr: SocketAddr, requests: &[Request], work: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut client = RouteClient::connect(addr).expect("loopback connect");
            for request in requests.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let _ = std::hint::black_box(client.call(request));
            }
        });
        let result = work();
        stop.store(true, Ordering::Relaxed);
        result
    })
}

/// Sends `chunks` down the ladder, one depth at a time over all chunks
/// — so each depth runs with its own tables warm, as it does in the
/// daemon, instead of evicting the depth above — one span per (depth,
/// chunk), and compares every depth's answers with the socket's.
fn ladder(
    rec: &mut Recorder,
    names: &Names,
    first_id: u32,
    stream: &[&[Request]],
    companion: &[Request],
    d: &mut Depths<'_>,
) -> LadderTally {
    // Depth 5: the socket, beside the companion connection. Its answers
    // are the reference.
    let mut chunks: Vec<Chunk<'_>> = Vec::with_capacity(stream.len());
    let over_socket = beside_companion(d.addr, companion, || {
        let client = &mut d.client;
        stream
            .iter()
            .enumerate()
            .map(|(k, &requests)| {
                let ops = requests.iter().map(|r| ops_of(r) as usize).sum();
                let calls = requests.iter().map(|r| client.call(r));
                drain(rec, names.call, None, first_id + k as u32, ops, calls)
            })
            .collect::<Vec<_>>()
    });
    for ((k, &requests), (replies, call_span)) in stream.iter().enumerate().zip(over_socket) {
        let id = first_id + k as u32;
        let queries: Vec<_> = requests.iter().flat_map(queries_of).collect();
        let mut chunk = Chunk {
            id,
            requests,
            bad: vec![false; queries.len()],
            queries,
            wire: Vec::with_capacity(requests.len()),
            call_span,
            answer_span: 0,
            lookup_span: 0,
        };
        for (i, reply) in replies.into_iter().enumerate() {
            chunk.check_frame(i, reply.is_ok());
            chunk.wire.push(reply.unwrap_or(Response::Error {
                code: 0,
                message: "wire error".to_owned(),
            }));
        }
        chunks.push(chunk);
    }
    let mut tally = LadderTally::default();

    // Depth 4: the codec, both directions.
    for c in &mut chunks {
        let (frames, ops, call) = (c.requests.len(), c.queries.len(), Some(c.call_span));
        let (bodies, _) = drain(
            rec,
            names.req_encode,
            call,
            c.id,
            frames,
            c.requests.iter().map(Request::encode),
        );
        let decodes = bodies.iter().map(|b| Request::decode(b));
        let (decoded, _) = drain(rec, names.req_decode, call, c.id, frames, decodes);
        let (encoded, _) = drain(
            rec,
            names.resp_encode,
            call,
            c.id,
            ops,
            c.wire.iter().map(Response::encode),
        );
        let decodes = encoded.iter().map(|b| Response::decode(b));
        let (redecoded, _) = drain(rec, names.resp_decode, call, c.id, ops, decodes);
        for i in 0..frames {
            let ok = decoded[i].as_ref() == Ok(&c.requests[i])
                && redecoded[i].as_ref() == Ok(&c.wire[i]);
            c.check_frame(i, ok);
            tally.response_bytes += encoded[i].len() as u64;
        }
    }

    // Depth 3: `MultiRouteService::answer`, with and without obs.
    for c in &mut chunks {
        let answers = c.requests.iter().map(|r| d.service.answer(r));
        let (answers, span) = drain(
            rec,
            names.answer,
            Some(c.call_span),
            c.id,
            c.queries.len(),
            answers,
        );
        c.answer_span = span;
        for (i, answer) in answers.iter().enumerate() {
            c.check_frame(i, answer == &c.wire[i]);
        }
    }
    for c in &mut chunks {
        let answers = c.requests.iter().map(|r| d.service_obs_off.answer(r));
        let (answers, _) = drain(
            rec,
            names.answer_obs_off,
            None,
            c.id,
            c.queries.len(),
            answers,
        );
        for (i, answer) in answers.iter().enumerate() {
            c.check_frame(i, answer == &c.wire[i]);
        }
    }
    for c in &chunks {
        rec.record(
            names.epoch_load,
            Some(c.answer_span),
            c.id,
            c.requests.len() as u32,
            || {
                c.requests
                    .iter()
                    .for_each(|_| drop(std::hint::black_box(d.service.current())));
            },
        );
    }

    // Depth 2: `MultiSnapshot::lookup`; depth 1: `StaticCore::walk`.
    let snap = d.service.current();
    for c in &mut chunks {
        let lookups = c
            .queries
            .iter()
            .map(|&(class, s, t)| snap.lookup(class, s, t).map(|(p, _)| p));
        let (routes, span) = drain(
            rec,
            names.multi_lookup,
            Some(c.answer_span),
            c.id,
            c.queries.len(),
            lookups,
        );
        c.lookup_span = span;
        let wire = wire_outcomes(c.requests, &c.wire);
        for (q, route) in routes.iter().enumerate() {
            c.bad[q] |= !wire[q].is_some_and(|o| same_route(o, route));
        }
    }
    for c in &mut chunks {
        let walks = c
            .queries
            .iter()
            .map(|&(class, s, t)| d.static_cores[class].walk(s, t));
        let (routes, _) = drain(
            rec,
            names.walk,
            Some(c.lookup_span),
            c.id,
            c.queries.len(),
            walks,
        );
        let wire = wire_outcomes(c.requests, &c.wire);
        for (q, route) in routes.iter().enumerate() {
            c.bad[q] |= !wire[q].is_some_and(|o| same_route(o, route));
        }
    }

    // Beside the ladder: `LookupCore::lookup_batch`, which takes one
    // class per call — a `Batch` frame as it is, a chunk of `Lookup`s
    // grouped by class.
    for c in &mut chunks {
        let mut by_class: Vec<Vec<(usize, usize)>> = vec![Vec::new(); d.lookup_cores.len()];
        let mut slot = Vec::with_capacity(c.queries.len());
        for &(class, s, t) in &c.queries {
            slot.push((class, by_class[class].len()));
            by_class[class].push((s, t));
        }
        let mut hops: Vec<Vec<Option<u32>>> = by_class
            .iter()
            .map(|pairs| Vec::with_capacity(pairs.len()))
            .collect();
        rec.record(names.batch, None, c.id, c.queries.len() as u32, || {
            for (class, pairs) in by_class.iter().enumerate() {
                d.lookup_cores[class].lookup_batch(pairs, &mut d.scratch);
                hops[class].extend(d.scratch.results().take(pairs.len()));
            }
        });
        let wire = wire_outcomes(c.requests, &c.wire);
        for (q, &(class, at)) in slot.iter().enumerate() {
            let expected = match wire[q] {
                Some(RouteOutcome::Path(path)) => Some(Some(path.len() as u32 - 1)),
                Some(RouteOutcome::Unroutable) => Some(None),
                _ => None,
            };
            c.bad[q] |= expected != Some(hops[class][at]);
        }
    }

    for c in &chunks {
        tally.attempted += c.bad.len() as u64;
        tally.failed += c.bad.iter().filter(|&&b| b).count() as u64;
    }
    tally
}

/// A plain closed loop over `requests` on one connection: per-frame
/// round trips in µs, with no span recorded — the untraced twin of the
/// ladder's socket depth.
fn plain_round_trips(client: &mut RouteClient, requests: &[Request]) -> Vec<f64> {
    requests
        .iter()
        .map(|r| {
            let sent = Instant::now();
            let _ = std::hint::black_box(client.call(r));
            sent.elapsed().as_nanos() as f64 / 1e3
        })
        .collect()
}

fn tail(values: &mut [f64], cap: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    tail_sorted(values, cap).map_or(f64::NAN, |(value, _)| value)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    sum / f64::from(n.max(1))
}

/// What the phase against the served daemon measured beside the spans.
struct Served {
    lookup_tally: LadderTally,
    batch_tally: LadderTally,
    /// Plain (unspanned) `Lookup` round trips: median, tail, mean.
    rtt_p50_us: f64,
    rtt_p99_us: f64,
    plain_mean_us: f64,
    batch_rtt_p99_us: f64,
    connect_us: f64,
    cpu_busy_share: f64,
    register_ms: f64,
    deregister_ms: f64,
    on_core_share: f64,
    churn: ChurnResult,
    /// `MultiPlane::reconcile` on the replica: (removal?, ms) per event.
    plane_ms: Vec<(bool, f64)>,
    replay: ReplayResult,
}

/// Runs `spec` traced: every per-layer metric, and the spans behind the
/// ladder (written by the caller as JSON lines).
pub fn per_layer(
    spec: &Spec,
    timing: &Timing,
    seed: u64,
    seconds: u64,
    smoke: bool,
) -> (Report, Recorder) {
    let inputs = Inputs::generate(spec, seed, timing);
    let g = &inputs.graph;
    let bits = EdgeBits::of(g);
    let mut rec = Recorder::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        m.push(Metric::exact(name, unit, value));
    };

    // Set-up layers, each built once on the workload's own graph.
    let unit = EdgeWeights::uniform(g, 1u64);
    let ((), allpairs_ms) = ms_of(|| drop(AllPairs::compute(g, &unit, &ShortestPath)));
    let ((), hop_matrix_ms) = ms_of(|| drop(HopMatrix::compute(g)));
    let (dest, dest_build_ms) = ms_of(|| DestTable::build(g, &unit, &ShortestPath));
    let (cowen, cowen_build_ms) = ms_of(|| cowen_scheme(g, seed));
    let ((), sw_build_ms) = ms_of(|| {
        let sw = cpr_conform::algebras::shortest_widest();
        drop(SwClassTable::build(
            g,
            &cpr_conform::topology_weights(&sw, g),
        ));
    });
    let (dest_plane, dest_ms) = ms_of(|| compile(&dest, g).expect("dest-table compiles"));
    let (cowen_plane, cowen_ms) = ms_of(|| compile(&cowen, g).expect("cowen compiles"));
    let states = (dest_plane.state_count() + cowen_plane.state_count()) as f64;
    drop((cowen, cowen_plane, dest_plane));
    put("paths.allpairs_ms", "ms", allpairs_ms);
    put("paths.hop_matrix_ms", "ms", hop_matrix_ms);
    put("routing.dest_build_ms", "ms", dest_build_ms);
    put("routing.cowen_build_ms", "ms", cowen_build_ms);
    put("routing.sw_build_ms", "ms", sw_build_ms);
    put("plane.compile.dest_ms", "ms", dest_ms);
    put("plane.compile.cowen_ms", "ms", cowen_ms);
    put(
        "plane.compile.states_per_s",
        "1/s",
        states / ((dest_ms + cowen_ms) / 1e3),
    );

    // The replica plane: built from the same inputs, never served.
    let (mut replica, build_ms) =
        ms_of(|| MultiPlane::build(g, spec.builder(seed)).expect("the registry compiles"));
    put("plane.multi.build_ms", "ms", build_ms);
    let snapshot_ms =
        median(&[0; 3].map(|_| ms_of(|| drop(replica.snapshot())).1)).unwrap_or(f64::NAN);
    put("plane.multi.snapshot_ms", "ms", snapshot_ms);

    let obs_off = MultiRouteService::new(
        g,
        spec.builder(seed),
        ServeConfig::default(),
        Obs::disabled(),
    )
    .expect("the registry compiles");
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        record_budget_ms: false,
    };

    let served = std::thread::scope(|scope| {
        let (daemon, _) = bring_up(scope, g, spec.builder(seed), Obs::with_null_tracer());
        let classes = spec.class_count();
        let mut d = Depths {
            addr: daemon.addr,
            client: RouteClient::connect(daemon.addr).expect("loopback connect"),
            service: &daemon.service,
            service_obs_off: &obs_off,
            static_cores: replica.classes().map(|c| c.base().static_core()).collect(),
            lookup_cores: replica.classes().map(|c| c.base().lookup_core()).collect(),
            scratch: BatchScratch::new(),
        };
        assert_eq!(d.static_cores.len(), classes);

        // The ladder. One unrecorded chunk first, so caches, the obs
        // registry's name table and `BatchScratch` are warm.
        let (lookups, batches) = (&inputs.lookups[0], &inputs.batches[0]);
        let (beside_lookups, beside_batches) = (&inputs.lookups[1], &inputs.batches[1]);
        let (lookup_chunks, batch_frames) = if smoke { (4, 16) } else { (128, batches.len()) };
        let lookup_stream: Vec<&[Request]> =
            lookups.chunks(LOOKUP_CHUNK).take(lookup_chunks).collect();
        let batch_stream: Vec<&[Request]> = batches.chunks(1).take(batch_frames).collect();
        let mut warm = Recorder::default();
        ladder(
            &mut warm,
            &LOOKUP_LADDER,
            0,
            &lookup_stream[..1],
            beside_lookups,
            &mut d,
        );
        ladder(
            &mut warm,
            &BATCH_LADDER,
            0,
            &batch_stream[..1],
            beside_batches,
            &mut d,
        );
        let lookup_tally = ladder(
            &mut rec,
            &LOOKUP_LADDER,
            0,
            &lookup_stream,
            beside_lookups,
            &mut d,
        );
        let first_id = lookup_chunks as u32;
        let batch_tally = ladder(
            &mut rec,
            &BATCH_LADDER,
            first_id,
            &batch_stream,
            beside_batches,
            &mut d,
        );

        // The untraced twin of the socket depth: same requests, same
        // companion, no span.
        let (mut lookup_rtt, busy) = beside_companion(daemon.addr, beside_lookups, || {
            let from = (Instant::now(), host::process_cpu_ns());
            let rtt = plain_round_trips(&mut d.client, &lookups[..lookup_chunks * LOOKUP_CHUNK]);
            let busy = match (from.1, host::process_cpu_ns()) {
                (Some(a), Some(b)) => {
                    (b - a) as f64 / from.0.elapsed().as_nanos() as f64 / CPR_THREADS as f64
                }
                _ => f64::NAN,
            };
            (rtt, busy)
        });
        let mut batch_rtt: Vec<f64> = beside_companion(daemon.addr, beside_batches, || {
            (0..2)
                .flat_map(|_| plain_round_trips(&mut d.client, &batches[..batch_frames]))
                .collect()
        });
        let plain_mean_us = mean(lookup_rtt.iter().copied());
        let connects: Vec<f64> = (0..9)
            .map(|_| {
                let started = Instant::now();
                let mut fresh = RouteClient::connect(daemon.addr).expect("loopback connect");
                let _ = std::hint::black_box(fresh.call(&lookups[0]));
                started.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        let rtt_p50_us = percentile(&mut lookup_rtt, 0.5).unwrap_or(f64::NAN);
        drop(d);

        // A tenant class registered and retired on the live registry.
        let ((), register_ms) = ms_of(|| {
            daemon
                .service
                .register_class("bench-tenant", "scale(shortest-path, 3)")
                .map(drop)
                .expect("the tenant expression is admissible");
        });
        let ((), deregister_ms) = ms_of(|| {
            daemon
                .service
                .deregister_class("bench-tenant")
                .map(drop)
                .expect("just registered");
        });

        // The control path: the event list through the service (quiet
        // daemon), then through the replica plane.
        let churn = churn_leg(
            &daemon,
            &inputs,
            &bits,
            false,
            timing.churn_warmup,
            2 * timing.churn_slice_pairs,
        );
        let obs = Obs::disabled();
        let mut on_core = Vec::new();
        let plane_ms: Vec<(bool, f64)> = inputs
            .events()
            .map(|(remove, graph)| {
                let (report, ms) = ms_of(|| replica.reconcile(graph, &policy, &obs));
                report.expect("the replica repairs what the service repaired");
                let snap = replica.snapshot();
                on_core.push(mean(
                    (0..classes).map(|c| f64::from(u8::from(snap.class_on_core(c)))),
                ));
                (remove, ms)
            })
            .collect();

        // Both sides have now applied the same events: the socket must
        // agree hop-for-hop with `MultiPlane::lookup` on the replica.
        let mut client = RouteClient::connect(daemon.addr).expect("loopback connect");
        let replay = differential_replay(&mut client, &inputs.replay, |class, s, t| {
            replica.lookup(class, s, t).map(|(path, _)| path)
        });
        drop(client);
        daemon.shutdown();
        Served {
            lookup_tally,
            batch_tally,
            rtt_p50_us,
            rtt_p99_us: tail(&mut lookup_rtt, 0.99),
            plain_mean_us,
            batch_rtt_p99_us: tail(&mut batch_rtt, 0.99),
            connect_us: median(&connects).unwrap_or(f64::NAN),
            cpu_busy_share: busy,
            register_ms,
            deregister_ms,
            on_core_share: mean(on_core),
            churn,
            plane_ms,
            replay,
        }
    });
    let Served {
        lookup_tally,
        batch_tally,
        churn,
        plane_ms,
        replay,
        ..
    } = &served;

    // The single-class twin: one shortest-path `SelfHealingPlane` driven
    // by a `DeltaTracker` over the same events.
    let mut single = SelfHealingPlane::new(&dest, g).expect("dest-table compiles");
    let mut tracker = DeltaTracker::new(ShortestPath, g, |_, _| 1u64).with_hop_tiebreak(true);
    let single_ms: Vec<(bool, f64)> = inputs
        .events()
        .map(|(remove, graph)| {
            // The live scheme is rebuilt inside the timing, as the
            // multi path's class factories are inside `reconcile`.
            let (stats, ms) = ms_of(|| {
                let live =
                    DestTable::build(graph, &EdgeWeights::uniform(graph, 1u64), &ShortestPath);
                single.repair_with(&live, graph, &mut tracker, &policy)
            });
            stats.expect("the single-class plane repairs every event");
            (remove, ms)
        })
        .collect();

    let layers = rec.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let (l, b) = (&LOOKUP_LADDER, &BATCH_LADDER);
    let median_of = |samples: &[(bool, f64)], remove: Option<bool>| {
        let picked: Vec<f64> = samples
            .iter()
            .filter(|(r, _)| remove.is_none_or(|want| want == *r))
            .map(|&(_, ms)| ms)
            .collect();
        median(&picked).unwrap_or(f64::NAN)
    };
    let service_ms: Vec<(bool, f64)> = churn.events.iter().map(|e| (e.remove, e.ms)).collect();
    let per_event = |f: fn(&crate::daemon::EventSample) -> f64| mean(churn.events.iter().map(f));

    put(
        "plane.engine.batch_ns_per_query",
        "ns",
        layer(b.batch).ns_per_op(),
    );
    put(
        "plane.engine.batch_allocs_per_query",
        "count",
        layer(b.batch).allocs_per_op(),
    );
    put(
        "plane.engine.walk_ns_per_query",
        "ns",
        layer(b.walk).ns_per_op(),
    );
    put(
        "plane.engine.walk_allocs_per_query",
        "count",
        layer(b.walk).allocs_per_op(),
    );
    put(
        "plane.multi.lookup_ns_per_query",
        "ns",
        layer(b.multi_lookup).ns_per_op(),
    );
    put(
        "plane.multi.lookup_allocs_per_query",
        "count",
        layer(b.multi_lookup).allocs_per_op(),
    );
    put("plane.multi.on_core_share", "ratio", served.on_core_share);
    put(
        "plane.multi.reconcile_remove_ms",
        "ms",
        median_of(plane_ms, Some(true)),
    );
    put(
        "plane.multi.reconcile_add_ms",
        "ms",
        median_of(plane_ms, Some(false)),
    );
    put(
        "plane.heal.dirty_pairs_per_event",
        "count",
        per_event(|e| e.dirty_pairs as f64),
    );
    put(
        "plane.heal.repaired_pairs_per_event",
        "count",
        per_event(|e| e.repaired_pairs as f64),
    );
    put(
        "plane.heal.patched_states_per_event",
        "count",
        per_event(|e| e.patched_states as f64),
    );
    put(
        "plane.heal.full_rebuild_share",
        "ratio",
        per_event(|e| e.full_rebuild_share),
    );
    put(
        "plane.heal.single_remove_ms",
        "ms",
        median_of(&single_ms, Some(true)),
    );
    put(
        "plane.heal.single_add_ms",
        "ms",
        median_of(&single_ms, Some(false)),
    );
    put(
        "serve.multi.answer_lookup_ns",
        "ns",
        layer(l.answer).ns_per_op(),
    );
    put(
        "serve.multi.answer_lookup_allocs",
        "count",
        layer(l.answer).allocs_per_op(),
    );
    put(
        "serve.multi.answer_batch_ns_per_pair",
        "ns",
        layer(b.answer).ns_per_op(),
    );
    put(
        "serve.multi.answer_batch_allocs_per_pair",
        "count",
        layer(b.answer).allocs_per_op(),
    );
    put(
        "serve.multi.reconcile_self_ms",
        "ms",
        median_of(&service_ms, None) - median_of(plane_ms, None) - snapshot_ms,
    );
    // The tail over the pooled events; a bounded metric until ten seeds
    // spread it past any bound a gate may carry (it is the slowest of
    // six events where the churn leg is a cross leg).
    let mut pooled: Vec<f64> = churn.events.iter().map(|e| e.ms).collect();
    put(
        "serve.multi.reconcile_p90_ms",
        "ms",
        percentile(&mut pooled, 0.9).unwrap_or(f64::NAN),
    );
    put("serve.multi.register_ms", "ms", served.register_ms);
    put("serve.multi.deregister_ms", "ms", served.deregister_ms);
    put(
        "obs.answer_share",
        "ratio",
        1.0 - layer(l.answer_obs_off).ns_per_op() / layer(l.answer).ns_per_op(),
    );
    let probe = Obs::with_null_tracer();
    put(
        "obs.incr_ns",
        "ns",
        ns_per_call(100_000, || probe.incr("bench.probe.counter")),
    );
    put(
        "obs.record_ns",
        "ns",
        ns_per_call(100_000, || probe.record("bench.probe.histogram", 3)),
    );
    put("serve.epoch.load_ns", "ns", layer(l.epoch_load).ns_per_op());
    put(
        "serve.proto.req_encode_ns",
        "ns",
        layer(l.req_encode).ns_per_op(),
    );
    put(
        "serve.proto.req_decode_ns",
        "ns",
        layer(l.req_decode).ns_per_op(),
    );
    put(
        "serve.proto.resp_encode_ns_per_query",
        "ns",
        layer(b.resp_encode).ns_per_op(),
    );
    put(
        "serve.proto.resp_decode_ns_per_query",
        "ns",
        layer(b.resp_decode).ns_per_op(),
    );
    put(
        "serve.proto.resp_encode_allocs",
        "count",
        layer(b.resp_encode).allocs as f64 / layer(b.resp_encode).spans.max(1) as f64,
    );
    put(
        "serve.proto.resp_bytes_per_query",
        "B",
        batch_tally.response_bytes as f64 / batch_tally.attempted.max(1) as f64,
    );
    put(
        "serve.server.rtt_self_us",
        "us",
        layer(l.call).self_ns_per_op() / 1e3,
    );
    put(
        "serve.server.connect_first_answer_us",
        "us",
        served.connect_us,
    );
    put("serve.client.rtt_p50_us", "us", served.rtt_p50_us);
    put("serve.client.rtt_p99_us", "us", served.rtt_p99_us);
    put(
        "serve.client.batch_rtt_p99_us",
        "us",
        served.batch_rtt_p99_us,
    );
    put(
        "trace.overhead_share",
        "ratio",
        layer(l.call).ns_per_op() / 1e3 / served.plain_mean_us - 1.0,
    );
    put("host.cpu_busy_share", "ratio", served.cpu_busy_share);
    put("host.nproc", "count", host::nproc() as f64);
    put("host.cpr_threads", "count", CPR_THREADS as f64);

    let attempted =
        lookup_tally.attempted + batch_tally.attempted + churn.attempted + replay.attempted;
    let failed = lookup_tally.failed + batch_tally.failed + churn.failed + replay.mismatched;
    put(
        "fail_share",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    );

    let ladder_json = |names: &Names| {
        let rungs = [
            names.call,
            names.req_encode,
            names.req_decode,
            names.answer,
            names.resp_encode,
            names.resp_decode,
            names.epoch_load,
            names.multi_lookup,
            names.walk,
        ];
        // Per socket operation, so the rungs add up: a rung counted per
        // frame (codec of a `Batch`) is spread over the frame's pairs.
        let ops = layer(names.call).count.max(1) as f64;
        let per_op = |ns: i64| ns as f64 / ops;
        let self_sum: f64 = rungs.iter().map(|r| per_op(layer(r).self_ns)).sum();
        Json::obj([
            (
                "rungs",
                Json::arr(rungs.iter().map(|r| {
                    let t = layer(r);
                    Json::obj([
                        ("span", Json::str(*r)),
                        ("ns_per_op", Json::float(per_op(t.total_ns as i64))),
                        ("self_ns_per_op", Json::float(per_op(t.self_ns))),
                        ("allocs_per_op", Json::float(t.allocs as f64 / ops)),
                    ])
                })),
            ),
            ("self_sum_ns_per_op", Json::float(self_sum)),
            (
                "round_trip_ns_per_op",
                Json::float(layer(names.call).ns_per_op()),
            ),
            (
                "self_sum_over_round_trip",
                Json::float(self_sum / layer(names.call).ns_per_op()),
            ),
            (
                "beside_the_ladder",
                Json::obj([
                    (
                        "lookup_batch_ns_per_op",
                        Json::float(layer(names.batch).ns_per_op()),
                    ),
                    (
                        "answer_obs_off_ns_per_op",
                        Json::float(layer(names.answer_obs_off).ns_per_op()),
                    ),
                ]),
            ),
        ])
    };
    let detail = Json::obj([
        (
            "graph_digest",
            Json::str(format!("{:016x}", inputs.graph_digest)),
        ),
        (
            "request_fnv",
            Json::str(format!("{:016x}", inputs.request_fnv)),
        ),
        ("event_fnv", Json::str(format!("{:016x}", inputs.event_fnv))),
        ("spans", Json::int(rec.spans().len())),
        ("lookup_ladder", ladder_json(l)),
        ("batch_ladder", ladder_json(b)),
        ("untraced_round_trip_us", Json::float(served.plain_mean_us)),
        (
            "replay",
            Json::obj([
                (
                    "against",
                    Json::str("MultiPlane::lookup on the replica, after the same events"),
                ),
                ("pairs", Json::int(replay.attempted)),
                ("mismatched", Json::int(replay.mismatched)),
            ]),
        ),
    ]);
    let report = Report {
        workload: spec.name,
        seed,
        seconds,
        smoke,
        traced: true,
        metrics: m,
        attempted,
        failed,
        detail,
    };
    (report, rec)
}
