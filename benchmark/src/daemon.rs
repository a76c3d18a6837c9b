//! The program under test, brought up for real — `MultiRouteService`
//! behind a `RouteServer` on loopback TCP — and the closed-loop legs
//! that drive it: the quiet traffic session (one client thread and one
//! connection per stream pair, next request only after the previous
//! reply, `Lookup` and `Batch` slices interleaved) and the churn leg
//! (one control thread reconciling the event list back-to-back, with or
//! without one reader connection beside it).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use cpr_graph::Graph;
use cpr_obs::Obs;
use cpr_plane::{MultiBuilder, RepairPolicy};
use cpr_serve::{MultiRouteService, Request, RouteClient, RouteServer, ServeConfig};

use crate::host;
use crate::inputs::Inputs;
use crate::stats::{percentile_sorted, tail_sorted};
use crate::verify::{ops_of, Checker, EdgeBits, EpochEdges};

/// A served instance: the service, its bound address, and the accept
/// loop running on a scoped thread.
pub struct Daemon<'scope> {
    /// The serving state (also the control path's handle).
    pub service: Arc<MultiRouteService>,
    /// Loopback address of the accept loop.
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: ScopedJoinHandle<'scope, std::io::Result<()>>,
}

impl Daemon<'_> {
    /// Raises the stop flag and waits for the accept loop and every
    /// connection worker to end.
    pub fn shutdown(self) -> Arc<MultiRouteService> {
        self.stop.store(true, Ordering::Relaxed);
        self.accept_loop
            .join()
            .expect("accept loop panicked")
            .expect("accept loop failed");
        self.service
    }
}

/// One cold bring-up, timed as `setup_s` defines it: graph in hand →
/// `MultiRouteService::new` + `RouteServer::bind` + the first query
/// answered over a fresh connection. Returns the daemon and the seconds.
pub fn bring_up<'scope>(
    scope: &'scope Scope<'scope, '_>,
    graph: &Graph,
    builder: MultiBuilder,
    obs: Obs,
) -> (Daemon<'scope>, f64) {
    let started = Instant::now();
    let service = Arc::new(
        MultiRouteService::new(graph, builder, ServeConfig::default(), obs)
            .expect("the registry compiles on a connected instance"),
    );
    let server =
        RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("loopback port binds");
    let addr = server.local_addr().expect("bound socket has an address");
    let stop = server.stop_handle();
    let accept_loop = scope.spawn(move || server.run());
    let mut client = RouteClient::connect(addr).expect("loopback connect");
    client
        .lookup_class(0, 1, 0)
        .expect("first query is answered");
    let seconds = started.elapsed().as_secs_f64();
    let daemon = Daemon {
        service,
        addr,
        stop,
        accept_loop,
    };
    (daemon, seconds)
}

/// What one window of a traffic leg measured.
#[derive(Clone, Debug)]
pub struct Window {
    /// Frames answered in the window, over all connections.
    pub frames: u64,
    /// Queries or pairs those frames carried.
    pub ops: u64,
    /// Window length in seconds.
    pub seconds: f64,
    /// Client-observed round trip of one frame, median.
    pub p50_us: f64,
    /// Round trip at [`tail_p`](Self::tail_p).
    pub tail_us: f64,
    /// p99 when the window holds ≥ 1000 samples, else the highest
    /// percentile with ten samples beyond it.
    pub tail_p: f64,
    /// Process CPU nanoseconds (all threads) spent during the window.
    pub cpu_ns: Option<f64>,
}

/// What a leg measured, plus its share of `attempted` / `failed`.
#[derive(Clone, Debug, Default)]
pub struct LegResult {
    /// Per-window measurements, in order.
    pub windows: Vec<Window>,
    /// Operations sent (queries or pairs), warm-up included.
    pub attempted: u64,
    /// Operations refused, failed, lost to a wire error, or failing
    /// verification.
    pub failed: u64,
}

/// Per-thread log of a closed loop: `(completion offset in ns, latency
/// in ns, stream)` of every frame.
struct ClientLog {
    samples: Vec<(u64, u32, u8)>,
    /// Operations sent, per stream.
    attempted: Vec<u64>,
    /// Operations that failed, per stream.
    failed: Vec<u64>,
}

/// One connection's closed loop: before each frame `choose` names the
/// stream to take the next request from (given the time since the loop
/// started), or ends the loop. Every answer is verified. The loop
/// starts at `ready` and meets it again before returning, so the thread
/// — and its CPU time in `/proc` — is still there when the sampling
/// thread reads its last boundary.
fn closed_loop(
    addr: SocketAddr,
    streams: &[&[Request]],
    edges: EpochEdges<'_>,
    ready: &Barrier,
    choose: impl Fn(Duration) -> Option<usize>,
) -> ClientLog {
    let mut client = RouteClient::connect(addr).expect("loopback connect");
    let mut checker = Checker::new(edges);
    let mut cursors = vec![0usize; streams.len()];
    let mut log = ClientLog {
        samples: Vec::with_capacity(1 << 16),
        attempted: vec![0; streams.len()],
        failed: vec![0; streams.len()],
    };
    ready.wait();
    let origin = Instant::now();
    while let Some(k) = choose(origin.elapsed()) {
        let request = &streams[k][cursors[k] % streams[k].len()];
        cursors[k] += 1;
        let sent = Instant::now();
        let reply = client.call(request);
        let done = Instant::now();
        log.attempted[k] += ops_of(request);
        match reply {
            Ok(response) => log.failed[k] += checker.failures(request, &response),
            Err(_) => {
                // The stream is out of step after a wire error: count
                // the frame and carry on over a fresh connection.
                log.failed[k] += ops_of(request);
                match RouteClient::connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(_) => break,
                }
            }
        }
        let at = (done - origin).as_nanos() as u64;
        log.samples
            .push((at, (done - sent).as_nanos() as u32, k as u8));
    }
    ready.wait();
    log
}

/// Summarises, per interval of `intervals` (ns offsets), the frames of
/// stream `k` that completed inside it.
fn windows_of(
    logs: &[ClientLog],
    intervals: &[(u64, u64)],
    k: u8,
    ops_per_frame: u64,
    cpu_ns: &[Option<f64>],
) -> Vec<Window> {
    intervals
        .iter()
        .enumerate()
        .map(|(w, &(from, to))| {
            let mut lat_us: Vec<f64> = logs
                .iter()
                .flat_map(|l| &l.samples)
                .filter(|&&(at, _, stream)| stream == k && at >= from && at < to)
                .map(|&(_, ns, _)| f64::from(ns) / 1e3)
                .collect();
            lat_us.sort_by(f64::total_cmp);
            let (tail_us, tail_p) = tail_sorted(&lat_us, 0.99).unwrap_or((f64::NAN, 0.99));
            Window {
                frames: lat_us.len() as u64,
                ops: lat_us.len() as u64 * ops_per_frame,
                seconds: (to - from) as f64 / 1e9,
                p50_us: percentile_sorted(&lat_us, 0.5).unwrap_or(f64::NAN),
                tail_us,
                tail_p,
                cpu_ns: cpu_ns.get(w).copied().flatten(),
            }
        })
        .collect()
}

/// The quiet traffic session's timetable: `warmup` untimed, then
/// `rounds` rounds of one `Lookup` slice and one `Batch` slice. The two
/// legs are interleaved rather than run one after the other so that
/// each leg's windows span the whole session: a burst of interference
/// from outside lands in a few windows of both legs, where the median
/// over windows drops it, instead of covering one short leg entirely.
#[derive(Clone, Copy, Debug)]
pub struct Timetable {
    /// Untimed lead-in, half `Lookup`s, half `Batch` frames.
    pub warmup: Duration,
    /// Rounds = windows per leg.
    pub rounds: usize,
    /// Slice length per round of the `Lookup` and the `Batch` stream.
    pub slices: [Duration; 2],
}

impl Timetable {
    fn round(&self) -> Duration {
        self.slices[0] + self.slices[1]
    }

    /// The stream a frame sent `t` into the session is taken from.
    fn stream_at(&self, t: Duration) -> Option<usize> {
        let Some(into) = t.checked_sub(self.warmup) else {
            return Some(usize::from(t >= self.warmup / 2));
        };
        let round = (into.as_nanos() / self.round().as_nanos().max(1)) as u32;
        if round as usize >= self.rounds {
            return None;
        }
        Some(usize::from(into - self.round() * round >= self.slices[0]))
    }

    /// The timed part of slice `k` of `round`: all of it but a leading
    /// tenth, in which the other stream's last frames drain and this
    /// stream's tables come back into cache.
    fn timed(&self, round: usize, k: usize) -> (Duration, Duration) {
        let start = self.warmup + self.round() * round as u32 + self.slices[0] * k as u32;
        (start + self.slices[k] / 10, start + self.slices[k])
    }
}

/// The quiet traffic session: one closed loop per connection following
/// `timetable`, connection `c` cycling `lookups[c]` and `batches[c]`.
/// The calling thread samples process CPU time at the edges of every
/// timed slice. Returns the `Lookup` leg and the `Batch` leg.
pub fn traffic_session(
    addr: SocketAddr,
    lookups: &[Vec<Request>],
    batches: &[Vec<Request>],
    bits: &EdgeBits,
    epoch: u64,
    timetable: &Timetable,
) -> [LegResult; 2] {
    let ready = Barrier::new(lookups.len() + 1);
    // Timed slices in time order: (round, stream, from, to).
    let slices: Vec<(usize, usize, Duration, Duration)> = (0..timetable.rounds)
        .flat_map(|r| [0, 1].map(|k| (r, k, timetable.timed(r, k).0, timetable.timed(r, k).1)))
        .collect();
    let (logs, cpu) = std::thread::scope(|s| {
        let clients: Vec<_> = lookups
            .iter()
            .zip(batches)
            .map(|(lookups, batches)| {
                let ready = &ready;
                s.spawn(move || {
                    let edges = EpochEdges {
                        base: bits,
                        first_epoch: epoch,
                        removals: &[],
                    };
                    closed_loop(addr, &[lookups, batches], edges, ready, |t| {
                        timetable.stream_at(t)
                    })
                })
            })
            .collect();
        ready.wait();
        let origin = Instant::now();
        // CPU spent inside each timed slice, scaled from the instants
        // actually sampled to the slice's nominal length.
        let sample_at = |t: Duration| {
            std::thread::sleep(t.saturating_sub(origin.elapsed()));
            (origin.elapsed(), host::process_cpu_ns())
        };
        let cpu: Vec<Option<f64>> = slices
            .iter()
            .map(|&(_, _, from, to)| {
                let ((t0, c0), (t1, c1)) = (sample_at(from), sample_at(to));
                let scale = (to - from).as_secs_f64() / (t1 - t0).as_secs_f64();
                Some(c1?.saturating_sub(c0?) as f64 * scale)
            })
            .collect();
        ready.wait();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (logs, cpu)
    });
    [0usize, 1].map(|k| {
        let of_stream = |i: &usize| slices[*i].1 == k;
        let picked: Vec<usize> = (0..slices.len()).filter(of_stream).collect();
        let intervals: Vec<(u64, u64)> = picked
            .iter()
            .map(|&i| (slices[i].2.as_nanos() as u64, slices[i].3.as_nanos() as u64))
            .collect();
        let cpu: Vec<Option<f64>> = picked.iter().map(|&i| cpu[i]).collect();
        let ops_per_frame = ops_of(&[lookups, batches][k][0][0]);
        LegResult {
            windows: windows_of(&logs, &intervals, k as u8, ops_per_frame, &cpu),
            attempted: logs.iter().map(|l| l.attempted[k]).sum(),
            failed: logs.iter().map(|l| l.failed[k]).sum(),
        }
    })
}

/// One applied topology event.
#[derive(Clone, Debug)]
pub struct EventSample {
    /// Removal (`true`) or restoration.
    pub remove: bool,
    /// The slice of the event list the event belongs to.
    pub slice: usize,
    /// Wall time of `MultiRouteService::reconcile`.
    pub ms: f64,
    /// Ordered pairs in the shared dirty set.
    pub dirty_pairs: u64,
    /// Pairs re-traced, summed over classes.
    pub repaired_pairs: u64,
    /// Patch entries live after the event, summed over classes.
    pub patched_states: u64,
    /// Classes that rebuilt from scratch / classes repaired.
    pub full_rebuild_share: f64,
}

/// What the churn leg measured.
#[derive(Clone, Debug, Default)]
pub struct ChurnResult {
    /// Every event, in order.
    pub events: Vec<EventSample>,
    /// The reader beside the events, one window per slice of events.
    pub reader: LegResult,
    /// Events applied.
    pub attempted: u64,
    /// Events that errored, published nothing, or the wrong epoch.
    pub failed: u64,
}

/// The churn leg: the calling thread applies `inputs`' event list
/// back-to-back through `MultiRouteService::reconcile`. With
/// The list is cut into slices of `per_slice` events, the windows of
/// the reconcile metrics. With `beside_reader`, one reader connection
/// runs `Lookup`s beside it and the reader's windows are the same
/// slices; without, the daemon is quiet (on two cores a reader takes a
/// core from the reconcile, which a cross leg of seconds-long events
/// cannot afford).
pub fn churn_leg(
    daemon: &Daemon<'_>,
    inputs: &Inputs,
    bits: &EdgeBits,
    beside_reader: bool,
    warmup: Duration,
    per_slice: usize,
) -> ChurnResult {
    // Repair every delta incrementally where the plane can; never let a
    // dirty-fraction threshold turn a removal into a rebuild.
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        record_budget_ms: false,
    };
    let service = &daemon.service;
    let first_epoch = service.current().epoch();
    let done = AtomicBool::new(false);
    let ready = Barrier::new(2);
    let mut result = ChurnResult::default();
    let per_slice = per_slice.max(1);
    let mut bounds = Vec::new();

    let log = std::thread::scope(|s| {
        let reader = beside_reader.then(|| {
            let reader = s.spawn(|| {
                let edges = EpochEdges {
                    base: bits,
                    first_epoch,
                    removals: &inputs.removals,
                };
                closed_loop(daemon.addr, &[&inputs.lookups[0]], edges, &ready, |_| {
                    (!done.load(Ordering::Relaxed)).then_some(0)
                })
            });
            ready.wait();
            reader
        });
        // The reader's clock starts at the same barrier.
        let origin = Instant::now();
        if reader.is_some() {
            std::thread::sleep(warmup);
        }
        bounds.push(origin.elapsed().as_nanos() as u64);
        let events: Vec<_> = inputs.events().collect();
        for (i, &(remove, graph)) in events.iter().enumerate() {
            let started = Instant::now();
            let report = service.reconcile(graph, &policy);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            result.attempted += 1;
            let expected_epoch = first_epoch + i as u64 + 1;
            match report {
                Ok(r) if r.swapped && r.epoch == expected_epoch => {
                    let repair = r.repair.expect("a swap carries its repair report");
                    let classes = repair.class_stats.len().max(1) as f64;
                    let sum = |f: fn(&cpr_plane::RepairStats) -> usize| {
                        repair.class_stats.iter().map(|(_, s)| f(s) as u64).sum()
                    };
                    result.events.push(EventSample {
                        remove,
                        slice: i / per_slice,
                        ms,
                        dirty_pairs: repair.shared_dirty_pairs as u64,
                        repaired_pairs: sum(|s| s.repaired_pairs),
                        patched_states: sum(|s| s.patched_states),
                        full_rebuild_share: sum(|s| usize::from(s.full_rebuild)) as f64 / classes,
                    });
                }
                _ => result.failed += 1,
            }
            if (i + 1) % per_slice == 0 || i + 1 == events.len() {
                bounds.push(origin.elapsed().as_nanos() as u64);
            }
        }
        done.store(true, Ordering::Relaxed);
        reader.map(|r| {
            ready.wait();
            r.join().expect("reader thread panicked")
        })
    });
    if let Some(log) = log {
        let slices: Vec<(u64, u64)> = bounds.windows(2).map(|b| (b[0], b[1])).collect();
        result.reader = LegResult {
            windows: windows_of(std::slice::from_ref(&log), &slices, 0, 1, &[]),
            attempted: log.attempted[0],
            failed: log.failed[0],
        };
    }
    result
}
