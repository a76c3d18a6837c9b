//! The serving state: every registered traffic class answered from one
//! process, one socket, one epoch cell.
//!
//! In a [`MultiRouteService`] the master
//! [`MultiPlane`](cpr_plane::MultiPlane) sits behind a mutex (control
//! path), an immutable [`MultiSnapshot`](cpr_plane::MultiSnapshot)
//! behind an [`EpochCell`] (data path), and
//! [`reconcile`](MultiRouteService::reconcile) repairs **all** classes
//! from one shared dirty set before publishing a new epoch with one
//! atomic swap. The wire protocol's traffic-class byte selects the
//! class per Lookup/Batch; a class outside the registry is answered
//! with [`ERR_PROTO`], never remapped. A single-algebra daemon is the
//! one-entry registry: legacy class-less frames land on class 0.
//!
//! Queries route through each class's zero-alloc
//! [`StaticCore`](cpr_plane::StaticCore) whenever the class's base
//! plane is pristine for the serving topology (the snapshot attaches
//! the core at swap time), and through the healed patch-over-base walk
//! otherwise — identical answers, pinned by the conformance suite.
//!
//! Per-class observability: every query counts into
//! `serve.class.{name}.queries` plus one of `.delivered`,
//! `.unroutable`, `.failed`, and delivered hop counts land in the
//! `serve.class.{name}.hops` histogram. A frame tallies its pairs
//! locally and flushes once, under metric names built when the snapshot
//! was published — the request path formats no string and takes the
//! registry lock once per frame, and the registry renders exactly what
//! per-pair recording would.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cpr_graph::Graph;
use cpr_obs::{Json, Obs};
use cpr_plane::multi::MultiRepairReport;
use cpr_plane::{
    ClassMiss, CompileError, MultiBuilder, MultiPlane, MultiSnapshot, RepairPolicy, TenantError,
};
use cpr_routing::RouteError;

use crate::epoch::EpochCell;
use crate::proto::{
    self, ProtoError, Request, Response, RouteOutcome, StatsSnapshot, ERR_BAD_REQUEST,
    ERR_INADMISSIBLE, ERR_INTERNAL, ERR_PROTO,
};
use crate::server::ServeConfig;

/// What one [`MultiRouteService::reconcile`] call did.
#[derive(Clone, Debug)]
pub struct MultiSwapReport {
    /// Whether a new epoch was published.
    pub swapped: bool,
    /// Serving epoch after the call.
    pub epoch: u64,
    /// Serving topology digest after the call.
    pub digest: u64,
    /// The shared-delta repair pass, when one ran.
    pub repair: Option<MultiRepairReport>,
}

/// What one swap publishes: the snapshot and the metric names its
/// queries record under, so a reader that loads one sees both.
struct Published {
    snapshot: Arc<MultiSnapshot>,
    /// `serve.queries.epoch.{N}`.
    epoch_queries: String,
    /// Per class slot, in wire class-id order.
    class_keys: Vec<ClassKeys>,
}

/// The `serve.class.{name}.*` metric names of one class.
struct ClassKeys {
    queries: String,
    delivered: String,
    unroutable: String,
    failed: String,
    hops: String,
}

impl Published {
    fn new(snapshot: MultiSnapshot) -> Arc<Self> {
        let class_keys = (0..snapshot.class_count())
            .map(|c| {
                let name = snapshot.class_name(c);
                ClassKeys {
                    queries: format!("serve.class.{name}.queries"),
                    delivered: format!("serve.class.{name}.delivered"),
                    unroutable: format!("serve.class.{name}.unroutable"),
                    failed: format!("serve.class.{name}.failed"),
                    hops: format!("serve.class.{name}.hops"),
                }
            })
            .collect();
        Arc::new(Published {
            epoch_queries: format!("serve.queries.epoch.{}", snapshot.epoch()),
            class_keys,
            snapshot: Arc::new(snapshot),
        })
    }
}

/// Per-connection working storage of the request path
/// ([`MultiRouteService::answer_frame`]): buffers grow to their
/// high-water mark on the first frames and are reused allocation-free
/// afterwards.
#[derive(Default)]
pub struct ConnScratch {
    /// The decoded pairs of the frame being answered.
    pairs: Vec<(u32, u32)>,
    tally: FrameTally,
}

/// What one frame's pairs did, held until the per-frame flush.
#[derive(Default)]
struct FrameTally {
    /// The path being walked; cleared per pair.
    path: Vec<u32>,
    delivered: u64,
    unroutable: u64,
    failed: u64,
    /// Delivered pairs by hop count: `hops[h]` pairs took `h` hops.
    hops: Vec<u64>,
}

impl FrameTally {
    fn delivered(&mut self, hops: u32) {
        let hops = hops as usize;
        if hops >= self.hops.len() {
            self.hops.resize(hops + 1, 0);
        }
        self.hops[hops] += 1;
        self.delivered += 1;
    }
}

/// Where the one routing body ([`MultiRouteService::route`]) puts what
/// it finds: wire bytes for a connection, a [`Response`] for
/// [`MultiRouteService::answer`].
trait ReplySink {
    /// The request is refused; nothing else follows.
    fn error(&mut self, code: u8, message: String);
    /// The request is served at `epoch`: one outcome follows for a
    /// `Lookup` (`batch` = `None`), `count` for a `Batch`.
    fn begin(&mut self, epoch: u64, batch: Option<usize>);
    fn path(&mut self, nodes: &[u32]);
    fn unroutable(&mut self);
    fn failed(&mut self, message: String);
}

/// Encodes the reply body straight into the connection's output buffer.
struct WireSink<'a>(&'a mut Vec<u8>);

impl ReplySink for WireSink<'_> {
    fn error(&mut self, code: u8, message: String) {
        Response::Error { code, message }.encode_into(self.0);
    }

    fn begin(&mut self, epoch: u64, batch: Option<usize>) {
        match batch {
            Some(count) => proto::put_batch_head(self.0, epoch, count),
            None => proto::put_route_head(self.0, epoch),
        }
    }

    fn path(&mut self, nodes: &[u32]) {
        proto::put_path(self.0, nodes);
    }

    fn unroutable(&mut self) {
        proto::put_unroutable(self.0);
    }

    fn failed(&mut self, message: String) {
        proto::put_failed(self.0, &message);
    }
}

/// Collects the reply as a decoded [`Response`].
struct ResponseSink(Option<Response>);

impl ResponseSink {
    fn outcome(&mut self, outcome: RouteOutcome) {
        match &mut self.0 {
            Some(Response::Batch { outcomes, .. }) => outcomes.push(outcome),
            Some(Response::Route { outcome: slot, .. }) => *slot = outcome,
            _ => unreachable!("outcomes follow `begin`"),
        }
    }
}

impl ReplySink for ResponseSink {
    fn error(&mut self, code: u8, message: String) {
        self.0 = Some(Response::Error { code, message });
    }

    fn begin(&mut self, epoch: u64, batch: Option<usize>) {
        self.0 = Some(match batch {
            Some(count) => Response::Batch {
                epoch,
                outcomes: Vec::with_capacity(count),
            },
            // Placeholder until the one outcome arrives.
            None => Response::Route {
                epoch,
                outcome: RouteOutcome::Unroutable,
            },
        });
    }

    fn path(&mut self, nodes: &[u32]) {
        self.outcome(RouteOutcome::Path(nodes.to_vec()));
    }

    fn unroutable(&mut self) {
        self.outcome(RouteOutcome::Unroutable);
    }

    fn failed(&mut self, message: String) {
        self.outcome(RouteOutcome::Failed(message));
    }
}

/// The serving state; see the module docs.
pub struct MultiRouteService {
    config: ServeConfig,
    master: Mutex<MultiPlane>,
    cell: EpochCell<Published>,
    obs: Obs,
    queries: AtomicU64,
    delivered: AtomicU64,
    unroutable: AtomicU64,
    failed: AtomicU64,
    swaps: AtomicU64,
    epoch_queries: Mutex<BTreeMap<u64, u64>>,
}

impl MultiRouteService {
    /// Compiles every registered class over `graph` (substrate shared;
    /// see [`MultiPlane::build`]) and wires up epoch 0.
    ///
    /// # Errors
    ///
    /// The first [`CompileError`] of any class compile.
    pub fn new(
        graph: &Graph,
        builder: MultiBuilder,
        config: ServeConfig,
        obs: Obs,
    ) -> Result<Self, CompileError> {
        let master = MultiPlane::build(graph, builder)?;
        let snapshot = master.snapshot();
        obs.set_gauge("serve.epoch", 0);
        obs.set_gauge("serve.classes", master.live_class_count() as i64);
        Ok(MultiRouteService {
            config,
            master: Mutex::new(master),
            cell: EpochCell::new(Published::new(snapshot)),
            obs,
            queries: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            unroutable: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            epoch_queries: Mutex::new(BTreeMap::new()),
        })
    }

    /// The configured limits.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The observability context the service records into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Served class names in wire traffic-class order, from the
    /// current snapshot — registrations and deregistrations change this
    /// atomically with the data they name (a retired slot keeps its
    /// last name).
    pub fn class_names(&self) -> Vec<String> {
        let snap = self.current();
        (0..snap.class_count())
            .map(|c| snap.class_name(c).to_string())
            .collect()
    }

    /// The current serving snapshot.
    pub fn current(&self) -> Arc<MultiSnapshot> {
        Arc::clone(&self.cell.load().snapshot)
    }

    /// The shared-substrate bit accounting of the master plane
    /// ([`MultiPlane::memory`]). Locks the control path; not for the
    /// query path.
    pub fn memory(&self) -> cpr_plane::MultiMemory {
        self.master
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .memory()
    }

    /// The control path: diff `graph` against the served topology and,
    /// on any delta, repair **every** class from one shared dirty set
    /// ([`MultiPlane::reconcile`]) off the serving path, then publish a
    /// new snapshot with one atomic swap. Serving continues on the old
    /// epoch for the entire repair.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from any class's observe or repair. On
    /// error nothing is published — the old epoch keeps serving.
    pub fn reconcile(
        &self,
        graph: &Graph,
        policy: &RepairPolicy,
    ) -> Result<MultiSwapReport, CompileError> {
        let started = Instant::now();
        let mut master = self.master.lock().unwrap_or_else(PoisonError::into_inner);
        let repair = master.reconcile(graph, policy, &self.obs)?;
        if repair.strategy == "none" {
            return Ok(MultiSwapReport {
                swapped: false,
                epoch: master.epoch(),
                digest: master.digest(),
                repair: None,
            });
        }
        let (epoch, digest) = self.publish(
            master,
            started,
            "serve.multi_swap",
            &[
                ("classes", Json::int(repair.class_stats.len())),
                ("strategy", Json::str(repair.strategy)),
                ("shared_dirty", Json::int(repair.shared_dirty_pairs)),
            ],
        );
        Ok(MultiSwapReport {
            swapped: true,
            epoch,
            digest,
            repair: Some(repair),
        })
    }

    /// Parses, gates, compiles and hot-registers a tenant class, then
    /// publishes the new registry with the same RCU swap discipline as
    /// [`reconcile`](Self::reconcile): readers keep answering on the
    /// old snapshot for the entire compile and flip atomically, so no
    /// query ever observes a torn registry. Returns the wire class id
    /// and the selected scheme name.
    ///
    /// # Errors
    ///
    /// Any [`TenantError`]; on error nothing is published.
    pub fn register_class(&self, name: &str, expr: &str) -> Result<(u8, String, u64), TenantError> {
        let started = Instant::now();
        let mut master = self.master.lock().unwrap_or_else(PoisonError::into_inner);
        let reg = master.register_class_expr(name, expr)?;
        self.obs.incr("serve.registrations");
        let (epoch, _) = self.publish(
            master,
            started,
            "serve.register",
            &[
                ("class", Json::int(reg.class)),
                ("name", Json::str(name)),
                ("scheme", Json::str(reg.scheme.name())),
            ],
        );
        Ok((reg.class as u8, reg.scheme.name().to_string(), epoch))
    }

    /// Deregisters a runtime class and publishes the tombstoned
    /// registry with one atomic swap; in-flight readers of the old
    /// snapshot finish against it, and the slot's wire id is never
    /// renumbered. Returns the retired class id and the new epoch.
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownClass`] / [`TenantError::SeedClass`]; on
    /// error nothing is published.
    pub fn deregister_class(&self, name: &str) -> Result<(u8, u64), TenantError> {
        let started = Instant::now();
        let mut master = self.master.lock().unwrap_or_else(PoisonError::into_inner);
        let class = master.deregister_class(name)?;
        self.obs.incr("serve.deregistrations");
        let (epoch, _) = self.publish(
            master,
            started,
            "serve.deregister",
            &[("class", Json::int(class)), ("name", Json::str(name))],
        );
        Ok((class as u8, epoch))
    }

    /// The one swap tail of every control-path operation: snapshot the
    /// master (under a `multi.snapshot` span carrying its wall-clock),
    /// release it, publish the snapshot (and the metric names its
    /// queries will record under) with one atomic store, then count the
    /// swap and emit `event` (`epoch`, `fields`, and the wall-clock since
    /// `started` — tracer only, never the registry).
    /// Returns the published `(epoch, digest)`.
    fn publish(
        &self,
        master: MutexGuard<'_, MultiPlane>,
        started: Instant,
        event: &str,
        fields: &[(&str, Json)],
    ) -> (u64, u64) {
        master.record_health(&self.obs);
        let live = master.live_class_count();
        let span = self
            .obs
            .span("multi.snapshot", &[("classes", Json::int(live))]);
        let copied = Instant::now();
        let snapshot = master.snapshot();
        span.event(
            "multi.snapshot.timing",
            &[("snapshot_us", Json::int(copied.elapsed().as_micros()))],
        );
        drop(span);
        let (epoch, digest) = (snapshot.epoch(), snapshot.digest());
        drop(master);
        self.cell.store(Published::new(snapshot));
        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.obs.incr("serve.swaps");
        self.obs.set_gauge("serve.epoch", epoch as i64);
        self.obs.set_gauge("serve.classes", live as i64);
        let mut all = vec![("epoch", Json::int(epoch))];
        all.extend_from_slice(fields);
        all.push(("micros", Json::int(started.elapsed().as_micros())));
        self.obs.event(event, &all);
        (epoch, digest)
    }

    /// The one routing-and-recording body of `Lookup` and `Batch`:
    /// one snapshot load, one walk per pair handed to `sink`, one
    /// metrics flush. Epoch consistency is per request — every pair is
    /// answered against the snapshot loaded here, and the reply carries
    /// that epoch.
    fn route(
        &self,
        batch: bool,
        class: u8,
        pairs: &[(u32, u32)],
        tally: &mut FrameTally,
        sink: &mut impl ReplySink,
    ) {
        let published = self.cell.load();
        let snap = &*published.snapshot;
        let class = usize::from(class);
        let serving = match snap.serving(class) {
            Ok(serving) => serving,
            Err(miss) => {
                self.obs.incr("serve.proto_errors");
                let (code, message) = match miss {
                    ClassMiss::OutOfRange => (
                        ERR_PROTO,
                        format!(
                            "traffic class {class} out of range: {} classes served",
                            snap.class_count()
                        ),
                    ),
                    ClassMiss::Retired => (
                        ERR_BAD_REQUEST,
                        format!(
                            "traffic class {class} (`{}`) is deregistered",
                            snap.class_name(class)
                        ),
                    ),
                };
                return sink.error(code, message);
            }
        };
        if batch && pairs.len() > self.config.max_batch as usize {
            return sink.error(
                ERR_BAD_REQUEST,
                format!(
                    "batch of {} pairs exceeds cap of {}",
                    pairs.len(),
                    self.config.max_batch
                ),
            );
        }
        sink.begin(snap.epoch(), batch.then_some(pairs.len()));
        let n = snap.graph().node_count();
        for &(source, target) in pairs {
            if source as usize >= n || target as usize >= n {
                tally.failed += 1;
                sink.failed(format!(
                    "node id out of range: ({source}, {target}) on {n} nodes"
                ));
                continue;
            }
            tally.path.clear();
            if source == target {
                tally.path.push(source);
                tally.delivered(0);
                sink.path(&tally.path);
                continue;
            }
            match serving.walk_into(source as usize, target as usize, &mut tally.path) {
                Ok(hops) => {
                    tally.delivered(hops);
                    sink.path(&tally.path);
                }
                Err(RouteError::Unroutable { .. }) => {
                    tally.unroutable += 1;
                    sink.unroutable();
                }
                Err(e) => {
                    tally.failed += 1;
                    sink.failed(e.to_string());
                }
            }
        }
        self.flush(&published, class, pairs.len() as u64, tally);
    }

    /// Folds one frame's tally into the service counters and the
    /// registry — once per frame, one registry lock — and clears it. A
    /// zero tally touches no `.delivered` / `.unroutable` / `.failed` /
    /// `.hops` entry, so none renders that per-pair recording would not
    /// have created.
    fn flush(&self, published: &Published, class: usize, queries: u64, tally: &mut FrameTally) {
        self.queries.fetch_add(queries, Ordering::Relaxed);
        self.delivered.fetch_add(tally.delivered, Ordering::Relaxed);
        self.unroutable
            .fetch_add(tally.unroutable, Ordering::Relaxed);
        self.failed.fetch_add(tally.failed, Ordering::Relaxed);
        *self
            .epoch_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(published.snapshot.epoch())
            .or_insert(0) += queries;
        if let Some(mut registry) = self.obs.batch() {
            let keys = &published.class_keys[class];
            registry.add("serve.queries", queries);
            registry.add(&keys.queries, queries);
            registry.add(&published.epoch_queries, queries);
            for (key, count) in [
                (&keys.delivered, tally.delivered),
                (&keys.unroutable, tally.unroutable),
                (&keys.failed, tally.failed),
            ] {
                if count > 0 {
                    registry.add(key, count);
                }
            }
            for (hops, &count) in tally.hops.iter().enumerate() {
                registry.record_n(&keys.hops, hops as u64, count);
            }
        }
        (tally.delivered, tally.unroutable, tally.failed) = (0, 0, 0);
        tally.hops.fill(0);
    }

    /// The data path of a connection: answers the request in frame body
    /// `body` by appending the complete reply **frame** (length prefix
    /// included) to `out`. `Lookup` and `Batch` are decoded into
    /// `scratch`, routed and encoded without allocating once `scratch`
    /// and `out` are warm; every other opcode goes through
    /// [`answer`](Self::answer). The appended bytes are exactly
    /// `write_frame(answer(&Request::decode(body)?).encode())`.
    ///
    /// # Errors
    ///
    /// The [`ProtoError`] of a body that does not decode; nothing is
    /// appended.
    pub fn answer_frame(
        &self,
        body: &[u8],
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), ProtoError> {
        match proto::decode_query(body, &mut scratch.pairs)? {
            Some((batch, class)) => proto::frame_into(out, |reply| {
                self.route(
                    batch,
                    class,
                    &scratch.pairs,
                    &mut scratch.tally,
                    &mut WireSink(reply),
                );
            }),
            None => {
                let response = self.answer(&Request::decode(body)?);
                proto::frame_into(out, |reply| response.encode_into(reply));
            }
        }
        Ok(())
    }

    fn answer_query(&self, batch: bool, class: u8, pairs: &[(u32, u32)]) -> Response {
        let mut sink = ResponseSink(None);
        self.route(batch, class, pairs, &mut FrameTally::default(), &mut sink);
        sink.0.expect("`route` always replies")
    }

    /// The data path: answer one decoded request. Epoch consistency is
    /// per request — a batch is answered entirely against the snapshot
    /// loaded at its start, and the response carries that epoch.
    pub fn answer(&self, request: &Request) -> Response {
        match request {
            Request::Lookup {
                source,
                target,
                class,
            } => self.answer_query(false, *class, &[(*source, *target)]),
            Request::Batch { pairs, class } => self.answer_query(true, *class, pairs),
            Request::Register { name, expr } => match self.register_class(name, expr) {
                Ok((class, scheme, epoch)) => Response::Registered {
                    epoch,
                    class,
                    scheme,
                },
                Err(e) => {
                    let code = match &e {
                        TenantError::Inadmissible(_) => ERR_INADMISSIBLE,
                        TenantError::Compile(_) => ERR_INTERNAL,
                        _ => ERR_BAD_REQUEST,
                    };
                    self.obs.incr("serve.register_rejected");
                    Response::Error {
                        code,
                        message: e.to_string(),
                    }
                }
            },
            Request::Deregister { name } => match self.deregister_class(name) {
                Ok((class, epoch)) => Response::Deregistered { epoch, class },
                Err(e) => Response::Error {
                    code: ERR_BAD_REQUEST,
                    message: e.to_string(),
                },
            },
            Request::Health => {
                let snap = self.current();
                Response::Health {
                    epoch: snap.epoch(),
                    digest: snap.digest(),
                    fresh: snap.is_fresh(),
                }
            }
            Request::Metrics => {
                let snap = self.current();
                Response::Metrics {
                    epoch: snap.epoch(),
                    json: self.obs.registry.render_json().to_compact(),
                }
            }
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    /// The fixed-layout counters served by the `Stats` opcode,
    /// aggregated across classes (per-class splits live in the metrics
    /// registry under `serve.class.{name}.*`).
    pub fn stats(&self) -> StatsSnapshot {
        let snap = self.current();
        StatsSnapshot {
            epoch: snap.epoch(),
            digest: snap.digest(),
            swaps: self.swaps.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            unroutable: self.unroutable.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            epoch_queries: self
                .epoch_queries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(&e, &q)| (e, q))
                .collect(),
        }
    }
}
