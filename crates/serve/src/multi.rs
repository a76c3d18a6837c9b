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
//! Per-class observability: every query increments
//! `serve.class.{name}.queries` plus one of `.delivered`,
//! `.unroutable`, `.failed`, and delivered hop counts land in the
//! `serve.class.{name}.hops` histogram.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use cpr_graph::Graph;
use cpr_obs::{Json, Obs};
use cpr_plane::multi::MultiRepairReport;
use cpr_plane::{CompileError, MultiBuilder, MultiPlane, MultiSnapshot, RepairPolicy, TenantError};
use cpr_routing::RouteError;

use crate::epoch::EpochCell;
use crate::proto::{
    Request, Response, RouteOutcome, StatsSnapshot, ERR_BAD_REQUEST, ERR_INADMISSIBLE,
    ERR_INTERNAL, ERR_PROTO,
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

/// The serving state; see the module docs.
pub struct MultiRouteService {
    config: ServeConfig,
    master: Mutex<MultiPlane>,
    cell: EpochCell<MultiSnapshot>,
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
            cell: EpochCell::new(Arc::new(snapshot)),
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
        let snap = self.cell.load();
        (0..snap.class_count())
            .map(|c| snap.class_name(c).to_string())
            .collect()
    }

    /// The current serving snapshot.
    pub fn current(&self) -> Arc<MultiSnapshot> {
        self.cell.load()
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
    /// master, release it, publish the snapshot with one atomic store,
    /// then count the swap and emit `event` (`epoch`, `fields`, and the
    /// wall-clock since `started` — tracer only, never the registry).
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
        let snapshot = master.snapshot();
        let (epoch, digest) = (snapshot.epoch(), snapshot.digest());
        drop(master);
        self.cell.store(Arc::new(snapshot));
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

    fn class_of(&self, snap: &MultiSnapshot, class: u8) -> Result<usize, Response> {
        let idx = class as usize;
        if idx >= snap.class_count() {
            self.obs.incr("serve.proto_errors");
            return Err(Response::Error {
                code: ERR_PROTO,
                message: format!(
                    "traffic class {class} out of range: {} classes served",
                    snap.class_count()
                ),
            });
        }
        if !snap.class_live(idx) {
            self.obs.incr("serve.proto_errors");
            return Err(Response::Error {
                code: ERR_BAD_REQUEST,
                message: format!(
                    "traffic class {class} (`{}`) is deregistered",
                    snap.class_name(idx)
                ),
            });
        }
        Ok(idx)
    }

    fn route_one(
        &self,
        snap: &MultiSnapshot,
        class: usize,
        source: u32,
        target: u32,
    ) -> RouteOutcome {
        let name = snap.class_name(class);
        let n = snap.graph().node_count();
        if source as usize >= n || target as usize >= n {
            self.failed.fetch_add(1, Ordering::Relaxed);
            self.obs.incr(&format!("serve.class.{name}.failed"));
            return RouteOutcome::Failed(format!(
                "node id out of range: ({source}, {target}) on {n} nodes"
            ));
        }
        if source == target {
            self.delivered.fetch_add(1, Ordering::Relaxed);
            self.obs.incr(&format!("serve.class.{name}.delivered"));
            self.obs.record(&format!("serve.class.{name}.hops"), 0);
            return RouteOutcome::Path(vec![source]);
        }
        match snap.lookup(class, source as usize, target as usize) {
            Ok((path, _served)) => {
                self.delivered.fetch_add(1, Ordering::Relaxed);
                self.obs.incr(&format!("serve.class.{name}.delivered"));
                self.obs.record(
                    &format!("serve.class.{name}.hops"),
                    path.len().saturating_sub(1) as u64,
                );
                RouteOutcome::Path(path.into_iter().map(|v| v as u32).collect())
            }
            Err(RouteError::Unroutable { .. }) => {
                self.unroutable.fetch_add(1, Ordering::Relaxed);
                self.obs.incr(&format!("serve.class.{name}.unroutable"));
                RouteOutcome::Unroutable
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                self.obs.incr(&format!("serve.class.{name}.failed"));
                RouteOutcome::Failed(e.to_string())
            }
        }
    }

    fn count_queries(&self, snap: &MultiSnapshot, class: usize, n: u64) {
        let epoch = snap.epoch();
        self.queries.fetch_add(n, Ordering::Relaxed);
        *self
            .epoch_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(epoch)
            .or_insert(0) += n;
        self.obs.add("serve.queries", n);
        self.obs.add(
            &format!("serve.class.{}.queries", snap.class_name(class)),
            n,
        );
        self.obs.add(&format!("serve.queries.epoch.{epoch}"), n);
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
            } => {
                let snap = self.cell.load();
                let class = match self.class_of(&snap, *class) {
                    Ok(c) => c,
                    Err(resp) => return resp,
                };
                self.count_queries(&snap, class, 1);
                Response::Route {
                    epoch: snap.epoch(),
                    outcome: self.route_one(&snap, class, *source, *target),
                }
            }
            Request::Batch { pairs, class } => {
                let snap = self.cell.load();
                let class = match self.class_of(&snap, *class) {
                    Ok(c) => c,
                    Err(resp) => return resp,
                };
                if pairs.len() > self.config.max_batch as usize {
                    return Response::Error {
                        code: ERR_BAD_REQUEST,
                        message: format!(
                            "batch of {} pairs exceeds cap of {}",
                            pairs.len(),
                            self.config.max_batch
                        ),
                    };
                }
                self.count_queries(&snap, class, pairs.len() as u64);
                Response::Batch {
                    epoch: snap.epoch(),
                    outcomes: pairs
                        .iter()
                        .map(|&(s, t)| self.route_one(&snap, class, s, t))
                        .collect(),
                }
            }
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
                let snap = self.cell.load();
                Response::Health {
                    epoch: snap.epoch(),
                    digest: snap.digest(),
                    fresh: snap.is_fresh(),
                }
            }
            Request::Metrics => {
                let snap = self.cell.load();
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
        let snap = self.cell.load();
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
