//! A self-healing forwarding plane.
//!
//! A compiled [`ForwardingPlane`] is a snapshot: the moment a link dies
//! the plane's CSR adjacency and transition arrays describe a topology
//! that no longer exists, and a plain `decide()` walk would forward
//! packets onto the dead link — silently. This module makes staleness
//! *detectable*, *repairable* and *survivable*:
//!
//! * **Detect** — every plane records a [`graph_digest`] of the topology
//!   it was compiled against ([`ForwardingPlane::is_current_for`]), and
//!   [`SelfHealingPlane::observe`] diffs the live graph's edge set
//!   against the plane's view, bumping a topology epoch and computing
//!   exactly which `(source, target)` pairs a removed link dirties (by
//!   walking their compiled paths — a pair whose walk never crossed the
//!   link is untouched).
//! * **Repair** — [`SelfHealingPlane::repair`] re-traces only the dirty
//!   pairs through the live scheme on the *new* graph, extending the
//!   header intern space as needed, and installs the re-verified steps
//!   in a patch layer that overrides the base arrays. Where the dirty
//!   set comes from is the caller's [`DirtySource`]: under the built-in
//!   [`DirtySource::Walks`] rule, edge additions dirty every pair (any
//!   route may improve), which degenerates to a full recompile; a
//!   [`DirtySource::Oracle`] (typically a [`cpr_paths::DeltaTracker`])
//!   bounds the affected pairs of *any* delta — additions included — so
//!   an added edge patches only the pairs it can reach, falling back to
//!   a rebuild only when the dirty set exceeds a configurable fraction
//!   of pairs ([`RepairPolicy`]).
//! * **Survive** — while a pair is dirty (observed but not yet
//!   repaired), [`SelfHealingPlane::route`] falls back to the live
//!   scheme's [`route`](cpr_routing::route) instead of serving a stale
//!   hop, and [`HealthCounters`] records every compiled / degraded /
//!   fallback / failed query. A query is *never* answered with a hop
//!   over an edge absent from the current topology: base-array hops are
//!   checked against the live edge set and surface as
//!   [`RouteError::BadPort`] if the arrays try — a loud failure, never a
//!   silently wrong hop.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use cpr_graph::{Graph, NodeId};
use cpr_paths::{DeltaOracle, DirtyPairs};
use cpr_routing::{RouteAction, RouteError, RoutingScheme};

use crate::compile::{
    compile_with_intern, graph_digest, CompileError, Decision, ForwardingPlane, Interner,
};
use crate::engine::{QueryFailure, ServeReport};

/// How a query was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// Entirely from the pristine compiled arrays.
    Compiled,
    /// Through at least one repaired (patched) transition.
    Degraded,
    /// By the live scheme, because the pair was dirty awaiting repair.
    Fallback,
}

/// Cumulative health counters of a self-healing plane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Queries served entirely from the base compiled arrays.
    pub compiled: u64,
    /// Queries served through at least one patched transition.
    pub degraded: u64,
    /// Queries answered by the live scheme while their pair was dirty.
    pub fallback: u64,
    /// Queries that failed (unroutable, budget, or a stale hop caught by
    /// the live-edge check).
    pub failed: u64,
    /// Completed [`repair`](SelfHealingPlane::repair) passes.
    pub repairs: u64,
    /// Repair passes that patched only dirty pairs (no recompile).
    pub incremental_repairs: u64,
    /// Repair passes that rebuilt the base plane from scratch — because
    /// every pair was dirty, or because a [`RepairPolicy`] threshold
    /// forced it.
    pub full_rebuilds: u64,
    /// Topology epoch: number of observed topology changes.
    pub epoch: u64,
}

/// Why a stale plane has outstanding work — distinguishes "stale because
/// a (bounded) repair is pending" from "stale because the next pass must
/// rebuild".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PendingWork {
    /// Nothing outstanding: no pair awaits repair.
    #[default]
    None,
    /// Dirty pairs await an incremental repair pass.
    Repair,
    /// Every pair is dirty: the next repair pass will recompile the
    /// base plane instead of patching.
    Rebuild,
}

/// Where [`SelfHealingPlane::observe`] takes a delta's affected pairs
/// from.
pub enum DirtySource<'a> {
    /// The built-in rule, from the plane's own healed walks: removed
    /// edges dirty exactly the pairs whose walk crossed one; any added
    /// edge dirties every pair (any route may improve).
    Walks,
    /// A delta oracle (typically a [`cpr_paths::DeltaTracker`] advanced
    /// in lockstep with this plane, built over the same weights as the
    /// live scheme) reporting the ordered pairs whose *preferred-tree
    /// route* can change — additions included. The plane closes that set
    /// over its forwarding walks: a pair `(s, t)` is dirtied when any
    /// node `u` on its current healed walk owns an affected pair
    /// `(u, t)` — hop-by-hop forwarding composes per-node trees, so
    /// `u`'s next hop toward `t` changing re-routes every walk through
    /// `u`. Walks that cannot be decided are conservatively dirtied.
    Oracle(&'a mut dyn DeltaOracle),
    /// A precomputed set, closed over the plane's walks like an
    /// oracle's. The multi-plane reconcile computes **one** shared set
    /// per topology delta and hands it to every class, so the caller
    /// owns its soundness across *all* receivers: a structural endpoint
    /// set — `(x, t)` and `(y, t)` for every removed edge `(x, y)` and
    /// every target `t` — is safe for any algebra, while metric-specific
    /// bounds are not.
    Pairs(&'a DirtyPairs),
}

/// Tunables of a repair pass ([`SelfHealingPlane::repair`]).
#[derive(Clone, Copy, Debug)]
pub struct RepairPolicy {
    /// When the dirty set exceeds this fraction of all ordered pairs,
    /// the pass abandons patching and rebuilds the base plane — loudly:
    /// the rebuild is counted in
    /// [`HealthCounters::full_rebuilds`], flagged in
    /// [`RepairStats::forced_rebuild`], and surfaced as a
    /// `heal.rebuild.forced` obs event.
    pub max_dirty_fraction: f64,
    /// Record each pass's wall-clock as a `heal.repair_budget_ms` gauge.
    /// Off by default: wall-clock gauges break the byte-determinism of
    /// pinned registry snapshots, so benches enable this only when
    /// timing is on.
    pub record_budget_ms: bool,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            max_dirty_fraction: 0.5,
            record_budget_ms: false,
        }
    }
}

/// What [`SelfHealingPlane::observe`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleReport {
    /// Whether the observed topology differs from the plane's view.
    pub stale: bool,
    /// [`graph_digest`] of the topology the plane was serving *before*
    /// this observation — what it expected to see.
    pub expected_digest: u64,
    /// [`graph_digest`] of the topology actually observed. Equal to
    /// [`expected_digest`](Self::expected_digest) exactly when
    /// [`stale`](Self::stale) is `false`; both are carried here so swap
    /// logic and logs never recompute `graph_digest` on the hot path.
    pub observed_digest: u64,
    /// Edges the plane was compiled with that no longer exist.
    pub removed_edges: Vec<(NodeId, NodeId)>,
    /// Edges of the live graph the plane has never seen.
    pub added_edges: Vec<(NodeId, NodeId)>,
    /// Total `(source, target)` pairs currently dirty.
    pub dirty_pairs: usize,
    /// What the dirty set implies for the next repair pass.
    pub pending: PendingWork,
}

/// What one [`SelfHealingPlane::repair`] pass did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairStats {
    /// Topology epoch after the repair.
    pub epoch: u64,
    /// Dirty pairs going into the repair.
    pub dirty_pairs: usize,
    /// Pairs re-traced to a verified route on the new topology.
    pub repaired_pairs: usize,
    /// Pairs the new topology cannot route (now loudly unroutable).
    pub unroutable_pairs: usize,
    /// `(node, header)` patch entries now overriding the base arrays.
    pub patched_states: usize,
    /// Whether the pass fell back to a full recompile (every pair was
    /// dirty, so patching would rebuild everything anyway — or a
    /// [`RepairPolicy`] forced it).
    pub full_rebuild: bool,
    /// Whether a [`RepairPolicy::max_dirty_fraction`] threshold forced
    /// the rebuild (as opposed to every pair being dirty).
    pub forced_rebuild: bool,
}

/// A repaired transition: the resolved *node* is stored rather than a
/// port, because port numbering in the base plane's CSR snapshot refers
/// to the old topology.
#[derive(Clone, Copy, Debug)]
enum PatchStep {
    Deliver,
    Forward { to: NodeId, next: u32 },
}

/// A [`ForwardingPlane`] wrapped with topology-drift detection, an
/// incremental repair layer and live-scheme fallback. See module docs.
pub struct SelfHealingPlane<S: RoutingScheme> {
    base: ForwardingPlane,
    intern: Interner<S::Header>,
    /// The edge set (normalized `(min, max)`) the plane currently
    /// serves; updated by [`observe`](Self::observe).
    current_edges: BTreeSet<(NodeId, NodeId)>,
    current_digest: u64,
    /// Repaired transitions, keyed by `(node, interned header id)`;
    /// checked before the base arrays.
    patch: HashMap<(NodeId, u32), PatchStep>,
    /// Repaired initial-header ids (`None` = pair became unroutable).
    initial_patch: HashMap<(NodeId, NodeId), Option<u32>>,
    /// Pairs observed stale and not yet repaired; ordered so repair
    /// passes (and thus header-id assignment) are deterministic.
    dirty: BTreeSet<(NodeId, NodeId)>,
    counters: HealthCounters,
}

/// A healed plane is cloneable into an immutable serving snapshot: the
/// clone shares nothing with the original, so a route-query server can
/// publish it RCU-style while the master keeps absorbing churn. Only the
/// header type must be cloneable (it already is — every
/// [`RoutingScheme::Header`] is `Clone`); the scheme itself stays
/// outside the plane.
impl<S: RoutingScheme> Clone for SelfHealingPlane<S> {
    fn clone(&self) -> Self {
        SelfHealingPlane {
            base: self.base.clone(),
            intern: Interner {
                map: self.intern.map.clone(),
                order: self.intern.order.clone(),
            },
            current_edges: self.current_edges.clone(),
            current_digest: self.current_digest,
            patch: self.patch.clone(),
            initial_patch: self.initial_patch.clone(),
            dirty: self.dirty.clone(),
            counters: self.counters,
        }
    }
}

fn norm(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

fn edge_set(graph: &Graph) -> BTreeSet<(NodeId, NodeId)> {
    graph.edges().map(|(_, (u, v))| norm(u, v)).collect()
}

impl<S> SelfHealingPlane<S>
where
    S: RoutingScheme + Sync,
    S::Header: Send,
{
    /// Compiles `scheme` over `graph` and wraps the plane with healing
    /// state.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] of the underlying compile.
    pub fn new(scheme: &S, graph: &Graph) -> Result<Self, CompileError> {
        let (base, order) = compile_with_intern(scheme, graph, cpr_core::par::thread_count())?;
        let map = order
            .iter()
            .enumerate()
            .map(|(i, h)| (h.clone(), i as u32))
            .collect();
        Ok(SelfHealingPlane {
            base,
            intern: Interner { map, order },
            current_edges: edge_set(graph),
            current_digest: graph_digest(graph),
            patch: HashMap::new(),
            initial_patch: HashMap::new(),
            dirty: BTreeSet::new(),
            counters: HealthCounters::default(),
        })
    }

    /// The wrapped base plane.
    pub fn base(&self) -> &ForwardingPlane {
        &self.base
    }

    /// Mutable base access for the multi-plane substrate dedupe pass
    /// (`crate::multi`) — the pass only redirects `Arc`s at
    /// content-identical allocations, never changes logical state.
    pub(crate) fn base_mut(&mut self) -> &mut ForwardingPlane {
        &mut self.base
    }

    /// Cumulative health counters.
    pub fn counters(&self) -> HealthCounters {
        self.counters
    }

    /// Pairs currently dirty (served via live fallback).
    pub fn dirty_pairs(&self) -> usize {
        self.dirty.len()
    }

    /// The current topology epoch: number of observed topology changes.
    /// Cheap accessor — no digest is recomputed.
    pub fn epoch(&self) -> u64 {
        self.counters.epoch
    }

    /// The cached [`graph_digest`] of the topology this plane currently
    /// serves (as of the latest [`observe`](Self::observe)). Cheap
    /// accessor — no digest is recomputed.
    pub fn digest(&self) -> u64 {
        self.current_digest
    }

    /// `(node, header)` entries currently overriding the base arrays —
    /// the live size of the patch layer. A full rebuild resets this to
    /// zero; anything else here must have been written by the *latest*
    /// repair, never left over from an earlier topology.
    pub fn patch_entries(&self) -> usize {
        self.patch.len() + self.initial_patch.len()
    }

    /// `true` when the plane's view matches `graph` and no pair awaits
    /// repair.
    pub fn is_fresh_for(&self, graph: &Graph) -> bool {
        self.current_digest == graph_digest(graph) && self.dirty.is_empty()
    }

    /// Diffs `graph` against the plane's current topology view. On any
    /// change the topology epoch advances and the pairs `source` reports
    /// affected are marked dirty (see [`DirtySource`]). Idempotent when
    /// nothing changed — an oracle is only consulted on a real delta.
    ///
    /// # Errors
    ///
    /// [`CompileError::NodeCountMismatch`] when `graph` has a different
    /// node count — node-set changes are a rebuild, not a repair.
    pub fn observe(
        &mut self,
        graph: &Graph,
        source: DirtySource<'_>,
    ) -> Result<StaleReport, CompileError> {
        let n = self.base.node_count();
        if graph.node_count() != n {
            return Err(CompileError::NodeCountMismatch {
                scheme: n,
                graph: graph.node_count(),
            });
        }
        let new_edges = edge_set(graph);
        let expected_digest = self.current_digest;
        let removed: Vec<(NodeId, NodeId)> =
            self.current_edges.difference(&new_edges).copied().collect();
        let added: Vec<(NodeId, NodeId)> =
            new_edges.difference(&self.current_edges).copied().collect();
        let stale = !(removed.is_empty() && added.is_empty());
        if stale {
            self.counters.epoch += 1;
            match source {
                DirtySource::Walks if added.is_empty() => {
                    let removed_set: BTreeSet<(NodeId, NodeId)> = removed.iter().copied().collect();
                    self.mark_where(|plane, s, t| plane.walk_crosses(s, t, &removed_set));
                }
                // A new link can improve any pair: all dirty.
                DirtySource::Walks => self.mark_dirty(&DirtyPairs::All),
                DirtySource::Oracle(oracle) => self.mark_dirty(&oracle.affected_pairs(graph)),
                DirtySource::Pairs(affected) => self.mark_dirty(affected),
            }
            self.current_edges = new_edges;
            self.current_digest = graph_digest(graph);
        }
        // Identical edge sets mean identical digests, so when nothing
        // moved the cached one serves for both sides.
        Ok(StaleReport {
            stale,
            expected_digest,
            observed_digest: self.current_digest,
            removed_edges: removed,
            added_edges: added,
            dirty_pairs: self.dirty.len(),
            pending: self.pending(),
        })
    }

    /// Folds an affected-pair set into the dirty set, closing
    /// `DirtyPairs::Pairs` over this plane's current healed walks (a
    /// pair `(s, t)` is dirtied when any node on its walk owns an
    /// affected pair toward `t`).
    fn mark_dirty(&mut self, affected: &DirtyPairs) {
        match affected {
            DirtyPairs::All => self.mark_where(|_, _, _| true),
            DirtyPairs::Pairs(affected) => {
                self.mark_where(|plane, s, t| plane.walk_touches(s, t, affected));
            }
        }
    }

    /// Dirties every ordered pair `hit` selects.
    fn mark_where(&mut self, hit: impl Fn(&Self, NodeId, NodeId) -> bool) {
        let n = self.base.node_count();
        for s in 0..n {
            for t in 0..n {
                if s != t && hit(self, s, t) {
                    self.dirty.insert((s, t));
                }
            }
        }
    }

    /// What the current dirty set implies for the next repair pass.
    fn pending(&self) -> PendingWork {
        let n = self.base.node_count();
        if self.dirty.is_empty() {
            PendingWork::None
        } else if n > 1 && self.dirty.len() == n * n - n {
            PendingWork::Rebuild
        } else {
            PendingWork::Repair
        }
    }

    /// Whether any node on the healed walk for `(s, t)` owns an affected
    /// pair toward `t` (or the walk cannot be decided — conservatively
    /// dirty). The walk runs over the plane's *current* (pre-delta)
    /// view, which is exactly the route whose survival is in question.
    fn walk_touches(&self, s: NodeId, t: NodeId, affected: &BTreeSet<(NodeId, NodeId)>) -> bool {
        if self.dirty.contains(&(s, t)) || affected.contains(&(s, t)) {
            return true;
        }
        let Some(mut hid) = self.initial_of(s, t) else {
            // Unroutable pairs that become routable are in `affected`
            // (checked above); anything else stays unroutable.
            return false;
        };
        let mut at = s;
        let mut hops = 0usize;
        loop {
            match self.healed_decide(at, hid) {
                HealedDecision::Deliver => return false,
                HealedDecision::Forward { to, next } => {
                    if to != t && affected.contains(&(to, t)) {
                        return true;
                    }
                    at = to;
                    hid = next;
                    hops += 1;
                    if hops > self.base.hop_budget() {
                        return true;
                    }
                }
                HealedDecision::Invalid => return true,
            }
        }
    }

    /// Whether the healed walk for `(s, t)` crosses any edge in
    /// `removed`, or can no longer be decided (conservatively dirty).
    /// Pairs that were already unroutable stay unroutable under edge
    /// removal and are not dirtied.
    fn walk_crosses(&self, s: NodeId, t: NodeId, removed: &BTreeSet<(NodeId, NodeId)>) -> bool {
        if self.dirty.contains(&(s, t)) {
            return true;
        }
        let Some(mut hid) = self.initial_of(s, t) else {
            return false;
        };
        let mut at = s;
        let mut hops = 0usize;
        loop {
            match self.healed_decide(at, hid) {
                HealedDecision::Deliver => return false,
                HealedDecision::Forward { to, next } => {
                    if removed.contains(&norm(at, to)) {
                        return true;
                    }
                    at = to;
                    hid = next;
                    hops += 1;
                    if hops > self.base.hop_budget() {
                        return true;
                    }
                }
                HealedDecision::Invalid => return true,
            }
        }
    }

    /// The pair's initial header id through the patch layer.
    fn initial_of(&self, s: NodeId, t: NodeId) -> Option<u32> {
        match self.initial_patch.get(&(s, t)) {
            Some(over) => *over,
            None => self.base.initial_id(s, t),
        }
    }

    /// One healed decision: the patch layer first, then the base arrays
    /// (only for header ids the base plane knows about — repaired walks
    /// may intern ids past its table).
    fn healed_decide(&self, at: NodeId, hid: u32) -> HealedDecision {
        if let Some(step) = self.patch.get(&(at, hid)) {
            return match *step {
                PatchStep::Deliver => HealedDecision::Deliver,
                PatchStep::Forward { to, next } => HealedDecision::Forward { to, next },
            };
        }
        if (hid as usize) >= self.base.header_count() {
            return HealedDecision::Invalid;
        }
        match self.base.decide(at, hid) {
            Decision::Deliver => HealedDecision::Deliver,
            Decision::Forward { port, next } => match self.base.neighbor(at, port) {
                Some(to) => HealedDecision::Forward { to, next },
                None => HealedDecision::Invalid,
            },
            Decision::Invalid => HealedDecision::Invalid,
        }
    }

    /// Observes `graph` through `source` (a no-op when the latest
    /// [`observe`](Self::observe) already saw it), then re-traces every
    /// dirty pair through the live `scheme` on `graph`. Dirty pairs that
    /// re-trace successfully leave the fallback path; pairs the new
    /// topology cannot route become loudly unroutable. The pass patches
    /// only the dirty pairs and falls back to a full recompile only when
    /// every pair is dirty or the dirty set exceeds
    /// [`RepairPolicy::max_dirty_fraction`] (a *forced* rebuild, flagged
    /// in [`RepairStats::forced_rebuild`] and emitted as a
    /// `heal.rebuild.forced` event).
    ///
    /// The whole pass runs under a `heal.repair` span whose close event
    /// carries the repair outcome, and the registry accumulates
    /// `heal.repairs` / `heal.repaired_pairs` / `heal.unroutable_pairs`
    /// counters plus a `heal.dirty_pairs` histogram of per-pass dirty-set
    /// sizes — all logical quantities, so snapshots stay deterministic;
    /// with [`RepairPolicy::record_budget_ms`] the pass's wall-clock
    /// lands in a `heal.repair_budget_ms` gauge.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]: the live scheme misdelivering or looping
    /// during a re-trace aborts the repair with the pair's error.
    pub fn repair(
        &mut self,
        scheme: &S,
        graph: &Graph,
        source: DirtySource<'_>,
        policy: &RepairPolicy,
        obs: &cpr_obs::Obs,
    ) -> Result<RepairStats, CompileError> {
        let start = Instant::now();
        let span = obs.span(
            "heal.repair",
            &[("epoch", cpr_obs::Json::int(self.counters.epoch))],
        );
        self.observe(graph, source)?;
        let n = self.base.node_count();
        let all_pairs = n * n - n;
        let forced = n > 1
            && self.dirty.len() < all_pairs
            && self.dirty.len() as f64 > policy.max_dirty_fraction * all_pairs as f64;
        if forced {
            obs.event(
                "heal.rebuild.forced",
                &[
                    ("dirty_pairs", cpr_obs::Json::int(self.dirty.len())),
                    ("total_pairs", cpr_obs::Json::int(all_pairs)),
                ],
            );
        }
        let stats = if n > 1 && (forced || self.dirty.len() == all_pairs) {
            self.rebuild(scheme, graph, forced)?
        } else {
            self.patch_dirty(scheme, graph)?
        };
        record_repair_obs(&stats, &span, obs);
        if policy.record_budget_ms {
            obs.set_gauge("heal.repair_budget_ms", start.elapsed().as_millis() as i64);
        }
        Ok(stats)
    }

    /// [`repair`](Self::repair) with the dirty set bounded by `oracle`
    /// and nothing recorded.
    ///
    /// # Errors
    ///
    /// Same as [`repair`](Self::repair).
    pub fn repair_with(
        &mut self,
        scheme: &S,
        graph: &Graph,
        oracle: &mut dyn DeltaOracle,
        policy: &RepairPolicy,
    ) -> Result<RepairStats, CompileError> {
        self.repair(
            scheme,
            graph,
            DirtySource::Oracle(oracle),
            policy,
            &cpr_obs::Obs::disabled(),
        )
    }

    /// Recompiles the base plane from scratch, preserving the cumulative
    /// counters and resetting the patch layer.
    fn rebuild(
        &mut self,
        scheme: &S,
        graph: &Graph,
        forced: bool,
    ) -> Result<RepairStats, CompileError> {
        let dirty_pairs = self.dirty.len();
        let rebuilt = Self::new(scheme, graph)?;
        let counters = HealthCounters {
            repairs: self.counters.repairs + 1,
            full_rebuilds: self.counters.full_rebuilds + 1,
            ..self.counters
        };
        *self = rebuilt;
        self.counters = counters;
        Ok(RepairStats {
            epoch: self.counters.epoch,
            dirty_pairs,
            repaired_pairs: dirty_pairs,
            unroutable_pairs: 0,
            patched_states: 0,
            full_rebuild: true,
            forced_rebuild: forced,
        })
    }

    /// Re-traces every dirty pair into the patch layer (the incremental
    /// path — no recompile).
    fn patch_dirty(&mut self, scheme: &S, graph: &Graph) -> Result<RepairStats, CompileError> {
        let dirty_pairs = self.dirty.len();
        let budget = self.base.hop_budget();
        let mut repaired = 0usize;
        let mut unroutable = 0usize;
        let pairs: Vec<(NodeId, NodeId)> = self.dirty.iter().copied().collect();
        for (s, t) in pairs {
            let Some(h0) = scheme.initial_header(s, t) else {
                self.initial_patch.insert((s, t), None);
                unroutable += 1;
                continue;
            };
            let mut hid = self.intern.intern(h0.clone())?;
            self.initial_patch.insert((s, t), Some(hid));
            let mut h = h0;
            let mut at = s;
            let mut hops = 0usize;
            loop {
                match scheme.step(at, &h) {
                    RouteAction::Deliver => {
                        if at != t {
                            return Err(CompileError::Misdelivery {
                                source: s,
                                target: t,
                                delivered: at,
                            });
                        }
                        self.patch.insert((at, hid), PatchStep::Deliver);
                        break;
                    }
                    RouteAction::Forward { port, header } => {
                        let Some((to, _)) = graph.neighbor_at(at, port) else {
                            return Err(CompileError::Route {
                                source: s,
                                target: t,
                                error: RouteError::BadPort { at, port },
                            });
                        };
                        let next = self.intern.intern(header.clone())?;
                        self.patch
                            .insert((at, hid), PatchStep::Forward { to, next });
                        at = to;
                        hid = next;
                        h = header;
                        hops += 1;
                        if hops > budget {
                            return Err(CompileError::Route {
                                source: s,
                                target: t,
                                error: RouteError::HopBudgetExhausted {
                                    visited: Vec::new(),
                                },
                            });
                        }
                    }
                }
            }
            repaired += 1;
        }
        self.dirty.clear();
        self.counters.repairs += 1;
        self.counters.incremental_repairs += 1;
        Ok(RepairStats {
            epoch: self.counters.epoch,
            dirty_pairs,
            repaired_pairs: repaired,
            unroutable_pairs: unroutable,
            patched_states: self.patch.len(),
            full_rebuild: false,
            forced_rebuild: false,
        })
    }

    /// Routes one query through the healed plane: dirty pairs fall back
    /// to the live scheme, everything else walks the patch-over-base
    /// arrays with every base hop checked against the live edge set —
    /// a stale hop surfaces as [`RouteError::BadPort`], never silently.
    ///
    /// # Errors
    ///
    /// The same [`RouteError`]s as [`ForwardingPlane::walk`], plus
    /// `BadPort` for a stale base hop caught by the live-edge check.
    pub fn route(
        &mut self,
        scheme: &S,
        graph: &Graph,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError> {
        match self.lookup(scheme, graph, source, target) {
            Ok((path, served)) => {
                match served {
                    Served::Compiled => self.counters.compiled += 1,
                    Served::Degraded => self.counters.degraded += 1,
                    Served::Fallback => self.counters.fallback += 1,
                }
                Ok((path, served))
            }
            Err(e) => {
                self.counters.failed += 1;
                Err(e)
            }
        }
    }

    /// [`route`](Self::route) without the counter updates: a `&self`
    /// read-only lookup, safe to share across serving threads. This is
    /// the hot path of the `cpr-serve` daemon, which publishes a healed
    /// plane snapshot behind an `Arc` and counts queries on its own side.
    ///
    /// # Errors
    ///
    /// Same as [`route`](Self::route).
    pub fn lookup(
        &self,
        scheme: &S,
        graph: &Graph,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError> {
        if self.dirty.contains(&(source, target)) {
            return cpr_routing::route(scheme, graph, source, target)
                .map(|path| (path, Served::Fallback));
        }
        self.walk_healed(source, target).map(|(path, degraded)| {
            if degraded {
                (path, Served::Degraded)
            } else {
                (path, Served::Compiled)
            }
        })
    }

    fn walk_healed(
        &self,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, bool), RouteError> {
        let Some(mut hid) = self.initial_of(source, target) else {
            return Err(RouteError::Unroutable { source, target });
        };
        let mut at = source;
        let mut visited = vec![source];
        let mut degraded = false;
        loop {
            let from_patch = self.patch.contains_key(&(at, hid));
            match self.healed_decide(at, hid) {
                HealedDecision::Deliver => return Ok((visited, degraded)),
                HealedDecision::Forward { to, next } => {
                    if !from_patch && !self.current_edges.contains(&norm(at, to)) {
                        // The base arrays point at an edge that no longer
                        // exists and the pair escaped the dirty set — fail
                        // loudly rather than forward onto a dead link.
                        let port = match self.base.decide(at, hid) {
                            Decision::Forward { port, .. } => port,
                            _ => 0,
                        };
                        return Err(RouteError::BadPort { at, port });
                    }
                    degraded |= from_patch;
                    at = to;
                    hid = next;
                    visited.push(at);
                    if visited.len() > self.base.hop_budget() {
                        return Err(RouteError::HopBudgetExhausted { visited });
                    }
                }
                HealedDecision::Invalid => return Err(RouteError::Unroutable { source, target }),
            }
        }
    }

    /// Serves a batch through [`route`](Self::route), producing a
    /// [`ServeReport`] whose `degraded` / `fallback` counters are
    /// filled in (a plain [`serve`](crate::engine::serve) always
    /// reports them as zero). The batch is recorded into `obs`: a
    /// `heal.serve.hops` latency histogram over delivered queries,
    /// `heal.serve.*` counters split by how each query was answered
    /// (compiled / degraded / fallback / failed), a mirror of the
    /// cumulative [`HealthCounters`] as `heal.health.*` gauges, and a
    /// trace event carrying the batch's wall-clock time (tracer only).
    pub fn serve(
        &mut self,
        scheme: &S,
        graph: &Graph,
        queries: &[(NodeId, NodeId)],
        obs: &cpr_obs::Obs,
    ) -> ServeReport {
        let start = Instant::now();
        let mut report = ServeReport {
            scheme: self.base.scheme().to_string(),
            queries: queries.len(),
            shards: 1,
            delivered: 0,
            failures: Vec::new(),
            total_hops: 0,
            max_hops: 0,
            elapsed: std::time::Duration::ZERO,
            stretch: None,
            degraded: 0,
            fallback: 0,
        };
        for &(source, target) in queries {
            match self.route(scheme, graph, source, target) {
                Ok((path, served)) => {
                    let hops = path.len().saturating_sub(1);
                    report.delivered += 1;
                    report.total_hops += hops as u64;
                    report.max_hops = report.max_hops.max(hops);
                    obs.record("heal.serve.hops", hops as u64);
                    match served {
                        Served::Compiled => obs.incr("heal.serve.compiled"),
                        Served::Degraded => {
                            report.degraded += 1;
                            obs.incr("heal.serve.degraded");
                        }
                        Served::Fallback => {
                            report.fallback += 1;
                            obs.incr("heal.serve.fallback");
                        }
                    }
                }
                Err(error) => {
                    obs.incr("heal.serve.failed");
                    report.failures.push(QueryFailure {
                        source,
                        target,
                        error,
                    });
                }
            }
        }
        report.elapsed = start.elapsed();
        obs.add("heal.serve.queries", queries.len() as u64);
        self.record_health(obs);
        obs.event(
            "heal.serve",
            &[
                ("queries", cpr_obs::Json::int(queries.len())),
                ("delivered", cpr_obs::Json::int(report.delivered)),
                ("micros", cpr_obs::Json::int(report.elapsed.as_micros())),
            ],
        );
        report
    }

    /// Mirrors the cumulative [`HealthCounters`] into `obs` as
    /// `heal.health.*` gauges, so a registry snapshot carries the
    /// plane's current health alongside the per-batch counters.
    pub fn record_health(&self, obs: &cpr_obs::Obs) {
        let c = self.counters;
        obs.set_gauge("heal.health.compiled", c.compiled as i64);
        obs.set_gauge("heal.health.degraded", c.degraded as i64);
        obs.set_gauge("heal.health.fallback", c.fallback as i64);
        obs.set_gauge("heal.health.failed", c.failed as i64);
        obs.set_gauge("heal.health.repairs", c.repairs as i64);
        obs.set_gauge(
            "heal.health.incremental_repairs",
            c.incremental_repairs as i64,
        );
        obs.set_gauge("heal.health.full_rebuilds", c.full_rebuilds as i64);
        obs.set_gauge("heal.health.epoch", c.epoch as i64);
    }
}

/// Shared outcome recording of a repair pass: the `heal.repair` span's
/// close event plus the registry counters and the `heal.dirty_pairs`
/// histogram.
fn record_repair_obs(stats: &RepairStats, span: &cpr_obs::Span<'_>, obs: &cpr_obs::Obs) {
    span.event(
        "heal.repair.done",
        &[
            ("dirty_pairs", cpr_obs::Json::int(stats.dirty_pairs)),
            ("repaired_pairs", cpr_obs::Json::int(stats.repaired_pairs)),
            (
                "unroutable_pairs",
                cpr_obs::Json::int(stats.unroutable_pairs),
            ),
            ("patched_states", cpr_obs::Json::int(stats.patched_states)),
            ("full_rebuild", cpr_obs::Json::Bool(stats.full_rebuild)),
        ],
    );
    obs.incr("heal.repairs");
    obs.add("heal.repaired_pairs", stats.repaired_pairs as u64);
    obs.add("heal.unroutable_pairs", stats.unroutable_pairs as u64);
    obs.record("heal.dirty_pairs", stats.dirty_pairs as u64);
    if stats.full_rebuild {
        obs.incr("heal.full_rebuilds");
    } else {
        obs.incr("heal.incremental_repairs");
    }
}

/// A patched-or-base decision with the next node already resolved.
#[derive(Clone, Copy, Debug)]
enum HealedDecision {
    Deliver,
    Forward { to: NodeId, next: u32 },
    Invalid,
}
