//! A self-healing forwarding plane.
//!
//! A compiled [`ForwardingPlane`] is a snapshot: the moment a link dies
//! the plane's CSR adjacency and transition arrays describe a topology
//! that no longer exists, and a plain walk of its core would forward
//! packets onto the dead link — silently. This module makes staleness
//! *detectable*, *repairable* and *survivable*:
//!
//! * **Detect** — every plane records a [`graph_digest`] of the topology
//!   it was compiled against ([`ForwardingPlane::is_current_for`]), and
//!   [`SelfHealingPlane::observe`] diffs the live graph's edge set
//!   against the plane's view (or takes the [`EdgeDelta`] a
//!   [`MultiPlane`](crate::MultiPlane) computed once for all its
//!   classes), bumping a topology epoch and computing exactly which
//!   `(source, target)` pairs a removed link dirties (by walking their
//!   compiled paths — a pair whose walk never crossed the link is
//!   untouched). The dirty set and the served edge set are dense
//!   `n × n` bit sets: a closure walk probes them once per hop.
//! * **Repair** — [`SelfHealingPlane::repair`] re-traces only the dirty
//!   pairs through the live scheme on the *new* graph, extending the
//!   header intern space as needed, and installs the re-verified steps
//!   in a repair overlay that overrides the base arrays. Where the dirty
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
//!   over an edge absent from the current topology: every hop is
//!   checked against the live edge set, and a stale one surfaces as
//!   [`RouteError::BadPort`] if the arrays try — a loud failure, never a
//!   silently wrong hop.
//! * **Publish** — [`SelfHealingPlane::published`] shares the base
//!   arrays and the repair overlay (behind an `Arc`) with a serving
//!   snapshot; no scheme, interner or map is copied. A repair writes the
//!   overlay through `Arc::make_mut` — a copy only while a snapshot still
//!   holds the old one — and a rebuild drops it. A snapshot consults no
//!   scheme: a pair dirty when published (only after a failed repair)
//!   answers [`RouteError::AwaitingRepair`], and every hop is checked
//!   against the snapshot's own edge set. One sink-driven healed walk
//!   serves every entry, allocation-free into a caller's buffer. Twelve
//!   classes at n = 512 publish in 3 569 heap bytes and 3–5 µs (2-core
//!   Xeon VM), fresh or after a repair.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_graph::{Graph, NodeId};
use cpr_paths::{DeltaOracle, DirtyPairs};
use cpr_routing::{RouteAction, RouteError, RoutingScheme};

use crate::compile::{compile_with_intern, graph_digest, CompileError, ForwardingPlane, Interner};
use crate::engine::{QueryFailure, ServeReport, WalkStop, CORE_DELIVER, CORE_INVALID};
use crate::pairset::PairSet;

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

/// The edge delta between the topology a plane (or a whole
/// [`MultiPlane`](crate::MultiPlane)) serves and a newly observed one
/// over the same node set: computed once per event and handed to every
/// class, instead of each class rebuilding and diffing the edge sets for
/// itself. Edges are normalized `(min, max)` in ascending order.
#[derive(Clone, Debug)]
pub struct EdgeDelta {
    /// [`graph_digest`] of the topology the delta starts from. A plane
    /// applies a handed-down delta only when this is the digest it
    /// serves; otherwise it diffs for itself.
    from_digest: u64,
    /// [`graph_digest`] of the observed topology.
    to_digest: u64,
    removed: Vec<(NodeId, NodeId)>,
    added: Vec<(NodeId, NodeId)>,
}

impl EdgeDelta {
    /// Diffs `graph` against the edge set `served` (whose digest is
    /// `served_digest`).
    pub(crate) fn diff(served: &PairSet, served_digest: u64, graph: &Graph) -> Self {
        let observed = PairSet::of_edges(graph);
        EdgeDelta {
            from_digest: served_digest,
            to_digest: graph_digest(graph),
            removed: served
                .iter()
                .filter(|&(u, v)| !observed.contains(u, v))
                .collect(),
            added: observed
                .iter()
                .filter(|&(u, v)| !served.contains(u, v))
                .collect(),
        }
    }

    /// [`graph_digest`] of the topology the delta starts from.
    pub(crate) fn start_digest(&self) -> u64 {
        self.from_digest
    }

    /// Edges served before that the observed topology lacks.
    pub fn removed(&self) -> &[(NodeId, NodeId)] {
        &self.removed
    }

    /// Edges of the observed topology not served before.
    pub fn added(&self) -> &[(NodeId, NodeId)] {
        &self.added
    }

    /// [`graph_digest`] of the observed topology.
    pub(crate) fn to_digest(&self) -> u64 {
        self.to_digest
    }

    /// `true` when the two topologies have the same edge set.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// A repaired transition: the resolved *node* is stored rather than a
/// port, because port numbering in the base plane's CSR snapshot refers
/// to the old topology.
#[derive(Clone, Copy, Debug)]
enum PatchStep {
    Deliver,
    Forward { to: NodeId, next: u32 },
}

/// A repair's output, consulted before the base arrays: the
/// transitions and initial headers re-traced on the new topology. Never
/// empty — a plane without repaired entries holds no overlay.
#[derive(Clone, Debug, Default)]
pub(crate) struct Overlay {
    /// Repaired transitions, keyed by `(node, interned header id)`.
    patch: HashMap<(NodeId, u32), PatchStep>,
    /// Repaired initial-header ids (`None` = pair became unroutable).
    initial: HashMap<(NodeId, NodeId), Option<u32>>,
}

/// A [`ForwardingPlane`] wrapped with topology-drift detection, an
/// incremental repair layer and live-scheme fallback. See module docs.
pub struct SelfHealingPlane<S: RoutingScheme> {
    base: ForwardingPlane,
    intern: Interner<S::Header>,
    /// The edge set (normalized `(min, max)`) the plane currently
    /// serves; updated by [`observe`](Self::observe).
    current_edges: PairSet,
    current_digest: u64,
    /// The repair overlay, shared with every published snapshot that
    /// holds it (see [`published`](Self::published)).
    overlay: Option<Arc<Overlay>>,
    /// Pairs observed stale and not yet repaired, one bit per ordered
    /// pair; iterated in ascending `(source, target)` order so repair
    /// passes (and thus header-id assignment) are deterministic.
    dirty: PairSet,
    counters: HealthCounters,
}

/// What a serving snapshot holds of one healed plane
/// ([`SelfHealingPlane::published`]): the base plane, whose arrays are
/// `Arc`-shared, and the frozen repair overlay. It is served against the
/// snapshot's one edge set ([`MultiSnapshot`](crate::MultiSnapshot)).
#[derive(Clone, Debug)]
pub struct PublishedPlane {
    base: ForwardingPlane,
    overlay: Option<Arc<Overlay>>,
    /// Pairs awaiting repair — `Some` only when the latest repair failed;
    /// they answer [`RouteError::AwaitingRepair`].
    pub(crate) awaiting: Option<PairSet>,
    /// Whether every pair walks the flat core as compiled: no overlay, no
    /// pair awaiting repair, and the base compiled for the served
    /// topology.
    pub(crate) on_core: bool,
}

impl PublishedPlane {
    /// The healed walk over the topology whose edge set is `edges`.
    fn healed<'a>(&'a self, edges: &'a PairSet) -> Healed<'a> {
        Healed {
            base: &self.base,
            overlay: self.overlay.as_deref(),
            awaiting: self.awaiting.as_ref(),
            edges,
        }
    }

    /// Routes `source → target` over the topology whose edge set is
    /// `edges`: the flat core when `on_core`, the healed walk otherwise.
    pub(crate) fn lookup(
        &self,
        edges: &PairSet,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError> {
        if self.on_core {
            return self
                .base
                .walk(source, target)
                .map(|p| (p, Served::Compiled));
        }
        self.healed(edges).walk(source, target)
    }

    /// [`lookup`](Self::lookup) appending the node sequence to `out` and
    /// returning the hop count; allocates nothing once `out` has grown.
    pub(crate) fn walk_into(
        &self,
        edges: &PairSet,
        source: NodeId,
        target: NodeId,
        out: &mut Vec<u32>,
    ) -> Result<u32, RouteError> {
        if self.on_core {
            return self.base.core().walk_into(source, target, out);
        }
        self.healed(edges).walk_into(source, target, out)
    }
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
            current_edges: PairSet::of_edges(graph),
            current_digest: graph_digest(graph),
            overlay: None,
            dirty: PairSet::new(graph.node_count()),
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
        self.overlay
            .as_ref()
            .map_or(0, |o| o.patch.len() + o.initial.len())
    }

    /// What a serving snapshot of the topology whose [`graph_digest`] is
    /// `digest` holds of the plane: the base plane and the repair overlay,
    /// shared rather than copied (see the module docs). Pairs still dirty
    /// travel only after a failed repair. The flat core serves only a
    /// base compiled for that topology — not one that a failed
    /// multi-class reconcile moved to another.
    pub fn published(&self, digest: u64) -> PublishedPlane {
        PublishedPlane {
            base: self.base.clone(),
            overlay: self.overlay.clone(),
            awaiting: (!self.dirty.is_empty()).then(|| self.dirty.clone()),
            on_core: self.overlay.is_none()
                && self.dirty.is_empty()
                && self.base.topology_digest() == digest,
        }
    }

    /// The healed walk over this plane's overlay and edge set.
    fn healed(&self) -> Healed<'_> {
        Healed {
            base: &self.base,
            overlay: self.overlay.as_deref(),
            awaiting: None,
            edges: &self.current_edges,
        }
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
        self.observe_delta(graph, None, source)
    }

    /// [`observe`](Self::observe), taking the edge delta from `handed`
    /// when it starts at the topology this plane serves (a
    /// [`MultiPlane`](crate::MultiPlane) computes one per event for all
    /// its classes) and diffing for itself otherwise.
    fn observe_delta(
        &mut self,
        graph: &Graph,
        handed: Option<&EdgeDelta>,
        source: DirtySource<'_>,
    ) -> Result<StaleReport, CompileError> {
        let n = self.base.node_count();
        if graph.node_count() != n {
            return Err(CompileError::NodeCountMismatch {
                scheme: n,
                graph: graph.node_count(),
            });
        }
        let own;
        let delta = match handed {
            Some(delta) if delta.from_digest == self.current_digest => delta,
            _ => {
                own = EdgeDelta::diff(&self.current_edges, self.current_digest, graph);
                &own
            }
        };
        let expected_digest = self.current_digest;
        let stale = !delta.is_empty();
        if stale {
            self.counters.epoch += 1;
            match source {
                DirtySource::Walks if delta.added.is_empty() => {
                    let removed = PairSet::from_pairs(n, delta.removed.iter().copied());
                    self.mark_closure(Closure::Crosses(&removed));
                }
                // A new link can improve any pair: all dirty.
                DirtySource::Walks => self.mark_dirty(&DirtyPairs::All),
                DirtySource::Oracle(oracle) => self.mark_dirty(&oracle.affected_pairs(graph)),
                DirtySource::Pairs(affected) => self.mark_dirty(affected),
            }
            for &(u, v) in &delta.removed {
                self.current_edges.remove(u, v);
            }
            for &(u, v) in &delta.added {
                self.current_edges.insert(u, v);
            }
            self.current_digest = delta.to_digest;
        }
        // When nothing moved the cached digest serves for both sides.
        Ok(StaleReport {
            stale,
            expected_digest,
            observed_digest: self.current_digest,
            removed_edges: delta.removed.clone(),
            added_edges: delta.added.clone(),
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
            DirtyPairs::All => self.dirty.fill_off_diagonal(),
            DirtyPairs::Pairs(affected) => {
                let affected =
                    PairSet::from_pairs(self.base.node_count(), affected.iter().copied());
                self.mark_closure(Closure::Touches(&affected));
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

    /// Dirties every ordered pair whose healed walk — over the plane's
    /// *current*, pre-delta view, which is exactly the route whose
    /// survival is in question — `rule` selects. A walk that cannot be
    /// decided (an invalid state, a cycle, or more hops than the budget)
    /// is conservatively dirty — "more hops" by the rule of
    /// [`cpr_routing::route`]: a walk of `hop_budget` hops fails when
    /// served, so it is dirty too. A pair with no initial header stays as
    /// it is (one that becomes routable is in the affected set itself).
    ///
    /// Walks are deterministic and share suffixes, so the pass runs per
    /// target with one memo entry per `(node, header id)` state — its
    /// hops to delivery, or that its suffix hits — and walks every state
    /// at most once per target instead of once per pair through it. The
    /// dirty set is identical to walking every pair on its own.
    fn mark_closure(&mut self, rule: Closure<'_>) {
        let n = self.base.node_count();
        let mut newly = Vec::new();
        CLOSURE_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            memo.begin(n, self.intern.order.len());
            for t in 0..n {
                memo.next_target();
                for s in (0..n).filter(|&s| s != t) {
                    if self.dirty.contains(s, t) {
                        continue;
                    }
                    if rule.pair_hit(s, t) {
                        newly.push((s, t));
                        continue;
                    }
                    let Some(hid) = self.healed().initial_of(s, t) else {
                        continue;
                    };
                    let hops = self.walk_memo(&mut memo, rule, s, hid, t);
                    if hops == MEMO_HIT || (hops - 1) as usize >= self.base.hop_budget() {
                        newly.push((s, t));
                    }
                }
            }
        });
        for (s, t) in newly {
            self.dirty.insert(s, t);
        }
    }

    /// The memo value of state `(at, hid)` toward `t`: [`MEMO_HIT`] when
    /// its walk hits under `rule` or cannot be decided, else one more than
    /// its hops to delivery (capped just past the hop budget). Walks
    /// forward to the first known state, then fills the path back.
    fn walk_memo(
        &self,
        memo: &mut ClosureMemo,
        rule: Closure<'_>,
        mut at: NodeId,
        mut hid: u32,
        t: NodeId,
    ) -> u32 {
        let cap = self.base.hop_budget() as u32 + 2;
        memo.path.clear();
        let last = loop {
            let cell = memo.cell(hid, at);
            match memo.cells[cell] {
                MEMO_UNSEEN => {}
                // Back on this walk's own path: a forwarding loop.
                MEMO_ON_PATH => break MEMO_HIT,
                known if memo.path.is_empty() => return known,
                known => break bump(known, cap),
            }
            memo.set(cell, MEMO_ON_PATH);
            memo.path.push(cell);
            match self.healed().decide(at, hid) {
                Some((PatchStep::Deliver, _)) => break 1,
                None => break MEMO_HIT,
                Some((PatchStep::Forward { to, next }, _)) => {
                    if rule.step_hit(at, to, t) {
                        break MEMO_HIT;
                    }
                    at = to;
                    hid = next;
                }
            }
        };
        // `last` belongs to the last state pushed; each earlier one is a
        // hop further from delivery.
        let Some(&first) = memo.path.first() else {
            return last;
        };
        let mut value = last;
        while let Some(cell) = memo.path.pop() {
            memo.set(cell, value);
            value = bump(value, cap);
        }
        memo.cells[first]
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
        self.repair_delta(scheme, graph, None, source, policy, obs)
            .map(|(stats, _)| stats)
    }

    /// [`repair`](Self::repair) with the event's edge delta handed down
    /// (see [`EdgeDelta`]); `None` makes the plane diff for itself. Also
    /// returns the wall-clock the observe step took.
    pub(crate) fn repair_delta(
        &mut self,
        scheme: &S,
        graph: &Graph,
        delta: Option<&EdgeDelta>,
        source: DirtySource<'_>,
        policy: &RepairPolicy,
        obs: &cpr_obs::Obs,
    ) -> Result<(RepairStats, Duration), CompileError> {
        let start = Instant::now();
        let span = obs.span(
            "heal.repair",
            &[("epoch", cpr_obs::Json::int(self.counters.epoch))],
        );
        self.observe_delta(graph, delta, source)?;
        let observed = start.elapsed();
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
        Ok((stats, observed))
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
    /// path — no recompile). The dirty set survives a failed pass.
    fn patch_dirty(&mut self, scheme: &S, graph: &Graph) -> Result<RepairStats, CompileError> {
        let dirty = std::mem::take(&mut self.dirty);
        let traced = self.retrace(scheme, graph, &dirty);
        self.dirty = dirty;
        // A pass that failed before its first entry leaves no overlay.
        self.overlay = self
            .overlay
            .take()
            .filter(|o| !o.patch.is_empty() || !o.initial.is_empty());
        let (repaired, unroutable) = traced?;
        let dirty_pairs = self.dirty.len();
        self.dirty.clear();
        self.counters.repairs += 1;
        self.counters.incremental_repairs += 1;
        Ok(RepairStats {
            epoch: self.counters.epoch,
            dirty_pairs,
            repaired_pairs: repaired,
            unroutable_pairs: unroutable,
            patched_states: self.overlay.as_ref().map_or(0, |o| o.patch.len()),
            full_rebuild: false,
            forced_rebuild: false,
        })
    }

    /// Traces `pairs`, in ascending `(source, target)` order, through
    /// the live `scheme` on `graph` into the overlay — copying it first
    /// only when a published snapshot still holds it — and returns the
    /// `(repaired, unroutable)` pair counts. A route of `hop_budget` hops
    /// fails the pass, the rule of [`cpr_routing::route`] that every walk
    /// serves by.
    fn retrace(
        &mut self,
        scheme: &S,
        graph: &Graph,
        pairs: &PairSet,
    ) -> Result<(usize, usize), CompileError> {
        if pairs.is_empty() {
            return Ok((0, 0));
        }
        let budget = self.base.hop_budget();
        let overlay = Arc::make_mut(self.overlay.get_or_insert_with(Arc::default));
        let mut repaired = 0usize;
        let mut unroutable = 0usize;
        for (s, t) in pairs.iter() {
            let Some(h0) = scheme.initial_header(s, t) else {
                overlay.initial.insert((s, t), None);
                unroutable += 1;
                continue;
            };
            let mut hid = self.intern.intern(h0.clone())?;
            overlay.initial.insert((s, t), Some(hid));
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
                        overlay.patch.insert((at, hid), PatchStep::Deliver);
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
                        overlay
                            .patch
                            .insert((at, hid), PatchStep::Forward { to, next });
                        at = to;
                        hid = next;
                        h = header;
                        hops += 1;
                        if hops >= budget {
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
        Ok((repaired, unroutable))
    }

    /// Routes one query through the healed plane: dirty pairs fall back
    /// to the live scheme, everything else walks the patch-over-base
    /// arrays with every hop checked against the live edge set —
    /// a stale hop surfaces as [`RouteError::BadPort`], never silently.
    ///
    /// # Errors
    ///
    /// The same [`RouteError`]s as [`ForwardingPlane::walk`], plus
    /// `BadPort` for a stale hop caught by the live-edge check.
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
    /// read-only lookup. A serving snapshot takes
    /// [`published`](Self::published) instead and consults no scheme.
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
        if self.dirty.contains(source, target) {
            return cpr_routing::route(scheme, graph, source, target)
                .map(|path| (path, Served::Fallback));
        }
        self.healed().walk(source, target)
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

/// The one healed walk, over a base plane, its repair overlay, the pairs
/// it must refuse as awaiting repair and the edge set every hop is
/// checked against.
#[derive(Clone, Copy)]
struct Healed<'a> {
    base: &'a ForwardingPlane,
    overlay: Option<&'a Overlay>,
    awaiting: Option<&'a PairSet>,
    edges: &'a PairSet,
}

impl Healed<'_> {
    /// The pair's initial header id, the overlay first.
    fn initial_of(self, s: NodeId, t: NodeId) -> Option<u32> {
        match self.overlay.and_then(|o| o.initial.get(&(s, t))) {
            Some(over) => *over,
            None => self.base.initial_id(s, t),
        }
    }

    /// One decision with the next node resolved, and whether the overlay
    /// made it; `None` for an invalid state. The base core answers only
    /// for header ids it knows — repairs may intern ids past its table.
    fn decide(self, at: NodeId, hid: u32) -> Option<(PatchStep, bool)> {
        if let Some(step) = self.overlay.and_then(|o| o.patch.get(&(at, hid))) {
            return Some((*step, true));
        }
        if (hid as usize) >= self.base.header_count() {
            return None;
        }
        match self.base.core().step(at as u32, hid) {
            (CORE_DELIVER, _) => Some((PatchStep::Deliver, false)),
            (CORE_INVALID, _) => None,
            (to, next) => Some((
                PatchStep::Forward {
                    to: to as NodeId,
                    next,
                },
                false,
            )),
        }
    }

    /// Walks `source → target`, handing every visited node, source first,
    /// to `visit`; returns the hop count and whether an overlay step was
    /// taken. A hop onto an edge outside the edge set fails loudly on the
    /// port the compiled adjacency knew it by, and a walk fails
    /// once it has taken `hop_budget` hops, the rule of
    /// [`cpr_routing::route`].
    fn walk_each(
        self,
        source: NodeId,
        target: NodeId,
        mut visit: impl FnMut(NodeId),
    ) -> Result<(u32, bool), WalkStop> {
        if self
            .awaiting
            .is_some_and(|dirty| dirty.contains(source, target))
        {
            return Err(WalkStop::AwaitingRepair);
        }
        let mut hid = self
            .initial_of(source, target)
            .ok_or(WalkStop::Unroutable)?;
        let (mut at, mut hops, mut degraded) = (source, 0u32, false);
        visit(at);
        loop {
            match self.decide(at, hid).ok_or(WalkStop::Unroutable)? {
                (PatchStep::Deliver, _) => return Ok((hops, degraded)),
                (PatchStep::Forward { to, next }, patched) => {
                    if !self.edges.contains(at.min(to), at.max(to)) {
                        let port = self.base.port_to(at, to).unwrap_or_default();
                        return Err(WalkStop::DeadLink { at, port });
                    }
                    degraded |= patched;
                    (at, hid) = (to, next);
                    hops += 1;
                    visit(at);
                    if hops as usize >= self.base.hop_budget() {
                        return Err(WalkStop::Exhausted);
                    }
                }
            }
        }
    }

    /// The walk as a node sequence.
    fn walk(self, source: NodeId, target: NodeId) -> Result<(Vec<NodeId>, Served), RouteError> {
        let mut path = Vec::new();
        match self.walk_each(source, target, |v| path.push(v)) {
            Ok((_, false)) => Ok((path, Served::Compiled)),
            Ok((_, true)) => Ok((path, Served::Degraded)),
            Err(stop) => Err(stop.into_error(source, target, path)),
        }
    }

    /// The walk appended to `out` as wire-width ids; on error `out` is
    /// left as it was passed in.
    fn walk_into(
        self,
        source: NodeId,
        target: NodeId,
        out: &mut Vec<u32>,
    ) -> Result<u32, RouteError> {
        let start = out.len();
        match self.walk_each(source, target, |v| out.push(v as u32)) {
            Ok((hops, _)) => Ok(hops),
            Err(stop) => {
                let visited = out.drain(start..).map(|v| v as NodeId).collect();
                Err(stop.into_error(source, target, visited))
            }
        }
    }
}

/// The rule a dirty-set closure walks by; see
/// [`SelfHealingPlane::mark_closure`].
#[derive(Clone, Copy)]
enum Closure<'a> {
    /// Dirty when the pair is affected itself, or its walk enters a node
    /// (other than the target) owning an affected pair toward the target.
    Touches(&'a PairSet),
    /// Dirty when the walk crosses a removed edge.
    Crosses(&'a PairSet),
}

impl Closure<'_> {
    fn pair_hit(self, s: NodeId, t: NodeId) -> bool {
        matches!(self, Closure::Touches(affected) if affected.contains(s, t))
    }

    fn step_hit(self, at: NodeId, to: NodeId, t: NodeId) -> bool {
        match self {
            Closure::Touches(affected) => to != t && affected.contains(to, t),
            Closure::Crosses(removed) => removed.contains(at.min(to), at.max(to)),
        }
    }
}

/// Memo value: state not walked toward the current target yet.
const MEMO_UNSEEN: u32 = 0;
/// Memo value: state on the walk in progress.
const MEMO_ON_PATH: u32 = u32::MAX;
/// Memo value: the walk from this state hits, or cannot be decided.
const MEMO_HIT: u32 = u32::MAX - 1;

/// One hop further from delivery; hits stay hits, and counts stop just
/// past the hop budget (`cap`), where every pair is dirty anyway.
fn bump(value: u32, cap: u32) -> u32 {
    if value == MEMO_HIT {
        MEMO_HIT
    } else {
        (value + 1).min(cap)
    }
}

/// The dirty-set closure's memo, for one target at a time: a row of `n`
/// four-byte cells per header id the target's walks use, assigned on
/// first sight. Cells written are reset when the next target starts, so
/// a pass costs the states it walks, and the buffer stays a few rows. One
/// buffer per thread serves every plane and class.
#[derive(Default)]
struct ClosureMemo {
    n: usize,
    /// `row[hid]`: the header's row for the current target, valid where
    /// `stamp[hid] == target`.
    row: Vec<u32>,
    stamp: Vec<u32>,
    target: u32,
    rows: usize,
    /// `rows × n` cells, [`MEMO_UNSEEN`] outside the current target.
    cells: Vec<u32>,
    written: Vec<usize>,
    /// Cells of the walk in progress.
    path: Vec<usize>,
}

impl ClosureMemo {
    /// Readies the memo for a plane of `n` nodes and `headers` header
    /// ids.
    fn begin(&mut self, n: usize, headers: usize) {
        self.next_target();
        if self.n != n {
            self.n = n;
            self.cells.clear();
        }
        if self.row.len() < headers {
            self.row.resize(headers, 0);
            self.stamp.resize(headers, 0);
        }
    }

    /// Forgets the current target.
    fn next_target(&mut self) {
        for cell in self.written.drain(..) {
            self.cells[cell] = MEMO_UNSEEN;
        }
        self.rows = 0;
        if self.target == u32::MAX {
            self.stamp.fill(0);
            self.target = 0;
        }
        self.target += 1;
    }

    /// The cell of state `(at, hid)`, assigning the header a row on
    /// first sight.
    fn cell(&mut self, hid: u32, at: NodeId) -> usize {
        let h = hid as usize;
        if self.stamp[h] != self.target {
            self.stamp[h] = self.target;
            self.row[h] = self.rows as u32;
            self.rows += 1;
            if self.cells.len() < self.rows * self.n {
                self.cells.resize(self.rows * self.n, MEMO_UNSEEN);
            }
        }
        self.row[h] as usize * self.n + at
    }

    fn set(&mut self, cell: usize, value: u32) {
        if self.cells[cell] == MEMO_UNSEEN {
            self.written.push(cell);
        }
        self.cells[cell] = value;
    }
}

thread_local! {
    static CLOSURE_MEMO: std::cell::RefCell<ClosureMemo> = std::cell::RefCell::default();
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use cpr_algebra::policies::{Capacity, ShortestPath};
    use cpr_bgp::{AsGraph, BgpStateTable, Relationship, ValleyFree};
    use cpr_graph::{generators, EdgeWeights};
    use cpr_paths::DeltaTracker;
    use cpr_routing::{DestTable, SwClassTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn weigh(u: NodeId, v: NodeId) -> u64 {
        1 + ((u.min(v) * 31 + u.max(v) * 17) % 5) as u64
    }

    fn scheme(g: &Graph) -> DestTable {
        let w = EdgeWeights::from_fn(g, |e| {
            let (u, v) = g.endpoints(e);
            weigh(u, v)
        });
        DestTable::build(g, &w, &ShortestPath)
    }

    /// Removes a random edge or adds a random non-edge.
    fn churn_step(g: &Graph, rng: &mut StdRng) -> Graph {
        let n = g.node_count();
        if rng.gen_bool(0.5) {
            let victim = rng.gen_range(0..g.edge_count());
            let kept = g.edges().filter(|&(e, _)| e != victim).map(|(_, uv)| uv);
            return Graph::from_edges(n, kept).unwrap();
        }
        loop {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && !g.contains_edge(u, v) {
                let mut g2 = g.clone();
                g2.add_edge(u, v).unwrap();
                return g2;
            }
        }
    }

    /// How a test hands `observe` its delta.
    enum Rule<'a> {
        /// `DirtySource::Pairs` of these affected pairs.
        Pairs(&'a BTreeSet<(NodeId, NodeId)>),
        /// `DirtySource::Walks` over a delta that removed these edges and
        /// added `added` edges.
        Walks(&'a [(NodeId, NodeId)], usize),
    }

    /// The pre-delta healed walk of `(s, t)` as a node sequence, walked
    /// on its own; `None` when it cannot be decided (an invalid state, or
    /// a walk `cpr_routing::route` would cut off at the hop budget).
    fn plain_walk<S: RoutingScheme + Sync>(
        plane: &SelfHealingPlane<S>,
        s: NodeId,
        mut hid: u32,
    ) -> Option<Vec<NodeId>>
    where
        S::Header: Send,
    {
        let mut path = vec![s];
        let mut at = s;
        loop {
            match plane.healed().decide(at, hid) {
                Some((PatchStep::Deliver, _)) => return Some(path),
                Some((PatchStep::Forward { to, next }, _)) => {
                    path.push(to);
                    (at, hid) = (to, next);
                    if path.len() > plane.base.hop_budget() {
                        return None;
                    }
                }
                None => return None,
            }
        }
    }

    /// The definition `observe` must implement, walking every pair on
    /// its own: a pair is dirty afterwards exactly when it was dirty
    /// before, or — for an affected-pair set — it is affected itself or
    /// its pre-delta healed walk visits a node that owns an affected pair
    /// toward the same target; for the walk rule, its walk crosses a
    /// removed edge, or any edge was added. A routable walk that cannot
    /// be decided is dirty.
    fn brute_force_dirty<S>(before: &SelfHealingPlane<S>, rule: &Rule<'_>) -> Vec<(NodeId, NodeId)>
    where
        S: RoutingScheme + Sync,
        S::Header: Send,
    {
        let n = before.base.node_count();
        let mut out = Vec::new();
        for s in 0..n {
            for t in (0..n).filter(|&t| t != s) {
                let walked = before
                    .healed()
                    .initial_of(s, t)
                    .map(|hid| plain_walk(before, s, hid));
                let dirty = before.dirty.contains(s, t)
                    || match rule {
                        Rule::Pairs(affected) => {
                            affected.contains(&(s, t))
                                || walked.is_some_and(|walk| {
                                    walk.is_none_or(|path| {
                                        path.iter().any(|&u| u != t && affected.contains(&(u, t)))
                                    })
                                })
                        }
                        Rule::Walks(_, added) if *added > 0 => true,
                        Rule::Walks(removed, _) => walked.is_some_and(|walk| {
                            walk.is_none_or(|path| {
                                path.windows(2)
                                    .any(|h| removed.contains(&(h[0].min(h[1]), h[0].max(h[1]))))
                            })
                        }),
                    };
                if dirty {
                    out.push((s, t));
                }
            }
        }
        out
    }

    /// Drives one plane through seeded churn, demanding after every
    /// delta that `observe` marked exactly [`brute_force_dirty`]. Every
    /// third step leaves its dirt for the next delta to fold into.
    /// Returns the (partial, carried-over) dirty sets exercised.
    fn check_closure<S>(
        scheme: impl Fn(&Graph) -> S,
        walks: bool,
        seeds: u64,
        n: usize,
    ) -> (usize, usize)
    where
        S: RoutingScheme + Sync,
        S::Header: Send,
    {
        let policy = RepairPolicy {
            max_dirty_fraction: 1.0,
            record_budget_ms: false,
        };
        let obs = cpr_obs::Obs::disabled();
        let (mut partial, mut carried) = (0usize, 0usize);
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(0x0B5E_44E0 + seed);
            let mut g = generators::gnp_connected(n, 2.8 / n as f64, &mut rng);
            let mut plane = SelfHealingPlane::new(&scheme(&g), &g).unwrap();
            let mut tracker = DeltaTracker::new(ShortestPath, &g, weigh).with_hop_tiebreak(true);
            for step in 0..9 {
                let g2 = churn_step(&g, &mut rng);
                let report = tracker.advance(&g2);
                let carried_dirt = !plane.dirty.is_empty();
                let removed: Vec<_> = PairSet::of_edges(&g)
                    .iter()
                    .filter(|&(u, v)| !g2.contains_edge(u, v))
                    .collect();
                let (expect, observed) = if walks {
                    let rule = Rule::Walks(&removed, report.added_edges);
                    let expect = brute_force_dirty(&plane, &rule);
                    (expect, plane.observe(&g2, DirtySource::Walks).unwrap())
                } else {
                    let expect = brute_force_dirty(&plane, &Rule::Pairs(&report.affected));
                    let source = DirtyPairs::Pairs(report.affected);
                    (
                        expect,
                        plane.observe(&g2, DirtySource::Pairs(&source)).unwrap(),
                    )
                };
                assert!(observed.stale);
                assert!(
                    plane.dirty.iter().eq(expect.iter().copied()),
                    "{} seed {seed} step {step}: dirty set differs from the definition",
                    plane.base.scheme()
                );
                assert_eq!(observed.dirty_pairs, expect.len());
                assert_eq!(plane.current_edges, PairSet::of_edges(&g2));
                partial += usize::from(!expect.is_empty() && expect.len() < n * (n - 1));
                carried += usize::from(carried_dirt);
                if step % 3 != 2 {
                    plane
                        .repair(&scheme(&g2), &g2, DirtySource::Walks, &policy, &obs)
                        .unwrap();
                    assert!(plane.dirty.is_empty());
                }
                g = g2;
            }
        }
        (partial, carried)
    }

    /// Nodes of the shortest-widest instances: enough for its plane to
    /// compile sparse.
    const SW_N: usize = 48;

    fn sw_scheme(g: &Graph) -> SwClassTable {
        let w = EdgeWeights::from_fn(g, |e| {
            let (u, v) = g.endpoints(e);
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (
                Capacity::new(1 + (a * 31 + b * 17) % 23).unwrap(),
                weigh(u, v),
            )
        });
        SwClassTable::build(g, &w)
    }

    fn bgp_scheme(g: &Graph) -> BgpStateTable {
        let rel = |u: NodeId, v: NodeId| match (u + v) % 4 {
            0 => Relationship::Peer,
            _ if u > v => Relationship::ProviderOf,
            _ => Relationship::CustomerOf,
        };
        let asg = AsGraph::from_relationships(
            g.node_count(),
            g.edges().map(|(_, (u, v))| (u, v, rel(u, v))),
        )
        .unwrap();
        BgpStateTable::build(&asg, &ValleyFree)
    }

    #[test]
    fn observe_marks_exactly_the_walk_closure_of_the_affected_pairs() {
        let (partial, carried) = check_closure(scheme, false, 6, 14);
        assert!(partial > 20, "only {partial} partial dirty sets exercised");
        assert!(carried > 6, "only {carried} deltas met carried-over dirt");
        // Shortest-widest: a sparse plane with a header per (target,
        // class); BGP: header-rewriting state walks.
        let mut rng = StdRng::seed_from_u64(0x0B5E_44E0);
        let g = generators::gnp_connected(SW_N, 2.8 / SW_N as f64, &mut rng);
        let sparse = SelfHealingPlane::new(&sw_scheme(&g), &g).unwrap();
        assert_eq!(sparse.base.memory().layout, "sparse");
        assert!(check_closure(sw_scheme, false, 2, SW_N).0 > 10);
        assert!(check_closure(bgp_scheme, false, 3, 14).0 > 10);
    }

    #[test]
    fn observe_marks_exactly_the_walks_crossing_removed_edges() {
        assert!(check_closure(scheme, true, 4, 14).0 > 10);
        assert!(check_closure(sw_scheme, true, 2, SW_N).0 > 5);
        assert!(check_closure(bgp_scheme, true, 3, 14).0 > 5);
    }

    /// Builds planes through `build(budget)` — `None` keeps the compiled
    /// budget — around the longest healed walk `L` of the unshrunk plane
    /// and demands, at `L − 1`, `L` and `L + 1`, that every path agrees
    /// with `cpr_routing::route`'s rule — a walk of `hop_budget` hops
    /// fails: `walk`, `walk_into`, `lookup_batch` and the healed walk serve
    /// exactly the pairs under the budget, and the dirty closure dirties
    /// exactly the routable pairs they fail. `build` yields `None` where
    /// its repair refused a route by that rule. Returns the budgets built.
    fn check_hop_budget_rule<S>(
        build: impl Fn(Option<usize>) -> Option<SelfHealingPlane<S>>,
    ) -> usize
    where
        S: RoutingScheme + Sync,
        S::Header: Send,
    {
        use crate::engine::BatchScratch;
        let full = build(None).expect("the compiled budget serves every route");
        let n = full.base.node_count();
        let pairs: Vec<_> = (0..n)
            .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        let hops: Vec<Option<usize>> = pairs
            .iter()
            .map(|&(s, t)| full.base.walk(s, t).ok().map(|p| p.len() - 1))
            .collect();
        let healed_hops: Vec<Option<usize>> = pairs
            .iter()
            .map(|&(s, t)| full.healed().walk(s, t).ok().map(|(p, _)| p.len() - 1))
            .collect();
        let longest = healed_hops.iter().flatten().copied().max().unwrap();
        assert!(longest >= 2, "{}: walks too short", full.base.scheme());
        let mut built = 0;
        for budget in [longest - 1, longest, longest + 1] {
            let Some(mut shrunk) = build(Some(budget)) else {
                continue;
            };
            built += 1;
            let core = shrunk.base.static_core();
            let mut scratch = BatchScratch::new();
            shrunk.base.lookup_core().lookup_batch(&pairs, &mut scratch);
            let batched: Vec<_> = scratch.results().collect();
            shrunk.mark_closure(Closure::Touches(&PairSet::new(n)));
            let mut out = Vec::new();
            for (i, &(s, t)) in pairs.iter().enumerate() {
                let served = hops[i].filter(|&h| h < budget);
                let what = format!("{} {s} → {t}, budget {budget}", full.base.scheme());
                let walked = shrunk.base.walk(s, t);
                assert_eq!(walked.as_ref().ok().map(|p| p.len() - 1), served, "{what}");
                if served.is_none() && hops[i].is_some() {
                    assert!(
                        matches!(walked, Err(RouteError::HopBudgetExhausted { .. })),
                        "{what}"
                    );
                }
                out.clear();
                let into = core.walk_into(s, t, &mut out).ok();
                assert_eq!(into.map(|h| h as usize), served, "{what}");
                assert_eq!(batched[i].map(|h| h as usize), served, "{what}");
                let served = healed_hops[i].filter(|&h| h < budget);
                let healed = shrunk.healed().walk(s, t).ok();
                assert_eq!(healed.map(|(p, _)| p.len() - 1), served, "{what}: healed");
                assert_eq!(
                    shrunk.dirty.contains(s, t),
                    healed_hops[i].is_some() && served.is_none(),
                    "{what}: dirty"
                );
            }
        }
        built
    }

    /// A plane compiled on `g` with its hop budget set to `budget`.
    fn compiled<S>(
        scheme: impl Fn(&Graph) -> S,
        g: &Graph,
        budget: Option<usize>,
    ) -> SelfHealingPlane<S>
    where
        S: RoutingScheme + Sync,
        S::Header: Send,
    {
        let mut plane = SelfHealingPlane::new(&scheme(g), g).unwrap();
        if let Some(budget) = budget {
            plane.base.core_mut().hop_budget = budget;
        }
        plane
    }

    /// [`compiled`], then repaired onto `g2`. The repair must fail
    /// exactly when a pair it re-traces needs `budget` hops or more on
    /// `g2`, and then yields `None`.
    fn repaired<S>(
        scheme: impl Fn(&Graph) -> S,
        g: &Graph,
        g2: &Graph,
        budget: Option<usize>,
    ) -> Option<SelfHealingPlane<S>>
    where
        S: RoutingScheme + Sync,
        S::Header: Send,
    {
        let mut plane = compiled(&scheme, g, budget);
        plane.observe(g2, DirtySource::Walks).unwrap();
        let live = scheme(g2);
        let longest = plane
            .dirty
            .iter()
            .filter_map(|(s, t)| cpr_routing::route(&live, g2, s, t).ok())
            .map(|p| p.len() - 1)
            .max()
            .unwrap_or(0);
        let policy = RepairPolicy {
            max_dirty_fraction: 1.0,
            record_budget_ms: false,
        };
        let obs = cpr_obs::Obs::disabled();
        let budget = plane.base.hop_budget();
        let what = format!("{}, budget {budget}", plane.base.scheme());
        match plane.repair(&live, g2, DirtySource::Walks, &policy, &obs) {
            Ok(stats) => {
                assert!(longest < budget, "{what}: accepted {longest} hops");
                assert!(!stats.full_rebuild && stats.repaired_pairs > 0, "{what}");
                Some(plane)
            }
            Err(e) => {
                assert!(longest >= budget, "{what}: {e}");
                assert!(
                    matches!(
                        e,
                        CompileError::Route {
                            error: RouteError::HopBudgetExhausted { .. },
                            ..
                        }
                    ),
                    "{what}: {e}"
                );
                None
            }
        }
    }

    #[test]
    fn walks_batches_and_the_closure_share_one_hop_budget_rule() {
        let mut rng = StdRng::seed_from_u64(0xB0D6E7);
        let g = generators::gnp_connected(SW_N, 2.8 / SW_N as f64, &mut rng);
        assert_eq!(compiled(scheme, &g, None).base.memory().layout, "dense");
        assert_eq!(compiled(sw_scheme, &g, None).base.memory().layout, "sparse");
        assert_eq!(check_hop_budget_rule(|b| Some(compiled(scheme, &g, b))), 3);
        assert_eq!(
            check_hop_budget_rule(|b| Some(compiled(sw_scheme, &g, b))),
            3
        );
        // Repaired planes: a repair refuses the routes a walk refuses.
        let mut refused = 0;
        for victim in [0, g.edge_count() / 2] {
            let kept = g.edges().filter(|&(e, _)| e != victim).map(|(_, uv)| uv);
            let g2 = Graph::from_edges(SW_N, kept).unwrap();
            for built in [
                check_hop_budget_rule(|b| repaired(scheme, &g, &g2, b)),
                check_hop_budget_rule(|b| repaired(sw_scheme, &g, &g2, b)),
            ] {
                assert!(built >= 1);
                refused += 3 - built;
            }
        }
        assert!(refused > 0, "no repair met its hop budget");
    }

    /// A handed-down delta is used only when it starts at the topology
    /// the plane serves; otherwise the plane diffs for itself.
    #[test]
    fn handed_down_delta_is_checked_against_the_served_digest() {
        let g = generators::cycle(6);
        let mut g2 = g.clone();
        g2.add_edge(0, 3).unwrap();
        let mut g3 = g2.clone();
        g3.add_edge(1, 4).unwrap();
        let mut plane = SelfHealingPlane::new(&scheme(&g), &g).unwrap();
        // g → g2 while the plane still serves g: applies.
        let d12 = EdgeDelta::diff(&PairSet::of_edges(&g), graph_digest(&g), &g2);
        let report = plane
            .observe_delta(&g2, Some(&d12), DirtySource::Walks)
            .unwrap();
        assert_eq!(report.added_edges, vec![(0, 3)]);
        // The same (now stale) delta offered for g3: ignored, own diff.
        let report = plane
            .observe_delta(&g3, Some(&d12), DirtySource::Walks)
            .unwrap();
        assert_eq!(report.added_edges, vec![(1, 4)]);
        assert_eq!(plane.current_edges, PairSet::of_edges(&g3));
        assert_eq!(plane.digest(), graph_digest(&g3));
    }
}
