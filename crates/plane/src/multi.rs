//! Multi-algebra serving: many policy classes compiled into one process
//! over one shared substrate.
//!
//! The paper's Table 1 story is about *many* algebras staying compact
//! simultaneously — QoS classes mapping to widest-shortest vs
//! shortest-widest, valley-free constraints for inter-domain pairs. A
//! [`MultiPlane`] holds one compiled [`SelfHealingPlane`] per *traffic
//! class* (a named scheme × algebra combination), all built against the
//! **same** topology, and makes the sharing explicit:
//!
//! * the CSR adjacency snapshot and the `n²` initial-header table of
//!   every plane are `Arc`-backed ([`ForwardingPlane`]); after
//!   compilation a dedupe pass aliases content-identical tables across
//!   classes, so e.g. all eight Table 1 destination-table classes carry
//!   **one** initial table and **one** adjacency snapshot between them;
//! * one topology delta produces **one** shared dirty set
//!   ([`DirtySource::Pairs`]) distributed to every class together with
//!   the event's [`EdgeDelta`] — N classes pay one topology diff and one
//!   delta analysis per churn event, not N;
//! * a [`MultiSnapshot`] shares the topology, its edge set and each
//!   class's [`PublishedPlane`] — twelve classes at n = 512 publish in
//!   3 569 heap bytes and 3–5 µs on a 2-core Xeon VM, fresh or repaired.
//!
//! [`MultiMemory`] reports the honest bit accounting both ways —
//! substrate counted once ([`MultiMemory::multi_total_bits`]) vs. the
//! sum of independently deployed planes
//! ([`MultiMemory::independent_total_bits`]) — which is the number the
//! multi-tenant claim rests on, pinned by tests and `BENCH_multi.json`.
//!
//! The shared dirty set is deliberately *structural*, never
//! metric-specific: for an edge-removal delta it contains `(x, t)` and
//! `(y, t)` for every removed edge `(x, y)` and every target `t`, which
//! is sound for **any** algebra (a walk crossing the edge visits an
//! endpoint, so the per-class walk closure catches it; a removal never
//! makes an unroutable pair routable). Any edge *addition* falls back to
//! [`DirtyPairs::All`]: addition bounds are metric-specific
//! (`cpr_paths::DeltaTracker` reasons about one algebra's via-weights)
//! and unsound to share across classes. A class that wants additions
//! patched instead registers its **own** [`DeltaOracle`]
//! ([`MultiBuilder::with_oracle`]): the master keeps it beside the
//! class and consults it in place of the shared set, for that class
//! only.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_graph::{Graph, NodeId};
use cpr_obs::Json;
use cpr_paths::{DeltaOracle, DirtyPairs, EdgeChanges};
use cpr_routing::{RouteError, RoutingScheme, SchemeFactory};

use crate::compile::{graph_digest, CompileError, ForwardingPlane};
use crate::heal::{
    DirtySource, EdgeDelta, HealthCounters, PublishedPlane, RepairPolicy, RepairStats,
    SelfHealingPlane, Served,
};
use crate::pairset::PairSet;
use crate::tenant::{build_tenant_class, TenantClass, TenantError, MAX_CLASSES};

/// One served traffic class: a self-healing plane plus the scheme
/// factory that maintains — or rebuilds — its live scheme when the
/// topology moves.
///
/// Object-safe so a [`MultiPlane`] can mix header types — Table 1
/// destination tables (`Header = NodeId`) and BGP state tables
/// (`Header = BgpHeader`) live in one `Vec<Box<dyn ClassPlane>>`.
pub trait ClassPlane: Send + Sync {
    /// Registry name of the class (e.g. `"widest-shortest"`, `"bgp-b2"`).
    fn class_name(&self) -> &str;

    /// The compiled base plane.
    fn base(&self) -> &ForwardingPlane;

    /// Mutable base access for the substrate dedupe pass.
    fn base_mut(&mut self) -> &mut ForwardingPlane;

    /// Read-only healed lookup (`&self`, shareable across serving
    /// threads), against the class's *current* scheme and `graph`.
    ///
    /// # Errors
    ///
    /// Same as [`SelfHealingPlane::lookup`].
    fn lookup(
        &self,
        graph: &Graph,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError>;

    /// Brings the live scheme from `from` to `graph` — the factory's
    /// incremental update when it has one and the scheme is current for
    /// `from`, a full build otherwise — folds the delta into this class's
    /// healing state through `source`, and repairs the dirty pairs.
    /// `delta` is the event's edge delta from `from` to `graph`, computed
    /// once by [`MultiPlane::reconcile`] — which calls this only on a real
    /// delta over an unchanged node set.
    ///
    /// # Errors
    ///
    /// Same as [`SelfHealingPlane::repair`].
    #[allow(clippy::too_many_arguments)]
    fn repair(
        &mut self,
        from: &Graph,
        graph: &Graph,
        delta: &EdgeDelta,
        source: DirtySource<'_>,
        policy: &RepairPolicy,
        obs: &cpr_obs::Obs,
    ) -> Result<(RepairStats, RepairTiming), CompileError>;

    /// Whether the live scheme equals a fresh build of the class's
    /// factory for `graph` — the maintained scheme has not drifted.
    fn scheme_is_fresh(&self, graph: &Graph) -> bool;

    /// Pairs awaiting repair.
    fn dirty_pairs(&self) -> usize;

    /// Live patch-layer entries overriding the base arrays.
    fn patch_entries(&self) -> usize;

    /// Content digest of the class's base plane
    /// ([`ForwardingPlane::digest`]).
    fn digest(&self) -> u64;

    /// Topology epoch of the class's healing state.
    fn epoch(&self) -> u64;

    /// Cumulative health counters.
    fn counters(&self) -> HealthCounters;

    /// What a serving snapshot of the topology whose [`graph_digest`] is
    /// `digest` holds of the class ([`SelfHealingPlane::published`]).
    fn published(&self, digest: u64) -> PublishedPlane;
}

/// The concrete [`ClassPlane`] for any scheme type: a name, a scheme
/// factory (so topology changes can maintain or rebuild the live
/// scheme), the current scheme, and the self-healing compiled plane.
pub struct TypedClassPlane<S: RoutingScheme> {
    name: String,
    factory: Arc<dyn SchemeFactory<S>>,
    scheme: S,
    /// [`graph_digest`] of the topology `scheme` is current for.
    scheme_digest: u64,
    healing: SelfHealingPlane<S>,
}

/// Wall-clock split of one class's share of a reconcile — reported to
/// the tracer only, never to the registry.
#[derive(Clone, Copy, Debug)]
pub struct RepairTiming {
    /// Bringing the live scheme to the new topology.
    pub update: Duration,
    /// Folding the delta into the dirty set (the walk closure).
    pub observe: Duration,
    /// Patching the dirty pairs, or recompiling.
    pub repair: Duration,
    /// Whether the factory maintained the scheme incrementally (`false`:
    /// it was rebuilt from scratch).
    pub incremental: bool,
}

impl<S> TypedClassPlane<S>
where
    S: RoutingScheme + PartialEq + Send + Sync + 'static,
    S::Header: Send + Sync,
{
    /// Builds the scheme from `factory` and compiles it over `graph`.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] of the underlying compile.
    pub fn new(
        name: impl Into<String>,
        graph: &Graph,
        factory: impl SchemeFactory<S> + 'static,
    ) -> Result<Self, CompileError> {
        let scheme = factory.build(graph);
        let healing = SelfHealingPlane::new(&scheme, graph)?;
        Ok(TypedClassPlane {
            name: name.into(),
            factory: Arc::new(factory),
            scheme,
            scheme_digest: healing.digest(),
            healing,
        })
    }

    /// The class's current live scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The class's healing state.
    pub fn healing(&self) -> &SelfHealingPlane<S> {
        &self.healing
    }
}

impl<S> ClassPlane for TypedClassPlane<S>
where
    S: RoutingScheme + PartialEq + Send + Sync + 'static,
    S::Header: Send + Sync,
{
    fn class_name(&self) -> &str {
        &self.name
    }

    fn base(&self) -> &ForwardingPlane {
        self.healing.base()
    }

    fn base_mut(&mut self) -> &mut ForwardingPlane {
        self.healing.base_mut()
    }

    fn lookup(
        &self,
        graph: &Graph,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError> {
        self.healing.lookup(&self.scheme, graph, source, target)
    }

    fn repair(
        &mut self,
        from: &Graph,
        graph: &Graph,
        delta: &EdgeDelta,
        source: DirtySource<'_>,
        policy: &RepairPolicy,
        obs: &cpr_obs::Obs,
    ) -> Result<(RepairStats, RepairTiming), CompileError> {
        // The live scheme must match the topology the pass falls back
        // to and re-traces dirty pairs against. The factory maintains it
        // only from the topology it is current for; anything else is a
        // full build.
        let started = Instant::now();
        let changes = EdgeChanges {
            removed: delta.removed(),
            added: delta.added(),
        };
        let incremental = self.scheme_digest == delta.start_digest()
            && self.factory.update(&mut self.scheme, from, graph, changes);
        if !incremental {
            self.scheme = self.factory.build(graph);
        }
        self.scheme_digest = delta.to_digest();
        let update = started.elapsed();
        let (stats, observe) =
            self.healing
                .repair_delta(&self.scheme, graph, Some(delta), source, policy, obs)?;
        let timing = RepairTiming {
            update,
            observe,
            repair: started.elapsed() - update - observe,
            incremental,
        };
        Ok((stats, timing))
    }

    fn scheme_is_fresh(&self, graph: &Graph) -> bool {
        self.scheme == self.factory.build(graph)
    }

    fn dirty_pairs(&self) -> usize {
        self.healing.dirty_pairs()
    }

    fn patch_entries(&self) -> usize {
        self.healing.patch_entries()
    }

    fn digest(&self) -> u64 {
        self.healing.base().digest()
    }

    fn epoch(&self) -> u64 {
        self.healing.epoch()
    }

    fn counters(&self) -> HealthCounters {
        self.healing.counters()
    }

    fn published(&self, digest: u64) -> PublishedPlane {
        self.healing.published(digest)
    }
}

/// A class's own delta oracle; see [`MultiBuilder::with_oracle`].
type ClassOracle = Box<dyn DeltaOracle + Send>;

type ClassFactory = Box<dyn FnOnce(&Graph) -> Result<Box<dyn ClassPlane>, CompileError>>;

/// Deferred class registrations for [`MultiPlane::build`]: each entry
/// compiles one class against the graph handed to `build`.
#[derive(Default)]
pub struct MultiBuilder {
    factories: Vec<(ClassFactory, Option<ClassOracle>)>,
}

impl MultiBuilder {
    /// An empty registry.
    pub fn new() -> Self {
        MultiBuilder::default()
    }

    /// Registers a class under `name`: `factory` builds the scheme for
    /// any topology — the fresh compile — and keeps it current under
    /// churn: a closure `Fn(&Graph) -> S` rebuilds it on every event, an
    /// incremental factory ([`DestTable::factory`](cpr_routing::DestTable::factory),
    /// [`SwClassTable::factory`](cpr_routing::SwClassTable::factory))
    /// maintains it. Classes are served in registration order — the wire
    /// protocol's traffic class `k` is the `k`-th registration.
    pub fn class<S>(
        mut self,
        name: impl Into<String>,
        factory: impl SchemeFactory<S> + 'static,
    ) -> Self
    where
        S: RoutingScheme + PartialEq + Send + Sync + 'static,
        S::Header: Send + Sync,
    {
        let name = name.into();
        let compile: ClassFactory = Box::new(move |graph| {
            Ok(Box::new(TypedClassPlane::new(name, graph, factory)?) as Box<dyn ClassPlane>)
        });
        self.factories.push((compile, None));
        self
    }

    /// Gives the most recently registered class its own delta oracle:
    /// every [`MultiPlane::reconcile`] consults it (as
    /// [`DirtySource::Oracle`]) instead of handing that class the shared
    /// structural set, so an edge *addition* patches the pairs it can
    /// reach instead of rebuilding the class. The oracle must already
    /// view the graph later handed to [`MultiPlane::build`] and track
    /// the preference the class's factory routes by. It is master-only
    /// state: snapshots never see it.
    ///
    /// # Panics
    ///
    /// Panics when no class has been registered yet.
    pub fn with_oracle(mut self, oracle: impl DeltaOracle + Send + 'static) -> Self {
        let (_, slot) = self
            .factories
            .last_mut()
            .expect("with_oracle follows a class registration");
        *slot = Some(Box::new(oracle));
        self
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// `true` when no class is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

/// One wire traffic-class slot of a [`MultiPlane`]. Slot indices are
/// the wire protocol's class ids and **never shift**: deregistering a
/// runtime class leaves a tombstone that keeps its index (and name, for
/// diagnostics) until a later registration reuses it, so concurrent
/// readers of other classes cannot be renumbered underneath.
enum Slot {
    /// A serving class; `dynamic` marks runtime registrations (the only
    /// ones that may be deregistered), `oracle` is the class's own
    /// delta oracle when it registered one.
    Live {
        plane: Box<dyn ClassPlane>,
        dynamic: bool,
        oracle: Option<ClassOracle>,
    },
    /// A deregistered runtime class, index held in reserve.
    Retired { name: String },
}

impl Slot {
    fn live(&self) -> Option<&dyn ClassPlane> {
        match self {
            Slot::Live { plane, .. } => Some(plane.as_ref()),
            Slot::Retired { .. } => None,
        }
    }

    fn live_box_mut(&mut self) -> Option<&mut Box<dyn ClassPlane>> {
        match self {
            Slot::Live { plane, .. } => Some(plane),
            Slot::Retired { .. } => None,
        }
    }

    fn name(&self) -> &str {
        match self {
            Slot::Live { plane, .. } => plane.class_name(),
            Slot::Retired { name } => name,
        }
    }
}

/// Outcome of a successful [`MultiPlane::register_class_expr`].
#[derive(Clone, Debug)]
pub struct ClassRegistration {
    /// The wire traffic-class id the new class serves under (a reused
    /// tombstone slot when one exists, else a fresh index).
    pub class: usize,
    /// The scheme the admissibility gate selected.
    pub scheme: cpr_algebra::SchemeChoice,
    /// Multi-plane epoch after the registration.
    pub epoch: u64,
    /// The full gate decision (lowered algebra, measured property
    /// report, admissibility verdict).
    pub decision: cpr_algebra::Decision,
}

/// Outcome of one [`MultiPlane::reconcile`] pass: the shared delta
/// analysis plus every class's own [`RepairStats`].
#[derive(Clone, Debug)]
pub struct MultiRepairReport {
    /// Multi-plane epoch after the pass.
    pub epoch: u64,
    /// Edges removed by the delta.
    pub removed_edges: usize,
    /// Edges added by the delta.
    pub added_edges: usize,
    /// `"none"` (no delta), `"pairs"` (structural endpoint set) or
    /// `"all"` (additions present — every pair dirty, metric-specific
    /// addition bounds are unsound to share across algebras). Describes
    /// the *shared* set; a class with its own oracle is bounded by that
    /// instead, as its [`RepairStats`] show.
    pub strategy: &'static str,
    /// Ordered pairs in the shared dirty set (`n·(n−1)` under `"all"`).
    pub shared_dirty_pairs: usize,
    /// Per-class repair outcomes, in class order.
    pub class_stats: Vec<(String, RepairStats)>,
}

/// Shared-substrate accounting of one class inside [`MultiMemory`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassMemory {
    /// Registry name.
    pub name: String,
    /// Bits private to the class (transition arrays).
    pub transition_bits: u64,
    /// Bits of the class's initial-header table.
    pub initial_bits: u64,
    /// `true` when the initial table aliases an earlier class's
    /// allocation (costs zero additional bits in the multi plane).
    pub initial_shared: bool,
    /// `true` when the CSR adjacency aliases an earlier class's
    /// allocation.
    pub adjacency_shared: bool,
}

/// Honest bit accounting of a [`MultiPlane`], both ways: substrate
/// counted once (the multi-tenant process) vs. summed per class
/// (independent deployments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiMemory {
    /// Served classes.
    pub classes: usize,
    /// Node count.
    pub nodes: usize,
    /// Total bits of the multi plane: every class's transition arrays
    /// plus each **distinct** initial-table / adjacency allocation
    /// counted once.
    pub multi_total_bits: u64,
    /// What the same classes would cost as independent single-class
    /// processes: the sum of per-class plane totals.
    pub independent_total_bits: u64,
    /// Distinct initial-header-table allocations across classes.
    pub distinct_initial_tables: usize,
    /// Distinct CSR adjacency allocations across classes.
    pub distinct_adjacency_tables: usize,
    /// Per-class breakdown, in class order.
    pub per_class: Vec<ClassMemory>,
}

impl MultiMemory {
    /// Multi-plane bytes per node.
    pub fn multi_bytes_per_node(&self) -> f64 {
        self.multi_total_bits as f64 / 8.0 / self.nodes as f64
    }

    /// Independent-deployment bytes per node.
    pub fn independent_bytes_per_node(&self) -> f64 {
        self.independent_total_bits as f64 / 8.0 / self.nodes as f64
    }

    /// Fraction of the independent footprint saved by sharing.
    pub fn savings_fraction(&self) -> f64 {
        if self.independent_total_bits == 0 {
            0.0
        } else {
            1.0 - self.multi_total_bits as f64 / self.independent_total_bits as f64
        }
    }
}

impl fmt::Display for MultiMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} classes over n={}: {} KiB shared vs {} KiB independent \
             ({:.1}% saved; {} initial tables, {} adjacency tables)",
            self.classes,
            self.nodes,
            self.multi_total_bits / 8192,
            self.independent_total_bits / 8192,
            self.savings_fraction() * 100.0,
            self.distinct_initial_tables,
            self.distinct_adjacency_tables,
        )
    }
}

/// A snapshot slot mirrors the master's [`Slot`] layout so class ids
/// mean the same thing on both sides of the RCU swap: a retired slot
/// keeps its name and holds no plane.
struct SnapSlot {
    name: String,
    plane: Option<PublishedPlane>,
}

/// An immutable multi-class serving snapshot of the master
/// [`MultiPlane`], published RCU-style while the master keeps absorbing
/// churn. It shares all it holds with the master — topology, edge set,
/// each class's base arrays and repair overlay — and consults no scheme.
pub struct MultiSnapshot {
    epoch: u64,
    digest: u64,
    graph: Arc<Graph>,
    /// The edge set off-core classes check every hop against.
    edges: Arc<PairSet>,
    classes: Vec<SnapSlot>,
}

impl MultiSnapshot {
    /// Multi-plane epoch the snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// [`graph_digest`] of the snapshot topology.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The snapshot topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Traffic-class slots, live **and** retired — the range of valid
    /// wire class ids.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Registry name of class `class` (a retired slot keeps its last
    /// name for diagnostics).
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range.
    pub fn class_name(&self, class: usize) -> &str {
        &self.classes[class].name
    }

    /// Whether slot `class` serves (i.e. is not a deregistered
    /// tombstone). The serving layer checks this before routing.
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range.
    pub fn class_live(&self, class: usize) -> bool {
        self.classes[class].plane.is_some()
    }

    /// Whether class `class` currently serves through its zero-alloc
    /// flat core rather than the healed walk: it has no repair overlay
    /// and no pair awaiting repair, and its base plane was compiled for
    /// the snapshot topology.
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range.
    pub fn class_on_core(&self, class: usize) -> bool {
        self.classes[class]
            .plane
            .as_ref()
            .is_some_and(|p| p.on_core)
    }

    /// `false` when a live class still has pairs awaiting repair — only
    /// after a failed [`MultiPlane::reconcile`]: a successful one repairs
    /// every class before the swap. Those pairs answer
    /// [`RouteError::AwaitingRepair`].
    pub fn is_fresh(&self) -> bool {
        self.classes
            .iter()
            .filter_map(|c| c.plane.as_ref())
            .all(|p| p.awaiting.is_none())
    }

    /// Resolves a wire-supplied class id to its serving class — the
    /// non-panicking entry of the request path: an id outside the
    /// registry or naming a deregistered slot is a typed [`ClassMiss`].
    /// Resolve once per request, then route every pair through the
    /// returned [`ServingClass`].
    ///
    /// # Errors
    ///
    /// [`ClassMiss`] when `class` does not serve.
    pub fn serving(&self, class: usize) -> Result<ServingClass<'_>, ClassMiss> {
        match self.classes.get(class) {
            Some(SnapSlot {
                plane: Some(plane), ..
            }) => Ok(ServingClass {
                edges: &self.edges,
                plane,
            }),
            Some(_) => Err(ClassMiss::Retired),
            None => Err(ClassMiss::OutOfRange),
        }
    }

    /// Routes `source → target` in traffic class `class`: through the
    /// class's flat [`StaticCore`](crate::StaticCore) when it is
    /// [on core](Self::class_on_core), otherwise through the healed
    /// overlay-over-base walk with live-edge checks.
    ///
    /// # Errors
    ///
    /// Same as [`SelfHealingPlane::lookup`], except that a pair awaiting
    /// repair answers [`RouteError::AwaitingRepair`].
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range or retired; a caller holding
    /// an unchecked id uses [`serving`](Self::serving) instead.
    pub fn lookup(
        &self,
        class: usize,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError> {
        match self.serving(class) {
            Ok(c) => c.plane.lookup(c.edges, source, target),
            Err(miss) => panic!("class {class} does not serve: {miss:?}"),
        }
    }
}

/// Why a class id does not serve in a [`MultiSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassMiss {
    /// The id is past the last slot of the registry.
    OutOfRange,
    /// The slot is a deregistered tombstone.
    Retired,
}

/// One live class of a [`MultiSnapshot`]; see
/// [`MultiSnapshot::serving`].
pub struct ServingClass<'s> {
    edges: &'s PairSet,
    plane: &'s PublishedPlane,
}

impl ServingClass<'_> {
    /// [`MultiSnapshot::lookup`] appending the node sequence to `out`
    /// as wire-width ids and returning the hop count — no allocation
    /// once `out` has grown, on the core and off it.
    ///
    /// # Errors
    ///
    /// Same as [`MultiSnapshot::lookup`]; on error `out` is left as it
    /// was passed in.
    pub fn walk_into(
        &self,
        source: NodeId,
        target: NodeId,
        out: &mut Vec<u32>,
    ) -> Result<u32, RouteError> {
        self.plane.walk_into(self.edges, source, target, out)
    }
}

/// All traffic classes of one process, compiled over one topology with
/// the substrate shared; see the module docs for the sharing contract.
pub struct MultiPlane {
    graph: Arc<Graph>,
    digest: u64,
    /// The served topology's edge set, shared with every snapshot.
    edges: Arc<PairSet>,
    classes: Vec<Slot>,
    epoch: u64,
}

impl MultiPlane {
    /// Compiles every registered class over `graph` and dedupes the
    /// substrate allocations across classes.
    ///
    /// # Errors
    ///
    /// The first [`CompileError`] of any class compile.
    pub fn build(graph: &Graph, builder: MultiBuilder) -> Result<Self, CompileError> {
        let mut classes = Vec::with_capacity(builder.factories.len());
        for (compile, oracle) in builder.factories {
            classes.push(Slot::Live {
                plane: compile(graph)?,
                dynamic: false,
                oracle,
            });
        }
        dedupe_substrate(&mut classes);
        Ok(MultiPlane {
            graph: Arc::new(graph.clone()),
            digest: graph_digest(graph),
            edges: Arc::new(PairSet::of_edges(graph)),
            classes,
            epoch: 0,
        })
    }

    /// The topology every class currently serves.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// [`graph_digest`] of the served topology.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Multi-plane epoch: bumped by every completed reconcile pass that
    /// found a delta and by every registration / deregistration — any
    /// event a serving snapshot must be re-taken for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Traffic-class slots, live **and** retired — the range of valid
    /// wire class ids.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Live (serving) classes.
    pub fn live_class_count(&self) -> usize {
        self.classes.iter().filter(|s| s.live().is_some()).count()
    }

    /// The live classes, in slot (= wire traffic-class) order. Retired
    /// slots are skipped, so on a plane that never deregistered this is
    /// exactly the registration order.
    pub fn classes(&self) -> impl Iterator<Item = &dyn ClassPlane> {
        self.classes.iter().filter_map(|c| c.live())
    }

    /// Index of the live class registered under `name`.
    pub fn class_index(&self, name: &str) -> Option<usize> {
        self.classes
            .iter()
            .position(|c| c.live().is_some() && c.name() == name)
    }

    /// Whether slot `class` serves (not a deregistered tombstone).
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range.
    pub fn class_live(&self, class: usize) -> bool {
        self.classes[class].live().is_some()
    }

    /// Whether slot `class` is a runtime registration (deregisterable).
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range.
    pub fn class_dynamic(&self, class: usize) -> bool {
        matches!(self.classes[class], Slot::Live { dynamic: true, .. })
    }

    /// Parses, gates, compiles and registers a tenant class under
    /// `name`, serving from the first tombstone slot (else a fresh
    /// index). The new class compiles against the **current** topology,
    /// joins the content-deduped substrate, and is covered by the
    /// shared dirty set of every later [`reconcile`](Self::reconcile)
    /// identically to seed classes. Existing classes are untouched —
    /// readers of a snapshot taken before the registration keep
    /// serving, and the epoch bump tells the serving layer to publish a
    /// new snapshot.
    ///
    /// # Errors
    ///
    /// [`TenantError::Parse`] / [`TenantError::Inadmissible`] (nothing
    /// was compiled), [`TenantError::DuplicateName`],
    /// [`TenantError::RegistryFull`], or [`TenantError::Compile`].
    pub fn register_class_expr(
        &mut self,
        name: &str,
        text: &str,
    ) -> Result<ClassRegistration, TenantError> {
        if self
            .classes
            .iter()
            .any(|c| c.live().is_some() && c.name() == name)
        {
            return Err(TenantError::DuplicateName(name.to_owned()));
        }
        let slot = self.classes.iter().position(|c| c.live().is_none());
        if slot.is_none() && self.classes.len() >= MAX_CLASSES {
            return Err(TenantError::RegistryFull);
        }
        let TenantClass {
            plane,
            decision,
            scheme,
            ..
        } = build_tenant_class(name, text, &self.graph)?;
        let live = Slot::Live {
            plane,
            dynamic: true,
            oracle: None,
        };
        let class = match slot {
            Some(i) => {
                self.classes[i] = live;
                i
            }
            None => {
                self.classes.push(live);
                self.classes.len() - 1
            }
        };
        dedupe_substrate(&mut self.classes);
        self.epoch += 1;
        Ok(ClassRegistration {
            class,
            scheme,
            epoch: self.epoch,
            decision,
        })
    }

    /// Deregisters the runtime class named `name`, leaving a tombstone
    /// that keeps the slot index reserved (wire class ids never shift).
    ///
    /// # Errors
    ///
    /// [`TenantError::UnknownClass`] when no live class has the name,
    /// [`TenantError::SeedClass`] for build-time classes.
    pub fn deregister_class(&mut self, name: &str) -> Result<usize, TenantError> {
        let class = self
            .class_index(name)
            .ok_or_else(|| TenantError::UnknownClass(name.to_owned()))?;
        match &self.classes[class] {
            Slot::Live { dynamic: false, .. } => {
                return Err(TenantError::SeedClass(name.to_owned()))
            }
            _ => {
                self.classes[class] = Slot::Retired {
                    name: name.to_owned(),
                };
            }
        }
        self.epoch += 1;
        Ok(class)
    }

    /// Read-only healed lookup in class `class` against the current
    /// topology.
    ///
    /// # Errors
    ///
    /// Same as [`SelfHealingPlane::lookup`].
    ///
    /// # Panics
    ///
    /// Panics when `class` is out of range or retired.
    pub fn lookup(
        &self,
        class: usize,
        source: NodeId,
        target: NodeId,
    ) -> Result<(Vec<NodeId>, Served), RouteError> {
        match &self.classes[class] {
            Slot::Live { plane, .. } => plane.lookup(&self.graph, source, target),
            Slot::Retired { name } => panic!("class {class} (`{name}`) is retired"),
        }
    }

    /// Diffs `graph` against the served topology and, on any change,
    /// repairs **every** class from one shared dirty set: removals
    /// produce the structural endpoint set (sound for any algebra),
    /// additions force [`DirtyPairs::All`]. A class that registered its
    /// own oracle ([`MultiBuilder::with_oracle`]) is bounded by it
    /// instead. After the per-class repairs the substrate is re-deduped
    /// (a rebuild re-allocates a class's tables).
    ///
    /// # Errors
    ///
    /// [`CompileError::NodeCountMismatch`] when the node set changed
    /// (a rebuild, not a repair); otherwise the first [`CompileError`]
    /// of any class's repair.
    pub fn reconcile(
        &mut self,
        graph: &Graph,
        policy: &RepairPolicy,
        obs: &cpr_obs::Obs,
    ) -> Result<MultiRepairReport, CompileError> {
        let n = self.graph.node_count();
        if graph.node_count() != n {
            return Err(CompileError::NodeCountMismatch {
                scheme: n,
                graph: graph.node_count(),
            });
        }
        // One diff per event; every class takes it from here.
        let delta = EdgeDelta::diff(&self.edges, self.digest, graph);
        let (removed, added) = (delta.removed(), delta.added());
        if delta.is_empty() {
            return Ok(MultiRepairReport {
                epoch: self.epoch,
                removed_edges: 0,
                added_edges: 0,
                strategy: "none",
                shared_dirty_pairs: 0,
                class_stats: Vec::new(),
            });
        }
        let (dirty, strategy) = if !added.is_empty() {
            (DirtyPairs::All, "all")
        } else {
            let mut pairs = BTreeSet::new();
            for &(x, y) in removed {
                for t in 0..graph.node_count() {
                    if t != x {
                        pairs.insert((x, t));
                    }
                    if t != y {
                        pairs.insert((y, t));
                    }
                }
            }
            (DirtyPairs::Pairs(pairs), "pairs")
        };
        let shared_dirty_pairs = match &dirty {
            DirtyPairs::All => graph.node_count() * graph.node_count().saturating_sub(1),
            DirtyPairs::Pairs(p) => p.len(),
        };
        let mut class_stats = Vec::with_capacity(self.classes.len());
        for slot in &mut self.classes {
            let Slot::Live { plane, oracle, .. } = slot else {
                continue;
            };
            let source = match oracle {
                Some(oracle) => DirtySource::Oracle(oracle.as_mut()),
                None => DirtySource::Pairs(&dirty),
            };
            let span = obs.span("multi.class", &[("class", Json::str(plane.class_name()))]);
            let (stats, timing) = plane.repair(&self.graph, graph, &delta, source, policy, obs)?;
            span.event(
                "multi.class.timing",
                &[
                    ("update_us", Json::int(timing.update.as_micros())),
                    ("observe_us", Json::int(timing.observe.as_micros())),
                    ("repair_us", Json::int(timing.repair.as_micros())),
                    (
                        "scheme",
                        Json::str(if timing.incremental {
                            "updated"
                        } else {
                            "rebuilt"
                        }),
                    ),
                ],
            );
            drop(span);
            class_stats.push((plane.class_name().to_string(), stats));
        }
        dedupe_substrate(&mut self.classes);
        self.graph = Arc::new(graph.clone());
        self.digest = delta.to_digest();
        self.edges = Arc::new(PairSet::of_edges(graph));
        self.epoch += 1;
        obs.event(
            "multi.reconcile",
            &[
                ("epoch", Json::int(self.epoch as i64)),
                ("classes", Json::int(self.classes.len() as i64)),
                ("removed", Json::int(removed.len() as i64)),
                ("added", Json::int(added.len() as i64)),
                ("shared_dirty", Json::int(shared_dirty_pairs as i64)),
            ],
        );
        Ok(MultiRepairReport {
            epoch: self.epoch,
            removed_edges: removed.len(),
            added_edges: added.len(),
            strategy,
            shared_dirty_pairs,
            class_stats,
        })
    }

    /// Publishes every class into an immutable [`MultiSnapshot`]: each
    /// live class contributes its [`PublishedPlane`], which shares the
    /// base arrays and the repair overlay, so a snapshot costs a few
    /// reference counts per class. Schemes and class oracles stay
    /// behind: a snapshot never reconciles.
    pub fn snapshot(&self) -> MultiSnapshot {
        MultiSnapshot {
            epoch: self.epoch,
            digest: self.digest,
            graph: Arc::clone(&self.graph),
            edges: Arc::clone(&self.edges),
            classes: self
                .classes
                .iter()
                .map(|slot| SnapSlot {
                    name: slot.name().to_string(),
                    plane: slot.live().map(|c| c.published(self.digest)),
                })
                .collect(),
        }
    }

    /// The shared-substrate bit accounting; see [`MultiMemory`].
    pub fn memory(&self) -> MultiMemory {
        let mut seen_initial = BTreeSet::new();
        let mut seen_adjacency = BTreeSet::new();
        let mut multi_total_bits = 0u64;
        let mut independent_total_bits = 0u64;
        let mut per_class = Vec::with_capacity(self.classes.len());
        for class in self.classes.iter().filter_map(|s| s.live()) {
            let base = class.base();
            let mem = base.memory();
            independent_total_bits += mem.total_bits();
            multi_total_bits += mem.transition_bits;
            let (initial_ptr, row_ptr, nbr_ptr) = base.substrate_ptrs();
            let initial_new = seen_initial.insert(initial_ptr);
            if initial_new {
                multi_total_bits += base.initial_table_bits();
            }
            let adjacency_new = seen_adjacency.insert((row_ptr, nbr_ptr));
            if adjacency_new {
                multi_total_bits += base.adjacency_table_bits();
            }
            per_class.push(ClassMemory {
                name: class.class_name().to_string(),
                transition_bits: mem.transition_bits,
                initial_bits: mem.initial_bits,
                initial_shared: !initial_new,
                adjacency_shared: !adjacency_new,
            });
        }
        MultiMemory {
            classes: self.live_class_count(),
            nodes: self.graph.node_count(),
            multi_total_bits,
            independent_total_bits,
            distinct_initial_tables: seen_initial.len(),
            distinct_adjacency_tables: seen_adjacency.len(),
            per_class,
        }
    }

    /// Records per-class health into `obs` under
    /// `multi.class.{name}.*` gauges.
    pub fn record_health(&self, obs: &cpr_obs::Obs) {
        for class in self.classes.iter().filter_map(|s| s.live()) {
            let name = class.class_name();
            let c = class.counters();
            obs.set_gauge(
                &format!("multi.class.{name}.dirty_pairs"),
                class.dirty_pairs() as i64,
            );
            obs.set_gauge(
                &format!("multi.class.{name}.patch_entries"),
                class.patch_entries() as i64,
            );
            obs.set_gauge(
                &format!("multi.class.{name}.full_rebuilds"),
                c.full_rebuilds as i64,
            );
            obs.set_gauge(
                &format!("multi.class.{name}.incremental_repairs"),
                c.incremental_repairs as i64,
            );
        }
    }
}

/// Aliases content-identical substrate allocations across classes: each
/// class after the first redirects its initial-table / adjacency `Arc`s
/// at the earliest class holding equal contents. Content equality is
/// checked, never assumed — a class whose routability differs keeps its
/// own table.
fn dedupe_substrate(classes: &mut [Slot]) {
    for i in 1..classes.len() {
        let (head, tail) = classes.split_at_mut(i);
        let Some(cur) = tail[0].live_box_mut() else {
            continue;
        };
        let cur = cur.base_mut();
        let mut initial_done = false;
        let mut adjacency_done = false;
        for canon in head.iter().filter_map(|s| s.live()) {
            let (ini, adj) = cur.share_substrate_with(canon.base());
            initial_done |= ini;
            adjacency_done |= adj;
            if initial_done && adjacency_done {
                break;
            }
        }
    }
}
