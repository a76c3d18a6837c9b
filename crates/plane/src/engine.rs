//! The flat serving core and the batched query engine built on it.
//!
//! A compiled plane stores its transitions in one form, the
//! [`StaticCore`]: contiguous struct-of-arrays `u32` tables with every
//! port pre-resolved to its neighbor id. Every walk of the crate — a
//! plane's [`walk`](ForwardingPlane::walk), the core's
//! [`walk`](StaticCore::walk) / [`walk_into`](StaticCore::walk_into) and
//! the batched [`LookupCore::lookup_batch`] — runs one step loop over
//! those arrays, feeding the visited nodes to a path sink or to none.
//!
//! [`serve`] takes the plane's [`LookupCore`] view, splits the batch into
//! contiguous chunks and walks each chunk on its own scoped thread; the
//! core is immutable, so workers share it without locks. Inside a shard,
//! queries are processed in **destination order** (a counting sort into
//! a reusable scratch permutation): same-destination queries touch the
//! same transition rows back to back, so the walk stays in cache instead
//! of striding the table at random. After its scratch warms up, the core
//! performs **zero heap allocations per query** — pinned by the
//! counting-allocator test in `tests/zero_alloc.rs`. Per-shard
//! statistics are merged into a [`ServeReport`] carrying throughput, hop
//! counts, hop stretch against the `cpr-paths` optima ([`HopOptima`])
//! and — never masked — every failed query with its [`RouteError`].

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpr_graph::{Graph, NodeId};
use cpr_paths::HopMatrix;
use cpr_routing::RouteError;

use crate::compile::{ForwardingPlane, PackedArray};

/// Sentinel in a core's `next_node` slot: deliver here.
pub(crate) const CORE_DELIVER: u32 = u32::MAX;
/// Sentinel in a core's `next_node` slot: no transition stored (reaching
/// it from an initial header is a plane inconsistency, surfaced as a
/// failure).
pub(crate) const CORE_INVALID: u32 = u32::MAX - 1;

/// Per-query result sentinel in [`BatchScratch::hops`]: the scheme
/// declared the pair unroutable (no initial header).
const HOPS_UNROUTABLE: u32 = u32::MAX;
/// Per-query result sentinel: the walk failed (invalid state or
/// hop-budget exhaustion) — replay [`ForwardingPlane::walk`] for the
/// exact error.
const HOPS_FAILED: u32 = u32::MAX - 1;

/// A batched view of a [`ForwardingPlane`], from
/// [`ForwardingPlane::lookup_core`]: [`lookup_batch`]
/// (Self::lookup_batch) walks the plane's own flat arrays.
pub struct LookupCore<'p> {
    pub(crate) plane: &'p ForwardingPlane,
}

/// Transition storage of a compiled plane: parallel `u32` arrays
/// (struct-of-arrays). `next_node[i]` holds the pre-resolved neighbor id
/// of transition slot `i` (or a deliver/invalid sentinel) and
/// `next_hid[i]` the rewritten header id — no bit-field decode, no CSR
/// indirection. A plane whose every forward keeps its header id
/// (destination tables, tree schemes, Cowen, `SwClassTable`) stores no
/// `next_hid` at all: the next id is the slot's own, and one hop is one
/// load.
///
/// Each array is its own `Arc<[u32]>`, so clones share the arrays while
/// their pointers stay inline in the owning core: a walk finds them
/// without first loading a shared header. (One `Arc` around the whole
/// layout walked 10–20 % slower per pair in a `walk_into` probe on a
/// 2-core Xeon VM.)
#[derive(Clone, Debug)]
pub(crate) enum CoreLayout {
    /// Flat `headers × n` tables indexed by `hid * n + node`. Header-major
    /// because headers change rarely along a walk — consecutive hops then
    /// touch one `n`-entry row, not scattered columns.
    Dense {
        next_node: Arc<[u32]>,
        /// `None` when every forward keeps its header id.
        next_hid: Option<Arc<[u32]>>,
    },
    /// CSR runs per node, keys sorted for binary search: for schemes whose
    /// header space is far larger than the states actually reached.
    Sparse {
        offsets: Arc<[u32]>,
        keys: Arc<[u32]>,
        next_node: Arc<[u32]>,
        /// `None` when every forward keeps its header id.
        next_hid: Option<Arc<[u32]>>,
    },
}

/// The flat core of a [`ForwardingPlane`] — the one stored form of its
/// transitions — as an owned, lifetime-free value
/// ([`ForwardingPlane::static_core`]).
///
/// The transition arrays and the bit-packed initial-header table are
/// held through `Arc`s, so cloning a core (or the plane owning it) copies
/// no table: a multi-algebra serving snapshot carries one `StaticCore`
/// per traffic class across epoch swaps at the cost of two reference
/// counts. [`walk`](StaticCore::walk) allocates only the returned path
/// vector and [`walk_into`](StaticCore::walk_into) nothing.
#[derive(Clone, Debug)]
pub struct StaticCore {
    pub(crate) n: usize,
    /// Interned header count; doubles as the "unroutable" sentinel in
    /// the packed initial table.
    pub(crate) headers: usize,
    pub(crate) hop_budget: usize,
    /// `n²` interned initial-header ids. `Arc`-shared so a multi-algebra
    /// process can dedupe byte-identical tables across planes (see
    /// `crate::multi`).
    pub(crate) initial: Arc<PackedArray>,
    pub(crate) layout: CoreLayout,
}

/// Why a walk ([`StaticCore::walk_each`], or the healed walk of
/// `crate::heal`) stopped short of delivery.
pub(crate) enum WalkStop {
    /// No initial header, or an invalid state.
    Unroutable,
    /// The hop budget ran out.
    Exhausted,
    /// A hop onto an edge the topology lacks.
    DeadLink { at: NodeId, port: usize },
    /// The pair awaits repair.
    AwaitingRepair,
}

impl WalkStop {
    pub(crate) fn into_error(
        self,
        source: NodeId,
        target: NodeId,
        visited: Vec<NodeId>,
    ) -> RouteError {
        match self {
            WalkStop::Unroutable => RouteError::Unroutable { source, target },
            WalkStop::Exhausted => RouteError::HopBudgetExhausted { visited },
            WalkStop::DeadLink { at, port } => RouteError::BadPort { at, port },
            WalkStop::AwaitingRepair => RouteError::AwaitingRepair { source, target },
        }
    }
}

impl StaticCore {
    /// Node count of the compiled topology.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The interned initial-header id a source attaches for `target`,
    /// or `None` when the scheme declared the pair unroutable.
    #[inline]
    pub fn initial_id(&self, source: NodeId, target: NodeId) -> Option<u32> {
        let v = self.initial.get(source * self.n + target);
        if v == self.headers as u64 {
            None
        } else {
            Some(v as u32)
        }
    }

    /// One transition of state `(at, hid)`: `(next node | sentinel, next
    /// header id)`.
    #[inline(always)]
    pub(crate) fn step(&self, at: u32, hid: u32) -> (u32, u32) {
        match &self.layout {
            CoreLayout::Dense {
                next_node,
                next_hid,
            } => {
                let i = (hid as usize) * self.n + at as usize;
                (next_node[i], next_hid.as_ref().map_or(hid, |h| h[i]))
            }
            CoreLayout::Sparse {
                offsets,
                keys,
                next_node,
                next_hid,
            } => {
                let lo = offsets[at as usize] as usize;
                let hi = offsets[at as usize + 1] as usize;
                match keys[lo..hi].binary_search(&hid) {
                    Ok(k) => (
                        next_node[lo + k],
                        next_hid.as_ref().map_or(hid, |h| h[lo + k]),
                    ),
                    Err(_) => (CORE_INVALID, 0),
                }
            }
        }
    }

    /// The one walk loop of the crate: from `source` carrying the
    /// initial header `hid`, hands every visited node, source first, to
    /// `visit` (a path sink, or a no-op to only count) and returns the
    /// hop count. A walk fails once it has taken `hop_budget` hops, the
    /// rule of [`cpr_routing::route`]. The caller resolves
    /// [`initial_id`](Self::initial_id), so a pair with no initial header
    /// costs neither a visit nor whatever `visit` writes into.
    #[inline(always)]
    fn walk_each(
        &self,
        source: NodeId,
        mut hid: u32,
        mut visit: impl FnMut(u32),
    ) -> Result<u32, WalkStop> {
        let mut at = source as u32;
        let mut hops = 0u32;
        visit(at);
        loop {
            let (nn, nh) = self.step(at, hid);
            if nn == CORE_DELIVER {
                return Ok(hops);
            }
            if nn >= CORE_INVALID {
                return Err(WalkStop::Unroutable);
            }
            at = nn;
            hid = nh;
            hops += 1;
            visit(at);
            if hops as usize >= self.hop_budget {
                return Err(WalkStop::Exhausted);
            }
        }
    }

    /// Replays `source → target` through the flat core and returns the
    /// full node sequence.
    ///
    /// # Errors
    ///
    /// An unroutable pair (also covering invalid states) or hop-budget
    /// exhaustion, as [`cpr_routing::route`] reports them.
    pub fn walk(&self, source: NodeId, target: NodeId) -> Result<Vec<NodeId>, RouteError> {
        let Some(hid) = self.initial_id(source, target) else {
            return Err(RouteError::Unroutable { source, target });
        };
        let mut visited = Vec::with_capacity(
            (4 * (usize::BITS - self.n.leading_zeros()) as usize + 8).min(self.hop_budget + 1),
        );
        match self.walk_each(source, hid, |v| visited.push(v as NodeId)) {
            Ok(_) => Ok(visited),
            Err(stop) => Err(stop.into_error(source, target, visited)),
        }
    }

    /// [`walk`](Self::walk), appending the node sequence to `out` as
    /// wire-width ids and returning the hop count — no allocation once
    /// `out` has reached its high-water capacity, which is what lets a
    /// serving worker walk a whole batch into one reused arena.
    ///
    /// # Errors
    ///
    /// As [`walk`](Self::walk); on error `out` is left exactly as it
    /// was passed in.
    pub fn walk_into(
        &self,
        source: NodeId,
        target: NodeId,
        out: &mut Vec<u32>,
    ) -> Result<u32, RouteError> {
        let Some(hid) = self.initial_id(source, target) else {
            return Err(RouteError::Unroutable { source, target });
        };
        let start = out.len();
        self.walk_each(source, hid, |v| out.push(v))
            .map_err(|stop| {
                let visited = out.drain(start..).map(|v| v as NodeId).collect();
                stop.into_error(source, target, visited)
            })
    }
}

/// Reusable per-worker scratch for [`LookupCore::lookup_batch`]: the
/// destination-order permutation, its counting-sort buckets, and the
/// per-query hop results. All buffers grow to their high-water mark on
/// the first batch and are reused allocation-free afterwards.
#[derive(Default)]
pub struct BatchScratch {
    /// Counting-sort buckets, one per destination node.
    counts: Vec<u32>,
    /// Query indices permuted into ascending-destination order.
    order: Vec<u32>,
    /// Per-query hop count in *original batch order*;
    /// [`HOPS_UNROUTABLE`]/[`HOPS_FAILED`] mark failures.
    hops: Vec<u32>,
}

impl BatchScratch {
    /// Empty scratch; buffers are sized lazily by the first batch.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Per-query outcomes of the last [`LookupCore::lookup_batch`] call,
    /// in original batch order: `Some(hops)` for delivered queries,
    /// `None` for failures (unroutable pairs and walk failures alike).
    pub fn results(&self) -> impl Iterator<Item = Option<u32>> + '_ {
        self.hops
            .iter()
            .map(|&h| if h < HOPS_FAILED { Some(h) } else { None })
    }
}

/// Aggregate outcome of one [`LookupCore::lookup_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries delivered at their target.
    pub delivered: usize,
    /// Total hops across delivered queries.
    pub total_hops: u64,
    /// Longest delivered route.
    pub max_hops: u32,
    /// Failed queries (unroutable pairs and walk failures).
    pub failed: usize,
}

impl<'p> LookupCore<'p> {
    /// The plane this view walks.
    pub fn plane(&self) -> &'p ForwardingPlane {
        self.plane
    }

    /// Walks every query of `batch` through the core in ascending
    /// destination order, leaving the per-query hop count (or a failure
    /// sentinel) in `scratch.hops` indexed by *original batch position*,
    /// and returns the aggregate [`BatchStats`].
    ///
    /// After `scratch` has served one batch of at least this size, the
    /// call performs no heap allocation at all — the counting sort, the
    /// permutation and the results all live in the reused buffers.
    pub fn lookup_batch(
        &self,
        batch: &[(NodeId, NodeId)],
        scratch: &mut BatchScratch,
    ) -> BatchStats {
        let core = self.plane.core();

        // Counting sort of query indices by destination: sequential
        // destinations make consecutive walks share transition rows, the
        // cache-friendly (and prefetch-friendly) access pattern.
        scratch.counts.clear();
        scratch.counts.resize(core.n, 0);
        for &(_, t) in batch {
            scratch.counts[t] += 1;
        }
        let mut run = 0u32;
        for c in scratch.counts.iter_mut() {
            let start = run;
            run += *c;
            *c = start;
        }
        scratch.order.clear();
        scratch.order.resize(batch.len(), 0);
        for (i, &(_, t)) in batch.iter().enumerate() {
            scratch.order[scratch.counts[t] as usize] = i as u32;
            scratch.counts[t] += 1;
        }

        scratch.hops.clear();
        scratch.hops.resize(batch.len(), 0);
        let mut stats = BatchStats::default();
        for k in 0..scratch.order.len() {
            let idx = scratch.order[k] as usize;
            let (source, target) = batch[idx];
            let outcome = match core.initial_id(source, target) {
                None => HOPS_UNROUTABLE,
                Some(hid) => core.walk_each(source, hid, |_| {}).unwrap_or(HOPS_FAILED),
            };
            scratch.hops[idx] = outcome;
            if outcome < HOPS_FAILED {
                stats.delivered += 1;
                stats.total_hops += u64::from(outcome);
                stats.max_hops = stats.max_hops.max(outcome);
            } else {
                stats.failed += 1;
            }
        }
        stats
    }
}

/// Engine tuning knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker shards. Clamped to the batch size; `0` is
    /// treated as `1`.
    pub shards: usize,
}

impl EngineConfig {
    /// A config with an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        EngineConfig { shards }
    }
}

impl Default for EngineConfig {
    /// One shard per worker thread of the workspace execution layer:
    /// `CPR_THREADS` when set, otherwise the available hardware threads.
    fn default() -> Self {
        EngineConfig {
            shards: cpr_core::par::thread_count(),
        }
    }
}

/// Hop-count distances used to score hop stretch: a thin wrapper over
/// the `cpr-paths` parallel-BFS [`HopMatrix`] (shortest path under
/// uniform unit weights, 4 flat bytes per pair — no preferred trees, no
/// `PathWeight` enums, so it stays feasible at Internet-scale node
/// counts).
#[derive(Clone, Debug)]
pub struct HopOptima {
    hops: HopMatrix,
}

impl HopOptima {
    /// Computes all-pairs hop distances for `graph` by parallel BFS.
    pub fn compute(graph: &Graph) -> Self {
        HopOptima {
            hops: HopMatrix::compute(graph),
        }
    }

    /// The optimal hop count `s → t`, or `None` when disconnected.
    #[inline]
    pub fn hops(&self, s: NodeId, t: NodeId) -> Option<u32> {
        self.hops.hops(s, t)
    }

    /// Bytes of the flat distance storage.
    pub fn bytes(&self) -> usize {
        self.hops.bytes()
    }
}

/// A query the plane failed to deliver, with the surfaced error.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryFailure {
    /// Source of the failed query.
    pub source: NodeId,
    /// Target of the failed query.
    pub target: NodeId,
    /// Why it failed.
    pub error: RouteError,
}

/// Hop-stretch statistics over the delivered queries whose optimal hop
/// count is at least 1.
#[derive(Clone, Debug, PartialEq)]
pub struct StretchStats {
    /// Mean of `hops / optimal_hops`.
    pub mean: f64,
    /// Worst observed ratio.
    pub max: f64,
    /// Number of queries scored.
    pub samples: usize,
}

/// The merged outcome of serving one batch.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Scheme the plane was compiled from.
    pub scheme: String,
    /// Number of queries in the batch.
    pub queries: usize,
    /// Worker shards actually used.
    pub shards: usize,
    /// Queries delivered at their target.
    pub delivered: usize,
    /// Every failed query, in batch order within each shard.
    pub failures: Vec<QueryFailure>,
    /// Total hops across delivered queries.
    pub total_hops: u64,
    /// Longest delivered route.
    pub max_hops: usize,
    /// Wall-clock time spent serving.
    pub elapsed: Duration,
    /// Hop stretch vs [`HopOptima`], when optima were supplied.
    pub stretch: Option<StretchStats>,
    /// Queries served through a patched (repaired) walk rather than the
    /// pristine compiled arrays. Always `0` for [`serve`]; filled by the
    /// self-healing plane's serve path.
    pub degraded: usize,
    /// Queries answered by falling back to the live scheme because their
    /// pair was dirty (awaiting repair). Always `0` for [`serve`].
    pub fallback: usize,
}

impl ServeReport {
    /// Queries served per second.
    pub fn throughput_qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mean hops over delivered queries.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} queries / {} shard(s) in {:.2?} — {:.2} Mq/s, {} delivered \
             (avg {:.2} hops, max {}), {} failed",
            self.scheme,
            self.queries,
            self.shards,
            self.elapsed,
            self.throughput_qps() / 1e6,
            self.delivered,
            self.mean_hops(),
            self.max_hops,
            self.failures.len()
        )?;
        if self.degraded > 0 || self.fallback > 0 {
            write!(
                f,
                ", {} degraded (patched walk), {} fallback (live route)",
                self.degraded, self.fallback
            )?;
        }
        if let Some(s) = &self.stretch {
            write!(
                f,
                ", hop stretch mean {:.3} max {:.2} ({} scored)",
                s.mean, s.max, s.samples
            )?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct ShardStats {
    delivered: usize,
    total_hops: u64,
    max_hops: usize,
    failures: Vec<QueryFailure>,
    stretch_sum: f64,
    stretch_max: f64,
    stretch_samples: usize,
}

fn run_shard(
    core: &LookupCore<'_>,
    queries: &[(NodeId, NodeId)],
    optima: Option<&HopOptima>,
    record: bool,
) -> (ShardStats, cpr_obs::ShardMetrics) {
    let plane = core.plane;
    let mut scratch = BatchScratch::new();
    core.lookup_batch(queries, &mut scratch);
    let mut st = ShardStats::default();
    let mut metrics = cpr_obs::ShardMetrics::new();
    // Stats, metrics and failures are folded in original batch order so
    // reports and the obs registry stay byte-identical to the pre-core
    // engine regardless of the destination-ordered walk above.
    for (i, &(source, target)) in queries.iter().enumerate() {
        match scratch.hops[i] {
            HOPS_UNROUTABLE => {
                if record {
                    metrics.add("plane.serve.unroutable", 1);
                }
                st.failures.push(QueryFailure {
                    source,
                    target,
                    error: RouteError::Unroutable { source, target },
                });
            }
            HOPS_FAILED => {
                st.failures.push(QueryFailure {
                    source,
                    target,
                    error: plane
                        .walk(source, target)
                        .expect_err("the batched walk of this pair failed"),
                });
            }
            hops => {
                let hops = hops as usize;
                st.delivered += 1;
                st.total_hops += hops as u64;
                st.max_hops = st.max_hops.max(hops);
                if record {
                    // Latency in hops: the logical per-query service
                    // cost, bucketed exactly.
                    metrics.record("plane.serve.hops", hops as u64);
                }
                if let Some(opt) = optima {
                    if let Some(d) = opt.hops(source, target) {
                        if d > 0 {
                            let ratio = hops as f64 / f64::from(d);
                            st.stretch_sum += ratio;
                            st.stretch_max = st.stretch_max.max(ratio);
                            st.stretch_samples += 1;
                        }
                    }
                }
            }
        }
    }
    if record {
        metrics.add("plane.serve.failed", st.failures.len() as u64);
    }
    (st, metrics)
}

/// Serves `queries` against the compiled plane across
/// [`EngineConfig::shards`] scoped worker threads.
///
/// Pass [`HopOptima`] to score hop stretch; pass `None` to skip the
/// all-pairs comparison (e.g. in throughput benchmarks).
pub fn serve(
    plane: &ForwardingPlane,
    queries: &[(NodeId, NodeId)],
    optima: Option<&HopOptima>,
    config: &EngineConfig,
) -> ServeReport {
    serve_obs(plane, queries, optima, config, &cpr_obs::Obs::disabled())
}

/// [`serve`], recording engine metrics into `obs`: a per-query
/// `plane.serve.hops` latency histogram (exact hop buckets, recorded
/// into per-shard [`cpr_obs::ShardMetrics`] absorbed in shard index
/// order, so the histogram is byte-identical for any shard count),
/// delivered/unroutable/failed counters, and a trace event carrying the
/// batch's wall-clock serve time (tracer only — wall clocks stay out of
/// the registry).
pub fn serve_obs(
    plane: &ForwardingPlane,
    queries: &[(NodeId, NodeId)],
    optima: Option<&HopOptima>,
    config: &EngineConfig,
    obs: &cpr_obs::Obs,
) -> ServeReport {
    let shards = config.shards.max(1).min(queries.len().max(1));
    let chunk = queries.len().div_ceil(shards).max(1);
    let record = obs.is_enabled();
    // One read-only view, shared across every worker shard.
    let core = plane.lookup_core();
    let start = Instant::now();
    let mut stats: Vec<ShardStats> = Vec::with_capacity(shards);
    std::thread::scope(|scope| {
        let core = &core;
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|c| scope.spawn(move || run_shard(core, c, optima, record)))
            .collect();
        // Join in spawn order = shard index order; shard metrics are
        // absorbed in the same order.
        for h in handles {
            let (st, metrics) = h.join().expect("shard worker panicked");
            obs.absorb(metrics);
            stats.push(st);
        }
    });
    let elapsed = start.elapsed();
    obs.incr("plane.serve.batches");
    obs.add("plane.serve.queries", queries.len() as u64);
    obs.event(
        "plane.serve",
        &[
            ("scheme", cpr_obs::Json::str(plane.scheme())),
            ("queries", cpr_obs::Json::int(queries.len())),
            ("shards", cpr_obs::Json::int(stats.len())),
            ("micros", cpr_obs::Json::int(elapsed.as_micros())),
        ],
    );

    let used = stats.len().max(1);
    let mut report = ServeReport {
        scheme: plane.scheme().to_string(),
        queries: queries.len(),
        shards: used,
        delivered: 0,
        failures: Vec::new(),
        total_hops: 0,
        max_hops: 0,
        elapsed,
        stretch: None,
        degraded: 0,
        fallback: 0,
    };
    let mut stretch_sum = 0.0;
    let mut stretch_max = 0.0f64;
    let mut stretch_samples = 0usize;
    for st in stats {
        report.delivered += st.delivered;
        report.total_hops += st.total_hops;
        report.max_hops = report.max_hops.max(st.max_hops);
        report.failures.extend(st.failures);
        stretch_sum += st.stretch_sum;
        stretch_max = stretch_max.max(st.stretch_max);
        stretch_samples += st.stretch_samples;
    }
    obs.add("plane.serve.delivered", report.delivered as u64);
    if optima.is_some() {
        report.stretch = Some(StretchStats {
            mean: if stretch_samples == 0 {
                1.0
            } else {
                stretch_sum / stretch_samples as f64
            },
            max: stretch_max,
            samples: stretch_samples,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::workload::{generate, TrafficPattern};
    use cpr_algebra::policies::ShortestPath;
    use cpr_graph::{generators, EdgeWeights};
    use cpr_routing::DestTable;
    use rand::SeedableRng;

    fn plane_on_gnp(n: usize, seed: u64) -> (Graph, ForwardingPlane) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.12, &mut rng);
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let plane = compile(&scheme, &g).unwrap();
        (g, plane)
    }

    #[test]
    fn serves_uniform_batch_with_optimal_stretch() {
        let (g, plane) = plane_on_gnp(30, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let queries = generate(&g, &TrafficPattern::Uniform, 2000, &mut rng);
        let optima = HopOptima::compute(&g);
        let report = serve(
            &plane,
            &queries,
            Some(&optima),
            &EngineConfig::with_shards(1),
        );
        assert_eq!(report.delivered, 2000);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // Destination tables under shortest path are hop-optimal.
        let s = report.stretch.as_ref().unwrap();
        assert!((s.mean - 1.0).abs() < 1e-9, "mean stretch {}", s.mean);
        assert_eq!(s.samples, 2000);
        assert!(report.throughput_qps() > 0.0);
    }

    #[test]
    fn sharded_serving_matches_single_shard() {
        let (g, plane) = plane_on_gnp(25, 13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let queries = generate(&g, &TrafficPattern::Gravity, 999, &mut rng);
        let one = serve(&plane, &queries, None, &EngineConfig::with_shards(1));
        let four = serve(&plane, &queries, None, &EngineConfig::with_shards(4));
        assert_eq!(one.delivered, four.delivered);
        assert_eq!(one.total_hops, four.total_hops);
        assert_eq!(one.max_hops, four.max_hops);
        assert_eq!(four.shards, 4);
    }

    #[test]
    fn unroutable_queries_are_reported_not_masked() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let plane = compile(&scheme, &g).unwrap();
        let queries = vec![(0, 1), (0, 2), (2, 3), (3, 1)];
        let report = serve(&plane, &queries, None, &EngineConfig::with_shards(2));
        assert_eq!(report.delivered, 2);
        assert_eq!(report.failures.len(), 2);
        assert!(report
            .failures
            .iter()
            .all(|f| matches!(f.error, RouteError::Unroutable { .. })));
        assert!(report.to_string().contains("2 failed"));
    }

    #[test]
    fn walk_into_appends_exactly_what_walk_returns() {
        let (g, plane) = plane_on_gnp(25, 21);
        let core = plane.static_core();
        let mut out = vec![u32::MAX];
        for s in g.nodes() {
            for t in g.nodes().filter(|&t| t != s) {
                let path = core.walk(s, t).unwrap();
                out.truncate(1);
                let hops = core.walk_into(s, t, &mut out).unwrap();
                assert_eq!(hops as usize, path.len() - 1);
                assert_eq!(out[0], u32::MAX, "walk_into overwrote the arena");
                assert!(out[1..].iter().map(|&v| v as NodeId).eq(path));
            }
        }
    }

    #[test]
    fn a_failed_walk_into_leaves_the_arena_as_it_was() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        let plane = compile(&DestTable::build(&g, &w, &ShortestPath), &g).unwrap();
        let mut out = vec![7, 8];
        assert_eq!(
            plane.static_core().walk_into(0, 2, &mut out),
            Err(RouteError::Unroutable {
                source: 0,
                target: 2
            })
        );
        assert_eq!(out, [7, 8]);

        // Out of hops mid-route: the error carries the nodes visited,
        // as `walk` reports them, and the arena is rolled back.
        let (g, plane) = plane_on_gnp(25, 22);
        let mut core = plane.static_core();
        let (s, t) = g
            .nodes()
            .flat_map(|s| g.nodes().map(move |t| (s, t)))
            .find(|&(s, t)| core.walk(s, t).is_ok_and(|p| p.len() > 2))
            .expect("a route of two hops or more");
        core.hop_budget = 1;
        let exhausted = core.walk(s, t).unwrap_err();
        assert!(
            matches!(&exhausted, RouteError::HopBudgetExhausted { visited } if visited.len() == 2)
        );
        assert_eq!(core.walk_into(s, t, &mut out), Err(exhausted));
        assert_eq!(out, [7, 8]);
    }

    #[test]
    fn shard_count_is_clamped_to_batch_size() {
        let (_, plane) = plane_on_gnp(10, 15);
        let report = serve(&plane, &[(0, 1)], None, &EngineConfig::with_shards(64));
        assert_eq!(report.shards, 1);
        assert_eq!(report.queries, 1);
    }
}
