//! Scheme → forwarding-plane compilation.
//!
//! [`compile`] flattens a [`RoutingScheme`] into an immutable
//! [`ForwardingPlane`]: every reachable `(node, header)` state of the
//! scheme is *interned* to a dense integer id and its forwarding decision
//! is written, port already resolved to the neighbor it leads to, into
//! the flat `u32` transition arrays of a [`StaticCore`] — the one stored
//! form of the plane, which serving walks directly. A lookup is then an
//! array load per hop (two where the scheme rewrites headers) instead of
//! an evaluation of the scheme's local routing function — no allocation,
//! no header cloning, no tree walking.
//!
//! There are two ways in, with one result. A destination-labelled scheme
//! ([`RoutingScheme::destination_labelled`]) is *transcribed*: one
//! `initial_header` and one `step` per `(node, target)`, in blocks of
//! destinations. Every other scheme is *traced*: its walks are driven
//! pair by pair, headers interned as they appear.
//!
//! The compiler is *honest* in the same sense as the rest of the
//! workspace: every `(source, target)` pair's route is checked against
//! the live [`step`](RoutingScheme::step) simulation's rules during
//! compilation — a packet that is misdelivered, names a bad port or runs
//! out of hops aborts the compile with the underlying [`RouteError`], and
//! a scheme that breaks its destination-labelled declaration aborts it
//! too. The bit accounting of the plane ([`PlaneMemory`]) counts every
//! transition at the width of its bit-packed encoding (`kind | port |
//! next header`). That encoding is never stored: [`ForwardingPlane::memory`]
//! computes its size and [`ForwardingPlane::digest`] streams it from the
//! flat arrays.

use std::fmt;
use std::sync::Arc;

use cpr_core::fxhash::FxHashMap;
use cpr_graph::{Graph, NodeId, Port};
use cpr_routing::bits::ceil_log2;
use cpr_routing::{RouteAction, RouteError, RoutingScheme};

use crate::engine::{CoreLayout, LookupCore, StaticCore, CORE_DELIVER, CORE_INVALID};

/// Entry kind: no transition stored for this `(node, header)` state.
const KIND_INVALID: u64 = 0;
/// Entry kind: deliver the packet here.
const KIND_DELIVER: u64 = 1;
/// Entry kind: forward on a port with a rewritten header id.
const KIND_FORWARD: u64 = 2;

/// Minimum sources per compile shard: every shard pays one intern-table
/// replay at merge time, so fanning a small graph out into many tiny
/// shards buys nothing and costs a merge pass per shard. Shard counts
/// only affect speed, never bytes — the merged plane is digest-identical
/// for every split.
const COMPILE_MIN_GRAIN: usize = 16;

/// A fixed-width bit-packed array: `len` unsigned values of `width ≤ 64`
/// bits each, stored contiguously across little-endian `u64` words.
///
/// The `n²` initial-header table is stored as one, at the honest
/// `⌈log₂ (headers + 1)⌉` bits per pair rather than whatever Rust's
/// native types round up to.
///
/// `PartialEq`/`Eq` compare the logical contents (width, length and
/// packed words) — the multi-plane substrate dedupe relies on this to
/// detect byte-identical initial-header tables across algebra classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedArray {
    width: u32,
    mask: u64,
    len: usize,
    /// Packed payload plus one sentinel word, so a get may always read
    /// the pair of words a value could span without branching.
    words: Vec<u64>,
}

impl PackedArray {
    /// An all-zero array of `len` values of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn new(len: usize, width: u32) -> Self {
        assert!(width <= 64, "field width {width} exceeds 64 bits");
        let bits = len as u64 * u64::from(width);
        let words = usize::try_from(bits.div_ceil(64)).expect("array fits memory");
        PackedArray {
            width,
            mask: if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            },
            len,
            words: vec![0; words.max(1) + 1],
        }
    }

    /// The array of `len` values of `width` bits whose `i`-th value is
    /// `f(i)`, packed in one sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`; debug-panics if a value does not fit.
    pub(crate) fn from_fn(len: usize, width: u32, mut f: impl FnMut(usize) -> u64) -> Self {
        let mut a = PackedArray::new(len, width);
        if width == 0 {
            return a;
        }
        let (mut word, mut fill, mut at) = (0u64, 0u32, 0usize);
        for i in 0..len {
            let value = f(i);
            debug_assert!(
                value <= a.mask,
                "value {value} does not fit in {width} bits"
            );
            word |= value << fill;
            fill += width;
            if fill >= 64 {
                a.words[at] = word;
                at += 1;
                fill -= 64;
                // The bits of `value` that did not fit in the last word.
                word = if fill == 0 {
                    0
                } else {
                    value >> (width - fill)
                };
            }
        }
        if fill > 0 {
            a.words[at] = word;
        }
        a
    }

    fn mask(&self) -> u64 {
        self.mask
    }

    /// The value at index `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let bit = i as u64 * u64::from(self.width);
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        // Branchless double-word read through the sentinel word.
        let pair = (u128::from(self.words[word + 1]) << 64) | u128::from(self.words[word]);
        ((pair >> off) as u64) & self.mask
    }

    /// Stores `value` at index `i`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `value` does not fit in `width` bits.
    pub fn set(&mut self, i: usize, value: u64) {
        debug_assert!(i < self.len);
        if self.width == 0 {
            debug_assert_eq!(value, 0);
            return;
        }
        let mask = self.mask();
        debug_assert!(
            value <= mask,
            "value {value} does not fit in {} bits",
            self.width
        );
        let bit = i as u64 * u64::from(self.width);
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        self.words[word] = (self.words[word] & !(mask << off)) | (value << off);
        if off + self.width > 64 {
            let spill_bits = self.width - (64 - off);
            let spill_mask = (1u64 << spill_bits) - 1;
            self.words[word + 1] = (self.words[word + 1] & !spill_mask) | (value >> (64 - off));
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the array holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of one value in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total payload size in bits (`len × width`).
    pub fn bits(&self) -> u64 {
        self.len as u64 * u64::from(self.width)
    }
}

/// An immutable compiled forwarding plane: the scheme's reachable
/// `(node, header)` states flattened into the flat, port-resolved
/// transition arrays of a [`StaticCore`] (with the `n²` initial-header
/// table), plus a CSR snapshot of the graph's port-labelled adjacency —
/// lookups never touch the original [`Graph`] or scheme again.
///
/// The core's arrays sit behind `Arc`s: a clone of the plane, a
/// [`static_core`](Self::static_core) and a [`lookup_core`]
/// (Self::lookup_core) all share them, so a serving snapshot copies no
/// transition array.
#[derive(Clone, Debug)]
pub struct ForwardingPlane {
    scheme: String,
    states: usize,
    /// Widths of the packed encoding the plane is accounted and digested
    /// at (`entry = kind | port | next header`), never stored.
    port_width: u32,
    header_width: u32,
    entry_width: u32,
    /// The one stored form of the transitions and the initial table.
    core: StaticCore,
    /// CSR row offsets into `nbr`, length `n + 1`. `Arc`-shared: every
    /// plane compiled against the same topology carries the same CSR.
    row: Arc<Vec<u32>>,
    /// Neighbor of each `(node, port)` in port order.
    nbr: Arc<Vec<u32>>,
    scheme_header_bits: u64,
    /// [`graph_digest`] of the topology the plane was compiled against.
    topology_digest: u64,
}

/// Why compilation failed. Routing errors discovered while driving the
/// live simulation are carried verbatim — the compiler never masks a
/// misbehaving scheme.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The scheme was built for a different node count than the graph.
    NodeCountMismatch {
        /// `scheme.node_count()`.
        scheme: usize,
        /// `graph.node_count()`.
        graph: usize,
    },
    /// The live simulation failed while tracing a pair during compilation.
    Route {
        /// Source of the failing pair.
        source: NodeId,
        /// Target of the failing pair.
        target: NodeId,
        /// The underlying simulation error.
        error: RouteError,
    },
    /// The packet stopped at a node other than its target.
    Misdelivery {
        /// Source of the failing pair.
        source: NodeId,
        /// Intended target.
        target: NodeId,
        /// Where the packet was actually delivered.
        delivered: NodeId,
    },
    /// A scheme that declared itself destination-labelled
    /// ([`RoutingScheme::destination_labelled`]) broke the declaration:
    /// the header of `source → target` differs from the one the first
    /// source attaches for `target` — rewritten by `step` at `at`, or
    /// attached by `source` itself (`at == source`).
    HeaderMismatch {
        /// Source of the failing pair.
        source: NodeId,
        /// Target of the failing pair.
        target: NodeId,
        /// Where the header differs.
        at: NodeId,
    },
    /// An internal id space (headers, states, nodes) overflowed `u32`.
    CapacityExceeded {
        /// Which id space overflowed.
        what: &'static str,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NodeCountMismatch { scheme, graph } => {
                write!(f, "scheme built for {scheme} nodes, graph has {graph}")
            }
            CompileError::Route {
                source,
                target,
                error,
            } => write!(f, "tracing {source} → {target}: {error}"),
            CompileError::Misdelivery {
                source,
                target,
                delivered,
            } => write!(f, "packet {source} → {target} delivered at {delivered}"),
            CompileError::HeaderMismatch { source, target, at } => write!(
                f,
                "destination-labelled scheme: header of {source} → {target} differs at {at}"
            ),
            CompileError::CapacityExceeded { what } => {
                write!(f, "too many {what} for 32-bit interned ids")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A `(source, target)` pair where the compiled plane and the live
/// simulation disagree, with both sides' outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Source of the diverging pair.
    pub source: NodeId,
    /// Target of the diverging pair.
    pub target: NodeId,
    /// What the compiled plane did.
    pub plane: Result<Vec<NodeId>, RouteError>,
    /// What the live simulation did.
    pub live: Result<Vec<NodeId>, RouteError>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → {}: plane {:?}, live {:?}",
            self.source, self.target, self.plane, self.live
        )
    }
}

/// Honest bit accounting of a compiled plane, in the spirit of
/// [`cpr_routing::MemoryReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlaneMemory {
    /// Scheme the plane was compiled from.
    pub scheme: String,
    /// Node count.
    pub nodes: usize,
    /// Distinct interned headers.
    pub headers: usize,
    /// Stored `(node, header)` transition states.
    pub states: usize,
    /// Width of one packed transition entry in bits.
    pub entry_width: u32,
    /// Which layout the compiler chose (`"dense"` or `"sparse"`).
    pub layout: &'static str,
    /// Bits of the transitions in their packed encoding (entries, plus
    /// keys and 32-bit run offsets for the sparse layout) — the
    /// Definition 2 figure. The flat core that serves holds 64 bits per
    /// dense slot, or 96 per sparse state plus its offsets.
    pub transition_bits: u64,
    /// Bits in the `n²` initial-header table.
    pub initial_bits: u64,
    /// Bits in the CSR adjacency snapshot.
    pub adjacency_bits: u64,
    /// The source scheme's own `header_bits()`, carried over so plane
    /// reports can be compared against Definition 2 accounting.
    pub scheme_header_bits: u64,
}

impl PlaneMemory {
    /// Total plane footprint in bits.
    pub fn total_bits(&self) -> u64 {
        self.transition_bits + self.initial_bits + self.adjacency_bits
    }
}

impl fmt::Display for PlaneMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={}, {} headers, {} states, {} layout, {}-bit entries, \
             {} KiB total ({} transition + {} initial + {} adjacency bits)",
            self.scheme,
            self.nodes,
            self.headers,
            self.states,
            self.layout,
            self.entry_width,
            self.total_bits() / 8192,
            self.transition_bits,
            self.initial_bits,
            self.adjacency_bits
        )
    }
}

/// A header interner: headers to dense ids, plus the id → header table
/// in assignment order (which the sharded compiler replays to merge
/// shard-local id spaces deterministically).
///
/// [`intern`](Self::intern) takes the header *by value* and goes through
/// `HashMap::entry`, so the hot path — a hit on an already-interned
/// header, which is the overwhelming majority once walks start joining
/// committed states — hashes exactly once and never clones; the single
/// clone per *distinct* header happens only on the vacant arm, where the
/// map must own a copy anyway.
pub(crate) struct Interner<H> {
    pub(crate) map: FxHashMap<H, u32>,
    pub(crate) order: Vec<H>,
}

impl<H: Clone + Eq + std::hash::Hash> Interner<H> {
    pub(crate) fn new() -> Self {
        Interner {
            map: FxHashMap::default(),
            order: Vec::new(),
        }
    }

    /// The id for `h`, assigning the next dense id on first sight.
    pub(crate) fn intern(&mut self, h: H) -> Result<u32, CompileError> {
        use std::collections::hash_map::Entry;
        match self.map.entry(h) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(v) => {
                let id = u32::try_from(self.order.len())
                    .ok()
                    .filter(|&id| id < u32::MAX)
                    .ok_or(CompileError::CapacityExceeded { what: "headers" })?;
                self.order.push(v.key().clone());
                v.insert(id);
                Ok(id)
            }
        }
    }

    /// The header behind an interned id.
    fn header(&self, id: u32) -> &H {
        &self.order[id as usize]
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// FNV-1a digest of a topology: the node count plus the edge list in
/// edge-id order. A compiled plane records the digest of the graph it
/// was compiled against, so a stale plane — one compiled before a link
/// died or appeared — is detectable with a single integer compare
/// instead of being trusted to serve silently wrong hops.
pub fn graph_digest(graph: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.word(graph.node_count() as u64);
    for (_, (u, v)) in graph.edges() {
        h.word(u as u64);
        h.word(v as u64);
    }
    h.finish()
}

/// Sentinel `next`-id marking a *deliver* transition in the flat shard
/// records (header ids are capped strictly below `u32::MAX` by the
/// interner, so the value can never collide with a real id).
const REC_DELIVER: u64 = u32::MAX as u64;

/// A flat `(node, header id) → step` record: the key packs
/// `node << 32 | hid`, the value packs `next node << 32 | next hid` with
/// [`REC_DELIVER`] in the low word for a deliver. Sixteen bytes per
/// transition, no per-entry map overhead — the arena the shards stream
/// their walks into.
type TransRec = (u64, u64);

/// Records per full chunk of a [`TransArena`] (1 MiB).
const TRANS_CHUNK: usize = 1 << 16;

/// A shard's flat transition arena, in commit order, as chunks that
/// double up to [`TRANS_CHUNK`] records and are never reallocated:
/// appending copies nothing, so the arena peaks at its records plus one
/// chunk where a doubling `Vec` holds old and new buffers at each step.
#[derive(Default)]
struct TransArena {
    chunks: Vec<Vec<TransRec>>,
}

impl TransArena {
    fn push(&mut self, rec: TransRec) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(rec),
            last => {
                let cap = last.map_or(1 << 8, |full| (2 * full.capacity()).min(TRANS_CHUNK));
                let mut chunk = Vec::with_capacity(cap);
                chunk.push(rec);
                self.chunks.push(chunk);
            }
        }
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = &TransRec> {
        self.chunks.iter().flatten()
    }
}

#[inline(always)]
fn rec_key(node: NodeId, hid: u32) -> u64 {
    ((node as u64) << 32) | u64::from(hid)
}

/// "No target recorded" in a dense [`DeliverRow`] (node ids are capped
/// below `u32::MAX` before any shard runs).
const NO_TARGET: u32 = u32::MAX;

/// What the early-stop index knows of a committed state: the target it
/// delivers at, and the hops its route takes to get there.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Committed {
    target: u32,
    hops: u32,
}

/// An empty slot of a dense [`DeliverRow`].
const NOT_COMMITTED: Committed = Committed {
    target: NO_TARGET,
    hops: 0,
};

/// One header's row of the early-stop index.
enum DeliverRow {
    /// `(node, committed)` pairs sorted by node — what a row is until it
    /// holds [`DeliverIndex::promote_at`] states.
    Compact(Vec<(u32, Committed)>),
    /// One slot per node, [`NOT_COMMITTED`] where no state is committed.
    Dense(Box<[Committed]>),
}

/// The early-stop index of one compile shard: for every committed
/// `(node, header id)` state, the target the state is known to deliver
/// at and the hops left to it — a walk that reaches a committed state
/// stops there, and its route's full length is known.
///
/// Rows are **header-major** and allocated per *seen* header: headers
/// change rarely along a walk, so consecutive probes stay inside one
/// row, and a scheme with many headers of a few states each
/// (`SrcDestTable`: `n²` headers) pays for its states, never for
/// `n · headers` slots. A row stays a sorted compact list until it
/// holds a quarter of the nodes and only then becomes a dense
/// `n`-entry array, so both forms cost at most 32 bytes per state
/// (12-byte entries at `Vec`'s ≤ 2× growth slack; `8n` bytes over
/// ≥ `n/4` states) plus one row handle per header.
struct DeliverIndex {
    n: usize,
    /// Row occupancy at which compact becomes dense.
    promote_at: usize,
    /// Indexed by shard-local header id; grows as headers are interned.
    rows: Vec<DeliverRow>,
}

impl DeliverIndex {
    fn new(n: usize) -> Self {
        DeliverIndex {
            n,
            promote_at: (n / 4).max(4),
            rows: Vec::new(),
        }
    }

    /// What is known of state `(node, hid)`, if it is committed.
    #[inline]
    fn get(&self, node: NodeId, hid: u32) -> Option<Committed> {
        match self.rows.get(hid as usize)? {
            DeliverRow::Compact(row) => row
                .binary_search_by_key(&(node as u32), |&(at, _)| at)
                .ok()
                .map(|i| row[i].1),
            DeliverRow::Dense(row) => Some(row[node]).filter(|c| c.target != NO_TARGET),
        }
    }

    /// Records that state `(node, hid)` is committed as `c`.
    fn insert(&mut self, node: NodeId, hid: u32, c: Committed) {
        let hid = hid as usize;
        if hid >= self.rows.len() {
            self.rows
                .resize_with(hid + 1, || DeliverRow::Compact(Vec::new()));
        }
        match &mut self.rows[hid] {
            DeliverRow::Dense(row) => row[node] = c,
            DeliverRow::Compact(row) => {
                match row.binary_search_by_key(&(node as u32), |&(at, _)| at) {
                    Ok(i) => row[i].1 = c,
                    Err(i) if row.len() < self.promote_at => row.insert(i, (node as u32, c)),
                    Err(_) => {
                        let mut dense = vec![NOT_COMMITTED; self.n].into_boxed_slice();
                        for &(at, old) in row.iter() {
                            dense[at as usize] = old;
                        }
                        dense[node] = c;
                        self.rows[hid] = DeliverRow::Dense(dense);
                    }
                }
            }
        }
    }
}

/// The error of a pair whose route takes `hop_budget` hops or more,
/// carrying the nodes [`cpr_routing::route`] reports it visiting.
fn exhausted<S: RoutingScheme>(
    scheme: &S,
    graph: &Graph,
    source: NodeId,
    target: NodeId,
) -> CompileError {
    let visited = match cpr_routing::route(scheme, graph, source, target) {
        Err(RouteError::HopBudgetExhausted { visited }) => visited,
        _ => Vec::new(),
    };
    CompileError::Route {
        source,
        target,
        error: RouteError::HopBudgetExhausted { visited },
    }
}

/// Everything one compile shard (a contiguous source range) learned — a
/// finished *sub-plane* in shard-local ids, ready for the one-pass
/// remap merge:
///
/// * `headers` is the shard's intern **arena**: every distinct header
///   the shard met, in local discovery order (the merge replays this
///   order to assign global ids deterministically);
/// * `trans` is the flat transition arena in commit order, local ids;
/// * `initial` is the shard's rows of the `n²` initial-header table,
///   already bit-packed at the shard-local header width (sentinel =
///   local header count), so a finished shard holds its O(|sources|·n)
///   state at packed width instead of 32 bits per pair.
struct ShardTrace<H> {
    /// Shard-local interned headers, in local discovery order.
    headers: Vec<H>,
    /// Flat `(key, value)` transition records (see [`TransRec`]).
    trans: TransArena,
    /// `sources.len() × n` local initial-header ids at local width;
    /// the value `headers.len()` is the unroutable sentinel.
    initial: PackedArray,
}

/// Traces every `(source, target)` pair of a contiguous `sources` range
/// through the live simulation, exactly like the serial compiler but
/// with shard-local interning and shard-local early-stop state. The
/// shard streams: transitions append to a flat arena as each pair's walk
/// commits, and the initial-header rows are packed down to the local
/// header width before the shard returns — nothing quadratic outlives
/// the shard at full `u32` width.
///
/// Determinism of the merged result does not depend on shard boundaries:
/// a shard walk that (lacking another shard's `delivers_at` knowledge)
/// continues past a state an earlier source already committed only ever
/// revisits states whose transitions are a pure function of the scheme —
/// it re-derives byte-identical entries, and every header it meets there
/// was already interned by that earlier source, so the merge keeps the
/// serial discovery order of genuinely-new headers.
fn trace_shard<S: RoutingScheme>(
    scheme: &S,
    graph: &Graph,
    sources: std::ops::Range<usize>,
    hop_budget: usize,
) -> Result<ShardTrace<S::Header>, CompileError> {
    let n = graph.node_count();
    let mut intern: Interner<S::Header> = Interner::new();
    let mut trans = TransArena::default();
    // Where each committed state delivers and in how many hops — lets
    // later walks stop as soon as they join an already-verified path.
    let mut delivers_at = DeliverIndex::new(n);
    let mut initial = vec![u32::MAX; sources.len() * n];
    // Reused across pairs: the hot loop performs no per-pair allocation.
    let mut pending: Vec<TransRec> = Vec::new();

    for source in sources.clone() {
        for target in graph.nodes() {
            let Some(h0) = scheme.initial_header(source, target) else {
                continue;
            };
            let mut hid = intern.intern(h0)?;
            initial[(source - sources.start) * n + target] = hid;
            let mut at = source;
            pending.clear();
            // Where the walk delivered, and the hops after its last
            // pending state.
            let (reached, tail) = loop {
                if let Some(c) = delivers_at.get(at, hid) {
                    // Joined a verified walk: the route is the pending
                    // hops plus the rest of that walk, and must stay
                    // under the budget as a whole.
                    if pending.len() + c.hops as usize >= hop_budget {
                        return Err(exhausted(scheme, graph, source, target));
                    }
                    break (c.target as NodeId, c.hops + 1);
                }
                match scheme.step(at, intern.header(hid)) {
                    RouteAction::Deliver => {
                        pending.push((rec_key(at, hid), REC_DELIVER));
                        break (at, 0);
                    }
                    RouteAction::Forward { port, header: next } => {
                        let Some((next_node, _)) = graph.neighbor_at(at, port) else {
                            return Err(CompileError::Route {
                                source,
                                target,
                                error: RouteError::BadPort { at, port },
                            });
                        };
                        let next_id = intern.intern(next)?;
                        pending.push((
                            rec_key(at, hid),
                            ((next_node as u64) << 32) | u64::from(next_id),
                        ));
                        at = next_node;
                        hid = next_id;
                        // The rule of `cpr_routing::route`: a route fails
                        // once it has taken `hop_budget` hops.
                        if pending.len() >= hop_budget {
                            return Err(exhausted(scheme, graph, source, target));
                        }
                    }
                }
            };
            if reached != target {
                return Err(CompileError::Misdelivery {
                    source,
                    target,
                    delivered: reached,
                });
            }
            for (i, &(key, val)) in pending.iter().enumerate() {
                let c = Committed {
                    target: target as u32,
                    hops: (pending.len() - 1 - i) as u32 + tail,
                };
                delivers_at.insert((key >> 32) as NodeId, key as u32, c);
                trans.push((key, val));
            }
        }
    }

    // Pack the initial rows down to the shard-local header width before
    // returning: a finished sub-plane, not a 32-bit scratch table.
    let local_headers = intern.order.len();
    let sentinel = local_headers as u64;
    let mut packed = PackedArray::new(initial.len(), ceil_log2(local_headers as u64 + 1));
    for (i, &v) in initial.iter().enumerate() {
        packed.set(
            i,
            if v == u32::MAX {
                sentinel
            } else {
                u64::from(v)
            },
        );
    }

    Ok(ShardTrace {
        headers: intern.order,
        trans,
        initial: packed,
    })
}

/// A shard record with its local header ids (key and next) mapped
/// through `remap` to global ones.
fn remap_rec(remap: &[u32], key: u64, val: u64) -> TransRec {
    let node = key >> 32;
    let hid = u64::from(remap[(key & 0xFFFF_FFFF) as usize]);
    let next = val & 0xFFFF_FFFF;
    let gval = if next == REC_DELIVER {
        val
    } else {
        (val & !0xFFFF_FFFF) | u64::from(remap[next as usize])
    };
    ((node << 32) | hid, gval)
}

/// Every shard's records in global ids, sorted by key with duplicates
/// dropped. Duplicate keys always carry identical values (transitions
/// are a pure function of the state), so an unstable key sort plus
/// adjacent dedup yields the canonical distinct set. The shard arenas
/// are freed once copied.
fn merged_records(remaps: &[Vec<u32>], shard_trans: Vec<TransArena>) -> Vec<TransRec> {
    let mut sorted = Vec::with_capacity(shard_trans.iter().map(TransArena::len).sum());
    for (remap, recs) in remaps.iter().zip(shard_trans) {
        sorted.extend(recs.iter().map(|&(key, val)| remap_rec(remap, key, val)));
    }
    sorted.sort_unstable_by_key(|&(key, _)| key);
    sorted.dedup_by_key(|&mut (key, _)| key);
    sorted
}

/// A record's value as the core's `(next node | deliver, next hid)`.
fn core_step(val: u64) -> (u32, u32) {
    if val & 0xFFFF_FFFF == REC_DELIVER {
        (CORE_DELIVER, 0)
    } else {
        ((val >> 32) as u32, val as u32)
    }
}

/// Compiles `scheme` into a [`ForwardingPlane`] over `graph`.
///
/// A scheme that declares itself
/// [destination-labelled](RoutingScheme::destination_labelled) is
/// **transcribed**: its plane is one `next_node` row per destination
/// header, so one `initial_header` and one `step` per `(node, target)`
/// state fill it, without hashing a header per hop. The declaration is
/// checked, never trusted — a header that differs by source or is
/// rewritten by `step` fails with [`CompileError::HeaderMismatch`] — and
/// the result is the plane the tracing compiler builds, byte for byte:
/// the same states, header ids, widths, layout and initial table, so
/// [`digest`](ForwardingPlane::digest) and
/// [`memory`](ForwardingPlane::memory) do not tell the two apart.
///
/// Every other scheme is **traced**: each `(source, target)` pair with
/// an initial header is driven through the live
/// [`step`](RoutingScheme::step) simulation; transitions are committed
/// only after the walk provably delivers at the correct target, and
/// walks stop early when they reach an already-committed state, so the
/// total work is proportional to the number of distinct states, not the
/// sum of path lengths. The early-stop index is an array, not a hash
/// table: one row per seen header mapping `node → (delivery target,
/// hops left)`, probed by plain indexing once per state. A row is a
/// short sorted list until a quarter of the nodes hold a state under
/// its header and a dense `n`-entry array from then on, so the index
/// stays at ≤ 32 bytes per state whether the scheme has `n` headers of
/// `n` states (destination tables) or `n²` headers of a few
/// (source–destination tables).
///
/// Both paths are parallel on the [`cpr_core::par`] scoped-thread layer
/// (`CPR_THREADS` workers). The tracer splits **contiguous source
/// shards**, each with shard-local header interning, merged *in source
/// order* into the global intern table; the merge replays each shard's
/// header discovery order. The transcriber splits destination rows and
/// numbers their headers by first routable `(source, target)` pair in
/// row-major order — the order the tracer meets them in. Either way the
/// plane is identical for every thread count, including the exact
/// serial path at `CPR_THREADS=1`.
///
/// When every forward transition keeps its header id — any
/// destination-labelled scheme, and header-constant tables such as
/// `SwClassTable` — the plane stores no next-header array, and a hop is
/// one load.
///
/// # Errors
///
/// Fails with the underlying [`RouteError`] if a pair names a bad port
/// or its route takes `4n + 4` hops or more (the rule of
/// [`cpr_routing::route`]), with [`CompileError::Misdelivery`] if a
/// packet stops at the wrong node, and with
/// [`CompileError::HeaderMismatch`] if a destination-labelled scheme
/// breaks its declaration. The reported pair is the first failing one in
/// `(source, target)` order, and its error is the first its route meets.
pub fn compile<S: RoutingScheme + Sync>(
    scheme: &S,
    graph: &Graph,
) -> Result<ForwardingPlane, CompileError>
where
    S::Header: Send,
{
    compile_with_threads(scheme, graph, cpr_core::par::thread_count())
}

/// [`compile`] with an explicit worker count, for benches and tests that
/// sweep thread counts without mutating `CPR_THREADS`. `threads = 1` is
/// the exact serial compiler.
pub fn compile_with_threads<S: RoutingScheme + Sync>(
    scheme: &S,
    graph: &Graph,
    threads: usize,
) -> Result<ForwardingPlane, CompileError>
where
    S::Header: Send,
{
    compile_with_intern(scheme, graph, threads).map(|(plane, _)| plane)
}

/// The widths of a plane's packed encoding (`entry = kind | port | next
/// header`), and the layout they select.
struct Encoding {
    port_width: u32,
    header_width: u32,
    entry_width: u32,
    dense: bool,
}

impl Encoding {
    fn of(n: usize, max_degree: usize, headers: usize, states: usize) -> Self {
        let port_width = ceil_log2(max_degree as u64);
        let header_width = ceil_log2(headers as u64);
        let entry_width = 2 + port_width + header_width;
        // Dense is O(1) per lookup, sparse pays a binary search; prefer
        // dense unless its packed encoding costs more than 2× the sparse
        // one. The choice is made on packed bits — the accounted size —
        // so layouts, widths and digests do not depend on how the core
        // stores a slot.
        let dense_bits = (n as u64) * (headers as u64) * u64::from(entry_width);
        let sparse_bits =
            states as u64 * u64::from(header_width + entry_width) + (n as u64 + 1) * 32;
        Encoding {
            port_width,
            header_width,
            entry_width,
            dense: dense_bits <= sparse_bits.saturating_mul(2),
        }
    }
}

/// A compiled plane's contents, from either compile path: the headers
/// in id order, the state count, the core's transitions and the initial
/// table.
struct Compiled<H> {
    headers: Vec<H>,
    states: usize,
    layout: CoreLayout,
    initial: PackedArray,
}

/// The graph's port-labelled adjacency as CSR: `nbr[row[v] + port]` is
/// the neighbor behind `v`'s `port`.
fn csr(graph: &Graph) -> (Vec<u32>, Vec<u32>) {
    let mut row = Vec::with_capacity(graph.node_count() + 1);
    let mut nbr = Vec::with_capacity(2 * graph.edge_count());
    row.push(0u32);
    for v in graph.nodes() {
        for (u, _) in graph.neighbors(v) {
            nbr.push(u as u32);
        }
        row.push(nbr.len() as u32);
    }
    (row, nbr)
}

/// [`compile_with_threads`], additionally returning the full header
/// intern table in id order — the self-healing layer keeps it so
/// `repair()` can extend the id space past the base plane's headers.
pub(crate) fn compile_with_intern<S: RoutingScheme + Sync>(
    scheme: &S,
    graph: &Graph,
    threads: usize,
) -> Result<(ForwardingPlane, Vec<S::Header>), CompileError>
where
    S::Header: Send,
{
    let n = graph.node_count();
    if scheme.node_count() != n {
        return Err(CompileError::NodeCountMismatch {
            scheme: scheme.node_count(),
            graph: n,
        });
    }
    // Node ids share the core's `next_node` slots with its sentinels.
    if n >= ROW_FAULT as usize {
        return Err(CompileError::CapacityExceeded { what: "nodes" });
    }
    let hop_budget = 4 * n + 4;
    let (row, nbr) = csr(graph);

    // Per-shard wall-clock compile times go to the global tracer (set
    // `CPR_TRACE` to see them) — never to a registry, where wall clocks
    // would break the byte-determinism of pinned snapshots.
    let obs = cpr_obs::global();
    let labelled = scheme.destination_labelled();
    let span = obs.span(
        "plane.compile",
        &[
            ("scheme", cpr_obs::Json::str(scheme.name())),
            ("nodes", cpr_obs::Json::int(n)),
            ("transcribed", cpr_obs::Json::Bool(labelled)),
        ],
    );
    let transcribed = if labelled {
        transcribe(scheme, graph, (&row, &nbr), hop_budget, threads, &span)?
    } else {
        None
    };
    let compiled = match transcribed {
        Some(compiled) => compiled,
        None => trace(scheme, graph, hop_budget, threads, &span)?,
    };

    let headers = compiled.headers.len();
    let states = compiled.states;
    // Logical compile metrics: totals are thread-count-invariant and the
    // same on both paths, so they are registry-safe.
    obs.incr("plane.compile.planes");
    obs.add("plane.compile.headers", headers as u64);
    obs.add("plane.compile.states", states as u64);
    let enc = Encoding::of(n, graph.max_degree(), headers, states);

    Ok((
        ForwardingPlane {
            scheme: scheme.name(),
            states,
            port_width: enc.port_width,
            header_width: enc.header_width,
            entry_width: enc.entry_width,
            core: StaticCore {
                n,
                headers,
                hop_budget,
                initial: Arc::new(compiled.initial),
                layout: compiled.layout,
            },
            row: Arc::new(row),
            nbr: Arc::new(nbr),
            scheme_header_bits: scheme.header_bits(),
            topology_digest: graph_digest(graph),
        },
        compiled.headers,
    ))
}

/// The tracing compiler: every routable pair walked through the live
/// scheme in source shards, merged in source order (see [`compile`]).
fn trace<S: RoutingScheme + Sync>(
    scheme: &S,
    graph: &Graph,
    hop_budget: usize,
    threads: usize,
    span: &cpr_obs::Span<'_>,
) -> Result<Compiled<S::Header>, CompileError>
where
    S::Header: Send,
{
    let n = graph.node_count();
    // Fan the source ranges out, then merge shard-local id spaces in
    // source order. One shard (CPR_THREADS=1) is exactly the serial
    // compiler: the merge below is then an identity remap.
    let shards = cpr_core::par::split_ranges_min_grain(n, threads, COMPILE_MIN_GRAIN);
    let traces = cpr_core::par::par_map_indexed_with(threads, shards.len(), |i| {
        let t0 = std::time::Instant::now();
        let out = trace_shard(scheme, graph, shards[i].clone(), hop_budget);
        span.event(
            "plane.compile.shard",
            &[
                ("shard", cpr_obs::Json::int(i)),
                ("sources", cpr_obs::Json::int(shards[i].len())),
                ("micros", cpr_obs::Json::int(t0.elapsed().as_micros())),
            ],
        );
        out
    });

    // ── Phase 1: intern merge ────────────────────────────────────────
    // One table pass per shard, in source order: replay each shard's
    // header-discovery arena against the global interner. Headers an
    // earlier shard already saw keep their global id; genuinely new ones
    // extend the table in discovery order, so the global id space — and
    // every array below — is byte-identical for any shard count.
    let mut intern: Interner<S::Header> = Interner::new();
    let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
    let mut shard_trans: Vec<TransArena> = Vec::with_capacity(shards.len());
    let mut shard_initial: Vec<PackedArray> = Vec::with_capacity(shards.len());
    for trace in traces {
        let trace = trace?;
        let mut remap = Vec::with_capacity(trace.headers.len());
        for h in trace.headers {
            remap.push(intern.intern(h)?);
        }
        remaps.push(remap);
        shard_trans.push(trace.trans);
        shard_initial.push(trace.initial);
    }
    let headers = intern.len();

    // ── Phase 2: transition merge ────────────────────────────────────
    // Shards may re-derive states another shard's sources already
    // committed (early-stop knowledge is shard-local), so the flat
    // record streams overlap; duplicates carry byte-identical payloads.
    // Count the *distinct* states first — through a bitset over the
    // dense `(header, node)` index space when that is no bigger than
    // the record streams themselves, otherwise through one sort+dedup
    // of the remapped records — then write straight into the core's
    // flat arrays. No global per-entry hash map is ever built.
    let total_recs: usize = shard_trans.iter().map(TransArena::len).sum();
    let dense_slots = n as u128 * headers as u128;
    // The bitset costs one bit per dense slot; the sorted-merge buffer
    // costs 128 bits per record. Prefer whichever is smaller (with a
    // floor so tiny instances always take the trivial bitset path).
    let use_bitset = dense_slots <= (total_recs as u128 * 128).max(1 << 23);
    let mut sorted: Vec<TransRec> = Vec::new();
    let states = if use_bitset {
        let mut seen = vec![0u64; (n * headers.max(1)).div_ceil(64)];
        let mut distinct = 0usize;
        for (remap, recs) in remaps.iter().zip(&shard_trans) {
            for &(key, _) in recs.iter() {
                let hid = remap[(key & 0xFFFF_FFFF) as usize] as usize;
                let slot = hid * n + (key >> 32) as usize;
                let (w, b) = (slot / 64, slot % 64);
                distinct += usize::from(seen[w] & (1 << b) == 0);
                seen[w] |= 1 << b;
            }
        }
        distinct
    } else {
        sorted = merged_records(&remaps, std::mem::take(&mut shard_trans));
        sorted.len()
    };
    if u32::try_from(states).is_err() {
        return Err(CompileError::CapacityExceeded { what: "states" });
    }
    // A forward keeps its header when its next id is its own. Remaps are
    // injective, so shard-local ids answer that as well as global ones.
    let keeps = |&(key, val): &TransRec| {
        val & 0xFFFF_FFFF == REC_DELIVER || val & 0xFFFF_FFFF == key & 0xFFFF_FFFF
    };
    let keeps_header = if sorted.is_empty() {
        shard_trans.iter().all(|recs| recs.iter().all(keeps))
    } else {
        sorted.iter().all(keeps)
    };

    let layout = if Encoding::of(n, graph.max_degree(), headers, states).dense {
        // Writes of duplicate states are idempotent (identical records),
        // so the shard streams pour straight into the table. The arrays
        // are allocated as the shared slices they stay, and written
        // while still unshared: nothing is copied afterwards.
        let slots = n * headers;
        let mut next_node: Arc<[u32]> = std::iter::repeat_n(CORE_INVALID, slots).collect();
        let mut next_hid: Option<Arc<[u32]>> =
            (!keeps_header).then(|| std::iter::repeat_n(0, slots).collect());
        let nodes = Arc::get_mut(&mut next_node).expect("a fresh slice is unshared");
        let mut hids = next_hid
            .as_mut()
            .map(|h| Arc::get_mut(h).expect("a fresh slice is unshared"));
        let mut put = |(gkey, gval): TransRec| {
            let i = (gkey & 0xFFFF_FFFF) as usize * n + (gkey >> 32) as usize;
            let (node, hid) = core_step(gval);
            nodes[i] = node;
            if let Some(hids) = hids.as_deref_mut() {
                hids[i] = hid;
            }
        };
        if sorted.is_empty() {
            for (remap, recs) in remaps.iter().zip(&shard_trans) {
                for &(key, val) in recs.iter() {
                    put(remap_rec(remap, key, val));
                }
            }
        } else {
            sorted.iter().copied().for_each(put);
        }
        CoreLayout::Dense {
            next_node,
            next_hid,
        }
    } else {
        // The sparse layout needs node-major, header-sorted runs — which
        // is exactly ascending key order of the records.
        if sorted.is_empty() && states > 0 {
            sorted = merged_records(&remaps, std::mem::take(&mut shard_trans));
        }
        let mut offsets = vec![0u32; n + 1];
        for &(gkey, _) in &sorted {
            offsets[(gkey >> 32) as usize + 1] += 1;
        }
        for node in 0..n {
            offsets[node + 1] += offsets[node];
        }
        CoreLayout::Sparse {
            offsets: offsets.into(),
            keys: sorted.iter().map(|&(gkey, _)| gkey as u32).collect(),
            next_node: sorted.iter().map(|&(_, gval)| core_step(gval).0).collect(),
            next_hid: (!keeps_header)
                .then(|| sorted.iter().map(|&(_, gval)| core_step(gval).1).collect()),
        }
    };
    drop(sorted);
    drop(shard_trans);

    // ── Phase 3: initial-header merge ────────────────────────────────
    // Each shard's packed rows remap through its table in source order;
    // the local sentinel (local header count) becomes the global one.
    let mut initial = PackedArray::new(n * n, ceil_log2(headers as u64 + 1));
    let global_sentinel = headers as u64;
    for ((shard, remap), local) in shards.iter().zip(&remaps).zip(&shard_initial) {
        let local_sentinel = remap.len() as u64;
        debug_assert_eq!(local.len(), shard.len() * n);
        let base = shard.start * n;
        for i in 0..local.len() {
            let v = local.get(i);
            let g = if v == local_sentinel {
                global_sentinel
            } else {
                u64::from(remap[v as usize])
            };
            initial.set(base + i, g);
        }
    }

    Ok(Compiled {
        headers: intern.order,
        states,
        layout,
        initial,
    })
}

/// Transcription's mark for a state whose decision fails every route
/// through it (a bad port or a rewritten header). It never outlives a
/// failed transcription; node ids stay below it.
const ROW_FAULT: u32 = u32::MAX - 2;

/// Destinations transcribed together: one word of routability bits per
/// source, and one pass over the sources for the whole block.
const ROW_BLOCK: usize = 64;

/// Why the route of a pair fails, as the transcription finds it.
#[derive(Clone, Copy, Debug)]
enum Fault {
    BadPort {
        at: NodeId,
        port: Port,
    },
    Misdelivery {
        delivered: NodeId,
    },
    Exhausted,
    /// The header differs from the destination's at `at`: rewritten by
    /// `step` there, or attached by source `at`.
    HeaderMismatch {
        at: NodeId,
    },
}

/// One destination row of a transcription: its header, and the first
/// source attaching it.
type RowHeader<H> = Option<(H, NodeId)>;

/// What one block of destinations transcribed to.
struct RowBlock<H> {
    /// Per destination of the block.
    headers: Vec<RowHeader<H>>,
    /// Per source: bit `j` set when it routes to the block's `j`-th
    /// destination.
    routable: Vec<u64>,
    states: usize,
    /// The block's first failing pair in `(source, target)` order.
    fault: Option<(NodeId, NodeId, Fault)>,
}

/// A state's hops to the end of its route: not yet known.
const DEPTH_UNSET: u32 = u32::MAX;
/// A state's hops to the end of its route: on the path being resolved.
const DEPTH_ON_PATH: u32 = u32::MAX - 1;
/// A state's hops to the end of its route: none, it never ends (a
/// forwarding loop).
const DEPTH_LOOP: u32 = u32::MAX - 2;

/// The decision of state `(v, h)` as a `next_node` slot: the neighbor
/// behind the port, [`CORE_DELIVER`], or [`ROW_FAULT`] with the fault
/// pushed to `faults` under row `j`.
fn decide<S: RoutingScheme>(
    scheme: &S,
    (row, nbr): (&[u32], &[u32]),
    v: NodeId,
    h: &S::Header,
    j: usize,
    faults: &mut Vec<(usize, NodeId, Fault)>,
) -> u32 {
    let fault = match scheme.step(v, h) {
        RouteAction::Deliver => return CORE_DELIVER,
        RouteAction::Forward { header, .. } if header != *h => Fault::HeaderMismatch { at: v },
        RouteAction::Forward { port, .. } => {
            let (lo, hi) = (row[v] as usize, row[v + 1] as usize);
            if port < hi - lo {
                return nbr[lo + port];
            }
            Fault::BadPort { at: v, port }
        }
    };
    faults.push((j, v, fault));
    ROW_FAULT
}

/// Transcribes the destinations `targets` into `rows` (`targets.len()`
/// rows of `n` slots): slot `v` of row `t` becomes the next node (or
/// [`CORE_DELIVER`]) of state `(v, h_t)` for every state a route to `t`
/// reaches — every routable source, and the nodes without an initial
/// header of their own its route passes — exactly the states the tracer
/// commits; every other slot `CORE_INVALID`.
///
/// Sources are the outer loop, so a scheme's per-node state is read once
/// for the whole block; the sources' own decisions land source-major in a
/// block-local table. Each row is then gathered into its slots and
/// checked by one memoized pass over its routes: every route must
/// deliver at `t` in fewer than `hop_budget` hops without a fault.
fn transcribe_block<S: RoutingScheme>(
    scheme: &S,
    csr: (&[u32], &[u32]),
    targets: std::ops::Range<usize>,
    hop_budget: usize,
    rows: &mut [u32],
) -> RowBlock<S::Header> {
    let n = csr.0.len() - 1;
    let k = targets.len();
    let mut headers: Vec<RowHeader<S::Header>> = (0..k).map(|_| None).collect();
    // The first source attaching a different header, per row: no later
    // source can be the row's first failure.
    let mut limit = vec![n; k];
    let mut routable = vec![0u64; n];
    let mut faults = Vec::new();
    let mut states = 0usize;
    // `decided[s * k + j]`: the decision of source `s`'s own state in
    // row `j`.
    let mut decided = vec![CORE_INVALID; n * k];
    for s in 0..n {
        let mut word = 0u64;
        for (j, t) in targets.clone().enumerate() {
            if s >= limit[j] {
                continue;
            }
            let Some(h) = scheme.initial_header(s, t) else {
                continue;
            };
            word |= 1 << j;
            let h = match &headers[j] {
                None => &headers[j].insert((h, s)).0,
                Some((h0, _)) if *h0 != h => {
                    limit[j] = s;
                    continue;
                }
                Some((h0, _)) => h0,
            };
            decided[s * k + j] = decide(scheme, csr, s, h, j, &mut faults);
            states += 1;
        }
        routable[s] = word;
    }

    // Routes: the hops from each state to where its route ends, one
    // memoized pass per row, loops included, over the row gathered into
    // its final slots. States off every source's own slot are decided as
    // a route first reaches them.
    let mut depth = vec![DEPTH_UNSET; n];
    let mut end = vec![0u32; n];
    let mut path = Vec::new();
    let mut fault = None;
    for ((j, t), next) in targets.clone().enumerate().zip(rows.chunks_mut(n.max(1))) {
        for (v, slot) in next.iter_mut().enumerate() {
            *slot = decided[v * k + j];
        }
        let Some((h, _)) = &headers[j] else {
            continue;
        };
        depth.fill(DEPTH_UNSET);
        let mut row_fault = Some(limit[j])
            .filter(|&m| m < n)
            .map(|m| (m, Fault::HeaderMismatch { at: m }));
        for s in (0..limit[j]).filter(|&s| routable[s] & (1 << j) != 0) {
            let mut v = s;
            path.clear();
            let (mut d, e) = loop {
                match depth[v] {
                    DEPTH_UNSET => {}
                    DEPTH_ON_PATH => break (DEPTH_LOOP, v as u32),
                    known => break (known, end[v]),
                }
                if next[v] == CORE_INVALID {
                    next[v] = decide(scheme, csr, v, h, j, &mut faults);
                    states += 1;
                }
                if next[v] == CORE_DELIVER || next[v] == ROW_FAULT {
                    depth[v] = 0;
                    end[v] = v as u32;
                    break (0, v as u32);
                }
                depth[v] = DEPTH_ON_PATH;
                path.push(v);
                v = next[v] as NodeId;
            };
            while let Some(w) = path.pop() {
                d = if d >= DEPTH_LOOP { DEPTH_LOOP } else { d + 1 };
                depth[w] = d;
                end[w] = e;
            }
            let e = end[s] as NodeId;
            let failed = if depth[s] as usize >= hop_budget {
                Some(Fault::Exhausted)
            } else if next[e] == ROW_FAULT {
                faults
                    .iter()
                    .find(|&&(row, at, _)| row == j && at == e)
                    .map(|&(_, _, f)| f)
            } else if e != t {
                Some(Fault::Misdelivery { delivered: e })
            } else {
                None
            };
            if let Some(f) = failed {
                row_fault = Some((s, f));
                break;
            }
        }
        if let Some((s, f)) = row_fault {
            if fault.is_none_or(|(s0, _, _)| s < s0) {
                fault = Some((s, t, f));
            }
        }
    }
    RowBlock {
        headers,
        routable,
        states,
        fault,
    }
}

/// The transcribing compiler for destination-labelled schemes (see
/// [`compile`]). `None` when two destinations share a header — a plane
/// the tracer builds, which one row per destination cannot hold.
fn transcribe<S: RoutingScheme + Sync>(
    scheme: &S,
    graph: &Graph,
    csr: (&[u32], &[u32]),
    hop_budget: usize,
    threads: usize,
    span: &cpr_obs::Span<'_>,
) -> Result<Option<Compiled<S::Header>>, CompileError>
where
    S::Header: Send,
{
    let n = graph.node_count();
    // Destination rows, `t · n + v`, written in place by the blocks.
    let mut rows: Arc<[u32]> = std::iter::repeat_n(0, n * n).collect();
    let blocks: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(ROW_BLOCK)
        .map(|lo| lo..(lo + ROW_BLOCK).min(n))
        .collect();
    let outs = {
        let slots = Arc::get_mut(&mut rows).expect("a fresh slice is unshared");
        let parts: Vec<_> = slots
            .chunks_mut(ROW_BLOCK * n.max(1))
            .map(|part| std::sync::Mutex::new(Some(part)))
            .collect();
        cpr_core::par::par_map_indexed_with(threads, blocks.len(), |i| {
            let t0 = std::time::Instant::now();
            let part = parts[i]
                .lock()
                .ok()
                .and_then(|mut p| p.take())
                .expect("each block's rows are taken once");
            let out = transcribe_block(scheme, csr, blocks[i].clone(), hop_budget, part);
            span.event(
                "plane.compile.block",
                &[
                    ("block", cpr_obs::Json::int(i)),
                    ("targets", cpr_obs::Json::int(blocks[i].len())),
                    ("micros", cpr_obs::Json::int(t0.elapsed().as_micros())),
                ],
            );
            out
        })
    };

    // The first failing pair in `(source, target)` order.
    let first = outs
        .iter()
        .filter_map(|o| o.fault)
        .min_by_key(|&(s, t, _)| (s, t));
    if let Some((source, target, fault)) = first {
        return Err(match fault {
            Fault::BadPort { at, port } => CompileError::Route {
                source,
                target,
                error: RouteError::BadPort { at, port },
            },
            Fault::Misdelivery { delivered } => CompileError::Misdelivery {
                source,
                target,
                delivered,
            },
            Fault::Exhausted => exhausted(scheme, graph, source, target),
            Fault::HeaderMismatch { at } => CompileError::HeaderMismatch { source, target, at },
        });
    }

    // Header ids in the tracer's order: by first routable pair, row-major.
    let states: usize = outs.iter().map(|o| o.states).sum();
    if u32::try_from(states).is_err() {
        return Err(CompileError::CapacityExceeded { what: "states" });
    }
    let mut routable = Vec::with_capacity(outs.len());
    let mut row_headers = Vec::with_capacity(n);
    for out in outs {
        routable.push(out.routable);
        row_headers.extend(out.headers);
    }
    let mut order: Vec<(NodeId, NodeId)> = row_headers
        .iter()
        .enumerate()
        .filter_map(|(t, h)| h.as_ref().map(|&(_, first)| (first, t)))
        .collect();
    order.sort_unstable();
    let mut intern: Interner<S::Header> = Interner::new();
    let mut hid_of = vec![u32::MAX; n];
    for &(_, t) in &order {
        let (h, _) = row_headers[t].take().expect("ordered rows hold a header");
        let hid = intern.intern(h)?;
        if hid as usize != intern.len() - 1 {
            span.event("plane.compile.shared_header", &[]);
            return Ok(None);
        }
        hid_of[t] = hid;
    }
    let headers = intern.len();

    let layout = if Encoding::of(n, graph.max_degree(), headers, states).dense {
        // Rows already in id order (every destination routable from the
        // first source onward) are the table itself.
        let in_place = headers == n && hid_of.iter().enumerate().all(|(t, &h)| h as usize == t);
        let next_node = if in_place {
            rows
        } else {
            order
                .iter()
                .flat_map(|&(_, t)| rows[t * n..(t + 1) * n].iter().copied())
                .collect()
        };
        CoreLayout::Dense {
            next_node,
            next_hid: None,
        }
    } else {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut keys = Vec::with_capacity(states);
        let mut next_node = Vec::with_capacity(states);
        offsets.push(0u32);
        for v in 0..n {
            for (hid, &(_, t)) in order.iter().enumerate() {
                let to = rows[t * n + v];
                if to != CORE_INVALID {
                    keys.push(hid as u32);
                    next_node.push(to);
                }
            }
            offsets.push(keys.len() as u32);
        }
        CoreLayout::Sparse {
            offsets: offsets.into(),
            keys: keys.into(),
            next_node: next_node.into(),
            next_hid: None,
        }
    };

    let initial = PackedArray::from_fn(n * n, ceil_log2(headers as u64 + 1), |i| {
        let (s, t) = (i / n, i % n);
        if routable[t / ROW_BLOCK][s] & (1 << (t % ROW_BLOCK)) != 0 {
            u64::from(hid_of[t])
        } else {
            headers as u64
        }
    });

    Ok(Some(Compiled {
        headers: intern.order,
        states,
        layout,
        initial,
    }))
}

impl ForwardingPlane {
    /// The interned initial-header id a source attaches for `target`, or
    /// `None` when the scheme declared the pair unroutable.
    #[inline]
    pub fn initial_id(&self, source: NodeId, target: NodeId) -> Option<u32> {
        self.core.initial_id(source, target)
    }

    /// The flat core the plane stores its transitions in.
    pub(crate) fn core(&self) -> &StaticCore {
        &self.core
    }

    /// Mutable core access, for tests that shrink the hop budget.
    #[cfg(test)]
    pub(crate) fn core_mut(&mut self) -> &mut StaticCore {
        &mut self.core
    }

    /// The local port of `at` that leads to neighbor `to`, from the CSR
    /// adjacency snapshot (unique: the graph is simple).
    pub(crate) fn port_to(&self, at: NodeId, to: NodeId) -> Option<Port> {
        let (lo, hi) = (self.row[at] as usize, self.row[at + 1] as usize);
        self.nbr[lo..hi].iter().position(|&v| v as NodeId == to)
    }

    /// Replays `source → target` through the compiled plane and returns
    /// the node sequence — the plane-side analogue of
    /// [`cpr_routing::route`], through the same walk as
    /// [`StaticCore::walk`].
    ///
    /// # Errors
    ///
    /// Returns the same [`RouteError`]s the live simulator would: an
    /// unroutable pair or hop-budget exhaustion. (A bad port cannot
    /// occur: compilation resolves every port to its neighbor.)
    pub fn walk(&self, source: NodeId, target: NodeId) -> Result<Vec<NodeId>, RouteError> {
        self.core.walk(source, target)
    }

    /// The scheme name the plane was compiled from.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.core.n
    }

    /// Number of distinct interned headers.
    pub fn header_count(&self) -> usize {
        self.core.headers
    }

    /// Number of stored `(node, header)` transition states.
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// The hop budget a walk may spend (`4n + 4`, matching
    /// [`cpr_routing::route`]).
    pub fn hop_budget(&self) -> usize {
        self.core.hop_budget
    }

    /// The [`graph_digest`] of the topology this plane was compiled
    /// against.
    pub fn topology_digest(&self) -> u64 {
        self.topology_digest
    }

    /// Whether this plane is current for `graph` — `false` means the
    /// topology changed since compilation (a dead or new link) and the
    /// plane may serve stale hops; see `SelfHealingPlane`.
    pub fn is_current_for(&self, graph: &Graph) -> bool {
        graph_digest(graph) == self.topology_digest
    }

    /// An FNV-1a digest over the plane's packed encoding and scalars.
    ///
    /// Two planes with equal digests are byte-identical in all stored
    /// state — the determinism suite uses this to assert that compiling
    /// under different `CPR_THREADS` values yields the *same* plane, not
    /// merely an equivalent one. The transitions are hashed as the packed
    /// arrays of the accounting — length, width, then every entry
    /// re-encoded from the flat core as `kind | port | next` — so the
    /// digest does not depend on how the core stores a slot.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.scheme.as_bytes());
        let n = self.core.n;
        for v in [
            n as u64,
            self.core.headers as u64,
            self.states as u64,
            u64::from(self.port_width),
            u64::from(self.header_width),
            u64::from(self.entry_width),
            self.scheme_header_bits,
            self.core.hop_budget as u64,
            self.topology_digest,
        ] {
            h.word(v);
        }
        match &self.core.layout {
            CoreLayout::Dense {
                next_node,
                next_hid,
            } => {
                h.word(0);
                h.array_header(next_node.len(), self.entry_width);
                for (i, &nn) in next_node.iter().enumerate() {
                    // A plane without `next_hid` keeps the row's id.
                    let nh = next_hid.as_ref().map_or((i / n) as u32, |h| h[i]);
                    h.word(self.packed_entry(i % n, nn, nh));
                }
            }
            CoreLayout::Sparse {
                offsets,
                keys,
                next_node,
                next_hid,
            } => {
                h.word(1);
                for &o in offsets.iter() {
                    h.word(u64::from(o));
                }
                h.array_header(keys.len(), self.header_width);
                for &k in keys.iter() {
                    h.word(u64::from(k));
                }
                h.array_header(keys.len(), self.entry_width);
                for node in 0..n {
                    for i in offsets[node] as usize..offsets[node + 1] as usize {
                        // A plane without `next_hid` keeps the key's id.
                        let nh = next_hid.as_ref().map_or(keys[i], |h| h[i]);
                        h.word(self.packed_entry(node, next_node[i], nh));
                    }
                }
            }
        }
        h.packed(&self.core.initial);
        for &r in self.row.iter() {
            h.word(u64::from(r));
        }
        for &v in self.nbr.iter() {
            h.word(u64::from(v));
        }
        h.finish()
    }

    /// The packed encoding `kind | port | next` of the core slot at
    /// `node` holding `(next_node, next_hid)`.
    fn packed_entry(&self, node: NodeId, next_node: u32, next_hid: u32) -> u64 {
        let kind_at = self.port_width + self.header_width;
        match next_node {
            CORE_INVALID => KIND_INVALID,
            CORE_DELIVER => KIND_DELIVER << kind_at,
            to => {
                let port = self
                    .port_to(node, to as NodeId)
                    .expect("compiled hops follow the compiled adjacency");
                (KIND_FORWARD << kind_at)
                    | ((port as u64) << self.header_width)
                    | u64::from(next_hid)
            }
        }
    }

    /// A batched serving view of the plane: walks go straight through
    /// its flat arrays. O(1) — nothing is copied or decoded.
    pub fn lookup_core(&self) -> LookupCore<'_> {
        LookupCore { plane: self }
    }

    /// An owned, lifetime-free serving view of the plane's flat core, so
    /// a serving snapshot can carry it across epochs. O(1): the clone
    /// shares the transition arrays and the initial table through their
    /// `Arc`s.
    pub fn static_core(&self) -> StaticCore {
        self.core.clone()
    }

    /// Honest bit accounting of the plane: the transitions at the size
    /// of their packed encoding, computed from the counts and widths.
    pub fn memory(&self) -> PlaneMemory {
        let (layout, transition_bits) = match &self.core.layout {
            CoreLayout::Dense { .. } => (
                "dense",
                (self.core.n * self.core.headers) as u64 * u64::from(self.entry_width),
            ),
            CoreLayout::Sparse { offsets, .. } => (
                "sparse",
                self.states as u64 * u64::from(self.header_width + self.entry_width)
                    + offsets.len() as u64 * 32,
            ),
        };
        PlaneMemory {
            scheme: self.scheme.clone(),
            nodes: self.core.n,
            headers: self.core.headers,
            states: self.states,
            entry_width: self.entry_width,
            layout,
            transition_bits,
            initial_bits: self.core.initial.bits(),
            adjacency_bits: self.adjacency_table_bits(),
            scheme_header_bits: self.scheme_header_bits,
        }
    }

    // ── Multi-plane substrate sharing (see `crate::multi`) ──────────

    /// `Arc` pointer identities of the shareable substrate arrays
    /// (initial-header table, CSR rows, CSR neighbors). The multi-plane
    /// memory accounting counts each distinct allocation exactly once.
    pub(crate) fn substrate_ptrs(&self) -> (usize, usize, usize) {
        (
            Arc::as_ptr(&self.core.initial) as usize,
            Arc::as_ptr(&self.row) as usize,
            Arc::as_ptr(&self.nbr) as usize,
        )
    }

    /// Redirects this plane's substrate `Arc`s at `canon`'s allocations
    /// when the contents are identical, dropping the duplicate copies.
    /// Content equality — not pointer equality — is required, so a
    /// plane compiled for a *different* topology or with a different
    /// routability pattern is never aliased. Returns
    /// `(initial_shared, adjacency_shared)`: whether each substrate now
    /// aliases `canon`'s allocation.
    pub(crate) fn share_substrate_with(&mut self, canon: &ForwardingPlane) -> (bool, bool) {
        let (mine, theirs) = (&mut self.core.initial, &canon.core.initial);
        let initial_shared = if Arc::ptr_eq(mine, theirs) {
            true
        } else if **mine == **theirs {
            *mine = Arc::clone(theirs);
            true
        } else {
            false
        };
        let adjacency_shared =
            if Arc::ptr_eq(&self.row, &canon.row) && Arc::ptr_eq(&self.nbr, &canon.nbr) {
                true
            } else if *self.row == *canon.row && *self.nbr == *canon.nbr {
                self.row = Arc::clone(&canon.row);
                self.nbr = Arc::clone(&canon.nbr);
                true
            } else {
                false
            };
        (initial_shared, adjacency_shared)
    }

    /// Bits of the initial-header table alone.
    pub(crate) fn initial_table_bits(&self) -> u64 {
        self.core.initial.bits()
    }

    /// Bits of the CSR adjacency snapshot alone.
    pub(crate) fn adjacency_table_bits(&self) -> u64 {
        (self.row.len() + self.nbr.len()) as u64 * 32
    }
}

/// Minimal FNV-1a accumulator for [`ForwardingPlane::digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The length and width words that open a packed array's hash.
    fn array_header(&mut self, len: usize, width: u32) {
        self.word(len as u64);
        self.word(u64::from(width));
    }

    fn packed(&mut self, a: &PackedArray) {
        self.array_header(a.len(), a.width());
        for i in 0..a.len() {
            self.word(a.get(i));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Checks the compiled plane against the live simulation on *every*
/// `(source, target)` pair: the node sequences (or errors) must be
/// identical, hop for hop.
///
/// The walk is exact and exhaustive — no sampling — but fans out across
/// sources on the [`cpr_core::par`] scoped-thread layer; each source
/// scans its targets in order, so the reported divergence is the first
/// in `(source, target)` order for every thread count.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn validate<S: RoutingScheme + Sync>(
    plane: &ForwardingPlane,
    scheme: &S,
    graph: &Graph,
) -> Result<(), Box<Divergence>> {
    let per_source = cpr_core::par::par_map_indexed(graph.node_count(), |source| {
        for target in graph.nodes() {
            let plane_path = plane.walk(source, target);
            let live_path = cpr_routing::route(scheme, graph, source, target);
            if plane_path != live_path {
                return Some(Box::new(Divergence {
                    source,
                    target,
                    plane: plane_path,
                    live: live_path,
                }));
            }
        }
        None
    });
    match per_source.into_iter().flatten().next() {
        Some(d) => Err(d),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_algebra::policies::ShortestPath;
    use cpr_graph::{generators, EdgeWeights};
    use cpr_routing::DestTable;
    use rand::SeedableRng;

    /// The early-stop index against the hash map it replaced, with rows
    /// on both sides of the compact → dense promotion and overwrites.
    #[test]
    fn deliver_index_matches_a_hash_map_across_promotion() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDE11);
        for n in [1usize, 5, 16, 40, 200] {
            let mut index = DeliverIndex::new(n);
            let mut reference = std::collections::HashMap::new();
            // Header 0 fills completely, higher ids stay ever sparser.
            for _ in 0..6 * n {
                let hid = rng.gen_range(0..4u32).min(rng.gen_range(0..4));
                let (node, target) = (rng.gen_range(0..n), rng.gen_range(0..n) as u32);
                let c = Committed {
                    target,
                    hops: rng.gen_range(0..4 * n as u32),
                };
                index.insert(node, hid, c);
                reference.insert((node, hid), c);
            }
            for hid in 0..6u32 {
                for node in 0..n {
                    assert_eq!(
                        index.get(node, hid),
                        reference.get(&(node, hid)).copied(),
                        "n = {n}: state ({node}, {hid})"
                    );
                }
            }
            if n >= 16 {
                assert!(matches!(index.rows[0], DeliverRow::Dense(_)), "n = {n}");
            }
        }
    }

    #[test]
    fn trans_arena_keeps_commit_order_across_chunks() {
        let mut arena = TransArena::default();
        assert_eq!((arena.len(), arena.iter().count()), (0, 0));
        let count = 2 * TRANS_CHUNK + 77;
        for i in 0..count as u64 {
            arena.push((i, !i));
        }
        assert_eq!(arena.len(), count);
        assert!(arena.iter().copied().eq((0..count as u64).map(|i| (i, !i))));
        // Chunks double up to the cap and are never regrown.
        assert!(arena.chunks.iter().all(|c| c.capacity() <= TRANS_CHUNK));
        assert!(arena.chunks[..arena.chunks.len() - 1]
            .iter()
            .all(|c| c.len() == c.capacity()));
    }

    #[test]
    fn packed_array_round_trips() {
        for width in [1u32, 3, 7, 13, 31, 33, 64] {
            let mut a = PackedArray::new(100, width);
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            for i in 0..100 {
                a.set(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
            }
            for i in 0..100 {
                assert_eq!(
                    a.get(i),
                    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask,
                    "width {width}, index {i}"
                );
            }
            assert_eq!(a.bits(), 100 * u64::from(width));
            let b = PackedArray::from_fn(100, width, |i| {
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask
            });
            assert_eq!(a, b, "width {width}: packed in one pass");
        }
    }

    #[test]
    fn packed_array_zero_width() {
        let a = PackedArray::new(10, 0);
        assert_eq!(a.get(5), 0);
        assert_eq!(a.bits(), 0);
    }

    #[test]
    fn packed_array_set_overwrites_neighbors_cleanly() {
        let mut a = PackedArray::new(8, 13);
        for i in 0..8 {
            a.set(i, 0x1FFF);
        }
        a.set(3, 0);
        assert_eq!(a.get(2), 0x1FFF);
        assert_eq!(a.get(3), 0);
        assert_eq!(a.get(4), 0x1FFF);
    }

    #[test]
    fn compiles_dest_table_and_matches_live() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = generators::gnp_connected(24, 0.15, &mut rng);
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let plane = compile(&scheme, &g).unwrap();
        assert_eq!(plane.node_count(), 24);
        validate(&plane, &scheme, &g).unwrap();
    }

    #[test]
    fn sharded_compile_is_byte_identical_to_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let g = generators::gnp_connected(40, 0.12, &mut rng);
        let w = EdgeWeights::from_fn(&g, |e| (e as u64 % 9) + 1);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let serial = compile_with_threads(&scheme, &g, 1).unwrap();
        for threads in [2, 3, 8, 40, 100] {
            let par = compile_with_threads(&scheme, &g, threads).unwrap();
            assert_eq!(par.digest(), serial.digest(), "threads = {threads}");
            assert_eq!(par.header_count(), serial.header_count());
            assert_eq!(par.state_count(), serial.state_count());
        }
        validate(&serial, &scheme, &g).unwrap();
    }

    #[test]
    fn sharded_compile_matches_serial_for_interned_label_schemes() {
        use cpr_algebra::policies::WidestPath;
        use cpr_routing::{CowenScheme, LandmarkStrategy, TzTreeRouting};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let g = generators::gnp_connected(32, 0.15, &mut rng);
        let wp = EdgeWeights::random(&g, &WidestPath, &mut rng);
        let sp = EdgeWeights::from_fn(&g, |e| (e as u64 % 5) + 1);

        let tz = TzTreeRouting::spanning(&g, &wp, &WidestPath);
        let cowen = CowenScheme::build(
            &g,
            &sp,
            &ShortestPath,
            LandmarkStrategy::TzRandom { attempts: 2 },
            &mut rng,
        );
        let tz_serial = compile_with_threads(&tz, &g, 1).unwrap();
        let cowen_serial = compile_with_threads(&cowen, &g, 1).unwrap();
        for threads in [2, 5, 32] {
            assert_eq!(
                compile_with_threads(&tz, &g, threads).unwrap().digest(),
                tz_serial.digest(),
                "tz-tree, threads = {threads}"
            );
            assert_eq!(
                compile_with_threads(&cowen, &g, threads).unwrap().digest(),
                cowen_serial.digest(),
                "cowen, threads = {threads}"
            );
        }
    }

    #[test]
    fn unroutable_pairs_hit_the_sentinel() {
        // Two disconnected edges: cross-component pairs are unroutable.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let plane = compile(&scheme, &g).unwrap();
        validate(&plane, &scheme, &g).unwrap();
        assert!(plane.initial_id(0, 1).is_some());
        assert_eq!(
            plane.walk(0, 2).unwrap_err(),
            RouteError::Unroutable {
                source: 0,
                target: 2
            }
        );
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let g4 = generators::path(4);
        let g5 = generators::path(5);
        let w = EdgeWeights::uniform(&g4, 1u64);
        let scheme = DestTable::build(&g4, &w, &ShortestPath);
        assert_eq!(
            compile(&scheme, &g5).unwrap_err(),
            CompileError::NodeCountMismatch {
                scheme: 4,
                graph: 5
            }
        );
    }

    /// A countdown walker on the 3-cycle: the header counts the hops
    /// left, the packet is delivered where it runs out, and `hops[s][t]`
    /// sets each pair's count (the direct clockwise distance unless set).
    struct Countdown {
        clockwise: Vec<Port>,
        hops: Vec<Vec<u32>>,
    }

    impl Countdown {
        fn on(g: &Graph) -> Self {
            let clockwise = (0..3)
                .map(|v| {
                    (0..2)
                        .find(|&p| g.neighbor_at(v, p).map(|(u, _)| u) == Some((v + 1) % 3))
                        .unwrap()
                })
                .collect();
            let hops = (0..3)
                .map(|s| (0..3).map(|t| ((t + 3 - s) % 3) as u32).collect())
                .collect();
            Countdown { clockwise, hops }
        }
    }

    impl RoutingScheme for Countdown {
        type Header = u32;

        fn name(&self) -> String {
            "countdown".into()
        }

        fn node_count(&self) -> usize {
            3
        }

        fn initial_header(&self, s: NodeId, t: NodeId) -> Option<u32> {
            Some(self.hops[s][t])
        }

        fn step(&self, at: NodeId, &left: &u32) -> RouteAction<u32> {
            match left {
                0 => RouteAction::Deliver,
                _ => RouteAction::Forward {
                    port: self.clockwise[at],
                    header: left - 1,
                },
            }
        }

        fn local_memory_bits(&self, _: NodeId) -> u64 {
            1
        }

        fn label_bits(&self, _: NodeId) -> u64 {
            2
        }

        fn header_bits(&self) -> u64 {
            5
        }
    }

    /// Asserts that compiling `scheme` fails `source → target` out of
    /// hops, as `route` does.
    fn assert_out_of_hops(scheme: &Countdown, g: &Graph, source: NodeId, target: NodeId) {
        let routed = cpr_routing::route(scheme, g, source, target).unwrap_err();
        for threads in [1, 2] {
            assert_eq!(
                compile_with_threads(scheme, g, threads).unwrap_err(),
                CompileError::Route {
                    source,
                    target,
                    error: routed.clone(),
                }
            );
        }
        assert!(
            matches!(routed, RouteError::HopBudgetExhausted { visited } if visited.len() == 17)
        );
    }

    #[test]
    fn a_route_of_exactly_the_hop_budget_fails_to_compile() {
        let g = generators::cycle(3);
        let mut scheme = Countdown::on(&g);
        // The budget at n = 3 is 16 hops: 15 compile, 16 do not.
        scheme.hops[0][0] = 15;
        let plane = compile(&scheme, &g).unwrap();
        assert_eq!(plane.hop_budget(), 16);
        assert_eq!(plane.walk(0, 0).unwrap().len(), 16);
        validate(&plane, &scheme, &g).unwrap();
        scheme.hops[0][1] = 16;
        assert_out_of_hops(&scheme, &g, 0, 1);
    }

    #[test]
    fn a_walk_joining_a_committed_one_is_held_to_the_whole_routes_budget() {
        let g = generators::cycle(3);
        let mut scheme = Countdown::on(&g);
        // (0, 2) commits 14 hops; (1, 2) joins them at (0, 14) after 2.
        scheme.hops[0][2] = 14;
        scheme.hops[1][2] = 13;
        let plane = compile(&scheme, &g).unwrap();
        assert_eq!(plane.walk(1, 2).unwrap().len(), 14);
        validate(&plane, &scheme, &g).unwrap();
        scheme.hops[1][2] = 16;
        assert_out_of_hops(&scheme, &g, 1, 2);
    }

    /// Whether the plane stores a next-header array.
    fn stores_next_hid(plane: &ForwardingPlane) -> bool {
        match &plane.core.layout {
            CoreLayout::Dense { next_hid, .. } | CoreLayout::Sparse { next_hid, .. } => {
                next_hid.is_some()
            }
        }
    }

    #[test]
    fn only_planes_that_rewrite_headers_store_next_header_ids() {
        use cpr_algebra::policies::Capacity;
        use cpr_routing::SwClassTable;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let g = generators::barabasi_albert(48, 2, &mut rng);
        let dest = compile(
            &DestTable::build(&g, &EdgeWeights::uniform(&g, 1u64), &ShortestPath),
            &g,
        )
        .unwrap();
        assert_eq!(dest.memory().layout, "dense");
        assert!(!stores_next_hid(&dest));

        let w = EdgeWeights::from_fn(&g, |e| {
            (
                Capacity::new([10, 40, 100, 400][e % 4]).unwrap(),
                (e as u64 % 7) + 1,
            )
        });
        let sw = SwClassTable::build(&g, &w);
        assert!(!sw.destination_labelled());
        let sw = compile(&sw, &g).unwrap();
        assert_eq!(sw.memory().layout, "sparse");
        assert!(!stores_next_hid(&sw));

        let asg = cpr_bgp::internet_like(40, 2, 6, &mut rng);
        let bgp = cpr_bgp::BgpStateTable::build(&asg, &cpr_bgp::ValleyFree);
        let bgp_plane = compile(&bgp, asg.graph()).unwrap();
        assert!(stores_next_hid(&bgp_plane));
        validate(&bgp_plane, &bgp, asg.graph()).unwrap();

        let g = generators::cycle(3);
        assert!(stores_next_hid(&compile(&Countdown::on(&g), &g).unwrap()));
    }

    #[test]
    fn memory_report_counts_every_array() {
        let g = generators::cycle(8);
        let w = EdgeWeights::uniform(&g, 1u64);
        let scheme = DestTable::build(&g, &w, &ShortestPath);
        let plane = compile(&scheme, &g).unwrap();
        let mem = plane.memory();
        assert!(mem.transition_bits > 0);
        assert!(mem.initial_bits > 0);
        assert!(mem.adjacency_bits > 0);
        assert_eq!(
            mem.total_bits(),
            mem.transition_bits + mem.initial_bits + mem.adjacency_bits
        );
        assert!(mem.to_string().contains("dense") || mem.to_string().contains("sparse"));
    }
}
