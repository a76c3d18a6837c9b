//! Exact incremental repair of generalized-Dijkstra trees.
//!
//! [`dijkstra`] breaks every tie deterministically: heap order is
//! (weight, hops, node id) and an equal offer never replaces the
//! incumbent. Under a monotone algebra every offer a node makes is
//! strictly worse, in (weight, hops), than its own label, so nodes settle
//! in the (weight, hops, id) order of their *final* labels and each label
//! is the best offer among all neighbours. The tree is therefore a
//! function of its labels:
//!
//! * the labels are the unique fixed point of
//!   `L(v) = min over neighbours u of (L(u) ⊕ w(u, v), H(u) + 1)`, the root
//!   offering `(w(root, v), 1)`;
//! * `v`'s parent is the earliest-settled neighbour among those offering
//!   exactly `L(v)`.
//!
//! [`TreeRepair`] uses this to turn the tree `dijkstra` built on an old
//! graph into the one it would build on a new graph, touching only the
//! nodes whose label or tie-break winner can move:
//!
//! 1. the *cut region* — every node whose tree path crossed a vanished
//!    edge — loses its label and is re-seeded with its best offer from
//!    outside;
//! 2. one Dijkstra pass, seeded with the cut region and with every offer
//!    across an added edge, relabels the cut region and propagates every
//!    strict improvement;
//! 3. every relabelled node, and every neighbour whose winner can change
//!    (its old parent moved, or a moved node now offers exactly its
//!    label), re-derives its parent from its neighbours' final labels and
//!    checks that its label is exactly its best offer.
//!
//! A check fails when a label lost its support without being cut: under
//! a selective algebra (widest-path) a node can improve its weight while
//! gaining hops, so the `(weight, hops)` offer it makes its old children
//! gets *worse*. Each unsupported label is then invalidated together with
//! every label it supports, and steps 1–3 run again on that region. No
//! other node's neighbourhood moved, so once every check holds the
//! repaired labels *are* the fixed point — `dijkstra`'s; a root still
//! failing after [`MAX_ROUNDS`] is re-solved from scratch and counted in
//! [`TreeRepair::fallbacks`].
//!
//! Labels are never needed resident: a node's old label is folded on
//! demand from the root outward along the old tree — `L(p) ⊕ w(p, v)`,
//! the operand order `dijkstra` composes in, which matters for carriers
//! whose `⊕` rounds (`most-reliable-path` on overflow).

use std::cmp::Ordering;

use cpr_algebra::{PathWeight, RoutingAlgebra};
use cpr_graph::{EdgeId, EdgeWeights, Graph, NodeId, Port};

use crate::dijkstra::{better, dijkstra};
use crate::heap::CmpHeap;
use crate::tree::PreferredTree;

/// The edge difference between two topologies over one node set, as
/// normalized `(min, max)` node pairs.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeChanges<'a> {
    /// Edges of the old topology the new one lacks.
    pub removed: &'a [(NodeId, NodeId)],
    /// Edges of the new topology the old one lacks. An added edge absent
    /// from the graph a repair runs on (a filtered subgraph) is skipped.
    pub added: &'a [(NodeId, NodeId)],
}

/// A node's parent in the tree being repaired, as the *new* graph sees
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorParent {
    /// No parent: the node was unreachable (or is the root).
    Unreached,
    /// Reached from `node` over `edge`, an edge id of the new graph.
    Via {
        /// The parent node.
        node: NodeId,
        /// The parent edge's id in the new graph.
        edge: EdgeId,
    },
    /// The parent edge vanished with the step.
    Cut,
}

/// One node's entry after a repair: exactly what [`dijkstra`] on the new
/// graph holds for it.
#[derive(Clone, Debug, PartialEq)]
pub struct Repaired<W> {
    /// The node.
    pub node: NodeId,
    /// Parent node, the connecting edge and `node`'s local port towards
    /// the parent; `None` when unreachable.
    pub parent: Option<(NodeId, EdgeId, Port)>,
    /// The preferred weight from the root.
    pub weight: PathWeight<W>,
    /// The hop count from the root (0 when unreachable).
    pub hops: u32,
}

/// Invalidated, awaiting its seed offer.
const CUT: u8 = 1;
/// Label reassigned by this repair (the node is on the `moved` list).
const MOVED: u8 = 2;
/// Relaxed its neighbours with its current label.
const SETTLED: u8 = 4;
/// Label kept, parent to be re-derived (the node is on the `rescan` list).
const RESCAN: u8 = 8;
/// `old_label` / `old_hops` hold the label the node had before it moved.
const OLD: u8 = 16;

/// Rounds of step 3 before a root is re-solved from scratch.
const MAX_ROUNDS: usize = 16;

/// `via` of a node no offer supports.
const NO_VIA: NodeId = NodeId::MAX;

type Entry<W> = (PathWeight<W>, u32, NodeId);

/// Reusable scratch for repairing one tree after another; see the module
/// docs. Per-node state is reset by an epoch stamp, so a repair costs what
/// it touches, not `n`.
#[derive(Debug)]
pub struct TreeRepair<W> {
    epoch: u32,
    /// `seen[v] == epoch` ⇔ `label`, `hops` and `flags` of `v` are valid.
    seen: Vec<u32>,
    label: Vec<PathWeight<W>>,
    hops: Vec<u32>,
    flags: Vec<u8>,
    /// The label a moved node held before, for folding its old subtree;
    /// valid where `OLD` is set.
    old_label: Vec<PathWeight<W>>,
    old_hops: Vec<u32>,
    /// The neighbour whose offer a moved node's label came from.
    via: Vec<NodeId>,
    climb: Vec<(NodeId, NodeId, EdgeId)>,
    moved: Vec<NodeId>,
    rescan: Vec<NodeId>,
    /// Invalidated nodes awaiting their seed offer.
    batch: Vec<NodeId>,
    /// Endpoints an added edge offers exactly their label.
    ties: Vec<NodeId>,
    /// Nodes whose label failed its check this round.
    failed: Vec<NodeId>,
    heap: Vec<Entry<W>>,
    out: Vec<Repaired<W>>,
    fallbacks: usize,
}

impl<W: Clone> Default for TreeRepair<W> {
    fn default() -> Self {
        TreeRepair {
            epoch: 0,
            seen: Vec::new(),
            label: Vec::new(),
            hops: Vec::new(),
            flags: Vec::new(),
            old_label: Vec::new(),
            old_hops: Vec::new(),
            via: Vec::new(),
            climb: Vec::new(),
            moved: Vec::new(),
            rescan: Vec::new(),
            batch: Vec::new(),
            ties: Vec::new(),
            failed: Vec::new(),
            heap: Vec::new(),
            out: Vec::new(),
            fallbacks: 0,
        }
    }
}

impl<W: Clone> TreeRepair<W> {
    /// Empty scratch; buffers grow to the graph on first use.
    pub fn new() -> Self {
        TreeRepair::default()
    }

    /// Repairs that failed their fixed-point check and re-solved the root
    /// from scratch.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    /// Repairs the tree rooted at `root` across `changes`. `prior` reads
    /// the tree [`dijkstra`] built on the old graph, translated to
    /// `graph` — the *new* graph, weighted by `weights`; edges present in
    /// both graphs must weigh the same in both.
    ///
    /// Returns the new entry of every node whose label or parent may have
    /// moved — a superset of those that did, empty when the step cannot
    /// touch this tree. Every other node keeps its old entry, which is
    /// already exact.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of bounds, the weighting does not match
    /// `graph`, or `prior` describes a cycle.
    pub fn repair<A, T>(
        &mut self,
        graph: &Graph,
        weights: &EdgeWeights<W>,
        alg: &A,
        root: NodeId,
        prior: T,
        changes: EdgeChanges<'_>,
    ) -> &[Repaired<W>]
    where
        A: RoutingAlgebra<W = W>,
        T: Fn(NodeId) -> PriorParent,
    {
        let n = graph.node_count();
        assert!(root < n, "root out of bounds");
        assert_eq!(weights.len(), graph.edge_count(), "weighting mismatch");
        self.begin(n);
        let exact = Pass {
            s: self,
            graph,
            weights,
            alg,
            root,
            prior: &prior,
        }
        .run(changes);
        if !exact {
            self.fallbacks += 1;
            self.out.clear();
            let tree = dijkstra(graph, weights, alg, root);
            for v in (0..n).filter(|&v| v != root) {
                self.out.push(Repaired {
                    node: v,
                    parent: tree.parent(v).map(|(p, e)| {
                        let port = graph.port_towards(v, p).expect("tree edge is in the graph");
                        (p, e, port)
                    }),
                    weight: tree.weight(v).clone(),
                    hops: tree.hops(v),
                });
            }
        }
        &self.out
    }

    /// Repairs `tree` — built by [`dijkstra`] on the old graph — in place
    /// into exactly `dijkstra(graph, weights, alg, tree.source())`:
    /// weights, hops, parents and parent edge ids. Returns the number of
    /// entries the repair rewrote.
    ///
    /// # Panics
    ///
    /// As [`repair`](Self::repair), or if the tree does not cover `graph`.
    pub fn repair_tree<A>(
        &mut self,
        tree: &mut PreferredTree<W>,
        graph: &Graph,
        weights: &EdgeWeights<W>,
        alg: &A,
        changes: EdgeChanges<'_>,
    ) -> usize
    where
        A: RoutingAlgebra<W = W>,
    {
        assert_eq!(
            tree.len(),
            graph.node_count(),
            "tree does not cover the graph"
        );
        // Old parents as edges of the new graph: ids shift under
        // renumbering, so they are re-resolved from the endpoints.
        let prior: Vec<PriorParent> = graph
            .nodes()
            .map(|v| match tree.parent(v) {
                None => PriorParent::Unreached,
                Some((p, _)) => graph
                    .edge_between(p, v)
                    .map_or(PriorParent::Cut, |edge| PriorParent::Via { node: p, edge }),
            })
            .collect();
        self.repair(graph, weights, alg, tree.source(), |v| prior[v], changes);
        for (v, p) in prior.iter().enumerate() {
            if let PriorParent::Via { node, edge } = *p {
                let (w, h) = (tree.weight(v).clone(), tree.hops(v));
                tree.set_entry(v, w, Some((node, edge)), h);
            }
        }
        for r in &self.out {
            tree.set_entry(
                r.node,
                r.weight.clone(),
                r.parent.map(|(p, e, _)| (p, e)),
                r.hops,
            );
        }
        self.out.len()
    }

    fn begin(&mut self, n: usize) {
        if self.seen.len() != n {
            self.seen = vec![0; n];
            self.label = vec![PathWeight::Infinite; n];
            self.hops = vec![0; n];
            self.flags = vec![0; n];
            self.old_label = vec![PathWeight::Infinite; n];
            self.old_hops = vec![0; n];
            self.via = vec![NO_VIA; n];
            self.epoch = 0;
        }
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.moved.clear();
        self.rescan.clear();
        self.batch.clear();
        self.ties.clear();
        self.out.clear();
    }

    fn known(&self, v: NodeId) -> bool {
        self.seen[v] == self.epoch
    }

    fn set(&mut self, v: NodeId, label: PathWeight<W>, hops: u32) {
        self.seen[v] = self.epoch;
        self.label[v] = label;
        self.hops[v] = hops;
        self.flags[v] = 0;
    }

    fn mark_rescan(&mut self, v: NodeId) {
        if self.flags[v] & (MOVED | RESCAN) == 0 {
            self.flags[v] |= RESCAN;
            self.rescan.push(v);
        }
    }
}

/// One repair in flight: the scratch plus everything it reads.
struct Pass<'s, 'g, A: RoutingAlgebra, T> {
    s: &'s mut TreeRepair<A::W>,
    graph: &'g Graph,
    weights: &'g EdgeWeights<A::W>,
    alg: &'g A,
    root: NodeId,
    prior: &'g T,
}

impl<A, T> Pass<'_, '_, A, T>
where
    A: RoutingAlgebra,
    T: Fn(NodeId) -> PriorParent,
{
    /// Steps 1–3 of the module docs; `false` when the checks still fail
    /// after [`MAX_ROUNDS`].
    fn run(mut self, changes: EdgeChanges<'_>) -> bool {
        let graph = self.graph;
        let alg = self.alg;
        let mut heap = CmpHeap::with_buffer(
            std::mem::take(&mut self.s.heap),
            |a: &Entry<A::W>, b: &Entry<A::W>| {
                alg.compare_pw(&a.0, &b.0)
                    .then(a.1.cmp(&b.1))
                    .then(a.2.cmp(&b.2))
            },
        );

        // 1. The cut region: below every vanished tree edge.
        for &(a, b) in changes.removed {
            for x in [a, b] {
                if x != self.root && !self.s.known(x) && (self.prior)(x) == PriorParent::Cut {
                    self.invalidate(x);
                }
            }
        }
        self.seed(&mut heap);

        // 2. Every offer across an added edge.
        for &(a, b) in changes.added {
            let Some(e) = graph.edge_between(a, b) else {
                continue;
            };
            for (x, y) in [(a, b), (b, a)] {
                if y == self.root {
                    continue;
                }
                let Some((w, h)) = self.offer(x, e) else {
                    continue;
                };
                self.fold(y);
                if self.improves(y, &w, h) {
                    self.relabel(y, w, h, x, &mut heap);
                } else if !self.worse(y, &w, h) {
                    // Ties the incumbent: the winner may change.
                    self.s.ties.push(y);
                }
            }
        }

        let mut exact = false;
        for _ in 0..MAX_ROUNDS {
            self.propagate(&mut heap);
            if self.s.moved.is_empty() && self.s.ties.is_empty() {
                exact = true;
                break;
            }
            self.collect_rescan();
            if self.derive() {
                exact = true;
                break;
            }
            // Unsupported labels go, with everything they support.
            for i in 0..self.s.failed.len() {
                let z = self.s.failed[i];
                self.invalidate(z);
            }
            self.seed(&mut heap);
        }
        self.s.heap = heap.into_buffer();
        exact
    }

    /// Invalidates `x` and every label it supports, transitively: the
    /// nodes whose label folded from it or was last offered by it.
    fn invalidate(&mut self, x: NodeId) {
        if self.s.known(x) && self.s.flags[x] & CUT != 0 {
            return;
        }
        let graph = self.graph;
        let mut i = self.s.batch.len();
        self.cut(x);
        while i < self.s.batch.len() {
            let u = self.s.batch[i];
            i += 1;
            for (y, _) in graph.neighbors(u) {
                if y == self.root || (self.s.known(y) && self.s.flags[y] & CUT != 0) {
                    continue;
                }
                let supported = if self.s.known(y) && self.s.flags[y] & MOVED != 0 {
                    self.s.via[y] == u
                } else {
                    matches!((self.prior)(y), PriorParent::Via { node, .. } if node == u)
                };
                if supported {
                    self.cut(y);
                }
            }
        }
    }

    /// Seeds every invalidated node with its best offer from outside the
    /// invalidated set.
    fn seed(
        &mut self,
        heap: &mut CmpHeap<Entry<A::W>, impl Fn(&Entry<A::W>, &Entry<A::W>) -> Ordering>,
    ) {
        let graph = self.graph;
        for i in 0..self.s.batch.len() {
            let v = self.s.batch[i];
            let mut best: Option<(PathWeight<A::W>, u32, NodeId)> = None;
            for (u, e) in graph.neighbors(v) {
                if u != self.root {
                    self.fold(u);
                    if self.s.flags[u] & CUT != 0 {
                        continue;
                    }
                }
                if let Some((w, h)) = self.offer(u, e) {
                    if best
                        .as_ref()
                        .is_none_or(|(bw, bh, _)| better(self.alg, &w, h, bw, *bh, true))
                    {
                        best = Some((w, h, u));
                    }
                }
            }
            if let Some((w, h, u)) = best {
                self.s.label[v] = w.clone();
                self.s.hops[v] = h;
                self.s.via[v] = u;
                heap.push((w, h, v));
            }
        }
        for v in self.s.batch.drain(..) {
            self.s.flags[v] &= !CUT;
        }
    }

    /// Dijkstra order: every settled label relaxes its neighbours, and
    /// every strict improvement is queued.
    fn propagate(
        &mut self,
        heap: &mut CmpHeap<Entry<A::W>, impl Fn(&Entry<A::W>, &Entry<A::W>) -> Ordering>,
    ) {
        let graph = self.graph;
        while let Some((w, h, v)) = heap.pop() {
            if self.s.flags[v] & SETTLED != 0
                || h != self.s.hops[v]
                || self.alg.compare_pw(&w, &self.s.label[v]) != Ordering::Equal
            {
                continue;
            }
            self.s.flags[v] |= SETTLED;
            for (z, e) in graph.neighbors(v) {
                if z == self.root {
                    continue;
                }
                let Some((cw, ch)) = self.offer(v, e) else {
                    continue;
                };
                self.fold(z);
                if self.improves(z, &cw, ch) {
                    self.relabel(z, cw, ch, v, heap);
                }
            }
        }
    }

    /// The nodes besides the moved ones whose winner can change: orphans
    /// of a moved parent, nodes a moved neighbour now offers exactly their
    /// label, and the endpoints an added edge ties.
    fn collect_rescan(&mut self) {
        let graph = self.graph;
        for v in self.s.rescan.drain(..) {
            self.s.flags[v] &= !RESCAN;
        }
        for i in 0..self.s.ties.len() {
            let y = self.s.ties[i];
            self.s.mark_rescan(y);
        }
        for i in 0..self.s.moved.len() {
            let u = self.s.moved[i];
            for (z, e) in graph.neighbors(u) {
                if z == self.root {
                    continue;
                }
                self.fold(z);
                if self.s.flags[z] & (MOVED | RESCAN) != 0 {
                    continue;
                }
                let orphan = matches!((self.prior)(z), PriorParent::Via { node, .. } if node == u);
                if orphan || self.offer(u, e).is_some_and(|(w, h)| !self.worse(z, &w, h)) {
                    self.s.mark_rescan(z);
                }
            }
        }
    }

    /// Re-derives the parent of every moved and rescanned node into `out`
    /// and checks each label is exactly its best offer; `false` with the
    /// offenders in `failed` when one is not.
    fn derive(&mut self) -> bool {
        let graph = self.graph;
        let alg = self.alg;
        self.s.out.clear();
        self.s.failed.clear();
        let moved = self.s.moved.len();
        for i in 0..moved + self.s.rescan.len() {
            let z = if i < moved {
                self.s.moved[i]
            } else {
                self.s.rescan[i - moved]
            };
            if i >= moved && self.s.flags[z] & MOVED != 0 {
                continue;
            }
            // The best offer, as the entry it would make.
            let mut best: Option<Repaired<A::W>> = None;
            for (port, (u, e)) in graph.neighbors(z).enumerate() {
                let Some((w, h)) = self.offer(u, e) else {
                    continue;
                };
                let take = match &best {
                    None => true,
                    Some(b) => match alg.compare_pw(&w, &b.weight).then(h.cmp(&b.hops)) {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => {
                            b.parent.is_some_and(|(bu, ..)| self.settles_before(u, bu))
                        }
                    },
                };
                if take {
                    best = Some(Repaired {
                        node: z,
                        parent: Some((u, e, port)),
                        weight: w,
                        hops: h,
                    });
                }
            }
            let label = &self.s.label[z];
            let exact = match &best {
                None => label.is_infinite(),
                Some(b) => {
                    b.hops == self.s.hops[z] && alg.compare_pw(&b.weight, label) == Ordering::Equal
                }
            };
            if !exact {
                self.s.failed.push(z);
                continue;
            }
            let entry = best.unwrap_or(Repaired {
                node: z,
                parent: None,
                weight: PathWeight::Infinite,
                hops: 0,
            });
            self.s.out.push(entry);
        }
        self.s.failed.is_empty()
    }

    /// Makes `v`'s label known: its old label, folded from the root
    /// outward along the prior tree.
    fn fold(&mut self, v: NodeId) {
        let s = &mut *self.s;
        if s.known(v) {
            return;
        }
        s.climb.clear();
        let mut x = v;
        while !s.known(x) {
            if x == self.root {
                s.set(x, PathWeight::Infinite, 0);
                break;
            }
            match (self.prior)(x) {
                PriorParent::Via { node, edge } => {
                    s.climb.push((x, node, edge));
                    assert!(
                        s.climb.len() <= s.seen.len(),
                        "prior parents contain a cycle"
                    );
                    x = node;
                }
                PriorParent::Unreached | PriorParent::Cut => s.set(x, PathWeight::Infinite, 0),
            }
        }
        while let Some((y, p, e)) = s.climb.pop() {
            // An improved ancestor folds from the label it had: `y` keeps
            // its old label until the improvement reaches it as an offer.
            let (base, base_hops) = if s.flags[p] & OLD != 0 {
                (&s.old_label[p], s.old_hops[p])
            } else {
                (&s.label[p], s.hops[p])
            };
            let w = PathWeight::Finite(self.weights.weight(e).clone());
            let label = if p == self.root {
                w
            } else {
                self.alg.combine_pw(base, &w)
            };
            s.set(y, label, base_hops + 1);
        }
    }

    /// What `u` offers its neighbour over `e`: `(weight, hops)`, `None`
    /// when nothing finite.
    fn offer(&mut self, u: NodeId, e: EdgeId) -> Option<(PathWeight<A::W>, u32)> {
        let w = PathWeight::Finite(self.weights.weight(e).clone());
        if u == self.root {
            return Some((w, 1));
        }
        self.fold(u);
        let cand = self.alg.combine_pw(&self.s.label[u], &w);
        cand.is_finite().then(|| (cand, self.s.hops[u] + 1))
    }

    /// Whether `(w, h)` replaces `v`'s current label under `dijkstra`'s
    /// rule.
    fn improves(&self, v: NodeId, w: &PathWeight<A::W>, h: u32) -> bool {
        let cur = &self.s.label[v];
        better(self.alg, w, h, cur, self.s.hops[v], cur.is_finite())
    }

    /// Whether `(w, h)` is strictly worse than `v`'s reached label.
    fn worse(&self, v: NodeId, w: &PathWeight<A::W>, h: u32) -> bool {
        let cur = &self.s.label[v];
        cur.is_finite()
            && self
                .alg
                .compare_pw(w, cur)
                .then(h.cmp(&self.s.hops[v]))
                .is_gt()
    }

    /// `dijkstra`'s settle order over final labels: the root first, then
    /// (weight, hops, id).
    fn settles_before(&self, a: NodeId, b: NodeId) -> bool {
        if a == self.root || b == self.root {
            return a == self.root && b != self.root;
        }
        let s = &*self.s;
        self.alg
            .compare_pw(&s.label[a], &s.label[b])
            .then((s.hops[a], a).cmp(&(s.hops[b], b)))
            .is_lt()
    }

    /// Drops `v`'s label and queues it for a seed offer.
    fn cut(&mut self, v: NodeId) {
        let s = &mut *self.s;
        if !s.known(v) {
            s.set(v, PathWeight::Infinite, 0);
        }
        if s.flags[v] & MOVED == 0 {
            s.moved.push(v);
        }
        s.flags[v] = (s.flags[v] & OLD) | CUT | MOVED;
        s.label[v] = PathWeight::Infinite;
        s.hops[v] = 0;
        s.via[v] = NO_VIA;
        s.batch.push(v);
    }

    /// Takes `u`'s offer `(w, h)` as `v`'s new label and queues it.
    fn relabel(
        &mut self,
        v: NodeId,
        w: PathWeight<A::W>,
        h: u32,
        u: NodeId,
        heap: &mut CmpHeap<Entry<A::W>, impl Fn(&Entry<A::W>, &Entry<A::W>) -> Ordering>,
    ) {
        let s = &mut *self.s;
        if s.flags[v] & MOVED == 0 {
            s.moved.push(v);
            s.flags[v] |= MOVED | OLD;
            s.old_label[v] = std::mem::replace(&mut s.label[v], w.clone());
            s.old_hops[v] = std::mem::replace(&mut s.hops[v], h);
        } else {
            s.label[v] = w.clone();
            s.hops[v] = h;
        }
        s.flags[v] &= !SETTLED;
        s.via[v] = u;
        heap.push((w, h, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_algebra::policies::ShortestPath;
    use cpr_graph::generators;

    type Edges = Vec<(NodeId, NodeId)>;

    fn diff(old: &Graph, new: &Graph) -> (Edges, Edges) {
        let edges = |g: &Graph| -> std::collections::BTreeSet<(NodeId, NodeId)> {
            g.edges().map(|(_, (u, v))| (u.min(v), u.max(v))).collect()
        };
        let (a, b) = (edges(old), edges(new));
        (
            a.difference(&b).copied().collect(),
            b.difference(&a).copied().collect(),
        )
    }

    #[test]
    fn removing_a_tree_edge_reroutes_only_the_subtree() {
        // A 6-cycle rooted at 0: removing (2, 3) re-hangs 3 under 4.
        let g = generators::cycle(6);
        let w = EdgeWeights::uniform(&g, 1u64);
        let mut tree = dijkstra(&g, &w, &ShortestPath, 0);
        let g2 =
            Graph::from_edges(6, g.edges().map(|(_, uv)| uv).filter(|&uv| uv != (2, 3))).unwrap();
        let w2 = EdgeWeights::uniform(&g2, 1u64);
        let (removed, added) = diff(&g, &g2);
        let mut repair = TreeRepair::new();
        let touched = repair.repair_tree(
            &mut tree,
            &g2,
            &w2,
            &ShortestPath,
            EdgeChanges {
                removed: &removed,
                added: &added,
            },
        );
        assert!((1..5).contains(&touched), "touched {touched}");
        let fresh = dijkstra(&g2, &w2, &ShortestPath, 0);
        for v in g2.nodes() {
            assert_eq!(tree.parent(v), fresh.parent(v), "parent of {v}");
            assert_eq!(tree.weight(v), fresh.weight(v));
            assert_eq!(tree.hops(v), fresh.hops(v));
        }
        assert_eq!(repair.fallbacks(), 0);
    }

    #[test]
    fn an_untouched_tree_reports_nothing() {
        // A chord between two leaves of equal depth that offers nothing
        // better: the tree stays, nothing is rewritten.
        let g = generators::cycle(6);
        let w = EdgeWeights::uniform(&g, 1u64);
        let mut g2 = g.clone();
        g2.add_edge(1, 5).unwrap();
        let w2 = EdgeWeights::from_fn(&g2, |e| if e == 6 { 9 } else { 1 });
        let mut tree = dijkstra(&g, &w, &ShortestPath, 0);
        let mut repair = TreeRepair::new();
        let touched = repair.repair_tree(
            &mut tree,
            &g2,
            &w2,
            &ShortestPath,
            EdgeChanges {
                removed: &[],
                added: &[(1, 5)],
            },
        );
        assert_eq!(touched, 0);
    }
}
