//! Scheme factories: how a served class gets its scheme for a topology.

use cpr_graph::Graph;
use cpr_paths::EdgeChanges;

/// Builds a routing scheme for any topology and, where it can, maintains
/// an already-built one across a topology step instead.
///
/// Every `Fn(&Graph) -> S` closure is a factory that always rebuilds.
/// The incremental factories — [`DestTable::factory`](crate::DestTable::factory),
/// [`SwClassTable::factory`](crate::SwClassTable::factory) — repair the
/// scheme they built, and `update` leaves exactly what `build` on the new
/// topology returns.
pub trait SchemeFactory<S>: Send + Sync {
    /// Builds the scheme for `graph` from scratch.
    fn build(&self, graph: &Graph) -> S;

    /// Brings `scheme` — built, or last updated, by this factory for
    /// `from` — up to `to`, which differs from `from` by `changes` over
    /// the same node set. Returns `false` when this factory cannot, and
    /// the caller rebuilds; `scheme` is then unspecified. The default
    /// always declines.
    fn update(&self, scheme: &mut S, from: &Graph, to: &Graph, changes: EdgeChanges<'_>) -> bool {
        let _ = (scheme, from, to, changes);
        false
    }
}

impl<S, F> SchemeFactory<S> for F
where
    F: Fn(&Graph) -> S + Send + Sync,
{
    fn build(&self, graph: &Graph) -> S {
        self(graph)
    }
}
