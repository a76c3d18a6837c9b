//! The routing schemes: trivial tables, tree schemes, and the generalized
//! Cowen landmark scheme.

pub(crate) mod cowen;
pub(crate) mod dest_table;
pub(crate) mod interval_tree;
pub(crate) mod label_swapping;
pub(crate) mod spanning_tree;
pub(crate) mod src_dest_table;
pub(crate) mod sw_class_table;
pub(crate) mod tz_tree;

use cpr_graph::{Graph, NodeId};

/// The "no entry" value of the flat `u32` tables.
pub(crate) const NONE: u32 = u32::MAX;

/// A table port whose edge vanished with a topology step; held only in
/// the middle of an incremental update.
pub(crate) const CUT: u32 = u32::MAX - 1;

/// A port, node or class index as a table entry, checked to stay below
/// the sentinels.
pub(crate) fn narrow(v: usize) -> u32 {
    u32::try_from(v)
        .ok()
        .filter(|&v| v < CUT)
        .expect("port / node / class index fits 32 bits")
}

/// For every node whose port numbering differs between `from` and `to`,
/// its `from` ports translated into `to` ports — [`CUT`] where the edge
/// vanished. Nodes whose neighbour sequence is unchanged keep their
/// ports and are not listed.
pub(crate) fn port_moves(from: &Graph, to: &Graph) -> Vec<(NodeId, Vec<u32>)> {
    from.nodes()
        .filter(|&v| {
            !from
                .neighbors(v)
                .map(|(u, _)| u)
                .eq(to.neighbors(v).map(|(u, _)| u))
        })
        .map(|v| {
            let moves = from
                .neighbors(v)
                .map(|(u, _)| to.port_towards(v, u).map_or(CUT, narrow))
                .collect();
            (v, moves)
        })
        .collect()
}
