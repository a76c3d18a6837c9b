//! The baseline routing function for BGP algebras: per-destination,
//! per-route-class tables.
//!
//! `B1`/`B2` are not regular, so plain destination-based tables cannot
//! implement them (Proposition 2 is an *iff*): a node's own best route may
//! climb while an upstream neighbour's route assumed it would descend,
//! composing into a valley. The honest baseline keys each entry on
//! `(destination, route word)` and lets the header carry the word of the
//! remaining path — `O(n)` entries per node, the Θ(n) cost that
//! Theorems 5, 8 and 9 show is unavoidable in general.

use cpr_graph::{NodeId, Port};

use cpr_routing::bits::{node_id_bits, port_bits};
use cpr_routing::{RouteAction, RoutingScheme};

use crate::algebra::BgpAlgebra;
use crate::asgraph::AsGraph;
use crate::valley::routes_to;
use crate::word::Word;

/// The header: destination plus the word of the path the packet is still
/// to traverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BgpHeader {
    /// The destination AS.
    pub target: NodeId,
    /// The word of the remaining route.
    pub word: Word,
}

/// One node's table: sorted `(destination, word)` keys mapping to the
/// outgoing port and the word of the remaining path after that hop.
type NodeEntries = Vec<((NodeId, Word), (Port, Option<Word>))>;

/// Per-`(destination, word)` forwarding tables for a BGP algebra.
///
/// # Examples
///
/// ```
/// use cpr_bgp::{internet_like, BgpStateTable, ValleyFree};
/// use cpr_routing::route;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let asg = internet_like(25, 2, 5, &mut rng);
/// let scheme = BgpStateTable::build(&asg, &ValleyFree);
/// let path = route(&scheme, asg.graph(), 7, 0).unwrap();
/// assert_eq!(path.last(), Some(&0));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpStateTable {
    name: String,
    n: usize,
    /// `entries[u]`: see [`NodeEntries`].
    entries: Vec<NodeEntries>,
    /// The selected route word per `(source, target)`, for initial
    /// headers. `None`: unreachable.
    selected: Vec<Vec<Option<Word>>>,
    degree: Vec<usize>,
}

impl BgpStateTable {
    /// Builds tables by running the valley-free route engine towards
    /// every destination and materializing every per-state next hop.
    pub fn build<A: BgpAlgebra>(asg: &AsGraph, alg: &A) -> Self {
        let n = asg.node_count();
        let graph = asg.graph();
        let mut entries: Vec<NodeEntries> = vec![Vec::new(); n];
        let mut selected: Vec<Vec<Option<Word>>> = vec![vec![None; n]; n];
        for t in 0..n {
            let routes = routes_to(asg, alg, t);
            for u in 0..n {
                if u == t {
                    continue;
                }
                selected[u][t] = routes.selected_word(u);
                for w in [Word::C, Word::R, Word::P] {
                    let Some(state) = routes.state(u, w) else {
                        continue;
                    };
                    let (next, next_word) = match state.via {
                        None => (t, None),
                        Some((v, vw)) => (v, Some(vw)),
                    };
                    let port = graph.port_towards(u, next).expect("route edge exists");
                    entries[u].push(((t, w), (port, next_word)));
                }
            }
        }
        for list in &mut entries {
            list.sort_by_key(|&(key, _)| key);
        }
        BgpStateTable {
            name: format!("bgp-state-table[{}]", alg.name()),
            n,
            entries,
            selected,
            degree: graph.nodes().map(|v| graph.degree(v)).collect(),
        }
    }

    /// Number of `(destination, word)` entries at `v`.
    pub fn entries_at(&self, v: NodeId) -> usize {
        self.entries[v].len()
    }

    fn lookup(&self, u: NodeId, target: NodeId, word: Word) -> Option<(Port, Option<Word>)> {
        self.entries[u]
            .binary_search_by_key(&(target, word), |&(key, _)| key)
            .ok()
            .map(|ix| self.entries[u][ix].1)
    }
}

impl RoutingScheme for BgpStateTable {
    type Header = BgpHeader;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<BgpHeader> {
        if source == target {
            return Some(BgpHeader {
                target,
                word: Word::C, // unused: delivery happens before lookup
            });
        }
        self.selected[source][target].map(|word| BgpHeader { target, word })
    }

    fn step(&self, at: NodeId, header: &BgpHeader) -> RouteAction<BgpHeader> {
        if at == header.target {
            return RouteAction::Deliver;
        }
        match self.lookup(at, header.target, header.word) {
            Some((port, next_word)) => RouteAction::Forward {
                port,
                header: BgpHeader {
                    target: header.target,
                    // The word for the next hop; `None` only when the next
                    // hop is the target, where it is never read.
                    word: next_word.unwrap_or(Word::C),
                },
            },
            None => RouteAction::Forward {
                port: usize::MAX, // misroute loudly
                header: *header,
            },
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        // Key (target, word): log n + 2 bits; value (port, next word).
        let entry = node_id_bits(self.n) + 2 + port_bits(self.degree[v]) + 2;
        self.entries[v].len() as u64 * entry
    }

    fn label_bits(&self, _v: NodeId) -> u64 {
        node_id_bits(self.n)
    }

    fn header_bits(&self) -> u64 {
        node_id_bits(self.n) + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{PreferCustomer, ProviderCustomer, ValleyFree};
    use crate::asgraph::internet_like;
    use cpr_algebra::RoutingAlgebra;
    use cpr_routing::{route, MemoryReport};
    use rand::SeedableRng;

    #[test]
    fn delivers_valley_free_routes_everywhere() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(910);
        let asg = internet_like(30, 2, 6, &mut rng);
        let b2 = ValleyFree;
        let scheme = BgpStateTable::build(&asg, &b2);
        for s in 0..asg.node_count() {
            for t in 0..asg.node_count() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, asg.graph(), s, t).unwrap();
                assert_eq!(path.last(), Some(&t));
                let words: Vec<Word> = path
                    .windows(2)
                    .map(|h| asg.word(h[0], h[1]).unwrap())
                    .collect();
                assert!(
                    b2.weigh_path_right(&words).is_finite(),
                    "{s} → {t} valley: {words:?}"
                );
            }
        }
    }

    #[test]
    fn b3_routes_match_engine_selection() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(911);
        let asg = internet_like(25, 2, 4, &mut rng);
        let b3 = PreferCustomer;
        let scheme = BgpStateTable::build(&asg, &b3);
        for t in 0..asg.node_count() {
            let routes = routes_to(&asg, &b3, t);
            for s in 0..asg.node_count() {
                if s == t {
                    continue;
                }
                let path = route(&scheme, asg.graph(), s, t).unwrap();
                let words: Vec<Word> = path
                    .windows(2)
                    .map(|h| asg.word(h[0], h[1]).unwrap())
                    .collect();
                assert_eq!(b3.weigh_path_right(&words), routes.weight(s), "{s} → {t}");
            }
        }
    }

    #[test]
    fn b1_skips_peer_links() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(912);
        let asg = internet_like(20, 2, 4, &mut rng);
        let scheme = BgpStateTable::build(&asg, &ProviderCustomer);
        for s in 0..asg.node_count() {
            for t in 0..asg.node_count() {
                if s == t {
                    continue;
                }
                // A1 holds even without peers (single root hierarchy).
                let path = route(&scheme, asg.graph(), s, t).unwrap();
                for hop in path.windows(2) {
                    assert_ne!(
                        asg.word(hop[0], hop[1]),
                        Some(Word::R),
                        "B1 must not use peer links"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_is_linear_per_node() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(913);
        let asg = internet_like(50, 2, 10, &mut rng);
        let scheme = BgpStateTable::build(&asg, &ValleyFree);
        let report = MemoryReport::measure(&scheme);
        let n = asg.node_count() as u64;
        // At least one entry per reachable destination at somebody.
        assert!(report.max_local_bits >= (n - 1) * (node_id_bits(50_usize)));
        assert!(report.header_bits <= node_id_bits(50) + 2);
    }
}
