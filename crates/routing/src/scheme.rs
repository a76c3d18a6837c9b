//! The routing-function model (paper §2.3): headers, labels, local routing
//! functions and their simulation.

use std::fmt;

use cpr_graph::{Graph, NodeId, Port};

/// One forwarding decision of a local routing function `R_u(h)`.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteAction<H> {
    /// The packet has reached its destination.
    Deliver,
    /// Send the packet out of local `port` with a (possibly rewritten)
    /// header.
    Forward {
        /// The local port at the current node.
        port: Port,
        /// The header the packet carries to the next hop.
        header: H,
    },
}

/// Why a simulated routing attempt failed. Any of these at a reachable
/// pair is a bug in the scheme under test — the simulator surfaces rather
/// than masks them.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteError {
    /// The local function named a port the node does not have.
    BadPort {
        /// Node that made the decision.
        at: NodeId,
        /// The invalid port.
        port: Port,
    },
    /// The packet exceeded the hop budget (a forwarding loop).
    HopBudgetExhausted {
        /// Nodes visited, in order.
        visited: Vec<NodeId>,
    },
    /// The scheme declared the pair unroutable (e.g. disconnected).
    Unroutable {
        /// Source of the attempted route.
        source: NodeId,
        /// Target of the attempted route.
        target: NodeId,
    },
    /// A forwarding plane observed a topology change that dirtied the
    /// pair and holds no verified route for it yet.
    AwaitingRepair {
        /// Source of the attempted route.
        source: NodeId,
        /// Target of the attempted route.
        target: NodeId,
    },
    /// The scheme delivered the packet at a node other than its target.
    Misdelivered {
        /// Source of the attempted route.
        source: NodeId,
        /// Target of the attempted route.
        target: NodeId,
        /// Where the packet was delivered.
        delivered: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::BadPort { at, port } => {
                write!(f, "node {at} forwarded on nonexistent port {port}")
            }
            RouteError::HopBudgetExhausted { visited } => {
                write!(f, "forwarding loop after {} hops", visited.len())
            }
            RouteError::Unroutable { source, target } => {
                write!(f, "scheme declared {source} → {target} unroutable")
            }
            RouteError::AwaitingRepair { source, target } => {
                write!(
                    f,
                    "{source} → {target} awaits repair after a topology change"
                )
            }
            RouteError::Misdelivered {
                source,
                target,
                delivered,
            } => write!(f, "packet {source} → {target} delivered at {delivered}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A compact routing scheme: node labels, headers, local routing functions
/// and honest bit accounting (paper §2.3 and Definition 2).
///
/// The packet's route is produced by iterating [`step`](Self::step):
/// starting from [`initial_header`](Self::initial_header), the node the
/// packet currently sits at evaluates its local function on the header and
/// either delivers or forwards on a local port with a rewritten header.
/// Nothing but the header and the local state may influence the decision —
/// this is the oblivious-routing model of Fraigniaud–Gavoille.
pub trait RoutingScheme {
    /// The packet header type. Encodable on
    /// [`header_bits`](Self::header_bits) bits.
    ///
    /// `Eq + Hash` is required so header states can be *interned*: the
    /// `cpr-plane` forwarding-plane compiler enumerates the reachable
    /// `(node, header)` states of a scheme and flattens them into packed
    /// transition arrays, which needs headers as map keys.
    type Header: Clone + fmt::Debug + Eq + std::hash::Hash;

    /// Human-readable scheme name for reports.
    fn name(&self) -> String;

    /// Number of nodes the scheme was built for.
    fn node_count(&self) -> usize;

    /// The header a source attaches to a packet for `target`. The source
    /// knows only the target's *label* (address), mirroring how a host
    /// addresses a packet; schemes whose labels carry routing data encode
    /// that data here.
    ///
    /// Returns `None` when the scheme knows the pair to be unroutable.
    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<Self::Header>;

    /// The local routing function `R_u(h)`.
    fn step(&self, at: NodeId, header: &Self::Header) -> RouteAction<Self::Header>;

    /// Honest encoding size of node `v`'s local routing function, in bits
    /// (Definition 2's `M_A(R, u)`).
    fn local_memory_bits(&self, v: NodeId) -> u64;

    /// Size of node `v`'s label (address) in bits. The model requires
    /// `O(log n)` labels.
    fn label_bits(&self, v: NodeId) -> u64;

    /// Maximum header size in bits.
    fn header_bits(&self) -> u64;

    /// Whether the scheme is *destination-labelled*: every source that
    /// routes to `target` attaches one and the same header, a function of
    /// `target` alone, and [`step`](Self::step) never rewrites it. The
    /// paper's destination tables (Obs. 1), tree schemes (Thm 1, Lemma 1),
    /// interval routing and Cowen's stretch-3 scheme (Thm 3) all are.
    ///
    /// A forwarding-plane compiler may then transcribe the scheme, one
    /// decision per `(node, target)`, instead of tracing every header
    /// state. The declaration is a promise the compiler checks, never
    /// trusts. The default is `false`.
    fn destination_labelled(&self) -> bool {
        false
    }
}

/// Statistics of a scheme's memory footprint across all nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryReport {
    /// Scheme name.
    pub scheme: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Definition 2's `max_u M(R, u)`: the worst node's local memory.
    pub max_local_bits: u64,
    /// Total bits across all nodes.
    pub total_bits: u64,
    /// Largest node label.
    pub max_label_bits: u64,
    /// Maximum header size.
    pub header_bits: u64,
}

impl MemoryReport {
    /// Measures `scheme`.
    pub fn measure<S: RoutingScheme>(scheme: &S) -> Self {
        let nodes = scheme.node_count();
        let mut max_local = 0;
        let mut total = 0;
        let mut max_label = 0;
        for v in 0..nodes {
            let bits = scheme.local_memory_bits(v);
            max_local = max_local.max(bits);
            total += bits;
            max_label = max_label.max(scheme.label_bits(v));
        }
        MemoryReport {
            scheme: scheme.name(),
            nodes,
            max_local_bits: max_local,
            total_bits: total,
            max_label_bits: max_label,
            header_bits: scheme.header_bits(),
        }
    }

    /// Average local memory per node.
    pub fn avg_local_bits(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.nodes as f64
        }
    }
}

impl fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={}, max {} bits/node, avg {:.1} bits/node, labels ≤ {} bits, headers ≤ {} bits",
            self.scheme,
            self.nodes,
            self.max_local_bits,
            self.avg_local_bits(),
            self.max_label_bits,
            self.header_bits
        )
    }
}

/// Simulates routing one packet from `source` to `target` and returns the
/// node sequence it traversed (`[source, …, target]`).
///
/// The hop budget is `4·n`: any correct compact scheme in this workspace
/// routes within `3 × diameter + O(1)` hops, so exceeding the budget means
/// a forwarding loop.
///
/// # Errors
///
/// Returns a [`RouteError`] if the scheme misroutes (bad port, loop,
/// delivery at a node other than `target`) or declares the pair
/// unroutable.
pub fn route<S: RoutingScheme>(
    scheme: &S,
    graph: &Graph,
    source: NodeId,
    target: NodeId,
) -> Result<Vec<NodeId>, RouteError> {
    let mut header = match scheme.initial_header(source, target) {
        Some(h) => h,
        None => return Err(RouteError::Unroutable { source, target }),
    };
    let mut at = source;
    let budget = 4 * graph.node_count() + 4;
    // Routes are short — O(diameter), which is O(log n) on the random
    // graphs this workspace studies — so reserve a few multiples of
    // log₂ n instead of paying repeated doublings or a full `budget`
    // allocation per query.
    let guess = 4 * (usize::BITS - graph.node_count().leading_zeros()) as usize + 8;
    let mut visited = Vec::with_capacity(guess.min(budget + 1));
    visited.push(source);
    loop {
        match scheme.step(at, &header) {
            RouteAction::Deliver if at == target => return Ok(visited),
            RouteAction::Deliver => {
                return Err(RouteError::Misdelivered {
                    source,
                    target,
                    delivered: at,
                })
            }
            RouteAction::Forward { port, header: h } => {
                let (next, _) = graph
                    .neighbor_at(at, port)
                    .ok_or(RouteError::BadPort { at, port })?;
                at = next;
                header = h;
                visited.push(at);
                if visited.len() > budget {
                    return Err(RouteError::HopBudgetExhausted { visited });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scheme for exercising the simulator: headers are bare target
    /// ids, every node forwards on port 0 until the target is reached.
    /// Correct only on a path graph labelled left to right.
    struct AlwaysPortZero {
        n: usize,
    }

    impl RoutingScheme for AlwaysPortZero {
        type Header = NodeId;

        fn name(&self) -> String {
            "always-port-zero".into()
        }

        fn node_count(&self) -> usize {
            self.n
        }

        fn initial_header(&self, _s: NodeId, t: NodeId) -> Option<NodeId> {
            Some(t)
        }

        fn step(&self, at: NodeId, header: &NodeId) -> RouteAction<NodeId> {
            if at == *header {
                RouteAction::Deliver
            } else {
                RouteAction::Forward {
                    port: if at == 0 { 0 } else { 1 },
                    header: *header,
                }
            }
        }

        fn local_memory_bits(&self, _v: NodeId) -> u64 {
            1
        }

        fn label_bits(&self, _v: NodeId) -> u64 {
            crate::bits::node_id_bits(self.n)
        }

        fn header_bits(&self) -> u64 {
            crate::bits::node_id_bits(self.n)
        }
    }

    #[test]
    fn simulator_follows_ports() {
        let g = cpr_graph::generators::path(4);
        let s = AlwaysPortZero { n: 4 };
        // Port 1 of an interior path node leads right.
        assert_eq!(route(&s, &g, 0, 3).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(route(&s, &g, 2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn simulator_detects_loops() {
        let g = cpr_graph::generators::cycle(4);
        let s = AlwaysPortZero { n: 4 };
        // On a cycle the fixed-port walker, aimed at an unreachable pseudo
        // target id, loops.
        let err = route(&s, &g, 0, 99).unwrap_err();
        assert!(matches!(err, RouteError::HopBudgetExhausted { .. }));
        assert!(err.to_string().contains("loop"));
    }

    #[test]
    fn simulator_detects_bad_ports() {
        let g = cpr_graph::generators::path(2);
        struct BadPort;
        impl RoutingScheme for BadPort {
            type Header = ();
            fn name(&self) -> String {
                "bad".into()
            }
            fn node_count(&self) -> usize {
                2
            }
            fn initial_header(&self, _: NodeId, _: NodeId) -> Option<()> {
                Some(())
            }
            fn step(&self, _: NodeId, _: &()) -> RouteAction<()> {
                RouteAction::Forward {
                    port: 7,
                    header: (),
                }
            }
            fn local_memory_bits(&self, _: NodeId) -> u64 {
                0
            }
            fn label_bits(&self, _: NodeId) -> u64 {
                1
            }
            fn header_bits(&self) -> u64 {
                0
            }
        }
        let err = route(&BadPort, &g, 0, 1).unwrap_err();
        assert_eq!(err, RouteError::BadPort { at: 0, port: 7 },);
    }

    #[test]
    fn simulator_refuses_a_delivery_off_target() {
        /// Delivers wherever the packet stands.
        struct DeliversAtOnce;
        impl RoutingScheme for DeliversAtOnce {
            type Header = ();
            fn name(&self) -> String {
                "delivers-at-once".into()
            }
            fn node_count(&self) -> usize {
                3
            }
            fn initial_header(&self, _: NodeId, _: NodeId) -> Option<()> {
                Some(())
            }
            fn step(&self, _: NodeId, _: &()) -> RouteAction<()> {
                RouteAction::Deliver
            }
            fn local_memory_bits(&self, _: NodeId) -> u64 {
                0
            }
            fn label_bits(&self, _: NodeId) -> u64 {
                1
            }
            fn header_bits(&self) -> u64 {
                0
            }
        }
        let g = cpr_graph::generators::path(3);
        assert_eq!(route(&DeliversAtOnce, &g, 1, 1).unwrap(), vec![1]);
        let err = route(&DeliversAtOnce, &g, 0, 2).unwrap_err();
        assert_eq!(
            err,
            RouteError::Misdelivered {
                source: 0,
                target: 2,
                delivered: 0
            }
        );
        assert!(err.to_string().contains("delivered at 0"));
        assert!(!DeliversAtOnce.destination_labelled());
    }

    #[test]
    fn memory_report_aggregates() {
        let s = AlwaysPortZero { n: 4 };
        let r = MemoryReport::measure(&s);
        assert_eq!(r.max_local_bits, 1);
        assert_eq!(r.total_bits, 4);
        assert_eq!(r.avg_local_bits(), 1.0);
        assert!(r.to_string().contains("always-port-zero"));
    }
}
