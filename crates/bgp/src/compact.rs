//! The compact schemes of Theorems 6 and 7: logarithmic-memory valley-free
//! routing under assumptions A1 + A2.
//!
//! **Theorem 6 (`B1`)**: with global reachability and no provider loops,
//! the customer–provider hierarchy has exactly one root; every node picks
//! one *preferred provider*, and the chosen provider edges form a spanning
//! tree. Routing on that tree is valley-free by construction — the tree
//! path climbs providers to the common ancestor, then descends customers —
//! and tree routing costs `Θ(log n)` bits (here: the Thorup–Zwick tree
//! scheme on the provider tree).
//!
//! **Theorem 7 (`B2`)**: split the graph into strongly connected
//! valley-free components (SVFCs) on the customer–provider arcs; inside a
//! component route as in Theorem 6; across components climb to the own
//! root, take the single peer hop to the target component's root (the
//! roots form a peer mesh under A1 + A2), and descend the target's
//! provider tree.

use cpr_graph::{EdgeId, NodeId, Port};
use cpr_routing::bits::{ceil_log2, node_id_bits, port_bits};
use cpr_routing::{RootedTree, RouteAction, RoutingScheme, TzLabel, TzTreeRouting};

use crate::asgraph::AsGraph;
use crate::word::Word;

/// Why a Theorem 6/7 scheme could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompactSchemeError {
    /// A2 fails: the provider arcs contain a directed cycle.
    ProviderLoop,
    /// A1 fails: a cp-component does not have exactly one root.
    BadRoots {
        /// The offending cp-component index.
        component: usize,
        /// Roots found in that component.
        roots: Vec<NodeId>,
    },
    /// Two component roots lack the peer edge A1 + A2 force between them.
    MissingPeerLink {
        /// One root.
        a: NodeId,
        /// The other root.
        b: NodeId,
    },
}

impl std::fmt::Display for CompactSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactSchemeError::ProviderLoop => {
                write!(f, "provider arcs contain a cycle (A2 violated)")
            }
            CompactSchemeError::BadRoots { component, roots } => write!(
                f,
                "component {component} has roots {roots:?}, expected exactly one (A1 violated)"
            ),
            CompactSchemeError::MissingPeerLink { a, b } => write!(
                f,
                "roots {a} and {b} are not peered (A1 + A2 force a root mesh)"
            ),
        }
    }
}

impl std::error::Error for CompactSchemeError {}

/// The provider spanning tree of one cp-component: every non-root member
/// attaches to its smallest-id provider (the "preferred provider" of the
/// Theorem 6 proof). Returns host-graph edge ids.
fn provider_tree(asg: &AsGraph, members: &[NodeId], root: NodeId) -> Vec<EdgeId> {
    members
        .iter()
        .filter(|&&v| v != root)
        .map(|&v| {
            let p = *asg
                .providers(v)
                .iter()
                .min()
                .expect("non-root member has a provider");
            asg.graph()
                .edge_between(v, p)
                .expect("provider link exists")
        })
        .collect()
}

/// The Theorem 6 compact scheme for `B1` on a single-rooted hierarchy:
/// Thorup–Zwick tree routing on the preferred-provider spanning tree.
/// `Θ(log n)` local bits, `Θ(log² n)` labels, all routes valley-free.
///
/// # Examples
///
/// ```
/// use cpr_bgp::{internet_like, B1CompactScheme};
/// use cpr_routing::route;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(8);
/// let asg = internet_like(40, 2, 0, &mut rng);
/// let scheme = B1CompactScheme::build(&asg).unwrap();
/// assert_eq!(route(&scheme, asg.graph(), 17, 4).unwrap().last(), Some(&4));
/// ```
#[derive(Clone, Debug)]
pub struct B1CompactScheme {
    inner: TzTreeRouting,
}

impl B1CompactScheme {
    /// Builds the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CompactSchemeError`] when A2 fails or there is not
    /// exactly one root.
    pub fn build(asg: &AsGraph) -> Result<Self, CompactSchemeError> {
        if !asg.check_a2() {
            return Err(CompactSchemeError::ProviderLoop);
        }
        let roots = asg.roots();
        let [root] = roots[..] else {
            return Err(CompactSchemeError::BadRoots {
                component: 0,
                roots,
            });
        };
        let members: Vec<NodeId> = (0..asg.node_count()).collect();
        let edges = provider_tree(asg, &members, root);
        Ok(B1CompactScheme {
            inner: TzTreeRouting::new(
                "b1-compact[provider-tree]".into(),
                asg.graph(),
                &edges,
                root,
            ),
        })
    }

    /// The tree scheme underneath (for memory inspection).
    pub fn tree_scheme(&self) -> &TzTreeRouting {
        &self.inner
    }
}

impl RoutingScheme for B1CompactScheme {
    type Header = TzLabel;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn initial_header(&self, source: NodeId, target: NodeId) -> Option<TzLabel> {
        self.inner.initial_header(source, target)
    }

    fn step(&self, at: NodeId, header: &TzLabel) -> RouteAction<TzLabel> {
        self.inner.step(at, header)
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        self.inner.local_memory_bits(v)
    }

    fn label_bits(&self, v: NodeId) -> u64 {
        self.inner.label_bits(v)
    }

    fn header_bits(&self) -> u64 {
        self.inner.header_bits()
    }

    /// As the provider-tree scheme underneath.
    fn destination_labelled(&self) -> bool {
        self.inner.destination_labelled()
    }
}

/// The header of the Theorem 7 scheme: the target's SVFC plus its label
/// in that component's provider tree.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct B2Header {
    /// The target's cp-component index.
    pub component: usize,
    /// The target's Thorup–Zwick label within its component tree.
    pub label: TzLabel,
}

/// The Theorem 7 compact scheme for `B2`: per-SVFC provider trees plus a
/// root peer mesh (see module docs).
///
/// Local memory: non-roots keep the `Θ(log n)` tree-scheme state plus
/// their component id; roots additionally keep one peer port per other
/// component. (The paper compresses the mesh to `O(log n)` with the
/// special port labelling of Fraigniaud–Gavoille's technical report; the
/// explicit mesh table here costs `(k−1)·(log k + log d)` bits at roots
/// for `k` components, which the accounting reports honestly.)
#[derive(Clone, Debug)]
pub struct B2CompactScheme {
    name: String,
    n: usize,
    component_of: Vec<usize>,
    trees: Vec<RootedTree>,
    roots: Vec<NodeId>,
    /// `mesh[a][b]`: at component `a`'s root, the peer port towards
    /// component `b`'s root.
    mesh: Vec<Vec<Option<Port>>>,
    labels: Vec<B2Header>,
    degree: Vec<usize>,
}

impl B2CompactScheme {
    /// Builds the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CompactSchemeError`] when A2 fails, a component does not
    /// have exactly one root, or two roots are not peered.
    pub fn build(asg: &AsGraph) -> Result<Self, CompactSchemeError> {
        if !asg.check_a2() {
            return Err(CompactSchemeError::ProviderLoop);
        }
        let n = asg.node_count();
        let (component_of, count) = asg.cp_components();
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); count];
        for v in 0..n {
            members[component_of[v]].push(v);
        }
        // Exactly one root per component.
        let all_roots = asg.roots();
        let mut roots: Vec<Vec<NodeId>> = vec![Vec::new(); count];
        for &r in &all_roots {
            roots[component_of[r]].push(r);
        }
        let roots: Vec<NodeId> = roots
            .into_iter()
            .enumerate()
            .map(|(component, rs)| match rs[..] {
                [r] => Ok(r),
                _ => Err(CompactSchemeError::BadRoots {
                    component,
                    roots: rs,
                }),
            })
            .collect::<Result<_, _>>()?;
        // Peer mesh between roots.
        let mut mesh: Vec<Vec<Option<Port>>> = vec![vec![None; count]; count];
        for a in 0..count {
            for b in 0..count {
                if a == b {
                    continue;
                }
                let (ra, rb) = (roots[a], roots[b]);
                if asg.word(ra, rb) != Some(Word::R) {
                    return Err(CompactSchemeError::MissingPeerLink { a: ra, b: rb });
                }
                mesh[a][b] = asg.graph().port_towards(ra, rb);
            }
        }
        // Per-component provider trees over the host graph (host ports).
        let trees: Vec<RootedTree> = members
            .iter()
            .enumerate()
            .map(|(c, comp_members)| {
                let edges = provider_tree(asg, comp_members, roots[c]);
                RootedTree::spanning_nodes(asg.graph(), &edges, roots[c], comp_members)
                    .expect("provider edges form a tree on the component")
            })
            .collect();
        let labels = (0..n)
            .map(|v| {
                let c = component_of[v];
                let tree = &trees[c];
                B2Header {
                    component: c,
                    label: TzLabel {
                        dfs: tree.dfs(v),
                        light: tree
                            .light_edges_to(v)
                            .into_iter()
                            .map(|(u, port)| (tree.dfs(u), port))
                            .collect(),
                    },
                }
            })
            .collect();
        Ok(B2CompactScheme {
            name: "b2-compact[svfc]".into(),
            n,
            component_of,
            trees,
            roots,
            mesh,
            labels,
            degree: asg.graph().nodes().map(|v| asg.graph().degree(v)).collect(),
        })
    }

    /// Number of SVFCs.
    pub fn component_count(&self) -> usize {
        self.trees.len()
    }

    /// The component of node `v`.
    pub fn component_of(&self, v: NodeId) -> usize {
        self.component_of[v]
    }

    /// The label of node `v`.
    pub fn label(&self, v: NodeId) -> &B2Header {
        &self.labels[v]
    }

    /// The Thorup–Zwick in-tree step within `v`'s component.
    fn tree_step(&self, at: NodeId, label: &TzLabel) -> RouteAction<B2Header> {
        let tree = &self.trees[self.component_of[at]];
        let d = label.dfs;
        let header = B2Header {
            component: self.component_of[at],
            label: label.clone(),
        };
        if !tree.in_subtree(at, d) {
            return RouteAction::Forward {
                port: tree
                    .parent_port(at)
                    .expect("target outside subtree implies non-root"),
                header,
            };
        }
        if let Some((heavy, port)) = tree.heavy_child(at) {
            if tree.in_subtree(heavy, d) {
                return RouteAction::Forward { port, header };
            }
        }
        let my_dfs = tree.dfs(at);
        let port = label
            .light
            .iter()
            .find(|(u_dfs, _)| *u_dfs == my_dfs)
            .map(|&(_, port)| port)
            .unwrap_or(usize::MAX); // misroute loudly on scheme bugs
        RouteAction::Forward { port, header }
    }
}

impl RoutingScheme for B2CompactScheme {
    type Header = B2Header;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn initial_header(&self, _source: NodeId, target: NodeId) -> Option<B2Header> {
        Some(self.labels[target].clone())
    }

    fn step(&self, at: NodeId, header: &B2Header) -> RouteAction<B2Header> {
        let my_component = self.component_of[at];
        if my_component == header.component {
            let tree = &self.trees[my_component];
            if tree.dfs(at) == header.label.dfs {
                return RouteAction::Deliver;
            }
            return self.tree_step(at, &header.label);
        }
        // Cross-component: climb to the own root, then the peer mesh.
        if at == self.roots[my_component] {
            let port = self.mesh[my_component][header.component].unwrap_or(usize::MAX);
            return RouteAction::Forward {
                port,
                header: header.clone(),
            };
        }
        RouteAction::Forward {
            port: self.trees[my_component]
                .parent_port(at)
                .expect("non-root has a provider-tree parent"),
            header: header.clone(),
        }
    }

    fn local_memory_bits(&self, v: NodeId) -> u64 {
        let id = node_id_bits(self.n);
        let port = port_bits(self.degree[v]);
        let comp_bits = ceil_log2(self.trees.len() as u64).max(1) as u64;
        // Tree-scheme state (own interval, parent port, heavy interval +
        // port) plus the own component id.
        let base = 4 * id + 2 * port + comp_bits;
        if self.roots[self.component_of[v]] == v {
            let k = self.trees.len() as u64;
            base + (k - 1) * (comp_bits + port)
        } else {
            base
        }
    }

    fn label_bits(&self, v: NodeId) -> u64 {
        let id = node_id_bits(self.n);
        let port = port_bits(self.degree[v].max(2));
        let comp_bits = ceil_log2(self.trees.len() as u64).max(1) as u64;
        comp_bits + id + self.labels[v].label.light.len() as u64 * (id + port)
    }

    fn header_bits(&self) -> u64 {
        (0..self.n).map(|v| self.label_bits(v)).max().unwrap_or(0)
    }

    /// The target's component and tree label are the header; no node
    /// rewrites it.
    fn destination_labelled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{ProviderCustomer, ValleyFree};
    use crate::asgraph::{internet_like, Relationship};
    use cpr_algebra::RoutingAlgebra;
    use cpr_routing::{route, MemoryReport};
    use rand::SeedableRng;

    fn assert_routes_valley_free<S, A>(asg: &AsGraph, scheme: &S, alg: &A)
    where
        S: RoutingScheme,
        A: RoutingAlgebra<W = Word>,
    {
        for s in 0..asg.node_count() {
            for t in 0..asg.node_count() {
                if s == t {
                    continue;
                }
                let path =
                    route(scheme, asg.graph(), s, t).unwrap_or_else(|e| panic!("{s} → {t}: {e}"));
                assert_eq!(path.last(), Some(&t));
                let words: Vec<Word> = path
                    .windows(2)
                    .map(|h| asg.word(h[0], h[1]).unwrap())
                    .collect();
                assert!(
                    alg.weigh_path_right(&words).is_finite(),
                    "{s} → {t} not traversable: {words:?}"
                );
            }
        }
    }

    #[test]
    fn b1_scheme_routes_whole_hierarchy() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(920);
        for trial in 0..3 {
            let asg = internet_like(40, 3, 0, &mut rng);
            let scheme =
                B1CompactScheme::build(&asg).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            assert_routes_valley_free(&asg, &scheme, &ProviderCustomer);
        }
    }

    #[test]
    fn b1_memory_is_logarithmic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(921);
        let asg = internet_like(256, 2, 0, &mut rng);
        let scheme = B1CompactScheme::build(&asg).unwrap();
        let report = MemoryReport::measure(&scheme);
        // 4 ids + 2 ports at n = 256: tiny and independent of n's scale.
        assert!(
            report.max_local_bits <= 64,
            "got {} bits",
            report.max_local_bits
        );
    }

    #[test]
    fn b1_rejects_multi_root() {
        // Two disconnected hierarchies: two roots.
        let asg = AsGraph::from_relationships(
            4,
            [
                (0, 1, Relationship::ProviderOf),
                (2, 3, Relationship::ProviderOf),
            ],
        )
        .unwrap();
        assert!(matches!(
            B1CompactScheme::build(&asg),
            Err(CompactSchemeError::BadRoots { .. })
        ));
    }

    #[test]
    fn b1_rejects_provider_loops() {
        let asg = AsGraph::from_relationships(
            3,
            [
                (0, 1, Relationship::CustomerOf),
                (1, 2, Relationship::CustomerOf),
                (2, 0, Relationship::CustomerOf),
            ],
        )
        .unwrap();
        assert_eq!(
            B1CompactScheme::build(&asg).unwrap_err(),
            CompactSchemeError::ProviderLoop
        );
    }

    /// Two single-rooted hierarchies whose roots peer.
    fn two_svfcs() -> AsGraph {
        AsGraph::from_relationships(
            8,
            [
                // Component A: root 0.
                (0, 1, Relationship::ProviderOf),
                (0, 2, Relationship::ProviderOf),
                (1, 3, Relationship::ProviderOf),
                // Component B: root 4.
                (4, 5, Relationship::ProviderOf),
                (4, 6, Relationship::ProviderOf),
                (6, 7, Relationship::ProviderOf),
                // Root mesh.
                (0, 4, Relationship::Peer),
            ],
        )
        .unwrap()
    }

    #[test]
    fn b2_scheme_routes_across_components() {
        let asg = two_svfcs();
        let scheme = B2CompactScheme::build(&asg).unwrap();
        assert_eq!(scheme.component_count(), 2);
        assert_routes_valley_free(&asg, &scheme, &ValleyFree);
        // A cross-component route passes both roots.
        let path = route(&scheme, asg.graph(), 3, 7).unwrap();
        assert!(path.contains(&0) && path.contains(&4), "path {path:?}");
    }

    #[test]
    fn b2_single_component_degenerates_to_b1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(922);
        let asg = internet_like(30, 2, 5, &mut rng);
        let scheme = B2CompactScheme::build(&asg).unwrap();
        assert_eq!(scheme.component_count(), 1);
        assert_routes_valley_free(&asg, &scheme, &ValleyFree);
    }

    #[test]
    fn b2_requires_root_mesh() {
        // Two components without the peer link.
        let asg = AsGraph::from_relationships(
            4,
            [
                (0, 1, Relationship::ProviderOf),
                (2, 3, Relationship::ProviderOf),
            ],
        )
        .unwrap();
        assert!(matches!(
            B2CompactScheme::build(&asg),
            Err(CompactSchemeError::MissingPeerLink { .. })
        ));
    }

    #[test]
    fn b2_memory_is_logarithmic_plus_mesh() {
        let asg = two_svfcs();
        let scheme = B2CompactScheme::build(&asg).unwrap();
        let report = MemoryReport::measure(&scheme);
        assert!(report.max_local_bits <= 80, "got {}", report.max_local_bits);
        // Labels carry (component, dfs, light list).
        assert!(report.max_label_bits <= 40);
    }
}
