//! The multi-algebra conformance arm: every class a
//! [`MultiPlane`] serves, differentially certified against its own
//! exhaustive oracle — fresh and after shared-dirty-set repair.
//!
//! The standard registry ([`standard_builder`]) is the serving lineup
//! the multi-plane story rests on: all eight Table 1 algebras (the
//! seven regular ones over destination tables, shortest-widest over its
//! bottleneck-class tables) plus the four BGP compositions `B1`–`B4`
//! over per-`(destination, word)` state tables. Edge weights and AS
//! relationships are derived *from the topology itself* (pair-keyed
//! [`synth_atom`] hashes), so every class's scheme factory can rebuild
//! on any churned graph and always agrees with its oracle about
//! weights.
//!
//! [`check_multi_instance`] sweeps one generated [`Instance`] through
//! three phases — `fresh` (just compiled), `repaired` (heal edge
//! removed, every class repaired from **one** shared dirty set) and
//! `restored` (edge added back, the `DirtyPairs::All` fallback) — and
//! in each phase checks every class three ways:
//!
//! * **hop-for-hop** against a freshly built scheme of the same class
//!   on the current topology;
//! * **snapshot agreement** — the immutable [`MultiSnapshot`] (which
//!   serves through the zero-alloc `StaticCore` when a class is
//!   pristine) must answer identically to the master's healed walk;
//! * **oracle certification** — routability and path weight against the
//!   class's own ground truth: the exhaustive simple-path oracle for
//!   Table 1 classes, the valley-free route engine for `B1`–`B4` (with
//!   `B4`'s `(word, length)` lexicographic weight).
//!
//! Every phase of every arm also checks the maintenance itself: each
//! class's live scheme — kept current by an incremental factory for the
//! Table 1 classes — must equal a fresh build of its factory, or the
//! phase records a `scheme-drift` violation.
//!
//! Coverage entries are `multi:{class}:{family}`, so a sweep across
//! seeds *proves* the classes × generator-families matrix from the
//! report itself instead of asserting counts.
//!
//! [`check_multi_scale`] is the polynomial arm for CI-sized graphs: the
//! exhaustive oracle is exponential, so at `n = 192` every class is
//! checked hop-for-hop against its fresh scheme only (which is itself
//! oracle-certified by the small-instance arm) across the same three
//! phases.
//!
//! [`check_multi_dynamic`] is the dynamic-tenancy arm: the
//! [`dynamic_classes`] registry — one admitted algebra *expression* per
//! compile path the admissibility gates can choose — is registered at
//! runtime through [`MultiPlane::register_class_expr`] (the same path
//! the wire's `Register` opcode takes) and each class is differentially
//! certified against its own exhaustive oracle across the same three
//! phases, with coverage entries
//! `multi-dynamic:{class}:{family}:{phase}`. A deregistration epilogue
//! checks the tombstone discipline: survivors serve bit-for-bit, the
//! freed wire id is reused, seed classes refuse to retire, and an
//! inadmissible expression never moves the registry or the epoch.

use std::fmt;

use cpr_algebra::{check_stretch, Gate, Property, RoutingAlgebra, SchemeChoice, StretchVerdict};
use cpr_bgp::{
    prefer_customer_shortest, routes_to, AsGraph, BgpAlgebra, BgpRoutes, BgpStateTable,
    PreferCustomer, ProviderCustomer, Relationship, ValleyFree, Word,
};
use cpr_graph::{EdgeWeights, Graph, NodeId};
use cpr_paths::exhaustive_preferred_all;
use cpr_plane::{
    build_tenant_class, dyn_edge_weights, MultiBuilder, MultiPlane, MultiSnapshot, RepairPolicy,
    TenantError,
};
use cpr_routing::{route, DestTable, RouteError, SwClassTable};
use rand::SeedableRng;

use crate::algebras::{empirical_properties, AlgebraId, ConformAlgebra, ALL_ALGEBRAS};
use crate::churn::synth_atom;
use crate::engine::{Report, Violation, COWEN_STRETCH, TABLE_STRETCH};
use crate::generate::Instance;

/// Family tag of the eight Table 1 classes.
pub const TABLE1_FAMILY: &str = "table1";
/// Family tag of the four BGP classes.
pub const BGP_FAMILY: &str = "bgp";

/// Registry names of the BGP classes, in wire class order after the
/// Table 1 block.
pub const BGP_CLASSES: [&str; 4] = ["bgp-b1", "bgp-b2", "bgp-b3", "bgp-b4"];

/// One entry of the standard multi-class registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiClassSpec {
    /// Registry (and wire) name of the class.
    pub name: &'static str,
    /// [`TABLE1_FAMILY`] or [`BGP_FAMILY`].
    pub family: &'static str,
}

/// The standard registry, in wire traffic-class order: classes `0..8`
/// are the Table 1 algebras in [`ALL_ALGEBRAS`] order, classes `8..12`
/// are [`BGP_CLASSES`].
pub fn standard_classes() -> Vec<MultiClassSpec> {
    let mut specs: Vec<MultiClassSpec> = ALL_ALGEBRAS
        .into_iter()
        .map(|id| MultiClassSpec {
            name: id.name(),
            family: TABLE1_FAMILY,
        })
        .collect();
    specs.extend(BGP_CLASSES.into_iter().map(|name| MultiClassSpec {
        name,
        family: BGP_FAMILY,
    }));
    specs
}

/// Edge weights for `alg` derived purely from the topology: each edge's
/// atom is the pair-keyed endpoint hash, so any churned graph — not
/// just a stored instance — weighs deterministically, and a scheme
/// factory and its oracle can never disagree.
pub fn topology_weights<A>(alg: &A, graph: &Graph) -> EdgeWeights<A::W>
where
    A: ConformAlgebra,
    A::W: Send + Sync,
{
    EdgeWeights::from_fn(graph, |e| {
        let (u, v) = graph.endpoints(e);
        alg.weight_from_atom(synth_atom(u, v))
    })
}

/// Derives the AS relationship of one edge from its endpoint hash:
/// roughly a quarter of the links peer, the rest make the
/// higher-numbered endpoint the provider — which keeps the
/// provider–customer digraph acyclic on any topology.
fn relationship_of(u: NodeId, v: NodeId) -> Relationship {
    if synth_atom(u, v).0.is_multiple_of(4) {
        Relationship::Peer
    } else if u > v {
        Relationship::ProviderOf
    } else {
        Relationship::CustomerOf
    }
}

/// The AS-graph view of `graph` for the BGP classes: identical node
/// ids, identical edge insertion order (hence identical per-node port
/// numbering — required for the compiled plane to agree with schemes
/// built on the plain graph), relationships from [`relationship_of`].
pub fn as_graph_for(graph: &Graph) -> AsGraph {
    AsGraph::from_relationships(
        graph.node_count(),
        graph
            .edges()
            .map(|(_, (u, v))| (u, v, relationship_of(u, v))),
    )
    .expect("the source graph is simple, so the relationship list is too")
}

/// Registers the standard twelve classes; see [`standard_classes`] for
/// the order. Every factory derives weights/relationships from the
/// topology, so the registry compiles — and follows churn — on any
/// graph: the eight Table 1 classes through incremental factories that
/// maintain their tables, the four BGP classes by rebuilding.
pub fn standard_builder() -> MultiBuilder {
    let mut builder = MultiBuilder::new();
    for id in ALL_ALGEBRAS {
        builder = if id == AlgebraId::ShortestWidest {
            // Not regular: destination tables are inadmissible
            // (Proposition 2), so SW serves through its own
            // bottleneck-class tables.
            let alg = crate::algebras::shortest_widest();
            builder.class(
                id.name(),
                SwClassTable::factory(move |u, v| alg.weight_from_atom(synth_atom(u, v))),
            )
        } else {
            crate::with_algebra!(id, alg => builder.class(
                id.name(),
                DestTable::factory(alg, move |u, v| alg.weight_from_atom(synth_atom(u, v))),
            ))
        };
    }
    builder = builder.class(BGP_CLASSES[0], |g: &Graph| {
        BgpStateTable::build(&as_graph_for(g), &ProviderCustomer)
    });
    builder = builder.class(BGP_CLASSES[1], |g: &Graph| {
        BgpStateTable::build(&as_graph_for(g), &ValleyFree)
    });
    builder = builder.class(BGP_CLASSES[2], |g: &Graph| {
        BgpStateTable::build(&as_graph_for(g), &PreferCustomer)
    });
    // B4 selects like B3 with a shortest-AS-path tie-break — exactly the
    // selection the route engine applies (`routes_to` is exact for B4);
    // its oracle check certifies the (word, length) lexicographic weight.
    builder = builder.class(BGP_CLASSES[3], |g: &Graph| {
        BgpStateTable::build(&as_graph_for(g), &PreferCustomer)
    });
    builder
}

/// Per-pair oracle check: given `(s, t)` and the delivered path (or
/// `None` for unroutable), returns `Some((kind, detail))` on violation.
type OracleCheck<'a> =
    dyn FnMut(NodeId, NodeId, Option<&[NodeId]>) -> Option<(String, String)> + 'a;

fn violation(tag: &str, class: &str, phase: &str, kind: &str, detail: String) -> Violation {
    Violation {
        instance: tag.to_owned(),
        algebra: class.to_owned(),
        scheme: format!("multi-plane+{phase}"),
        kind: kind.to_owned(),
        detail,
    }
}

/// The shared per-pair sweep: serve every ordered pair from the master
/// plane *and* the snapshot, demand routability agreement with the
/// freshly built class scheme and hop-for-hop agreement between master
/// and snapshot, verify every delivered hop is a live edge, then hand
/// the delivered path (or `None`) to the class's oracle check.
///
/// `hop_exact` additionally demands hop-for-hop equality with the fresh
/// scheme. That is the contract when the plane's state *is* a fresh
/// compile (just built, or repaired through the all-dirty rebuild
/// escape) — but **not** after a partial patch: a pair outside the
/// shared dirty closure legitimately keeps its old route, which can be
/// an equally-preferred sibling of the fresh compile's tie-break. In
/// that phase optimality is certified by the oracle check instead.
#[allow(clippy::too_many_arguments)]
fn differential_sweep(
    report: &mut Report,
    tag: &str,
    class_name: &str,
    phase: &str,
    multi: &MultiPlane,
    snap: &MultiSnapshot,
    class: usize,
    cap: usize,
    hop_exact: bool,
    fresh: &dyn Fn(NodeId, NodeId) -> Result<Vec<NodeId>, RouteError>,
    oracle_check: &mut OracleCheck<'_>,
) {
    let n = multi.graph().node_count();
    let before = report.violations.len();
    let mut overflow = 0usize;
    let mut push = |report: &mut Report, v: Violation| {
        if report.violations.len() - before < cap {
            report.violations.push(v);
        } else {
            overflow += 1;
        }
    };
    let mut arena: Vec<u32> = Vec::new();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            report.pairs_checked += 1;
            let served = multi.lookup(class, s, t);
            let snapped = snap.lookup(class, s, t);
            let fresh_path = fresh(s, t);
            match (&served, &fresh_path) {
                (Ok((sp, _)), Ok(fp)) => {
                    if hop_exact && sp != fp {
                        push(
                            report,
                            violation(
                                tag,
                                class_name,
                                phase,
                                "multi-divergence",
                                format!("{s}→{t}: served {sp:?} vs fresh scheme {fp:?}"),
                            ),
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (sv, fr) => push(
                    report,
                    violation(
                        tag,
                        class_name,
                        phase,
                        "multi-divergence",
                        format!("{s}→{t}: served {sv:?} vs fresh scheme {fr:?}"),
                    ),
                ),
            }
            // Zero stale edges: every hop of a delivered path must exist
            // in the *current* topology, patched or not.
            if let Ok((sp, _)) = &served {
                if let Some(hop) = sp
                    .windows(2)
                    .find(|h| multi.graph().edge_between(h[0], h[1]).is_none())
                {
                    push(
                        report,
                        violation(
                            tag,
                            class_name,
                            phase,
                            "multi-stale-edge",
                            format!("{s}→{t}: served {sp:?} crosses vanished edge {hop:?}"),
                        ),
                    );
                    continue;
                }
            }
            match (&served, &snapped) {
                (Ok((sp, _)), Ok((zp, _))) if sp == zp => {}
                (Err(_), Err(_)) => {}
                (sv, zp) => push(
                    report,
                    violation(
                        tag,
                        class_name,
                        phase,
                        "snapshot-divergence",
                        format!("{s}→{t}: master {sv:?} vs snapshot {zp:?}"),
                    ),
                ),
            }
            // The request path's appending entry is the same lookup.
            arena.clear();
            let walked = snap.serving(class).map(|c| c.walk_into(s, t, &mut arena));
            let same = match (&walked, &snapped) {
                (Ok(Ok(hops)), Ok((zp, _))) => {
                    *hops as usize + 1 == zp.len()
                        && arena.iter().map(|&v| v as NodeId).eq(zp.iter().copied())
                }
                (Ok(Err(we)), Err(ze)) => we == ze && arena.is_empty(),
                _ => false,
            };
            if !same {
                push(
                    report,
                    violation(
                        tag,
                        class_name,
                        phase,
                        "serving-entry-divergence",
                        format!("{s}→{t}: walk_into {walked:?} / {arena:?} vs lookup {snapped:?}"),
                    ),
                );
            }
            let delivered = served.as_ref().ok().map(|(p, _)| p.as_slice());
            if let Some((kind, detail)) = oracle_check(s, t, delivered) {
                push(report, violation(tag, class_name, phase, &kind, detail));
            }
        }
    }
    if overflow > 0 {
        report.violations.push(violation(
            tag,
            class_name,
            phase,
            "violations-capped",
            format!("{overflow} further violations suppressed"),
        ));
    }
    report.schemes_run += 1;
}

/// Oracle + hop-for-hop check of one Table 1 class in one phase.
#[allow(clippy::too_many_arguments)]
fn check_table1_class<A, S>(
    report: &mut Report,
    tag: &str,
    phase: &str,
    multi: &MultiPlane,
    snap: &MultiSnapshot,
    class: usize,
    id: AlgebraId,
    alg: &A,
    scheme: &S,
    cap: usize,
    hop_exact: bool,
) where
    A: ConformAlgebra,
    A::W: Send + Sync + Clone + fmt::Debug + PartialEq,
    S: cpr_routing::RoutingScheme + Sync,
    S::Header: Send,
{
    let graph = multi.graph();
    let weights = topology_weights(alg, graph);
    let prune = empirical_properties(id).contains(Property::Monotone);
    let oracle = exhaustive_preferred_all(graph, &weights, alg, prune);
    let fresh = |s: NodeId, t: NodeId| route(scheme, graph, s, t);
    let mut oracle_check = |s: NodeId, t: NodeId, delivered: Option<&[NodeId]>| {
        let preferred = oracle[s].weight(t);
        match delivered {
            None => (!preferred.is_infinite()).then(|| {
                (
                    "multi-unroutable".to_owned(),
                    format!("{s}→{t}: refused but the oracle routes at {preferred:?}"),
                )
            }),
            Some(path) => {
                if preferred.is_infinite() {
                    return Some((
                        "multi-phantom-route".to_owned(),
                        format!("{s}→{t}: delivered {path:?} but no traversable path exists"),
                    ));
                }
                if path.first() != Some(&s) || path.last() != Some(&t) {
                    return Some((
                        "multi-misdelivery".to_owned(),
                        format!("{s}→{t}: delivered along {path:?}"),
                    ));
                }
                let actual = weights.path_weight(alg, graph, path);
                (check_stretch(alg, &actual, preferred, TABLE_STRETCH) == StretchVerdict::Exceeded)
                    .then(|| {
                        (
                            "multi-stretch-exceeded".to_owned(),
                            format!(
                                "{s}→{t}: path {path:?} weighs {actual:?}, exceeding the \
                                 stretch-{TABLE_STRETCH} bound over preferred {preferred:?}"
                            ),
                        )
                    })
            }
        }
    };
    differential_sweep(
        report,
        tag,
        id.name(),
        phase,
        multi,
        snap,
        class,
        cap,
        hop_exact,
        &fresh,
        &mut oracle_check,
    );
}

/// Oracle + hop-for-hop check of one BGP class in one phase. `b4`
/// switches the certified weight to the `(word, AS-path length)`
/// lexicographic carrier.
#[allow(clippy::too_many_arguments)]
fn check_bgp_class<A>(
    report: &mut Report,
    tag: &str,
    phase: &str,
    multi: &MultiPlane,
    snap: &MultiSnapshot,
    class: usize,
    name: &str,
    alg: &A,
    b4: bool,
    cap: usize,
    hop_exact: bool,
) where
    A: BgpAlgebra + Sync,
{
    let graph = multi.graph();
    let asg = as_graph_for(graph);
    let scheme = BgpStateTable::build(&asg, alg);
    let n = graph.node_count();
    let per_target: Vec<BgpRoutes> = (0..n).map(|t| routes_to(&asg, alg, t)).collect();
    let b4_alg = prefer_customer_shortest();
    let fresh = |s: NodeId, t: NodeId| route(&scheme, graph, s, t);
    let mut oracle_check = |s: NodeId, t: NodeId, delivered: Option<&[NodeId]>| {
        let routes = &per_target[t];
        match delivered {
            None => routes.weight(s).is_finite().then(|| {
                (
                    "multi-unroutable".to_owned(),
                    format!(
                        "{s}→{t}: refused but the route engine selects {:?}",
                        routes.weight(s)
                    ),
                )
            }),
            Some(path) => {
                if path.first() != Some(&s) || path.last() != Some(&t) {
                    return Some((
                        "multi-misdelivery".to_owned(),
                        format!("{s}→{t}: delivered along {path:?}"),
                    ));
                }
                let mut words: Vec<Word> = Vec::with_capacity(path.len() - 1);
                for hop in path.windows(2) {
                    match asg.word(hop[0], hop[1]) {
                        Some(w) => words.push(w),
                        None => {
                            return Some((
                                "multi-misdelivery".to_owned(),
                                format!("{s}→{t}: {path:?} crosses a non-edge"),
                            ))
                        }
                    }
                }
                if b4 {
                    let pairs: Vec<(Word, u64)> = words.into_iter().map(|w| (w, 1)).collect();
                    let actual = b4_alg.weigh_path_right(&pairs);
                    let expected = routes.weight_with_length(s);
                    (actual != expected).then(|| {
                        (
                            "multi-weight-divergence".to_owned(),
                            format!(
                                "{s}→{t}: path weighs {actual:?}, engine selected {expected:?}"
                            ),
                        )
                    })
                } else {
                    let actual = alg.weigh_path_right(&words);
                    let expected = routes.weight(s);
                    (actual != expected).then(|| {
                        (
                            "multi-weight-divergence".to_owned(),
                            format!(
                                "{s}→{t}: path weighs {actual:?}, engine selected {expected:?}"
                            ),
                        )
                    })
                }
            }
        }
    };
    differential_sweep(
        report,
        tag,
        name,
        phase,
        multi,
        snap,
        class,
        cap,
        hop_exact,
        &fresh,
        &mut oracle_check,
    );
}

/// The maintenance arm: after every event, each live class's scheme —
/// maintained in place by an incremental factory, or rebuilt — must
/// equal a fresh build of its factory on the current topology. A
/// mismatch is a `scheme-drift` violation.
fn check_scheme_drift(report: &mut Report, tag: &str, phase: &str, multi: &MultiPlane) {
    for class in multi.classes() {
        if !class.scheme_is_fresh(multi.graph()) {
            report.violations.push(violation(
                tag,
                class.class_name(),
                phase,
                "scheme-drift",
                "the maintained scheme differs from a fresh build of its factory".to_owned(),
            ));
        }
    }
}

/// One phase of [`check_multi_instance`]: every class against its own
/// oracle, plus coverage entries `multi:{class}:{family}`.
fn check_all_classes(
    report: &mut Report,
    tag: &str,
    instance_family: &str,
    phase: &str,
    multi: &MultiPlane,
    cap: usize,
    hop_exact: bool,
) {
    check_scheme_drift(report, tag, phase, multi);
    let snap = multi.snapshot();
    for (class, spec) in standard_classes().into_iter().enumerate() {
        if spec.family == TABLE1_FAMILY {
            let id = AlgebraId::from_name(spec.name).expect("registry names are algebra names");
            if id == AlgebraId::ShortestWidest {
                let alg = crate::algebras::shortest_widest();
                let scheme =
                    SwClassTable::build(multi.graph(), &topology_weights(&alg, multi.graph()));
                check_table1_class(
                    report, tag, phase, multi, &snap, class, id, &alg, &scheme, cap, hop_exact,
                );
            } else {
                crate::with_algebra!(id, alg => {
                    let scheme = DestTable::build(
                        multi.graph(),
                        &topology_weights(&alg, multi.graph()),
                        &alg,
                    );
                    check_table1_class(
                        report, tag, phase, multi, &snap, class, id, &alg, &scheme, cap,
                        hop_exact,
                    );
                });
            }
        } else {
            match spec.name {
                "bgp-b1" => check_bgp_class(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &ProviderCustomer,
                    false,
                    cap,
                    hop_exact,
                ),
                "bgp-b2" => check_bgp_class(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &ValleyFree,
                    false,
                    cap,
                    hop_exact,
                ),
                "bgp-b3" => check_bgp_class(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &PreferCustomer,
                    false,
                    cap,
                    hop_exact,
                ),
                _ => check_bgp_class(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &PreferCustomer,
                    true,
                    cap,
                    hop_exact,
                ),
            }
        }
        report
            .coverage
            .insert(format!("multi:{}:{}", spec.name, instance_family));
    }
}

/// Violations recorded per (class, phase) before capping; a systematic
/// bug would otherwise emit one string per ordered pair.
const MULTI_VIOLATION_CAP: usize = 50;

/// The multi-algebra conformance arm over one generated instance; see
/// the module docs for the three phases and the per-class checks.
pub fn check_multi_instance(inst: &Instance) -> Report {
    let mut report = Report::default();
    let graph = inst.graph();
    let tag = inst.tag();
    let mut multi = match MultiPlane::build(&graph, standard_builder()) {
        Ok(m) => m,
        Err(e) => {
            report.violations.push(violation(
                &tag,
                "*",
                "fresh",
                "multi-compile",
                e.to_string(),
            ));
            return report;
        }
    };
    check_all_classes(
        &mut report,
        &tag,
        &inst.family,
        "fresh",
        &multi,
        MULTI_VIOLATION_CAP,
        true,
    );

    let Some(_) = inst.heal_edge else {
        report
            .skips
            .push(format!("multi/repair: no removable edge ({tag})"));
        return report;
    };
    let policy = RepairPolicy {
        // Never force a rebuild: the point is the shared-dirty-set patch
        // path; a genuinely all-dirty delta still rebuilds through the
        // dirty == all escape.
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    let obs = cpr_obs::Obs::with_null_tracer();
    // Phase 2: remove the heal edge — the structural endpoint dirty set.
    let degraded = inst.degraded_graph();
    match multi.reconcile(&degraded, &policy, &obs) {
        Ok(r) => {
            if r.strategy != "pairs" {
                report.violations.push(violation(
                    &tag,
                    "*",
                    "repaired",
                    "multi-strategy",
                    format!("removal-only delta used strategy {:?}", r.strategy),
                ));
            }
        }
        Err(e) => {
            report.violations.push(violation(
                &tag,
                "*",
                "repaired",
                "multi-repair",
                e.to_string(),
            ));
            return report;
        }
    }
    for c in multi.classes() {
        if c.dirty_pairs() != 0 {
            report.violations.push(violation(
                &tag,
                c.class_name(),
                "repaired",
                "multi-stale",
                format!("{} pairs still dirty after reconcile", c.dirty_pairs()),
            ));
        }
    }
    // After a *partial* patch, hop-for-hop equality with a fresh compile
    // is not the contract: pairs outside the shared dirty closure keep
    // their old (still valid, still optimal) routes, which may be
    // equally-preferred tie-break siblings of the fresh compile's
    // choice. Optimality is certified by the per-class oracles instead.
    check_all_classes(
        &mut report,
        &tag,
        &inst.family,
        "repaired",
        &multi,
        MULTI_VIOLATION_CAP,
        false,
    );

    // Phase 3: restore the edge — an addition, the DirtyPairs::All path.
    match multi.reconcile(&graph, &policy, &obs) {
        Ok(r) => {
            if r.strategy != "all" {
                report.violations.push(violation(
                    &tag,
                    "*",
                    "restored",
                    "multi-strategy",
                    format!("addition delta used strategy {:?}", r.strategy),
                ));
            }
        }
        Err(e) => {
            report.violations.push(violation(
                &tag,
                "*",
                "restored",
                "multi-repair",
                e.to_string(),
            ));
            return report;
        }
    }
    // An addition dirties everything (`DirtyPairs::All`), so the repair
    // took the dirty == all rebuild escape: the restored state *is* a
    // fresh compile and the hop-exact contract applies again.
    check_all_classes(
        &mut report,
        &tag,
        &inst.family,
        "restored",
        &multi,
        MULTI_VIOLATION_CAP,
        true,
    );
    report
}

/// Scale-arm check of one Table 1 class: hop-for-hop against the fresh
/// scheme where the phase permits it, and — since the exhaustive oracle
/// is out of reach at these sizes — a delivered path is certified by
/// *weighing* it against the fresh scheme's route for the same pair.
/// The fresh scheme is weight-exact (stretch 1, pinned by the
/// small-instance arm), so weight equality means the patched route is
/// an equally preferred selection.
#[allow(clippy::too_many_arguments)]
fn scale_check_table1<A, S>(
    report: &mut Report,
    tag: &str,
    phase: &str,
    multi: &MultiPlane,
    snap: &MultiSnapshot,
    class: usize,
    id: AlgebraId,
    alg: &A,
    scheme: &S,
    hop_exact: bool,
) where
    A: ConformAlgebra,
    A::W: Send + Sync + Clone + fmt::Debug + PartialEq,
    S: cpr_routing::RoutingScheme + Sync,
    S::Header: Send,
{
    let graph = multi.graph();
    let weights = topology_weights(alg, graph);
    let fresh = |s: NodeId, t: NodeId| route(scheme, graph, s, t);
    let mut weight_check = |s: NodeId, t: NodeId, delivered: Option<&[NodeId]>| {
        let path = delivered?;
        if path.first() != Some(&s) || path.last() != Some(&t) {
            return Some((
                "multi-misdelivery".to_owned(),
                format!("{s}→{t}: delivered along {path:?}"),
            ));
        }
        let fresh_path = route(scheme, graph, s, t).ok()?;
        let actual = weights.path_weight(alg, graph, path);
        let preferred = weights.path_weight(alg, graph, &fresh_path);
        (actual != preferred).then(|| {
            (
                "multi-weight-divergence".to_owned(),
                format!(
                    "{s}→{t}: served path weighs {actual:?}, the fresh scheme's \
                     route weighs {preferred:?}"
                ),
            )
        })
    };
    differential_sweep(
        report,
        tag,
        id.name(),
        phase,
        multi,
        snap,
        class,
        MULTI_VIOLATION_CAP,
        hop_exact,
        &fresh,
        &mut weight_check,
    );
}

/// Scale-arm check of one BGP class; the delivered path's word sequence
/// is weighed against the fresh scheme's route (with `B4`'s
/// `(word, length)` lexicographic carrier when `b4` is set).
#[allow(clippy::too_many_arguments)]
fn scale_check_bgp<A>(
    report: &mut Report,
    tag: &str,
    phase: &str,
    multi: &MultiPlane,
    snap: &MultiSnapshot,
    class: usize,
    name: &str,
    alg: &A,
    b4: bool,
    hop_exact: bool,
) where
    A: BgpAlgebra + Sync,
{
    let graph = multi.graph();
    let asg = as_graph_for(graph);
    let scheme = BgpStateTable::build(&asg, alg);
    let b4_alg = prefer_customer_shortest();
    let fresh = |s: NodeId, t: NodeId| route(&scheme, graph, s, t);
    let words_of = |path: &[NodeId]| -> Option<Vec<Word>> {
        path.windows(2).map(|h| asg.word(h[0], h[1])).collect()
    };
    let mut weight_check = |s: NodeId, t: NodeId, delivered: Option<&[NodeId]>| {
        let path = delivered?;
        if path.first() != Some(&s) || path.last() != Some(&t) {
            return Some((
                "multi-misdelivery".to_owned(),
                format!("{s}→{t}: delivered along {path:?}"),
            ));
        }
        let Some(words) = words_of(path) else {
            return Some((
                "multi-misdelivery".to_owned(),
                format!("{s}→{t}: {path:?} crosses a non-edge"),
            ));
        };
        let fresh_path = route(&scheme, graph, s, t).ok()?;
        let fresh_words = words_of(&fresh_path).expect("the fresh scheme routes over live edges");
        let divergence = if b4 {
            let weigh = |ws: Vec<Word>| {
                let pairs: Vec<(Word, u64)> = ws.into_iter().map(|w| (w, 1)).collect();
                b4_alg.weigh_path_right(&pairs)
            };
            let actual = weigh(words);
            let preferred = weigh(fresh_words);
            (actual != preferred).then(|| format!("{actual:?} vs fresh {preferred:?}"))
        } else {
            let actual = alg.weigh_path_right(&words);
            let preferred = alg.weigh_path_right(&fresh_words);
            (actual != preferred).then(|| format!("{actual:?} vs fresh {preferred:?}"))
        };
        divergence.map(|d| {
            (
                "multi-weight-divergence".to_owned(),
                format!("{s}→{t}: served path weighs {d}"),
            )
        })
    };
    differential_sweep(
        report,
        tag,
        name,
        phase,
        multi,
        snap,
        class,
        MULTI_VIOLATION_CAP,
        hop_exact,
        &fresh,
        &mut weight_check,
    );
}

fn scale_sweep(report: &mut Report, tag: &str, phase: &str, multi: &MultiPlane) {
    check_scheme_drift(report, tag, phase, multi);
    let snap = multi.snapshot();
    // Hop-exact only when the plane's state is provably a fresh compile;
    // after the partial `repaired` patch the weight comparison carries
    // the optimality claim (see [`differential_sweep`]).
    let hop_exact = phase != "repaired";
    for (class, spec) in standard_classes().into_iter().enumerate() {
        if spec.family == TABLE1_FAMILY {
            let id = AlgebraId::from_name(spec.name).expect("registry names are algebra names");
            if id == AlgebraId::ShortestWidest {
                let alg = crate::algebras::shortest_widest();
                let scheme =
                    SwClassTable::build(multi.graph(), &topology_weights(&alg, multi.graph()));
                scale_check_table1(
                    report, tag, phase, multi, &snap, class, id, &alg, &scheme, hop_exact,
                );
            } else {
                crate::with_algebra!(id, alg => {
                    let scheme = DestTable::build(
                        multi.graph(),
                        &topology_weights(&alg, multi.graph()),
                        &alg,
                    );
                    scale_check_table1(
                        report, tag, phase, multi, &snap, class, id, &alg, &scheme, hop_exact,
                    );
                });
            }
        } else {
            match spec.name {
                "bgp-b1" => scale_check_bgp(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &ProviderCustomer,
                    false,
                    hop_exact,
                ),
                "bgp-b2" => scale_check_bgp(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &ValleyFree,
                    false,
                    hop_exact,
                ),
                "bgp-b3" => scale_check_bgp(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &PreferCustomer,
                    false,
                    hop_exact,
                ),
                _ => scale_check_bgp(
                    report,
                    tag,
                    phase,
                    multi,
                    &snap,
                    class,
                    spec.name,
                    &PreferCustomer,
                    true,
                    hop_exact,
                ),
            }
        }
        report
            .coverage
            .insert(format!("multi-scale:{}:{}", spec.name, phase));
    }
}

// ---------------------------------------------------------------------------
// Dynamic tenancy arm
// ---------------------------------------------------------------------------

/// Family tag of the runtime-registered tenant classes.
pub const DYNAMIC_FAMILY: &str = "dynamic";

/// One runtime-registered tenant class of the dynamic conformance arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynamicClassSpec {
    /// Registry (and wire) name of the class.
    pub name: &'static str,
    /// The algebra expression registered over the wire.
    pub expr: &'static str,
    /// The scheme the admissibility gates must choose.
    pub scheme: SchemeChoice,
}

/// The dynamic tenant registry: one admitted expression per compile
/// path the gates can choose — exact destination tables (plain and
/// lexicographic), the Theorem 1 bottleneck-class tables, and the
/// Theorem 3 Cowen landmark scheme — so a sweep certifies every way a
/// wire registration can reach the substrate.
pub fn dynamic_classes() -> Vec<DynamicClassSpec> {
    vec![
        DynamicClassSpec {
            name: "tenant-scaled-shortest",
            expr: "scale(shortest-path, 3)",
            scheme: SchemeChoice::DestTable,
        },
        DynamicClassSpec {
            name: "tenant-reliable-shortest",
            expr: "lex(most-reliable-path, shortest-path)",
            scheme: SchemeChoice::DestTable,
        },
        DynamicClassSpec {
            name: "tenant-sw-scaled",
            expr: "lex(widest-path, scale(shortest-path, 2))",
            scheme: SchemeChoice::SwClassTable,
        },
        DynamicClassSpec {
            name: "tenant-compact-shortest",
            expr: "compact(shortest-path)",
            scheme: SchemeChoice::Cowen,
        },
    ]
}

/// Oracle + hop-for-hop check of one runtime-registered tenant class in
/// one phase. The fresh comparator is a tenant class rebuilt from the
/// same expression on the current topology — the factory is
/// deterministic in (expression, graph), so hop-exact phases compare
/// like-for-like — and the oracle is the exhaustive sweep under the
/// expression's own lowered algebra over the same pair-keyed weights
/// the tenant factory derives. The stretch bound follows the gate's
/// scheme choice: exact for tables, 3 for Cowen (Theorem 3).
#[allow(clippy::too_many_arguments)]
fn check_dynamic_class(
    report: &mut Report,
    tag: &str,
    phase: &str,
    multi: &MultiPlane,
    snap: &MultiSnapshot,
    class: usize,
    spec: &DynamicClassSpec,
    cap: usize,
    hop_exact: bool,
) {
    let graph = multi.graph();
    let fresh_class = match build_tenant_class(spec.name, spec.expr, graph) {
        Ok(t) => t,
        Err(e) => {
            report.violations.push(violation(
                tag,
                spec.name,
                phase,
                "tenant-rebuild",
                e.to_string(),
            ));
            return;
        }
    };
    let alg = fresh_class.decision.algebra.clone();
    let weights = dyn_edge_weights(&alg, graph);
    let prune = fresh_class
        .decision
        .report
        .holding()
        .contains(Property::Monotone);
    let oracle = exhaustive_preferred_all(graph, &weights, &alg, prune);
    let stretch = match spec.scheme {
        SchemeChoice::Cowen => COWEN_STRETCH,
        _ => TABLE_STRETCH,
    };
    let plane = fresh_class.plane;
    let fresh = |s: NodeId, t: NodeId| plane.lookup(graph, s, t).map(|(p, _)| p);
    let mut oracle_check = |s: NodeId, t: NodeId, delivered: Option<&[NodeId]>| {
        let preferred = oracle[s].weight(t);
        match delivered {
            None => (!preferred.is_infinite()).then(|| {
                (
                    "multi-unroutable".to_owned(),
                    format!("{s}→{t}: refused but the oracle routes at {preferred:?}"),
                )
            }),
            Some(path) => {
                if preferred.is_infinite() {
                    return Some((
                        "multi-phantom-route".to_owned(),
                        format!("{s}→{t}: delivered {path:?} but no traversable path exists"),
                    ));
                }
                if path.first() != Some(&s) || path.last() != Some(&t) {
                    return Some((
                        "multi-misdelivery".to_owned(),
                        format!("{s}→{t}: delivered along {path:?}"),
                    ));
                }
                let actual = weights.path_weight(&alg, graph, path);
                (check_stretch(&alg, &actual, preferred, stretch) == StretchVerdict::Exceeded).then(
                    || {
                        (
                            "multi-stretch-exceeded".to_owned(),
                            format!(
                                "{s}→{t}: path {path:?} weighs {actual:?}, exceeding the \
                                 stretch-{stretch} bound over preferred {preferred:?}"
                            ),
                        )
                    },
                )
            }
        }
    };
    differential_sweep(
        report,
        tag,
        spec.name,
        phase,
        multi,
        snap,
        class,
        cap,
        hop_exact,
        &fresh,
        &mut oracle_check,
    );
}

/// One phase of [`check_multi_dynamic`]: every *registered* spec from
/// `specs` against its own oracle, plus coverage entries
/// `multi-dynamic:{class}:{family}:{phase}` — the dynamic-class ×
/// instance-family × phase matrix the report proves.
fn check_dynamic_registered(
    report: &mut Report,
    tag: &str,
    instance_family: &str,
    phase: &str,
    multi: &MultiPlane,
    specs: &[DynamicClassSpec],
    hop_exact: bool,
) {
    check_scheme_drift(report, tag, phase, multi);
    let snap = multi.snapshot();
    for spec in specs {
        let Some(class) = multi.class_index(spec.name) else {
            report.violations.push(violation(
                tag,
                spec.name,
                phase,
                "tenant-missing",
                "registered class vanished from the registry".to_owned(),
            ));
            continue;
        };
        check_dynamic_class(
            report,
            tag,
            phase,
            multi,
            &snap,
            class,
            spec,
            MULTI_VIOLATION_CAP,
            hop_exact,
        );
        report.coverage.insert(format!(
            "multi-dynamic:{}:{}:{}",
            spec.name, instance_family, phase
        ));
    }
}

/// The dynamic-tenancy conformance arm over one generated instance:
/// the standard registry is built, the dynamic registry is registered
/// *at runtime* through the same [`MultiPlane::register_class_expr`]
/// path the wire uses, and every dynamic class is differentially
/// certified against its own exhaustive oracle across the same three
/// phases as [`check_multi_instance`] — fresh, after shared-dirty-set
/// repair (the one delta repairing seed and tenant classes alike), and
/// after the restoring addition. A deregistration epilogue then checks
/// the tombstone discipline: retiring a class leaves the survivors
/// byte-identical, the freed wire id is reused by the next
/// registration, and seed classes refuse to deregister.
pub fn check_multi_dynamic(inst: &Instance) -> Report {
    let mut report = Report::default();
    let graph = inst.graph();
    let tag = inst.tag();
    let specs = dynamic_classes();
    let mut multi = match MultiPlane::build(&graph, standard_builder()) {
        Ok(m) => m,
        Err(e) => {
            report.violations.push(violation(
                &tag,
                "*",
                "fresh",
                "multi-compile",
                e.to_string(),
            ));
            return report;
        }
    };
    let seed_classes = multi.class_count();

    // Gate sanity on the live plane: an inadmissible expression must be
    // refused before anything compiles, leaving registry and epoch
    // untouched.
    let epoch_before = multi.epoch();
    match multi.register_class_expr("tenant-detour", "detour") {
        Err(TenantError::Inadmissible(r)) => {
            if r.gate != Gate::Prop2 {
                report.violations.push(violation(
                    &tag,
                    "tenant-detour",
                    "fresh",
                    "tenant-gate",
                    format!("detour rejected by {:?}, expected Prop2", r.gate),
                ));
            }
        }
        other => {
            report.violations.push(violation(
                &tag,
                "tenant-detour",
                "fresh",
                "tenant-gate",
                format!("inadmissible expression was not gate-rejected: {other:?}"),
            ));
        }
    }
    if multi.epoch() != epoch_before || multi.class_count() != seed_classes {
        report.violations.push(violation(
            &tag,
            "tenant-detour",
            "fresh",
            "tenant-gate",
            "a rejected registration moved the registry or the epoch".to_owned(),
        ));
    }

    // Register the dynamic registry through the wire path.
    for spec in &specs {
        match multi.register_class_expr(spec.name, spec.expr) {
            Ok(reg) => {
                if reg.scheme != spec.scheme {
                    report.violations.push(violation(
                        &tag,
                        spec.name,
                        "fresh",
                        "tenant-scheme",
                        format!("gate chose {:?}, expected {:?}", reg.scheme, spec.scheme),
                    ));
                }
            }
            Err(e) => {
                report.violations.push(violation(
                    &tag,
                    spec.name,
                    "fresh",
                    "tenant-register",
                    e.to_string(),
                ));
                return report;
            }
        }
    }
    check_dynamic_registered(
        &mut report,
        &tag,
        &inst.family,
        "fresh",
        &multi,
        &specs,
        true,
    );

    // Phases 2–3: the same churn drill as the standard arm — one shared
    // dirty set must repair dynamic classes identically to seed ones.
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    let obs = cpr_obs::Obs::with_null_tracer();
    if inst.heal_edge.is_some() {
        let degraded = inst.degraded_graph();
        for (phase, target, hop_exact) in
            [("repaired", &degraded, false), ("restored", &graph, true)]
        {
            if let Err(e) = multi.reconcile(target, &policy, &obs) {
                report
                    .violations
                    .push(violation(&tag, "*", phase, "multi-repair", e.to_string()));
                return report;
            }
            for c in multi.classes() {
                if c.dirty_pairs() != 0 {
                    report.violations.push(violation(
                        &tag,
                        c.class_name(),
                        phase,
                        "multi-stale",
                        format!("{} pairs still dirty after reconcile", c.dirty_pairs()),
                    ));
                }
            }
            check_dynamic_registered(
                &mut report,
                &tag,
                &inst.family,
                phase,
                &multi,
                &specs,
                hop_exact,
            );
        }
    } else {
        report
            .skips
            .push(format!("multi-dynamic/repair: no removable edge ({tag})"));
    }

    // Deregistration epilogue: tombstones, survivor integrity, slot
    // reuse, and the seed-class guard.
    let retired = &specs[0];
    let freed = match multi.deregister_class(retired.name) {
        Ok(c) => c,
        Err(e) => {
            report.violations.push(violation(
                &tag,
                retired.name,
                "deregistered",
                "tenant-deregister",
                e.to_string(),
            ));
            return report;
        }
    };
    if multi.class_index(retired.name).is_some() {
        report.violations.push(violation(
            &tag,
            retired.name,
            "deregistered",
            "tenant-deregister",
            "a retired class is still live in the registry".to_owned(),
        ));
    }
    match multi.deregister_class(retired.name) {
        Err(TenantError::UnknownClass(_)) => {}
        other => report.violations.push(violation(
            &tag,
            retired.name,
            "deregistered",
            "tenant-deregister",
            format!("double deregistration answered {other:?}, expected UnknownClass"),
        )),
    }
    match multi.deregister_class("shortest-path") {
        Err(TenantError::SeedClass(_)) => {}
        other => report.violations.push(violation(
            &tag,
            "shortest-path",
            "deregistered",
            "tenant-deregister",
            format!("seed deregistration answered {other:?}, expected SeedClass"),
        )),
    }
    // The survivors keep serving bit-for-bit.
    check_dynamic_registered(
        &mut report,
        &tag,
        &inst.family,
        "deregistered",
        &multi,
        &specs[1..],
        true,
    );
    // The freed wire id is reused by the next registration.
    let reuse = DynamicClassSpec {
        name: "tenant-hop-count",
        expr: "hop-count",
        scheme: SchemeChoice::DestTable,
    };
    match multi.register_class_expr(reuse.name, reuse.expr) {
        Ok(reg) if reg.class == freed => {
            check_dynamic_registered(
                &mut report,
                &tag,
                &inst.family,
                "reused",
                &multi,
                std::slice::from_ref(&reuse),
                true,
            );
        }
        Ok(reg) => report.violations.push(violation(
            &tag,
            reuse.name,
            "reused",
            "tenant-register",
            format!("slot {} not reused, class {} assigned", freed, reg.class),
        )),
        Err(e) => report.violations.push(violation(
            &tag,
            reuse.name,
            "reused",
            "tenant-register",
            e.to_string(),
        )),
    }
    report
}

/// The first edge whose removal keeps `graph` connected.
fn first_non_bridge(graph: &Graph) -> Option<(NodeId, NodeId)> {
    graph.edges().find_map(|(e, uv)| {
        let kept = graph.edges().filter(|&(i, _)| i != e).map(|(_, p)| p);
        let g = Graph::from_edges(graph.node_count(), kept).expect("sub-edge list is valid");
        cpr_graph::traversal::is_connected(&g).then_some(uv)
    })
}

/// Multi-plane conformance at CI scale (`n` in the hundreds): every
/// registry class hop-for-hop against its freshly built scheme — fresh,
/// after a shared-dirty-set removal repair, and after the restoring
/// addition. The exhaustive oracles stay with the small-instance arm;
/// this one proves the *serving* claims (per-class selection, snapshot
/// agreement, repair-all-classes-from-one-delta) at sizes the fuzzer
/// never reaches.
pub fn check_multi_scale(n: usize, seed: u64) -> Report {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let graph = cpr_graph::generators::barabasi_albert(n, 2, &mut rng);
    let tag = format!("multi-scale/{n}@{seed:#x}");
    let mut report = Report::default();
    let mut multi = match MultiPlane::build(&graph, standard_builder()) {
        Ok(m) => m,
        Err(e) => {
            report.violations.push(violation(
                &tag,
                "*",
                "fresh",
                "multi-compile",
                e.to_string(),
            ));
            return report;
        }
    };
    scale_sweep(&mut report, &tag, "fresh", &multi);

    let Some((u, v)) = first_non_bridge(&graph) else {
        report
            .skips
            .push(format!("multi-scale/repair: no removable edge ({tag})"));
        return report;
    };
    let degraded = Graph::from_edges(
        graph.node_count(),
        graph
            .edges()
            .map(|(_, uv)| uv)
            .filter(|&uv| uv != (u, v) && uv != (v, u)),
    )
    .expect("edge subset is well-formed");
    let policy = RepairPolicy {
        max_dirty_fraction: 1.0,
        ..RepairPolicy::default()
    };
    let obs = cpr_obs::Obs::with_null_tracer();
    for (phase, target) in [("repaired", &degraded), ("restored", &graph)] {
        if let Err(e) = multi.reconcile(target, &policy, &obs) {
            report
                .violations
                .push(violation(&tag, "*", phase, "multi-repair", e.to_string()));
            return report;
        }
        for c in multi.classes() {
            if c.dirty_pairs() != 0 {
                report.violations.push(violation(
                    &tag,
                    c.class_name(),
                    phase,
                    "multi-stale",
                    format!("{} pairs still dirty after reconcile", c.dirty_pairs()),
                ));
            }
        }
        scale_sweep(&mut report, &tag, phase, &multi);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn the_standard_registry_has_twelve_classes_in_stable_order() {
        let specs = standard_classes();
        assert_eq!(specs.len(), 12);
        assert_eq!(specs[0].name, "shortest-path");
        assert_eq!(specs[7].name, "bounded-shortest-path");
        assert_eq!(specs[8].name, "bgp-b1");
        assert_eq!(specs[11].name, "bgp-b4");
        assert_eq!(standard_builder().len(), specs.len());
        assert!(specs[..8].iter().all(|s| s.family == TABLE1_FAMILY));
        assert!(specs[8..].iter().all(|s| s.family == BGP_FAMILY));
    }

    #[test]
    fn as_graph_preserves_ports_and_is_deterministic() {
        let inst = generate(3);
        let g = inst.graph();
        let asg = as_graph_for(&g);
        assert_eq!(asg.node_count(), g.node_count());
        // Identical edge insertion order ⇒ identical port numbering.
        for v in g.nodes() {
            let a: Vec<_> = g.neighbors(v).collect();
            let b: Vec<_> = asg.graph().neighbors(v).collect();
            assert_eq!(a, b, "port-compatible adjacency at {v}");
        }
        // Relationship derivation is pure in the endpoints.
        let again = as_graph_for(&g);
        for (_, (u, v)) in g.edges() {
            assert_eq!(asg.word(u, v), again.word(u, v));
        }
    }

    #[test]
    fn a_small_multi_instance_sweep_is_clean() {
        for seed in [0u64, 1, 4] {
            let inst = generate(seed);
            let report = check_multi_instance(&inst);
            assert!(report.is_clean(), "{}", report.render());
            assert!(report.pairs_checked > 0);
            // Every class shows up in the coverage matrix.
            for spec in standard_classes() {
                assert!(
                    report
                        .coverage
                        .contains(&format!("multi:{}:{}", spec.name, inst.family)),
                    "missing coverage for {}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn a_dynamic_tenant_sweep_is_clean() {
        // Seed 4 (gnp) carries a heal edge, so all three churn phases
        // plus the deregistration epilogue run.
        let inst = generate(4);
        assert!(inst.heal_edge.is_some());
        let report = check_multi_dynamic(&inst);
        assert!(report.is_clean(), "{}", report.render());
        for spec in dynamic_classes() {
            for phase in ["fresh", "repaired", "restored"] {
                let entry = format!("multi-dynamic:{}:{}:{phase}", spec.name, inst.family);
                assert!(
                    report.coverage.contains(&entry),
                    "missing coverage for {entry}"
                );
            }
        }
        // The epilogue ran: survivors re-certified, freed slot reused.
        assert!(report.coverage.contains(&format!(
            "multi-dynamic:tenant-hop-count:{}:reused",
            inst.family
        )));
    }

    #[test]
    fn the_scale_arm_is_clean_at_a_small_n() {
        let report = check_multi_scale(48, 9);
        assert!(report.is_clean(), "{}", report.render());
        // All three phases ran for every class.
        for spec in standard_classes() {
            for phase in ["fresh", "repaired", "restored"] {
                assert!(report
                    .coverage
                    .contains(&format!("multi-scale:{}:{}", spec.name, phase)));
            }
        }
    }
}
