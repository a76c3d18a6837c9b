//! Pins the multi-plane's *shared substrate* claims:
//!
//! * total compiled bytes of the twelve-class [`MultiPlane`] are
//!   strictly below the sum of twelve independently compiled planes
//!   (the `HopMatrix`, adjacency and deduped header tables are paid for
//!   once, not per class) — ungated at `n = 96`, and at the issue's
//!   `n = 512` under `CPR_SLOW_TESTS=1`;
//! * every class's digest inside the multi-plane is byte-identical to a
//!   single-plane compile of the same scheme at 1, 2 and 8 workers —
//!   sharing the substrate must not perturb any class's compiled
//!   output, at any parallelism.

use cpr_conform::{
    as_graph_for, standard_builder, standard_classes, topology_weights, with_algebra, AlgebraId,
    TABLE1_FAMILY,
};
use cpr_graph::generators::barabasi_albert;
use cpr_graph::Graph;
use cpr_plane::{compile_with_threads, MultiPlane};
use cpr_routing::{DestTable, SwClassTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0x05EE_D512;
const THREADS: [usize; 3] = [1, 2, 8];

fn scale_free(n: usize) -> Graph {
    barabasi_albert(n, 2, &mut StdRng::seed_from_u64(SEED))
}

/// Digests of a standalone single-plane compile of `name`'s scheme on
/// `graph`, one per worker count in [`THREADS`].
fn standalone_digests(name: &str, graph: &Graph) -> Vec<u64> {
    if let Some(id) = AlgebraId::from_name(name) {
        if id == AlgebraId::ShortestWidest {
            let alg = cpr_algebra::policies::shortest_widest();
            let scheme = SwClassTable::build(graph, &topology_weights(&alg, graph));
            return THREADS
                .iter()
                .map(|&t| compile_with_threads(&scheme, graph, t).unwrap().digest())
                .collect();
        }
        return with_algebra!(id, alg => {
            let scheme = DestTable::build(graph, &topology_weights(&alg, graph), &alg);
            THREADS
                .iter()
                .map(|&t| compile_with_threads(&scheme, graph, t).unwrap().digest())
                .collect()
        });
    }
    let asg = as_graph_for(graph);
    let scheme = match name {
        "bgp-b1" => cpr_bgp::BgpStateTable::build(&asg, &cpr_bgp::ProviderCustomer),
        "bgp-b2" => cpr_bgp::BgpStateTable::build(&asg, &cpr_bgp::ValleyFree),
        _ => cpr_bgp::BgpStateTable::build(&asg, &cpr_bgp::PreferCustomer),
    };
    THREADS
        .iter()
        .map(|&t| compile_with_threads(&scheme, graph, t).unwrap().digest())
        .collect()
}

fn assert_substrate_shared(n: usize) {
    let graph = scale_free(n);
    let multi = MultiPlane::build(&graph, standard_builder()).unwrap();
    let mem = multi.memory();
    assert_eq!(mem.classes, standard_classes().len());
    assert_eq!(mem.nodes, n);
    assert!(
        mem.multi_total_bits < mem.independent_total_bits,
        "n = {n}: multi plane must be strictly smaller than {} independent \
         planes ({} vs {} bits)",
        mem.classes,
        mem.multi_total_bits,
        mem.independent_total_bits
    );
    // The adjacency tables are a pure function of the graph, so content
    // dedup must collapse them across classes.
    assert!(
        mem.distinct_adjacency_tables < mem.classes,
        "no adjacency sharing: {} distinct tables for {} classes",
        mem.distinct_adjacency_tables,
        mem.classes
    );
    // The total is exactly what serving reads: every class's transition
    // arrays plus each distinct initial / adjacency table, once.
    let mut expected = 0u64;
    for (class, acct) in multi.classes().zip(&mem.per_class) {
        expected += acct.transition_bits;
        if !acct.initial_shared {
            expected += acct.initial_bits;
        }
        if !acct.adjacency_shared {
            expected += class.base().memory().adjacency_bits;
        }
    }
    assert_eq!(mem.multi_total_bits, expected);
    let owned = |shared: fn(&cpr_plane::ClassMemory) -> bool| {
        mem.per_class.iter().filter(|c| !shared(c)).count()
    };
    assert_eq!(owned(|c| c.initial_shared), mem.distinct_initial_tables);
    assert_eq!(owned(|c| c.adjacency_shared), mem.distinct_adjacency_tables);
    assert!(mem.savings_fraction() > 0.0);
    eprintln!(
        "n = {n}: {:.1} B/node multi vs {:.1} B/node independent ({:.1}% saved)",
        mem.multi_bytes_per_node(),
        mem.independent_bytes_per_node(),
        100.0 * mem.savings_fraction()
    );
}

#[test]
fn multi_plane_is_smaller_than_independent_planes() {
    assert_substrate_shared(96);
}

/// The issue's headline size; release-mode territory, so gated.
#[test]
fn multi_plane_is_smaller_than_independent_planes_at_512() {
    if std::env::var("CPR_SLOW_TESTS").ok().as_deref() != Some("1") {
        eprintln!("skipped: set CPR_SLOW_TESTS=1 to run the n=512 substrate check");
        return;
    }
    assert_substrate_shared(512);
}

#[test]
fn class_digests_match_single_plane_compiles_across_thread_counts() {
    let graph = scale_free(96);
    let multi = MultiPlane::build(&graph, standard_builder()).unwrap();
    let specs = standard_classes();
    for (class, spec) in multi.classes().zip(&specs) {
        assert_eq!(class.class_name(), spec.name);
        let inside = class.digest();
        for (digest, threads) in standalone_digests(spec.name, &graph)
            .into_iter()
            .zip(THREADS)
        {
            assert_eq!(
                inside, digest,
                "{}: multi-plane digest diverges from a single-plane compile \
                 at {threads} workers",
                spec.name
            );
        }
    }
    // B3 and B4 serve through the same state table by design (the route
    // engine's hop tie-break *is* B4's shortest-AS-path refinement), so
    // their compiled digests must agree too.
    let digests: Vec<u64> = multi.classes().map(|c| c.digest()).collect();
    let b3 = specs.iter().position(|s| s.name == "bgp-b3").unwrap();
    let b4 = specs.iter().position(|s| s.name == "bgp-b4").unwrap();
    assert_eq!(digests[b3], digests[b4]);
    // ... and every Table 1 class compiles to a genuinely distinct plane.
    let table1: Vec<u64> = specs
        .iter()
        .zip(&digests)
        .filter(|(s, _)| s.family == TABLE1_FAMILY)
        .map(|(_, &d)| d)
        .collect();
    let mut deduped = table1.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), table1.len(), "table1 digests must differ");
}
