//! Allocation budgets of the control-path kernels, as deterministic
//! counts instead of timings.
//!
//! Three findings sized the control plane's cost: a scheme build that
//! allocated once per `(source, target)` pair, and a compile index that
//! could have been laid out as `n · headers` slots. Each is pinned here
//! under the counting allocator of `common`, at a size where the wrong
//! shape misses the budget by a wide margin:
//!
//! * `SwClassTable::build` performs `O(k·n)` allocations (a handful per
//!   `(class, source)` tree), not `k·n²`;
//! * `DestTable::build` performs `O(n)`;
//! * `compile` of a many-header / few-states scheme (`SrcDestTable`:
//!   `n²` headers of a path's worth of states each) peaks within a
//!   stated number of heap bytes per compiled state;
//! * a serving snapshot of the twelve standard classes copies no class
//!   state — fresh or after a repair — and a plane's `static_core()`
//!   allocates nothing.

use cpr_algebra::policies::{Capacity, ShortestPath};
use cpr_graph::{generators, traversal, EdgeWeights, Graph};
use cpr_paths::AllPairs;
use cpr_plane::{compile, MultiPlane, RepairPolicy};
use cpr_routing::{DestTable, SrcDestTable, SwClassTable};
use rand::SeedableRng;

mod common;
use common::{measure, serial};

const N: usize = 128;

fn instance() -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);
    generators::barabasi_albert(N, 2, &mut rng)
}

#[test]
fn sw_class_table_build_allocates_per_tree_not_per_pair() {
    let _guard = serial();
    let g = instance();
    let w = EdgeWeights::from_fn(&g, |e| {
        (
            Capacity::new([10, 40, 100, 400, 1000, 2500][e % 6]).unwrap(),
            (e as u64 % 7) + 1,
        )
    });
    let (scheme, allocs, _) = measure(|| SwClassTable::build(&g, &w));
    let k = scheme.class_count() as u64;
    assert_eq!(k, 6);
    // One Dijkstra (label arrays + heap growth), one first-hop pass, one
    // port table and one row per (class, source) tree, plus one widest
    // tree per source: ≈ 13 allocations per tree. Per-pair extraction
    // would add n = 128 per tree on top.
    let budget = 48 * (k + 1) * N as u64;
    assert!(
        allocs <= budget,
        "SwClassTable::build made {allocs} allocations at n = {N}, k = {k} \
         (budget {budget}; k·n² = {})",
        k * (N * N) as u64
    );
}

#[test]
fn dest_table_build_allocates_per_tree() {
    let _guard = serial();
    let g = instance();
    let w = EdgeWeights::from_fn(&g, |e| (e as u64 % 9) + 1);
    let (_, allocs, _) = measure(|| DestTable::build(&g, &w, &ShortestPath));
    let budget = 32 * N as u64;
    assert!(
        allocs <= budget,
        "DestTable::build made {allocs} allocations at n = {N} (budget {budget}; n² = {})",
        N * N
    );
}

#[test]
fn compile_of_a_many_header_scheme_stays_within_bytes_per_state() {
    let _guard = serial();
    let g = instance();
    let w = EdgeWeights::uniform(&g, 1u64);
    let ap = AllPairs::compute(&g, &w, &ShortestPath);
    let scheme = SrcDestTable::build(&g, "sp", |s| g.nodes().map(|t| ap.path(s, t)).collect());
    let (plane, _, peak) = measure(|| cpr_plane::compile_with_threads(&scheme, &g, 1).unwrap());
    assert_eq!(plane.memory().layout, "sparse");
    assert!(plane.header_count() >= N * (N - 1), "a header per pair");
    let states = plane.state_count() as u64;
    // Interner, transition arena, initial table and early-stop index
    // together; an index of n · headers slots alone would be
    // 4·n·headers / states ≈ 4n / (mean path length) ≥ 100 bytes per
    // state more at this size.
    let budget = BYTES_PER_STATE * states;
    assert!(
        peak <= budget,
        "compile peaked at {peak} heap bytes for {states} states \
         ({} per state, budget {BYTES_PER_STATE})",
        peak / states
    );
    // The parallel compile keeps one index per shard: same bound.
    let (_, _, peak2) = measure(|| compile(&scheme, &g).unwrap());
    assert!(peak2 <= budget, "sharded compile peaked at {peak2} bytes");
}

/// Peak heap bytes `compile` may hold per compiled state of a
/// many-header scheme.
const BYTES_PER_STATE: u64 = 96;

/// Heap bytes `MultiPlane::snapshot()` may allocate for the twelve
/// standard classes on [`instance`], fresh or after a reconciled
/// removal. A snapshot that cloned each class plane — scheme, interner,
/// edge and dirty sets, patch maps — allocated 1 691 118 bytes fresh and
/// 7 233 310 after one removal; one that shares the base arrays and the
/// repair overlay allocates names and slots.
const SNAPSHOT_BUDGET: u64 = 64 * 1024;

/// Measures a snapshot of `multi` against [`SNAPSHOT_BUDGET`].
fn assert_snapshot_within_budget(multi: &MultiPlane, on_core: bool, when: &str) {
    let (snapshot, _, bytes) = measure(|| multi.snapshot());
    assert!((0..12).all(|class| snapshot.class_on_core(class) == on_core));
    assert!(
        bytes <= SNAPSHOT_BUDGET,
        "a snapshot {when} allocated {bytes} heap bytes (budget {SNAPSHOT_BUDGET})"
    );
}

#[test]
fn snapshots_and_static_cores_copy_no_transition_array() {
    let _guard = serial();
    let g = instance();
    let mut multi = MultiPlane::build(&g, cpr_conform::standard_builder()).unwrap();
    assert_eq!(multi.classes().count(), 12);
    assert_snapshot_within_budget(&multi, true, "of a fresh build");
    for class in multi.classes() {
        let (_, allocs, bytes) = measure(|| class.base().static_core());
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "static_core() of {} allocated",
            class.class_name()
        );
    }
    let pruned = g
        .edges()
        .map(|(victim, _)| {
            let kept = g.edges().filter(|&(e, _)| e != victim).map(|(_, uv)| uv);
            Graph::from_edges(N, kept).unwrap()
        })
        .find(traversal::is_connected)
        .expect("some edge is not a bridge");
    multi
        .reconcile(&pruned, &RepairPolicy::default(), &cpr_obs::Obs::disabled())
        .unwrap();
    assert_snapshot_within_budget(&multi, false, "after a removal");
}
