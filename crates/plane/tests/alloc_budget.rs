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
//! * a serving snapshot of the twelve standard classes copies no
//!   transition array, and neither does a plane's `static_core()`.

use cpr_algebra::policies::{Capacity, ShortestPath};
use cpr_graph::{generators, EdgeWeights, Graph};
use cpr_paths::AllPairs;
use cpr_plane::{compile, MultiPlane, PlaneMemory};
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

/// Heap bytes `MultiPlane::snapshot()` allocated for the twelve
/// standard classes on [`instance`] when every snapshot held a packed
/// clone of each class plane *and* a freshly decoded flat core of it:
/// 3 302 870 bytes in 1 332 allocations, of which the flat cores were
/// 1 302 332 and the packed clones 308 177.
const SNAPSHOT_BYTES_WITH_COPIES: u64 = 3_302_870;

/// Resident bytes of a plane's flat core: two `u32`s per dense slot, or
/// a key and two `u32`s per sparse state plus the run offsets.
fn flat_core_bytes(mem: &PlaneMemory) -> u64 {
    match mem.layout {
        "dense" => 8 * (mem.nodes * mem.headers) as u64,
        _ => 4 * (mem.nodes as u64 + 1) + 12 * mem.states as u64,
    }
}

#[test]
fn snapshots_and_static_cores_copy_no_transition_array() {
    let _guard = serial();
    let g = instance();
    let multi = MultiPlane::build(&g, cpr_conform::standard_builder()).unwrap();
    assert_eq!(multi.classes().count(), 12);
    let flat: u64 = multi
        .classes()
        .map(|c| flat_core_bytes(&c.base().memory()))
        .sum();
    let (snapshot, _, bytes) = measure(|| multi.snapshot());
    assert!((0..12).all(|class| snapshot.class_on_core(class)));
    let budget = SNAPSHOT_BYTES_WITH_COPIES - flat;
    assert!(
        bytes <= budget,
        "a snapshot allocated {bytes} heap bytes (budget {budget}: \
         {SNAPSHOT_BYTES_WITH_COPIES} less {flat} bytes of flat cores)"
    );
    for class in multi.classes() {
        let (_, allocs, bytes) = measure(|| class.base().static_core());
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "static_core() of {} allocated",
            class.class_name()
        );
    }
}
