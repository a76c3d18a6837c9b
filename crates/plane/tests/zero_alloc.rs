//! Pins the zero-allocation contract of the batched lookup core.
//!
//! The serving hot path ([`LookupCore::lookup_batch`]) must not touch
//! the heap once its [`BatchScratch`] has warmed up: every buffer —
//! counting-sort buckets, destination-order permutation, per-query
//! results — grows to its high-water mark on the first batch and is
//! reused afterwards. This test swaps in the counting global allocator
//! of `common` and asserts that serving further batches (same size,
//! different queries) performs exactly zero allocations and
//! deallocations.
//!
//! This file deliberately contains the only test in its binary: the
//! counter is process-global, and a concurrently running test would
//! perturb it.

use cpr_algebra::policies::ShortestPath;
use cpr_graph::{generators, EdgeWeights};
use cpr_paths::AllPairs;
use cpr_plane::{compile, BatchScratch, TrafficPattern};
use cpr_routing::{DestTable, SrcDestTable};
use rand::SeedableRng;

mod common;
use common::counts;

#[test]
fn lookup_batch_allocates_nothing_after_warmup() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let g = generators::gnp_connected(64, 0.1, &mut rng);
    let w = EdgeWeights::uniform(&g, 1u64);

    // One dense-layout plane (DestTable: n headers, states everywhere)
    // and one sparse-layout plane (SrcDestTable: a header per pair, each
    // alive only along its path) so both core layouts are pinned.
    let dense = compile(&DestTable::build(&g, &w, &ShortestPath), &g).unwrap();
    let ap = AllPairs::compute(&g, &w, &ShortestPath);
    let sd = SrcDestTable::build(&g, "sp", |s| g.nodes().map(|t| ap.path(s, t)).collect());
    let sparse = compile(&sd, &g).unwrap();
    assert_eq!(dense.memory().layout, "dense");
    assert_eq!(sparse.memory().layout, "sparse");

    let batch_len = 4096usize;
    let mut batches = Vec::new();
    for seed in 0..3u64 {
        let mut qrng = rand::rngs::StdRng::seed_from_u64(1000 + seed);
        batches.push(cpr_plane::generate(
            &g,
            &TrafficPattern::Uniform,
            batch_len,
            &mut qrng,
        ));
    }

    for plane in [&dense, &sparse] {
        let core = plane.lookup_core();
        let mut scratch = BatchScratch::new();
        // Warmup: sizes every scratch buffer to its high-water mark.
        let warm = core.lookup_batch(&batches[0], &mut scratch);
        assert!(warm.delivered > 0, "warmup batch delivered nothing");

        let before = counts();
        let mut delivered = 0usize;
        for batch in &batches {
            let stats = core.lookup_batch(batch, &mut scratch);
            delivered += stats.delivered;
            assert_eq!(
                stats.delivered + stats.failed,
                batch_len,
                "every query must be accounted for"
            );
        }
        let after = counts();

        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 0),
            "lookup_batch allocated on the warmed-up hot path \
             ({} queries, scheme {})",
            batches.len() * batch_len,
            plane.scheme(),
        );
        assert!(delivered > 0);
    }
}
