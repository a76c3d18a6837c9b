//! Literal pins of the compiled plane's identity and accounting.
//!
//! [`ForwardingPlane::digest`](cpr_plane::ForwardingPlane::digest) hashes
//! the packed encoding of every transition, and
//! [`memory`](cpr_plane::ForwardingPlane::memory) counts its bits. Both
//! must stay byte-identical whatever the plane stores internally, so one
//! dense and one sparse plane at n = 64 are pinned here as literals.

use cpr_algebra::policies::{Capacity, ShortestPath};
use cpr_graph::{generators, EdgeWeights, Graph};
use cpr_plane::{compile, PlaneMemory};
use cpr_routing::{DestTable, SwClassTable};
use rand::SeedableRng;

fn instance() -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD16E57);
    generators::barabasi_albert(64, 2, &mut rng)
}

#[test]
fn dense_plane_digest_and_memory_are_pinned() {
    let g = instance();
    let w = EdgeWeights::from_fn(&g, |e| (e as u64 % 9) + 1);
    let plane = compile(&DestTable::build(&g, &w, &ShortestPath), &g).unwrap();
    let mem = plane.memory();
    assert_eq!(plane.digest(), 0x8c41_9fc2_6204_392c);
    assert_eq!(
        mem,
        PlaneMemory {
            scheme: "dest-table[shortest-path]".to_string(),
            nodes: 64,
            headers: 64,
            states: 4096,
            entry_width: 13,
            layout: "dense",
            transition_bits: 53248,
            initial_bits: 28672,
            adjacency_bits: 10080,
            scheme_header_bits: 6,
        }
    );
}

#[test]
fn sparse_plane_digest_and_memory_are_pinned() {
    let g = instance();
    let w = EdgeWeights::from_fn(&g, |e| {
        (
            Capacity::new([10, 40, 100, 400, 1000, 2500][e % 6]).unwrap(),
            (e as u64 % 7) + 1,
        )
    });
    let plane = compile(&SwClassTable::build(&g, &w), &g).unwrap();
    let mem = plane.memory();
    assert_eq!(plane.digest(), 0xacd3_68a0_0073_b8a7);
    assert_eq!(
        mem,
        PlaneMemory {
            scheme: "sw-class-table[k=6]".to_string(),
            nodes: 64,
            headers: 260,
            states: 5071,
            entry_width: 16,
            layout: "sparse",
            transition_bits: 128855,
            initial_bits: 36864,
            adjacency_bits: 10080,
            scheme_header_bits: 9,
        }
    );
}
