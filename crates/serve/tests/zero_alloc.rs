//! Pins the zero-allocation contract of the request path, through the
//! service: request bytes in → response bytes out.
//!
//! After one warm-up frame per class (which sizes the connection
//! scratch and output buffer and creates the class's registry entries),
//! `MultiRouteService::answer_frame` must not touch the heap for a
//! `Lookup` or for a `Batch` of 256 pairs — with observability **on**:
//! the per-frame flush goes through names built at publish and existing
//! registry entries. That holds for classes serving from their flat core
//! and, after a reconciled link removal, for classes serving through the
//! healed walk over their repair overlay.
//!
//! The counting allocator is process-global; tests in this binary hold
//! `common::serial()` from their first line.

use cpr_conform::standard_builder;
use cpr_graph::{generators, traversal, Graph};
use cpr_plane::RepairPolicy;
use cpr_serve::{ConnScratch, MultiRouteService, Request, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../../plane/tests/common/mod.rs"]
mod common;

const N: u32 = 64;

/// The standard twelve-class registry served over a seeded `G(n, p)`.
fn instance() -> (Graph, MultiRouteService, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x2E80_A110C);
    let g = generators::gnp_connected(N as usize, 0.1, &mut rng);
    let service = MultiRouteService::new(
        &g,
        standard_builder(),
        ServeConfig::default(),
        cpr_obs::Obs::with_null_tracer(),
    )
    .expect("the standard registry compiles");
    (g, service, rng)
}

/// Per class, one `Lookup` and one `Batch-256` frame of distinct random
/// pairs: after one warm-up round, a second round allocates nothing.
fn assert_frames_allocate_nothing(service: &MultiRouteService, rng: &mut StdRng) {
    let classes = service.current().class_count();
    let mut pair = || loop {
        let (s, t) = (rng.gen_range(0..N), rng.gen_range(0..N));
        if s != t {
            return (s, t);
        }
    };
    let frames: Vec<[Vec<u8>; 2]> = (0..classes as u8)
        .map(|class| {
            let (source, target) = pair();
            let lookup = Request::Lookup {
                source,
                target,
                class,
            };
            let batch = Request::Batch {
                pairs: (0..256).map(|_| pair()).collect(),
                class,
            };
            [lookup.encode(), batch.encode()]
        })
        .collect();

    let before = service.stats();
    let mut scratch = ConnScratch::default();
    let mut out = Vec::new();
    let mut reply_bytes = [0usize; 2];
    for class in &frames {
        for (kind, body) in class.iter().enumerate() {
            out.clear();
            service
                .answer_frame(body, &mut scratch, &mut out)
                .expect("a well-formed body");
            reply_bytes[kind] += out.len();
        }
    }
    let warm = service.stats();
    assert_eq!(warm.queries - before.queries, classes as u64 * 257);
    assert_eq!(warm.failed, 0);

    for (kind, name) in ["Lookup", "Batch-256"].into_iter().enumerate() {
        let (bytes, allocs, _) = common::measure(|| {
            let mut bytes = 0usize;
            for class in &frames {
                out.clear();
                service
                    .answer_frame(&class[kind], &mut scratch, &mut out)
                    .expect("a well-formed body");
                bytes += out.len();
            }
            bytes
        });
        assert_eq!(bytes, reply_bytes[kind], "{name} replies changed size");
        assert_eq!(allocs, 0, "{name} frames allocated after warm-up");
    }
    assert_eq!(
        service.stats().queries - warm.queries,
        warm.queries - before.queries
    );
}

#[test]
fn lookup_and_batch_frames_allocate_nothing_after_warmup() {
    let _serial = common::serial();
    let (_, service, mut rng) = instance();
    let snap = service.current();
    assert!((0..snap.class_count()).all(|c| snap.class_on_core(c)));
    assert_frames_allocate_nothing(&service, &mut rng);
}

#[test]
fn frames_through_repair_overlays_allocate_nothing_after_warmup() {
    let _serial = common::serial();
    let (g, service, mut rng) = instance();
    let pruned = g
        .edges()
        .map(|(victim, _)| {
            let kept = g.edges().filter(|&(e, _)| e != victim).map(|(_, uv)| uv);
            Graph::from_edges(g.node_count(), kept).unwrap()
        })
        .find(traversal::is_connected)
        .expect("some edge is not a bridge");
    let report = service
        .reconcile(&pruned, &RepairPolicy::default())
        .expect("a removal repairs");
    assert!(report.swapped);
    let snap = service.current();
    assert!((0..snap.class_count()).all(|c| !snap.class_on_core(c)));
    assert_frames_allocate_nothing(&service, &mut rng);
}
