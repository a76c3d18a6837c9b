//! Pins the zero-allocation contract of the request path, through the
//! service: request bytes in → response bytes out.
//!
//! After one warm-up frame per class (which sizes the connection
//! scratch and output buffer and creates the class's registry entries),
//! `MultiRouteService::answer_frame` must not touch the heap for a
//! `Lookup` or for a `Batch` of 256 pairs on a class serving from its
//! flat core — with observability **on**: the per-frame flush goes
//! through names built at publish and existing registry entries.
//!
//! The counting allocator is process-global; tests in this binary hold
//! `common::serial()` from their first line.

use cpr_conform::standard_builder;
use cpr_graph::generators;
use cpr_serve::{ConnScratch, MultiRouteService, Request, ServeConfig};
use rand::{Rng, SeedableRng};

#[path = "../../plane/tests/common/mod.rs"]
mod common;

#[test]
fn lookup_and_batch_frames_allocate_nothing_after_warmup() {
    let _serial = common::serial();
    let n = 64u32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x2E80_A110C);
    let g = generators::gnp_connected(n as usize, 0.1, &mut rng);
    let service = MultiRouteService::new(
        &g,
        standard_builder(),
        ServeConfig::default(),
        cpr_obs::Obs::with_null_tracer(),
    )
    .expect("the standard registry compiles");
    let snap = service.current();
    let classes = snap.class_count();
    assert!((0..classes).all(|c| snap.class_on_core(c)));

    // Per class: one Lookup body and one Batch-256 body, distinct pairs.
    let mut pair = || loop {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
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
    assert_eq!(warm.queries, classes as u64 * 257);
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
    assert_eq!(service.stats().queries, 2 * warm.queries);
}
