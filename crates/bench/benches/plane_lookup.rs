//! Criterion bench: compiled-plane lookup vs live `step` simulation.
//!
//! Answers "what does compilation buy per packet?" for the two scheme
//! families with the most different live costs: destination tables (the
//! live step is already an array lookup) and Thorup–Zwick tree routing
//! (the live step clones a heap-allocated label every hop).

use cpr_algebra::policies::{ShortestPath, WidestPath};
use cpr_bench::{experiment_rng, Topology};
use cpr_graph::{EdgeWeights, Graph, NodeId};
use cpr_plane::{compile, BatchScratch, LookupCore, TrafficPattern};
use cpr_routing::{route, DestTable, RoutingScheme, TzTreeRouting};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Sums route lengths through the live simulator.
fn live_hops<S: RoutingScheme>(scheme: &S, g: &Graph, queries: &[(NodeId, NodeId)]) -> usize {
    queries
        .iter()
        .map(|&(s, t)| route(scheme, g, s, t).map_or(0, |p| p.len() - 1))
        .sum()
}

/// Sums route lengths through the compiled plane's flat core — the
/// walk every serving path takes.
fn plane_hops(
    core: &LookupCore<'_>,
    scratch: &mut BatchScratch,
    queries: &[(NodeId, NodeId)],
) -> usize {
    core.lookup_batch(queries, scratch).total_hops as usize
}

fn bench_plane_lookup(c: &mut Criterion) {
    let n = 128;
    let mut rng = experiment_rng("plane-lookup", n);
    let g = Topology::ScaleFree.build(n, &mut rng);
    let sp = EdgeWeights::random(&g, &ShortestPath, &mut rng);
    let wp = EdgeWeights::random(&g, &WidestPath, &mut rng);

    let tables = DestTable::build(&g, &sp, &ShortestPath);
    let tz = TzTreeRouting::spanning(&g, &wp, &WidestPath);
    let tables_plane = compile(&tables, &g).expect("dest-table compiles");
    let tz_plane = compile(&tz, &g).expect("tz-tree compiles");
    let (tables_core, tz_core) = (tables_plane.lookup_core(), tz_plane.lookup_core());
    let mut scratch = BatchScratch::new();

    let queries = cpr_plane::generate(&g, &TrafficPattern::Uniform, 1024, &mut rng);

    // Same answer from both sides before timing anything.
    assert_eq!(
        live_hops(&tables, &g, &queries),
        plane_hops(&tables_core, &mut scratch, &queries)
    );
    assert_eq!(
        live_hops(&tz, &g, &queries),
        plane_hops(&tz_core, &mut scratch, &queries)
    );

    let mut group = c.benchmark_group("plane_lookup");
    group.sample_size(30);
    group.throughput(Throughput::Elements(queries.len() as u64));

    group.bench_function(BenchmarkId::new("live", "dest-table"), |b| {
        b.iter(|| live_hops(&tables, &g, black_box(&queries)))
    });
    group.bench_function(BenchmarkId::new("compiled", "dest-table"), |b| {
        b.iter(|| plane_hops(&tables_core, &mut scratch, black_box(&queries)))
    });
    group.bench_function(BenchmarkId::new("live", "tz-tree"), |b| {
        b.iter(|| live_hops(&tz, &g, black_box(&queries)))
    });
    group.bench_function(BenchmarkId::new("compiled", "tz-tree"), |b| {
        b.iter(|| plane_hops(&tz_core, &mut scratch, black_box(&queries)))
    });
    group.finish();
}

criterion_group!(benches, bench_plane_lookup);
criterion_main!(benches);
