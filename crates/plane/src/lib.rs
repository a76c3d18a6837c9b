//! # cpr-plane — a compiled forwarding plane for compact routing schemes
//!
//! The schemes in `cpr-routing` are *specifications*: each hop evaluates
//! a local routing function on a structured header (clone a Thorup–Zwick
//! label, binary-search a table, …). That is the right shape for proving
//! bit bounds, and the wrong shape for serving route queries at rate.
//! This crate closes the gap the way real routers do — by separating the
//! control plane from the forwarding plane:
//!
//! * [`compile`] flattens any [`RoutingScheme`](cpr_routing::RoutingScheme)
//!   into an immutable [`ForwardingPlane`]: reachable `(node, header)`
//!   states are interned to dense ids and their decisions written, ports
//!   resolved to neighbors, into the flat `u32` arrays of a
//!   [`StaticCore`] — the one stored form, which every walk and every
//!   serving snapshot reads in place. A dense or sparse layout is chosen
//!   from the instance's honest bit accounting: the size of the
//!   bit-packed encoding (`kind | port | next header` per entry), which
//!   [`ForwardingPlane::memory`] reports and [`ForwardingPlane::digest`]
//!   hashes without ever storing it. Compilation drives the live `step`
//!   simulation for every pair and aborts on any misroute, and
//!   [`validate`] replays all pairs hop-for-hop afterwards.
//! * [`workload`] generates deterministic query batches — uniform,
//!   degree-weighted gravity, and hotspot traffic.
//! * [`engine`] serves a batch across sharded scoped threads and reports
//!   throughput, hop counts, hop stretch against the `cpr-paths` optima,
//!   and every failure ([`ServeReport`]) — delivery errors are surfaced
//!   as [`RouteError`](cpr_routing::RouteError)s, never masked.
//! * [`heal`] keeps a compiled plane honest under topology churn: every
//!   plane carries a [`graph_digest`] of the topology it was compiled
//!   against, and [`SelfHealingPlane`] detects drift, incrementally
//!   repairs only the affected pairs, and falls back to the live scheme
//!   while repairs are pending — a stale plane degrades loudly, it
//!   never forwards onto a dead link.
//! * [`multi`] serves *many* policy classes from one process over one
//!   shared substrate: `Arc`-deduped initial/adjacency tables and one
//!   shared dirty set per topology delta repairing every class
//!   ([`MultiPlane`]).
//!
//! ```
//! use cpr_algebra::policies::ShortestPath;
//! use cpr_graph::{generators, EdgeWeights};
//! use cpr_plane::{compile, serve, validate, EngineConfig, HopOptima, TrafficPattern};
//! use cpr_routing::DestTable;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = generators::gnp_connected(16, 0.2, &mut rng);
//! let w = EdgeWeights::uniform(&g, 1u64);
//! let scheme = DestTable::build(&g, &w, &ShortestPath);
//!
//! let plane = compile(&scheme, &g).unwrap();
//! validate(&plane, &scheme, &g).unwrap();
//!
//! let queries = cpr_plane::generate(&g, &TrafficPattern::Uniform, 1000, &mut rng);
//! let optima = HopOptima::compute(&g);
//! let report = serve(&plane, &queries, Some(&optima), &EngineConfig::with_shards(2));
//! assert_eq!(report.delivered, 1000);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod engine;
pub mod heal;
pub mod multi;
mod pairset;
pub mod tenant;
pub mod workload;

pub use compile::{
    compile, compile_with_threads, graph_digest, validate, CompileError, Divergence,
    ForwardingPlane, PackedArray, PlaneMemory,
};
pub use engine::{
    serve, serve_obs, BatchScratch, BatchStats, EngineConfig, HopOptima, LookupCore, QueryFailure,
    ServeReport, StaticCore, StretchStats,
};
pub use heal::{
    DirtySource, EdgeDelta, HealthCounters, PendingWork, PublishedPlane, RepairPolicy, RepairStats,
    SelfHealingPlane, Served, StaleReport,
};
pub use multi::{
    ClassMemory, ClassMiss, ClassPlane, ClassRegistration, MultiBuilder, MultiMemory, MultiPlane,
    MultiRepairReport, MultiSnapshot, RepairTiming, ServingClass, TypedClassPlane,
};
pub use tenant::{
    build_tenant_class, dyn_edge_weights, sw_edge_weights, TenantClass, TenantError, MAX_CLASSES,
};
// Delta oracles are defined in `cpr-paths`; re-exported here because the
// healing APIs above consume them, so plane users (e.g. `cpr-serve`) need
// no direct `cpr-paths` dependency.
pub use cpr_paths::{DeltaOracle, DeltaReport, DeltaTracker, DirtyPairs, FullDirtyOracle};
// Likewise the factory interface `MultiBuilder::class` takes.
pub use cpr_routing::SchemeFactory;
pub use workload::{generate, TrafficPattern};
