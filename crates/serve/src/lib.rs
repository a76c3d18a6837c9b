//! # cpr-serve — a long-lived route-query daemon with epoch-based hot swap
//!
//! Everything below `cpr-serve` answers route queries in batch: compile
//! a plane, serve a workload, exit. This crate keeps a compiled
//! [`ForwardingPlane`](cpr_plane::ForwardingPlane) *resident* — a TCP
//! daemon speaking a small length-prefixed binary protocol ([`proto`]) —
//! and keeps it *honest under churn* with an RCU-style epoch swap:
//!
//! * The data path ([`MultiRouteService::answer_frame`] on a
//!   connection — request bytes in, reply bytes out, no allocation —
//!   and [`MultiRouteService::answer`], the decoded adapter over the
//!   same routing body) loads the current
//!   [`MultiSnapshot`](cpr_plane::MultiSnapshot) from an [`EpochCell`]
//!   (an `Arc` clone under an uncontended read lock) and walks the
//!   compiled plane of the request's traffic class. Every response
//!   carries the epoch it was computed against.
//! * The control path ([`MultiRouteService::reconcile`]) diffs topology
//!   drift on a master [`MultiPlane`](cpr_plane::MultiPlane), repairs
//!   every class **off the serving path**, then publishes a cloned
//!   snapshot with one pointer swap. In-flight queries finish on the
//!   epoch they started with; no query is dropped, and no answer is
//!   computed against a topology older than its stamped epoch.
//! * The served registry is a [`MultiBuilder`](cpr_plane::MultiBuilder):
//!   one algebra is one `class(name, factory)` call, twelve are twelve.
//! * [`loadgen`] drives it closed-loop with seed-deterministic query
//!   streams, and the server records per-epoch query counts, hop and
//!   latency histograms, and swap counts into a `cpr-obs` registry
//!   served by the `Metrics` opcode.
//!
//! ```
//! use cpr_algebra::policies::ShortestPath;
//! use cpr_graph::{generators, EdgeWeights, Graph};
//! use cpr_plane::MultiBuilder;
//! use cpr_routing::DestTable;
//! use cpr_serve::{MultiRouteService, RouteClient, RouteServer, ServeConfig};
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = generators::gnp_connected(12, 0.3, &mut rng);
//! let registry = MultiBuilder::new().class("shortest-path", |g: &Graph| {
//!     DestTable::build(g, &EdgeWeights::uniform(g, 1u64), &ShortestPath)
//! });
//!
//! let service = Arc::new(
//!     MultiRouteService::new(&g, registry, ServeConfig::default(), cpr_obs::Obs::with_null_tracer())
//!         .unwrap(),
//! );
//! let server = RouteServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
//! let addr = server.local_addr().unwrap();
//! let stop = server.stop_handle();
//!
//! std::thread::scope(|s| {
//!     s.spawn(|| server.run().unwrap());
//!     let mut client = RouteClient::connect(addr).unwrap();
//!     let (epoch, outcome) = client.lookup(0, 11).unwrap();
//!     assert_eq!(epoch, 0);
//!     matches!(outcome, cpr_serve::RouteOutcome::Path(_));
//!     stop.store(true, std::sync::atomic::Ordering::Relaxed);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod epoch;
pub mod loadgen;
pub mod multi;
pub mod proto;
pub mod server;

pub use client::{ClientError, RouteClient};
pub use epoch::EpochCell;
pub use loadgen::{run_load, Answer, LoadConfig, LoadReport};
pub use multi::{ConnScratch, MultiRouteService, MultiSwapReport};
pub use proto::{ProtoError, Request, Response, RouteOutcome, StatsSnapshot};
pub use server::{RouteServer, ServeConfig};
