//! The repo benchmark: four daemon workloads against the real
//! `MultiRouteService` + `RouteServer` over loopback TCP, end-to-end
//! metrics from an untraced run and a per-layer ladder from a traced
//! one. `README.md` has the tables; `../BENCHMARK.json` the contract.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod daemon;
pub mod host;
pub mod inputs;
pub mod jsonparse;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod traced;
pub mod verify;
