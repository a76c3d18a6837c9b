//! # cpr-paths — preferred-path computation over routing algebras
//!
//! The algorithms the paper's routing schemes stand on:
//!
//! * [`dijkstra`] — Sobrinho's generalized Dijkstra, exact for *regular*
//!   (monotone + isotone) algebras, with deterministic tie-breaking;
//! * [`bellman_ford`] — the synchronous distance-vector counterpart, with
//!   convergence reporting;
//! * [`exhaustive_preferred`] — ground truth by simple-path enumeration
//!   (the policy *definition*), with monotonicity-based pruning;
//! * [`shortest_widest_exact`] — the polynomial exact solver for the
//!   non-isotone `SW = W × S` policy, where greedy Dijkstra is unsound;
//! * [`AllPairs`] — all-pairs preferred trees;
//! * [`HopMatrix`] — all-pairs hop distances by parallel BFS, the flat
//!   `u32` form stretch scoring wants at Internet scale;
//! * [`TreeRepair`] — the exact incremental twin of [`dijkstra`]: repairs
//!   a tree across an edge delta into the very tree `dijkstra` builds on
//!   the new graph, touching only the nodes whose label or tie-break
//!   winner can move;
//! * [`DeltaTracker`] — affected-region delta recompute: given an edge
//!   delta (removals *and* additions), bound the pairs whose preferred
//!   route can change and repair only the trees that own one.
//!
//! ```
//! use cpr_algebra::policies::ShortestPath;
//! use cpr_graph::{generators, EdgeWeights};
//! use cpr_paths::{dijkstra, exhaustive_preferred};
//!
//! let g = generators::hypercube(3);
//! let w = EdgeWeights::uniform(&g, 1u64);
//! let fast = dijkstra(&g, &w, &ShortestPath, 0);
//! let truth = exhaustive_preferred(&g, &w, &ShortestPath, 0, true);
//! for v in g.nodes() {
//!     assert_eq!(fast.weight(v), truth.weight(v));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod all_pairs;
mod bellman_ford;
mod delta;
mod dijkstra;
mod exhaustive;
mod heap;
mod hops;
mod repair;
mod shortest_widest;
mod tree;

pub use all_pairs::AllPairs;
pub use bellman_ford::{bellman_ford, BellmanFordResult};
pub use delta::{DeltaOracle, DeltaReport, DeltaTracker, DirtyPairs, FullDirtyOracle};
pub use dijkstra::dijkstra;
pub use exhaustive::{exhaustive_preferred, exhaustive_preferred_all, SourceRouting};
pub use heap::CmpHeap;
pub use hops::{bfs_hops, HopMatrix};
pub use repair::{EdgeChanges, PriorParent, Repaired, TreeRepair};
pub use shortest_widest::{shortest_widest_exact, SwWeight};
pub use tree::PreferredTree;
