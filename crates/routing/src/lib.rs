//! # cpr-routing — compact routing schemes over routing algebras
//!
//! The core of the *Compact Policy Routing* reproduction: the
//! routing-function model of §2.3 (headers, port-labelled forwarding,
//! bit-accounted local routing functions) and every scheme the paper's
//! results invoke:
//!
//! | Scheme | Paper result | Memory |
//! |---|---|---|
//! | [`DestTable`] | Observation 1 / Proposition 2 | `O(n log d)` |
//! | [`SrcDestTable`] | §3.1 (non-isotone fallback) | `O(n² log d)` |
//! | [`preferred_spanning_tree`] + [`IntervalTreeRouting`] | Theorem 1 / Lemma 1 | `O(deg_T log n)` |
//! | [`TzTreeRouting`] | Theorem 1 (Thorup–Zwick variant) | `O(log n)` local, `O(log² n)` labels |
//! | [`CowenScheme`] | Theorem 3 (stretch-3 for delimited regular algebras) | `Õ(√n)` |
//!
//! Every scheme implements [`RoutingScheme`]; [`route`] simulates packet
//! forwarding hop by hop, [`MemoryReport`] aggregates Definition 2's
//! per-node bit counts, and [`verify_scheme`] checks delivered paths
//! against ground truth under the algebraic stretch of Definition 3.
//!
//! ```
//! use cpr_algebra::policies::ShortestPath;
//! use cpr_algebra::SampleWeights;
//! use cpr_graph::{generators, EdgeWeights};
//! use cpr_paths::AllPairs;
//! use cpr_routing::{verify_scheme, CowenScheme, LandmarkStrategy, MemoryReport};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let g = generators::gnp_connected(40, 0.1, &mut rng);
//! let w = EdgeWeights::random(&g, &ShortestPath, &mut rng);
//! let scheme = CowenScheme::build(
//!     &g, &w, &ShortestPath,
//!     LandmarkStrategy::TzRandom { attempts: 4 }, &mut rng,
//! );
//! let ap = AllPairs::compute(&g, &w, &ShortestPath);
//! let report = verify_scheme(&g, &w, &ShortestPath, &scheme, 3,
//!     |s, t| ap.weight(s, t).clone());
//! assert!(report.all_within_bound());
//! println!("{}", MemoryReport::measure(&scheme));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod factory;
mod scheme;
pub mod schemes;
mod tree;
mod verify;

pub use factory::SchemeFactory;
pub use scheme::{route, MemoryReport, RouteAction, RouteError, RoutingScheme};
pub use schemes::cowen::{CowenLabel, CowenScheme, LandmarkStrategy};
pub use schemes::dest_table::{DestTable, DestTableFactory};
pub use schemes::interval_tree::IntervalTreeRouting;
pub use schemes::label_swapping::LabelSwapping;
pub use schemes::spanning_tree::{
    all_spanning_trees, preferred_spanning_tree, verify_tree_optimality, TreeViolation, UnionFind,
};
pub use schemes::src_dest_table::SrcDestTable;
pub use schemes::sw_class_table::{SwClassTable, SwClassTableFactory, SwHeader};
pub use schemes::tz_tree::{TzLabel, TzTreeRouting};
pub use tree::{RootedTree, TreeError};
pub use verify::{verify_scheme, StretchReport};
