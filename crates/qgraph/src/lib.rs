//! Graph data structures, random-graph generators and shortest-path
//! algorithms used throughout the QAOA compiler.
//!
//! This crate provides the two kinds of graphs the MICRO 2020 paper works
//! with:
//!
//! * **Problem graphs** — the MaxCut instances (Erdős–Rényi and random
//!   regular graphs) whose edges become `CPHASE` operations in the QAOA cost
//!   Hamiltonian, generated by [`generators`].
//! * **Coupling graphs** — hardware qubit-connectivity graphs, optionally
//!   with per-edge weights (inverse gate reliabilities) for the
//!   variation-aware distance measures of the VIC methodology, analysed by
//!   [`shortest_path`].
//!
//! # Examples
//!
//! ```
//! use qgraph::{Graph, shortest_path::floyd_warshall};
//!
//! // The 4-node 3-regular graph of Figure 1(a).
//! let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
//! assert_eq!(g.edge_count(), 6);
//! assert!(g.is_connected());
//!
//! let dist = floyd_warshall(&g);
//! assert_eq!(dist.get(0, 3), Some(1));
//! # Ok::<(), qgraph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;

pub mod generators;
pub mod shortest_path;

pub use error::GraphError;
pub use graph::{Edge, Graph};
