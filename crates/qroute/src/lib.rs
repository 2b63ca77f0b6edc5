//! The backend circuit compiler: SWAP insertion against hardware coupling
//! constraints.
//!
//! This crate plays the role of the "backend compiler" box in the paper's
//! Figure 2 workflow (qiskit in the authors' experiments): given a logical
//! circuit, a target [`qhw::Topology`] and an initial logical→physical
//! [`Layout`], it partitions the circuit into concurrency layers and adds
//! SWAP gates before each layer until every two-qubit gate acts on coupled
//! physical qubits (\[47\], \[48\] of the paper).
//!
//! Routing distances come from a [`RoutingMetric`]:
//!
//! * [`RoutingMetric::hops`] — unit edge weights (NAIVE/QAIM/IP/IC);
//! * [`RoutingMetric::reliability`] — `1 / success_rate` edge weights so
//!   SWAP paths prefer reliable links (VIC, Figure 6(d)).
//!
//! # Examples
//!
//! ```
//! use qcircuit::Circuit;
//! use qhw::Topology;
//! use qroute::{route, Layout, RoutingMetric};
//!
//! let topo = Topology::linear(3);
//! let mut c = Circuit::new(3);
//! c.cx(0, 2); // not coupled on a path: needs one SWAP
//! let metric = RoutingMetric::hops(&topo);
//! let out = route(&c, &topo, Layout::trivial(3, 3), &metric);
//! assert_eq!(out.swap_count, 1);
//! assert!(qroute::satisfies_coupling(&out.circuit, &topo));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fidelity;
mod layout;
mod metric;
mod router;
pub mod sabre;
mod verify;

pub use error::RouteError;
pub use fidelity::success_probability;
pub use layout::Layout;
pub use metric::RoutingMetric;
pub use router::{route, try_route, try_route_layer, RouteLayerStat, RouteResult};
pub use verify::{routed_equivalent, satisfies_coupling};
