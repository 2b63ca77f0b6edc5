//! Hardware models: qubit coupling topologies, calibration data and the
//! profiling statistics the QAIM/VIC methodologies consume.
//!
//! The paper evaluates on three targets (§V-B): the 20-qubit
//! `ibmq_20_tokyo`, the 15-qubit `ibmq_16_melbourne` and a hypothetical
//! 36-qubit 6×6 grid. All three are provided as [`Topology`] constructors,
//! along with linear/ring/fully-connected layouts used in the worked
//! examples.
//!
//! Calibration data (per-edge CNOT error rates, Figure 10(a)) feeds two
//! consumers:
//!
//! * the **success-probability** metric — the product of per-gate success
//!   rates (§II), and
//! * the **variation-aware distances** of VIC — coupling-graph edge weights
//!   of `1 / success_rate` (Figure 6(d)).
//!
//! # Examples
//!
//! ```
//! use qhw::Topology;
//!
//! let tokyo = Topology::ibmq_20_tokyo();
//! assert_eq!(tokyo.num_qubits(), 20);
//! // The paper's worked example: qubit 0 has connectivity strength 7.
//! assert_eq!(tokyo.profile().connectivity_strength(0), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod context;
pub mod fault;
mod profile;
mod topology;

pub use calibration::{Calibration, CalibrationError, MAX_ERROR, MIN_ERROR};
pub use context::{HardwareContext, PathTreeCell};
pub use profile::HardwareProfile;
pub use topology::Topology;
