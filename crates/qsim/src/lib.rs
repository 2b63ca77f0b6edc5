//! Dense statevector simulation with an optional stochastic-Pauli noise
//! model.
//!
//! This crate substitutes for both roles quantum execution plays in the
//! paper:
//!
//! * **Noiseless sampling** (the paper uses the qiskit simulator) — to
//!   compute QAOA expectation values and the ideal approximation ratio
//!   `r0` of the ARG metric (§V-A).
//! * **Hardware execution** (the paper runs `ibmq_16_melbourne`) — modelled
//!   by Monte-Carlo *trajectories*: each gate fails independently with its
//!   calibrated error probability, injecting a uniformly random non-identity
//!   Pauli on its operands; idle qubits depolarize per concurrency layer and
//!   readout bits flip with the calibrated readout error. Circuit error
//!   therefore grows with gate count *and* depth, matching the
//!   success-probability reasoning of §II.
//!
//! # Examples
//!
//! ```
//! use qcircuit::Circuit;
//! use qsim::StateVector;
//!
//! // Bell state.
//! let mut c = Circuit::new(2);
//! c.h(0);
//! c.cx(0, 1);
//! let state = StateVector::from_circuit(&c);
//! let p = state.probabilities();
//! assert!((p[0b00] - 0.5).abs() < 1e-12);
//! assert!((p[0b11] - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
mod error;
mod kernels;
mod noise;
mod options;
mod par;
mod sampler;
mod state;

pub use error::SimError;
pub use noise::{NoiseModel, TrajectorySimulator};
pub use options::SimOptions;
pub use sampler::{Counts, Sampler};
pub use state::{StateVector, MAX_QUBITS};
