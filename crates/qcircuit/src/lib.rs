//! Quantum-circuit intermediate representation for the QAOA compiler.
//!
//! This crate plays the role Qiskit's `QuantumCircuit` plays in the MICRO
//! 2020 paper: it defines the gate set, the circuit container, the
//! concurrency-layer scheduler that determines circuit *depth* (the paper's
//! primary quality metric), and gate decomposition into hardware basis
//! gates.
//!
//! # Terminology
//!
//! The paper calls the two-qubit cost-layer gate "CPHASE". Its Figure 1(d)
//! decomposition (`CNOT · RZ(γ) · CNOT`) identifies it as the ZZ-interaction
//! `exp(-i γ/2 Z⊗Z)`, which this crate names [`Gate::Rzz`]. The true
//! controlled-phase `diag(1, 1, 1, e^{iλ})` is also provided as
//! [`Gate::CPhase`]; both commute with each other and decompose into two
//! CNOTs, so every result in the paper is insensitive to the choice.
//!
//! # Examples
//!
//! Build the intelligently ordered circuit of Figure 1(c) and check its
//! depth (time steps including measurement):
//!
//! ```
//! use qcircuit::Circuit;
//!
//! let mut c = Circuit::new(4);
//! let gamma = 0.7;
//! for q in 0..4 {
//!     c.h(q);
//! }
//! // layer-1..3 of Figure 1(c): three layers of two parallel CPHASEs
//! for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)] {
//!     c.rzz(gamma, a, b);
//! }
//! for q in 0..4 {
//!     c.rx(2.0 * 0.3, q);
//! }
//! c.measure_all();
//! assert_eq!(c.depth(), 6); // H + 3 CPHASE layers + RX + measure
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod error;
mod gate;

pub mod basis;
pub mod draw;
pub mod kernel;
pub mod layers;
pub mod math;
pub mod param;
pub mod qasm;
mod qasm_parse;

pub use circuit::{Circuit, Instruction};
pub use error::CircuitError;
pub use gate::Gate;
pub use param::{Angle, ParamId, ParamTable, ParamValues};
