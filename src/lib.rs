//! Facade crate re-exporting the full QAOA compilation stack — a Rust
//! reproduction of *Circuit Compilation Methodologies for Quantum
//! Approximate Optimization Algorithm* (MICRO 2020).
//!
//! The stack, bottom up:
//!
//! * [`qgraph`] — problem/coupling graphs, generators, shortest paths.
//! * [`qcircuit`] — circuit IR, layering, basis lowering, QASM.
//! * [`qhw`] — device topologies, calibration, connectivity profiles.
//! * [`qsim`] — statevector + density-matrix simulation, trajectory noise.
//! * [`qroute`] — the backend transpiler (SWAP insertion, verification).
//! * [`qaoa`] — MaxCut/Ising Hamiltonians, ansatz, optimization, ARG.
//! * [`qcompile`] — the paper's methodologies: QAIM, IP, IC, VIC.
//!
//! # Examples
//!
//! Compile a MaxCut instance for the 20-qubit Tokyo device with IC(+QAIM)
//! and verify the result respects the hardware coupling:
//!
//! ```
//! use qaoa_compiler::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let graph = qgraph::generators::connected_random_regular(10, 3, 1000, &mut rng)?;
//! let problem = qaoa::MaxCut::new(graph);
//! let spec = qcompile::QaoaSpec::from_maxcut(
//!     &problem,
//!     &qaoa::QaoaParams::p1(0.9, 0.35),
//!     true,
//! );
//! let device = qhw::Topology::ibmq_20_tokyo();
//! let context = qhw::HardwareContext::shared(&device, None);
//! let options = qcompile::CompileOptions::ic();
//! let artifact =
//!     qcompile::try_compile_artifact_with_context(&spec, &context, &options, &mut rng)?;
//! assert!(qroute::satisfies_coupling(artifact.template().physical(), &device));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use qaoa;
pub use qcircuit;
pub use qcompile;
pub use qgraph;
pub use qhw;
pub use qroute;
pub use qsim;
