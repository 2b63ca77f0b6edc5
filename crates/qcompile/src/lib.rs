//! The paper's contribution: four compilation methodologies for QAOA
//! circuits, layered on a conventional backend compiler.
//!
//! | Methodology | Module | Paper section |
//! |---|---|---|
//! | QAIM — integrated qubit allocation & initial mapping | [`mapping`] | §IV-A |
//! | IP — instruction parallelization (bin-packing) | [`ip`] | §IV-B |
//! | IC — incremental compilation | [`ic`] | §IV-C |
//! | VIC — variation-aware incremental compilation | [`ic`] (reliability metric) | §IV-D |
//!
//! Baselines: **NAIVE** (random initial mapping + random gate order) and
//! **GreedyV** (heaviest-qubit-first placement, Murali et al. ASPLOS'19).
//!
//! The [`pipeline`] module wires everything into the Figure 2 workflow:
//! problem → (mapping strategy) → (ordering / incremental compilation) →
//! backend router → hardware-compliant circuit plus quality metrics.
//! Stages are trait-based [`passes`] over a shared [`qhw::HardwareContext`]
//! (distance matrices and profiles computed once per target), each run
//! records a per-pass [`PassTrace`], the one entry point
//! [`try_compile_artifact_with_context`] returns [`CompileError`] instead
//! of panicking, and [`compile_batch`] fans it out across threads with
//! bit-for-bit deterministic results.
//!
//! # Examples
//!
//! ```
//! use qaoa::{MaxCut, QaoaParams};
//! use qcompile::{
//!     try_compile_artifact_with_context, Compilation, CompileOptions, InitialMapping, QaoaSpec,
//! };
//! use qhw::{HardwareContext, Topology};
//! use rand::SeedableRng;
//!
//! let graph = qgraph::generators::cycle(6);
//! let spec = QaoaSpec::from_maxcut(&MaxCut::new(graph), &QaoaParams::p1(0.5, 0.3), true);
//! let topo = Topology::ibmq_20_tokyo();
//! let context = HardwareContext::shared(&topo, None);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! let options = CompileOptions::new(InitialMapping::Qaim, Compilation::IncrementalHops);
//! let artifact = try_compile_artifact_with_context(&spec, &context, &options, &mut rng)?;
//! assert!(qroute::satisfies_coupling(artifact.template().physical(), &topo));
//! # Ok::<(), qcompile::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cancel;
mod error;
pub mod explain;
pub mod ic;
pub mod ip;
pub mod mapping;
pub mod passes;
pub mod pipeline;
mod program;
#[doc(hidden)]
pub mod reference;
pub mod reverse;
mod trace;

pub use batch::{compile_batch, default_workers, BatchJob};
pub use cancel::CancelToken;
pub use error::CompileError;
pub use explain::{Explain, ExplainLayer, ExplainPass, EXPLAIN_VERSION};
pub use pipeline::{
    try_compile_artifact_with_context, try_compile_artifact_with_context_cancellable, Compilation,
    CompileOptions, CompiledCircuit, InitialMapping, Resilience, FULL_VERIFY_MAX_QUBITS,
};
pub use program::{CompiledArtifact, CphaseOp, ProgramProfile, QaoaSpec};
pub use trace::{FallbackReason, FallbackRecord, PassRecord, PassTrace};
