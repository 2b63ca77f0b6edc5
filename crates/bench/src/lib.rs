//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§V). See DESIGN.md for the experiment index.
//!
//! Each `fig*` binary in `src/bin/` prints the rows/series of one paper
//! artifact and writes its `BENCH_<figure>.json` report; `regress` diffs
//! such reports against the committed baselines in `results/`, and
//! `baseline` regenerates those. The helpers here keep workload
//! generation and statistics consistent across all of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod qstat;
pub mod quality;
pub mod regress;
pub mod report;
pub mod servechaos;
pub mod serveload;
pub mod simbench;
pub mod stats;
pub mod workloads;
pub mod xray;

use qaoa::{MaxCut, QaoaParams};
use qcompile::QaoaSpec;

/// Builds the p=1 QAOA-MaxCut spec the compilation experiments use.
///
/// Compilation quality is independent of the specific angles, so a fixed
/// representative `(γ, β)` is used; the ARG experiments optimize their own
/// parameters instead.
pub fn compilation_spec(graph: qgraph::Graph, measure: bool) -> QaoaSpec {
    let problem = MaxCut::without_optimum(graph);
    QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.9, 0.35), measure)
}
