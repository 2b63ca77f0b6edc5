//! Compile a realistic 20-node QAOA-MaxCut workload for the IBM 20-qubit
//! Tokyo device with every strategy of the paper and compare the quality
//! metrics — a miniature of the Figure 11(a) experiment.
//!
//! Run with: `cargo run --release --example maxcut_tokyo [nodes] [k]`

use qaoa::{MaxCut, QaoaParams};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let degree: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let mut rng = StdRng::seed_from_u64(2026);
    let graph = qgraph::generators::connected_random_regular(nodes, degree, 10_000, &mut rng)?;
    println!(
        "problem: {nodes}-node {degree}-regular MaxCut ({} CPHASE gates at p=1)",
        graph.edge_count()
    );

    let problem = MaxCut::without_optimum(graph);
    let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.9, 0.35), true);
    let topo = Topology::ibmq_20_tokyo();
    let cal = Calibration::random_normal(&topo, 1.0e-2, 0.5e-2, &mut rng);
    let context = HardwareContext::shared(&topo, Some(&cal));

    println!(
        "\n{:<10} {:>7} {:>7} {:>7} {:>7} {:>12} {:>12}",
        "method", "depth", "gates", "cx", "swaps", "succ prob", "time"
    );
    for (name, options) in [
        ("NAIVE", CompileOptions::naive()),
        ("QAIM", CompileOptions::qaim_only()),
        ("IP", CompileOptions::ip()),
        ("IC", CompileOptions::ic()),
        ("VIC", CompileOptions::vic()),
    ] {
        let artifact = try_compile_artifact_with_context(&spec, &context, &options, &mut rng)?;
        let compiled = artifact.template();
        assert!(qroute::satisfies_coupling(compiled.physical(), &topo));
        println!(
            "{:<10} {:>7} {:>7} {:>7} {:>7} {:>12.3e} {:>12?}",
            name,
            compiled.depth(),
            compiled.gate_count(),
            compiled.cx_count(),
            compiled.swap_count(),
            compiled.success_probability(&cal),
            compiled.elapsed()
        );
    }
    Ok(())
}
