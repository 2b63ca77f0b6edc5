//! Layer packing-density sweep (§V-H): compile one dense 36-node instance
//! on the hypothetical 6×6 grid with IC(+QAIM) under increasing packing
//! limits and watch the depth / gate-count / compile-time trade-off.
//!
//! Run with: `cargo run --release --example packing_sweep`

use qaoa::{MaxCut, QaoaParams};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    let graph = qgraph::generators::connected_erdos_renyi(36, 0.5, 10_000, &mut rng)?;
    let problem = MaxCut::without_optimum(graph);
    let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.9, 0.35), true);
    let topo = Topology::grid(6, 6);
    let context = HardwareContext::shared(&topo, None);
    println!(
        "36-node ER(0.5) instance with {} CPHASE gates on {}",
        spec.total_cphase_count(),
        topo.name()
    );

    println!(
        "\n{:<15} {:>7} {:>7} {:>7} {:>12}",
        "packing limit", "depth", "gates", "swaps", "time"
    );
    for limit in [1usize, 2, 3, 5, 7, 9, 11, 13, 15, 18] {
        let options = CompileOptions::ic().with_packing_limit(limit);
        let mut c_rng = StdRng::seed_from_u64(17);
        let artifact = try_compile_artifact_with_context(&spec, &context, &options, &mut c_rng)?;
        let compiled = artifact.template();
        println!(
            "{:<15} {:>7} {:>7} {:>7} {:>12?}",
            limit,
            compiled.depth(),
            compiled.gate_count(),
            compiled.swap_count(),
            compiled.elapsed()
        );
    }
    println!("\n(the paper's Figure 12: depth improves with packing then degrades;\n gate count grows with packing; compile time falls)");
    Ok(())
}
