//! Extension experiment: the paper's methodologies on a modern heavy-hex
//! device (max degree 3, much sparser than Tokyo). Sparse connectivity
//! amplifies the value of good initial mapping and incremental
//! compilation — this binary checks the strategy ranking carries over.
//!
//! Usage: `ext_heavy_hex [instances] [--manifest <path>] [--trace <path>]` (default 10).

use bench::cli::Cli;
use bench::stats::{mean, row};
use bench::workloads::{instances, Family};
use qcompile::{try_compile_artifact_with_context, CompileOptions};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("ext_heavy_hex");
    let count = cli.pos_usize(0, 10);
    let topo = Topology::heavy_hex(2, 2);
    let context = HardwareContext::shared(&topo, None);
    println!(
        "=== Extension: strategies on {} ({} qubits, {count} 14-node ER(0.3) instances) ===",
        topo.name(),
        topo.num_qubits()
    );
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "method", "depth", "gates", "swaps"
    );
    let strategies = [
        ("NAIVE", CompileOptions::naive()),
        ("QAIM", CompileOptions::qaim_only()),
        ("IP", CompileOptions::ip()),
        ("IC", CompileOptions::ic()),
    ];
    for (name, options) in strategies {
        let mut depths = Vec::new();
        let mut gates = Vec::new();
        let mut swaps = Vec::new();
        for (gi, g) in instances(Family::ErdosRenyi(0.3), 14, count, 32_001)
            .into_iter()
            .enumerate()
        {
            let spec = bench::compilation_spec(g, true);
            let mut rng = StdRng::seed_from_u64(32_100 + gi as u64);
            let artifact = try_compile_artifact_with_context(&spec, &context, &options, &mut rng)
                .expect("heavy-hex fits every instance");
            let c = artifact.template();
            assert!(qroute::satisfies_coupling(c.physical(), &topo));
            depths.push(c.depth() as f64);
            gates.push(c.gate_count() as f64);
            swaps.push(c.swap_count() as f64);
        }
        println!(
            "{}",
            row(name, &[mean(&depths), mean(&gates), mean(&swaps)])
        );
    }
    println!("\n(sparser couplings raise absolute costs; the NAIVE → QAIM → IP → IC ranking\n should persist)");
    cli.write_manifest();
}
