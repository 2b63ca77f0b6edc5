//! Ablation of IC's distance re-sorting: IC forms each layer from the
//! gates *closest under the current mapping* (§IV-C). Disabling the
//! re-sort (random layer formation, still incremental) quantifies how
//! much of IC's win comes from tracking the dynamic mapping versus from
//! mere incremental routing.
//!
//! Usage: `ablation_ic [instances-per-family] [--manifest <path>] [--trace <path>]` (default 20).

use bench::cli::Cli;
use bench::stats::{mean, row};
use bench::workloads::{instances, Family};
use qcompile::ic::try_compile_incremental_with;
use qcompile::mapping::qaim;
use qhw::Topology;
use qroute::RoutingMetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("ablation_ic");
    let count = cli.pos_usize(0, 20);
    let topo = Topology::ibmq_20_tokyo();
    let metric = RoutingMetric::hops(&topo);

    println!(
        "=== IC re-sorting ablation ({} instances/family, {}) ===",
        count,
        topo.name()
    );
    for family in [Family::ErdosRenyi(0.4), Family::Regular(6)] {
        println!("\n-- {family}, 20 nodes --");
        println!(
            "{:<18} {:>10} {:>10} {:>10}",
            "variant", "swaps", "depth", "gates"
        );
        for (name, resort) in [("with re-sort", true), ("no re-sort", false)] {
            let mut swaps = Vec::new();
            let mut depths = Vec::new();
            let mut gates = Vec::new();
            for (gi, g) in instances(family, 20, count, 22_001).into_iter().enumerate() {
                let spec = bench::compilation_spec(g, true);
                let layout = qaim(&spec, &topo);
                let mut rng = StdRng::seed_from_u64(22_100 + gi as u64);
                let r = try_compile_incremental_with(
                    &spec, &topo, layout, &metric, None, resort, &mut rng,
                )
                .expect("tokyo fits every instance");
                let basis = qcircuit::basis::to_basis(&r.circuit, Default::default()).unwrap();
                swaps.push(r.swap_count as f64);
                depths.push(basis.depth() as f64);
                gates.push(basis.gate_count() as f64);
            }
            println!(
                "{}",
                row(name, &[mean(&swaps), mean(&depths), mean(&gates)])
            );
        }
    }
    println!("\n(re-sorting should reduce SWAPs — the §IV-C claim that prioritizing gates\n whose qubits drifted together cuts qubit movement)");
    cli.write_manifest();
}
