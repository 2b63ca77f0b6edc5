//! Extension experiment: multi-level QAOA (p = 1…4).
//!
//! §II notes that "QAOA performance improves with added levels in the
//! PQC"; the compilation cost grows linearly in p (each level contributes
//! one commuting CPHASE block). This binary measures both sides:
//!
//! 1. the optimized expectation ratio versus p (12-node instances, exact
//!    simulation), and
//! 2. the compiled circuit cost versus p under IC(+QAIM) on
//!    ibmq_20_tokyo.
//!
//! Usage: `ext_p_sweep [instances] [--manifest <path>] [--trace <path>]` (default 3).

use bench::cli::Cli;
use bench::stats::mean;
use bench::workloads::{instances, Family};
use qaoa::MaxCut;
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("ext_p_sweep");
    let count = cli.pos_usize(0, 3);
    let context = HardwareContext::shared(&Topology::ibmq_20_tokyo(), None);

    println!("=== Extension: QAOA level sweep ({count} 12-node 3-regular instances) ===");
    println!(
        "{:<4} {:>14} {:>10} {:>10} {:>10} {:>12}",
        "p", "approx ratio", "depth", "gates", "swaps", "compile"
    );
    for p in 1..=4usize {
        let mut ratios = Vec::new();
        let mut depths = Vec::new();
        let mut gates = Vec::new();
        let mut swaps = Vec::new();
        let mut times = Vec::new();
        for (gi, g) in instances(Family::Regular(3), 12, count, 30_001)
            .into_iter()
            .enumerate()
        {
            let problem = MaxCut::new(g);
            let (params, expectation) = qaoa::optimize::grid_then_nelder_mead(&problem, p, 16);
            ratios.push(expectation / problem.max_value());
            let spec = QaoaSpec::from_maxcut(&problem, &params, true);
            let mut rng = StdRng::seed_from_u64(30_100 + gi as u64);
            let artifact =
                try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
                    .expect("tokyo fits every instance");
            let c = artifact.template();
            depths.push(c.depth() as f64);
            gates.push(c.gate_count() as f64);
            swaps.push(c.swap_count() as f64);
            times.push(c.elapsed().as_secs_f64());
        }
        println!(
            "{:<4} {:>14.4} {:>10.1} {:>10.1} {:>10.1} {:>10.1}us",
            p,
            mean(&ratios),
            mean(&depths),
            mean(&gates),
            mean(&swaps),
            mean(&times) * 1e6
        );
    }
    println!("\n(expectation ratio rises monotonically with p; compiled cost grows ~linearly)");
    cli.write_manifest();
}
