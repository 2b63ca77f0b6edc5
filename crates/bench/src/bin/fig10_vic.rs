//! Figure 10: VIC (+QAIM) vs IC (+QAIM) compiled-circuit success
//! probability on ibmq_16_melbourne with the 2020-04-08 calibration —
//! Erdős–Rényi (p=0.5) and 6-regular graphs, 13–15 nodes.
//!
//! Usage: `fig10_vic [instances-per-bar] [trajectories] [--manifest <path>] [--trace <path>]`
//! (paper: 20 instances/bar).
//!
//! With `trajectories > 0` the table adds *measured* mean fidelities
//! next to the calibration-predicted ESP: each compiled circuit is run
//! through [`TrajectorySimulator::mean_fidelity`] against its noiseless
//! state. The default of 0 trajectories keeps the original ESP-only
//! output and cost.

use bench::cli::Cli;
use bench::stats::mean;
use bench::workloads::{instances, Family};
use qcompile::{try_compile_artifact_with_context, CompileOptions};
use qhw::{Calibration, HardwareContext};
use qsim::{NoiseModel, StateVector, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("fig10_vic");
    let count = cli.pos_usize(0, 20);
    let trajectories = cli.pos_u32(1, 0);
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let sim = TrajectorySimulator::new(NoiseModel::new(cal.clone()));
    let context = HardwareContext::shared(&topo, Some(&cal));

    println!(
        "=== Figure 10: VIC vs IC success probability ({}, {count} instances/bar) ===",
        topo.name()
    );
    for (title, family) in [
        ("erdos-renyi p=0.5", Family::ErdosRenyi(0.5)),
        ("regular k=6", Family::Regular(6)),
    ] {
        println!("\n-- {title} --");
        print!(
            "{:<18} {:>10} {:>10} {:>10}",
            "nodes", "SP(ic)", "SP(vic)", "vic/ic"
        );
        if trajectories > 0 {
            print!("{:>10} {:>10}", "F(ic)", "F(vic)");
        }
        println!();
        for n in [13usize, 14, 15] {
            let graphs = instances(family, n, count, 10_001);
            let mut sp = [Vec::new(), Vec::new()];
            let mut fid = [Vec::new(), Vec::new()];
            for (gi, g) in graphs.into_iter().enumerate() {
                let spec = bench::compilation_spec(g, true);
                for (si, options) in [CompileOptions::ic(), CompileOptions::vic()]
                    .iter()
                    .enumerate()
                {
                    let mut rng = StdRng::seed_from_u64(10_100 + gi as u64);
                    let artifact =
                        try_compile_artifact_with_context(&spec, &context, options, &mut rng)
                            .expect("melbourne fits every instance");
                    let c = artifact.template();
                    sp[si].push(c.success_probability(&cal));
                    if trajectories > 0 {
                        let ideal = StateVector::from_circuit(c.physical());
                        fid[si].push(sim.mean_fidelity(
                            c.physical(),
                            &ideal,
                            trajectories,
                            &mut rng,
                        ));
                    }
                }
            }
            let (m_ic, m_vic) = (mean(&sp[0]), mean(&sp[1]));
            print!(
                "{:<18} {:>10.3e} {:>10.3e} {:>10.3}",
                n,
                m_ic,
                m_vic,
                m_vic / m_ic
            );
            if trajectories > 0 {
                print!("{:>10.3e} {:>10.3e}", mean(&fid[0]), mean(&fid[1]));
            }
            println!();
        }
    }
    println!("\n(paper: VIC improves mean success probability by ~80% on ER graphs and ~45%\n on regular graphs, with the gap widening at larger sizes)");
    cli.write_manifest();
}
