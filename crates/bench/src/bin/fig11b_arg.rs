//! Figure 11(b): Approximation Ratio Gap (ARG) of QAIM / IP / IC / VIC
//! circuits "on hardware" — here, the stochastic-Pauli trajectory
//! simulator with the melbourne 2020-04-08 calibration (see DESIGN.md §4
//! for the substitution).
//!
//! Per instance: optimize p=1 parameters (analytic grid + Nelder–Mead),
//! compile with each strategy, sample 40960 shots noiselessly (r0) and
//! under noise (rh), report ARG = 100·(r0−rh)/r0 averaged per strategy.
//!
//! Usage: `fig11b_arg [instances-per-family] [shots] [trajectories]
//! [--manifest <path>] [--trace <path>]` (paper: 20 instances/family,
//! 40960 shots; defaults 5 / 8192 / 64).

use bench::cli::Cli;
use bench::stats::{mean, row};
use bench::workloads::{instances, Family};
use qaoa::{approximation_ratio_from_counts, approximation_ratio_gap, qaoa_circuit, MaxCut};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext};
use qsim::{NoiseModel, Sampler, StateVector, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("fig11b_arg");
    let per_family = cli.pos_usize(0, 5);
    let shots = cli.pos_u64(1, 8192);
    let trajectories = cli.pos_u32(2, 64);
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let sim = TrajectorySimulator::new(NoiseModel::new(cal.clone()));
    let context = HardwareContext::shared(&topo, Some(&cal));

    let strategies = [
        ("QAIM", CompileOptions::qaim_only()),
        ("IP", CompileOptions::ip()),
        ("IC", CompileOptions::ic()),
        ("VIC", CompileOptions::vic()),
    ];

    println!(
        "=== Figure 11(b): ARG on {} ({} instances/family, {} shots, {} trajectories) ===",
        topo.name(),
        per_family,
        shots,
        trajectories
    );
    for (title, family) in [
        ("erdos-renyi p=0.5 (12 nodes)", Family::ErdosRenyi(0.5)),
        ("regular k=6 (12 nodes)", Family::Regular(6)),
    ] {
        println!("\n-- {title} --");
        let mut args = vec![Vec::new(); strategies.len()];
        for (gi, g) in instances(family, 12, per_family, 11_201)
            .into_iter()
            .enumerate()
        {
            let problem = MaxCut::new(g);
            let (params, _) = qaoa::optimize::grid_then_nelder_mead(&problem, 1, 24);
            let spec = QaoaSpec::from_maxcut(&problem, &params, true);

            // Ideal approximation ratio r0: sample the logical circuit.
            let ideal_state = StateVector::from_circuit(&qaoa_circuit(&problem, &params, false));
            let mut rng = StdRng::seed_from_u64(40_000 + gi as u64);
            let ideal_counts = Sampler::new(&ideal_state).sample_counts(shots, &mut rng);
            let r0 = approximation_ratio_from_counts(&problem, &ideal_counts);

            for (si, (_, options)) in strategies.iter().enumerate() {
                let mut c_rng = StdRng::seed_from_u64(41_000 + gi as u64);
                let artifact =
                    try_compile_artifact_with_context(&spec, &context, options, &mut c_rng)
                        .expect("melbourne fits every instance");
                let compiled = artifact.template();
                // "Hardware" run: trajectory-noise sampling of the routed
                // circuit, costs evaluated on logical bits via the final
                // layout.
                let mut h_rng = StdRng::seed_from_u64(42_000 + gi as u64);
                let counts = sim.sample(compiled.physical(), shots, trajectories, &mut h_rng);
                let logical_counts: qsim::Counts = counts
                    .iter()
                    .map(|(&phys_state, &k)| {
                        let mut logical_state = 0usize;
                        for l in 0..problem.num_vars() {
                            let p = compiled.final_layout().phys(l);
                            if phys_state >> p & 1 == 1 {
                                logical_state |= 1 << l;
                            }
                        }
                        (logical_state, k)
                    })
                    .fold(qsim::Counts::new(), |mut acc, (s, k)| {
                        *acc.entry(s).or_insert(0) += k;
                        acc
                    });
                let rh = approximation_ratio_from_counts(&problem, &logical_counts);
                args[si].push(approximation_ratio_gap(r0, rh));
            }
        }
        println!("{:<18} {:>10}", "method", "ARG (%)");
        for (si, (name, _)) in strategies.iter().enumerate() {
            println!("{}", row(name, &[mean(&args[si])]));
        }
    }
    println!("\n(paper: ARG improves QAIM → IP → IC → VIC; IC ≈8.5% below IP, VIC ≈7.4% below IC)");
    cli.write_manifest();
}
