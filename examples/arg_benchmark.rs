//! End-to-end ARG measurement for one instance: optimize QAOA parameters,
//! compile with IC, sample the ideal circuit on the noiseless simulator
//! and the compiled circuit on the trajectory-noise "hardware", and report
//! the Approximation Ratio Gap (§V-A).
//!
//! Run with: `cargo run --release --example arg_benchmark [nodes] [shots]`

use qaoa::{approximation_ratio_from_counts, approximation_ratio_gap, qaoa_circuit, MaxCut};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext};
use qsim::{Counts, NoiseModel, Sampler, StateVector, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let shots: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);

    let mut rng = StdRng::seed_from_u64(77);
    let graph = qgraph::generators::connected_erdos_renyi(nodes, 0.5, 10_000, &mut rng)?;
    let problem = MaxCut::new(graph);
    println!(
        "{nodes}-node ER(0.5) MaxCut instance: {} edges, optimum {}",
        problem.graph().edge_count(),
        problem.max_value()
    );

    // 1. Optimize p=1 parameters on the noiseless simulator.
    let (params, expectation) = qaoa::optimize::grid_then_nelder_mead(&problem, 1, 24);
    println!(
        "optimized (gamma, beta) = ({:.3}, {:.3}); ideal expectation ratio {:.3}",
        params.levels()[0].0,
        params.levels()[0].1,
        expectation / problem.max_value()
    );

    // 2. Ideal approximation ratio r0 from finite sampling.
    let ideal = StateVector::from_circuit(&qaoa_circuit(&problem, &params, false));
    let r0 = approximation_ratio_from_counts(
        &problem,
        &Sampler::new(&ideal).sample_counts(shots, &mut rng),
    );
    println!("r0 (noiseless, {shots} shots) = {r0}");

    // 3. Compile for melbourne and "run on hardware" (trajectory noise).
    //    The compile flow never looks at the angles, so the parametric
    //    template is compiled once and the optimized parameters are
    //    bound into it afterwards — re-optimizing (or sweeping p=1
    //    angles) would reuse the same artifact with fresh `bind` calls.
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let spec = QaoaSpec::from_maxcut_parametric(&problem, 1, true);
    let context = HardwareContext::shared(&topo, Some(&cal));
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)?;
    let compiled = artifact.bind(&params.to_values())?;
    println!(
        "compiled with IC(+QAIM): depth {}, {} CNOTs, {} SWAPs",
        compiled.depth(),
        compiled.cx_count(),
        compiled.swap_count()
    );

    let sim = TrajectorySimulator::new(NoiseModel::new(cal));
    let physical_counts = sim.sample(compiled.physical(), shots, 128, &mut rng);
    // Read results back through the final layout.
    let mut logical_counts = Counts::new();
    for (phys_state, k) in physical_counts {
        let mut logical_state = 0usize;
        for l in 0..problem.num_vars() {
            if phys_state >> compiled.final_layout().phys(l) & 1 == 1 {
                logical_state |= 1 << l;
            }
        }
        *logical_counts.entry(logical_state).or_insert(0) += k;
    }
    let rh = approximation_ratio_from_counts(&problem, &logical_counts);
    println!("rh (hardware model, {shots} shots) = {rh}");
    println!("ARG = {:.2}%", approximation_ratio_gap(r0, rh));
    Ok(())
}
