//! Beyond MaxCut (§VI): solve a general Ising problem — weighted
//! couplings plus longitudinal fields — end to end: optimize, compile
//! with IC(+QAIM) for melbourne, sample, and report the best found
//! configuration against the true ground state.
//!
//! Run with: `cargo run --release --example ising_fields`

use qaoa::ising::IsingProblem;
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext};
use qsim::{Sampler, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A frustrated 10-spin system: random ±J couplings on a connected
    // random graph plus weak random fields.
    let mut rng = StdRng::seed_from_u64(99);
    let n = 10;
    let graph = qgraph::generators::connected_erdos_renyi(n, 0.35, 10_000, &mut rng)?;
    let couplings: Vec<(usize, usize, f64)> = graph
        .edges()
        .map(|e| (e.a(), e.b(), if rng.gen_bool(0.5) { 1.0 } else { -1.0 }))
        .collect();
    let fields: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.3..0.3)).collect();
    let problem = IsingProblem::new(n, couplings, fields);
    let ground = problem.ground_energy();
    println!(
        "{n}-spin Ising instance: {} couplings, ground energy {ground:.3}",
        problem.couplings().len()
    );

    // Optimize p=2 parameters by simulation.
    let (params, expectation) = problem.optimize(2, 16);
    println!(
        "optimized p=2 expectation: {expectation:.3} ({:.1}% of ground)",
        100.0 * expectation / ground
    );

    // Compile for melbourne with IC(+QAIM).
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let spec = QaoaSpec::from_ising(&problem, &params, true);
    let mut c_rng = StdRng::seed_from_u64(7);
    let context = HardwareContext::shared(&topo, Some(&cal));
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut c_rng)?;
    let compiled = artifact.template();
    println!(
        "compiled: depth {}, {} gates, {} SWAPs, success probability {:.3e}",
        compiled.depth(),
        compiled.gate_count(),
        compiled.swap_count(),
        compiled.success_probability(&cal)
    );

    // Sample the compiled circuit (noiselessly) and report the best
    // configuration found among 2048 shots.
    let state = StateVector::from_circuit(compiled.physical());
    let counts = Sampler::new(&state).sample_counts(2048, &mut c_rng);
    let mut best = (usize::MAX, f64::INFINITY);
    for &phys in counts.keys() {
        let mut bits = 0usize;
        for l in 0..n {
            if phys >> compiled.final_layout().phys(l) & 1 == 1 {
                bits |= 1 << l;
            }
        }
        let e = problem.energy(bits);
        if e < best.1 {
            best = (bits, e);
        }
    }
    println!(
        "best sampled configuration: {:0width$b} with energy {:.3} (ground {ground:.3})",
        best.0,
        best.1,
        width = n
    );
    assert!(
        best.1 <= ground + 1e-9 || best.1 - ground < 2.0,
        "sampling found a good state"
    );
    Ok(())
}
