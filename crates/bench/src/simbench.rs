//! Simulation-engine throughput workloads: the statevector and
//! noisy-density hot paths every fidelity number in the paper flows
//! through.
//!
//! The `baseline` binary runs these workloads (`baseline sim` /
//! `baseline sim_quick`), both to regenerate the committed baselines and
//! as the CI measurement the `regress` gate diffs. Two configurations
//! exist:
//!
//! * **full** (`figure = "sim"`) — the paper-scale sizes, matching the
//!   committed `results/BENCH_sim_baseline.json` labels;
//! * **quick** (`figure = "sim_quick"`) — CI smoke sizes, seconds of wall
//!   clock, compared in CI against `results/BENCH_sim_quick.json`. Quick
//!   mode gets its own figure name because its labels (e.g. `sv_14q_p2`)
//!   differ from full mode's — diffing a quick run against a full
//!   baseline would share no series and the `regress` gate errors out
//!   rather than passing vacuously.
//!
//! Workloads:
//! * `sv_<n>q_p<p>` — noiseless statevector of an n-qubit, p-level QAOA
//!   circuit on a 3-regular graph (the paper's largest execution regime).
//! * `density_fig10_<n>q` — exact density-matrix evolution of a
//!   VIC-compiled Erdős–Rényi instance under the calibrated Pauli-channel
//!   noise model: the Fig. 10 success-probability workload at
//!   density-matrix scale.
//! * `trajectory_<n>q` — trajectory-noise sampling of an IC-compiled
//!   instance on melbourne (the Fig. 11b "hardware" path).

use std::time::Instant;

use crate::report::Report;
use crate::stats::{mean, std_dev};
use crate::workloads::{instances, Family};
use qaoa::{qaoa_circuit, MaxCut, QaoaParams};
use qcircuit::Circuit;
use qcompile::{try_compile_artifact_with_context, CompileOptions};
use qhw::{Calibration, HardwareContext, Topology};
use qsim::{NoiseModel, StateVector, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One throughput configuration (sizes and sample counts).
pub struct Config {
    /// Report figure name (`"sim"` or `"sim_quick"`).
    pub figure: &'static str,
    sv_nodes: usize,
    sv_levels: usize,
    sv_samples: usize,
    density_nodes: usize,
    density_samples: usize,
    traj_nodes: usize,
    traj_samples: usize,
}

/// Paper-scale sizes; labels match `results/BENCH_sim_baseline.json`.
pub const FULL: Config = Config {
    figure: "sim",
    sv_nodes: 20,
    sv_levels: 2,
    sv_samples: 5,
    density_nodes: 8,
    density_samples: 3,
    traj_nodes: 12,
    traj_samples: 5,
};

/// CI smoke sizes: same code paths, seconds of wall clock, own figure
/// name (see the module docs).
pub const QUICK: Config = Config {
    figure: "sim_quick",
    sv_nodes: 14,
    sv_levels: 2,
    sv_samples: 3,
    density_nodes: 6,
    density_samples: 2,
    traj_nodes: 10,
    traj_samples: 3,
};

/// The p-level QAOA statevector workload circuit.
fn sv_circuit(nodes: usize, levels: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(nodes as u64);
    let g = qgraph::generators::connected_random_regular(nodes, 3, 10_000, &mut rng)
        .expect("regular graph");
    let problem = MaxCut::without_optimum(g);
    let params = QaoaParams::new((0..levels).map(|k| (0.9 / (k + 1) as f64, 0.35)).collect());
    qaoa_circuit(&problem, &params, false)
}

/// A VIC-compiled physical circuit plus noise model on a linear device —
/// the Fig. 10 success-probability workload shrunk to density-matrix size.
fn density_workload(nodes: usize) -> (Circuit, NoiseModel) {
    let topo = Topology::linear(nodes);
    let cal = Calibration::uniform(&topo, 0.02, 0.002, 0.02);
    let g = instances(Family::ErdosRenyi(0.5), nodes, 1, 10_001).remove(0);
    let spec = crate::compilation_spec(g, false);
    let mut rng = StdRng::seed_from_u64(77);
    let context = HardwareContext::shared(&topo, Some(&cal));
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::vic(), &mut rng)
            .expect("linear device fits the instance");
    let model = NoiseModel::new(cal).with_idle_error(1e-3);
    (artifact.template().physical().clone(), model)
}

/// An IC-compiled instance on melbourne for the trajectory sampler.
fn trajectory_workload(nodes: usize) -> (Circuit, TrajectorySimulator) {
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let g = instances(Family::ErdosRenyi(0.5), nodes, 1, 11_201).remove(0);
    let spec = crate::compilation_spec(g, true);
    let mut rng = StdRng::seed_from_u64(78);
    let context = HardwareContext::shared(&topo, Some(&cal));
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .expect("melbourne fits the instance");
    let sim = TrajectorySimulator::new(NoiseModel::new(cal));
    (artifact.template().physical().clone(), sim)
}

/// Times `samples` runs of `f` (after one warmup), returning per-run ms.
fn time_ms<O>(samples: usize, mut f: impl FnMut() -> O) -> Vec<f64> {
    std::hint::black_box(f());
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

fn print_series(label: &str, ms: &[f64]) {
    println!(
        "{label:<28} {:>10.2} ms  ±{:>8.2}  (n={})",
        mean(ms),
        std_dev(ms),
        ms.len()
    );
}

/// Runs the three throughput workloads at `cfg` sizes, printing a table
/// and returning the per-series [`Report`].
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::new(cfg.figure);
    println!("=== sim_throughput ({}) ===", cfg.figure);

    // Statevector: n-qubit, p-level QAOA.
    let circuit = sv_circuit(cfg.sv_nodes, cfg.sv_levels);
    let label = format!("sv_{}q_p{}/ms", cfg.sv_nodes, cfg.sv_levels);
    let ms = time_ms(cfg.sv_samples, || StateVector::from_circuit(&circuit));
    print_series(&label, &ms);
    report.add(label, &ms);

    // Noisy density evolution of the compiled fig10-style instance.
    let (physical, model) = density_workload(cfg.density_nodes);
    let label = format!("density_fig10_{}q/ms", cfg.density_nodes);
    let ms = time_ms(cfg.density_samples, || {
        qsim::density::evolve_with_noise(&physical, &model)
    });
    print_series(&label, &ms);
    report.add(label, &ms);

    // Trajectory-noise sampling of the compiled fig11b-style instance.
    let (physical, sim) = trajectory_workload(cfg.traj_nodes);
    let label = format!("trajectory_{}q/ms", cfg.traj_nodes);
    let ms = time_ms(cfg.traj_samples, || {
        let mut rng = StdRng::seed_from_u64(5);
        sim.sample(&physical, 1024, 16, &mut rng)
    });
    print_series(&label, &ms);
    report.add(label, &ms);

    report
}
