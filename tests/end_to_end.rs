//! End-to-end integration: problem graph → QAOA parameters → compilation
//! with every strategy → verification → noisy execution → ARG.

use qaoa::{
    approximation_ratio_from_counts, approximation_ratio_gap, qaoa_circuit, MaxCut, QaoaParams,
};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext, Topology};
use qroute::{routed_equivalent, satisfies_coupling};
use qsim::{Counts, NoiseModel, Sampler, StateVector, TrajectorySimulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_strategies() -> [(&'static str, CompileOptions); 5] {
    [
        ("naive", CompileOptions::naive()),
        ("qaim", CompileOptions::qaim_only()),
        ("ip", CompileOptions::ip()),
        ("ic", CompileOptions::ic()),
        ("vic", CompileOptions::vic()),
    ]
}

/// Every strategy produces a coupling-compliant circuit that is
/// *functionally equivalent* to the logical QAOA circuit (verified by
/// statevector simulation through the layout permutation).
#[test]
fn compiled_circuits_are_equivalent_to_logical() {
    let mut rng = StdRng::seed_from_u64(11);
    let graph = qgraph::generators::connected_erdos_renyi(6, 0.5, 1000, &mut rng).unwrap();
    let problem = MaxCut::new(graph);
    let params = QaoaParams::p1(0.63, 0.29);
    let spec = QaoaSpec::from_maxcut(&problem, &params, false);
    let logical = qaoa_circuit(&problem, &params, false);
    // A 10-qubit device keeps the equivalence check cheap.
    let topo = Topology::ring(10);
    let cal = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut rng);
    let context = HardwareContext::shared(&topo, Some(&cal));

    for (name, options) in all_strategies() {
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &options, &mut rng).unwrap();
        let compiled = artifact.template();
        assert!(
            satisfies_coupling(compiled.physical(), &topo),
            "{name} violates coupling"
        );
        assert!(
            routed_equivalent(
                &logical,
                compiled.physical(),
                compiled.initial_layout(),
                compiled.final_layout()
            ),
            "{name} compiled circuit is not equivalent"
        );
    }
}

/// The compiled circuit sampled under heavy trajectory noise has a worse
/// approximation ratio than the noiseless circuit — and the gap (ARG) is
/// positive and larger for a strategy producing bigger circuits.
#[test]
fn arg_orders_strategies_sensibly() {
    let mut rng = StdRng::seed_from_u64(23);
    let graph = qgraph::generators::connected_erdos_renyi(10, 0.5, 1000, &mut rng).unwrap();
    let problem = MaxCut::new(graph);
    let (params, _) = qaoa::optimize::grid_then_nelder_mead(&problem, 1, 16);
    let spec = QaoaSpec::from_maxcut(&problem, &params, true);
    let (topo, cal) = Calibration::melbourne_2020_04_08();

    let shots = 4096;
    let ideal = StateVector::from_circuit(&qaoa_circuit(&problem, &params, false));
    let r0 = approximation_ratio_from_counts(
        &problem,
        &Sampler::new(&ideal).sample_counts(shots, &mut rng),
    );
    assert!(
        r0.value() > 0.6,
        "p=1 QAOA should beat random guessing: {r0}"
    );

    let sim = TrajectorySimulator::new(NoiseModel::new(cal.clone()));
    let context = HardwareContext::shared(&topo, Some(&cal));
    let mut arg_of = |options: &CompileOptions| -> f64 {
        let artifact =
            try_compile_artifact_with_context(&spec, &context, options, &mut rng).unwrap();
        let compiled = artifact.template();
        let physical_counts = sim.sample(compiled.physical(), shots, 64, &mut rng);
        let mut logical_counts = Counts::new();
        for (phys, k) in physical_counts {
            let mut state = 0usize;
            for l in 0..problem.num_vars() {
                if phys >> compiled.final_layout().phys(l) & 1 == 1 {
                    state |= 1 << l;
                }
            }
            *logical_counts.entry(state).or_insert(0) += k;
        }
        let rh = approximation_ratio_from_counts(&problem, &logical_counts);
        approximation_ratio_gap(r0, rh)
    };

    let arg_naive = arg_of(&CompileOptions::naive());
    let arg_ic = arg_of(&CompileOptions::ic());
    assert!(arg_naive > 0.0, "noise must open a gap: {arg_naive}");
    assert!(arg_ic > 0.0, "noise must open a gap: {arg_ic}");
    assert!(
        arg_ic < arg_naive + 3.0,
        "IC ARG {arg_ic} should not be substantially worse than NAIVE {arg_naive}"
    );
}

/// Readout through the final layout keeps cut statistics intact: sampling
/// the *routed* circuit noiselessly gives the same approximation ratio as
/// the logical circuit.
#[test]
fn routed_sampling_matches_logical_distribution() {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = qgraph::generators::connected_random_regular(8, 3, 1000, &mut rng).unwrap();
    let problem = MaxCut::new(graph);
    let params = QaoaParams::p1(0.5, 0.3);
    let spec = QaoaSpec::from_maxcut(&problem, &params, true);
    let context = HardwareContext::shared(&Topology::ring(10), None);
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .unwrap();
    let compiled = artifact.template();

    let logical_state = StateVector::from_circuit(&qaoa_circuit(&problem, &params, false));
    let exact = logical_state.expectation_diagonal(|bits| problem.cut_value(bits) as f64);

    let routed_state = StateVector::from_circuit(compiled.physical());
    let routed_expectation = routed_state.expectation_diagonal(|phys| {
        let mut state = 0usize;
        for l in 0..problem.num_vars() {
            if phys >> compiled.final_layout().phys(l) & 1 == 1 {
                state |= 1 << l;
            }
        }
        problem.cut_value(state) as f64
    });
    assert!(
        (exact - routed_expectation).abs() < 1e-9,
        "logical {exact} vs routed {routed_expectation}"
    );
}

/// Strategy quality ordering on a batch of instances (the Figure 11(a)
/// trend): mean depth NAIVE >= QAIM > IP > IC, and IC gates < IP gates.
#[test]
fn strategy_quality_ordering() {
    let topo = Topology::ibmq_20_tokyo();
    let mut rng = StdRng::seed_from_u64(31);
    let mut depth = [0usize; 5];
    let mut gates = [0usize; 5];
    let instances = 6;
    for i in 0..instances {
        let mut g_rng = StdRng::seed_from_u64(600 + i);
        let g = qgraph::generators::connected_erdos_renyi(18, 0.4, 1000, &mut g_rng).unwrap();
        let problem = MaxCut::without_optimum(g);
        let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.9, 0.35), true);
        let cal = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut rng);
        let context = HardwareContext::shared(&topo, Some(&cal));
        for (si, (_, options)) in all_strategies().iter().enumerate() {
            let artifact =
                try_compile_artifact_with_context(&spec, &context, options, &mut rng).unwrap();
            let c = artifact.template();
            depth[si] += c.depth();
            gates[si] += c.gate_count();
        }
    }
    let [d_naive, d_qaim, d_ip, d_ic, d_vic] = depth;
    let [_, g_qaim, g_ip, g_ic, _] = gates;
    assert!(d_qaim <= d_naive, "QAIM depth {d_qaim} vs NAIVE {d_naive}");
    assert!(d_ip < d_qaim, "IP depth {d_ip} vs QAIM {d_qaim}");
    assert!(d_ic < d_ip, "IC depth {d_ic} vs IP {d_ip}");
    // VIC optimises reliability, not depth, so it may pay a small depth
    // premium over IC; the margin is statistical (instance- and
    // RNG-stream-dependent), hence the slack.
    assert!(
        (d_vic as f64) < 1.25 * d_ic as f64,
        "VIC depth {d_vic} near IC {d_ic}"
    );
    assert!(g_ic < g_ip, "IC gates {g_ic} vs IP {g_ip}");
    assert!(g_ic < g_qaim, "IC gates {g_ic} vs QAIM {g_qaim}");
}
