//! Integration: general Ising problems (weighted couplings + fields)
//! through the full compilation pipeline (§VI "Applicability beyond
//! QAOA-MaxCut").

use qaoa::ising::IsingProblem;
use qaoa::QaoaParams;
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{HardwareContext, Topology};
use qroute::{routed_equivalent, satisfies_coupling};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_ising(seed: u64, n: usize) -> IsingProblem {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = qgraph::generators::connected_erdos_renyi(n, 0.4, 1000, &mut rng).unwrap();
    let couplings = graph
        .edges()
        .map(|e| (e.a(), e.b(), rng.gen_range(-1.5..1.5)))
        .collect();
    let fields = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    IsingProblem::new(n, couplings, fields)
}

/// The compiled physical circuit is equivalent to the problem's logical
/// QAOA circuit (fields included), for both single-pass and incremental
/// compilation.
#[test]
fn compiled_ising_circuit_is_equivalent() {
    let problem = random_ising(3, 6);
    let params = QaoaParams::new(vec![(0.41, 0.23), (0.29, 0.37)]);
    let logical = problem.circuit(&params, false);
    let spec = QaoaSpec::from_ising(&problem, &params, false);
    let topo = Topology::ring(9);
    let context = HardwareContext::shared(&topo, None);
    for options in [
        CompileOptions::qaim_only(),
        CompileOptions::ip(),
        CompileOptions::ic(),
    ] {
        let mut rng = StdRng::seed_from_u64(5);
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &options, &mut rng).unwrap();
        let compiled = artifact.template();
        assert!(satisfies_coupling(compiled.physical(), &topo));
        assert!(
            routed_equivalent(
                &logical,
                compiled.physical(),
                compiled.initial_layout(),
                compiled.final_layout()
            ),
            "{options:?} broke Ising semantics"
        );
    }
}

/// Field rotations survive compilation with the right multiplicity and
/// weighted couplings keep their angles.
#[test]
fn field_and_coupling_gates_are_preserved() {
    let problem = IsingProblem::new(
        4,
        vec![(0, 1, 0.5), (1, 2, -0.75), (2, 3, 1.25)],
        vec![0.3, 0.0, -0.8, 0.0],
    );
    let params = QaoaParams::p1(0.6, 0.3);
    let spec = QaoaSpec::from_ising(&problem, &params, true);
    assert_eq!(spec.field_terms(0).len(), 2); // zero fields compile away
    let context = HardwareContext::shared(&Topology::linear(4), None);
    let mut rng = StdRng::seed_from_u64(1);
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .unwrap();
    let compiled = artifact.template();
    assert_eq!(compiled.physical().count_gate("rzz"), 3);
    assert_eq!(compiled.physical().count_gate("rz"), 2);
    // Angles: Rzz(2γJ)
    let angles: Vec<f64> = compiled
        .physical()
        .iter()
        .filter(|i| i.gate().name() == "rzz")
        .flat_map(|i| i.gate().params())
        .map(|a| a.value())
        .collect();
    for j in [0.5, -0.75, 1.25] {
        let want = 2.0 * 0.6 * j;
        assert!(
            angles.iter().any(|a| (a - want).abs() < 1e-12),
            "missing coupling angle {want} in {angles:?}"
        );
    }
}

/// End to end: optimized Ising QAOA sampled through a compiled circuit
/// concentrates probability on low-energy configurations.
#[test]
fn compiled_ising_sampling_finds_low_energy_states() {
    let problem = random_ising(17, 8);
    let (params, expectation) = problem.optimize(1, 16);
    let ground = problem.ground_energy();
    assert!(
        expectation < 0.9 * problem.energy(0),
        "optimizer made progress"
    );

    let spec = QaoaSpec::from_ising(&problem, &params, true);
    let context = HardwareContext::shared(&Topology::ibmq_16_melbourne(), None);
    let mut rng = StdRng::seed_from_u64(2);
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .unwrap();
    let compiled = artifact.template();

    // Noiseless sampling of the physical circuit, read back through the
    // final layout, must reproduce the optimized expectation.
    let state = qsim::StateVector::from_circuit(compiled.physical());
    let measured = state.expectation_diagonal(|phys| {
        let mut bits = 0usize;
        for l in 0..problem.num_spins() {
            if phys >> compiled.final_layout().phys(l) & 1 == 1 {
                bits |= 1 << l;
            }
        }
        problem.energy(bits)
    });
    assert!(
        (measured - expectation).abs() < 1e-6,
        "compiled expectation {measured} vs optimized {expectation} (ground {ground})"
    );
}
