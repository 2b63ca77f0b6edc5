//! Cross-crate round trip: compile → lower to the IBM basis → export
//! OpenQASM → parse back → identical circuit and metrics.

use qaoa::{MaxCut, QaoaParams};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn compiled_circuits_survive_qasm_round_trip() {
    let mut rng = StdRng::seed_from_u64(4);
    for strategy in [
        CompileOptions::naive(),
        CompileOptions::ip(),
        CompileOptions::ic(),
    ] {
        let mut g_rng = StdRng::seed_from_u64(17);
        let g = qgraph::generators::connected_erdos_renyi(10, 0.4, 1000, &mut g_rng).unwrap();
        let problem = MaxCut::without_optimum(g);
        let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.7, 0.3), true);
        let context = HardwareContext::shared(&Topology::ibmq_16_melbourne(), None);
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &strategy, &mut rng).unwrap();
        let compiled = artifact.template();

        let qasm = qcircuit::qasm::to_qasm(compiled.basis_circuit()).unwrap();
        let parsed = qcircuit::qasm::parse(&qasm).expect("exported QASM re-parses");
        assert_eq!(&parsed, compiled.basis_circuit(), "{strategy:?}");
        assert_eq!(parsed.depth(), compiled.depth());
        assert_eq!(parsed.gate_count(), compiled.gate_count());
        assert_eq!(parsed.count_gate("cx"), compiled.cx_count());
    }
}

#[test]
fn qasm_round_trip_preserves_semantics() {
    // Parse-back circuits simulate to the same state.
    let mut rng = StdRng::seed_from_u64(5);
    let g = qgraph::generators::connected_random_regular(6, 3, 1000, &mut rng).unwrap();
    let problem = MaxCut::without_optimum(g);
    let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.4, 0.2), false);
    let context = HardwareContext::shared(&Topology::ring(8), None);
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .unwrap();
    let compiled = artifact.template();

    let parsed =
        qcircuit::qasm::parse(&qcircuit::qasm::to_qasm(compiled.basis_circuit()).unwrap()).unwrap();
    let a = qsim::StateVector::from_circuit(compiled.basis_circuit());
    let b = qsim::StateVector::from_circuit(&parsed);
    assert!(a.fidelity(&b) > 1.0 - 1e-9);
}
