//! `qroute::verify` coverage on VIC-routed circuits under degraded
//! calibrations.
//!
//! VIC is the pass most exposed to calibration quality: its routing
//! metric is built from `1 / success_rate` edge weights, so a drifted or
//! extreme table changes every SWAP decision. These tests pin that no
//! matter how skewed the (still valid) table is, the routed circuit
//! remains coupling-compliant and functionally equivalent to the logical
//! program — and that corrupted tables take the fallback path to an
//! equally verified circuit.

use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::fault::{FaultInjector, FaultKind};
use qhw::{Calibration, HardwareContext, Topology};
use qroute::{routed_equivalent, satisfies_coupling};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The logical reference circuit in spec order (CPHASEs commute, so any
/// ordering a pass chose must be equivalent to this one).
fn logical_reference(spec: &QaoaSpec) -> qcircuit::Circuit {
    let n = spec.num_qubits();
    let mut c = qcircuit::Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for (level, (ops, beta)) in spec.levels().iter().enumerate() {
        for op in ops {
            c.rzz(op.angle, op.a, op.b);
        }
        for &(q, angle) in spec.field_terms(level) {
            c.rz(angle, q);
        }
        for q in 0..n {
            c.rx(beta.scaled(2.0), q);
        }
    }
    if spec.measure() {
        c.measure_all();
    }
    c
}

fn small_spec(seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(10, 0.35, 1000, &mut rng).unwrap();
    let problem = qaoa::MaxCut::without_optimum(g);
    QaoaSpec::from_maxcut(&problem, &qaoa::QaoaParams::p1(0.5, 0.3), true)
}

fn assert_verified(spec: &QaoaSpec, topo: &Topology, compiled: &qcompile::CompiledCircuit) {
    assert!(
        satisfies_coupling(compiled.physical(), topo),
        "coupling violated"
    );
    assert!(
        routed_equivalent(
            &logical_reference(spec),
            compiled.physical(),
            compiled.initial_layout(),
            compiled.final_layout(),
        ),
        "routed circuit is not equivalent to the logical program"
    );
}

#[test]
fn vic_routed_circuits_verify_under_heavy_drift() {
    // Melbourne (15 qubits) keeps full state-vector equivalence feasible.
    let topo = Topology::ibmq_16_melbourne();
    let base = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    for seed in 0..5u64 {
        let drifted =
            FaultInjector::new(seed).corrupt_calibration(&topo, &base, FaultKind::HeavyDrift);
        assert!(drifted.validate(&topo).is_ok(), "drift stays valid");
        let context = HardwareContext::with_calibration(topo.clone(), drifted);
        let spec = small_spec(500 + seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &CompileOptions::vic(), &mut rng)
                .unwrap();
        let compiled = artifact.template();
        assert!(!compiled.trace().degraded(), "valid table needs no ladder");
        assert_verified(&spec, &topo, compiled);
    }
}

#[test]
fn vic_routed_circuits_verify_under_extreme_valid_tables() {
    let topo = Topology::ibmq_16_melbourne();
    let spec = small_spec(7);
    // Both validity extremes: a near-perfect device and one at the edge
    // of MAX_ERROR, where every reliability weight saturates.
    for (cnot, single, readout) in [
        (qhw::MIN_ERROR, qhw::MIN_ERROR, qhw::MIN_ERROR),
        (qhw::MAX_ERROR, 0.01, qhw::MAX_ERROR),
        (0.49, 0.001, 0.3),
    ] {
        let cal = Calibration::uniform(&topo, cnot, single, readout);
        assert!(cal.validate(&topo).is_ok());
        let context = HardwareContext::with_calibration(topo.clone(), cal);
        let mut rng = StdRng::seed_from_u64(9);
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &CompileOptions::vic(), &mut rng)
                .unwrap();
        let compiled = artifact.template();
        assert_verified(&spec, &topo, compiled);
    }
}

#[test]
fn fallback_vic_circuits_verify_like_primary_ones() {
    // A corrupted table pushes VIC down the ladder; the delivered circuit
    // must verify exactly as a primary compile would — re-checked here
    // externally, independent of the pipeline's internal verification.
    let topo = Topology::ibmq_16_melbourne();
    let base = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    for kind in [
        FaultKind::NanRate,
        FaultKind::DeadLink,
        FaultKind::MissingEntry,
    ] {
        let bad = FaultInjector::new(21).corrupt_calibration(&topo, &base, kind);
        let context = HardwareContext::with_calibration(topo.clone(), bad);
        let spec = small_spec(11);
        let mut rng = StdRng::seed_from_u64(3);
        let options = CompileOptions::vic().with_fallback();
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &options, &mut rng).unwrap();
        let compiled = artifact.template();
        assert!(compiled.trace().degraded(), "{}", kind.label());
        assert_verified(&spec, &topo, compiled);
    }
}
