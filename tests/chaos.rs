//! Chaos campaign: the compile service invariant under injected faults.
//!
//! For *any* fault the [`qhw::fault`] injector can produce — corrupted
//! calibration feeds, degraded topologies, exhausted budgets, poisoned
//! batch jobs — every compile job must end in exactly one of two states:
//!
//! 1. a **verified** [`qcompile::CompiledCircuit`] (coupling-compliant,
//!    and functionally equivalent to the logical program on devices small
//!    enough to simulate), or
//! 2. a **structured** [`qcompile::CompileError`].
//!
//! Never a panic, never an unverified circuit. The seeded campaign below
//! replays several hundred scenarios; the proptest block fuzzes seed ×
//! fault-class combinations beyond the fixed grid. The CI `chaos` job
//! runs the same invariant via `bench`'s deterministic manifest gate.

use qcompile::{
    compile_batch, try_compile_artifact_with_context, BatchJob, CompileError, CompileOptions,
    CompiledArtifact, QaoaSpec, FULL_VERIFY_MAX_QUBITS,
};
use qhw::fault::{FaultInjector, FaultKind};
use qhw::{Calibration, HardwareContext, Topology};
use qroute::{routed_equivalent, satisfies_coupling};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use proptest::prelude::*;

/// The logical reference in spec order (CPHASEs commute, so this is a
/// valid equivalence baseline for every gate ordering).
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

/// The invariant: a delivered circuit is verified, full stop.
fn assert_verified(spec: &QaoaSpec, topo: &Topology, artifact: &CompiledArtifact) {
    let compiled = artifact.template();
    assert!(
        satisfies_coupling(compiled.physical(), topo),
        "unverified circuit escaped: coupling violation"
    );
    if topo.num_qubits() <= FULL_VERIFY_MAX_QUBITS {
        assert!(
            routed_equivalent(
                &logical_reference(spec),
                compiled.physical(),
                compiled.initial_layout(),
                compiled.final_layout(),
            ),
            "unverified circuit escaped: not equivalent to the logical program"
        );
    }
}

fn spec_for(seed: u64, n: usize) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(n, 0.35, 1000, &mut rng).unwrap();
    let problem = qaoa::MaxCut::without_optimum(g);
    QaoaSpec::from_maxcut(&problem, &qaoa::QaoaParams::p1(0.5, 0.3), true)
}

fn strategies() -> [CompileOptions; 3] {
    [
        CompileOptions::vic(),
        CompileOptions::ic(),
        CompileOptions::naive(),
    ]
}

/// Runs one scenario end to end and asserts the invariant; returns
/// whether a circuit was delivered (vs a structured error).
fn run_scenario(
    spec: &QaoaSpec,
    topo: &Topology,
    context: &HardwareContext,
    options: &CompileOptions,
    seed: u64,
) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    match try_compile_artifact_with_context(spec, context, options, &mut rng) {
        Ok(compiled) => {
            assert_verified(spec, topo, &compiled);
            true
        }
        // Any structured error is an acceptable outcome; panics and
        // unverified circuits are the only failures.
        Err(_) => false,
    }
}

/// Calibration-corruption campaign: 7 fault classes × 5 seeds × 3
/// strategies × {ladder on, ladder off} = 210 scenarios.
#[test]
fn calibration_corruption_never_panics_or_escapes_unverified() {
    let topo = Topology::ibmq_16_melbourne();
    let base = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    let mut delivered = 0usize;
    let mut scenarios = 0usize;
    for kind in FaultKind::CALIBRATION {
        for seed in 0..5u64 {
            let bad = FaultInjector::new(seed).corrupt_calibration(&topo, &base, kind);
            let context = HardwareContext::with_calibration(topo.clone(), bad);
            let spec = spec_for(1000 + seed, 10);
            for options in strategies() {
                for resilient in [false, true] {
                    let opts = if resilient {
                        options.with_fallback()
                    } else {
                        options
                    };
                    scenarios += 1;
                    if run_scenario(&spec, &topo, &context, &opts, seed) {
                        delivered += 1;
                    }
                }
            }
        }
    }
    assert_eq!(scenarios, 210);
    // With the ladder enabled every calibration fault is survivable, so
    // well over half the scenarios must deliver circuits (only the
    // ladder-off VIC runs on invalid tables error out).
    assert!(
        delivered >= scenarios / 2,
        "only {delivered}/{scenarios} delivered"
    );
}

/// Topology-degradation campaign: dropped couplings, isolated qubits and
/// split devices either still compile (connected) or fail structurally
/// with `DisconnectedTopology` — never via unreachable-distance panics.
#[test]
fn topology_degradation_never_panics_or_escapes_unverified() {
    let base = Topology::ibmq_16_melbourne();
    let mut disconnected_seen = 0usize;
    for kind in FaultKind::TOPOLOGY {
        for seed in 0..10u64 {
            let topo = FaultInjector::new(seed).degrade_topology(&base, kind);
            let context = HardwareContext::new(topo.clone());
            let spec = spec_for(2000 + seed, 10);
            for options in [CompileOptions::ic(), CompileOptions::naive()] {
                let mut rng = StdRng::seed_from_u64(seed);
                match try_compile_artifact_with_context(&spec, &context, &options, &mut rng) {
                    Ok(compiled) => {
                        assert!(context.is_connected());
                        assert_verified(&spec, &topo, &compiled);
                    }
                    Err(CompileError::DisconnectedTopology { components }) => {
                        assert!(!context.is_connected());
                        assert!(components >= 2);
                        disconnected_seen += 1;
                    }
                    Err(other) => {
                        // Structured failure is acceptable; record nothing.
                        let _ = other;
                    }
                }
            }
        }
    }
    // IsolatedQubit and SplitComponent guarantee disconnection, so the
    // structured path must actually have been exercised.
    assert!(disconnected_seen >= 20, "only {disconnected_seen} hit");
}

/// Budget-exhaustion campaign with deterministic triggers: a zero pass
/// budget and a zero swap budget always fire, so these scenarios are
/// reproducible without real timing.
#[test]
fn budget_exhaustion_degrades_or_errors_structurally() {
    let topo = Topology::ibmq_16_melbourne();
    let context = HardwareContext::new(topo.clone());
    for seed in 0..10u64 {
        let spec = spec_for(3000 + seed, 10);
        for base in [CompileOptions::ic(), CompileOptions::ip()] {
            for opts in [
                base.with_pass_budget(Duration::ZERO),
                base.with_swap_budget(0),
            ] {
                // Strict: a structured BudgetExceeded (or, for swap
                // budgets on lucky seeds, a 0-swap success).
                let mut rng = StdRng::seed_from_u64(seed);
                match try_compile_artifact_with_context(&spec, &context, &opts, &mut rng) {
                    Ok(c) => assert_verified(&spec, &topo, &c),
                    Err(e) => assert!(
                        matches!(e, CompileError::BudgetExceeded { .. }),
                        "unexpected {e:?}"
                    ),
                }
                // Resilient: the final rung is budget-exempt, so a
                // verified circuit always comes back.
                let mut rng = StdRng::seed_from_u64(seed);
                let compiled = try_compile_artifact_with_context(
                    &spec,
                    &context,
                    &opts.with_fallback(),
                    &mut rng,
                )
                .unwrap();
                assert_verified(&spec, &topo, &compiled);
            }
        }
    }
}

/// Batch campaign: a batch seeded with corrupt-calibration jobs, poisoned
/// (panicking) jobs and healthy jobs returns one structured result per
/// job, in order, on both the serial and threaded paths.
#[test]
fn poisoned_batches_return_structured_results_per_job() {
    let topo = Topology::ibmq_16_melbourne();
    let base = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    let bad = FaultInjector::new(4).corrupt_calibration(&topo, &base, FaultKind::NanRate);
    let context = HardwareContext::with_calibration(topo.clone(), bad);
    // A self-CPHASE via the public-field literal panics deep inside
    // compilation — the batch boundary must contain it.
    let self_loop = qcompile::CphaseOp {
        a: 1,
        b: 1,
        angle: (0.2).into(),
    };
    let poison = QaoaSpec::new(6, vec![(vec![self_loop], 0.3)], true);
    let mut jobs = Vec::new();
    for seed in 0..8u64 {
        jobs.push(BatchJob::new(
            spec_for(4000 + seed, 8),
            CompileOptions::vic(),
            seed,
        ));
        jobs.push(BatchJob::new(
            poison.clone(),
            CompileOptions::qaim_only(),
            100 + seed,
        ));
        jobs.push(BatchJob::new(
            spec_for(4100 + seed, 8),
            CompileOptions::vic().with_fallback(),
            200 + seed,
        ));
    }
    for workers in [1, 4] {
        let results = compile_batch(&context, &jobs, workers);
        assert_eq!(results.len(), jobs.len());
        for (i, result) in results.iter().enumerate() {
            match i % 3 {
                // VIC on a quarantined table without the ladder.
                0 => assert!(matches!(result, Err(CompileError::UnusableCalibration(_)))),
                // The poisoned job is caught, not fatal.
                1 => assert!(matches!(result, Err(CompileError::Internal(_)))),
                // The resilient VIC job delivers a verified circuit.
                _ => {
                    let compiled = result.as_ref().unwrap();
                    assert!(compiled.template().trace().degraded());
                    assert_verified(&jobs[i].spec, &topo, compiled);
                }
            }
        }
    }
}

/// Fallbacks taken during the campaign surface as qtrace counters — the
/// telemetry surface the CI `chaos` gate regresses against.
#[test]
fn fallbacks_surface_in_the_qtrace_manifest() {
    let topo = Topology::ibmq_16_melbourne();
    let base = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    let bad = FaultInjector::new(1).corrupt_calibration(&topo, &base, FaultKind::InfiniteRate);
    let context = HardwareContext::with_calibration(topo.clone(), bad);
    let spec = spec_for(5000, 10);
    let q = qtrace::global();
    q.enable();
    let mut rng = StdRng::seed_from_u64(1);
    let compiled = try_compile_artifact_with_context(
        &spec,
        &context,
        &CompileOptions::vic().with_fallback(),
        &mut rng,
    )
    .unwrap();
    q.disable();
    let manifest = q.take_manifest("chaos-telemetry");
    assert!(compiled.template().trace().degraded());
    // Process-global recorder: lower bounds only.
    assert!(
        manifest
            .counters
            .get("qcompile/fallbacks")
            .copied()
            .unwrap_or(0)
            >= 1
    );
    assert!(manifest
        .counters
        .contains_key("qcompile/fallbacks/unusable-calibration"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Fuzzed single-fault scenarios beyond the fixed grid: any seed, any
    /// fault class, any strategy — verified circuit or structured error.
    #[test]
    fn any_injected_fault_yields_verified_or_structured(
        seed in 0u64..10_000,
        kind_ix in 0usize..10,
        strategy_ix in 0usize..3,
        resilient_ix in 0usize..2,
    ) {
        let all_kinds = [
            FaultKind::NanRate,
            FaultKind::InfiniteRate,
            FaultKind::NegativeRate,
            FaultKind::OversizedRate,
            FaultKind::DeadLink,
            FaultKind::MissingEntry,
            FaultKind::HeavyDrift,
            FaultKind::DroppedCoupling,
            FaultKind::IsolatedQubit,
            FaultKind::SplitComponent,
        ];
        let kind = all_kinds[kind_ix];
        let base_topo = Topology::ibmq_16_melbourne();
        let base_cal = Calibration::uniform(&base_topo, 0.02, 0.001, 0.02);
        let mut inj = FaultInjector::new(seed);
        let (topo, cal) = if FaultKind::CALIBRATION.contains(&kind) {
            let cal = inj.corrupt_calibration(&base_topo, &base_cal, kind);
            (base_topo.clone(), Some(cal))
        } else {
            (inj.degrade_topology(&base_topo, kind), None)
        };
        let context = HardwareContext::from_parts(topo.clone(), cal);
        let spec = spec_for(seed, 9);
        let mut options = strategies()[strategy_ix];
        if resilient_ix == 1 {
            options = options.with_fallback();
        }
        // The invariant is the absence of panics plus verified output;
        // run_scenario asserts it internally.
        let _ = run_scenario(&spec, &topo, &context, &options, seed);
    }
}
