//! End-to-end manifest determinism: two identical instrumented runs must
//! produce byte-identical manifests after [`qtrace::Manifest::normalized`]
//! strips the wall-time fields. This is the property the CI bench-regress
//! gate stands on — counters, gauges and histograms gate precisely
//! because they are exact for a fixed workload and thread configuration.
//!
//! One `#[test]` only: the workload records through the process-global
//! recorder, so a second concurrent test in this binary would interleave
//! events.

use qcompile::{try_compile_artifact_with_context, CompileOptions};
use qhw::{HardwareContext, Topology};
use qsim::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Compiles and simulates a small fixed instance, draining the global
/// recorder into a manifest.
fn instrumented_run() -> qtrace::Manifest {
    qtrace::enable();
    let topo = Topology::ibmq_20_tokyo();
    let context = HardwareContext::new(topo);
    let g = bench::workloads::instances(bench::workloads::Family::Regular(3), 12, 1, 501).remove(0);
    let spec = bench::compilation_spec(g, false);
    let mut rng = StdRng::seed_from_u64(42);
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .unwrap();
    let state = StateVector::from_circuit(artifact.template().physical());
    assert!(state.norm_sqr() > 0.99, "simulation sanity check");
    qtrace::take("determinism_test")
}

#[test]
fn identical_runs_yield_byte_identical_normalized_manifests() {
    let first = instrumented_run();
    let second = instrumented_run();

    // The run did record something in every section the pipeline feeds.
    assert!(
        first
            .spans
            .keys()
            .any(|k| k.starts_with("qcompile/compile")),
        "compile spans present: {:?}",
        first.spans.keys().collect::<Vec<_>>()
    );
    assert!(first.counters.contains_key("qroute/swaps"));
    assert!(first
        .counters
        .keys()
        .any(|k| k.starts_with("qsim/dispatch/")));
    assert!(first.gauges.contains_key("qsim/peak_live_amplitudes"));

    // Raw manifests differ (wall times), normalized ones are identical.
    let a = first.normalized().to_json();
    let b = second.normalized().to_json();
    assert_eq!(a, b, "normalized manifests must be byte-identical");

    // And normalization round-trips through the parser.
    let reparsed = qtrace::Manifest::from_json(&a).unwrap();
    assert_eq!(reparsed.normalized().to_json(), a);
}
