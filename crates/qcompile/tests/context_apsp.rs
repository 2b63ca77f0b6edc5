//! Pins the HardwareContext performance contract: all-pairs shortest-path
//! (Floyd–Warshall) runs are paid once at context construction and never
//! again during compilation.
//!
//! This file holds a SINGLE test: `qgraph::shortest_path::apsp_invocations`
//! is a process-global counter, and sibling tests in the same binary run
//! concurrently and would race the deltas.

use qcompile::{
    compile_batch, try_compile_artifact_with_context, BatchJob, CompileOptions, CphaseOp, QaoaSpec,
};
use qgraph::shortest_path::apsp_invocations;
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ring_spec(n: usize) -> QaoaSpec {
    let ops = (0..n).map(|i| CphaseOp::new(i, (i + 1) % n, 0.4)).collect();
    QaoaSpec::new(n, vec![(ops, 0.3)], true)
}

#[test]
fn floyd_warshall_runs_once_per_context() {
    let topo = Topology::ibmq_20_tokyo();
    let mut rng = StdRng::seed_from_u64(1);
    let cal = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut rng);

    // An uncalibrated context costs exactly one APSP run (unit hops).
    let before = apsp_invocations();
    let plain = HardwareContext::new(topo.clone());
    assert_eq!(apsp_invocations() - before, 1);

    // A calibrated context costs exactly two (hops + reliability-weighted).
    let before = apsp_invocations();
    let calibrated = HardwareContext::with_calibration(topo.clone(), cal.clone());
    assert_eq!(apsp_invocations() - before, 2);

    // Compiling against a context — any configuration — recomputes nothing.
    let before = apsp_invocations();
    for options in [
        CompileOptions::naive(),
        CompileOptions::qaim_only(),
        CompileOptions::ip(),
        CompileOptions::ic(),
        CompileOptions::vic(),
    ] {
        try_compile_artifact_with_context(&ring_spec(8), &calibrated, &options, &mut rng).unwrap();
    }
    try_compile_artifact_with_context(&ring_spec(8), &plain, &CompileOptions::ic(), &mut rng)
        .unwrap();
    assert_eq!(
        apsp_invocations(),
        before,
        "compilation must reuse the context's cached distance matrices"
    );

    // A whole batch shares the one context: still zero recomputation.
    let jobs: Vec<BatchJob> = (0..8)
        .map(|i| BatchJob::new(ring_spec(6 + i % 3), CompileOptions::vic(), i as u64))
        .collect();
    let before = apsp_invocations();
    for r in compile_batch(&calibrated, &jobs, 4) {
        r.unwrap();
    }
    assert_eq!(apsp_invocations(), before);

    // A caller holding only a topology resolves its context through the
    // process-wide shared-context cache: the first lookup for a
    // (topology, calibration epoch) pair pays the construction (2 runs:
    // calibrated) ...
    let compile_shared = |cal: &Calibration, options: &CompileOptions, rng: &mut StdRng| {
        let context = HardwareContext::shared(&topo, Some(cal));
        try_compile_artifact_with_context(&ring_spec(8), &context, options, rng).unwrap();
    };
    let before = apsp_invocations();
    compile_shared(&cal, &CompileOptions::vic(), &mut rng);
    assert_eq!(apsp_invocations() - before, 2);

    // ... and every later lookup — same pair, any strategy — pays zero.
    // This is what keeps ladder/retry/scripted per-call compile loops off
    // the O(n^3) Floyd–Warshall path.
    let before = apsp_invocations();
    for options in [CompileOptions::vic(), CompileOptions::ic()] {
        compile_shared(&cal, &options, &mut rng);
    }
    assert_eq!(
        apsp_invocations(),
        before,
        "repeat shared-context compiles must hit the cache"
    );

    // A fresh calibration epoch is a different cache entry: paid once.
    let cal2 = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut rng);
    let before = apsp_invocations();
    compile_shared(&cal2, &CompileOptions::vic(), &mut rng);
    assert_eq!(apsp_invocations() - before, 2);
    let before = apsp_invocations();
    compile_shared(&cal2, &CompileOptions::vic(), &mut rng);
    assert_eq!(apsp_invocations(), before);
}
