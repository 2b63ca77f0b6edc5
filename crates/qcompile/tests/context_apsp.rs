//! Pins the HardwareContext performance contract: all-pairs shortest-path
//! (Floyd–Warshall) runs are paid once at context construction and never
//! again during compilation, and the router's shortest-path table is built
//! at most once per context and metric, on first use.
//!
//! This file holds a SINGLE test: `qgraph::shortest_path::apsp_invocations`
//! and `path_tree_builds` are process-global counters, and sibling tests in
//! the same binary run concurrently and would race the deltas.

use std::sync::Arc;

use qcompile::{
    compile_batch, try_compile_artifact_with_context, BatchJob, CompileOptions, CphaseOp, QaoaSpec,
};
use qgraph::shortest_path::{apsp_invocations, path_tree_builds};
use qhw::{Calibration, HardwareContext, Topology};
use qroute::RoutingMetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ring_spec(n: usize) -> QaoaSpec {
    let ops = (0..n).map(|i| CphaseOp::new(i, (i + 1) % n, 0.4)).collect();
    QaoaSpec::new(n, vec![(ops, 0.3)], true)
}

/// A 40-node ER(0.1) MaxCut program: on `heavy_hex(6, 7)` its compiles
/// make dozens of plateau moves and serial walks, so every IC or VIC
/// compile of it queries paths.
fn heavy_hex_spec(seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(40, 0.1, 1000, &mut rng).unwrap();
    let problem = qaoa::MaxCut::without_optimum(g);
    QaoaSpec::from_maxcut(&problem, &qaoa::QaoaParams::p1(0.4, 0.3), true)
}

/// Four IC and four VIC heavy-hex jobs.
fn heavy_hex_jobs() -> Vec<BatchJob> {
    (0..8)
        .map(|i| {
            let options = if i % 2 == 0 {
                CompileOptions::ic()
            } else {
                CompileOptions::vic()
            };
            BatchJob::new(heavy_hex_spec(4100 + i / 2), options, i)
        })
        .collect()
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

    // Path tables: none is built when a context is constructed ...
    let hh = Topology::heavy_hex(6, 7);
    let epoch_cal = Calibration::random_normal(&hh, 1e-2, 5e-3, &mut rng);
    let builds = path_tree_builds();
    let epoch = HardwareContext::with_calibration(hh.clone(), epoch_cal);
    assert_eq!(path_tree_builds(), builds);
    assert!(epoch.hop_paths().get().is_none());

    // ... and a 4-worker batch of IC and VIC jobs builds each metric's
    // table exactly once, however many workers query it first.
    for r in compile_batch(&epoch, &heavy_hex_jobs(), 4) {
        r.unwrap();
    }
    assert_eq!(path_tree_builds() - builds, 2, "one hop and one VIC table");
    let reliability_paths = epoch.reliability_paths().expect("usable calibration");
    assert!(epoch.hop_paths().get().is_some() && reliability_paths.get().is_some());

    // Clones of the context and metrics made from either share the one
    // table per metric; another batch builds nothing.
    let builds = path_tree_builds();
    let clone = epoch.clone();
    assert!(Arc::ptr_eq(epoch.hop_paths(), clone.hop_paths()));
    assert!(Arc::ptr_eq(
        reliability_paths,
        clone.reliability_paths().unwrap()
    ));
    for variation_aware in [false, true] {
        let a = RoutingMetric::from_context(&epoch, variation_aware).unwrap();
        let b = RoutingMetric::from_context(&clone, variation_aware).unwrap();
        assert!(std::ptr::eq(a.shortest_paths(), b.shortest_paths()));
    }
    for r in compile_batch(&clone, &heavy_hex_jobs(), 4) {
        r.unwrap();
    }
    assert_eq!(path_tree_builds(), builds);

    // A metric built without a context builds its own table.
    let own = RoutingMetric::hops(&hh);
    let shared = RoutingMetric::from_context(&epoch, false).unwrap();
    assert!(!std::ptr::eq(own.shortest_paths(), shared.shortest_paths()));
    assert_eq!(path_tree_builds() - builds, 1);

    // A new calibration epoch is a new context (what each qserve reload
    // makes): it builds its own tables, once each.
    let reload_cal = Calibration::random_normal(&hh, 1e-2, 5e-3, &mut rng);
    let reloaded = HardwareContext::with_calibration(hh, reload_cal);
    assert!(!Arc::ptr_eq(epoch.hop_paths(), reloaded.hop_paths()));
    let builds = path_tree_builds();
    for r in compile_batch(&reloaded, &heavy_hex_jobs(), 4) {
        r.unwrap();
    }
    assert_eq!(path_tree_builds() - builds, 2);
}
