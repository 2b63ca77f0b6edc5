//! Pins the allocation-disciplined compile engines **bit-for-bit
//! identical** to the frozen pre-rewrite references in
//! `qcompile::reference`.
//!
//! The engine rewrite (thread-local scratch, direct-emission routing,
//! incremental distance keys, bitset packing) is pure mechanism: for any
//! seed it must take exactly the decisions the old code took and emit
//! exactly the instruction stream the old code emitted. These properties
//! are the contract — a divergence on any seed × topology × density ×
//! metric × packing-limit combination is a bug in the rewrite, not a
//! "small quality difference".
//!
//! The plain tests at the bottom pin the same property on the 129-qubit
//! heavy-hex device, where the router walks the most paths, and one
//! level up:
//! whole-pipeline runs (including the degradation ladder, the shared
//! context cache and multi-worker batches) are byte-identical across
//! repetition, entry point and worker count, down to the Explain JSON.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use proptest::prelude::*;
use qcompile::reference;
use qcompile::{
    compile_batch, ic, ip, mapping, try_compile_artifact_with_context, BatchJob, CompileOptions,
    CompiledArtifact, CphaseOp, QaoaSpec,
};
use qgraph::shortest_path::path_tree_builds_on_this_thread;
use qhw::{Calibration, HardwareContext, Topology};
use qroute::{try_route, try_route_layer, Layout, RoutingMetric};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The qtrace recorder is process-global. The one test that turns it on
/// holds this lock for writing and every other test that routes holds it
/// for reading, so no concurrent compile records into the counters that
/// test compares.
static RECORDER: RwLock<()> = RwLock::new(());

/// Holds the recorder off for the calling test's duration.
fn recorder_off() -> RwLockReadGuard<'static, ()> {
    RECORDER.read().unwrap_or_else(PoisonError::into_inner)
}

/// Every `qroute/*` figure of a drained manifest: counters, gauges,
/// histograms and the route span's call count.
fn qroute_series(m: &qtrace::Manifest) -> (Vec<(&str, u64)>, Vec<&qtrace::Histogram>, u64) {
    let scalars = m
        .counters
        .iter()
        .chain(&m.gauges)
        .filter(|(name, _)| name.starts_with("qroute/"))
        .map(|(name, &v)| (name.as_str(), v))
        .collect();
    let histograms = m
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("qroute/"))
        .map(|(_, h)| h)
        .collect();
    (
        scalars,
        histograms,
        m.spans.get("qroute/route").map_or(0, |s| s.count),
    )
}

/// The topology and metric a router case runs on: tokyo, melbourne (its
/// real calibration) or heavy-hex(2, 2), under the hop metric or VIC's.
fn router_target(topo_idx: usize, vic: bool) -> (Topology, RoutingMetric) {
    let (topo, cal) = if topo_idx == 1 {
        Calibration::melbourne_2020_04_08()
    } else {
        let t = pick_topology(topo_idx);
        let c = Calibration::uniform(&t, 0.02, 0.001, 0.02);
        (t, c)
    };
    let metric = if vic {
        RoutingMetric::reliability(&topo, &cal)
    } else {
        RoutingMetric::hops(&topo)
    };
    (topo, metric)
}

/// A MaxCut QAOA spec over a connected ER instance — the paper's workload
/// shape.
fn er_spec(n: usize, p: f64, seed: u64, measure: bool) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(n, p, 1000, &mut rng).unwrap();
    let problem = qaoa::MaxCut::without_optimum(g);
    QaoaSpec::from_maxcut(&problem, &qaoa::QaoaParams::p1(0.4, 0.3), measure)
}

fn pick_topology(idx: usize) -> Topology {
    match idx {
        0 => Topology::ibmq_20_tokyo(),
        1 => Topology::ibmq_16_melbourne(),
        _ => Topology::heavy_hex(2, 2),
    }
}

/// Full structural equality of two incremental-compilation results.
fn assert_incremental_eq(live: &ic::IncrementalResult, frozen: &ic::IncrementalResult) {
    assert_eq!(
        live.circuit.instructions(),
        frozen.circuit.instructions(),
        "instruction streams diverged"
    );
    assert_eq!(live.circuit.depth(), frozen.circuit.depth());
    assert_eq!(live.final_layout, frozen.final_layout);
    assert_eq!(live.swap_count, frozen.swap_count);
    assert_eq!(live.cphase_layers, frozen.cphase_layers);
    assert_eq!(live.layers, frozen.layers, "per-layer records diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// IC (and its no-resort ablation) against the frozen engine, across
    /// seeds, topologies, ER densities and packing limits.
    #[test]
    fn ic_engine_matches_frozen_reference(
        seed in 0u64..10_000,
        topo_idx in 0usize..3,
        density_idx in 0usize..3,
        limit in proptest::option::of(1usize..5),
        resort_idx in 0usize..2,
    ) {
        let _recorder = recorder_off();
        let topo = pick_topology(topo_idx);
        let n = topo.num_qubits().min(14);
        let p = [0.2, 0.4, 0.6][density_idx];
        let spec = er_spec(n, p, seed, true);
        let metric = RoutingMetric::hops(&topo);
        let layout = mapping::qaim(&spec, &topo);
        let resort = resort_idx == 0;
        let live = ic::try_compile_incremental_with(
            &spec, &topo, layout.clone(), &metric, limit, resort,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let frozen = reference::try_compile_incremental_with(
            &spec, &topo, layout, &metric, limit, resort,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        assert_incremental_eq(&live, &frozen);
    }

    /// VIC (reliability metric) against the frozen engine on the real
    /// melbourne calibration: the weighted tie-breaks must also replay
    /// bit-for-bit (float-sum order is part of the contract).
    #[test]
    fn vic_engine_matches_frozen_reference(
        seed in 0u64..10_000,
        density_idx in 0usize..3,
        limit in proptest::option::of(2usize..6),
    ) {
        let _recorder = recorder_off();
        let (topo, cal) = Calibration::melbourne_2020_04_08();
        let p = [0.2, 0.4, 0.6][density_idx];
        let spec = er_spec(12, p, seed, true);
        let metric = RoutingMetric::reliability(&topo, &cal);
        let layout = mapping::qaim(&spec, &topo);
        let live = ic::try_compile_incremental_with(
            &spec, &topo, layout.clone(), &metric, limit, true,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let frozen = reference::try_compile_incremental_with(
            &spec, &topo, layout, &metric, limit, true,
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        assert_incremental_eq(&live, &frozen);
    }

    /// The scratch-buffer router against the frozen router on random
    /// multi-layer circuits and random layouts (both metrics).
    #[test]
    fn router_matches_frozen_reference(
        seed in 0u64..10_000,
        topo_idx in 0usize..3,
        density_idx in 0usize..2,
        vic in 0usize..2,
    ) {
        let _recorder = recorder_off();
        let (topo, metric) = router_target(topo_idx, vic == 1);
        let n = topo.num_qubits().min(14);
        let p = [0.3, 0.6][density_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = qgraph::generators::connected_erdos_renyi(n, p, 1000, &mut rng).unwrap();
        let mut c = qcircuit::Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for e in g.edges() {
            c.rzz(0.37, e.a(), e.b());
        }
        for q in 0..n {
            c.rx(0.9, q);
            c.measure(q);
        }
        let layout = Layout::random(n, topo.num_qubits(), &mut rng);
        let live = try_route(&c, &topo, layout.clone(), &metric).unwrap();
        let frozen = reference::try_route(&c, &topo, layout, &metric).unwrap();
        prop_assert_eq!(live.circuit.instructions(), frozen.circuit.instructions());
        prop_assert_eq!(&live.final_layout, &frozen.final_layout);
        prop_assert_eq!(live.swap_count, frozen.swap_count);
        prop_assert_eq!(live.layer_stats, frozen.layer_stats);
    }

    /// The single-layer entry point IC routes through against `try_route`
    /// on one-layer circuits (a random matching of the logical qubits):
    /// the same instructions, layout, SWAPs and fragment depth, and the
    /// same `qroute/*` telemetry.
    #[test]
    fn layer_router_matches_try_route(
        seed in 0u64..10_000,
        topo_idx in 0usize..3,
        vic in 0usize..2,
    ) {
        let (topo, metric) = router_target(topo_idx, vic == 1);
        let n = topo.num_qubits().min(14);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qubits: Vec<usize> = (0..n).collect();
        qubits.shuffle(&mut rng);
        let pairs = rng.gen_range(1..=n / 2);
        let mut c = qcircuit::Circuit::new(n);
        for pair in qubits.chunks_exact(2).take(pairs) {
            c.rzz(0.37, pair[0], pair[1]);
        }
        let layout = Layout::random(n, topo.num_qubits(), &mut rng);

        let recorder = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
        qtrace::enable();
        drop(qtrace::take("before"));
        let whole = try_route(&c, &topo, layout.clone(), &metric).unwrap();
        let whole_telemetry = qtrace::take("try_route");
        let mut direct = qcircuit::Circuit::new(topo.num_qubits());
        let mut direct_layout = layout;
        let (swaps, depth) =
            try_route_layer(c.instructions(), &topo, &mut direct_layout, &metric, &mut direct)
                .unwrap();
        let layer_telemetry = qtrace::take("try_route_layer");
        qtrace::disable();
        drop(recorder);

        prop_assert_eq!(direct.instructions(), whole.circuit.instructions());
        prop_assert_eq!(direct_layout, whole.final_layout);
        prop_assert_eq!(swaps, whole.swap_count);
        prop_assert_eq!(depth, whole.circuit.depth());
        prop_assert_eq!(qroute_series(&layer_telemetry), qroute_series(&whole_telemetry));
        prop_assert_eq!(qroute_series(&whole_telemetry).2, 1);
    }

    /// The bitset bin-packer against the frozen `Vec<Vec<bool>>` packer.
    #[test]
    fn ip_packer_matches_frozen_reference(
        seed in 0u64..10_000,
        density_idx in 0usize..3,
        limit in proptest::option::of(1usize..6),
    ) {
        let p = [0.2, 0.4, 0.7][density_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = qgraph::generators::connected_erdos_renyi(13, p, 1000, &mut rng).unwrap();
        let ops: Vec<CphaseOp> = g.edges().map(|e| CphaseOp::new(e.a(), e.b(), 0.2)).collect();
        let live = ip::pack_layers(13, &ops, limit, &mut StdRng::seed_from_u64(seed));
        let frozen = reference::pack_layers(13, &ops, limit, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(live, frozen);
    }
}

/// The router's path queries (plateau moves and serial walks) read a
/// table built once per metric. The properties above rarely reach them:
/// their programs have at most 14 logical qubits on small devices. On
/// `heavy_hex(6, 7)` a 40-node ER(0.1) program makes dozens of them per
/// compile, so these fixed-seed cases pin the table-driven engine against
/// the frozen one where paths decide the most: IC, and VIC under a random
/// calibration and under a uniform one, where every SWAP costs the same
/// and only the ordering rule chooses among equal paths.
#[test]
fn heavy_hex_compiles_match_frozen_reference() {
    let _recorder = recorder_off();
    let topo = Topology::heavy_hex(6, 7);
    let mut cal_rng = StdRng::seed_from_u64(0x4E4E);
    let random = Calibration::random_normal(&topo, 1e-2, 0.5e-2, &mut cal_rng);
    let uniform = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    let contexts = [
        ("ic", HardwareContext::new(topo.clone()), false),
        (
            "vic-random",
            HardwareContext::with_calibration(topo.clone(), random),
            true,
        ),
        (
            "vic-uniform",
            HardwareContext::with_calibration(topo.clone(), uniform),
            true,
        ),
    ];
    for (name, context, variation_aware) in &contexts {
        let metric = RoutingMetric::from_context(context, *variation_aware).unwrap();
        let builds = path_tree_builds_on_this_thread();
        for seed in 0..4u64 {
            let spec = er_spec(40, 0.1, 4100 + seed, true);
            let layout = mapping::qaim(&spec, &topo);
            let live = ic::try_compile_incremental_with(
                &spec,
                &topo,
                layout.clone(),
                &metric,
                None,
                true,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            let frozen = reference::try_compile_incremental_with(
                &spec,
                &topo,
                layout,
                &metric,
                None,
                true,
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
            assert_incremental_eq(&live, &frozen);
        }
        // The engine did query paths, through one table built once.
        assert_eq!(path_tree_builds_on_this_thread() - builds, 1, "{name}");
    }
}

/// One compiled result's full observable surface, for equality checks.
fn fingerprint(artifact: &CompiledArtifact) -> (Vec<u8>, String) {
    let c = artifact.template();
    let mut bytes = Vec::new();
    for i in c.physical().instructions() {
        bytes.extend_from_slice(format!("{i};").as_bytes());
    }
    for i in c.basis_circuit().instructions() {
        bytes.extend_from_slice(format!("{i};").as_bytes());
    }
    (bytes, c.explain().to_json())
}

/// Whole-pipeline byte-identity: repeated runs, the shared-cache context
/// and a prebuilt context must all produce the same circuit
/// and the same Explain JSON — including when the degradation ladder
/// rewrites the configuration.
#[test]
fn pipeline_runs_are_byte_identical_across_entry_points_and_ladder() {
    let _recorder = recorder_off();
    let topo = Topology::ibmq_20_tokyo();
    let context = HardwareContext::new(topo.clone());
    let spec = er_spec(14, 0.4, 99, true);
    let configs = [
        ("qaim", CompileOptions::qaim_only()),
        ("ip", CompileOptions::ip()),
        ("ic", CompileOptions::ic()),
        // VIC without calibration + fallback: exercises the ladder
        // (degrades to IC) — its narrative must replay identically too.
        ("vic-ladder", CompileOptions::vic().with_fallback()),
    ];
    let shared = HardwareContext::shared(&topo, None);
    for (name, options) in &configs {
        let compile = |context: &HardwareContext| {
            try_compile_artifact_with_context(
                &spec,
                context,
                options,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap()
        };
        let (a, b, c) = (compile(&context), compile(&context), compile(&shared));
        assert_eq!(fingerprint(&a), fingerprint(&b), "{name}: rerun diverged");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&c),
            "{name}: shared-cache context diverged"
        );
        let (a, b, c) = (a.template(), b.template(), c.template());
        assert_eq!(a.explain(), b.explain());
        assert_eq!(a.initial_layout(), c.initial_layout());
        assert_eq!(a.final_layout(), c.final_layout());
    }
}

/// Batch compiles must not depend on worker count (work stealing changes
/// execution order, never results).
#[test]
fn batch_results_are_worker_count_invariant() {
    let _recorder = recorder_off();
    let topo = Topology::ibmq_20_tokyo();
    let context = HardwareContext::new(topo);
    let jobs: Vec<BatchJob> = (0..10)
        .map(|i| {
            let options = match i % 3 {
                0 => CompileOptions::ic(),
                1 => CompileOptions::ip(),
                _ => CompileOptions::qaim_only(),
            };
            BatchJob::new(
                er_spec(11 + i % 4, 0.4, 300 + i as u64, true),
                options,
                i as u64,
            )
        })
        .collect();
    let single: Vec<_> = compile_batch(&context, &jobs, 1)
        .into_iter()
        .map(|r| fingerprint(&r.unwrap()))
        .collect();
    for workers in [2, 4] {
        let multi: Vec<_> = compile_batch(&context, &jobs, workers)
            .into_iter()
            .map(|r| fingerprint(&r.unwrap()))
            .collect();
        assert_eq!(single, multi, "{workers}-worker batch diverged");
    }
}
