//! Small-scale replicas of the paper's evaluation shapes (DESIGN.md's
//! experiment index). Each test is a miniature of one figure and asserts
//! the qualitative claim — who wins, and roughly where.

use qaoa::{MaxCut, QaoaParams};
use qcompile::{
    try_compile_artifact_with_context, Compilation, CompileOptions, CompiledCircuit,
    InitialMapping, QaoaSpec,
};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Compiles through the shared context for `topo`, as the figure
/// binaries do.
fn compile(
    spec: &QaoaSpec,
    topo: &Topology,
    cal: Option<&Calibration>,
    options: &CompileOptions,
    rng: &mut StdRng,
) -> CompiledCircuit {
    let context = HardwareContext::shared(topo, cal);
    let artifact = try_compile_artifact_with_context(spec, &context, options, rng).unwrap();
    artifact.template().clone()
}

fn er_spec(n: usize, p: f64, seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(n, p, 10_000, &mut rng).unwrap();
    QaoaSpec::from_maxcut(
        &MaxCut::without_optimum(g),
        &QaoaParams::p1(0.9, 0.35),
        true,
    )
}

fn regular_spec(n: usize, k: usize, seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_random_regular(n, k, 10_000, &mut rng).unwrap();
    QaoaSpec::from_maxcut(
        &MaxCut::without_optimum(g),
        &QaoaParams::p1(0.9, 0.35),
        true,
    )
}

/// Figure 7 shape: on sparse 20-node graphs QAIM beats NAIVE clearly on
/// depth and gate count; on dense graphs the gap shrinks.
#[test]
fn fig7_qaim_wins_on_sparse_graphs() {
    let topo = Topology::ibmq_20_tokyo();
    let mut rng = StdRng::seed_from_u64(70);
    let instances = 8;
    let mut ratio_for = |p_edge: f64| -> (f64, f64) {
        let (mut dn, mut dq, mut gn, mut gq) = (0usize, 0usize, 0usize, 0usize);
        for i in 0..instances {
            let spec = er_spec(20, p_edge, 7_100 + i);
            let naive = compile(&spec, &topo, None, &CompileOptions::naive(), &mut rng);
            let qaim = compile(&spec, &topo, None, &CompileOptions::qaim_only(), &mut rng);
            dn += naive.depth();
            dq += qaim.depth();
            gn += naive.gate_count();
            gq += qaim.gate_count();
        }
        (dq as f64 / dn as f64, gq as f64 / gn as f64)
    };
    let (depth_sparse, gates_sparse) = ratio_for(0.12);
    let (depth_dense, gates_dense) = ratio_for(0.6);
    assert!(depth_sparse < 0.95, "sparse depth ratio {depth_sparse}");
    assert!(gates_sparse < 0.95, "sparse gate ratio {gates_sparse}");
    // Dense graphs: everything converges (the paper sees ~1.0).
    assert!(depth_dense > 0.85, "dense depth ratio {depth_dense}");
    assert!(gates_dense > 0.85, "dense gate ratio {gates_dense}");
    assert!(
        depth_sparse < depth_dense + 0.05,
        "QAIM's edge should be largest on sparse graphs: {depth_sparse} vs {depth_dense}"
    );
}

/// Figure 8 shape: QAIM's advantage over NAIVE is present at small problem
/// sizes (12 nodes on the 20-qubit device).
#[test]
fn fig8_small_problems_benefit_from_mapping() {
    let topo = Topology::ibmq_20_tokyo();
    let mut rng = StdRng::seed_from_u64(80);
    let (mut dn, mut dq) = (0usize, 0usize);
    for i in 0..8 {
        let spec = regular_spec(12, 3, 8_100 + i);
        dn += compile(&spec, &topo, None, &CompileOptions::naive(), &mut rng).depth();
        dq += compile(&spec, &topo, None, &CompileOptions::qaim_only(), &mut rng).depth();
    }
    let ratio = dq as f64 / dn as f64;
    assert!(ratio < 0.92, "12-node depth ratio {ratio} (paper: 0.78)");
}

/// Figure 9 shape: IP and IC both cut depth well below QAIM-only, IC cuts
/// gate count below IP, and the effect grows with graph density.
#[test]
fn fig9_parallelization_and_incremental_wins() {
    let topo = Topology::ibmq_20_tokyo();
    let mut rng = StdRng::seed_from_u64(90);
    let (mut dq, mut dip, mut dic) = (0usize, 0usize, 0usize);
    let (mut gq, mut gip, mut gic) = (0usize, 0usize, 0usize);
    for i in 0..8 {
        let spec = regular_spec(20, 6, 9_100 + i);
        let q = compile(&spec, &topo, None, &CompileOptions::qaim_only(), &mut rng);
        let ip = compile(&spec, &topo, None, &CompileOptions::ip(), &mut rng);
        let ic = compile(&spec, &topo, None, &CompileOptions::ic(), &mut rng);
        dq += q.depth();
        dip += ip.depth();
        dic += ic.depth();
        gq += q.gate_count();
        gip += ip.gate_count();
        gic += ic.gate_count();
    }
    assert!(
        (dip as f64) < 0.9 * dq as f64,
        "IP depth {dip} vs QAIM {dq}"
    );
    assert!(
        (dic as f64) < 0.8 * dq as f64,
        "IC depth {dic} vs QAIM {dq}"
    );
    assert!(dic < dip, "IC depth {dic} vs IP {dip}");
    assert!(
        (gic as f64) < 0.95 * gip as f64,
        "IC gates {gic} vs IP {gip}"
    );
    assert!(
        (gip as f64) < 1.05 * gq as f64,
        "IP gates {gip} near QAIM {gq}"
    );
}

/// Figure 10 shape: VIC's mean success probability beats IC's on melbourne
/// with the real calibration.
#[test]
fn fig10_vic_success_probability() {
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    let mut rng = StdRng::seed_from_u64(100);
    // Per-instance VIC-vs-IC outcomes are noisy (the advantage is a mean
    // effect, Figure 10), so a healthy instance count keeps this stable.
    let (mut sp_ic, mut sp_vic) = (0.0f64, 0.0f64);
    for i in 0..48 {
        let spec = er_spec(12, 0.5, 10_200 + i);
        sp_ic += compile(&spec, &topo, Some(&cal), &CompileOptions::ic(), &mut rng)
            .success_probability(&cal);
        sp_vic += compile(&spec, &topo, Some(&cal), &CompileOptions::vic(), &mut rng)
            .success_probability(&cal);
    }
    assert!(
        sp_vic > sp_ic,
        "VIC mean SP {sp_vic} should beat IC {sp_ic}"
    );
}

/// Figure 12 shape: with IC on the 6x6 grid, a tiny packing limit hurts
/// depth, and gate count grows monotonically-ish with the limit.
#[test]
fn fig12_packing_density_tradeoff() {
    let topo = Topology::grid(6, 6);
    let mut rng = StdRng::seed_from_u64(120);
    let spec = er_spec(36, 0.5, 12_300);
    let compile_with = |limit: usize, rng: &mut StdRng| {
        compile(
            &spec,
            &topo,
            None,
            &CompileOptions::ic().with_packing_limit(limit),
            rng,
        )
    };
    let tight = compile_with(1, &mut rng);
    let mid = compile_with(9, &mut rng);
    assert!(
        mid.depth() < tight.depth(),
        "packing 9 depth {} should beat packing 1 depth {}",
        mid.depth(),
        tight.depth()
    );
    assert!(
        tight.gate_count() <= mid.gate_count() + mid.gate_count() / 10,
        "packing 1 gates {} should not exceed packing 9 gates {} by much",
        tight.gate_count(),
        mid.gate_count()
    );
}

/// GreedyV sits between NAIVE and QAIM on sparse-graph gate count (the
/// Figure 7 baseline relationship).
#[test]
fn greedyv_between_naive_and_qaim() {
    let topo = Topology::ibmq_20_tokyo();
    let greedy = CompileOptions::new(InitialMapping::GreedyV, Compilation::RandomOrder);
    let mut rng = StdRng::seed_from_u64(130);
    let (mut gn, mut gg, mut gq) = (0usize, 0usize, 0usize);
    for i in 0..10 {
        let spec = er_spec(20, 0.12, 13_100 + i);
        gn += compile(&spec, &topo, None, &CompileOptions::naive(), &mut rng).gate_count();
        gg += compile(&spec, &topo, None, &greedy, &mut rng).gate_count();
        gq += compile(&spec, &topo, None, &CompileOptions::qaim_only(), &mut rng).gate_count();
    }
    assert!(gq < gn, "QAIM {gq} must beat NAIVE {gn}");
    assert!(gq <= gg, "QAIM {gq} must beat GreedyV {gg}");
}

/// §VI comparative setting: 8-node/8-edge graphs on an 8-qubit ring
/// compile quickly and IC beats NAIVE.
#[test]
fn ring8_comparison_workload() {
    let topo = Topology::ring(8);
    let mut rng = StdRng::seed_from_u64(140);
    let (mut dn, mut dic) = (0usize, 0usize);
    for i in 0..10 {
        let mut g_rng = StdRng::seed_from_u64(14_100 + i);
        let g = qgraph::generators::connected_gnm(8, 8, 10_000, &mut g_rng).unwrap();
        let spec = QaoaSpec::from_maxcut(
            &MaxCut::without_optimum(g),
            &QaoaParams::p1(0.9, 0.35),
            true,
        );
        let start = std::time::Instant::now();
        dn += compile(&spec, &topo, None, &CompileOptions::naive(), &mut rng).depth();
        dic += compile(&spec, &topo, None, &CompileOptions::ic(), &mut rng).depth();
        // The temporal planner of [46] needs 70 s for such instances; we
        // must stay far under that (paper: <10 s for 36 qubits).
        assert!(start.elapsed().as_secs_f64() < 1.0);
    }
    assert!(dic < dn, "IC depth {dic} should beat NAIVE {dn}");
}
