//! `compile_throughput` — wall-time benchmark for the compile hot path.
//!
//! Two compile-only workloads:
//!
//! 1. **fig09 class**: the Figure 9 problem set (20-node Erdős–Rényi
//!    p=0.1–0.6 and regular k=3–8 instances, ibmq_20_tokyo) under the
//!    QAIM, IP and IC strategies — the workload the compile-engine
//!    speedup is measured on (~4x full-pipeline vs the committed
//!    pre-rewrite baseline; [`SPEEDUP_FLOOR`] gates the engine-level
//!    live-vs-frozen ratio).
//! 2. **heavy-hex 127q class**: a modern sparse device
//!    ([`Topology::heavy_hex`], 129 physical qubits) compiling 40-node
//!    ER(0.1) instances under IC — stresses the router's distance
//!    structures at Eagle-scale qubit counts, and its path queries: each
//!    compile makes dozens of plateau moves and serial walks.
//!    [`HEAVY_HEX_SPEEDUP_FLOOR`] gates the engine-level ratio there.
//!
//! Each job is compiled once untimed (warm-up) and then `REPS` times,
//! keeping the minimum — the estimator least disturbed by the machine.
//! The report carries the timing series (gated in CI with a generous
//! tolerance: only catastrophic regressions fail) plus fully
//! deterministic depth/SWAP series that pin compile quality exactly.
//! The engine-speedup series compares the live engine against the
//! frozen pre-optimization reference compiled into `qcompile::reference`
//! and is asserted against [`SPEEDUP_FLOOR`] in-process, so a change
//! that quietly loses the engine win fails this binary everywhere, not
//! just on a calibrated CI runner.
//!
//! Usage: `compile_throughput [instances-per-family] [--manifest <path>]
//! [--trace <path>]` (default 8; CI quick mode passes 2).

use std::time::Instant;

use bench::cli::Cli;
use bench::report::Report;
use bench::stats::median;
use bench::workloads::{instances, Family, ER_PROBABILITIES, REGULAR_DEGREES};
use qcompile::{
    ic, mapping, reference, try_compile_artifact_with_context, CompileOptions, QaoaSpec,
};
use qhw::{HardwareContext, Topology};
use qroute::RoutingMetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timed repetitions per job (minimum kept).
const REPS: usize = 3;

/// Minimum acceptable median live-vs-frozen IC engine speedup on the
/// fig09 workload. Measured ~2.6x untraced on the reference machine
/// (~2.1x in CI's traced quick mode); the frozen engine shares the
/// metric tables, topology bitsets and LTO the rewrite introduced, so
/// this ratio understates the full-pipeline gain (~4.5x vs
/// `results/BENCH_compile_throughput_baseline.json`). The floor is a
/// tripwire for changes that quietly give the win back, so it sits below
/// the measured values but far above parity.
const SPEEDUP_FLOOR: f64 = 1.5;

/// Minimum acceptable median live-vs-frozen IC engine speedup on the
/// heavy-hex workload. The frozen engine re-runs an `O(n^2)` linear-scan
/// Dijkstra for every path query, the live one walks a table built once
/// per metric; CI's traced quick mode reads ~11-12x here and a live
/// engine that searches per query reads ~2.3x, so a return to per-query
/// search fails on any host.
const HEAVY_HEX_SPEEDUP_FLOOR: f64 = 5.0;

/// One timed job: warm-up compile, then `REPS` timed compiles of the
/// identical (spec, options, seed) triple; returns the minimum wall
/// time in microseconds plus the compiled depth/SWAP count.
fn time_compile(
    spec: &QaoaSpec,
    context: &HardwareContext,
    options: &CompileOptions,
    seed: u64,
) -> (f64, f64, f64) {
    let compile = || {
        try_compile_artifact_with_context(spec, context, options, &mut StdRng::seed_from_u64(seed))
            .expect("throughput workloads compile")
    };
    let artifact = compile();
    let compiled = artifact.template();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let c = compile();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            c.template().depth(),
            compiled.depth(),
            "compile must be deterministic"
        );
    }
    (best, compiled.depth() as f64, compiled.swap_count() as f64)
}

/// Live-vs-frozen IC engine speedup per `(spec, seed)` job: mapping is
/// done once outside the timed region, the two engines alternate `REPS`
/// times on identical inputs and each keeps its minimum, so the ratio
/// isolates routing + layer formation from QAIM and lowering.
fn engine_speedups(topo: &Topology, metric: &RoutingMetric, jobs: &[(QaoaSpec, u64)]) -> Vec<f64> {
    let mut speedups = Vec::new();
    for (spec, seed) in jobs {
        let layout = mapping::qaim(spec, topo);
        let mut live_us = f64::INFINITY;
        let mut frozen_us = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            let a = ic::try_compile_incremental_with(
                spec,
                topo,
                layout.clone(),
                metric,
                None,
                true,
                &mut StdRng::seed_from_u64(*seed),
            )
            .expect("IC workloads compile");
            live_us = live_us.min(start.elapsed().as_secs_f64() * 1e6);
            let start = Instant::now();
            let b = reference::try_compile_incremental_with(
                spec,
                topo,
                layout.clone(),
                metric,
                None,
                true,
                &mut StdRng::seed_from_u64(*seed),
            )
            .expect("IC workloads compile");
            frozen_us = frozen_us.min(start.elapsed().as_secs_f64() * 1e6);
            assert_eq!(
                a.circuit.instructions(),
                b.circuit.instructions(),
                "live engine must stay byte-identical to the frozen reference"
            );
        }
        speedups.push(frozen_us / live_us);
    }
    speedups
}

fn main() {
    let cli = Cli::parse("compile_throughput");
    let count = cli.pos_usize(0, 8);
    let mut report = Report::new("compile_throughput");

    // -- Workload 1: fig09 class on ibmq_20_tokyo ------------------------
    let topo = Topology::ibmq_20_tokyo();
    let context = HardwareContext::new(topo);
    let n = 20;
    let strategies = [
        ("qaim", CompileOptions::qaim_only()),
        ("ip", CompileOptions::ip()),
        ("ic", CompileOptions::ic()),
    ];
    let families: Vec<Family> = ER_PROBABILITIES
        .iter()
        .map(|&p| Family::ErdosRenyi(p))
        .chain(REGULAR_DEGREES.iter().map(|&k| Family::Regular(k)))
        .collect();

    println!(
        "=== Compile throughput: fig09 class (n={n}, ibmq_20_tokyo, {count} instances/family) ==="
    );
    println!(
        "{:<8} {:>14} {:>12} {:>12}",
        "method", "median", "depth", "swaps"
    );
    for (name, options) in &strategies {
        let mut times_us = Vec::new();
        let mut depths = Vec::new();
        let mut swaps = Vec::new();
        for family in &families {
            for (gi, g) in instances(*family, n, count, 9001).into_iter().enumerate() {
                let spec = bench::compilation_spec(g, true);
                let (us, depth, swap) = time_compile(&spec, &context, options, 9200 + gi as u64);
                times_us.push(us);
                depths.push(depth);
                swaps.push(swap);
            }
        }
        println!(
            "{:<8} {:>12.1}µs {:>12.1} {:>12.1}",
            name,
            median(&times_us),
            median(&depths),
            median(&swaps)
        );
        report.add(format!("fig09/{name}/compile_us"), &times_us);
        report.add(format!("fig09/{name}/depth"), &depths);
        report.add(format!("fig09/{name}/swaps"), &swaps);
    }

    // -- Engine speedup: live IC vs frozen reference ---------------------
    // Same fig09 IC workload, measured at the engine level.
    let topo = Topology::ibmq_20_tokyo();
    let metric = RoutingMetric::hops(&topo);
    let jobs: Vec<(QaoaSpec, u64)> = families
        .iter()
        .flat_map(|family| {
            instances(*family, n, count, 9001)
                .into_iter()
                .enumerate()
                .map(|(gi, g)| (bench::compilation_spec(g, true), 9200 + gi as u64))
        })
        .collect();
    let speedups = engine_speedups(&topo, &metric, &jobs);
    let engine_speedup = median(&speedups);
    println!("\nfig09 IC engine speedup vs frozen reference: {engine_speedup:.1}x (floor {SPEEDUP_FLOOR}x)");
    report.add("fig09/ic/engine_speedup", &speedups);
    assert!(
        engine_speedup >= SPEEDUP_FLOOR,
        "engine speedup {engine_speedup:.2}x fell below the {SPEEDUP_FLOOR}x floor"
    );

    // -- Workload 2: heavy-hex 127q-class compile-only -------------------
    let hh = Topology::heavy_hex(6, 7);
    let hh_qubits = hh.num_qubits();
    let hh_context = HardwareContext::new(hh);
    let hh_count = (count / 2).max(2);
    let hh_n = 40;
    println!("\n=== Compile throughput: heavy-hex ({hh_qubits}q, {hh_n}-node ER(0.1), {hh_count} instances, IC) ===");
    let mut times_us = Vec::new();
    let mut depths = Vec::new();
    let mut swaps = Vec::new();
    for (gi, g) in instances(Family::ErdosRenyi(0.1), hh_n, hh_count, 41_001)
        .into_iter()
        .enumerate()
    {
        let spec = bench::compilation_spec(g, true);
        let (us, depth, swap) = time_compile(
            &spec,
            &hh_context,
            &CompileOptions::ic(),
            41_100 + gi as u64,
        );
        times_us.push(us);
        depths.push(depth);
        swaps.push(swap);
    }
    println!(
        "{:<8} {:>12.1}µs {:>12.1} {:>12.1}",
        "ic",
        median(&times_us),
        median(&depths),
        median(&swaps)
    );
    report.add("heavy_hex/ic/compile_us", &times_us);
    report.add("heavy_hex/ic/depth", &depths);
    report.add("heavy_hex/ic/swaps", &swaps);

    // The same interleaved engine ratio on heavy-hex, over at least four
    // instances. It runs with the recorder paused: the frozen engine
    // records nothing, and the committed manifest's counters must not
    // depend on this comparison.
    let hh_topo = hh_context.topology();
    let jobs: Vec<(QaoaSpec, u64)> =
        instances(Family::ErdosRenyi(0.1), hh_n, hh_count.max(4), 41_001)
            .into_iter()
            .enumerate()
            .map(|(gi, g)| (bench::compilation_spec(g, true), 41_100 + gi as u64))
            .collect();
    let traced = qtrace::enabled();
    if traced {
        qtrace::disable();
    }
    let speedups = engine_speedups(hh_topo, &RoutingMetric::hops(hh_topo), &jobs);
    if traced {
        qtrace::enable();
    }
    let hh_speedup = median(&speedups);
    println!(
        "heavy-hex IC engine speedup vs frozen reference: {hh_speedup:.1}x (floor {HEAVY_HEX_SPEEDUP_FLOOR}x)"
    );
    report.add("heavy_hex/ic/engine_speedup", &speedups);
    assert!(
        hh_speedup >= HEAVY_HEX_SPEEDUP_FLOOR,
        "heavy-hex engine speedup {hh_speedup:.2}x fell below the {HEAVY_HEX_SPEEDUP_FLOOR}x floor"
    );

    report.save_and_announce();
    cli.write_manifest();
}
