//! A deterministic compile-quality report for the CI regression gate.
//!
//! Timing benches flap on shared CI runners; compilation *quality* does
//! not. For a fixed workload, topology and seed, the compiler is fully
//! deterministic, so each compiled instance's depth / gate count / SWAP
//! count is one exact value, reported as a series of its own whose
//! bootstrap CI degenerates — any shift beyond the `regress` tolerance is
//! a real behavior change, not noise. (A cell's instances pooled into one
//! series would not do: their bootstrap CI is wide enough that a changed
//! routing decision reads as flat at tolerance 0.) This is the stable
//! half of the CI gate (`results/BENCH_compile_quality.json`); the quick
//! throughput bench is the timing half.
//!
//! The workload is intentionally small (seconds of wall clock): a few
//! Erdős–Rényi and regular instances on ibmq_20_tokyo compiled with each
//! of the paper's strategies, plus one VIC cell on ibmq_16_melbourne under
//! its real calibration.

use crate::report::Report;
use crate::workloads::{instances, Family};
use qcompile::{compile_batch, default_workers, BatchJob, CompileOptions};
use qhw::{Calibration, HardwareContext, Topology};

/// Instances per (family, strategy) cell. Small by design; the medians
/// are deterministic regardless.
const COUNT: usize = 4;
/// Graph size: the paper's 20-node regime on the 20-qubit tokyo target.
const NODES: usize = 20;
/// Graph size of the melbourne cell, the paper's Figure 10 regime on the
/// 15-qubit device.
const MELBOURNE_NODES: usize = 12;

/// Compiles the fixed workload and returns the `compile_quality` report:
/// one `{family}/{strategy}/{instance}/{depth,gates,swaps}` series per
/// compiled instance.
pub fn run() -> Report {
    let topo = Topology::ibmq_20_tokyo();
    // Uniform calibration: the noise-aware strategies (IC/VIC) need one,
    // and a constant profile keeps the report machine-independent.
    let cal = Calibration::uniform(&topo, 0.02, 0.002, 0.02);
    let tokyo = HardwareContext::with_calibration(topo, cal);
    // Under a uniform table every coupling weighs the same, so VIC decides
    // as IC does. The paper's Figure 10(a) melbourne table is fixed
    // constants too, so this cell exercises VIC's weighted choices while
    // the report stays machine-independent (a seeded random draw would go
    // through libm).
    let (melbourne_topo, melbourne_cal) = Calibration::melbourne_2020_04_08();
    let melbourne = HardwareContext::with_calibration(melbourne_topo, melbourne_cal);
    let workers = default_workers();
    let strategies = [
        ("naive", CompileOptions::naive()),
        ("qaim", CompileOptions::qaim_only()),
        ("ic", CompileOptions::ic()),
        ("vic", CompileOptions::vic()),
    ];
    let melbourne_strategies = [("vic_melbourne", CompileOptions::vic())];
    let families = [Family::ErdosRenyi(0.3), Family::Regular(4)];

    let mut report = Report::new("compile_quality");
    println!("=== compile_quality (n={NODES}, {COUNT} instances/cell; melbourne n={MELBOURNE_NODES}) ===");
    println!(
        "{:<24} {:>8} {:>8} {:>8}",
        "family/strategy", "depth", "gates", "swaps"
    );
    for family in families {
        add_cells(&mut report, &tokyo, family, NODES, &strategies, workers);
        add_cells(
            &mut report,
            &melbourne,
            family,
            MELBOURNE_NODES,
            &melbourne_strategies,
            workers,
        );
    }
    report
}

/// Compiles `COUNT` `family` instances of `nodes` nodes with each strategy
/// on `context`, prints each cell's means and adds one depth, gates and
/// swaps series per instance.
fn add_cells(
    report: &mut Report,
    context: &HardwareContext,
    family: Family,
    nodes: usize,
    strategies: &[(&str, CompileOptions)],
    workers: usize,
) {
    let jobs: Vec<BatchJob> = instances(family, nodes, COUNT, 7001)
        .into_iter()
        .enumerate()
        .flat_map(|(gi, g)| {
            let spec = crate::compilation_spec(g, true);
            strategies
                .iter()
                .map(move |(_, options)| BatchJob::new(spec.clone(), *options, 9000 + gi as u64))
                .collect::<Vec<_>>()
        })
        .collect();
    let compiled = compile_batch(context, &jobs, workers);

    let mut cells = vec![(Vec::new(), Vec::new(), Vec::new()); strategies.len()];
    for (ji, result) in compiled.into_iter().enumerate() {
        let artifact = result.expect("quality workloads compile");
        let c = artifact.template();
        let cell = &mut cells[ji % strategies.len()];
        cell.0.push(c.depth() as f64);
        cell.1.push(c.gate_count() as f64);
        cell.2.push(c.swap_count() as f64);
    }
    for (si, (name, _)) in strategies.iter().enumerate() {
        let (depths, gates, swaps) = &cells[si];
        println!(
            "{:<24} {:>8.1} {:>8.1} {:>8.1}",
            format!("{family}/{name}"),
            crate::stats::mean(depths),
            crate::stats::mean(gates),
            crate::stats::mean(swaps),
        );
        for (i, ((depth, gates), swaps)) in depths.iter().zip(gates).zip(swaps).enumerate() {
            report.add(format!("{family}/{name}/{i}/depth"), &[*depth]);
            report.add(format!("{family}/{name}/{i}/gates"), &[*gates]);
            report.add(format!("{family}/{name}/{i}/swaps"), &[*swaps]);
        }
    }
}
