//! Variation-aware compilation on real calibration data: compile the same
//! problem with IC and VIC for `ibmq_16_melbourne` using the CNOT error
//! rates of Figure 10(a), then verify the VIC circuit routes its two-qubit
//! traffic over more reliable couplings.
//!
//! Run with: `cargo run --release --example variation_aware`

use qaoa::{MaxCut, QaoaParams};
use qcircuit::Circuit;
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mean CNOT error over the two-qubit gates the circuit actually executes.
fn mean_edge_error(circuit: &Circuit, cal: &Calibration) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for instr in circuit.iter().filter(|i| i.gate().arity() == 2) {
        total += cal.cnot_error(instr.q0(), instr.q1());
        count += 1;
    }
    total / count.max(1) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (topo, cal) = Calibration::melbourne_2020_04_08();
    println!("device: {} with the 2020-04-08 calibration", topo.name());
    let (best, worst) = (cal.best_coupling().unwrap(), cal.worst_coupling().unwrap());
    println!(
        "best coupling ({}, {}) at {:.2}% error; worst ({}, {}) at {:.2}%\n",
        best.0.a(),
        best.0.b(),
        100.0 * best.1,
        worst.0.a(),
        worst.0.b(),
        100.0 * worst.1,
    );

    let context = HardwareContext::shared(&topo, Some(&cal));
    let mut rng = StdRng::seed_from_u64(42);
    let (mut sp_ic_total, mut sp_vic_total) = (0.0, 0.0);
    let runs = 10;
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12} {:>11} {:>11}",
        "inst", "ic swaps", "vic swaps", "ic SP", "vic SP", "ic err/2q", "vic err/2q"
    );
    for inst in 0..runs {
        let mut g_rng = StdRng::seed_from_u64(7_000 + inst);
        let graph = qgraph::generators::connected_erdos_renyi(12, 0.4, 10_000, &mut g_rng)?;
        let problem = MaxCut::without_optimum(graph);
        let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.8, 0.4), true);

        let ic =
            try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)?;
        let vic =
            try_compile_artifact_with_context(&spec, &context, &CompileOptions::vic(), &mut rng)?;
        let (ic, vic) = (ic.template(), vic.template());
        let (sp_ic, sp_vic) = (ic.success_probability(&cal), vic.success_probability(&cal));
        sp_ic_total += sp_ic;
        sp_vic_total += sp_vic;
        println!(
            "{:<6} {:>10} {:>10} {:>12.3e} {:>12.3e} {:>10.2}% {:>10.2}%",
            inst,
            ic.swap_count(),
            vic.swap_count(),
            sp_ic,
            sp_vic,
            100.0 * mean_edge_error(ic.physical(), &cal),
            100.0 * mean_edge_error(vic.physical(), &cal),
        );
    }
    println!(
        "\nmean success probability: IC {:.3e}, VIC {:.3e} (ratio {:.2})",
        sp_ic_total / runs as f64,
        sp_vic_total / runs as f64,
        sp_vic_total / sp_ic_total
    );
    Ok(())
}
