//! Figure 7: NAIVE vs GreedyV vs QAIM — depth and gate-count ratios on
//! 20-node Erdős–Rényi (edge prob 0.1–0.6) and regular (3–8 edges/node)
//! MaxCut-QAOA instances, ibmq_20_tokyo target.
//!
//! Usage: `fig07_qaim [instances-per-bar] [--manifest <path>] [--trace <path>]`
//! (paper: 50 instances/bar; default 50).

use bench::cli::Cli;
use bench::report::Report;
use bench::stats::{mean, ratio_of_means, row};
use bench::workloads::{instances, Family, ER_PROBABILITIES, REGULAR_DEGREES};
use qcompile::{
    compile_batch, default_workers, BatchJob, Compilation, CompileOptions, InitialMapping,
};
use qhw::{HardwareContext, Topology};

fn main() {
    let cli = Cli::parse("fig07_qaim");
    let count = cli.pos_usize(0, 50);
    let topo = Topology::ibmq_20_tokyo();
    let context = HardwareContext::new(topo.clone());
    let workers = default_workers();
    let n = 20;

    let strategies = [
        ("naive", CompileOptions::naive()),
        (
            "greedyv",
            CompileOptions::new(InitialMapping::GreedyV, Compilation::RandomOrder),
        ),
        (
            "dense",
            CompileOptions::new(InitialMapping::Dense, Compilation::RandomOrder),
        ),
        ("qaim", CompileOptions::qaim_only()),
    ];

    println!(
        "=== Figure 7: initial mapping quality (n={n}, {count} instances/bar, {}) ===",
        topo.name()
    );
    let mut report = Report::new("fig07_qaim");
    for (title, families) in [
        (
            "erdos-renyi",
            ER_PROBABILITIES.map(Family::ErdosRenyi).to_vec(),
        ),
        ("regular", REGULAR_DEGREES.map(Family::Regular).to_vec()),
    ] {
        println!("\n-- {title} graphs --");
        println!(
            "{:<18} {:>11} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "family",
            "naive depth",
            "greedy D",
            "dense D",
            "qaim D",
            "greedy G",
            "dense G",
            "qaim G"
        );
        for family in families {
            // One batch per family: every (instance, strategy) pair is an
            // independent job with the same per-instance seed the serial
            // loop used, so results are unchanged — just parallel.
            let jobs: Vec<BatchJob> = instances(family, n, count, 7001)
                .into_iter()
                .enumerate()
                .flat_map(|(gi, g)| {
                    let spec = bench::compilation_spec(g, true);
                    strategies
                        .iter()
                        .map(move |(_, options)| {
                            BatchJob::new(spec.clone(), *options, 9000 + gi as u64)
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let compiled = compile_batch(&context, &jobs, workers);

            let mut depths = vec![Vec::new(); strategies.len()];
            let mut gates = vec![Vec::new(); strategies.len()];
            for (ji, result) in compiled.into_iter().enumerate() {
                let artifact = result.expect("figure workloads compile");
                let c = artifact.template();
                let si = ji % strategies.len();
                depths[si].push(c.depth() as f64);
                gates[si].push(c.gate_count() as f64);
            }
            for (si, (name, _)) in strategies.iter().enumerate() {
                report.add(format!("{family}/{name}/depth"), &depths[si]);
                report.add(format!("{family}/{name}/gates"), &gates[si]);
            }
            println!(
                "{}",
                row(
                    &family.to_string(),
                    &[
                        mean(&depths[0]),
                        ratio_of_means(&depths[1], &depths[0]),
                        ratio_of_means(&depths[2], &depths[0]),
                        ratio_of_means(&depths[3], &depths[0]),
                        ratio_of_means(&gates[1], &gates[0]),
                        ratio_of_means(&gates[2], &gates[0]),
                        ratio_of_means(&gates[3], &gates[0]),
                    ],
                )
            );
        }
    }
    println!("\n(lower ratios are better; the paper reports QAIM winning clearly on sparse graphs\n and all approaches converging on dense graphs)");
    report.save_and_announce();
    cli.write_manifest();
}
