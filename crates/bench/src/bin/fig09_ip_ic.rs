//! Figure 9: IP (+QAIM) and IC (+QAIM) versus QAIM-only — depth,
//! gate-count and compilation-time ratios on 20-node Erdős–Rényi and
//! regular MaxCut-QAOA instances, ibmq_20_tokyo target.
//!
//! Usage: `fig09_ip_ic [instances-per-bar] [--manifest <path>] [--trace <path>]`
//! (paper: 50 instances/bar).

use bench::cli::Cli;
use bench::report::Report;
use bench::stats::{ratio_of_means, row};
use bench::workloads::{instances, Family, ER_PROBABILITIES, REGULAR_DEGREES};
use qcompile::{compile_batch, default_workers, BatchJob, CompileOptions};
use qhw::{HardwareContext, Topology};

fn main() {
    let cli = Cli::parse("fig09_ip_ic");
    let count = cli.pos_usize(0, 50);
    let topo = Topology::ibmq_20_tokyo();
    let context = HardwareContext::new(topo);
    let workers = default_workers();
    let n = 20;

    let strategies = [
        ("qaim", CompileOptions::qaim_only()),
        ("ip", CompileOptions::ip()),
        ("ic", CompileOptions::ic()),
    ];

    println!("=== Figure 9: IP/IC vs QAIM (n={n}, {count} instances/bar) ===");
    let mut report = Report::new("fig09_ip_ic");
    for (title, families) in [
        (
            "erdos-renyi",
            ER_PROBABILITIES.map(Family::ErdosRenyi).to_vec(),
        ),
        ("regular", REGULAR_DEGREES.map(Family::Regular).to_vec()),
    ] {
        println!("\n-- {title} graphs --");
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "family", "ip/q D", "ic/q D", "ip/q G", "ic/q G", "ip/q T", "ic/q T"
        );
        for family in families {
            let jobs: Vec<BatchJob> = instances(family, n, count, 9001)
                .into_iter()
                .enumerate()
                .flat_map(|(gi, g)| {
                    let spec = bench::compilation_spec(g, true);
                    strategies
                        .iter()
                        .map(move |(_, options)| {
                            BatchJob::new(spec.clone(), *options, 9200 + gi as u64)
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            let compiled = compile_batch(&context, &jobs, workers);

            let mut depths = vec![Vec::new(); strategies.len()];
            let mut gates = vec![Vec::new(); strategies.len()];
            let mut times = vec![Vec::new(); strategies.len()];
            for (ji, result) in compiled.into_iter().enumerate() {
                let artifact = result.expect("figure workloads compile");
                let c = artifact.template();
                let si = ji % strategies.len();
                depths[si].push(c.depth() as f64);
                gates[si].push(c.gate_count() as f64);
                times[si].push(c.elapsed().as_secs_f64());
            }
            for (si, (name, _)) in strategies.iter().enumerate() {
                report.add(format!("{family}/{name}/depth"), &depths[si]);
                report.add(format!("{family}/{name}/gates"), &gates[si]);
                report.add(format!("{family}/{name}/time_s"), &times[si]);
            }
            println!(
                "{}",
                row(
                    &family.to_string(),
                    &[
                        ratio_of_means(&depths[1], &depths[0]),
                        ratio_of_means(&depths[2], &depths[0]),
                        ratio_of_means(&gates[1], &gates[0]),
                        ratio_of_means(&gates[2], &gates[0]),
                        ratio_of_means(&times[1], &times[0]),
                        ratio_of_means(&times[2], &times[0]),
                    ],
                )
            );
        }
    }
    println!("\n(paper shape: both IP and IC well below 1.0 on depth — strongest on dense graphs;\n IC below IP on gate-count; IP fastest to compile)");
    report.save_and_announce();
    cli.write_manifest();
}
