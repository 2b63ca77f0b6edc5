//! Figure 12: impact of the layer packing limit on depth, gate-count and
//! compilation time — IC(+QAIM) on a 36-qubit 6×6 grid, 36-node
//! Erdős–Rényi (p=0.5) and 15-regular graphs.
//!
//! Usage: `fig12_packing [instances-per-point] [--manifest <path>] [--trace <path>]`
//! (paper: 20 instances/point; default 5).

use bench::cli::Cli;
use bench::report::Report;
use bench::stats::{mean, row};
use bench::workloads::{instances, Family};
use qcompile::{compile_batch, default_workers, BatchJob, CompileOptions};
use qhw::{HardwareContext, Topology};

const LIMITS: [usize; 9] = [1, 3, 5, 7, 9, 11, 13, 15, 18];

fn main() {
    let cli = Cli::parse("fig12_packing");
    let count = cli.pos_usize(0, 5);
    let topo = Topology::grid(6, 6);
    let context = HardwareContext::new(topo.clone());
    let workers = default_workers();
    let n = 36;

    println!(
        "=== Figure 12: packing-limit sweep (IC+QAIM, {}, {count} instances/point) ===",
        topo.name()
    );
    let mut report = Report::new("fig12_packing");
    for (title, family) in [
        ("erdos-renyi p=0.5", Family::ErdosRenyi(0.5)),
        ("regular k=15", Family::Regular(15)),
    ] {
        println!("\n-- {title} ({n} nodes) --");
        println!(
            "{:<18} {:>10} {:>10} {:>10}",
            "packing limit", "depth", "gates", "time (s)"
        );
        let specs: Vec<_> = instances(family, n, count, 12_001)
            .into_iter()
            .map(|g| bench::compilation_spec(g, true))
            .collect();
        // The whole sweep is one batch: every (limit, instance) pair keeps
        // the per-instance seed of the old serial loop.
        let jobs: Vec<BatchJob> = LIMITS
            .iter()
            .flat_map(|&limit| {
                specs.iter().enumerate().map(move |(gi, spec)| {
                    BatchJob::new(
                        spec.clone(),
                        CompileOptions::ic().with_packing_limit(limit),
                        12_100 + gi as u64,
                    )
                })
            })
            .collect();
        let compiled = compile_batch(&context, &jobs, workers);

        for (li, &limit) in LIMITS.iter().enumerate() {
            let mut depths = Vec::new();
            let mut gates = Vec::new();
            let mut times = Vec::new();
            for result in &compiled[li * count..(li + 1) * count] {
                let c = result
                    .as_ref()
                    .expect("figure workloads compile")
                    .template();
                depths.push(c.depth() as f64);
                gates.push(c.gate_count() as f64);
                times.push(c.elapsed().as_secs_f64());
            }
            report.add(format!("{title}/limit={limit}/depth"), &depths);
            report.add(format!("{title}/limit={limit}/gates"), &gates);
            report.add(format!("{title}/limit={limit}/time_s"), &times);
            println!(
                "{}",
                row(
                    &limit.to_string(),
                    &[mean(&depths), mean(&gates), mean(&times)]
                )
            );
        }
    }
    println!("\n(paper shape: depth falls with packing limit then degrades past ~11;\n gate count rises with limit; compile time falls monotonically)");
    report.save_and_announce();
    cli.write_manifest();
}
