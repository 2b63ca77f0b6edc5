//! Figure 11(a): the headline summary table — mean depth, gate-count and
//! compilation time of NAIVE, QAIM, IP, IC and VIC, normalized by NAIVE,
//! over a mixed pool of 20-node Erdős–Rényi + regular instances on
//! ibmq_20_tokyo. VIC uses CNOT errors drawn from N(1.0e-2, 0.5e-2) as in
//! §V-F.
//!
//! Usage: `fig11a_summary [instances-per-family] [--manifest <path>] [--trace <path>]`
//! (paper: 600 total = 50 per family across 12 families; default 10 per
//! family = 120 total).

use bench::cli::Cli;
use bench::report::Report;
use bench::stats::{mean, row};
use bench::workloads::{instances, Family, ER_PROBABILITIES, REGULAR_DEGREES};
use qcompile::{compile_batch, default_workers, BatchJob, CompileOptions};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("fig11a_summary");
    let per_family = cli.pos_usize(0, 10);
    let topo = Topology::ibmq_20_tokyo();
    let mut cal_rng = StdRng::seed_from_u64(1106);
    let cal = Calibration::random_normal(&topo, 1.0e-2, 0.5e-2, &mut cal_rng);
    // One shared context for all 600 (instance, strategy) pairs: distance
    // matrices and profiling are computed twice (hops + weighted), total.
    let context = HardwareContext::with_calibration(topo, cal);
    let workers = default_workers();

    let strategies = [
        ("NAIVE", CompileOptions::naive()),
        ("QAIM", CompileOptions::qaim_only()),
        ("IP", CompileOptions::ip()),
        ("IC", CompileOptions::ic()),
        ("VIC", CompileOptions::vic()),
    ];

    let families: Vec<Family> = ER_PROBABILITIES
        .iter()
        .map(|&p| Family::ErdosRenyi(p))
        .chain(REGULAR_DEGREES.iter().map(|&k| Family::Regular(k)))
        .collect();
    let total = families.len() * per_family;
    println!("=== Figure 11(a): strategy summary over {total} 20-node instances ===");

    let jobs: Vec<BatchJob> = families
        .iter()
        .flat_map(|family| {
            instances(*family, 20, per_family, 11_001)
                .into_iter()
                .enumerate()
                .flat_map(|(gi, g)| {
                    let spec = bench::compilation_spec(g, true);
                    strategies
                        .iter()
                        .map(move |(_, options)| {
                            BatchJob::new(spec.clone(), *options, 11_100 + gi as u64)
                        })
                        .collect::<Vec<_>>()
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

    println!(
        "{:<18} {:>10} {:>10} {:>10}",
        "method", "depth", "gates", "time"
    );
    let mut report = Report::new("fig11a_summary");
    let base = (mean(&depths[0]), mean(&gates[0]), mean(&times[0]));
    for (si, (name, _)) in strategies.iter().enumerate() {
        report.add(format!("{name}/depth"), &depths[si]);
        report.add(format!("{name}/gates"), &gates[si]);
        report.add(format!("{name}/time_s"), &times[si]);
        println!(
            "{}",
            row(
                name,
                &[
                    mean(&depths[si]) / base.0,
                    mean(&gates[si]) / base.1,
                    mean(&times[si]) / base.2,
                ],
            )
        );
    }
    println!(
        "\n(paper's Figure 11(a): NAIVE 1/1/1, QAIM 0.95/0.94/~1, IP 0.54/0.92/0.55,\n IC 0.47/0.77/0.85, VIC 0.48/0.77/0.86)"
    );
    report.save_and_announce();
    cli.write_manifest();
}
