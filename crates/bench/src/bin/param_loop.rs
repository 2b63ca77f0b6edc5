//! Parametric compile-once/rebind-many loop benchmark.
//!
//! Simulates the hybrid optimizer driver on the Figure 9 workload class
//! (20-node Erdős–Rényi and regular instances, ibmq_20_tokyo, IC): every
//! iteration must produce a hardware-compliant circuit at fresh `(γ, β)`
//! values. The *recompile* path rebuilds and recompiles the bound
//! program at each parameter point; the *rebind* path compiles the
//! parametric program once ([`qcompile::try_compile_artifact_with_context`]) and
//! substitutes values per iteration ([`qcompile::CompiledArtifact::bind`]).
//! Both paths must produce bit-identical physical circuits — asserted
//! per iteration — and the rebind path must be at least
//! [`SPEEDUP_FLOOR`]× cheaper per iteration, also asserted, so a CI run
//! fails loudly if rebinding ever degenerates into a recompile.
//!
//! Usage: `param_loop [instances-per-family] [iterations] [max-p]
//! [--manifest <path>] [--trace <path>]` (defaults: 3, 8, 2).
//!
//! `BENCH_param_loop.json` carries only the deterministic series
//! (depth, SWAPs, rebound-gate counts) so the regress gate cannot flap
//! on runner timing noise; wall-clock numbers go to stdout, and the
//! `qcompile/rebind*` counters land in the run manifest for the
//! deterministic manifest gate.

use std::time::Instant;

use bench::cli::Cli;
use bench::report::Report;
use bench::workloads::{instances, Family};
use qaoa::{MaxCut, QaoaParams};
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimum accepted per-iteration speedup of rebind over recompile.
/// The compile-engine rewrite made recompiling ~4x faster, which
/// narrowed this ratio from ~40x to ~10x; the floor tracks that —
/// rebinding degenerating into a recompile would read ~1x.
const SPEEDUP_FLOOR: f64 = 5.0;

/// A deterministic stand-in for an optimizer trajectory: iteration `i`
/// perturbs every level's `(γ, β)` away from the representative p=1
/// angles, so each rebind sees genuinely fresh values.
fn trajectory(iter: usize, p: usize) -> QaoaParams {
    QaoaParams::new(
        (0..p)
            .map(|k| {
                (
                    0.9 + 0.07 * iter as f64 - 0.11 * k as f64,
                    0.35 - 0.04 * iter as f64 + 0.05 * k as f64,
                )
            })
            .collect(),
    )
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median, robust to the cold-cache first samples of tiny quick-mode
/// runs (the speedup gate uses this, not the mean).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn main() {
    let cli = Cli::parse("param_loop");
    let count = cli.pos_usize(0, 3);
    let iters = cli.pos_usize(1, 8);
    let max_p = cli.pos_usize(2, 2);
    let n = 20;
    let context = HardwareContext::new(Topology::ibmq_20_tokyo());
    let options = CompileOptions::ic();

    println!("=== Parametric loop: recompile-per-iteration vs compile-once/rebind ===");
    println!(
        "(n={n}, ibmq_20_tokyo, IC, {count} instances/family, {iters} iterations/instance, p ≤ {max_p})"
    );
    println!(
        "\n{:<12} {:>3} {:>15} {:>17} {:>15} {:>9}",
        "family", "p", "compile-once", "recompile/iter", "rebind/iter", "speedup"
    );

    let mut report = Report::new("param_loop");
    for family in [Family::ErdosRenyi(0.3), Family::Regular(3)] {
        let graphs = instances(family, n, count, 9001);
        for p in 1..=max_p {
            let mut depths = Vec::new();
            let mut swaps = Vec::new();
            let mut rebound_gates = Vec::new();
            let mut compile_once_s = Vec::new();
            let mut recompile_s = Vec::new();
            let mut rebind_s = Vec::new();

            for (gi, g) in graphs.iter().enumerate() {
                let seed = 9200 + gi as u64;
                let problem = MaxCut::without_optimum(g.clone());
                let spec = QaoaSpec::from_maxcut_parametric(&problem, p, true);

                let start = Instant::now();
                let artifact = try_compile_artifact_with_context(
                    &spec,
                    &context,
                    &options,
                    &mut StdRng::seed_from_u64(seed),
                )
                .expect("figure workloads compile");
                compile_once_s.push(start.elapsed().as_secs_f64());

                // One untimed warmup of each path so quick-mode means are
                // not dominated by first-touch allocator and cache costs.
                let _ = try_compile_artifact_with_context(
                    &QaoaSpec::from_maxcut(&problem, &trajectory(0, p), true),
                    &context,
                    &options,
                    &mut StdRng::seed_from_u64(seed),
                );
                let _ = artifact.bind(&trajectory(0, p).to_values());

                // Naive hybrid driver: rebuild and recompile the bound
                // program at every parameter point.
                let recompiled: Vec<_> = (0..iters)
                    .map(|i| {
                        let params = trajectory(i, p);
                        let start = Instant::now();
                        let bound_spec = QaoaSpec::from_maxcut(&problem, &params, true);
                        let compiled = try_compile_artifact_with_context(
                            &bound_spec,
                            &context,
                            &options,
                            &mut StdRng::seed_from_u64(seed),
                        )
                        .expect("figure workloads compile");
                        recompile_s.push(start.elapsed().as_secs_f64());
                        compiled
                    })
                    .collect();

                // Artifact driver: substitute values into the compiled
                // template. Each bound circuit is consumed (checked) and
                // dropped before the next bind, exactly like an optimizer
                // iteration that simulates and discards the circuit; only
                // the bind itself is timed.
                for (i, rc) in recompiled.iter().enumerate() {
                    let rc = rc.template();
                    let values = trajectory(i, p).to_values();
                    let start = Instant::now();
                    let rebound = artifact
                        .bind(&values)
                        .expect("trajectory values cover the template");
                    rebind_s.push(start.elapsed().as_secs_f64());

                    assert_eq!(
                        rebound.physical(),
                        rc.physical(),
                        "rebind and recompile diverged \
                         ({family}, p={p}, instance {gi}, iteration {i})"
                    );
                    assert_eq!(rebound.depth(), rc.depth());
                    assert_eq!(rebound.swap_count(), rc.swap_count());
                }

                let template = artifact.template();
                depths.push(template.depth() as f64);
                swaps.push(template.swap_count() as f64);
                rebound_gates.push(template.parametric_gate_count() as f64);
            }

            let speedup = median(&recompile_s) / median(&rebind_s);
            println!(
                "{:<12} {:>3} {:>13.2}ms {:>15.3}ms {:>13.2}µs {:>8.0}x",
                family.to_string(),
                p,
                mean(&compile_once_s) * 1e3,
                mean(&recompile_s) * 1e3,
                mean(&rebind_s) * 1e6,
                speedup,
            );

            report.add(format!("{family}/p{p}/depth"), &depths);
            report.add(format!("{family}/p{p}/swaps"), &swaps);
            report.add(format!("{family}/p{p}/rebound_gates"), &rebound_gates);

            assert!(
                speedup >= SPEEDUP_FLOOR,
                "rebind must be at least {SPEEDUP_FLOOR}x cheaper per iteration than \
                 recompile; measured {speedup:.1}x ({family}, p={p})"
            );
        }
    }

    println!(
        "\n(every iteration's rebound circuit is bit-identical to the recompiled one;\n \
         speedup floor {SPEEDUP_FLOOR}x enforced above)"
    );
    report.save_and_announce();
    cli.write_manifest();
}
