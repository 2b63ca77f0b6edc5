//! `chaos` — the deterministic fault-injection campaign behind the CI
//! chaos gate.
//!
//! Replays a fixed grid of injected faults against the compile service
//! path and verifies the robustness invariant on every scenario: a
//! coupling-compliant circuit comes back, or a structured
//! [`CompileError`] does — never a panic. Only deterministic fault
//! triggers are used (corrupted tables, degraded topologies, zero
//! budgets), so the run manifest — including the `qcompile/fallbacks*`
//! counters the gate regresses — is identical on every run and runner.
//!
//! Usage: `chaos [seeds-per-class] [--manifest <path>] [--trace <path>]`
//! (shared driver flags; `--help` prints them). (default 7 seeds
//! per fault class — a 217-scenario campaign; the committed
//! `results/chaos.manifest.json` baseline was produced with the default).

use std::process::ExitCode;
use std::time::Duration;

use bench::cli::Cli;
use qcompile::{try_compile_artifact_with_context, CompileError, CompileOptions, QaoaSpec};
use qhw::fault::{FaultInjector, FaultKind};
use qhw::{Calibration, HardwareContext, Topology};
use qroute::satisfies_coupling;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spec_for(seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(10, 0.35, 1000, &mut rng).unwrap();
    let problem = qaoa::MaxCut::without_optimum(g);
    QaoaSpec::from_maxcut(&problem, &qaoa::QaoaParams::p1(0.5, 0.3), true)
}

/// One scenario. Returns `(delivered, violated)`.
fn run(
    spec: &QaoaSpec,
    topo: &Topology,
    context: &HardwareContext,
    options: &CompileOptions,
    seed: u64,
) -> (bool, bool) {
    let q = qtrace::global();
    q.add("chaos/scenarios", 1);
    let mut rng = StdRng::seed_from_u64(seed);
    match try_compile_artifact_with_context(spec, context, options, &mut rng) {
        Ok(artifact) => {
            let compiled = artifact.template();
            let ok = satisfies_coupling(compiled.physical(), topo);
            if ok {
                q.add("chaos/delivered", 1);
                if compiled.trace().degraded() {
                    q.add("chaos/degraded_deliveries", 1);
                }
            } else {
                q.add("chaos/coupling_violations", 1);
            }
            (true, !ok)
        }
        Err(e) => {
            q.add("chaos/structured_errors", 1);
            if matches!(e, CompileError::DisconnectedTopology { .. }) {
                q.add("chaos/disconnected_errors", 1);
            }
            (false, false)
        }
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse("chaos");
    let seeds = cli.pos_usize(0, 7) as u64;
    let topo = Topology::ibmq_16_melbourne();
    let base_cal = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    let strategies = [
        ("vic", CompileOptions::vic()),
        ("ic", CompileOptions::ic()),
        ("naive", CompileOptions::naive()),
    ];

    let mut scenarios = 0usize;
    let mut delivered = 0usize;
    let mut violations = 0usize;
    let mut tally = |d: (bool, bool)| {
        scenarios += 1;
        delivered += usize::from(d.0);
        violations += usize::from(d.1);
    };

    println!(
        "=== chaos campaign ({seeds} seeds/class, {}) ===",
        topo.name()
    );

    // Calibration corruption, ladder on: every class must deliver.
    for kind in FaultKind::CALIBRATION {
        for seed in 0..seeds {
            let bad = FaultInjector::new(seed).corrupt_calibration(&topo, &base_cal, kind);
            let context = HardwareContext::with_calibration(topo.clone(), bad);
            let spec = spec_for(1000 + seed);
            for (_, options) in strategies {
                tally(run(&spec, &topo, &context, &options.with_fallback(), seed));
            }
        }
    }

    // Topology degradation: structured DisconnectedTopology or delivery.
    for kind in FaultKind::TOPOLOGY {
        for seed in 0..seeds {
            let degraded = FaultInjector::new(seed).degrade_topology(&topo, kind);
            let context = HardwareContext::new(degraded.clone());
            let spec = spec_for(2000 + seed);
            for (_, options) in [
                ("ic", CompileOptions::ic()),
                ("naive", CompileOptions::naive()),
            ] {
                tally(run(
                    &spec,
                    &degraded,
                    &context,
                    &options.with_fallback(),
                    seed,
                ));
            }
        }
    }

    // Deterministic budget exhaustion: zero budgets always trigger.
    let context = HardwareContext::new(topo.clone());
    for seed in 0..seeds {
        let spec = spec_for(3000 + seed);
        for options in [
            CompileOptions::ic().with_pass_budget(Duration::ZERO),
            CompileOptions::ic().with_swap_budget(0),
        ] {
            tally(run(&spec, &topo, &context, &options.with_fallback(), seed));
            tally(run(&spec, &topo, &context, &options, seed));
        }
    }

    println!(
        "{scenarios} scenarios: {delivered} delivered, {} structured errors, \
         {violations} coupling violations",
        scenarios - delivered
    );
    cli.write_manifest();
    if violations > 0 {
        eprintln!("chaos: {violations} unverified circuits escaped");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
