//! Extension experiment: VIC under stale calibration data.
//!
//! §VI conditions VIC's benefit on "reliable calibration data", and §VII
//! criticizes pre-computed pulse compilation because "quantum hardware
//! suffers from the temporal variation \[69\]". The same critique applies
//! to VIC itself: it optimizes against the calibration snapshot it was
//! given, while the device executes under a drifted one. This binary
//! compiles with VIC against yesterday's calibration and evaluates the
//! success probability under today's (drifted) calibration, for several
//! drift magnitudes.
//!
//! Usage: `ext_stale_calibration [instances] [--manifest <path>] [--trace <path>]` (default 12).

use bench::cli::Cli;
use bench::stats::mean;
use bench::workloads::{instances, Family};
use qcompile::{try_compile_artifact_with_context, CompileOptions};
use qhw::{Calibration, HardwareContext};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cli = Cli::parse("ext_stale_calibration");
    let count = cli.pos_usize(0, 12);
    let (topo, cal_compile) = Calibration::melbourne_2020_04_08();
    let context = HardwareContext::shared(&topo, Some(&cal_compile));

    println!(
        "=== Extension: VIC with stale calibration ({}, {count} 12-node ER(0.5) instances) ===",
        topo.name()
    );
    println!(
        "{:<14} {:>12} {:>12} {:>10}",
        "drift sigma", "SP(ic)", "SP(vic)", "vic/ic"
    );
    for sigma in [0.0, 0.25, 0.5, 1.0, 2.0] {
        let mut sp_ic = Vec::new();
        let mut sp_vic = Vec::new();
        for (gi, g) in instances(Family::ErdosRenyi(0.5), 12, count, 33_001)
            .into_iter()
            .enumerate()
        {
            let spec = bench::compilation_spec(g, true);
            // Today's calibration = drifted copy of the compile-time one.
            let mut d_rng = StdRng::seed_from_u64(33_500 + gi as u64 + (sigma * 100.0) as u64);
            let cal_execute = cal_compile.drifted(sigma, &mut d_rng);
            let mut rng = StdRng::seed_from_u64(33_100 + gi as u64);
            let ic =
                try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
                    .expect("melbourne fits every instance");
            let vic = try_compile_artifact_with_context(
                &spec,
                &context,
                &CompileOptions::vic(),
                &mut rng,
            )
            .expect("melbourne fits every instance");
            let (ic, vic) = (ic.template(), vic.template());
            // Evaluate under the *execution-day* calibration.
            sp_ic.push(ic.success_probability(&cal_execute));
            sp_vic.push(vic.success_probability(&cal_execute));
        }
        let (mi, mv) = (mean(&sp_ic), mean(&sp_vic));
        println!(
            "{:<14} {:>12.3e} {:>12.3e} {:>10.3}",
            sigma,
            mi,
            mv,
            mv / mi
        );
    }
    println!(
        "\n(VIC's edge should erode toward parity as drift grows — the [69]-style\n argument for recompiling against fresh calibration data)"
    );
    cli.write_manifest();
}
