//! `serve_chaos` — the deterministic service-level chaos campaign
//! behind the serve-chaos CI gate.
//!
//! Runs the six-phase [`bench::servechaos`] campaign (fault storm,
//! queue reap, breaker storm, throttle burst, reload storm, spill
//! crash/recovery) against in-process [`qserve::Service`] instances and
//! asserts the fault-tolerance floors in-binary: structured errors only,
//! quarantine and breaker engagement, ≥ 90% spill recovery, and zero
//! stale-epoch VIC artifacts served after a calibration-changed
//! restart. Every fault is seeded and every expiry runs on the logical
//! clock, so the counter report and the run manifest are byte-stable —
//! the CI gate diffs them against the committed baselines in `results/`.
//!
//! Usage: `serve_chaos [--quick] [--manifest <path>] [--trace <path>]
//! [--journal <path>]`.
//!
//! `--journal <path>` writes the campaign's deterministic ops journal —
//! every breaker trip/probe/close, quarantine verdict, negative-cache
//! strike, calibration reload and spill recovery as one JSON line each,
//! phase-delimited — which the serve-chaos CI job diffs byte-for-byte
//! against the committed baseline.

use bench::cli::Cli;
use bench::report::Report;
use bench::servechaos::{run_chaos_full, ChaosConfig};

/// Minimum accepted fraction of spilled artifacts recovered after the
/// kill-and-restart with a seeded tenth of the files corrupted.
const RECOVERY_FLOOR: f64 = 0.90;

fn main() {
    let cli = Cli::parse_with_options("serve_chaos", &["quick"], &["journal"]);
    let quick = cli.flag("quick");
    let cfg = if quick {
        ChaosConfig::quick()
    } else {
        ChaosConfig::full()
    };

    println!("=== Compile-service chaos campaign ===");
    println!(
        "({} storm requests, panic {:.0}% / stall {:.0}%, {} tenants, {} workers, seed {:#x}, {})",
        cfg.requests,
        cfg.panic_rate * 100.0,
        cfg.stall_rate * 100.0,
        cfg.tenants,
        cfg.workers,
        cfg.seed,
        if quick { "quick" } else { "full" },
    );

    let (out, ops) = run_chaos_full(&cfg);

    println!(
        "\n{:<28} {:>12}",
        "requests (all phases)",
        format!("{}", out.requests)
    );
    println!(
        "{:<28} {:>12}",
        "delivered / failed",
        format!("{} / {}", out.delivered, out.failed)
    );
    println!(
        "{:<28} {:>12}",
        "deadline fail / reaped",
        format!("{} / {}", out.deadline_failures, out.deadline_reaped)
    );
    println!("{:<28} {:>12}", "backoff retries", out.negative_retries);
    println!(
        "{:<28} {:>12}",
        "quarantined / rejects",
        format!("{} / {}", out.quarantined_specs, out.quarantine_rejections)
    );
    println!(
        "{:<28} {:>12}",
        "breaker trips / rejects",
        format!("{} / {}", out.breaker_trips, out.breaker_rejections)
    );
    println!("{:<28} {:>12}", "throttled", out.throttle_rejections);
    println!(
        "{:<28} {:>12}",
        "reload invalidations",
        format!("{} @ {} bumps", out.invalidated, out.epoch_bumps)
    );
    println!(
        "{:<28} {:>12}",
        "spill saved/recovered",
        format!("{} / {}", out.spill_saved, out.spill_recovered)
    );
    println!(
        "{:<28} {:>12}",
        "spill corrupt/stale",
        format!("{} / {}", out.spill_corrupt, out.spill_stale)
    );
    println!(
        "{:<28} {:>11.1}%",
        "spill recovery rate",
        out.recovery_rate * 100.0
    );
    println!(
        "{:<28} {:>12}",
        "recovered-artifact hits", out.recovered_hits
    );
    println!("{:<28} {:>12}", "stale VIC hits", out.stale_vic_hits);
    println!(
        "{:<28} {:>12}",
        "lifecycle records",
        format!(
            "{} ({} terminal)",
            ops.lifecycle_records, ops.lifecycle_terminals
        )
    );
    println!(
        "{:<28} {:>12}",
        "journal events",
        ops.journal.lines().count()
    );

    let mut report = Report::new(if quick {
        "serve_chaos_quick"
    } else {
        "serve_chaos"
    });
    report.add("chaos/requests", &[out.requests as f64]);
    report.add("chaos/delivered", &[out.delivered as f64]);
    report.add("chaos/failed", &[out.failed as f64]);
    report.add("chaos/deadline_failures", &[out.deadline_failures as f64]);
    report.add("chaos/deadline_reaped", &[out.deadline_reaped as f64]);
    report.add("chaos/negative_retries", &[out.negative_retries as f64]);
    report.add("chaos/quarantined_specs", &[out.quarantined_specs as f64]);
    report.add(
        "chaos/quarantine_rejections",
        &[out.quarantine_rejections as f64],
    );
    report.add("chaos/breaker_trips", &[out.breaker_trips as f64]);
    report.add("chaos/breaker_rejections", &[out.breaker_rejections as f64]);
    report.add("chaos/throttled", &[out.throttle_rejections as f64]);
    report.add("chaos/invalidated", &[out.invalidated as f64]);
    report.add("chaos/spill_saved", &[out.spill_saved as f64]);
    report.add("chaos/spill_recovered", &[out.spill_recovered as f64]);
    report.add("chaos/spill_corrupt", &[out.spill_corrupt as f64]);
    report.add("chaos/spill_stale", &[out.spill_stale as f64]);
    report.add("chaos/recovered_hits", &[out.recovered_hits as f64]);
    report.add("chaos/stale_vic_hits", &[out.stale_vic_hits as f64]);
    report.add("chaos/recovery_rate_pct", &[out.recovery_rate * 100.0]);
    report.add("chaos/lifecycle_records", &[ops.lifecycle_records as f64]);
    report.add(
        "chaos/lifecycle_terminals",
        &[ops.lifecycle_terminals as f64],
    );
    report.add(
        "chaos/journal_events",
        &[ops.journal.lines().count() as f64],
    );
    report.save_and_announce();

    // The fault-tolerance floors. Each one pins a mechanism end to end;
    // a pass with the mechanism disabled is impossible.
    assert!(out.delivered > 0, "campaign delivered nothing");
    assert!(
        out.deadline_failures > 0,
        "no request observed a deadline error"
    );
    assert!(
        out.deadline_reaped > 0,
        "no queued job was reaped by a deadline sweep"
    );
    assert!(
        out.negative_retries > 0,
        "no negative-cache entry expired into a retry"
    );
    assert!(
        out.quarantined_specs > 0 && out.quarantine_rejections > 0,
        "the fault storm quarantined nothing"
    );
    assert!(
        out.breaker_trips >= 2 && out.breaker_rejections > 0,
        "the breaker never tripped (or never rejected)"
    );
    assert!(
        out.breaker_isolated,
        "an open breaker leaked into another tenant"
    );
    assert!(
        out.throttle_rejections > 0,
        "the token bucket never ran dry"
    );
    assert!(out.invalidated > 0, "reload storms invalidated nothing");
    assert!(
        out.recovery_rate >= RECOVERY_FLOOR,
        "spill recovery {:.3} fell below the {RECOVERY_FLOOR} floor",
        out.recovery_rate
    );
    assert!(
        out.spill_corrupt > 0,
        "corrupted spill files went undetected"
    );
    assert!(
        out.spill_stale > 0,
        "stale VIC spills survived a calibration change"
    );
    assert_eq!(
        out.stale_vic_hits, 0,
        "a stale-epoch VIC artifact was served after restart"
    );

    // Ops-plane floors: the journal must have witnessed every
    // failure-plane mechanism the campaign detonated, and the lifecycle
    // log must conserve requests (one terminal each, nothing dropped).
    for event in [
        "breaker_trip",
        "breaker_probe",
        "breaker_close",
        "quarantine_add",
        "negative_strike",
        "calibration_reload",
        "spill_recovery",
    ] {
        let needle = format!("\"event\":\"{event}\"");
        assert!(
            ops.journal.lines().any(|l| l.contains(&needle)),
            "journal never recorded a {event} event"
        );
    }
    assert_eq!(
        ops.lifecycle_records, out.requests,
        "lifecycle log must hold one record per campaign request"
    );
    assert_eq!(
        ops.lifecycle_terminals, ops.lifecycle_records,
        "every campaign request must reach exactly one terminal stage"
    );
    assert_eq!(ops.lifecycle_dropped, 0, "lifecycle capacity overflowed");

    if let Some(path) = cli.opt("journal") {
        std::fs::write(path, &ops.journal).expect("write journal");
        println!("[wrote journal {path}]");
    }

    cli.write_manifest();
}
