//! CI-gated load generator for the `qserve` compile service.
//!
//! Replays a seeded fig09-class request stream (see
//! [`bench::serveload`]) against an in-process [`qserve::Service`] and
//! prints the serving picture: throughput, cache hit rate, and exact
//! request-latency quantiles. Two fixed configurations exist —
//! `--quick` (the CI gate, 32-key universe, 4k requests) and the default
//! full run (48 keys, 40k requests) — so baselines are comparable
//! across machines.
//!
//! Usage: `serve_load [--quick] [--manifest <path>] [--trace <path>]
//! [--journal <path>]`.
//!
//! `BENCH_serve_load*.json` carries only the deterministic counter
//! series (requests, hits, misses, evictions, sheds, rejections,
//! invalidations, and the ops-plane lifecycle/journal tallies), so the
//! `regress` gate runs at tolerance 0; wall-clock throughput and
//! latency go to stdout and — as non-gating spans — into the run
//! manifest. Two serving-quality floors are asserted in-binary:
//! cached throughput of at least [`THROUGHPUT_FLOOR_RPS`] req/s and a
//! hit rate of at least [`HIT_RATE_FLOOR`]. The ops plane adds its own
//! non-vacuity floors: every admitted request has exactly one terminal
//! lifecycle stage (conservation), no lifecycle record was dropped,
//! and the journal saw the calibration reload. `--journal <path>`
//! writes the deterministic ops journal as JSON lines.

use bench::cli::Cli;
use bench::report::Report;
use bench::serveload::{run_load, LoadConfig};

/// Minimum accepted requests/second over the measured phase.
const THROUGHPUT_FLOOR_RPS: f64 = 10_000.0;

/// Minimum accepted cache hit rate over the measured phase.
const HIT_RATE_FLOOR: f64 = 0.90;

fn main() {
    let cli = Cli::parse_with_options("serve_load", &["quick"], &["journal"]);
    let quick = cli.flag("quick");
    let cfg = if quick {
        LoadConfig::quick()
    } else {
        LoadConfig::full()
    };

    println!("=== Compile-as-a-service load generation ===");
    println!(
        "({} requests over {} tenants, {} workers, seed {:#x}, {})",
        cfg.requests,
        cfg.tenants,
        cfg.workers,
        cfg.seed,
        if quick { "quick" } else { "full" },
    );

    let out = run_load(&cfg);
    let s = out.stats;

    println!(
        "\n{:<26} {:>12}",
        "key universe",
        format!("{} keys", out.keys)
    );
    println!("{:<26} {:>12}", "cached entries", s.cached_entries);
    println!(
        "{:<26} {:>11.1}%",
        "hit rate (measured)",
        out.hit_rate * 100.0
    );
    println!(
        "{:<26} {:>12}",
        "hits / misses",
        format!("{} / {}", s.hits, s.misses)
    );
    println!("{:<26} {:>12}", "evictions", s.evictions);
    println!(
        "{:<26} {:>12}",
        "shed / rejected",
        format!("{} / {}", s.shed, s.rejected)
    );
    println!(
        "{:<26} {:>12}",
        "invalidated (reload)",
        format!("{} @ epoch {}", s.invalidated, s.epoch)
    );
    println!(
        "{:<26} {:>9.0} req/s",
        "throughput (measured)", out.throughput_rps
    );
    println!(
        "{:<26} {:>10.1}µs / {:.1}µs / {:.1}µs",
        "latency p50/p90/p99", out.p50_us, out.p90_us, out.p99_us
    );
    println!("{:<26} {:>11.3}s", "wall (measured)", out.wall_s);

    let journal_lines = out.journal.lines().count() as u64;
    println!(
        "{:<26} {:>12}",
        "lifecycle records",
        format!(
            "{} ({} terminal)",
            out.lifecycle_records, out.lifecycle_terminals
        )
    );
    println!("{:<26} {:>12}", "journal events", journal_lines);

    let mut report = Report::new(if quick {
        "serve_load_quick"
    } else {
        "serve_load"
    });
    report.add("serve/requests", &[out.measured_requests as f64]);
    report.add("serve/keys", &[out.keys as f64]);
    report.add("serve/hits", &[s.hits as f64]);
    report.add("serve/misses", &[s.misses as f64]);
    report.add("serve/evictions", &[s.evictions as f64]);
    report.add("serve/shed", &[s.shed as f64]);
    report.add("serve/rejected", &[s.rejected as f64]);
    report.add("serve/invalidated", &[s.invalidated as f64]);
    report.add("serve/hit_rate_pct", &[out.hit_rate * 100.0]);
    report.add("serve/lifecycle_records", &[out.lifecycle_records as f64]);
    report.add(
        "serve/lifecycle_terminals",
        &[out.lifecycle_terminals as f64],
    );
    report.add("serve/journal_events", &[journal_lines as f64]);
    report.save_and_announce();

    assert!(
        out.hit_rate >= HIT_RATE_FLOOR,
        "cache hit rate {:.3} fell below the {HIT_RATE_FLOOR} floor",
        out.hit_rate
    );
    assert!(
        out.throughput_rps >= THROUGHPUT_FLOOR_RPS,
        "cached serving throughput {:.0} req/s fell below the \
         {THROUGHPUT_FLOOR_RPS} req/s floor",
        out.throughput_rps
    );

    // Ops-plane non-vacuity floors: the lifecycle log conserves
    // requests (every admission reaches exactly one terminal, nothing
    // dropped) and the journal actually witnessed the failure plane's
    // one scheduled action, the mid-run calibration reload.
    assert_eq!(
        out.lifecycle_records, s.requests,
        "lifecycle log must hold one record per admitted request"
    );
    assert_eq!(
        out.lifecycle_terminals, out.lifecycle_records,
        "every admitted request must reach exactly one terminal stage"
    );
    assert_eq!(out.lifecycle_dropped, 0, "lifecycle capacity overflowed");
    assert!(
        out.journal
            .lines()
            .any(|l| l.contains("calibration_reload")),
        "journal must record the mid-run calibration reload"
    );

    if let Some(path) = cli.opt("journal") {
        std::fs::write(path, &out.journal).expect("write journal");
        println!("[wrote journal {path}]");
    }

    cli.write_manifest();
}
