//! Worker-count invariance of the serve_chaos campaign.
//!
//! The fault-tolerant serving layer keeps the PR-8 determinism contract
//! under failure: deadlines, backoff TTLs, quarantine strikes, breaker
//! transitions and bucket refills all run on the logical clock, and the
//! fault plane keys on the compile admission ordinal — never on thread
//! timing. This test pins that end to end: the same seeded chaos
//! campaign run with 1, 2 and 8 service workers must produce equal
//! [`ChaosOutcome`]s, byte-identical normalized run manifests
//! (including every `qserve/*` failure counter and the ops plane's
//! per-tenant metric series), and a byte-identical phase-delimited ops
//! journal — the journal is tick-stamped at occurrence under the
//! submit lock, so worker scheduling must not leak into it.
//!
//! One `#[test]` only: the global `qtrace` recorder is process-wide
//! state, and a second concurrent test would interleave its telemetry.

use bench::servechaos::{run_chaos_full, ChaosConfig, ChaosOutcome};

fn campaign(workers: usize) -> (String, ChaosOutcome, String) {
    qtrace::enable();
    let (outcome, ops) = run_chaos_full(&ChaosConfig {
        requests: 120,
        reload_requests: 40,
        reload_storms: 4,
        workers,
        ..ChaosConfig::quick()
    });
    qtrace::disable();
    let manifest = qtrace::take("serve_chaos_determinism").normalized();
    (manifest.to_json(), outcome, ops.journal)
}

/// The normalized manifest (counters, gauges, span counts), the ops
/// journal and the full campaign outcome are invariant across service
/// worker counts.
#[test]
fn chaos_manifest_is_invariant_across_worker_counts() {
    let (base_json, base_out, base_journal) = campaign(1);
    // The baseline run must have exercised every mechanism — an
    // invariance proof over a campaign that detonated nothing would be
    // vacuous.
    assert!(base_out.delivered > 0 && base_out.failed > 0);
    assert!(base_out.deadline_failures > 0);
    assert!(base_out.quarantine_rejections > 0);
    assert!(base_out.breaker_rejections > 0);
    assert!(base_out.throttle_rejections > 0);
    assert!(base_out.negative_retries > 0);
    assert!(base_out.spill_recovered > 0 && base_out.spill_corrupt > 0);
    assert_eq!(base_out.stale_vic_hits, 0);
    assert!(
        base_journal
            .lines()
            .any(|l| l.contains("\"event\":\"quarantine_add\"")),
        "journal missed the fault storm"
    );
    for workers in [2usize, 8] {
        let (json, out, journal) = campaign(workers);
        assert_eq!(out, base_out, "outcome diverged at workers={workers}");
        assert_eq!(json, base_json, "manifest diverged at workers={workers}");
        assert_eq!(
            journal, base_journal,
            "journal diverged at workers={workers}"
        );
    }
}
