//! The committed ops-plane baselines must render a non-empty `qstat`
//! dashboard — the acceptance contract for the serving layer's
//! observability: a fresh checkout can inspect the serving picture
//! (per-tenant traffic, terminals, tail latencies, hot specs, journal
//! tallies) without running a campaign first. If a baseline
//! regeneration drops the `qserve/` series family or the journal, this
//! fails before the CI gates ever diff anything.

use std::path::PathBuf;

use bench::qstat::{dashboard, journal_tallies, render};

fn results(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name)
}

fn read(name: &str) -> String {
    let path = results(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {} unreadable: {e}", path.display()))
}

#[test]
fn committed_serve_load_baselines_render_a_per_tenant_dashboard() {
    let manifest = qtrace::Manifest::from_json(&read("serve_load.manifest.json"))
        .expect("committed manifest parses");
    let dash = dashboard(&manifest);
    assert!(
        !dash.is_empty(),
        "committed serve_load manifest carries no qserve/ ops series"
    );
    assert!(
        dash.tenants.len() >= 2,
        "quick campaign spreads traffic over multiple tenants"
    );
    assert!(!dash.specs.is_empty(), "hot-spec table must be populated");

    let tallies =
        journal_tallies(&read("serve_load.journal.jsonl"), None).expect("committed journal parses");
    assert!(
        tallies.contains_key("calibration_reload"),
        "journal must carry the mid-run reload: {tallies:?}"
    );

    let text = render(&dash, Some(&tallies), None, 8);
    assert!(text.contains("tenant 0"), "{text}");
    assert!(text.contains("hit ratio"), "{text}");
    assert!(text.contains("hot specs"), "{text}");
    assert!(text.contains("calibration_reload"), "{text}");
}

#[test]
fn committed_serve_chaos_journal_tallies_every_failure_mechanism() {
    let tallies = journal_tallies(&read("serve_chaos.journal.jsonl"), None)
        .expect("committed chaos journal parses");
    for event in [
        "breaker_trip",
        "breaker_probe",
        "breaker_close",
        "quarantine_add",
        "negative_strike",
        "calibration_reload",
        "spill_recovery",
    ] {
        assert!(
            tallies.contains_key(event),
            "chaos journal baseline lost its {event} events: {tallies:?}"
        );
    }
}

#[test]
fn journal_tallies_follow_a_manifest_without_serving_series() {
    // `xray --journal` beside a compile manifest: the dashboard has no
    // qserve/ series to show, but the journal it was handed still renders.
    let manifest = qtrace::Manifest::from_json(&read("compile_throughput.manifest.json"))
        .expect("committed manifest parses");
    let dash = dashboard(&manifest);
    assert!(dash.is_empty(), "compile manifest carries qserve/ series");
    let tallies =
        journal_tallies(&read("serve_load.journal.jsonl"), None).expect("committed journal parses");

    let text = render(&dash, Some(&tallies), None, 8);
    assert!(
        text.contains("(no qserve/ ops series in manifest)"),
        "{text}"
    );
    let total: u64 = tallies.values().sum();
    assert!(text.contains(&format!("journal ({total} event")), "{text}");
    for event in tallies.keys() {
        assert!(
            text.contains(event.as_str()),
            "tally {event} missing: {text}"
        );
    }
}
