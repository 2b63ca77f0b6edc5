//! End-to-end checks of the telemetry artifacts and their one reader: a
//! quick `fig09_ip_ic` run must produce a Chrome Trace Format file that
//! parses with the crate's own JSON parser, and `xray` must render the
//! manifest written beside it (and refuse the trace, which is for
//! Perfetto); on the committed serving baselines `xray --journal` must
//! append the per-tenant dashboard and the journal tallies.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use qtrace::json::Json;

fn xray(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xray"))
        .args(args)
        .output()
        .expect("spawn xray")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qaoa_trace_e2e_{}_{name}", std::process::id()));
    p
}

#[test]
fn fig09_trace_round_trips_and_xray_renders_it() {
    let trace_path = tmp("trace.json");
    let manifest_path = tmp("manifest.json");

    // One instance per bar keeps this a seconds-scale compile-only run.
    let out = Command::new(env!("CARGO_BIN_EXE_fig09_ip_ic"))
        .arg("1")
        .arg("--trace")
        .arg(&trace_path)
        .arg("--manifest")
        .arg(&manifest_path)
        .output()
        .expect("spawn fig09_ip_ic");
    assert!(
        out.status.success(),
        "fig09_ip_ic failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace is valid JSON for our own zero-dep parser and carries a
    // non-trivial event timeline.
    let trace_text = std::fs::read_to_string(&trace_path).expect("trace written");
    let trace = Json::parse(&trace_text).expect("trace parses");
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() > 1, "expected events beyond metadata");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("B")),
        "expected at least one span begin"
    );

    // The manifest written alongside is version 2 and references spans.
    // The timeline lives only in the trace: the manifest has no events.
    let manifest_text = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let manifest = qtrace::Manifest::from_json(&manifest_text).expect("manifest parses");
    assert!(!manifest.spans.is_empty());
    assert!(
        !manifest_text.contains("\"events\""),
        "manifest written beside --trace carries an events section"
    );

    // xray renders the manifest and refuses the trace, pointing at the
    // manifest.
    let out = xray(&[&manifest_path]);
    assert!(
        out.status.success(),
        "xray {} failed:\n{}",
        manifest_path.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flamegraph"), "{stdout}");
    assert!(stdout.contains("hot paths"), "{stdout}");
    let out = xray(&[&trace_path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--manifest"), "{stderr}");

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&manifest_path);
}

#[test]
fn xray_journal_appends_the_serving_dashboard() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let manifest = results.join("serve_load.manifest.json");
    let journal = results.join("serve_load.journal.jsonl");
    let out = xray(&[&manifest, Path::new("--journal"), &journal]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("flamegraph"), "{stdout}");
    assert!(stdout.contains("serving dashboard"), "{stdout}");
    assert!(stdout.contains("tenant 0\n"), "{stdout}");
    assert!(stdout.contains("hit ratio"), "{stdout}");
    assert!(stdout.contains("\njournal ("), "{stdout}");
    assert!(stdout.contains("calibration_reload"), "{stdout}");
}
