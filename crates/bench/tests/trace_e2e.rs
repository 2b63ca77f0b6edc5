//! End-to-end check of the `--trace` path: a quick `fig09_ip_ic` run
//! must produce a Chrome Trace Format file that parses with the crate's
//! own JSON parser, and `xray` must render a flamegraph from both the
//! trace and the manifest.

use std::path::PathBuf;
use std::process::Command;

use qtrace::json::Json;

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

    // xray renders both artifact kinds.
    for artifact in [&trace_path, &manifest_path] {
        let out = Command::new(env!("CARGO_BIN_EXE_xray"))
            .arg(artifact)
            .output()
            .expect("spawn xray");
        assert!(
            out.status.success(),
            "xray {} failed:\n{}",
            artifact.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("flamegraph"), "{stdout}");
        assert!(stdout.contains("hot paths"), "{stdout}");
    }

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&manifest_path);
}
