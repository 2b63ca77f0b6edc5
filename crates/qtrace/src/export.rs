//! Chrome Trace Format export: turn a drained [`Manifest`]'s event
//! timeline into JSON loadable by [Perfetto](https://ui.perfetto.dev)
//! or `chrome://tracing`.
//!
//! The emitted document is the CTF "JSON object format":
//!
//! ```json
//! {
//!   "displayTimeUnit": "ns",
//!   "traceEvents": [
//!     {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
//!      "args": {"name": "fig09_ip_ic"}},
//!     {"name": "qcompile/compile", "cat": "qtrace", "ph": "B",
//!      "ts": 0.120, "pid": 1, "tid": 0},
//!     {"name": "qcompile/compile", "cat": "qtrace", "ph": "E",
//!      "ts": 412.345, "pid": 1, "tid": 0}
//!   ]
//! }
//! ```
//!
//! `ts` is microseconds (fractional, nanosecond resolution) per the CTF
//! spec; `tid` is the recorder's small per-thread ordinal, and the
//! single `pid` is 1 (one process). Instant events carry `"s": "t"`
//! (thread scope). Everything is plain JSON produced with the crate's
//! own string machinery, so the output round-trips through
//! [`Json::parse`](crate::json::Json::parse) — the trace tests rely on
//! that.

use std::io::Write;
use std::path::Path;

use crate::json::escape;
use crate::manifest::Manifest;
use crate::EventKind;

/// Renders the manifest's event timeline as a Chrome Trace Format JSON
/// document. Aggregate-only manifests (no events) yield a valid trace
/// containing just the process-name metadata record.
pub fn chrome_trace(manifest: &Manifest) -> String {
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
    out.push_str(&format!(
        "    {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {{\"name\": \"{}\"}}}}",
        escape(&manifest.name)
    ));
    for ev in &manifest.events {
        let us = ev.ts_ns as f64 / 1000.0;
        let scope = match ev.kind {
            EventKind::Instant => ", \"s\": \"t\"",
            EventKind::Begin | EventKind::End => "",
        };
        out.push_str(&format!(
            ",\n    {{\"name\": \"{}\", \"cat\": \"qtrace\", \"ph\": \"{}\", \
             \"ts\": {us:.3}, \"pid\": 1, \"tid\": {}{scope}}}",
            escape(&ev.path),
            ev.kind.code(),
            ev.tid,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes [`chrome_trace`] output to `path`.
pub fn save_chrome_trace(manifest: &Manifest, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace(manifest).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{Event, Recorder};

    fn traced_manifest() -> Manifest {
        let rec = Recorder::new();
        rec.enable();
        rec.capture_events(true);
        {
            let root = rec.span("compile");
            rec.instant("fallback");
            root.child("route").finish();
        }
        rec.take_manifest("unit")
    }

    #[test]
    fn trace_round_trips_through_own_parser() {
        let manifest = traced_manifest();
        let trace = chrome_trace(&manifest);
        let doc = Json::parse(&trace).expect("CTF output is valid JSON");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ns")
        );
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Metadata record + 2 begin + 2 end + 1 instant.
        assert_eq!(events.len(), 1 + manifest.events.len());
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        for (json, ev) in events[1..].iter().zip(&manifest.events) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(&*ev.path));
            assert_eq!(json.get("ph").and_then(Json::as_str), Some(ev.kind.code()));
            assert_eq!(json.get("pid").and_then(Json::as_u64), Some(1));
            assert_eq!(json.get("tid").and_then(Json::as_u64), Some(ev.tid));
            let ts = json.get("ts").and_then(Json::as_f64).unwrap();
            let expect_us = ev.ts_ns as f64 / 1000.0;
            assert!((ts - expect_us).abs() < 0.001, "{ts} vs {expect_us}");
        }
        // Instants carry a thread scope.
        let instant = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .expect("instant event present");
        assert_eq!(instant.get("s").and_then(Json::as_str), Some("t"));
    }

    #[test]
    fn eventless_manifest_yields_valid_trace() {
        let manifest = Manifest::empty("quiet");
        let doc = Json::parse(&chrome_trace(&manifest)).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1); // metadata only
    }

    #[test]
    fn escapes_awkward_paths() {
        let mut manifest = Manifest::empty("q\"uote");
        manifest.events.push(Event {
            path: "pa\\th\n".into(),
            kind: EventKind::Instant,
            tid: 0,
            ts_ns: 1,
        });
        let trace = chrome_trace(&manifest);
        let doc = Json::parse(&trace).expect("escaped output parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("pa\\th\n")
        );
    }

    #[test]
    fn save_writes_the_trace() {
        let dir = std::env::temp_dir().join("qtrace_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let manifest = traced_manifest();
        save_chrome_trace(&manifest, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, chrome_trace(&manifest));
        std::fs::remove_file(path).unwrap();
    }
}
