//! Machine-readable per-figure results: each `fig*` binary emits a
//! `BENCH_<figure>.json` next to its table, carrying a
//! [`Summary`] (mean, median, 95% bootstrap CI)
//! per metric series so plots and regressions don't re-parse stdout.
//!
//! JSON is emitted by hand — the workspace is offline and carries no
//! serde; the format is flat enough that escaping labels is the only
//! subtlety.

use std::io::Write;
use std::path::PathBuf;

use qtrace::json::escape;

use crate::stats::{summarize, Summary};

/// A per-figure result set, serialized as `BENCH_<figure>.json`.
#[derive(Debug, Clone)]
pub struct Report {
    figure: String,
    entries: Vec<(String, Summary)>,
}

impl Report {
    /// An empty report for `figure` (e.g. `"fig07_qaim"`).
    pub fn new(figure: &str) -> Self {
        Report {
            figure: figure.to_owned(),
            entries: Vec::new(),
        }
    }

    /// Records the summary of one metric series. The bootstrap seed is
    /// derived from the label, so re-runs emit identical JSON.
    pub fn add(&mut self, label: impl Into<String>, samples: &[f64]) {
        let label = label.into();
        let summary = summarize(samples, fnv1a(label.as_bytes()));
        self.entries.push((label, summary));
    }

    /// The recorded entries, in insertion order.
    pub fn entries(&self) -> &[(String, Summary)] {
        &self.entries
    }

    /// Serializes the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"figure\": \"{}\",\n", escape(&self.figure)));
        out.push_str("  \"metrics\": [\n");
        for (i, (label, s)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"n\": {}, \"mean\": {}, \"median\": {}, \"ci95\": [{}, {}]}}{}\n",
                escape(label),
                s.n,
                number(s.mean),
                number(s.median),
                number(s.ci_lo),
                number(s.ci_hi),
                if i + 1 < self.entries.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<figure>.json` into [`out_dir`] and returns the
    /// path.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let path = out_dir().join(format!("BENCH_{}.json", self.figure));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }

    /// [`Report::save`], announcing the written path on stdout. A report
    /// that cannot be written exits the process with status 2, as
    /// `baseline` and `regress` do on I/O errors, so a driver never
    /// reports success without its output.
    pub fn save_and_announce(&self) {
        match self.save() {
            Ok(path) => println!("\n[wrote {}]", path.display()),
            Err(e) => {
                eprintln!("could not write BENCH_{}.json: {e}", self.figure);
                std::process::exit(2);
            }
        }
    }
}

/// Where bench artifacts land: `$BENCH_OUT_DIR` when set; otherwise the
/// repo's `results/` directory when it exists (so driver output sits next
/// to the committed baselines); otherwise the current directory.
///
/// Every producer (the report-writing bins and `baseline`) resolves its
/// output through this single rule.
pub fn out_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("BENCH_OUT_DIR") {
        return PathBuf::from(dir);
    }
    let results = PathBuf::from("results");
    if results.is_dir() {
        results
    } else {
        PathBuf::from(".")
    }
}

/// A JSON-safe number literal (`null` for non-finite values).
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// FNV-1a, used to derive a stable bootstrap seed from a metric label.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let mut r = Report::new("fig_test");
        r.add("series/depth", &[1.0, 2.0, 3.0]);
        r.add("series/gates", &[]);
        let json = r.to_json();
        assert!(json.contains("\"figure\": \"fig_test\""));
        assert!(json.contains("\"label\": \"series/depth\""));
        assert!(json.contains("\"n\": 3"));
        assert!(json.contains("\"mean\": 2"));
        assert!(json.contains("\"ci95\": [0, 0]"), "empty series: {json}");
        // Re-adding the same data produces byte-identical JSON.
        let mut r2 = Report::new("fig_test");
        r2.add("series/depth", &[1.0, 2.0, 3.0]);
        r2.add("series/gates", &[]);
        assert_eq!(json, r2.to_json());
    }

    #[test]
    fn labels_are_escaped() {
        let mut r = Report::new("fig_test");
        r.add("weird \"label\"\\\n", &[1.0]);
        let json = r.to_json();
        assert!(json.contains("weird \\\"label\\\"\\\\\\u000a"));
    }

    #[test]
    fn save_writes_to_bench_out_dir() {
        let dir = std::env::temp_dir().join("bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("BENCH_OUT_DIR", &dir);
        let mut r = Report::new("fig_unit");
        r.add("x", &[1.0, 2.0]);
        let path = r.save().unwrap();
        std::env::remove_var("BENCH_OUT_DIR");
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, r.to_json());
        std::fs::remove_file(path).unwrap();
    }
}
