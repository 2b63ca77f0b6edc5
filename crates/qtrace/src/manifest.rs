//! The run manifest: a canonical, deterministically ordered JSON
//! snapshot of everything a [`Recorder`](crate::Recorder) observed.
//!
//! # Schema (`qtrace_version` 2)
//!
//! ```json
//! {
//!   "qtrace_version": 2,
//!   "name": "fig07_qaim",
//!   "created_unix_ms": 1754468000000,
//!   "spans": [
//!     {"path": "qcompile/compile", "count": 400,
//!      "total_ns": 81234567, "min_ns": 90123, "max_ns": 412345,
//!      "p50_ns": 180000, "p90_ns": 310000, "p99_ns": 405000}
//!   ],
//!   "counters": [{"name": "qroute/swaps", "value": 1234}],
//!   "gauges": [{"name": "qsim/peak_live_amplitudes", "max": 1048576}],
//!   "histograms": [
//!     {"name": "qsim/fused_diag_run_len", "count": 10, "sum": 55,
//!      "buckets": [[0, 3], [2, 4], [4, 3]]}
//!   ],
//!   "events": [
//!     {"path": "qcompile/compile", "ph": "B", "tid": 0, "ts_ns": 120}
//!   ]
//! }
//! ```
//!
//! Version 2 added the span quantile fields (`p50_ns`/`p90_ns`/`p99_ns`)
//! and the optional `events` section (timeline events, omitted when no
//! events were captured); [`Manifest::from_json`] still reads version-1
//! documents, defaulting both to empty/zero.
//!
//! Every aggregate section is sorted by key and always present, so two
//! manifests from identical runs differ only in the wall-time fields
//! (`created_unix_ms`, the span timing fields, event timestamps/thread
//! ids, and the contents of `_ns`-suffixed histograms) —
//! [`Manifest::normalized`] zeroes exactly those (re-sorting events by
//! path once timestamps are gone, and keeping the `_ns` histograms'
//! deterministic sample counts), giving a byte-exact determinism
//! comparison. Histogram buckets are log2: the pair `[lo, count]`
//! counts observations in `[lo, 2·lo)` (`[0, 2)` for the first
//! bucket).

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::Path;

use crate::event::{Event, EventKind};
use crate::json::{escape, Json};

/// Current manifest schema version.
pub const QTRACE_VERSION: u64 = 2;

/// Oldest manifest schema version [`Manifest::from_json`] still reads.
pub const QTRACE_VERSION_MIN: u64 = 1;

/// Aggregate statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed occurrences.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Shortest occurrence, nanoseconds.
    pub min_ns: u64,
    /// Longest occurrence, nanoseconds.
    pub max_ns: u64,
    /// Median occurrence, nanoseconds (nearest-rank over the recorder's
    /// bounded reservoir; 0 when unknown, e.g. a version-1 manifest).
    pub p50_ns: u64,
    /// 90th-percentile occurrence, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile occurrence, nanoseconds.
    pub p99_ns: u64,
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            p50_ns: 0,
            p90_ns: 0,
            p99_ns: 0,
        }
    }
}

impl SpanStat {
    /// Folds one occurrence of `ns` nanoseconds into the stats.
    pub fn merge(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean nanoseconds per occurrence (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Number of log2 buckets (covers the full `u64` range).
const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed distribution of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of `value`: 0 covers `{0, 1}`, bucket `i` covers
    /// `[2^i, 2^(i+1))`.
    fn bucket(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i` (0 for the first bucket).
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram into this one (bucket-wise sum). Used when
    /// merging per-thread recorder shards at drain time.
    pub fn absorb(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket_lo, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
            .collect()
    }

    /// Rebuilds a histogram from serialized `(bucket_lo, count)` pairs.
    fn from_parts(buckets: &[(u64, u64)], count: u64, sum: u64) -> Result<Self, String> {
        let mut h = Histogram {
            count,
            sum,
            ..Histogram::default()
        };
        for &(lo, c) in buckets {
            let i = Self::bucket(lo.max(1));
            if Self::bucket_lo(i) != lo && lo != 0 {
                return Err(format!("bucket bound {lo} is not a power of two"));
            }
            h.counts[if lo == 0 { 0 } else { i }] += c;
        }
        Ok(h)
    }
}

/// A manifest parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The document is not valid JSON.
    Json(crate::json::JsonError),
    /// The document parsed but does not match the manifest schema.
    Schema(String),
    /// The document declares an unsupported `qtrace_version`.
    Version(u64),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "manifest is not valid JSON: {e}"),
            ManifestError::Schema(what) => write!(f, "manifest schema mismatch: {what}"),
            ManifestError::Version(v) => {
                write!(
                    f,
                    "unsupported qtrace_version {v} \
                     (supported: {QTRACE_VERSION_MIN}..={QTRACE_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

/// A complete run manifest. See the module docs for the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Run name (the figure/driver that produced it).
    pub name: String,
    /// Wall-clock creation time, milliseconds since the Unix epoch.
    /// Excluded from [`Manifest::normalized`] comparisons.
    pub created_unix_ms: u64,
    /// Span statistics keyed by path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counters keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water-mark gauges keyed by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms keyed by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Captured timeline events in timestamp order; empty unless the
    /// recorder had [`capture_events`](crate::Recorder::capture_events)
    /// turned on.
    pub events: Vec<Event>,
}

impl Manifest {
    /// An empty manifest named `name` (useful for tests and baselines).
    pub fn empty(name: &str) -> Manifest {
        Manifest {
            name: name.to_owned(),
            created_unix_ms: 0,
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// A copy with every wall-time field zeroed: `created_unix_ms`, the
    /// span `total_ns`/`min_ns`/`max_ns`/`p50_ns`/`p90_ns`/`p99_ns`,
    /// event `ts_ns`/`tid` (events are then re-sorted by path and kind,
    /// since their timestamp order is scheduling-dependent), and the
    /// `sum`/bucket contents of every histogram whose name ends in
    /// `_ns` (wall-time distributions by convention — e.g. the qserve
    /// ops plane's `queue_wait_ns`; their sample *count* is a pure
    /// function of the workload and is kept). Two identical runs
    /// produce byte-identical `normalized().to_json()` output
    /// regardless of machine speed or thread interleaving.
    pub fn normalized(&self) -> Manifest {
        let mut m = self.clone();
        m.created_unix_ms = 0;
        for stat in m.spans.values_mut() {
            stat.total_ns = 0;
            stat.min_ns = 0;
            stat.max_ns = 0;
            stat.p50_ns = 0;
            stat.p90_ns = 0;
            stat.p99_ns = 0;
        }
        for (name, hist) in m.histograms.iter_mut() {
            if name.ends_with("_ns") {
                hist.counts = [0; HISTOGRAM_BUCKETS];
                hist.sum = 0;
            }
        }
        for ev in &mut m.events {
            ev.ts_ns = 0;
            ev.tid = 0;
        }
        m.events
            .sort_by(|a, b| (&a.path, a.kind).cmp(&(&b.path, b.kind)));
        m
    }

    /// Serializes the manifest as canonical JSON: fixed field order,
    /// sections sorted by key, 2-space indentation, trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"qtrace_version\": {QTRACE_VERSION},\n"));
        out.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        out.push_str(&format!(
            "  \"created_unix_ms\": {},\n",
            self.created_unix_ms
        ));
        section(&mut out, "spans", self.spans.iter(), |(path, s)| {
            format!(
                "{{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                escape(path),
                s.count,
                s.total_ns,
                if s.count == 0 { 0 } else { s.min_ns },
                s.max_ns,
                s.p50_ns,
                s.p90_ns,
                s.p99_ns,
            )
        });
        out.push_str(",\n");
        section(&mut out, "counters", self.counters.iter(), |(name, v)| {
            format!("{{\"name\": \"{}\", \"value\": {v}}}", escape(name))
        });
        out.push_str(",\n");
        section(&mut out, "gauges", self.gauges.iter(), |(name, v)| {
            format!("{{\"name\": \"{}\", \"max\": {v}}}", escape(name))
        });
        out.push_str(",\n");
        section(
            &mut out,
            "histograms",
            self.histograms.iter(),
            |(name, h)| {
                let buckets: Vec<String> = h
                    .buckets()
                    .iter()
                    .map(|(lo, c)| format!("[{lo}, {c}]"))
                    .collect();
                format!(
                    "{{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                    escape(name),
                    h.count(),
                    h.sum(),
                    buckets.join(", "),
                )
            },
        );
        if !self.events.is_empty() {
            out.push_str(",\n");
            section(&mut out, "events", self.events.iter(), |ev| {
                format!(
                    "{{\"path\": \"{}\", \"ph\": \"{}\", \"tid\": {}, \"ts_ns\": {}}}",
                    escape(&ev.path),
                    ev.kind.code(),
                    ev.tid,
                    ev.ts_ns,
                )
            });
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a manifest from its JSON serialization. Tolerant of field
    /// order; strict about structure and version.
    pub fn from_json(input: &str) -> Result<Manifest, ManifestError> {
        let doc = Json::parse(input).map_err(ManifestError::Json)?;
        let version = field_u64(&doc, "qtrace_version")?;
        if !(QTRACE_VERSION_MIN..=QTRACE_VERSION).contains(&version) {
            return Err(ManifestError::Version(version));
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| schema("missing string field 'name'"))?
            .to_owned();
        let created_unix_ms = field_u64(&doc, "created_unix_ms")?;

        let mut manifest = Manifest {
            name,
            created_unix_ms,
            ..Manifest::empty("")
        };
        for entry in section_entries(&doc, "spans")? {
            let path = entry_str(entry, "path")?.to_owned();
            let count = entry_u64(entry, "count")?;
            let stat = SpanStat {
                count,
                total_ns: entry_u64(entry, "total_ns")?,
                min_ns: if count == 0 {
                    u64::MAX
                } else {
                    entry_u64(entry, "min_ns")?
                },
                max_ns: entry_u64(entry, "max_ns")?,
                // Quantiles arrived in version 2; absent means unknown.
                p50_ns: entry_u64_or(entry, "p50_ns", 0),
                p90_ns: entry_u64_or(entry, "p90_ns", 0),
                p99_ns: entry_u64_or(entry, "p99_ns", 0),
            };
            manifest.spans.insert(path, stat);
        }
        for entry in section_entries(&doc, "counters")? {
            manifest.counters.insert(
                entry_str(entry, "name")?.to_owned(),
                entry_u64(entry, "value")?,
            );
        }
        for entry in section_entries(&doc, "gauges")? {
            manifest.gauges.insert(
                entry_str(entry, "name")?.to_owned(),
                entry_u64(entry, "max")?,
            );
        }
        for entry in section_entries(&doc, "histograms")? {
            let name = entry_str(entry, "name")?.to_owned();
            let pairs = entry
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| schema("histogram entry missing 'buckets' array"))?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| schema("histogram bucket is not a [lo, count] pair"))?;
                    Ok((
                        pair[0].as_u64().ok_or_else(|| schema("bucket lo"))?,
                        pair[1].as_u64().ok_or_else(|| schema("bucket count"))?,
                    ))
                })
                .collect::<Result<Vec<(u64, u64)>, ManifestError>>()?;
            let h =
                Histogram::from_parts(&pairs, entry_u64(entry, "count")?, entry_u64(entry, "sum")?)
                    .map_err(ManifestError::Schema)?;
            manifest.histograms.insert(name, h);
        }
        // The events section is optional (absent in version 1 and in
        // version-2 manifests with no captured events).
        if doc.get("events").is_some() {
            for entry in section_entries(&doc, "events")? {
                let code = entry_str(entry, "ph")?;
                let kind = EventKind::from_code(code)
                    .ok_or_else(|| schema(format!("unknown event phase '{code}'")))?;
                manifest.events.push(Event {
                    path: entry_str(entry, "path")?.into(),
                    kind,
                    tid: entry_u64(entry, "tid")?,
                    ts_ns: entry_u64(entry, "ts_ns")?,
                });
            }
        }
        Ok(manifest)
    }

    /// Writes the canonical JSON serialization to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }

    /// Reads and parses a manifest file.
    pub fn load(path: &Path) -> Result<Manifest, std::io::Error> {
        let text = std::fs::read_to_string(path)?;
        Manifest::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Renders one `"key": [entries…]` section with one entry per line.
fn section<T>(
    out: &mut String,
    key: &str,
    entries: impl ExactSizeIterator<Item = T>,
    render: impl Fn(T) -> String,
) {
    if entries.len() == 0 {
        out.push_str(&format!("  \"{key}\": []"));
        return;
    }
    out.push_str(&format!("  \"{key}\": [\n"));
    let last = entries.len() - 1;
    for (i, entry) in entries.enumerate() {
        out.push_str("    ");
        out.push_str(&render(entry));
        out.push_str(if i < last { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
}

fn schema(what: impl Into<String>) -> ManifestError {
    ManifestError::Schema(what.into())
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, ManifestError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| schema(format!("missing integer field '{key}'")))
}

fn section_entries<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], ManifestError> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| schema(format!("missing array section '{key}'")))
}

fn entry_str<'a>(entry: &'a Json, key: &str) -> Result<&'a str, ManifestError> {
    entry
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| schema(format!("entry missing string field '{key}'")))
}

fn entry_u64(entry: &Json, key: &str) -> Result<u64, ManifestError> {
    entry
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| schema(format!("entry missing integer field '{key}'")))
}

/// Like [`entry_u64`] but tolerates a missing field (later-version
/// additions read from older documents).
fn entry_u64_or(entry: &Json, key: &str, default: u64) -> u64 {
    entry.get(key).and_then(Json::as_u64).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::empty("unit");
        m.created_unix_ms = 17;
        let mut s = SpanStat::default();
        s.merge(100);
        s.merge(300);
        m.spans.insert("a/b".into(), s);
        m.counters.insert("swaps".into(), 42);
        m.gauges.insert("peak".into(), 1 << 20);
        let mut h = Histogram::default();
        h.record(0);
        h.record(3);
        h.record(300);
        m.histograms.insert("lens".into(), h);
        m.events.push(Event {
            path: "a/b".into(),
            kind: EventKind::Begin,
            tid: 1,
            ts_ns: 120,
        });
        m.events.push(Event {
            path: "a/b".into(),
            kind: EventKind::End,
            tid: 1,
            ts_ns: 420,
        });
        m
    }

    #[test]
    fn span_stats_fold() {
        let mut s = SpanStat::default();
        s.merge(5);
        s.merge(15);
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 20, 5, 15));
        assert_eq!(s.mean_ns(), 10.0);
        assert_eq!(SpanStat::default().mean_ns(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(
            h.buckets(),
            vec![(0, 2), (2, 2), (4, 2), (8, 1), (1 << 63, 1)]
        );
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn json_round_trips_exactly() {
        let m = sample();
        let json = m.to_json();
        let parsed = Manifest::from_json(&json).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), json, "canonical form is a fixed point");
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::empty("nothing");
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn normalized_strips_wall_time_only() {
        let mut a = sample();
        let mut b = sample();
        a.created_unix_ms = 1;
        b.created_unix_ms = 2;
        a.spans.get_mut("a/b").unwrap().total_ns = 999;
        a.spans.get_mut("a/b").unwrap().p99_ns = 999;
        // Different interleaving: other thread, other timestamps,
        // other arrival order — same multiset of (path, kind).
        b.events.reverse();
        for (i, ev) in b.events.iter_mut().enumerate() {
            ev.tid = 7;
            ev.ts_ns = 1000 + i as u64;
        }
        assert_ne!(a.to_json(), b.to_json());
        assert_eq!(a.normalized().to_json(), b.normalized().to_json());
        // Non-time differences survive normalization.
        b.counters.insert("swaps".into(), 43);
        assert_ne!(a.normalized().to_json(), b.normalized().to_json());
        // And so does a genuinely different event set.
        let mut c = sample();
        c.events.pop();
        assert_ne!(sample().normalized().to_json(), c.normalized().to_json());
    }

    #[test]
    fn normalized_zeroes_ns_histogram_contents_but_keeps_counts() {
        let mut a = sample();
        let mut b = sample();
        // Same sample count, machine-speed-dependent values.
        let mut fast = Histogram::default();
        fast.record(10);
        fast.record(20);
        let mut slow = Histogram::default();
        slow.record(100_000);
        slow.record(200_000);
        a.histograms.insert("q/wait_ns".into(), fast);
        b.histograms.insert("q/wait_ns".into(), slow);
        assert_ne!(a.to_json(), b.to_json());
        assert_eq!(a.normalized().to_json(), b.normalized().to_json());
        // The deterministic sample count survives normalization...
        let norm = a.normalized();
        assert_eq!(norm.histograms["q/wait_ns"].count(), 2);
        assert!(norm.histograms["q/wait_ns"].buckets().is_empty());
        // ...and a count mismatch still breaks byte-identity.
        b.histograms.get_mut("q/wait_ns").unwrap().record(1);
        assert_ne!(a.normalized().to_json(), b.normalized().to_json());
        // Histograms without the `_ns` suffix are untouched.
        assert_eq!(
            norm.histograms["lens"].buckets(),
            sample().histograms["lens"].buckets()
        );
    }

    #[test]
    fn normalized_ns_histograms_round_trip() {
        let mut m = sample();
        let mut h = Histogram::default();
        h.record(5);
        h.record(5000);
        m.histograms.insert("tenant/0/e2e_ns".into(), h);
        let norm = m.normalized();
        let parsed = Manifest::from_json(&norm.to_json()).unwrap();
        assert_eq!(parsed, norm);
        assert_eq!(parsed.to_json(), norm.to_json());
    }

    #[test]
    fn reads_version_1_documents() {
        let v1 = r#"{
  "qtrace_version": 1,
  "name": "old",
  "created_unix_ms": 5,
  "spans": [
    {"path": "a", "count": 2, "total_ns": 20, "min_ns": 5, "max_ns": 15}
  ],
  "counters": [],
  "gauges": [],
  "histograms": []
}"#;
        let m = Manifest::from_json(v1).unwrap();
        assert_eq!(m.name, "old");
        let s = &m.spans["a"];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 20, 5, 15));
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (0, 0, 0));
        assert!(m.events.is_empty());
        // Re-serializing upgrades to the current version.
        assert!(m.to_json().contains("\"qtrace_version\": 2"));
    }

    #[test]
    fn events_section_is_omitted_when_empty() {
        let mut m = sample();
        m.events.clear();
        assert!(!m.to_json().contains("\"events\""));
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(matches!(
            Manifest::from_json("not json"),
            Err(ManifestError::Json(_))
        ));
        assert!(matches!(
            Manifest::from_json("{\"qtrace_version\": 99}"),
            Err(ManifestError::Version(99))
        ));
        let missing = "{\"qtrace_version\": 1, \"name\": \"x\"}";
        assert!(matches!(
            Manifest::from_json(missing),
            Err(ManifestError::Schema(_))
        ));
    }

    #[test]
    fn save_and_load() {
        let dir = std::env::temp_dir().join("qtrace_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), m);
        std::fs::remove_file(path).unwrap();
    }
}
