//! Regression comparison between two bench artifacts.
//!
//! Both artifact kinds the harness produces are accepted, sniffed by
//! their top-level keys:
//!
//! * **bench reports** (`BENCH_<figure>.json`, a `"metrics"` array) —
//!   every series gates, compared by median with its 95% bootstrap CI;
//! * **qtrace run manifests** (a `"qtrace_version"` field) — counters,
//!   gauges and histogram means gate with degenerate CIs (they are
//!   deterministic for a fixed workload and thread configuration), while
//!   span wall times — mean and the p50/p90/p99 tail quantiles — are
//!   reported but do not gate by default (CI runner timing noise would
//!   make them flap). [`gate_spans`] opts them in for runners with
//!   controlled timing (the `regress` binary exposes it as
//!   `--gate-spans`).
//!
//! The verdict rule is deliberately conservative: a series is
//! **Regressed** only when the current median exceeds the baseline median
//! by more than the tolerance *and* the confidence intervals do not
//! overlap (`cur.ci_lo > base.ci_hi`). **Improved** is the mirror image;
//! everything else is **Flat**. Comparing two files with no common series
//! is an error, not a pass — a silently vacuous gate is worse than none —
//! with one carve-out: when every unmatched series is an *addition* on
//! the current side (new instrumentation the committed baseline
//! predates), the additions are reported as warnings instead of failing
//! the gate, so the PR that introduces a counter family can land before
//! its baseline is regenerated.

use std::collections::BTreeMap;
use std::fmt;

use qtrace::json::{escape, Json};

/// One comparable series extracted from an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Label, unique within the artifact (`counter/...`, `span/...`, or
    /// a bench-report metric label).
    pub label: String,
    /// Central estimate (bench-report median, or the exact value of a
    /// deterministic counter/gauge).
    pub median: f64,
    /// Lower 95% CI bound (equals `median` for deterministic series).
    pub ci_lo: f64,
    /// Upper 95% CI bound (equals `median` for deterministic series).
    pub ci_hi: f64,
    /// Whether a regression in this series fails the gate.
    pub gating: bool,
}

/// A parsed artifact: its name plus all extracted series, keyed by label.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// The report figure or manifest name.
    pub name: String,
    /// Series by label.
    pub series: BTreeMap<String, Series>,
}

/// Per-series comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Current median is beyond tolerance above baseline, CIs disjoint.
    Regressed,
    /// Current median is beyond tolerance below baseline, CIs disjoint.
    Improved,
    /// Neither direction is significant.
    Flat,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Flat => "flat",
        })
    }
}

/// One row of a [`DiffReport`].
#[derive(Debug, Clone)]
pub struct Row {
    /// The shared series label.
    pub label: String,
    /// Baseline central estimate.
    pub base_median: f64,
    /// Current central estimate.
    pub cur_median: f64,
    /// `cur_median / base_median` (`NaN` when the baseline is zero and
    /// the current value is too, `inf` when only the baseline is zero).
    pub ratio: f64,
    /// Whether this row can fail the gate.
    pub gating: bool,
    /// Comparison outcome.
    pub verdict: Verdict,
}

/// The full comparison of two artifacts.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Name of the baseline artifact.
    pub baseline: String,
    /// Name of the current artifact.
    pub current: String,
    /// Relative tolerance used (e.g. `0.15`).
    pub tolerance: f64,
    /// Per-series rows, sorted by label.
    pub rows: Vec<Row>,
    /// Labels present in only one artifact (reported, never gating).
    pub unmatched: Vec<String>,
}

impl DiffReport {
    /// Whether any gating series regressed.
    pub fn has_regression(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.gating && r.verdict == Verdict::Regressed)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "regress: {} (baseline) vs {} (current), tolerance {:.0}%\n",
            self.baseline,
            self.current,
            self.tolerance * 100.0
        );
        out.push_str(&format!(
            "{:<44} {:>14} {:>14} {:>8}  {}\n",
            "series", "baseline", "current", "ratio", "verdict"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<44} {:>14.4} {:>14.4} {:>8.3}  {}{}\n",
                r.label,
                r.base_median,
                r.cur_median,
                r.ratio,
                r.verdict,
                if r.gating { "" } else { " (non-gating)" },
            ));
        }
        for label in &self.unmatched {
            out.push_str(&format!("{label:<44} (present in only one artifact)\n"));
        }
        out
    }

    /// Machine-readable JSON, canonical ordering (rows sorted by label).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"baseline\": \"{}\",\n",
            escape(&self.baseline)
        ));
        out.push_str(&format!("  \"current\": \"{}\",\n", escape(&self.current)));
        out.push_str(&format!("  \"tolerance\": {},\n", self.tolerance));
        out.push_str(&format!(
            "  \"has_regression\": {},\n",
            self.has_regression()
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"baseline\": {}, \"current\": {}, \"ratio\": {}, \"gating\": {}, \"verdict\": \"{}\"}}{}\n",
                escape(&r.label),
                finite(r.base_median),
                finite(r.cur_median),
                finite(r.ratio),
                r.gating,
                r.verdict,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"unmatched\": [");
        for (i, label) in self.unmatched.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(label)));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn finite(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Parses one artifact (bench report or qtrace manifest) into series.
pub fn parse_artifact(text: &str) -> Result<SeriesSet, String> {
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if json.get("qtrace_version").is_some() {
        let manifest =
            qtrace::Manifest::from_json(text).map_err(|e| format!("bad manifest: {e}"))?;
        Ok(manifest_series(&manifest))
    } else if json.get("metrics").is_some() {
        parse_report(&json)
    } else {
        Err("unrecognized artifact: expected a BENCH_*.json report \
             (\"metrics\") or a qtrace manifest (\"qtrace_version\")"
            .to_owned())
    }
}

fn parse_report(json: &Json) -> Result<SeriesSet, String> {
    let name = json
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("report is missing \"figure\"")?
        .to_owned();
    let metrics = json
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or("report \"metrics\" is not an array")?;
    let mut series = BTreeMap::new();
    for m in metrics {
        let label = m
            .get("label")
            .and_then(Json::as_str)
            .ok_or("metric is missing \"label\"")?
            .to_owned();
        let median = m
            .get("median")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric '{label}' is missing \"median\""))?;
        let ci = m
            .get("ci95")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 2)
            .ok_or_else(|| format!("metric '{label}' is missing \"ci95\""))?;
        let (ci_lo, ci_hi) = match (ci[0].as_f64(), ci[1].as_f64()) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => return Err(format!("metric '{label}' has a non-numeric CI")),
        };
        series.insert(
            label.clone(),
            Series {
                label,
                median,
                ci_lo,
                ci_hi,
                gating: true,
            },
        );
    }
    Ok(SeriesSet { name, series })
}

/// Flattens a manifest into series: counters, gauges, histogram
/// count/mean and span counts gate; span wall times do not.
pub fn manifest_series(manifest: &qtrace::Manifest) -> SeriesSet {
    let mut series = BTreeMap::new();
    let mut put = |label: String, value: f64, gating: bool| {
        series.insert(
            label.clone(),
            Series {
                label,
                median: value,
                ci_lo: value,
                ci_hi: value,
                gating,
            },
        );
    };
    for (name, value) in &manifest.counters {
        put(format!("counter/{name}"), *value as f64, true);
    }
    for (name, max) in &manifest.gauges {
        put(format!("gauge/{name}"), *max as f64, true);
    }
    for (name, hist) in &manifest.histograms {
        put(format!("hist/{name}/count"), hist.count() as f64, true);
        // `_ns`-suffixed histograms hold wall time: their sample count
        // is deterministic (and gates), their mean is machine speed
        // (and must not) — mirroring `Manifest::normalized`, which
        // zeroes their contents but keeps the count.
        put(
            format!("hist/{name}/mean"),
            hist.mean(),
            !name.ends_with("_ns"),
        );
    }
    for (path, stat) in &manifest.spans {
        put(format!("span/{path}/count"), stat.count as f64, true);
        put(format!("span/{path}/mean_ns"), stat.mean_ns(), false);
        put(format!("span/{path}/p50_ns"), stat.p50_ns as f64, false);
        put(format!("span/{path}/p90_ns"), stat.p90_ns as f64, false);
        put(format!("span/{path}/p99_ns"), stat.p99_ns as f64, false);
    }
    SeriesSet {
        name: manifest.name.clone(),
        series,
    }
}

/// Opts span wall-time series (`span/…/mean_ns`, `span/…/p50_ns` and
/// friends) into gating. Off by default because span times are wall
/// clock and flap on shared CI runners; turn this on when the runner's
/// timing is controlled enough that tail-latency regressions should
/// fail the gate.
///
/// Per-tenant ops-plane spans (`span/qserve/tenant/…`) stay non-gating
/// even here: each tenant sees only a sliver of the campaign's traffic,
/// so their quantiles are small-sample scheduler noise — a tenant
/// queue-wait p90 over ~30 microsecond-scale waits swings 5× run to
/// run on an idle machine. Their counts still gate (deterministic),
/// and the campaign-wide spans cover the actual tail-latency tripwire;
/// `xray`'s serving dashboard is the venue for per-tenant tails.
pub fn gate_spans(set: &mut SeriesSet) {
    for series in set.series.values_mut() {
        if series.label.starts_with("span/")
            && series.label.ends_with("_ns")
            && !series.label.starts_with("span/qserve/tenant/")
        {
            series.gating = true;
        }
    }
}

/// Compares `current` against `baseline`: see the module docs for the
/// verdict rule. Errors when the two artifacts share no series, unless
/// every unmatched label is an addition on the current side (a baseline
/// that merely *predates* new series must not fail the gate).
pub fn diff(
    baseline: &SeriesSet,
    current: &SeriesSet,
    tolerance: f64,
) -> Result<DiffReport, String> {
    let mut rows = Vec::new();
    let mut unmatched = Vec::new();
    for (label, base) in &baseline.series {
        let Some(cur) = current.series.get(label) else {
            unmatched.push(format!("{label} (baseline only)"));
            continue;
        };
        let verdict = classify(base, cur, tolerance);
        let ratio = if base.median != 0.0 {
            cur.median / base.median
        } else if cur.median == 0.0 {
            1.0
        } else {
            f64::INFINITY
        };
        rows.push(Row {
            label: label.clone(),
            base_median: base.median,
            cur_median: cur.median,
            ratio,
            gating: base.gating && cur.gating,
            verdict,
        });
    }
    for label in current.series.keys() {
        if !baseline.series.contains_key(label) {
            unmatched.push(format!("{label} (current only)"));
        }
    }
    // An empty intersection is an error only when the *baseline* has
    // series the current run dropped (or both sides are empty): that is
    // a vacuous gate. When every unmatched label is a current-only
    // addition — instrumentation gained a counter family the committed
    // baseline predates — gating on nothing real would block exactly
    // the PR that adds telemetry, so report the additions as warnings
    // instead.
    if rows.is_empty() {
        let only_additions =
            !unmatched.is_empty() && unmatched.iter().all(|l| l.ends_with("(current only)"));
        if !only_additions {
            return Err(format!(
                "no common series between '{}' and '{}' — nothing to gate on",
                baseline.name, current.name
            ));
        }
    }
    Ok(DiffReport {
        baseline: baseline.name.clone(),
        current: current.name.clone(),
        tolerance,
        rows,
        unmatched,
    })
}

/// Regressed iff the median moved beyond tolerance AND the CIs are
/// disjoint in the same direction; Improved is the mirror image.
fn classify(base: &Series, cur: &Series, tolerance: f64) -> Verdict {
    let worse = cur.median > base.median * (1.0 + tolerance) && cur.ci_lo > base.ci_hi;
    let better = cur.median < base.median * (1.0 - tolerance) && cur.ci_hi < base.ci_lo;
    if worse {
        Verdict::Regressed
    } else if better {
        Verdict::Improved
    } else {
        Verdict::Flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    fn report_set(figure: &str, series: &[(&str, &[f64])]) -> SeriesSet {
        let mut r = Report::new(figure);
        for (label, samples) in series {
            r.add(*label, samples);
        }
        parse_artifact(&r.to_json()).unwrap()
    }

    #[test]
    fn identical_inputs_are_flat() {
        let base = report_set("fig", &[("a/ms", &[10.0, 11.0, 9.0]), ("b/ms", &[5.0])]);
        let cur = report_set("fig", &[("a/ms", &[10.0, 11.0, 9.0]), ("b/ms", &[5.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(!d.has_regression());
        assert!(d.rows.iter().all(|r| r.verdict == Verdict::Flat));
    }

    #[test]
    fn injected_2x_slowdown_regresses() {
        let base = report_set("fig", &[("a/ms", &[10.0, 10.0, 10.0, 10.0])]);
        let cur = report_set("fig", &[("a/ms", &[20.0, 20.0, 20.0, 20.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(d.has_regression());
        assert_eq!(d.rows[0].verdict, Verdict::Regressed);
        assert!((d.rows[0].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let base = report_set("fig", &[("a/ms", &[20.0, 20.0, 20.0])]);
        let cur = report_set("fig", &[("a/ms", &[10.0, 10.0, 10.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(!d.has_regression());
        assert_eq!(d.rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn overlapping_cis_stay_flat_despite_median_shift() {
        // Noisy samples whose CIs overlap: a 20% median shift alone must
        // not trip the gate.
        let base = report_set("fig", &[("a/ms", &[8.0, 10.0, 12.0, 30.0])]);
        let cur = report_set("fig", &[("a/ms", &[10.0, 12.0, 14.0, 30.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert_eq!(d.rows[0].verdict, Verdict::Flat, "{}", d.render());
    }

    #[test]
    fn disjoint_series_error() {
        let base = report_set("fig", &[("a/ms", &[1.0])]);
        let cur = report_set("fig", &[("b/ms", &[1.0])]);
        assert!(diff(&base, &cur, 0.15).is_err());
    }

    #[test]
    fn added_series_alone_do_not_error() {
        // A baseline that predates newly-added counter families: the
        // current side is a strict superset growth with no overlap at
        // all (e.g. an old empty-manifest baseline). Warn, don't fail.
        let base = report_set("fig", &[]);
        let cur = report_set("fig", &[("new/a", &[1.0]), ("new/b", &[2.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(!d.has_regression());
        assert!(d.rows.is_empty());
        assert_eq!(d.unmatched.len(), 2);
        assert!(d.unmatched.iter().all(|l| l.ends_with("(current only)")));

        // Both sides empty is still a vacuous gate: error.
        let empty = report_set("fig", &[]);
        assert!(diff(&empty, &report_set("fig", &[]), 0.15).is_err());
        // Dropping every baseline series is too: error.
        let dropped = report_set("fig", &[("old/a", &[1.0])]);
        assert!(diff(&dropped, &report_set("fig", &[]), 0.15).is_err());
    }

    #[test]
    fn unmatched_series_reported_but_not_gating() {
        let base = report_set("fig", &[("a/ms", &[1.0]), ("old/ms", &[1.0])]);
        let cur = report_set("fig", &[("a/ms", &[1.0]), ("new/ms", &[9.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(!d.has_regression());
        assert_eq!(d.unmatched.len(), 2);
    }

    #[test]
    fn manifests_gate_on_counters_not_span_times() {
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("swaps", 10);
        rec.record_span("compile", std::time::Duration::from_micros(50));
        let base = parse_artifact(&rec.take_manifest("run").to_json()).unwrap();

        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("swaps", 10);
        // 100x slower span: reported, but must not gate.
        rec.record_span("compile", std::time::Duration::from_millis(5));
        let cur = parse_artifact(&rec.take_manifest("run").to_json()).unwrap();

        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(!d.has_regression(), "{}", d.render());
        let span_row = d
            .rows
            .iter()
            .find(|r| r.label == "span/compile/mean_ns")
            .unwrap();
        assert!(!span_row.gating);
        assert_eq!(span_row.verdict, Verdict::Regressed);

        // A counter jump, by contrast, does gate.
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("swaps", 25);
        rec.record_span("compile", std::time::Duration::from_micros(50));
        let bad = parse_artifact(&rec.take_manifest("run").to_json()).unwrap();
        let d = diff(&base, &bad, 0.15).unwrap();
        assert!(d.has_regression(), "{}", d.render());
    }

    #[test]
    fn wall_time_histogram_means_do_not_gate_but_counts_do() {
        let run = |tick_ns: u64| {
            let rec = qtrace::Recorder::new();
            rec.enable();
            rec.observe("qserve/tenant/0/e2e_ticks", 4);
            rec.observe("qserve/tenant/0/e2e_ns", tick_ns);
            rec.observe("qserve/tenant/0/e2e_ns", tick_ns);
            parse_artifact(&rec.take_manifest("run").to_json()).unwrap()
        };
        let base = run(1_000);
        // 100x slower wall time in the `_ns` histogram: reported, never
        // gated — only its sample count is deterministic.
        let d = diff(&base, &run(100_000), 0.15).unwrap();
        assert!(!d.has_regression(), "{}", d.render());
        let mean = d
            .rows
            .iter()
            .find(|r| r.label == "hist/qserve/tenant/0/e2e_ns/mean")
            .unwrap();
        assert!(!mean.gating);
        assert_eq!(mean.verdict, Verdict::Regressed);
        // The tick histogram (logical clock) still gates its mean.
        let ticks = d
            .rows
            .iter()
            .find(|r| r.label == "hist/qserve/tenant/0/e2e_ticks/mean")
            .unwrap();
        assert!(ticks.gating);

        // An extra sample is a count regression and fails the gate.
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.observe("qserve/tenant/0/e2e_ticks", 4);
        rec.observe_many("qserve/tenant/0/e2e_ns", &[1_000, 1_000, 1_000]);
        let extra = parse_artifact(&rec.take_manifest("run").to_json()).unwrap();
        let d = diff(&base, &extra, 0.15).unwrap();
        assert!(d.has_regression(), "{}", d.render());
    }

    #[test]
    fn quantiles_are_reported_and_gate_only_on_request() {
        let slow_tail = |tail_us: u64| {
            let rec = qtrace::Recorder::new();
            rec.enable();
            for _ in 0..95 {
                rec.record_span("route", std::time::Duration::from_micros(10));
            }
            // Five-sample tail so the nearest-rank p99 (99th of 100)
            // lands inside it.
            for _ in 0..5 {
                rec.record_span("route", std::time::Duration::from_micros(tail_us));
            }
            parse_artifact(&rec.take_manifest("run").to_json()).unwrap()
        };
        let base = slow_tail(12);
        let cur = slow_tail(5000);

        // Default: the p99 blow-up shows up as a row but does not gate.
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(!d.has_regression(), "{}", d.render());
        let p99 = d.rows.iter().find(|r| r.label == "span/route/p99_ns");
        let p99 = p99.expect("p99 series present");
        assert!(!p99.gating);
        assert_eq!(p99.verdict, Verdict::Regressed);

        // Opted in, the same comparison fails the gate.
        let mut base = base;
        let mut cur = cur;
        gate_spans(&mut base);
        gate_spans(&mut cur);
        let d = diff(&base, &cur, 0.15).unwrap();
        assert!(d.has_regression(), "{}", d.render());
        // The count series was already gating and must stay so.
        assert!(d
            .rows
            .iter()
            .any(|r| r.label == "span/route/count" && r.gating));
    }

    #[test]
    fn per_tenant_ops_spans_never_gate_even_with_gate_spans() {
        let tenant_tail = |tail_us: u64| {
            let rec = qtrace::Recorder::new();
            rec.enable();
            for _ in 0..29 {
                rec.record_span(
                    "qserve/tenant/1/queue_wait",
                    std::time::Duration::from_micros(10),
                );
            }
            rec.record_span(
                "qserve/tenant/1/queue_wait",
                std::time::Duration::from_micros(tail_us),
            );
            parse_artifact(&rec.take_manifest("run").to_json()).unwrap()
        };
        let mut base = tenant_tail(80);
        let mut cur = tenant_tail(5_000);
        gate_spans(&mut base);
        gate_spans(&mut cur);
        let d = diff(&base, &cur, 0.15).unwrap();
        // The small-sample tenant tail blow-up is reported but must not
        // fail the gate; its deterministic count still does.
        assert!(!d.has_regression(), "{}", d.render());
        let count = d
            .rows
            .iter()
            .find(|r| r.label == "span/qserve/tenant/1/queue_wait/count")
            .expect("count row present");
        assert!(count.gating);
    }

    #[test]
    fn render_and_json_mention_every_row() {
        let base = report_set("fig", &[("a/ms", &[10.0]), ("b/ms", &[3.0])]);
        let cur = report_set("fig", &[("a/ms", &[30.0]), ("b/ms", &[3.0])]);
        let d = diff(&base, &cur, 0.15).unwrap();
        let table = d.render();
        assert!(table.contains("a/ms") && table.contains("REGRESSED"));
        let json = d.to_json();
        assert!(json.contains("\"has_regression\": true"));
        assert!(json.contains("\"verdict\": \"REGRESSED\""));
    }
}
