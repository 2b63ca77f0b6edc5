//! Post-mortem analysis of a qtrace run manifest: text flamegraph,
//! hot-path table and counter deltas.
//!
//! Backs the `xray` binary, which reads only run manifests (`--manifest`
//! output). Their spans carry exact p50/p90/p99 tails; the Chrome trace
//! written by `--trace` is a Perfetto export, and nothing here rebuilds
//! spans from its begin/end events. It renders:
//!
//! * a **flamegraph**: span paths are `/`-separated hierarchies, so they
//!   aggregate into a tree; each node shows a bar scaled to the hottest
//!   root, its total wall time and its share;
//! * the **top-N hot paths** by total wall time, with count, mean and
//!   the p50/p90/p99 tail quantiles;
//! * **counters** — absolute values, or deltas against a `--baseline`
//!   manifest.
//!
//! For a serving run the binary appends the per-tenant dashboard of
//! [`crate::qstat`].

use std::collections::BTreeMap;

use qtrace::{Manifest, SpanStat};

/// Parses the run manifest xray renders. Anything else fails, a Chrome
/// trace included, with a pointer to the `--manifest` output.
pub fn parse(text: &str) -> Result<Manifest, String> {
    Manifest::from_json(text).map_err(|e| {
        format!(
            "{e} (xray reads the run manifest that --manifest writes; \
             a --trace file is for Perfetto)"
        )
    })
}

/// Narrows a manifest to one tenant's `qserve/tenant/<id>/...` series.
/// Everything else — global `qserve/*` series, compiler series, other
/// tenants — is dropped, so the flamegraph, hot paths and counter
/// deltas all read per-tenant. Backs the `--tenant` flag.
pub fn filter_tenant(manifest: &Manifest, tenant: u32) -> Manifest {
    fn only<V: Clone>(series: &BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
        series
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, value)| (name.clone(), value.clone()))
            .collect()
    }
    let prefix = format!("qserve/tenant/{tenant}/");
    Manifest {
        spans: only(&manifest.spans, &prefix),
        counters: only(&manifest.counters, &prefix),
        gauges: only(&manifest.gauges, &prefix),
        histograms: only(&manifest.histograms, &prefix),
        ..Manifest::empty(&format!("{} (tenant {tenant})", manifest.name))
    }
}

/// A node of the path hierarchy: wall time attributed to exactly this
/// path (`self_ns`) plus everything under it.
#[derive(Debug, Default)]
struct Node {
    self_ns: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn total_ns(&self) -> u64 {
        self.self_ns + self.children.values().map(Node::total_ns).sum::<u64>()
    }

    fn insert(&mut self, segments: &[&str], total_ns: u64) {
        match segments.split_first() {
            None => self.self_ns += total_ns,
            Some((head, rest)) => self
                .children
                .entry((*head).to_owned())
                .or_default()
                .insert(rest, total_ns),
        }
    }
}

fn build_tree(spans: &BTreeMap<String, SpanStat>) -> Node {
    let mut root = Node::default();
    for (path, stat) in spans {
        let segments: Vec<&str> = path.split('/').collect();
        root.insert(&segments, stat.total_ns);
    }
    root
}

const BAR_WIDTH: usize = 30;

fn render_node(out: &mut String, name: &str, node: &Node, depth: usize, scale_ns: u64) {
    let total = node.total_ns();
    let bar_len = if scale_ns == 0 {
        0
    } else {
        ((total as f64 / scale_ns as f64) * BAR_WIDTH as f64).round() as usize
    };
    let bar = "#".repeat(bar_len.min(BAR_WIDTH));
    let label = format!("{}{}", "  ".repeat(depth), name);
    out.push_str(&format!(
        "{label:<40} {bar:<BAR_WIDTH$} {:>12}  {:>6.1}%\n",
        fmt_ns(total),
        if scale_ns == 0 {
            0.0
        } else {
            100.0 * total as f64 / scale_ns as f64
        },
    ));
    let mut children: Vec<(&String, &Node)> = node.children.iter().collect();
    children.sort_by(|a, b| b.1.total_ns().cmp(&a.1.total_ns()).then(a.0.cmp(b.0)));
    for (child_name, child) in children {
        render_node(out, child_name, child, depth + 1, scale_ns);
    }
}

/// Formats a nanosecond duration with the largest unit it reaches.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the full report: flamegraph, top-`top` hot paths, counters
/// (as deltas when `baseline` is given).
pub fn render(input: &Manifest, top: usize, baseline: Option<&Manifest>) -> String {
    let mut out = format!("xray: {}\n", input.name);

    out.push_str("\nflamegraph (wall time by span path)\n");
    if input.spans.is_empty() {
        out.push_str("  (no spans in artifact)\n");
    } else {
        let root = build_tree(&input.spans);
        let scale = root
            .children
            .values()
            .map(Node::total_ns)
            .max()
            .unwrap_or(0);
        let mut roots: Vec<(&String, &Node)> = root.children.iter().collect();
        roots.sort_by(|a, b| b.1.total_ns().cmp(&a.1.total_ns()).then(a.0.cmp(b.0)));
        for (name, node) in roots {
            render_node(&mut out, name, node, 0, scale);
        }
    }

    out.push_str(&format!("\ntop {top} hot paths (by total wall time)\n"));
    let mut hot: Vec<(&String, &SpanStat)> = input.spans.iter().collect();
    hot.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    if hot.is_empty() {
        out.push_str("  (no spans in artifact)\n");
    } else {
        out.push_str(&format!(
            "{:<40} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "path", "count", "total", "mean", "p50", "p90", "p99"
        ));
        for (path, stat) in hot.into_iter().take(top) {
            let mean = stat.total_ns.checked_div(stat.count).unwrap_or(0);
            out.push_str(&format!(
                "{:<40} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                path,
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(mean),
                fmt_ns(stat.p50_ns),
                fmt_ns(stat.p90_ns),
                fmt_ns(stat.p99_ns),
            ));
        }
    }

    match baseline {
        None => {
            out.push_str("\ncounters\n");
            if input.counters.is_empty() {
                out.push_str("  (no counters in artifact)\n");
            }
            for (name, value) in &input.counters {
                out.push_str(&format!("{name:<40} {value:>12}\n"));
            }
        }
        Some(base) => {
            out.push_str(&format!("\ncounter deltas (vs {})\n", base.name));
            let mut names: Vec<&String> =
                input.counters.keys().chain(base.counters.keys()).collect();
            names.sort();
            names.dedup();
            if names.is_empty() {
                out.push_str("  (no counters in either artifact)\n");
            }
            for name in names {
                let cur = input.counters.get(name).copied().unwrap_or(0);
                let was = base.counters.get(name).copied().unwrap_or(0);
                let delta = cur as i64 - was as i64;
                out.push_str(&format!(
                    "{name:<40} {cur:>12} ({}{delta})\n",
                    if delta >= 0 { "+" } else { "" }
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_manifest() -> Manifest {
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("qcompile/swaps", 12);
        rec.record_span("qcompile/route", Duration::from_micros(300));
        rec.record_span("qcompile/route", Duration::from_micros(500));
        rec.record_span("qcompile/map", Duration::from_micros(200));
        rec.record_span("qsim/apply", Duration::from_micros(900));
        rec.take_manifest("fig09_ip_ic")
    }

    #[test]
    fn manifest_renders_flamegraph_and_hot_paths() {
        let input = parse(&sample_manifest().to_json()).unwrap();
        let text = render(&input, 10, None);
        assert!(text.contains("xray: fig09_ip_ic"));
        assert!(text.contains("qcompile"));
        // Child rows are indented under their root segment.
        assert!(text.contains("  route"));
        assert!(text.contains("qcompile/route"));
        assert!(text.contains('#'), "bars rendered");
        assert!(text.contains("qcompile/swaps"));
    }

    #[test]
    fn counter_deltas_against_baseline() {
        let base = sample_manifest();
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("qcompile/swaps", 20);
        rec.add("qcompile/fallbacks", 2);
        let cur = rec.take_manifest("fig09_ip_ic");
        let text = render(&cur, 5, Some(&base));
        assert!(text.contains("counter deltas"));
        assert!(text.contains("(+8)"), "{text}");
        assert!(text.contains("(+2)"), "{text}");
    }

    #[test]
    fn tenant_filter_keeps_only_that_tenants_series() {
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("qserve/tenant/0/requests", 10);
        rec.add("qserve/tenant/1/requests", 20);
        rec.add("qserve/requests", 30);
        rec.record_span("qserve/tenant/1/e2e", Duration::from_micros(5));
        rec.record_span("qcompile/route", Duration::from_micros(5));
        let input = rec.take_manifest("serve_load");

        let one = filter_tenant(&input, 1);
        assert_eq!(one.name, "serve_load (tenant 1)");
        assert_eq!(one.counters.len(), 1);
        assert_eq!(one.counters["qserve/tenant/1/requests"], 20);
        assert_eq!(one.spans.len(), 1);
        assert!(one.spans.contains_key("qserve/tenant/1/e2e"));

        // Deltas against a filtered baseline stay per-tenant.
        let text = render(&one, 5, Some(&filter_tenant(&input, 1)));
        assert!(text.contains("counter deltas (vs serve_load (tenant 1))"));
        assert!(text.contains("(+0)"));
        assert!(!text.contains("tenant/0"), "{text}");
    }

    #[test]
    fn unrecognized_artifact_errors() {
        assert!(parse("{\"nope\": 1}").is_err());
        assert!(parse("not json").is_err());
        // A Chrome trace is refused with a pointer to the manifest.
        let trace = qtrace::export::chrome_trace(&sample_manifest());
        let err = parse(&trace).unwrap_err();
        assert!(err.contains("--manifest"), "{err}");
    }
}
