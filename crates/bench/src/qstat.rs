//! Per-tenant operations dashboard for the `qserve` serving layer.
//!
//! The serving section of the `xray` binary. Reads a qtrace run manifest
//! carrying the `qserve/` series family that
//! [`qserve::Service::flush_telemetry`] emits — per-tenant counters,
//! error-code breakdowns, latency spans, the hit-ratio and failure-plane
//! gauges, and per-spec request counts — plus, optionally, the
//! deterministic ops journal, and renders a text dashboard: one block per
//! tenant (traffic, terminal breakdown, error codes, tail latencies,
//! breaker/bucket state), the top-N hot specs, and journal event tallies.
//! `--tenant` narrows everything to one tenant, including the journal
//! tallies (only events tagged with that tenant count).

use std::collections::BTreeMap;

use qtrace::json::Json;
use qtrace::{Manifest, SpanStat};

use crate::xray::fmt_ns;

/// Per-tenant counters in the order `flush_metrics` defines them;
/// everything after `misses` is a terminal lifecycle stage.
const COUNTER_ORDER: [&str; 12] = [
    "requests",
    "hits",
    "misses",
    "completed",
    "failed",
    "cancelled",
    "reaped",
    "shed",
    "rejected",
    "quarantined",
    "breaker_open",
    "throttled",
];

/// Everything the dashboard shows for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantStat {
    /// Lifecycle counters keyed by short name, such as `requests` or
    /// `hits`.
    pub counters: BTreeMap<String, u64>,
    /// Failures keyed by stable [`qserve::ServeError::code`] string.
    pub errors: BTreeMap<String, u64>,
    /// `hits * 1000 / requests`, absent when the tenant saw no traffic.
    pub hit_permille: Option<u64>,
    /// Breaker state gauge: 0 closed, 1 half-open, 2 open. Absent means
    /// closed (the zero gauge is skipped at emission).
    pub breaker_state: Option<u64>,
    /// Token-bucket level at the final flush.
    pub bucket_level: Option<u64>,
    /// Wall-time tails keyed by series (`e2e`, `queue_wait`, `compile`).
    pub tails: BTreeMap<String, SpanStat>,
}

impl TenantStat {
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.errors.is_empty()
            && self.breaker_state.is_none()
            && self.bucket_level.is_none()
            && self.tails.is_empty()
    }
}

/// The manifest's `qserve/` series family, regrouped for rendering.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    /// Per-tenant view, keyed by tenant id.
    pub tenants: BTreeMap<u32, TenantStat>,
    /// Per-spec request counts (`fingerprint hex` → requests), sorted
    /// descending by count then ascending by fingerprint.
    pub specs: Vec<(String, u64)>,
    /// Requests that missed the capped spec registry.
    pub spec_overflow: u64,
    /// Lifecycle records lost to the capacity bound.
    pub lifecycle_dropped: u64,
    /// Quarantined specs at the final flush.
    pub quarantine_entries: u64,
}

impl Dashboard {
    /// True when the manifest carried no `qserve/` ops series at all.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty() && self.specs.is_empty()
    }
}

/// Regroups a run manifest's `qserve/` series into the dashboard view.
/// Series outside the family are ignored, so any `--manifest` artifact
/// is accepted.
pub fn dashboard(manifest: &Manifest) -> Dashboard {
    let mut dash = Dashboard::default();
    for (name, value) in &manifest.counters {
        if let Some(rest) = name.strip_prefix("qserve/tenant/") {
            let Some((tenant, tail)) = split_tenant(rest) else {
                continue;
            };
            let stat = dash.tenants.entry(tenant).or_default();
            if let Some(code) = tail.strip_prefix("error/") {
                stat.errors.insert(code.to_owned(), *value);
            } else if COUNTER_ORDER.contains(&tail) {
                stat.counters.insert(tail.to_owned(), *value);
            }
        } else if let Some(rest) = name.strip_prefix("qserve/spec/") {
            if let Some(fp) = rest.strip_suffix("/requests") {
                dash.specs.push((fp.to_owned(), *value));
            } else if rest == "overflow" {
                dash.spec_overflow = *value;
            }
        }
    }
    for (name, value) in &manifest.gauges {
        if let Some(rest) = name.strip_prefix("qserve/tenant/") {
            let Some((tenant, tail)) = split_tenant(rest) else {
                continue;
            };
            let stat = dash.tenants.entry(tenant).or_default();
            match tail {
                "hit_permille" => stat.hit_permille = Some(*value),
                "breaker_state" => stat.breaker_state = Some(*value),
                "bucket_level" => stat.bucket_level = Some(*value),
                _ => {}
            }
        } else if name == "qserve/ops/lifecycle_dropped" {
            dash.lifecycle_dropped = *value;
        } else if name == "qserve/quarantine/entries" {
            dash.quarantine_entries = *value;
        }
    }
    for (name, stat) in &manifest.spans {
        let Some(rest) = name.strip_prefix("qserve/tenant/") else {
            continue;
        };
        let Some((tenant, tail)) = split_tenant(rest) else {
            continue;
        };
        if matches!(tail, "e2e" | "queue_wait" | "compile") {
            dash.tenants
                .entry(tenant)
                .or_default()
                .tails
                .insert(tail.to_owned(), *stat);
        }
    }
    dash.specs
        .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    dash
}

fn split_tenant(rest: &str) -> Option<(u32, &str)> {
    let (tenant, tail) = rest.split_once('/')?;
    Some((tenant.parse().ok()?, tail))
}

/// Tallies journal events by code. With a `tenant` filter only events
/// tagged with that tenant count (untagged events — phase markers,
/// calibration reloads — are campaign-wide, not the tenant's).
pub fn journal_tallies(
    journal: &str,
    tenant: Option<u32>,
) -> Result<BTreeMap<String, u64>, String> {
    let mut tallies = BTreeMap::new();
    for (idx, line) in journal.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("journal line {}: {e}", idx + 1))?;
        let event = json
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("journal line {}: no \"event\" field", idx + 1))?;
        if let Some(want) = tenant {
            let tagged = json.get("tenant").and_then(Json::as_u64);
            if tagged != Some(u64::from(want)) {
                continue;
            }
        }
        *tallies.entry(event.to_owned()).or_insert(0) += 1;
    }
    Ok(tallies)
}

fn breaker_label(code: u64) -> &'static str {
    match code {
        0 => "closed",
        1 => "half-open",
        _ => "open",
    }
}

fn render_tenant(out: &mut String, id: u32, stat: &TenantStat) {
    out.push_str(&format!("tenant {id}\n"));
    let requests = stat.counter("requests");
    let ratio = stat
        .hit_permille
        .map(|pm| format!("{:.1}%", pm as f64 / 10.0))
        .unwrap_or_else(|| "-".to_owned());
    out.push_str(&format!(
        "  {:<14} {:<10} hits {:<8} misses {:<8} hit ratio {}\n",
        "requests",
        requests,
        stat.counter("hits"),
        stat.counter("misses"),
        ratio,
    ));
    let terminals: Vec<String> = COUNTER_ORDER[3..]
        .iter()
        .filter_map(|name| {
            let n = stat.counter(name);
            (n > 0).then(|| format!("{name} {n}"))
        })
        .collect();
    out.push_str(&format!(
        "  {:<14} {}\n",
        "terminals",
        if terminals.is_empty() {
            "(none)".to_owned()
        } else {
            terminals.join("  ")
        },
    ));
    if !stat.errors.is_empty() {
        let errors: Vec<String> = stat
            .errors
            .iter()
            .map(|(code, n)| format!("{code} {n}"))
            .collect();
        out.push_str(&format!("  {:<14} {}\n", "errors", errors.join("  ")));
    }
    for series in ["e2e", "queue_wait", "compile"] {
        if let Some(tail) = stat.tails.get(series) {
            out.push_str(&format!(
                "  {:<14} p50 {:<10} p90 {:<10} p99 {:<10} (n={})\n",
                series,
                fmt_ns(tail.p50_ns),
                fmt_ns(tail.p90_ns),
                fmt_ns(tail.p99_ns),
                tail.count,
            ));
        }
    }
    if stat.breaker_state.is_some() || stat.bucket_level.is_some() {
        let breaker = breaker_label(stat.breaker_state.unwrap_or(0));
        let bucket = stat
            .bucket_level
            .map(|l| format!("   bucket level {l}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<14} breaker {breaker}{bucket}\n",
            "failure plane",
        ));
    }
}

/// Renders the dashboard under its own heading: per-tenant blocks, hot
/// specs, journal tallies. `tenant` narrows to one tenant block (an
/// unknown id renders an explicit "no series" line rather than erroring
/// — the manifest may legitimately have skipped an idle tenant). `top`
/// caps the hot-spec table. A manifest without `qserve/` series renders
/// a notice in place of the series sections, and the journal tallies
/// still follow it.
pub fn render(
    dash: &Dashboard,
    journal: Option<&BTreeMap<String, u64>>,
    tenant: Option<u32>,
    top: usize,
) -> String {
    let mut out = String::from("\nserving dashboard (per tenant)\n");
    if dash.is_empty() {
        out.push_str("\n(no qserve/ ops series in manifest)\n");
    } else {
        render_series(&mut out, dash, tenant, top);
    }

    if let Some(tallies) = journal {
        let total: u64 = tallies.values().sum();
        out.push_str(&format!(
            "\njournal ({total} event{}{})\n",
            if total == 1 { "" } else { "s" },
            tenant
                .map(|id| format!(", tenant {id} only"))
                .unwrap_or_default(),
        ));
        if tallies.is_empty() {
            out.push_str("  (no events)\n");
        }
        for (event, count) in tallies {
            out.push_str(&format!("  {event:<22} {count:>8}\n"));
        }
    }
    out
}

/// The manifest-series sections of [`render`]: tenant blocks, hot specs
/// and the quarantine and lifecycle notices.
fn render_series(out: &mut String, dash: &Dashboard, tenant: Option<u32>, top: usize) {
    match tenant {
        Some(id) => {
            out.push('\n');
            match dash.tenants.get(&id).filter(|s| !s.is_empty()) {
                Some(stat) => render_tenant(out, id, stat),
                None => out.push_str(&format!("tenant {id}\n  (no series recorded)\n")),
            }
        }
        None => {
            for (id, stat) in &dash.tenants {
                if stat.is_empty() {
                    continue;
                }
                out.push('\n');
                render_tenant(out, *id, stat);
            }
        }
    }

    if tenant.is_none() {
        out.push_str(&format!(
            "\nhot specs (top {} of {} by requests)\n",
            top.min(dash.specs.len()),
            dash.specs.len(),
        ));
        if dash.specs.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for (fp, count) in dash.specs.iter().take(top) {
            out.push_str(&format!("  {fp:<18} {count:>10}\n"));
        }
        if dash.spec_overflow > 0 {
            out.push_str(&format!(
                "  ({} requests beyond the spec-registry cap)\n",
                dash.spec_overflow,
            ));
        }
    }

    if dash.quarantine_entries > 0 || dash.lifecycle_dropped > 0 {
        out.push('\n');
        if dash.quarantine_entries > 0 {
            out.push_str(&format!(
                "quarantine: {} spec(s) held at last flush\n",
                dash.quarantine_entries,
            ));
        }
        if dash.lifecycle_dropped > 0 {
            out.push_str(&format!(
                "WARNING: {} lifecycle record(s) dropped (capacity bound hit)\n",
                dash.lifecycle_dropped,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_manifest() -> Manifest {
        let rec = qtrace::Recorder::new();
        rec.enable();
        rec.add("qserve/tenant/0/requests", 100);
        rec.add("qserve/tenant/0/hits", 90);
        rec.add("qserve/tenant/0/misses", 10);
        rec.add("qserve/tenant/0/completed", 97);
        rec.add("qserve/tenant/0/shed", 2);
        rec.add("qserve/tenant/0/throttled", 1);
        rec.add("qserve/tenant/0/error/throttled", 1);
        rec.add("qserve/tenant/2/requests", 5);
        rec.add("qserve/tenant/2/completed", 5);
        rec.gauge_max("qserve/tenant/0/hit_permille", 900);
        rec.gauge_max("qserve/tenant/0/breaker_state", 2);
        rec.gauge_max("qserve/tenant/0/bucket_level", 7);
        rec.add("qserve/spec/00000000000000aa/requests", 60);
        rec.add("qserve/spec/00000000000000bb/requests", 40);
        rec.add("qserve/spec/overflow", 3);
        rec.record_span("qserve/tenant/0/e2e", Duration::from_micros(12));
        rec.record_span("qserve/tenant/0/e2e", Duration::from_micros(40));
        // Non-family series must be ignored, not crash the regrouping.
        rec.add("qcompile/swaps", 9);
        rec.take_manifest("sample")
    }

    #[test]
    fn dashboard_regroups_the_qserve_family() {
        let dash = dashboard(&sample_manifest());
        assert_eq!(dash.tenants.len(), 2);
        let t0 = &dash.tenants[&0];
        assert_eq!(t0.counter("requests"), 100);
        assert_eq!(t0.errors["throttled"], 1);
        assert_eq!(t0.hit_permille, Some(900));
        assert_eq!(t0.breaker_state, Some(2));
        assert_eq!(t0.bucket_level, Some(7));
        assert_eq!(t0.tails["e2e"].count, 2);
        assert_eq!(dash.specs[0], ("00000000000000aa".to_owned(), 60));
        assert_eq!(dash.spec_overflow, 3);
    }

    #[test]
    fn render_shows_every_tenant_block_and_hot_specs() {
        let dash = dashboard(&sample_manifest());
        let text = render(&dash, None, None, 8);
        assert!(text.starts_with("\nserving dashboard"), "{text}");
        assert!(text.contains("tenant 0"));
        assert!(text.contains("tenant 2"));
        assert!(text.contains("hit ratio 90.0%"));
        assert!(text.contains("completed 97  shed 2  throttled 1"));
        assert!(text.contains("breaker open"));
        assert!(text.contains("00000000000000aa"));
        assert!(text.contains("beyond the spec-registry cap"));
    }

    #[test]
    fn tenant_filter_narrows_the_view() {
        let dash = dashboard(&sample_manifest());
        let text = render(&dash, None, Some(2), 8);
        assert!(text.contains("tenant 2"));
        assert!(!text.contains("tenant 0"), "{text}");
        assert!(!text.contains("hot specs"), "spec table is campaign-wide");
        let missing = render(&dash, None, Some(7), 8);
        assert!(missing.contains("no series recorded"));
    }

    #[test]
    fn journal_tallies_count_and_filter_by_tenant() {
        let journal = "\
{\"tick\":0,\"event\":\"phase\",\"note\":\"storm\"}\n\
{\"tick\":3,\"event\":\"breaker_trip\",\"tenant\":1}\n\
{\"tick\":4,\"event\":\"breaker_trip\",\"tenant\":2}\n\
{\"tick\":9,\"event\":\"breaker_close\",\"tenant\":1}\n";
        let all = journal_tallies(journal, None).unwrap();
        assert_eq!(all["breaker_trip"], 2);
        assert_eq!(all["phase"], 1);
        let one = journal_tallies(journal, Some(1)).unwrap();
        assert_eq!(one["breaker_trip"], 1);
        assert_eq!(one["breaker_close"], 1);
        assert!(!one.contains_key("phase"), "untagged events filtered out");
        assert!(journal_tallies("not json\n", None).is_err());
    }

    #[test]
    fn empty_manifest_renders_an_explicit_notice() {
        let dash = dashboard(&Manifest::empty("bare"));
        assert!(dash.is_empty());
        let text = render(&dash, None, None, 8);
        assert!(text.contains("no qserve/ ops series"));
    }
}
