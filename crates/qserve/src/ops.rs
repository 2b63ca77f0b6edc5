//! The ops plane: per-request lifecycle tracing, tenant-scoped metrics
//! and the deterministic ops event journal.
//!
//! All three layers are recorded by the admission core
//! (`admission.rs`, under the service's single lock) and stamped
//! with the **logical clock**, never wall time, so the exported
//! artifacts are byte-identical across worker counts:
//!
//! * **Lifecycle log** — every admission opens a [`RequestTrace`] keyed
//!   by a stable, dense request id (the admission ordinal). Transitions
//!   append `(stage, tick)` pairs. Scheduler-dependent transitions
//!   (dispatch, compile completion) are stamped with the request's
//!   *admit* tick — the tick answers "where in the admission stream did
//!   this resolve", not "how long did the wall clock take"; the
//!   wall-time story lives in the per-tenant spans and `_ns` histograms.
//!   Deadline-driven terminals carry the deadline-plane tick instead
//!   (the sweep tick for queue reaps, the deadline itself for in-flight
//!   cancellations), which is equally a pure function of the request
//!   stream.
//! * **Tenant metrics** — per-tenant counters, an error-code breakdown
//!   keyed by [`crate::ServeError::code`], per-spec request counts, and
//!   four log2 histograms: deterministic `e2e_ticks` plus wall-time
//!   `queue_wait_ns` / `compile_ns` / `e2e_ns` (the `_ns` suffix is a
//!   contract — `qtrace::Manifest::normalized` zeroes those, and the
//!   regress gate skips their means). Exact p50/p90/p99 latencies ride
//!   on the `qserve/tenant/<t>/...` spans recorded alongside.
//! * **Journal** — every failure-plane action (breaker trip / probe /
//!   close, quarantine add / release, negative-cache strike / expiry,
//!   calibration reloads with their invalidation counts, spill recovery
//!   stats) as one [`JournalEvent`]: tick, event code, tenant, spec
//!   fingerprint and the causing request id, rendered as canonical JSON
//!   lines by [`render_journal`].

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use qtrace::Histogram;

/// Distinct spec fingerprints the per-spec hot counter tracks before it
/// stops admitting new keys (existing keys keep counting); the overflow
/// count is emitted as `qserve/spec/overflow`.
const SPEC_CAP: usize = 4096;

/// Ops-plane configuration, embedded in
/// [`crate::ServiceConfig::ops`]. Everything defaults to on; the
/// lifecycle log and journal can be switched off independently for
/// overhead-sensitive deployments (the bench overhead guard pins the
/// lifecycle capture cost below 5% of the quick load campaign).
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Record a per-request lifecycle trace (admission-ordered, bounded
    /// by `lifecycle_capacity`).
    pub lifecycle: bool,
    /// Record failure-plane actions into the ops journal.
    pub journal: bool,
    /// Lifecycle records retained between [`crate::Service::take_lifecycle`]
    /// drains; admissions beyond it are counted as dropped, never
    /// reallocated (min 1).
    pub lifecycle_capacity: usize,
}

impl Default for OpsConfig {
    fn default() -> Self {
        OpsConfig {
            lifecycle: true,
            journal: true,
            lifecycle_capacity: 1 << 16,
        }
    }
}

/// One lifecycle transition. The first three are intermediate; every
/// other stage is terminal, and every admitted request reaches exactly
/// one terminal (the conservation property the ops-plane proptest
/// pins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission classified the request (always the first transition).
    Admitted,
    /// A miss entered its tenant FIFO.
    Queued,
    /// A worker (or inline/drain execution) picked the job up.
    Dispatched,
    /// Served a compiled artifact: a ready cache hit, a finished
    /// compile, or a pending hit whose in-flight compile succeeded.
    /// Pending hits settle with the producing compile's outcome but are
    /// stamped at their own admission tick, so the ready-vs-pending
    /// wall-clock race never reaches the lifecycle log.
    Completed,
    /// Served a failure: a live negative entry, a failed compile, or a
    /// pending hit whose in-flight compile failed.
    Failed,
    /// An in-flight compile cancelled by the deadline sweep.
    Cancelled,
    /// Reaped from the queue before dispatch (deadline lapsed).
    Reaped,
    /// Overload: served from a cached lower ladder rung.
    Shed,
    /// Overload: rejected, no rung cached.
    Rejected,
    /// Failed fast: the program is quarantined.
    Quarantined,
    /// Failed fast: the tenant's breaker is open.
    CircuitOpen,
    /// Failed fast: the tenant's token bucket ran dry.
    Throttled,
}

impl Stage {
    /// Stable lowercase label used in JSON lines and Perfetto tracks.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Admitted => "admitted",
            Stage::Queued => "queued",
            Stage::Dispatched => "dispatched",
            Stage::Completed => "completed",
            Stage::Failed => "failed",
            Stage::Cancelled => "cancelled",
            Stage::Reaped => "reaped",
            Stage::Shed => "shed",
            Stage::Rejected => "rejected",
            Stage::Quarantined => "quarantined",
            Stage::CircuitOpen => "circuit_open",
            Stage::Throttled => "throttled",
        }
    }

    /// Whether this stage ends a request's lifecycle.
    pub fn is_terminal(self) -> bool {
        !matches!(self, Stage::Admitted | Stage::Queued | Stage::Dispatched)
    }
}

/// The lifecycle trace of one request: its stable id, tenant queue
/// index, program and cache-key fingerprints, and the tick-stamped
/// transition list (admission first, terminal last).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Admission ordinal (1-based, dense, assigned under the submit
    /// lock).
    pub id: u64,
    /// Tenant queue index (the request's tenant modulo the configured
    /// tenant count).
    pub tenant: u32,
    /// [`crate::spec_fingerprint`] of the program.
    pub spec_fp: u64,
    /// Cache-key fingerprint of the requested configuration.
    pub key_fp: u64,
    /// `(stage, tick)` transitions in the order they were recorded.
    pub stages: Vec<(Stage, u64)>,
}

impl RequestTrace {
    /// The terminal stage, if the request has reached one.
    pub fn terminal(&self) -> Option<Stage> {
        self.stages
            .iter()
            .rev()
            .map(|&(s, _)| s)
            .find(|s| s.is_terminal())
    }

    /// How many terminal transitions were recorded (conservation says
    /// exactly one).
    pub fn terminal_count(&self) -> usize {
        self.stages.iter().filter(|(s, _)| s.is_terminal()).count()
    }

    /// One canonical JSON line (no trailing newline). Fingerprints are
    /// rendered as hex strings so the document survives parsers that
    /// reject integers beyond 2^53.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"id\":{},\"tenant\":{},\"spec_fp\":\"{:#018x}\",\"key_fp\":\"{:#018x}\",\"stages\":[",
            self.id, self.tenant, self.spec_fp, self.key_fp
        );
        for (i, (stage, tick)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[\"{}\",{}]", stage.label(), tick));
        }
        out.push_str("]}");
        out
    }
}

/// Admission-ordered lifecycle log. Records are keyed by dense request
/// ids, so a transition lookup is an index subtraction, never a search;
/// the capacity bound drops (and counts) records instead of growing
/// without bound.
#[derive(Debug)]
pub(crate) struct LifecycleLog {
    enabled: bool,
    capacity: usize,
    /// Id of `records[0]`; ids are dense from here.
    base_id: u64,
    records: Vec<RequestTrace>,
    dropped: u64,
}

impl LifecycleLog {
    pub fn new(config: &OpsConfig) -> LifecycleLog {
        LifecycleLog {
            enabled: config.lifecycle,
            capacity: config.lifecycle_capacity.max(1),
            base_id: 1,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Opens the trace of request `id` with its `Admitted` transition.
    pub fn open(&mut self, id: u64, tenant: u32, spec_fp: u64, key_fp: u64, tick: u64) {
        if !self.enabled {
            return;
        }
        if self.records.is_empty() {
            self.base_id = id;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let mut stages = Vec::with_capacity(4);
        stages.push((Stage::Admitted, tick));
        self.records.push(RequestTrace {
            id,
            tenant,
            spec_fp,
            key_fp,
            stages,
        });
    }

    /// Appends a transition to request `id`'s trace. Transitions for
    /// dropped or already-drained records are ignored.
    pub fn push(&mut self, id: u64, stage: Stage, tick: u64) {
        if !self.enabled {
            return;
        }
        let Some(idx) = id.checked_sub(self.base_id) else {
            return;
        };
        if let Some(record) = self.records.get_mut(idx as usize) {
            if record.id == id {
                record.stages.push((stage, tick));
            }
        }
    }

    /// Admissions dropped by the capacity bound since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the log in admission (id) order. Transitions of requests
    /// still in flight at the drain are discarded — drain after the
    /// campaign settles.
    pub fn take(&mut self) -> Vec<RequestTrace> {
        self.base_id += self.records.len() as u64 + self.dropped;
        self.dropped = 0;
        std::mem::take(&mut self.records)
    }
}

/// One failure-plane action: what happened, when on the logical clock,
/// and which tenant / program / request caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEvent {
    /// Logical clock when the action happened.
    pub tick: u64,
    /// Stable event code (e.g. `"breaker_trip"`, `"quarantine_add"`).
    pub code: &'static str,
    /// Tenant queue index, when the action is tenant-scoped.
    pub tenant: Option<u32>,
    /// Program fingerprint, when the action is spec-scoped.
    pub spec_fp: Option<u64>,
    /// Admission ordinal of the causing request, when one exists.
    pub request: Option<u64>,
    /// A short static annotation (e.g. the quarantine reason label).
    pub note: Option<&'static str>,
    /// Extra numeric fields in render order.
    pub extra: Vec<(&'static str, u64)>,
}

impl JournalEvent {
    /// A bare event; chain the builders below to attach context.
    pub fn new(tick: u64, code: &'static str) -> JournalEvent {
        JournalEvent {
            tick,
            code,
            tenant: None,
            spec_fp: None,
            request: None,
            note: None,
            extra: Vec::new(),
        }
    }

    /// Attaches the tenant queue index.
    pub fn tenant(mut self, tenant: u32) -> JournalEvent {
        self.tenant = Some(tenant);
        self
    }

    /// Attaches the program fingerprint.
    pub fn spec(mut self, spec_fp: u64) -> JournalEvent {
        self.spec_fp = Some(spec_fp);
        self
    }

    /// Attaches the causing request id.
    pub fn request(mut self, id: u64) -> JournalEvent {
        self.request = Some(id);
        self
    }

    /// Attaches a static annotation.
    pub fn note(mut self, note: &'static str) -> JournalEvent {
        self.note = Some(note);
        self
    }

    /// Appends one extra numeric field.
    pub fn field(mut self, key: &'static str, value: u64) -> JournalEvent {
        self.extra.push((key, value));
        self
    }

    /// One canonical JSON line (no trailing newline); fixed field
    /// order, spec fingerprints as hex strings (see
    /// [`RequestTrace::to_json_line`]).
    pub fn to_json_line(&self) -> String {
        let mut out = format!("{{\"tick\":{},\"event\":\"{}\"", self.tick, self.code);
        if let Some(t) = self.tenant {
            out.push_str(&format!(",\"tenant\":{t}"));
        }
        if let Some(fp) = self.spec_fp {
            out.push_str(&format!(",\"spec_fp\":\"{fp:#018x}\""));
        }
        if let Some(id) = self.request {
            out.push_str(&format!(",\"request\":{id}"));
        }
        if let Some(note) = self.note {
            out.push_str(&format!(",\"note\":\"{note}\""));
        }
        for (key, value) in &self.extra {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push('}');
        out
    }
}

/// The ops journal: an append-only event list recorded under the
/// admission lock (admission-time events) or at compile completion
/// (failure verdicts), drained by [`crate::Service::take_journal`].
#[derive(Debug)]
pub(crate) struct Journal {
    enabled: bool,
    events: Vec<JournalEvent>,
}

impl Journal {
    pub fn new(config: &OpsConfig) -> Journal {
        Journal {
            enabled: config.journal,
            events: Vec::new(),
        }
    }

    pub fn push(&mut self, event: JournalEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    pub fn take(&mut self) -> Vec<JournalEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Per-tenant counters, error-code breakdown and latency histograms.
/// Counter semantics: `requests` counts admissions; the terminal
/// counters partition them (each admitted request lands in exactly
/// one); `errors` counts every request *served* an error, keyed by
/// [`crate::ServeError::code`] — including pending-hit waiters handed
/// the producing compile's failure, so the counter is independent of
/// whether the failure was observed live or at settlement.
#[derive(Debug, Default, Clone)]
pub(crate) struct TenantMetrics {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub reaped: u64,
    pub shed: u64,
    pub rejected: u64,
    pub quarantined: u64,
    pub breaker_open: u64,
    pub throttled: u64,
    pub errors: BTreeMap<&'static str, u64>,
    /// Terminal tick minus admit tick — deterministic logical latency
    /// (nonzero only for deadline-driven terminals).
    pub e2e_ticks: Histogram,
    /// Admission-to-dispatch wall time of executed compiles.
    pub queue_wait_ns: Histogram,
    /// Compile wall time of executed compiles.
    pub compile_ns: Histogram,
    /// Admission-to-terminal wall time of every request.
    pub e2e_ns: Histogram,
}

impl TenantMetrics {
    fn note_terminal(&mut self, stage: Stage) {
        match stage {
            Stage::Completed => self.completed += 1,
            Stage::Failed => self.failed += 1,
            Stage::Cancelled => self.cancelled += 1,
            Stage::Reaped => self.reaped += 1,
            Stage::Shed => self.shed += 1,
            Stage::Rejected => self.rejected += 1,
            Stage::Quarantined => self.quarantined += 1,
            Stage::CircuitOpen => self.breaker_open += 1,
            Stage::Throttled => self.throttled += 1,
            Stage::Admitted | Stage::Queued | Stage::Dispatched => {}
        }
    }
}

/// One request as the ops plane settles it — a job's owner, or a
/// pending hit parked on its reservation until the fill. A parked
/// waiter keeps its *admit* tick as the stamp and takes the compile's
/// deterministic outcome, so whether the slot was filled before or after
/// it arrived — a wall-clock race — never changes an exported byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub req_id: u64,
    pub tenant: usize,
    pub admit_tick: u64,
    pub admit_at: Instant,
}

impl Waiter {
    /// A journal event this request caused, at `tick`.
    pub fn event(&self, tick: u64, code: &'static str) -> JournalEvent {
        let event = JournalEvent::new(tick, code).tenant(self.tenant as u32);
        event.request(self.req_id)
    }
}

/// The whole ops plane, owned by the admission core. The shell adds
/// only the wall-time observations (`observe_*`).
#[derive(Debug)]
pub(crate) struct OpsState {
    pub lifecycle: LifecycleLog,
    pub journal: Journal,
    pub tenants: Vec<TenantMetrics>,
    /// Requests per spec fingerprint (all admission modes), capped at
    /// [`SPEC_CAP`] distinct keys.
    pub specs: BTreeMap<u64, u64>,
    pub spec_overflow: u64,
    /// Parked pending-hit waiters, keyed by the cache **entry id** of
    /// the reservation they coalesced onto (== the producing job's id;
    /// a fingerprint key would be ambiguous if a pending entry is
    /// evicted and the key re-reserved).
    waiters: HashMap<u64, Vec<Waiter>>,
}

impl OpsState {
    pub fn new(config: &OpsConfig, tenants: usize) -> OpsState {
        OpsState {
            lifecycle: LifecycleLog::new(config),
            journal: Journal::new(config),
            tenants: vec![TenantMetrics::default(); tenants],
            specs: BTreeMap::new(),
            spec_overflow: 0,
            waiters: HashMap::new(),
        }
    }

    /// Parks a pending-hit request on the reservation it coalesced
    /// onto; [`OpsState::take_waiters`] settles it when that
    /// reservation resolves.
    pub fn park(&mut self, entry_id: u64, waiter: Waiter) {
        self.waiters.entry(entry_id).or_default().push(waiter);
    }

    /// Drains the waiters parked on `entry_id` (admission order).
    pub fn take_waiters(&mut self, entry_id: u64) -> Vec<Waiter> {
        self.waiters.remove(&entry_id).unwrap_or_default()
    }

    /// Records one admission: opens the lifecycle trace and bumps the
    /// tenant and spec request counters.
    pub fn on_admit(&mut self, id: u64, tenant: usize, spec_fp: u64, key_fp: u64, tick: u64) {
        self.lifecycle
            .open(id, tenant as u32, spec_fp, key_fp, tick);
        self.tenants[tenant].requests += 1;
        if let Some(slot) = self.specs.get_mut(&spec_fp) {
            *slot += 1;
        } else if self.specs.len() < SPEC_CAP {
            self.specs.insert(spec_fp, 1);
        } else {
            self.spec_overflow += 1;
        }
    }

    /// Records a request's terminal transition, stamped at `stamp`:
    /// lifecycle, terminal counter, error-code breakdown and the
    /// deterministic tick latency. The wall-time half is
    /// [`OpsState::observe_e2e`].
    pub fn settle(&mut self, who: &Waiter, stage: Stage, stamp: u64, error: Option<&'static str>) {
        self.lifecycle.push(who.req_id, stage, stamp);
        let m = &mut self.tenants[who.tenant];
        m.note_terminal(stage);
        if let Some(code) = error {
            *m.errors.entry(code).or_insert(0) += 1;
        }
        m.e2e_ticks.record(stamp.saturating_sub(who.admit_tick));
    }

    /// Records a settled request's admission-to-terminal wall time: the
    /// `e2e_ns` histogram and the per-tenant span.
    pub fn observe_e2e(&mut self, tenant: usize, e2e: Duration) {
        self.tenants[tenant].e2e_ns.record(nanos(e2e));
        let q = qtrace::global();
        if q.is_enabled() {
            q.record_span(&format!("qserve/tenant/{tenant}/e2e"), e2e);
        }
    }

    /// Records the wall-time split of one executed compile.
    pub fn observe_execution(&mut self, tenant: usize, queue_wait: Duration, compile: Duration) {
        let m = &mut self.tenants[tenant];
        m.queue_wait_ns.record(nanos(queue_wait));
        m.compile_ns.record(nanos(compile));
        let q = qtrace::global();
        if q.is_enabled() {
            q.record_span(&format!("qserve/tenant/{tenant}/queue_wait"), queue_wait);
            q.record_span(&format!("qserve/tenant/{tenant}/compile"), compile);
        }
    }

    /// Drains the metric registry into the qtrace recorder as the
    /// `qserve/tenant/<t>/...` and `qserve/spec/<fp>/...` series. Zero
    /// counters and empty histograms are skipped so manifests stay
    /// lean; call once per recorder drain (counters accumulate).
    pub fn flush_metrics(&self, q: &qtrace::Recorder) {
        if !q.is_enabled() {
            return;
        }
        for (t, m) in self.tenants.iter().enumerate() {
            let counters: [(&str, u64); 12] = [
                ("requests", m.requests),
                ("hits", m.hits),
                ("misses", m.misses),
                ("completed", m.completed),
                ("failed", m.failed),
                ("cancelled", m.cancelled),
                ("reaped", m.reaped),
                ("shed", m.shed),
                ("rejected", m.rejected),
                ("quarantined", m.quarantined),
                ("breaker_open", m.breaker_open),
                ("throttled", m.throttled),
            ];
            for (name, value) in counters {
                if value > 0 {
                    q.add(&format!("qserve/tenant/{t}/{name}"), value);
                }
            }
            for (code, count) in &m.errors {
                q.add(&format!("qserve/tenant/{t}/error/{code}"), *count);
            }
            if let Some(permille) = (m.hits * 1000).checked_div(m.requests) {
                q.gauge_max(&format!("qserve/tenant/{t}/hit_permille"), permille);
            }
            let hists: [(&str, &Histogram); 4] = [
                ("e2e_ticks", &m.e2e_ticks),
                ("queue_wait_ns", &m.queue_wait_ns),
                ("compile_ns", &m.compile_ns),
                ("e2e_ns", &m.e2e_ns),
            ];
            for (name, hist) in hists {
                q.observe_histogram(&format!("qserve/tenant/{t}/{name}"), hist);
            }
        }
        for (fp, count) in &self.specs {
            q.add(&format!("qserve/spec/{fp:016x}/requests"), *count);
        }
        if self.spec_overflow > 0 {
            q.add("qserve/spec/overflow", self.spec_overflow);
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Renders journal events as JSON lines (one per event, trailing
/// newline when non-empty).
pub fn render_journal(events: &[JournalEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json_line());
        out.push('\n');
    }
    out
}

/// Renders lifecycle traces as JSON lines in admission order.
pub fn render_lifecycle(traces: &[RequestTrace]) -> String {
    let mut out = String::new();
    for trace in traces {
        out.push_str(&trace.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> OpsConfig {
        OpsConfig::default()
    }

    #[test]
    fn lifecycle_records_transitions_in_admission_order() {
        let mut log = LifecycleLog::new(&config());
        log.open(1, 0, 0xAA, 0xA1, 5);
        log.open(2, 1, 0xBB, 0xB1, 6);
        log.push(1, Stage::Queued, 5);
        log.push(2, Stage::Completed, 6);
        log.push(1, Stage::Dispatched, 5);
        log.push(1, Stage::Completed, 5);
        let traces = log.take();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].id, 1);
        assert_eq!(traces[0].terminal(), Some(Stage::Completed));
        assert_eq!(traces[0].terminal_count(), 1);
        assert_eq!(
            traces[0].stages,
            vec![
                (Stage::Admitted, 5),
                (Stage::Queued, 5),
                (Stage::Dispatched, 5),
                (Stage::Completed, 5),
            ]
        );
        assert_eq!(traces[1].terminal(), Some(Stage::Completed));
        // Drained: later transitions for old ids are ignored, new opens
        // restart the dense block.
        log.push(1, Stage::Failed, 9);
        log.open(3, 0, 0xCC, 0xC1, 9);
        let traces = log.take();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].id, 3);
        assert_eq!(traces[0].terminal(), None);
    }

    #[test]
    fn lifecycle_capacity_drops_and_counts() {
        let mut log = LifecycleLog::new(&OpsConfig {
            lifecycle_capacity: 2,
            ..config()
        });
        for id in 1..=5 {
            log.open(id, 0, 0, 0, id);
        }
        assert_eq!(log.dropped(), 3);
        // Transitions for dropped ids are ignored, not misattributed.
        log.push(4, Stage::Completed, 9);
        let traces = log.take();
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|t| t.terminal().is_none()));
        assert_eq!(log.dropped(), 0, "drain resets the drop count");
    }

    #[test]
    fn disabled_lifecycle_records_nothing() {
        let mut log = LifecycleLog::new(&OpsConfig {
            lifecycle: false,
            ..config()
        });
        log.open(1, 0, 0, 0, 1);
        log.push(1, Stage::Completed, 1);
        assert!(log.take().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn journal_lines_are_canonical() {
        let ev = JournalEvent::new(7, "quarantine_add")
            .tenant(2)
            .spec(0x1234)
            .request(41)
            .note("panicked")
            .field("strikes", 3);
        assert_eq!(
            ev.to_json_line(),
            "{\"tick\":7,\"event\":\"quarantine_add\",\"tenant\":2,\
             \"spec_fp\":\"0x0000000000001234\",\"request\":41,\
             \"note\":\"panicked\",\"strikes\":3}"
        );
        let bare = JournalEvent::new(0, "spill_recovery")
            .field("recovered", 5)
            .field("corrupt", 1);
        assert_eq!(
            bare.to_json_line(),
            "{\"tick\":0,\"event\":\"spill_recovery\",\"recovered\":5,\"corrupt\":1}"
        );
        let rendered = render_journal(&[ev.clone(), bare]);
        assert_eq!(rendered.lines().count(), 2);
        assert!(rendered.ends_with('\n'));
        assert!(render_journal(&[]).is_empty());
    }

    #[test]
    fn trace_json_line_round_trips_through_qtrace_json() {
        let trace = RequestTrace {
            id: 9,
            tenant: 1,
            spec_fp: u64::MAX,
            key_fp: 0xDEAD_BEEF,
            stages: vec![(Stage::Admitted, 3), (Stage::Throttled, 3)],
        };
        let line = trace.to_json_line();
        // Hex-string fingerprints keep the document inside f64-exact
        // integer range for qtrace's strict JSON parser.
        let doc = qtrace::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(
            doc.get("spec_fp").and_then(|v| v.as_str()),
            Some("0xffffffffffffffff")
        );
        assert_eq!(
            doc.get("stages").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn metrics_flush_emits_only_nonzero_series() {
        let mut ops = OpsState::new(&config(), 2);
        let waiter = |req_id, admit_tick| Waiter {
            req_id,
            tenant: 0,
            admit_tick,
            admit_at: Instant::now(),
        };
        ops.on_admit(1, 0, 0xA, 0xA1, 1);
        ops.settle(&waiter(1, 1), Stage::Completed, 1, None);
        ops.observe_e2e(0, Duration::from_nanos(500));
        ops.on_admit(2, 0, 0xB, 0xB1, 2);
        ops.settle(&waiter(2, 2), Stage::Throttled, 2, Some("throttled"));
        ops.observe_e2e(0, Duration::from_nanos(100));
        let rec = qtrace::Recorder::new();
        rec.enable();
        ops.flush_metrics(&rec);
        let m = rec.take_manifest("t");
        assert_eq!(m.counters["qserve/tenant/0/requests"], 2);
        assert_eq!(m.counters["qserve/tenant/0/completed"], 1);
        assert_eq!(m.counters["qserve/tenant/0/throttled"], 1);
        assert_eq!(m.counters["qserve/tenant/0/error/throttled"], 1);
        assert_eq!(m.counters[&format!("qserve/spec/{:016x}/requests", 0xA)], 1);
        assert!(
            !m.counters.contains_key("qserve/tenant/1/requests"),
            "idle tenants emit nothing"
        );
        assert!(
            !m.counters.contains_key("qserve/tenant/0/failed"),
            "zero counters are skipped"
        );
        assert_eq!(m.histograms["qserve/tenant/0/e2e_ns"].count(), 2);
        assert_eq!(m.histograms["qserve/tenant/0/e2e_ticks"].count(), 2);
        assert!(
            !m.histograms.contains_key("qserve/tenant/0/compile_ns"),
            "empty histograms are skipped"
        );
        assert_eq!(m.gauges["qserve/tenant/0/hit_permille"], 0);
    }
}
