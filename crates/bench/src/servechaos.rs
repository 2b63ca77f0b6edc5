//! Seeded chaos campaign for the `qserve` fault-tolerance plane.
//!
//! Where [`crate::serveload`] proves the happy path (cached serving
//! throughput under a fig09-class request mix), this module detonates
//! the service on purpose and gates what the wreckage looks like. Six
//! phases run against fresh services over one small key universe
//! (6-qubit MaxCut instances on a 2×3 grid, all four paper
//! configurations):
//!
//! 1. **Fault storm** — a seeded [`ServiceFaultPlane`] injects worker
//!    panics and virtual stalls into the compile stream; deadlines ride
//!    on every third request. Panics negative-cache with backoff TTLs,
//!    re-detonate after expiry, and quarantine their spec; stalled
//!    deadline requests observe cooperative cancellation.
//! 2. **Queue reap** — a `workers: 0` service accumulates
//!    deadline-bearing jobs, the logical clock advances past them, and
//!    every waiter gets the structured deadline error; a second batch
//!    drains inline to prove the queue still serves.
//! 3. **Breaker storm** — an always-panic plane trips one tenant's
//!    circuit breaker; its misses fail fast, another tenant stays
//!    admitted, and the post-cooldown probe re-trips.
//! 4. **Throttle burst** — a tiny token bucket rejects a compile burst,
//!    then refills on the logical clock.
//! 5. **Reload storm** — seeded calibration hot-reload points invalidate
//!    VIC entries mid-stream.
//! 6. **Crash and recover** — a spill-backed service is warmed and
//!    dropped, a seeded fraction of its spill files is corrupted
//!    (truncation + bit flips), and restarted services must recover the
//!    rest, re-compile the damage, and drop stale-epoch VIC spills after
//!    a calibration change.
//!
//! Every request is issued through [`Service::call`] (serialized), every
//! expiry runs on the service's logical clock, and every fault comes
//! from a seeded schedule keyed by compile admission ordinal — so the
//! counter side of the campaign, and therefore its normalized run
//! manifest, is byte-identical across machines *and worker counts*.

use std::path::PathBuf;
use std::sync::Arc;

use qaoa::MaxCut;
use qcompile::{CompileOptions, QaoaSpec};
use qhw::fault::{FaultInjector, ServiceFaultPlane, SpillCorruption};
use qhw::{Calibration, Topology};
use qserve::{
    BackoffConfig, BreakerConfig, BucketConfig, CacheKey, JournalEvent, Outcome, Request, Response,
    ServeError, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::{instances, Family};

/// One chaos campaign, fully determined by its field values.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Requests in the fault-storm phase.
    pub requests: usize,
    /// Problem instances per family (key universe scale).
    pub instances_per_family: usize,
    /// QAOA levels 1..=max_p per instance.
    pub max_p: usize,
    /// Service worker threads (the queue-reap phase always uses 0).
    pub workers: usize,
    /// Tenant queues (min 2: the breaker phase needs an innocent one).
    pub tenants: usize,
    /// Master seed of the request schedule, fault plane and corruption.
    pub seed: u64,
    /// Fault-plane probability of an injected worker panic per compile.
    pub panic_rate: f64,
    /// Fault-plane probability of a virtual stall per compile.
    pub stall_rate: f64,
    /// Virtual stall length in logical ticks (must exceed
    /// `deadline_ticks` so stalled deadline requests cancel).
    pub stall_ticks: u64,
    /// Relative deadline given to every third fault-storm request.
    pub deadline_ticks: u64,
    /// Explicit clock advance after each fault-storm request (lets
    /// negative-cache TTLs lapse and retries re-detonate).
    pub tick_stride: u64,
    /// Requests in the reload-storm phase.
    pub reload_requests: usize,
    /// Calibration hot-reloads fired at seeded points of that phase.
    pub reload_storms: usize,
}

impl ChaosConfig {
    /// The CI-gated quick configuration (16-key universe).
    pub fn quick() -> ChaosConfig {
        ChaosConfig {
            requests: 240,
            instances_per_family: 1,
            max_p: 2,
            workers: 4,
            tenants: 3,
            seed: 0x5EED_CA05,
            panic_rate: 0.35,
            stall_rate: 0.20,
            stall_ticks: 16,
            deadline_ticks: 8,
            tick_stride: 2,
            reload_requests: 60,
            reload_storms: 5,
        }
    }

    /// The full configuration (32-key universe, 10x the storm length).
    pub fn full() -> ChaosConfig {
        ChaosConfig {
            requests: 2_400,
            instances_per_family: 2,
            reload_requests: 600,
            reload_storms: 12,
            ..ChaosConfig::quick()
        }
    }
}

/// What the campaign observed: response-side tallies (what callers saw)
/// plus the service-side counters of each phase. Deterministic for a
/// fixed [`ChaosConfig`] — the serve-chaos CI gate diffs these at zero
/// tolerance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosOutcome {
    /// Requests issued across all phases.
    pub requests: u64,
    /// Responses carrying an artifact.
    pub delivered: u64,
    /// Responses carrying a structured error (never a panic).
    pub failed: u64,
    /// Responses failing with [`ServeError::DeadlineExceeded`].
    pub deadline_failures: u64,
    /// Responses failing fast with [`ServeError::Quarantined`].
    pub quarantine_rejections: u64,
    /// Responses failing fast with [`ServeError::CircuitOpen`].
    pub breaker_rejections: u64,
    /// Responses failing fast with [`ServeError::Throttled`].
    pub throttle_rejections: u64,
    /// Queued jobs reaped by deadline sweeps before dispatch.
    pub deadline_reaped: u64,
    /// Negative-cache entries that lapsed and re-admitted a retry.
    pub negative_retries: u64,
    /// Specs quarantined by the fault storm.
    pub quarantined_specs: u64,
    /// Circuit-breaker open transitions across all phases.
    pub breaker_trips: u64,
    /// Whether the innocent tenant stayed admitted while the abusive
    /// tenant's breaker was open (per-tenant isolation).
    pub breaker_isolated: bool,
    /// Cache entries dropped by calibration hot-reloads.
    pub invalidated: u64,
    /// Calibration hot-reloads performed.
    pub epoch_bumps: u64,
    /// Artifacts spilled to disk by the warm phase.
    pub spill_saved: u64,
    /// Artifacts recovered from disk by the same-calibration restart.
    pub spill_recovered: u64,
    /// Spill files rejected at recovery (checksum/parse/fingerprint).
    pub spill_corrupt: u64,
    /// Spill files dropped as stale by the changed-calibration restart.
    pub spill_stale: u64,
    /// `spill_recovered / spilled files` of the same-calibration restart.
    pub recovery_rate: f64,
    /// First-pass cache hits served by the recovered service (artifacts
    /// that crossed the crash).
    pub recovered_hits: u64,
    /// VIC keys served as hits by the changed-calibration restart —
    /// stale-epoch artifacts escaping invalidation. Must be zero.
    pub stale_vic_hits: u64,
}

/// The campaign's ops-plane harvest: the concatenated journals of every
/// phase (each prefixed with a `phase` marker event) plus lifecycle
/// conservation tallies. Deterministic for a fixed [`ChaosConfig`] —
/// the serve-chaos CI job diffs the journal bytes against a committed
/// baseline.
#[derive(Debug, Clone, Default)]
pub struct OpsArtifacts {
    /// Concatenated per-phase journals as deterministic JSON lines.
    pub journal: String,
    /// Lifecycle records captured across every phase service.
    pub lifecycle_records: u64,
    /// Lifecycle records that reached exactly one terminal stage.
    pub lifecycle_terminals: u64,
    /// Lifecycle records lost to the capacity bound (must stay 0).
    pub lifecycle_dropped: u64,
}

impl OpsArtifacts {
    /// Drains one phase service's ops plane into the campaign harvest.
    /// Called while the phase service is still alive, after its last
    /// request resolved, so the journal carries every completion-side
    /// event of the phase.
    fn harvest(&mut self, phase: &'static str, service: &Service) {
        let marker = [JournalEvent::new(0, "phase").note(phase)];
        self.journal.push_str(&qserve::render_journal(&marker));
        self.journal
            .push_str(&qserve::render_journal(&service.take_journal()));
        let traces = service.take_lifecycle();
        self.lifecycle_records += traces.len() as u64;
        self.lifecycle_terminals += traces
            .iter()
            .filter(|trace| trace.terminal_count() == 1)
            .count() as u64;
        self.lifecycle_dropped += service.lifecycle_dropped();
    }
}

impl ChaosOutcome {
    /// Folds one response into the campaign tallies (and the
    /// `serve_chaos/*` counter series).
    fn tally(&mut self, response: &Response) {
        let q = qtrace::global();
        self.requests += 1;
        q.add("serve_chaos/requests", 1);
        match &response.result {
            Ok(_) => {
                self.delivered += 1;
                q.add("serve_chaos/delivered", 1);
            }
            Err(error) => {
                self.failed += 1;
                q.add("serve_chaos/failed", 1);
                match error {
                    ServeError::DeadlineExceeded { .. } => self.deadline_failures += 1,
                    ServeError::Quarantined { .. } => self.quarantine_rejections += 1,
                    ServeError::CircuitOpen { .. } => self.breaker_rejections += 1,
                    ServeError::Throttled { .. } => self.throttle_rejections += 1,
                    ServeError::Overloaded { .. } | ServeError::Compile(_) => {}
                }
            }
        }
    }
}

/// The fault plane detonates worker panics by the hundreds; the default
/// panic hook would print (and, under `RUST_BACKTRACE`, symbolize)
/// every one — pure noise and most of the campaign's wall time. This
/// installs a process-wide filter that silences exactly the fault
/// plane's payload and defers every other panic to the previous hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected worker panic"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// The campaign's key universe: every (instance, p, configuration)
/// combination over 6-node Erdős–Rényi and 3-regular MaxCut instances.
fn key_universe(cfg: &ChaosConfig) -> Vec<(QaoaSpec, CompileOptions)> {
    let mut keys = Vec::new();
    for family in [Family::ErdosRenyi(0.5), Family::Regular(3)] {
        for graph in instances(family, 6, cfg.instances_per_family, 7907) {
            let problem = MaxCut::without_optimum(graph);
            for p in 1..=cfg.max_p {
                let spec = QaoaSpec::from_maxcut_parametric(&problem, p, true);
                for options in [
                    CompileOptions::qaim_only(),
                    CompileOptions::ip(),
                    CompileOptions::ic(),
                    CompileOptions::vic(),
                ] {
                    keys.push((spec.clone(), options));
                }
            }
        }
    }
    keys
}

/// The base service configuration every phase starts from.
fn base_config(cfg: &ChaosConfig, universe: usize) -> ServiceConfig {
    ServiceConfig {
        workers: cfg.workers,
        cache_capacity: universe + 8,
        queue_capacity: 64,
        tenants: cfg.tenants.max(2),
        ..ServiceConfig::default()
    }
}

/// Whether `options` consume calibration (their cached artifacts carry
/// a calibration epoch and must die on reload/stale recovery).
fn calibration_dependent(spec: &QaoaSpec, options: CompileOptions) -> bool {
    CacheKey::new(spec.clone(), options, 0, 0)
        .calibration_epoch
        .is_some()
}

/// Phase 1: the seeded panic/stall storm with deadlines, backoff
/// retries and quarantine.
fn fault_storm(
    cfg: &ChaosConfig,
    topo: &Topology,
    calibration: &Calibration,
    keys: &[(QaoaSpec, CompileOptions)],
    out: &mut ChaosOutcome,
    ops: &mut OpsArtifacts,
) {
    qtrace::global().add("serve_chaos/phases", 1);
    let plane = ServiceFaultPlane::plan(
        cfg.seed ^ 0xFA01,
        cfg.requests,
        cfg.panic_rate,
        cfg.stall_rate,
        cfg.stall_ticks,
    );
    let service = Service::new(
        topo.clone(),
        Some(calibration.clone()),
        ServiceConfig {
            // Short TTLs so expired negatives re-detonate within the
            // storm and strike counts actually accumulate.
            backoff: BackoffConfig {
                base_ticks: 4,
                max_ticks: 64,
                ..BackoffConfig::default()
            },
            fault_plane: Some(Arc::new(plane)),
            ..base_config(cfg, keys.len())
        },
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in 0..cfg.requests {
        let key_idx = rng.gen_range(0..keys.len());
        let (spec, options) = &keys[key_idx];
        let mut request = Request::new(
            rng.gen_range(0..cfg.tenants as u32),
            spec.clone(),
            *options,
            cfg.seed ^ key_idx as u64,
        );
        if i % 3 == 0 {
            request = request.with_deadline(cfg.deadline_ticks);
        }
        out.tally(&service.call(request));
        service.advance(cfg.tick_stride);
    }
    let stats = service.stats();
    out.negative_retries += stats.negative_expired;
    out.deadline_reaped += stats.deadline_reaped;
    out.quarantined_specs += stats.quarantined_specs;
    out.breaker_trips += stats.breaker_trips;
    service.flush_telemetry();
    ops.harvest("fault_storm", &service);
}

/// Phase 2: queued jobs past their deadline are reaped before dispatch
/// (`workers: 0`), then a fresh batch drains inline.
fn queue_reap(
    cfg: &ChaosConfig,
    topo: &Topology,
    calibration: &Calibration,
    keys: &[(QaoaSpec, CompileOptions)],
    out: &mut ChaosOutcome,
    ops: &mut OpsArtifacts,
) {
    qtrace::global().add("serve_chaos/phases", 1);
    let service = Service::new(
        topo.clone(),
        Some(calibration.clone()),
        ServiceConfig {
            workers: 0,
            ..base_config(cfg, keys.len())
        },
    );
    let batch = keys.len().min(6);
    let mut tickets = Vec::with_capacity(batch);
    for (i, (spec, options)) in keys.iter().take(batch).enumerate() {
        let tenant = (i % cfg.tenants) as u32;
        let request = Request::new(tenant, spec.clone(), *options, cfg.seed).with_deadline(2);
        tickets.push(service.submit(request));
    }
    // Nothing dequeues (no workers); the clock leaves every job behind.
    service.advance(cfg.deadline_ticks + 2);
    for ticket in tickets {
        out.tally(&ticket.wait());
    }
    // The reaped keys were forgotten, not negatively cached: the same
    // batch without deadlines drains to delivery.
    let mut tickets = Vec::with_capacity(batch);
    for (i, (spec, options)) in keys.iter().take(batch).enumerate() {
        let tenant = (i % cfg.tenants) as u32;
        tickets.push(service.submit(Request::new(tenant, spec.clone(), *options, cfg.seed)));
    }
    while service.drain_one() {}
    for ticket in tickets {
        out.tally(&ticket.wait());
    }
    out.deadline_reaped += service.stats().deadline_reaped;
    service.flush_telemetry();
    ops.harvest("queue_reap", &service);
}

/// Phase 3: an always-panic plane trips tenant 0's breaker; tenant 1
/// stays admitted; the post-cooldown probe re-trips; a second cooldown
/// later the fault horizon is past, so the next probe compiles clean
/// and re-closes the breaker.
fn breaker_storm(
    cfg: &ChaosConfig,
    topo: &Topology,
    calibration: &Calibration,
    keys: &[(QaoaSpec, CompileOptions)],
    out: &mut ChaosOutcome,
    ops: &mut OpsArtifacts,
) {
    qtrace::global().add("serve_chaos/phases", 1);
    let cooldown = 16;
    // Horizon 6 covers exactly the compiles meant to panic (four trip
    // strikes, the innocent tenant's miss, the first probe); compiles
    // past it succeed, so the recovery probe below re-closes the
    // breaker.
    let plane = ServiceFaultPlane::plan(cfg.seed ^ 0xFA03, 6, 1.0, 0.0, 0);
    let service = Service::new(
        topo.clone(),
        Some(calibration.clone()),
        ServiceConfig {
            // Quarantine off: this phase isolates the breaker.
            quarantine_threshold: 0,
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown_ticks: cooldown,
            },
            fault_plane: Some(Arc::new(plane)),
            ..base_config(cfg, keys.len())
        },
    );
    let request = |key_idx: usize, tenant: u32| {
        let (spec, options) = &keys[key_idx % keys.len()];
        Request::new(tenant, spec.clone(), *options, cfg.seed)
    };
    // Four failures trip tenant 0; the next four fail fast.
    for key_idx in 0..8 {
        out.tally(&service.call(request(key_idx, 0)));
    }
    // Tenant 1 is still admitted (its compile fails, but it is *tried*).
    let innocent = service.call(request(8, 1));
    out.breaker_isolated = innocent.outcome == Outcome::Miss;
    out.tally(&innocent);
    // Cooldown over: the half-open probe is admitted, panics, re-trips.
    service.advance(cooldown + 1);
    out.tally(&service.call(request(9, 0)));
    out.tally(&service.call(request(10, 0)));
    // Second cooldown: the fault horizon is behind us, the probe
    // compiles clean and the breaker re-closes; the tenant is served
    // again.
    service.advance(cooldown + 1);
    out.tally(&service.call(request(11, 0)));
    out.tally(&service.call(request(12, 0)));
    out.breaker_trips += service.stats().breaker_trips;
    service.flush_telemetry();
    ops.harvest("breaker_storm", &service);
}

/// Phase 4: a tiny token bucket rejects a compile burst, then refills
/// on the logical clock.
fn throttle_burst(
    cfg: &ChaosConfig,
    topo: &Topology,
    calibration: &Calibration,
    keys: &[(QaoaSpec, CompileOptions)],
    out: &mut ChaosOutcome,
    ops: &mut OpsArtifacts,
) {
    qtrace::global().add("serve_chaos/phases", 1);
    let refill = 64;
    let service = Service::new(
        topo.clone(),
        Some(calibration.clone()),
        ServiceConfig {
            bucket: Some(BucketConfig {
                capacity: 3,
                refill_ticks: refill,
            }),
            ..base_config(cfg, keys.len())
        },
    );
    for (spec, options) in keys.iter().take(8) {
        out.tally(&service.call(Request::new(0, spec.clone(), *options, cfg.seed)));
    }
    // One token back after a refill interval.
    service.advance(refill);
    let (spec, options) = &keys[keys.len().min(9) - 1];
    out.tally(&service.call(Request::new(0, spec.clone(), *options, cfg.seed)));
    service.flush_telemetry();
    ops.harvest("throttle_burst", &service);
}

/// Phase 5: seeded calibration hot-reload points invalidate VIC entries
/// mid-stream.
fn reload_storm(
    cfg: &ChaosConfig,
    topo: &Topology,
    calibrations: &[Calibration],
    keys: &[(QaoaSpec, CompileOptions)],
    out: &mut ChaosOutcome,
    ops: &mut OpsArtifacts,
) {
    qtrace::global().add("serve_chaos/phases", 1);
    let points = ServiceFaultPlane::reload_points(cfg.seed, cfg.reload_requests, cfg.reload_storms);
    let service = Service::new(
        topo.clone(),
        Some(calibrations[0].clone()),
        base_config(cfg, keys.len()),
    );
    for (i, (spec, options)) in keys.iter().enumerate() {
        let tenant = (i % cfg.tenants) as u32;
        out.tally(&service.warm(Request::new(tenant, spec.clone(), *options, cfg.seed)));
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xE10D);
    let hot = (keys.len() / 5).max(1);
    let mut storms = 0usize;
    for i in 0..cfg.reload_requests {
        if points.binary_search(&i).is_ok() {
            storms += 1;
            let next = calibrations[storms.min(calibrations.len() - 1)].clone();
            service.reload_calibration(Some(next));
        }
        let key_idx = if rng.gen_bool(0.8) {
            rng.gen_range(0..hot)
        } else {
            rng.gen_range(0..keys.len())
        };
        let (spec, options) = &keys[key_idx];
        let tenant = rng.gen_range(0..cfg.tenants as u32);
        out.tally(&service.call(Request::new(tenant, spec.clone(), *options, cfg.seed)));
    }
    let stats = service.stats();
    out.invalidated += stats.invalidated;
    out.epoch_bumps += stats.epoch_bumps;
    service.flush_telemetry();
    ops.harvest("reload_storm", &service);
}

/// Phase 6: warm a spill-backed service, kill it, corrupt a seeded
/// tenth of its spill files, and restart twice — once under the same
/// calibration (recovery floor) and once under a changed one (VIC
/// spills must die as stale).
fn spill_crash_recovery(
    cfg: &ChaosConfig,
    topo: &Topology,
    calibrations: &[Calibration],
    keys: &[(QaoaSpec, CompileOptions)],
    out: &mut ChaosOutcome,
    ops: &mut OpsArtifacts,
) {
    qtrace::global().add("serve_chaos/phases", 1);
    let dir = std::env::temp_dir().join(format!(
        "qserve_chaos_{:08x}_{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spill_config = |calibration: &Calibration| {
        (
            topo.clone(),
            Some(calibration.clone()),
            ServiceConfig {
                spill_dir: Some(dir.clone()),
                ..base_config(cfg, keys.len())
            },
        )
    };

    // Warm and "crash" (drop) the first incarnation.
    {
        let (t, c, config) = spill_config(&calibrations[0]);
        let service = Service::new(t, c, config);
        for (i, (spec, options)) in keys.iter().enumerate() {
            let tenant = (i % cfg.tenants) as u32;
            out.tally(&service.warm(Request::new(tenant, spec.clone(), *options, cfg.seed)));
        }
        out.spill_saved += service.stats().spill_saved;
        service.flush_telemetry();
        ops.harvest("spill_warm", &service);
    }

    // Torn writes and bit rot on a seeded tenth of the spilled files.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("spill dir exists after warm")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "qart"))
        .collect();
    files.sort();
    let spilled = files.len();
    let corrupt_n = (spilled / 10).max(1);
    let mut injector = FaultInjector::new(cfg.seed);
    for (i, path) in files.iter().take(corrupt_n).enumerate() {
        let kind = if i % 2 == 0 {
            SpillCorruption::Truncate
        } else {
            SpillCorruption::BitFlip
        };
        injector
            .corrupt_spill_file(path, kind)
            .expect("corrupting a spill file");
    }

    // Same-calibration restart: everything verifiable comes back.
    {
        let (t, c, config) = spill_config(&calibrations[0]);
        let service = Service::new(t, c, config);
        let stats = service.stats();
        out.spill_recovered += stats.spill_recovered;
        out.spill_corrupt += stats.spill_corrupt;
        out.recovery_rate = stats.spill_recovered as f64 / spilled.max(1) as f64;
        for (i, (spec, options)) in keys.iter().enumerate() {
            let tenant = (i % cfg.tenants) as u32;
            let response = service.call(Request::new(tenant, spec.clone(), *options, cfg.seed));
            if response.outcome == Outcome::Hit {
                out.recovered_hits += 1;
            }
            out.tally(&response);
        }
        service.flush_telemetry();
        ops.harvest("spill_recover", &service);
    }

    // Changed-calibration restart: VIC spills are stale and must be
    // dropped; serving one as a hit would be a stale-epoch escape.
    {
        let (t, c, config) = spill_config(&calibrations[1]);
        let service = Service::new(t, c, config);
        out.spill_stale += service.stats().spill_stale;
        for (i, (spec, options)) in keys.iter().enumerate() {
            let tenant = (i % cfg.tenants) as u32;
            let response = service.call(Request::new(tenant, spec.clone(), *options, cfg.seed));
            if calibration_dependent(spec, *options) && response.outcome == Outcome::Hit {
                out.stale_vic_hits += 1;
            }
            out.tally(&response);
        }
        service.flush_telemetry();
        ops.harvest("spill_stale", &service);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the full six-phase campaign and harvests its ops plane: the
/// per-phase journals and the lifecycle conservation tallies.
/// Deterministic for a fixed `cfg`: two runs (any worker count ≥ 1)
/// produce equal [`ChaosOutcome`]s, byte-identical journals and
/// byte-identical normalized run manifests.
pub fn run_chaos_full(cfg: &ChaosConfig) -> (ChaosOutcome, OpsArtifacts) {
    silence_injected_panics();
    let topo = Topology::grid(2, 3);
    let mut cal_rng = StdRng::seed_from_u64(cfg.seed ^ 0xCA11_FA17);
    let mut calibrations = vec![Calibration::random_normal(&topo, 2e-2, 8e-3, &mut cal_rng)];
    for _ in 0..cfg.reload_storms.max(1) {
        let next = calibrations
            .last()
            .expect("seeded above")
            .drifted(0.3, &mut cal_rng);
        calibrations.push(next);
    }
    let keys = key_universe(cfg);
    let mut out = ChaosOutcome::default();
    let mut ops = OpsArtifacts::default();
    fault_storm(cfg, &topo, &calibrations[0], &keys, &mut out, &mut ops);
    queue_reap(cfg, &topo, &calibrations[0], &keys, &mut out, &mut ops);
    breaker_storm(cfg, &topo, &calibrations[0], &keys, &mut out, &mut ops);
    throttle_burst(cfg, &topo, &calibrations[0], &keys, &mut out, &mut ops);
    reload_storm(cfg, &topo, &calibrations, &keys, &mut out, &mut ops);
    spill_crash_recovery(cfg, &topo, &calibrations, &keys, &mut out, &mut ops);
    (out, ops)
}
