//! The compile service: admission, per-tenant fair queuing, worker
//! pool, overload shedding, fault tolerance and calibration hot-reload.
//!
//! ## Core and shell
//!
//! Every serving decision — a hit, a miss, a refusal at one of the
//! admission gates, the deadline sweep and compile completion — is made
//! by the pure admission core (`admission.rs`, which owns the gate
//! order), under one lock, in arrival order, before any worker touches
//! the request. [`Service`] is the shell: it locks, calls
//! the core, applies what comes back (ticket, worker wake-up, spill
//! files, completion slots, wall-time histograms) and runs the compiles
//! the core reserved. The outcome sequence (and every `qserve/*`
//! counter) is therefore a pure function of the request stream,
//! whatever the worker count — the property the CI manifest gate and
//! the cross-worker determinism proptest pin.
//!
//! Failure-driven state (negative-cache TTLs, quarantine strikes,
//! breaker trips) transitions at compile *completion*. For submitters
//! that wait for each response before the next submit (the chaos
//! campaign's discipline), those transitions interleave with admissions
//! in one deterministic order, so even the fault-plane counters gate
//! byte-identical across worker counts.
//!
//! ## The logical clock
//!
//! Deadlines, negative-cache backoff, breaker cooldowns and token
//! buckets all run on a logical `u64` tick count: +1 per admission,
//! plus explicit [`Service::advance`] steps. Wall time never feeds a
//! policy decision. Every clock movement sweeps the deadline plane:
//! expired queued jobs are reaped before dispatch (their waiters get
//! [`ServeError::DeadlineExceeded`]), and expired in-flight compiles
//! have their [`qcompile::CancelToken`] tripped so the pipeline aborts
//! at its next pass boundary.
//!
//! ## Fairness and overload
//!
//! Each tenant owns a FIFO; workers pop round-robin across tenants, so
//! one tenant's backlog cannot starve another's single request. When
//! the shared queue is at capacity, a miss walks its
//! [`CompileOptions::ladder`] looking for an already-cached cheaper
//! rung (VIC → IC → NAIVE) to serve instead — degraded service beats no
//! service — and only rejects with [`ServeError::Overloaded`] when no
//! rung holds a servable (non-failed) entry.
//!
//! ## Fault tolerance
//!
//! - **Retry with backoff** — a failed compile is negatively cached
//!   with a seeded, jittered exponential TTL ([`BackoffConfig`]); once
//!   it lapses the next request retries the compile, carrying the
//!   strike count into the next window. Non-recoverable program errors
//!   cache forever (retrying cannot fix an invalid spec).
//! - **Poison-pill quarantine** — a spec fingerprint whose compiles
//!   panic or blow their deadline `quarantine_threshold` times is
//!   quarantined: all further requests for that *program* (any option
//!   set) fail fast with [`ServeError::Quarantined`] until
//!   [`Service::release_quarantine`].
//! - **Per-tenant circuit breaker + token bucket** — consecutive
//!   compile failures trip a tenant's breaker open
//!   ([`ServeError::CircuitOpen`] until the cooldown admits a single
//!   probe). While half-open only that probe's completion decides
//!   whether the breaker closes or re-trips; a straggler queued before
//!   the trip and finishing late decides nothing. An optional bucket
//!   bounds a tenant's compile admission rate
//!   ([`ServeError::Throttled`]). Cache hits bypass both: serving an
//!   `Arc` clone needs no protection.
//! - **Crash-safe warm start** — with [`ServiceConfig::spill_dir`] set,
//!   every compiled artifact is spilled to disk content-addressed by
//!   its cache fingerprint; a restarted service recovers every
//!   checksum-verified entry and drops stale-epoch VIC spills exactly
//!   like a hot reload would (see [`crate::spill`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qcompile::{
    try_compile_artifact_with_context_cancellable, CompileError, CompileOptions, CompiledArtifact,
    QaoaSpec,
};
use qhw::fault::{ServiceFault, ServiceFaultPlane};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::admission::{AdmissionState, Effects, Fill, Job};
use crate::breaker::{BreakerConfig, BucketConfig};
use crate::cache::{Completion, SlotState};
use crate::deadline::{BackoffConfig, QuarantineReason};
use crate::ops::{JournalEvent, OpsConfig, OpsState, RequestTrace};
use crate::spill::SpillStore;

/// Why the service could not produce an artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The queue was full and no ladder rung of the request was cached.
    Overloaded {
        /// Jobs queued at admission time.
        queued: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The compile itself failed (shared verbatim with every request
    /// coalesced onto the same cache entry).
    Compile(CompileError),
    /// The request's deadline lapsed before a worker finished it: either
    /// reaped from the queue, or cancelled in flight at a pass boundary.
    DeadlineExceeded {
        /// The absolute logical-tick deadline that lapsed.
        deadline: u64,
        /// The logical clock when the service gave up on it.
        now: u64,
    },
    /// The program is quarantined: its compiles crashed or timed out
    /// repeatedly, so the service fails fast instead of re-detonating a
    /// worker. [`Service::release_quarantine`] lifts it.
    Quarantined {
        /// [`spec_fingerprint`](crate::spec_fingerprint) of the
        /// quarantined program.
        spec_fp: u64,
        /// What the program did to earn it.
        reason: QuarantineReason,
    },
    /// The tenant's circuit breaker is open after repeated compile
    /// failures; misses fail fast until the cooldown admits a probe.
    CircuitOpen {
        /// The tenant whose breaker is open.
        tenant: u32,
        /// Logical ticks until the next half-open probe is admitted.
        retry_in: u64,
    },
    /// The tenant's token bucket is empty: its compile admission rate
    /// exceeded the configured budget.
    Throttled {
        /// The tenant that ran dry.
        tenant: u32,
    },
}

impl ServeError {
    /// Stable machine-readable code, the label every ops-plane metric
    /// and journal line carries. The set is pinned by test — renaming a
    /// code forks every dashboard series keyed on it, so a rename must
    /// be a deliberate, test-visible decision.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Compile(_) => "compile_failed",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Quarantined { .. } => "quarantined",
            ServeError::CircuitOpen { .. } => "circuit_open",
            ServeError::Throttled { .. } => "throttled",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, capacity } => {
                write!(f, "service overloaded ({queued}/{capacity} jobs queued)")
            }
            ServeError::Compile(e) => write!(f, "compile failed: {e}"),
            ServeError::DeadlineExceeded { deadline, now } => {
                write!(f, "deadline exceeded (deadline tick {deadline}, now {now})")
            }
            ServeError::Quarantined { spec_fp, reason } => write!(
                f,
                "spec {spec_fp:#018x} is quarantined ({})",
                reason.label()
            ),
            ServeError::CircuitOpen { tenant, retry_in } => write!(
                f,
                "tenant {tenant} circuit breaker open (next probe in {retry_in} ticks)"
            ),
            ServeError::Throttled { tenant } => {
                write!(f, "tenant {tenant} throttled (token bucket empty)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// How admission classified a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the cache (ready, coalesced onto an in-flight compile
    /// of the same key, or a live negative entry).
    Hit,
    /// Admitted for compilation.
    Miss,
    /// Queue full; served from a cached lower ladder rung (`rungs` steps
    /// below the requested configuration).
    Shed {
        /// Ladder steps taken below the requested rung.
        rungs: u8,
    },
    /// Queue full and no ladder rung was cached.
    Rejected,
    /// Failed fast: the program is quarantined.
    Quarantined,
    /// Failed fast: the tenant's circuit breaker is open.
    BreakerOpen,
    /// Failed fast: the tenant's token bucket is empty.
    Throttled,
}

/// One compile request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Fair-queuing identity; mapped onto a tenant queue modulo
    /// [`ServiceConfig::tenants`].
    pub tenant: u32,
    /// The program to compile.
    pub spec: QaoaSpec,
    /// The requested configuration.
    pub options: CompileOptions,
    /// RNG seed a compile of this request uses. Coalescing note: the
    /// *first* requester of a key wins the compile, so the seed of later
    /// coalesced requests is ignored — key identity deliberately excludes
    /// the seed.
    pub seed: u64,
    /// Deadline in logical ticks **relative to admission**; `None`
    /// waits forever. On a miss, the compile must finish within this
    /// many clock movements or its waiters get
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<u64>,
}

impl Request {
    /// Builds a request with no deadline.
    pub fn new(tenant: u32, spec: QaoaSpec, options: CompileOptions, seed: u64) -> Request {
        Request {
            tenant,
            spec,
            options,
            seed,
            deadline: None,
        }
    }

    /// Attaches a deadline `ticks` logical clock steps after admission.
    pub fn with_deadline(mut self, ticks: u64) -> Request {
        self.deadline = Some(ticks);
        self
    }
}

/// A finished request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The artifact (shared, never copied) or the structured failure.
    pub result: Result<Arc<CompiledArtifact>, ServeError>,
    /// Admission's classification.
    pub outcome: Outcome,
    /// Position in the service's completion order (1-based); cache hits
    /// take theirs at admission, compiles when the worker finishes.
    pub served_order: u64,
    /// Submit-to-resolution wall time for this request.
    pub latency: Duration,
}

/// A submitted request: already resolved (hit / shed / reject /
/// fail-fast) or pending on an in-flight compile. Borrows the service,
/// so tickets cannot outlive it.
pub struct Ticket<'a> {
    _service: &'a Service,
    state: TicketState,
}

#[derive(Debug)]
enum TicketState {
    Ready(Response),
    Pending {
        completion: Arc<Completion>,
        outcome: Outcome,
        submitted: Instant,
    },
}

impl Ticket<'_> {
    /// Whether the response is already available without blocking.
    pub fn is_ready(&self) -> bool {
        match &self.state {
            TicketState::Ready(_) => true,
            TicketState::Pending { completion, .. } => {
                completion.slot.lock().expect("completion lock").is_some()
            }
        }
    }

    /// Admission's classification of this request.
    pub fn outcome(&self) -> Outcome {
        match &self.state {
            TicketState::Ready(r) => r.outcome,
            TicketState::Pending { outcome, .. } => *outcome,
        }
    }

    /// Blocks until the response is available.
    pub fn wait(self) -> Response {
        match self.state {
            TicketState::Ready(response) => response,
            TicketState::Pending {
                completion,
                outcome,
                submitted,
            } => {
                let mut slot = completion.slot.lock().expect("completion lock");
                while slot.is_none() {
                    slot = completion.ready.wait(slot).expect("completion lock");
                }
                let (result, served_order, resolved_at) =
                    slot.as_ref().expect("loop exits on Some").clone();
                Response {
                    result,
                    outcome,
                    served_order,
                    latency: resolved_at.saturating_duration_since(submitted),
                }
            }
        }
    }
}

/// Service sizing and policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads compiling queued jobs. `0` is valid and means no
    /// background compilation: jobs queue until [`Service::drain_one`]
    /// runs them inline (deterministic tests drive the queue this way).
    pub workers: usize,
    /// Artifact-cache capacity in entries (min 1).
    pub cache_capacity: usize,
    /// Queued-job bound across all tenants; admission beyond it sheds
    /// down the ladder, then rejects.
    pub queue_capacity: usize,
    /// Number of tenant FIFOs (min 1); request tenants map in modulo.
    pub tenants: usize,
    /// Panics/timeouts of one spec fingerprint before it is quarantined
    /// (0 disables quarantine).
    pub quarantine_threshold: u32,
    /// Negative-cache TTL policy for failed compiles.
    pub backoff: BackoffConfig,
    /// Per-tenant circuit-breaker policy (`failure_threshold: 0`
    /// disables it).
    pub breaker: BreakerConfig,
    /// Per-tenant compile-admission token bucket; `None` = unlimited.
    pub bucket: Option<BucketConfig>,
    /// Directory for crash-safe artifact spill; `None` disables
    /// persistence. A restarted service pointed at the same directory
    /// warm-starts from every verifiable spilled artifact.
    pub spill_dir: Option<PathBuf>,
    /// Seeded fault-injection schedule for chaos testing; faults key on
    /// the compile admission sequence number, so the injected behavior
    /// is independent of worker count.
    pub fault_plane: Option<Arc<ServiceFaultPlane>>,
    /// Ops-plane switches: per-request lifecycle tracing and the
    /// failure-plane journal (both on by default; see [`OpsConfig`]).
    pub ops: OpsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: qcompile::default_workers().min(4),
            cache_capacity: 256,
            queue_capacity: 4096,
            tenants: 4,
            quarantine_threshold: 3,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            bucket: None,
            spill_dir: None,
            fault_plane: None,
            ops: OpsConfig::default(),
        }
    }
}

/// Deterministic counters mirrored from the `qserve/*` qtrace series,
/// readable without draining the recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted (including warm calls).
    pub requests: u64,
    /// Cache hits (ready, coalesced, or live negative).
    pub hits: u64,
    /// Admitted compiles.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Requests served from a cached lower ladder rung under overload.
    pub shed: u64,
    /// Requests rejected under overload.
    pub rejected: u64,
    /// Entries dropped by calibration hot-reloads.
    pub invalidated: u64,
    /// Calibration hot-reloads performed.
    pub epoch_bumps: u64,
    /// Current calibration epoch.
    pub epoch: u64,
    /// Artifacts (and reservations) currently cached.
    pub cached_entries: usize,
    /// Jobs currently queued.
    pub queued: usize,
    /// Order-sensitive fingerprint folded over every admission outcome
    /// `(key fingerprint, classification)` — two runs with identical
    /// values served identical sequences.
    pub sequence_fp: u64,
    /// Queued jobs reaped because their deadline lapsed before dispatch.
    pub deadline_reaped: u64,
    /// In-flight compiles cancelled by a deadline sweep.
    pub cancelled: u64,
    /// Negative-cache entries that lapsed and were reaped at lookup
    /// (each one re-admits the compile — the retry count).
    pub negative_expired: u64,
    /// Requests failed fast because their program is quarantined.
    pub quarantine_rejects: u64,
    /// Programs currently quarantined.
    pub quarantined_specs: u64,
    /// Circuit-breaker open transitions.
    pub breaker_trips: u64,
    /// Requests failed fast on an open breaker.
    pub breaker_rejects: u64,
    /// Tenant breakers currently open (snapshot).
    pub breakers_open: u64,
    /// Requests failed fast on an empty token bucket.
    pub throttled: u64,
    /// Artifacts spilled to disk.
    pub spill_saved: u64,
    /// Artifacts recovered from disk at startup.
    pub spill_recovered: u64,
    /// Spill files rejected at recovery (checksum/parse/fingerprint).
    pub spill_corrupt: u64,
    /// Spill files dropped at recovery as stale (epoch or topology).
    pub spill_stale: u64,
    /// The logical clock (admissions + explicit advances).
    pub now_tick: u64,
}

struct Inner {
    core: AdmissionState,
    shutdown: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    work: Condvar,
    served: AtomicU64,
    spill: Option<SpillStore>,
    fault_plane: Option<Arc<ServiceFaultPlane>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("service lock")
    }

    /// The next position in the completion order (1-based).
    fn next_served(&self) -> u64 {
        self.served.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Applies, under the lock, what a core call left to the shell:
    /// unlinks spill files and observes the wall-time latency of every
    /// request a resolved reservation settled. Returns the fills for
    /// [`Shared::publish`] once the lock is released.
    fn apply(&self, ops: &mut OpsState, effects: Effects) -> Vec<Fill> {
        if let Some(store) = &self.spill {
            for &fp in &effects.unlink {
                store.unlink(fp);
            }
        }
        for fill in &effects.fills {
            for who in std::iter::once(&fill.owner).chain(&fill.parked) {
                ops.observe_e2e(who.tenant, who.admit_at.elapsed());
            }
        }
        effects.fills
    }

    /// Fills each resolved reservation's completion slot, waking its
    /// waiters — outside the service lock, so the wake-up never
    /// lengthens it.
    fn publish(&self, fills: Vec<Fill>) {
        for fill in fills {
            let resolution = (fill.result, self.next_served(), Instant::now());
            *fill.completion.slot.lock().expect("completion lock") = Some(resolution);
            fill.completion.ready.notify_all();
        }
    }
}

/// The in-process compile service. See the crate docs for the example
/// and the module docs for the serving policy.
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service for one hardware target, spawning
    /// [`ServiceConfig::workers`] compile threads. With
    /// [`ServiceConfig::spill_dir`] set, warm-starts from every
    /// verifiable spilled artifact: entries are checksum- and
    /// fingerprint-verified before they serve, and VIC spills from a
    /// different calibration (per the spill directory's epoch sidecar)
    /// are dropped as stale.
    pub fn new(
        topology: Topology,
        calibration: Option<Calibration>,
        config: ServiceConfig,
    ) -> Self {
        let topology_fp = topology.fingerprint();
        let calibration_fp = calibration.as_ref().map(Calibration::fingerprint);
        let context = Arc::new(HardwareContext::from_parts(topology, calibration));
        let mut core = AdmissionState::new(&config, context);
        // Warm-start recovery before the service goes live.
        let spill = config.spill_dir.clone().and_then(|dir| {
            let store = SpillStore::new(dir).ok()?;
            // VIC spills are only trusted when the sidecar proves the
            // calibration is the one they were compiled against.
            let (epoch, vic_epoch) = match store.read_meta() {
                Some((saved, saved_cal)) if saved_cal == calibration_fp => (saved, Some(saved)),
                Some((saved, _)) => (saved + 1, None),
                None => (0, None),
            };
            for victim in core.recover(epoch, store.recover(topology_fp, vic_epoch)) {
                store.unlink(victim);
            }
            let _ = store.write_meta(epoch, calibration_fp);
            Some(store)
        });
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                core,
                shutdown: false,
            }),
            work: Condvar::new(),
            served: AtomicU64::new(0),
            spill,
            fault_plane: config.fault_plane,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qserve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn qserve worker")
            })
            .collect();
        Service { shared, workers }
    }

    /// Submits a request, classifying it immediately; the returned
    /// ticket is resolved for hits/sheds/rejects/fail-fasts and pending
    /// for misses.
    pub fn submit(&self, request: Request) -> Ticket<'_> {
        self.admit(request, false)
    }

    /// `submit` + `wait`.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Like [`Service::call`], but a miss compiles inline on the calling
    /// thread, bypassing the queue, its capacity, and the fail-fast
    /// admission gates (so it can never shed, reject, or be throttled).
    /// Deterministic cache warming uses this.
    pub fn warm(&self, request: Request) -> Response {
        self.admit(request, true).wait()
    }

    /// Advances the logical clock by `ticks` and sweeps the deadline
    /// plane: queued jobs past their deadline are reaped (waiters get
    /// [`ServeError::DeadlineExceeded`]) and expired in-flight compiles
    /// are cancelled at their next pass boundary. Admissions advance
    /// the clock by one implicitly; tests and long-poll loops advance
    /// it explicitly.
    pub fn advance(&self, ticks: u64) {
        let mut inner = self.shared.lock();
        let effects = inner.core.advance(ticks);
        let fills = self.shared.apply(&mut inner.core.ops, effects);
        drop(inner);
        self.shared.publish(fills);
    }

    fn admit(&self, request: Request, inline: bool) -> Ticket<'_> {
        let submitted = Instant::now();
        let mut inner = self.shared.lock();
        let decision = inner.core.decide(request, inline, submitted);
        let ops = &mut inner.core.ops;
        let fills = self.shared.apply(ops, decision.effects);
        // A request settled at admission: its end-to-end latency is the
        // ticket's.
        let latency = submitted.elapsed();
        if let Some(who) = &decision.settled {
            ops.observe_e2e(who.tenant, latency);
        }
        let outcome = decision.outcome;
        let ready = |result| {
            TicketState::Ready(Response {
                result,
                outcome,
                served_order: self.shared.next_served(),
                latency,
            })
        };
        let state = match decision.answer {
            Ok(SlotState::Pending(completion)) => TicketState::Pending {
                completion,
                outcome,
                submitted,
            },
            Ok(SlotState::Ready(artifact)) => ready(Ok(artifact)),
            Ok(SlotState::Failed { error, .. }) | Err(error) => ready(Err(error)),
        };
        drop(inner);
        self.shared.publish(fills);
        match decision.inline {
            Some(job) => execute(&self.shared, *job),
            None if outcome == Outcome::Miss => self.shared.work.notify_one(),
            None => {}
        }
        Ticket {
            _service: self,
            state,
        }
    }

    /// Swaps in a new calibration table (or removes it), bumps the
    /// epoch, and invalidates exactly the cached entries that consumed
    /// calibration — including their disk spills, so a later restart
    /// cannot resurrect a stale-epoch VIC artifact. In-flight compiles
    /// of invalidated keys complete against the context their
    /// requesters saw at admission — their waiters get the pre-reload
    /// artifact they asked for — but the cache forgets them, so
    /// post-reload requests always recompile. Returns the number of
    /// invalidated entries.
    pub fn reload_calibration(&self, calibration: Option<Calibration>) -> usize {
        let calibration_fp = calibration.as_ref().map(Calibration::fingerprint);
        let mut inner = self.shared.lock();
        let dropped = inner.core.reload(calibration);
        if let Some(store) = &self.shared.spill {
            for &victim in &dropped {
                store.unlink(victim);
            }
            let _ = store.write_meta(inner.core.epoch, calibration_fp);
        }
        dropped.len()
    }

    /// Lifts the quarantine of `spec_fp` (and clears its strikes), e.g.
    /// after a compiler fix ships. Returns whether it was quarantined.
    pub fn release_quarantine(&self, spec_fp: u64) -> bool {
        self.shared.lock().core.release_quarantine(spec_fp)
    }

    /// The current calibration epoch (starts at 0 or the recovered
    /// spill epoch, +1 per reload).
    pub fn epoch(&self) -> u64 {
        self.shared.lock().core.epoch
    }

    /// A snapshot of the deterministic service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().core.stats()
    }

    /// Runs one queued job inline on the calling thread, if any. With
    /// `workers: 0` this is the only way jobs execute, which gives tests
    /// full control over completion order.
    pub fn drain_one(&self) -> bool {
        let Some(job) = self.shared.lock().core.dispatch() else {
            return false;
        };
        execute(&self.shared, job);
        true
    }

    /// Emits the admission-sequence fingerprint and cache occupancy as
    /// qtrace gauges. Call once before draining a manifest: two runs
    /// with equal `qserve/cache/sequence_fp` gauges served identical
    /// outcome sequences. The gauge carries the 32-bit xor-fold of
    /// [`ServiceStats::sequence_fp`] — manifest numbers must stay
    /// exactly representable as f64 (`qtrace::json` rejects integers
    /// beyond 2^53 on read-back), and the fold preserves sensitivity to
    /// every admission in the sequence. Fault-plane gauges are emitted
    /// only when nonzero, so fault-free manifests are byte-identical to
    /// pre-fault-plane baselines.
    pub fn flush_telemetry(&self) {
        self.shared.lock().core.flush_telemetry();
    }

    /// Drains the ops journal: every failure-plane action since the last
    /// drain, in deterministic occurrence order. Render with
    /// [`crate::ops::render_journal`].
    pub fn take_journal(&self) -> Vec<JournalEvent> {
        self.shared.lock().core.ops.journal.take()
    }

    /// Drains the request lifecycle log: one trace per admitted request,
    /// in admission (request-id) order. Render with
    /// [`crate::ops::render_lifecycle`] or export via
    /// [`crate::ops::lifecycle_manifest`].
    pub fn take_lifecycle(&self) -> Vec<RequestTrace> {
        self.shared.lock().core.ops.lifecycle.take()
    }

    /// How many lifecycle records were dropped to the capacity bound
    /// since startup. Zero in every deterministic-campaign baseline.
    pub fn lifecycle_dropped(&self) -> u64 {
        self.shared.lock().core.ops.lifecycle.dropped()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut inner = shared.lock();
    loop {
        if let Some(job) = inner.core.dispatch() {
            drop(inner);
            execute(shared, job);
            inner = shared.lock();
        } else if inner.shutdown {
            return;
        } else {
            inner = shared.work.wait(inner).expect("service lock");
        }
    }
}

/// Compiles one reserved job, hands the attempt to the core and
/// publishes the result. Panics are contained exactly like
/// `qcompile::compile_batch` does it; injected service faults (worker
/// panics, virtual stalls) detonate here, keyed by the job's compile
/// admission ordinal.
fn execute(shared: &Shared, job: Job) {
    let dispatched_at = Instant::now();
    let plane = shared.fault_plane.as_deref();
    let fault = plane.and_then(|plane| plane.fault_for(job.fault_seq));
    if let Some(ServiceFault::SlowCompile { ticks }) = fault {
        // A virtual stall: if losing `ticks` to it would blow the
        // job's deadline, the compile is cancelled exactly as a real
        // sweep would — no wall-clock sleeping, so the campaign stays
        // fast and deterministic.
        let admit_tick = job.owner.admit_tick;
        if job.deadline.is_some_and(|d| admit_tick + ticks > d) {
            job.token.cancel();
        }
    }
    let inject_panic = matches!(fault, Some(ServiceFault::WorkerPanic));
    let compile_start = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected worker panic (fault plane)");
        }
        let mut rng = StdRng::seed_from_u64(job.seed);
        try_compile_artifact_with_context_cancellable(
            &job.key.spec,
            &job.context,
            &job.key.options,
            &mut rng,
            &job.token,
        )
    }));
    let compile_elapsed = compile_start.elapsed();
    let panicked = attempt.is_err();
    let attempt = attempt.unwrap_or_else(|_| {
        Err(CompileError::Internal(format!(
            "compile worker panicked (spec {:#018x}, tenant {})",
            job.spec_fp, job.tenant
        )))
    });
    // Spill before publishing: recovery independently verifies bytes,
    // so an orphaned file (entry evicted mid-compile) is harmless, and
    // the core has it unlinked.
    let spilled = match (&attempt, &shared.spill) {
        (Ok(artifact), Some(store)) => store.save(job.fp, &job.key, artifact).is_ok(),
        _ => false,
    };
    let owner = job.owner;
    let mut inner = shared.lock();
    let effects = inner.core.complete(job, attempt, panicked, spilled);
    let ops = &mut inner.core.ops;
    let queue_wait = dispatched_at.saturating_duration_since(owner.admit_at);
    ops.observe_execution(owner.tenant, queue_wait, compile_elapsed);
    let fills = shared.apply(ops, effects);
    drop(inner);
    shared.publish(fills);
}
