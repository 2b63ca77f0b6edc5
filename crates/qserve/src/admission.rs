//! The pure admission core: every deterministic decision the compile
//! service makes ([`AdmissionState`]), with none of its machinery. It
//! takes no lock, reads no wall clock, spawns nothing and touches no
//! file (it writes only qtrace counters); the shell in
//! [`crate::service`] applies what it returns. [`AdmissionState::decide`]
//! admits one request, [`AdmissionState::advance`] moves the clock and
//! [`AdmissionState::complete`] records a finished compile; every
//! terminal goes through [`AdmissionState::settle`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use qcompile::{CancelToken, CompileError, CompiledArtifact};
use qhw::{Calibration, HardwareContext};

use crate::breaker::{BreakerDecision, BreakerTransition, CircuitBreaker, TokenBucket};
use crate::cache::{ArtifactCache, CacheKey, Completion, Lookup, SlotState};
use crate::deadline::{BackoffConfig, InflightDeadlines, PoisonLedger, QuarantineReason};
use crate::ops::{JournalEvent, OpsState, Stage, Waiter};
use crate::service::{Outcome, Request, ServeError, ServiceConfig, ServiceStats};
use crate::spill::RecoveryReport;

/// One fail-fast gate: `Some` ends the candidate, `None` passes it on.
type Gate = fn(&mut AdmissionState, &mut Candidate) -> Option<Refusal>;

/// The gates a queued miss meets, in order — the one place the order is
/// written. Cache hits never reach them: a cached artifact is safe to
/// serve however sick the program's compiles are. The order matters
/// twice over. Every gate after the breaker may end a request holding
/// the half-open probe, which [`AdmissionState::refuse`] then returns.
/// And the bucket comes last, so only a request that actually queues a
/// compile pays a token.
const GATES: [Gate; 4] = [
    AdmissionState::quarantine_gate,
    AdmissionState::breaker_gate,
    AdmissionState::overload_gate,
    AdmissionState::bucket_gate,
];

/// A reserved compile: what a worker (or the inline warm path) runs.
pub(crate) struct Job {
    pub fp: u64,
    /// Reservation id (the cache entry's); parked waiters key on it.
    id: u64,
    pub key: CacheKey,
    pub spec_fp: u64,
    /// The tenant as submitted (containment errors name it).
    pub tenant: u32,
    pub seed: u64,
    /// Absolute logical-tick deadline, if any.
    pub deadline: Option<u64>,
    /// Compile admission ordinal — the fault plane's key.
    pub fault_seq: u64,
    /// Consecutive prior failures of this key (from an expired negative
    /// entry); the next failure's backoff builds on it.
    strikes: u32,
    /// This job is its tenant's half-open breaker probe: its completion
    /// alone decides the breaker, and a reap returns the probe.
    probe: bool,
    /// The requester; the job's resolution records its terminal.
    pub owner: Waiter,
    pub token: CancelToken,
    pub context: Arc<HardwareContext>,
    completion: Arc<Completion>,
}

/// A resolved reservation the shell publishes: fill `completion` with
/// `result` and observe the wall-time latency of every request the
/// resolution settled.
pub(crate) struct Fill {
    pub completion: Arc<Completion>,
    pub result: Result<Arc<CompiledArtifact>, ServeError>,
    pub owner: Waiter,
    /// Pending-hit waiters that shared the owner's fate.
    pub parked: Vec<Waiter>,
}

/// What a core call leaves for the shell to do.
#[derive(Default)]
pub(crate) struct Effects {
    /// Resolved reservations to publish.
    pub fills: Vec<Fill>,
    /// Fingerprints whose spill files must go: evicted, invalidated, or
    /// orphaned by an entry that vanished mid-compile.
    pub unlink: Vec<u64>,
}

/// One admission's verdict.
pub(crate) struct Decision {
    /// The slot the request is served from (pending until a compile
    /// fills it), or the error it is refused with.
    pub answer: Result<SlotState, ServeError>,
    pub outcome: Outcome,
    /// The request, when admission recorded its terminal (its wall-time
    /// latency is due now); `None` while it waits on a compile.
    pub settled: Option<Waiter>,
    /// A reserved compile the caller runs itself (the warm path), boxed
    /// so that every other admission returns a small verdict.
    pub inline: Option<Box<Job>>,
    pub effects: Effects,
}

/// A miss on its way through the gates.
struct Candidate {
    who: Waiter,
    /// The tenant as submitted (refusal errors name it).
    tenant: u32,
    key: CacheKey,
    fp: u64,
    spec_fp: u64,
    /// Set by the breaker gate when this request holds the probe.
    probe: bool,
}

/// How a request ends without a compile of its own: its outcome,
/// terminal stage and answer (a cached rung's slot for a shed), and the
/// cache key the admission sequence folds it under.
struct Refusal {
    outcome: Outcome,
    stage: Stage,
    fp: u64,
    answer: Result<SlotState, ServeError>,
}

impl Candidate {
    fn fail(&self, outcome: Outcome, stage: Stage, error: ServeError) -> Option<Refusal> {
        let (fp, answer) = (self.fp, Err(error));
        Some(Refusal {
            outcome,
            stage,
            fp,
            answer,
        })
    }
}

/// Every deterministic piece of serving state; see the module docs.
pub(crate) struct AdmissionState {
    /// The logical clock: +1 per admission plus explicit advances.
    now: u64,
    pub epoch: u64,
    topology_fp: u64,
    context: Arc<HardwareContext>,
    cache: ArtifactCache,
    queues: Vec<VecDeque<Job>>,
    queued: usize,
    queue_capacity: usize,
    rr_cursor: usize,
    backoff: BackoffConfig,
    inflight: InflightDeadlines,
    poison: PoisonLedger,
    breakers: Vec<CircuitBreaker>,
    buckets: Option<Vec<TokenBucket>>,
    next_fault_seq: u64,
    stats: ServiceStats,
    pub ops: OpsState,
}

impl AdmissionState {
    pub fn new(config: &ServiceConfig, context: Arc<HardwareContext>) -> AdmissionState {
        let tenants = config.tenants.max(1);
        AdmissionState {
            now: 0,
            epoch: 0,
            topology_fp: context.topology().fingerprint(),
            context,
            cache: ArtifactCache::new(config.cache_capacity),
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            queued: 0,
            queue_capacity: config.queue_capacity,
            rr_cursor: 0,
            backoff: config.backoff,
            inflight: InflightDeadlines::default(),
            poison: PoisonLedger::new(config.quarantine_threshold),
            breakers: (0..tenants)
                .map(|_| CircuitBreaker::new(config.breaker))
                .collect(),
            buckets: config
                .bucket
                .map(|b| (0..tenants).map(|_| TokenBucket::new(b)).collect()),
            next_fault_seq: 0,
            stats: ServiceStats::default(),
            ops: OpsState::new(&config.ops, tenants),
        }
    }

    /// Warm start: re-inserts a spill directory's verified artifacts at
    /// `epoch` before the service goes live. Returns the fingerprints
    /// the capacity bound evicted.
    pub fn recover(&mut self, epoch: u64, report: RecoveryReport) -> Vec<u64> {
        self.epoch = epoch;
        let mut evicted = Vec::new();
        for (fp, key, artifact) in report.entries {
            evicted.extend(self.cache.insert(fp, key, SlotState::Ready(artifact)).1);
            self.stats.spill_recovered += 1;
        }
        self.stats.evictions += evicted.len() as u64;
        self.stats.spill_corrupt = report.corrupt;
        self.stats.spill_stale = report.stale;
        let q = qtrace::global();
        for (name, count) in [
            ("qserve/spill/recovered", self.stats.spill_recovered),
            ("qserve/spill/corrupt", report.corrupt),
            ("qserve/spill/stale", report.stale),
        ] {
            if count > 0 {
                q.add(name, count);
            }
        }
        let event = JournalEvent::new(0, "spill_recovery");
        let event = event.field("recovered", self.stats.spill_recovered);
        let event = event.field("corrupt", report.corrupt);
        let event = event.field("stale", report.stale).field("epoch", epoch);
        self.ops.journal.push(event);
        evicted
    }

    /// Admits one request at the next tick: sweeps the deadline plane,
    /// classifies the request against the cache, runs a miss through
    /// [`GATES`] (unless `inline`, the warm path, which bypasses them)
    /// and reserves its compile — queued, or handed back to run inline.
    /// Takes the request by value: its spec moves into the cache key.
    pub fn decide(&mut self, request: Request, inline: bool, admit_at: Instant) -> Decision {
        let mut effects = self.advance(1);
        let now = self.now;
        let q = qtrace::global();
        self.stats.requests += 1;
        q.add("qserve/requests", 1);
        // Stable request id: the admission ordinal — the key every
        // lifecycle transition and journal line refers back to.
        let who = Waiter {
            req_id: self.stats.requests,
            tenant: request.tenant as usize % self.queues.len(),
            admit_tick: now,
            admit_at,
        };
        let key = CacheKey::new(request.spec, request.options, self.topology_fp, self.epoch);
        let fp = key.fingerprint();
        let spec_fp = key.spec.fingerprint();
        self.ops.on_admit(who.req_id, who.tenant, spec_fp, fp, now);
        let mut strikes = 0;
        match self.cache.lookup(fp, &key, now) {
            Lookup::Hit { state, entry_id } => {
                self.stats.hits += 1;
                self.note(fp, 2);
                q.add("qserve/cache/hits", 1);
                self.ops.tenants[who.tenant].hits += 1;
                let terminal = match &state {
                    SlotState::Ready(_) => Some((Stage::Completed, None)),
                    SlotState::Failed { error, .. } => Some((Stage::Failed, Some(error.code()))),
                    // Whether the reservation is still pending at this
                    // instant is a race against the workers, so the
                    // terminal is deferred: the waiter parks on the
                    // reservation and settles with its compile's outcome,
                    // stamped at this admit tick — identical bytes either
                    // way.
                    SlotState::Pending(_) => None,
                };
                match terminal {
                    Some((stage, error)) => drop(self.settle(&who, None, stage, None, error)),
                    None => self.ops.park(entry_id, who),
                }
                let settled = terminal.map(|_| who);
                return Decision {
                    answer: Ok(state),
                    outcome: Outcome::Hit,
                    settled,
                    inline: None,
                    effects,
                };
            }
            Lookup::ExpiredNegative { strikes: prior } => {
                // The backoff window lapsed: retry the compile, but keep
                // the failure history so the next TTL keeps growing.
                strikes = prior;
                self.stats.negative_expired += 1;
                q.add("qserve/negative/expired", 1);
                let event = who.event(now, "negative_expire").spec(spec_fp);
                let event = event.field("strikes", u64::from(prior));
                self.ops.journal.push(event);
            }
            Lookup::Miss => {}
        }

        let mut candidate = Candidate {
            who,
            tenant: request.tenant,
            key,
            fp,
            spec_fp,
            probe: false,
        };
        if !inline {
            for gate in GATES {
                if let Some(refusal) = gate(self, &mut candidate) {
                    let outcome = refusal.outcome;
                    let (answer, _) = self.refuse(&who, candidate.probe, None, refusal);
                    return Decision {
                        answer,
                        outcome,
                        settled: Some(who),
                        inline: None,
                        effects,
                    };
                }
            }
        }

        self.stats.misses += 1;
        self.ops.tenants[who.tenant].misses += 1;
        self.note(fp, 1);
        q.add("qserve/cache/misses", 1);
        let completion = Arc::new(Completion::default());
        let pending = SlotState::Pending(Arc::clone(&completion));
        let (id, evicted) = self.cache.insert(fp, candidate.key.clone(), pending);
        if !evicted.is_empty() {
            self.stats.evictions += evicted.len() as u64;
            q.add("qserve/cache/evictions", evicted.len() as u64);
            effects.unlink = evicted;
        }
        let job = Job {
            fp,
            id,
            key: candidate.key,
            spec_fp,
            tenant: request.tenant,
            seed: request.seed,
            deadline: request.deadline.map(|d| now + d),
            fault_seq: self.next_fault_seq,
            strikes,
            probe: candidate.probe,
            owner: who,
            token: CancelToken::new(),
            context: Arc::clone(&self.context),
            completion: Arc::clone(&completion),
        };
        self.next_fault_seq += 1;
        let inline = if inline {
            self.ops.lifecycle.push(who.req_id, Stage::Dispatched, now);
            Some(Box::new(job))
        } else {
            self.ops.lifecycle.push(who.req_id, Stage::Queued, now);
            self.queues[who.tenant].push_back(job);
            self.queued += 1;
            None
        };
        Decision {
            answer: Ok(SlotState::Pending(completion)),
            outcome: Outcome::Miss,
            settled: None,
            inline,
            effects,
        }
    }

    fn quarantine_gate(&mut self, c: &mut Candidate) -> Option<Refusal> {
        let reason = self.poison.quarantined(c.spec_fp)?;
        let error = ServeError::Quarantined {
            spec_fp: c.spec_fp,
            reason,
        };
        c.fail(Outcome::Quarantined, Stage::Quarantined, error)
    }

    fn breaker_gate(&mut self, c: &mut Candidate) -> Option<Refusal> {
        match self.breakers[c.who.tenant].admit(self.now) {
            BreakerDecision::Admit => None,
            BreakerDecision::Probe => {
                c.probe = true;
                let event = c.who.event(self.now, "breaker_probe");
                self.ops.journal.push(event);
                None
            }
            BreakerDecision::Reject { retry_in } => {
                let error = ServeError::CircuitOpen {
                    tenant: c.tenant,
                    retry_in,
                };
                c.fail(Outcome::BreakerOpen, Stage::CircuitOpen, error)
            }
        }
    }

    /// A full queue sheds to a cached cheaper rung before rejecting. A
    /// negatively cached rung is no substitute — serving one key's error
    /// for another key's request helps nobody — and the probe is
    /// read-only: an expired negative rung keeps its strike history for
    /// its own next admission (see [`ArtifactCache::probe_servable`]).
    fn overload_gate(&mut self, c: &mut Candidate) -> Option<Refusal> {
        if self.queued < self.queue_capacity {
            return None;
        }
        for (steps, rung) in c.key.options.ladder().into_iter().enumerate().skip(1) {
            let alt = CacheKey::new(c.key.spec.clone(), rung, self.topology_fp, self.epoch);
            let fp = alt.fingerprint();
            if let Some(state) = self.cache.probe_servable(fp, &alt) {
                return Some(Refusal {
                    outcome: Outcome::Shed { rungs: steps as u8 },
                    stage: Stage::Shed,
                    fp,
                    answer: Ok(state),
                });
            }
        }
        let error = ServeError::Overloaded {
            queued: self.queued,
            capacity: self.queue_capacity,
        };
        c.fail(Outcome::Rejected, Stage::Rejected, error)
    }

    fn bucket_gate(&mut self, c: &mut Candidate) -> Option<Refusal> {
        let bucket = &mut self.buckets.as_mut()?[c.who.tenant];
        if bucket.try_take(self.now) {
            return None;
        }
        let error = ServeError::Throttled { tenant: c.tenant };
        c.fail(Outcome::Throttled, Stage::Throttled, error)
    }

    /// The single refusal path. A request that ends without a compile of
    /// its own — refused or shed at a gate, or reaped from its queue —
    /// takes its counter, its admission-sequence code, its lifecycle
    /// terminal (shared with the waiters parked on its `reservation`)
    /// and, when it held the half-open probe, the probe's return here: a
    /// probe that dispatches no compile gets no completion to decide the
    /// breaker, and without the return its tenant would fail fast
    /// forever.
    fn refuse(
        &mut self,
        who: &Waiter,
        probe: bool,
        reservation: Option<u64>,
        refusal: Refusal,
    ) -> (Result<SlotState, ServeError>, Vec<Waiter>) {
        let s = &mut self.stats;
        // Admission-sequence codes run 1..=7; a reaped job (code 0) was
        // sequenced as the miss it was admitted as.
        let (stat, counter, code) = match refusal.stage {
            Stage::Shed => (&mut s.shed, "qserve/shed", 3),
            Stage::Rejected => (&mut s.rejected, "qserve/rejected", 4),
            Stage::Quarantined => (&mut s.quarantine_rejects, "qserve/quarantine/rejects", 5),
            Stage::CircuitOpen => (&mut s.breaker_rejects, "qserve/breaker/rejects", 6),
            Stage::Throttled => (&mut s.throttled, "qserve/throttled", 7),
            _ => (&mut s.deadline_reaped, "qserve/deadline/reaped", 0),
        };
        *stat += 1;
        qtrace::global().add(counter, 1);
        if code > 0 {
            self.note(refusal.fp, code);
        }
        if probe {
            self.breakers[who.tenant].abort_probe(self.now);
            let event = who.event(self.now, "breaker_probe_abort");
            self.ops.journal.push(event);
        }
        let error = refusal.answer.as_ref().err().map(ServeError::code);
        let parked = self.settle(who, reservation, refusal.stage, Some(self.now), error);
        (refusal.answer, parked)
    }

    /// The one terminal path: records `stage` as the terminal of `owner`
    /// and of every pending-hit waiter parked on its `reservation` (they
    /// are handed the same result), stamped at `at` — the deadline-plane
    /// tick — or, for scheduler-reached terminals, at each request's own
    /// admit tick. Returns the parked waiters it settled.
    fn settle(
        &mut self,
        owner: &Waiter,
        reservation: Option<u64>,
        stage: Stage,
        at: Option<u64>,
        error: Option<&'static str>,
    ) -> Vec<Waiter> {
        let parked = reservation.map_or_else(Vec::new, |id| self.ops.take_waiters(id));
        for waiter in std::iter::once(owner).chain(&parked) {
            let stamp = at.unwrap_or(waiter.admit_tick);
            self.ops.settle(waiter, stage, stamp, error);
        }
        parked
    }

    /// Advances the clock by `ticks` and sweeps the deadline plane:
    /// queued jobs past their deadline are reaped through
    /// [`AdmissionState::refuse`], their reservations forgotten (a lapse
    /// is not a verdict on the key), and expired in-flight compiles have
    /// their tokens tripped so the pipeline aborts at its next pass
    /// boundary.
    pub fn advance(&mut self, ticks: u64) -> Effects {
        self.now += ticks;
        let now = self.now;
        let mut expired = Vec::new();
        for queue in &mut self.queues {
            for _ in 0..queue.len() {
                let job = queue.pop_front().expect("iterating queue.len() items");
                if job.deadline.is_some_and(|d| now > d) {
                    expired.push(job);
                } else {
                    queue.push_back(job);
                }
            }
        }
        self.queued -= expired.len();
        let fills = expired
            .into_iter()
            .map(|job| {
                self.cache.forget(job.fp, job.id);
                let deadline = job.deadline.expect("reaped implies a deadline");
                let error = ServeError::DeadlineExceeded { deadline, now };
                let refusal = Refusal {
                    outcome: Outcome::Miss,
                    stage: Stage::Reaped,
                    fp: job.fp,
                    answer: Err(error.clone()),
                };
                let (_, parked) = self.refuse(&job.owner, job.probe, Some(job.id), refusal);
                Fill {
                    completion: job.completion,
                    result: Err(error),
                    owner: job.owner,
                    parked,
                }
            })
            .collect();
        let cancelled = self.inflight.sweep(now);
        if cancelled > 0 {
            self.stats.cancelled += cancelled;
            qtrace::global().add("qserve/deadline/cancelled", cancelled);
        }
        Effects {
            fills,
            unlink: Vec::new(),
        }
    }

    /// Round-robin pop across the tenant FIFOs, resuming after the
    /// last-served tenant so a busy tenant cannot starve the others. A
    /// dispatched deadline-bearing job registers with the in-flight
    /// sweep so a later clock movement can cancel it mid-compile.
    pub fn dispatch(&mut self) -> Option<Job> {
        let tenants = self.queues.len();
        for offset in 0..tenants {
            let idx = (self.rr_cursor + offset) % tenants;
            if let Some(job) = self.queues[idx].pop_front() {
                self.rr_cursor = (idx + 1) % tenants;
                self.queued -= 1;
                if let Some(deadline) = job.deadline {
                    self.inflight.register(job.id, deadline, job.token.clone());
                }
                // Dispatch is scheduler-dependent, so it is stamped with
                // the admit tick: the lifecycle log stays a pure function
                // of the request stream regardless of worker count.
                let (id, tick) = (job.owner.req_id, job.owner.admit_tick);
                self.ops.lifecycle.push(id, Stage::Dispatched, tick);
                return Some(job);
            }
        }
        None
    }

    /// Records a finished compile at the current clock: the negative
    /// cache and its backoff, spill bookkeeping (`spilled`: the shell
    /// saved the artifact), poison strikes (`panicked`, or a
    /// cancellation), the breaker verdict, and the terminal of the job
    /// and its parked waiters.
    pub fn complete(
        &mut self,
        job: Job,
        attempt: Result<CompiledArtifact, CompileError>,
        panicked: bool,
        spilled: bool,
    ) -> Effects {
        let now = self.now;
        let q = qtrace::global();
        self.inflight.complete(job.id);
        let timed_out = matches!(attempt, Err(CompileError::Cancelled));
        let result = match (attempt, job.deadline) {
            (Ok(artifact), _) => Ok(Arc::new(artifact)),
            // A deadline cancellation surfaces as the service-level
            // error, not a compiler internal.
            (Err(CompileError::Cancelled), Some(deadline)) => {
                Err(ServeError::DeadlineExceeded { deadline, now })
            }
            (Err(e), _) => Err(ServeError::Compile(e)),
        };
        // Negative-cache policy: failures that retrying can plausibly
        // fix (recoverable errors, timeouts, panics) get a backoff TTL;
        // structurally invalid programs are cached forever.
        let (expires_at, strikes) = match &result {
            Ok(_) => (None, 0),
            Err(error) => {
                let strikes = job.strikes + 1;
                let retryable = panicked
                    || timed_out
                    || matches!(error, ServeError::Compile(e) if e.recoverable());
                let expires_at = retryable.then(|| now + self.backoff.ttl(job.fp, strikes));
                (expires_at, strikes)
            }
        };
        if let Some(expiry) = expires_at {
            let event = job.owner.event(now, "negative_strike").spec(job.spec_fp);
            let event = event.field("strikes", u64::from(strikes));
            let event = event.field("ttl", expiry.saturating_sub(now));
            self.ops.journal.push(event);
        }
        let live = self
            .cache
            .complete(job.fp, job.id, &result, expires_at, strikes);
        let mut effects = Effects::default();
        if spilled {
            if live && result.is_ok() {
                self.stats.spill_saved += 1;
                q.add("qserve/spill/saved", 1);
            } else {
                // The entry was evicted or invalidated mid-compile; its
                // spill must not survive it.
                effects.unlink.push(job.fp);
            }
        }
        // Poison ledger: panics and deadline timeouts strike the
        // *program*; enough of them quarantine it under every option set.
        let struck = panicked || timed_out;
        let verdict = struck.then(|| self.poison.strike(job.spec_fp, panicked));
        if let Some(reason) = verdict.flatten() {
            q.add("qserve/quarantine/new", 1);
            let (QuarantineReason::Panicked { strikes } | QuarantineReason::TimedOut { strikes }) =
                reason;
            let event = job.owner.event(now, "quarantine_add").spec(job.spec_fp);
            let event = event
                .note(reason.label())
                .field("strikes", u64::from(strikes));
            self.ops.journal.push(event);
        }
        let breaker = &mut self.breakers[job.owner.tenant];
        let code = match breaker.record(now, result.is_ok(), job.probe) {
            BreakerTransition::Tripped => {
                self.stats.breaker_trips += 1;
                q.add("qserve/breaker/trips", 1);
                Some("breaker_trip")
            }
            BreakerTransition::Closed => Some("breaker_close"),
            BreakerTransition::None => None,
        };
        if let Some(code) = code {
            self.ops.journal.push(job.owner.event(now, code));
        }
        // Completion order across workers is scheduler-dependent, so a
        // finished compile is stamped with each request's admit tick, a
        // deadline cancellation with the deadline itself: either way a
        // pure function of the request stream.
        let (stage, at) = match &result {
            Ok(_) => (Stage::Completed, None),
            Err(ServeError::DeadlineExceeded { deadline, .. }) => {
                (Stage::Cancelled, Some(*deadline))
            }
            Err(_) => (Stage::Failed, None),
        };
        let error = result.as_ref().err().map(ServeError::code);
        let parked = self.settle(&job.owner, Some(job.id), stage, at, error);
        effects.fills.push(Fill {
            completion: job.completion,
            result,
            owner: job.owner,
            parked,
        });
        effects
    }

    /// Swaps in a new calibration (or removes it), bumps the epoch and
    /// drops exactly the calibration-dependent entries. Returns their
    /// fingerprints.
    pub fn reload(&mut self, calibration: Option<Calibration>) -> Vec<u64> {
        let topology = self.context.topology().clone();
        self.context = Arc::new(HardwareContext::from_parts(topology, calibration));
        self.epoch += 1;
        self.stats.epoch_bumps += 1;
        let dropped = self.cache.invalidate_calibration_dependent();
        self.stats.invalidated += dropped.len() as u64;
        let event = JournalEvent::new(self.now, "calibration_reload").field("epoch", self.epoch);
        self.ops
            .journal
            .push(event.field("invalidated", dropped.len() as u64));
        let q = qtrace::global();
        q.add("qserve/epoch_bumps", 1);
        q.add("qserve/cache/invalidated", dropped.len() as u64);
        dropped
    }

    /// Lifts the quarantine of `spec_fp`; returns whether it was
    /// quarantined.
    pub fn release_quarantine(&mut self, spec_fp: u64) -> bool {
        let released = self.poison.release(spec_fp);
        if released {
            let event = JournalEvent::new(self.now, "quarantine_release").spec(spec_fp);
            self.ops.journal.push(event);
        }
        released
    }

    /// The counters with their snapshot fields filled in.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            epoch: self.epoch,
            cached_entries: self.cache.len(),
            queued: self.queued,
            quarantined_specs: self.poison.len() as u64,
            breakers_open: self.breakers.iter().filter(|b| b.is_open()).count() as u64,
            now_tick: self.now,
            ..self.stats
        }
    }

    /// Emits the sequence fingerprint, occupancy gauges and the ops
    /// metric registry; see [`crate::Service::flush_telemetry`].
    pub fn flush_telemetry(&self) {
        let fp = self.stats.sequence_fp;
        let q = qtrace::global();
        q.gauge_max("qserve/cache/sequence_fp", (fp >> 32) ^ (fp & 0xffff_ffff));
        q.gauge_max("qserve/cache/entries", self.cache.len() as u64);
        if self.poison.len() > 0 {
            q.gauge_max("qserve/quarantine/entries", self.poison.len() as u64);
        }
        self.ops.flush_metrics(q);
        for (idx, breaker) in self.breakers.iter().enumerate() {
            let code = breaker.state_code();
            if code > 0 {
                q.gauge_max(&format!("qserve/tenant/{idx}/breaker_state"), code);
            }
        }
        for (idx, bucket) in self.buckets.iter().flatten().enumerate() {
            let level = bucket.level(self.now);
            q.gauge_max(&format!("qserve/tenant/{idx}/bucket_level"), level);
        }
        let dropped = self.ops.lifecycle.dropped();
        if dropped > 0 {
            q.gauge_max("qserve/ops/lifecycle_dropped", dropped);
        }
    }

    /// Folds one admission outcome into the order-sensitive sequence
    /// fingerprint (FNV-style).
    fn note(&mut self, fp: u64, code: u8) {
        let fold = fp.rotate_left(u32::from(code) * 8) ^ u64::from(code);
        self.stats.sequence_fp = (self.stats.sequence_fp ^ fold).wrapping_mul(0x100_0000_01b3);
    }
}
