//! A sequential reference model of qserve admission, run in lockstep
//! with the real service.
//!
//! The model is written from the serving contracts of DESIGN.md
//! §5.8–§5.10, not from the implementation. It tracks key state and LRU
//! order, each tenant's breaker and token bucket, the poison ledger,
//! queue occupancy and the logical clock; the only service policy it
//! borrows is public: [`BackoffConfig::ttl`], [`CacheKey`] identity and
//! fingerprint, [`CompileOptions::ladder`] and the fault plane's
//! schedule.
//!
//! Each case drives a `workers: 0` service — `drain_one` fixes the
//! completion order — with a small cache and queue, a breaker, a bucket,
//! quarantine at two strikes and a seeded fault plane of worker panics
//! and virtual stalls, through generated submits (tenant, key, IC / VIC
//! / IP with and without fallback, optional deadline), drains, clock
//! advances, calibration reloads and quarantine releases. Submits
//! outnumber drains, so tenants queue several jobs and stragglers cross
//! breaker trips. After every op, every request the model says is
//! resolved must be resolved, with the predicted outcome and result
//! (errors verbatim, quarantine strike counts included), and the
//! counters must match. At the end every request has exactly one
//! lifecycle terminal, the predicted one, and no VIC hit ever served an
//! artifact compiled before the latest reload.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;
use qcompile::{CompileError, CompileOptions, CompiledArtifact, CphaseOp, QaoaSpec};
use qhw::fault::{ServiceFault, ServiceFaultPlane};
use qhw::{Calibration, Topology};
use qserve::{
    spec_fingerprint, BackoffConfig, BreakerConfig, BucketConfig, CacheKey, Outcome,
    QuarantineReason, Request, ServeError, Service, ServiceConfig, ServiceStats, Stage, Ticket,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TENANTS: usize = 2;
const SPECS: usize = 2;
const QUARANTINE: u32 = 2;
const FAILURE_THRESHOLD: u32 = 2;
const BACKOFF: BackoffConfig = BackoffConfig {
    base_ticks: 2,
    max_ticks: 16,
    seed: 7,
};
const STALL_TICKS: u64 = 4;

fn line_spec(shift: usize) -> QaoaSpec {
    let ops = (0..5)
        .map(|i| CphaseOp::new(i, i + 1, 0.4 + shift as f64 * 0.01))
        .collect();
    QaoaSpec::new(6, vec![(ops, 0.3)], true)
}

/// IC, VIC, IP; indices 3.. add the fallback ladder.
fn options(index: usize) -> CompileOptions {
    let mut options = [
        CompileOptions::ic(),
        CompileOptions::vic(),
        CompileOptions::ip(),
    ][index % 3];
    options.resilience.fallback = index >= 3;
    options
}

/// The per-case sizes: small, so queues fill, buckets run dry and
/// breakers cool down within a few dozen ops.
#[derive(Debug, Clone, Copy)]
struct Limits {
    cache: usize,
    queue: usize,
    cooldown: u64,
    bucket: BucketConfig,
}

impl Limits {
    fn new(
        (cache, queue, cooldown, (capacity, refill_ticks)): (usize, usize, u64, (u64, u64)),
    ) -> Self {
        let bucket = BucketConfig {
            capacity,
            refill_ticks,
        };
        Limits {
            cache,
            queue,
            cooldown,
            bucket,
        }
    }
}

fn calibration(topology: &Topology, seed: u64) -> Calibration {
    Calibration::random_normal(topology, 2e-2, 8e-3, &mut StdRng::seed_from_u64(seed))
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit {
        tenant: u32,
        spec: usize,
        options: usize,
        deadline: Option<u64>,
    },
    Drain,
    Advance(u64),
    Reload,
    Release(usize),
}

fn decode((selector, x): (u32, u32)) -> Op {
    match selector {
        0..=57 => Op::Submit {
            // Three submitted tenants over two queues: the modulo map is
            // exercised, and errors name the tenant as submitted.
            tenant: x % 3,
            spec: (x / 3) as usize % SPECS,
            options: (x / 9) as usize % 6,
            deadline: (x / 54 % 2 == 0).then(|| 1 + u64::from(x / 108 % 6)),
        },
        58..=77 => Op::Drain,
        78..=88 => Op::Advance(1 + u64::from(x % 8)),
        89..=93 => Op::Reload,
        _ => Op::Release(x as usize % SPECS),
    }
}

/// What the model says a request is served.
#[derive(Debug, Clone, PartialEq)]
enum Served {
    /// The artifact this job compiled.
    Artifact(usize),
    /// This error, verbatim.
    Error(ServeError),
    /// This job's contained worker panic.
    Panic(usize),
}

#[derive(Debug, Clone)]
enum Slot {
    Pending(usize),
    Ready(usize),
    Failed {
        served: Served,
        expires_at: u64,
        strikes: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    Closed(u32),
    Open(u64),
    HalfOpen,
}

struct Job {
    owner: usize,
    key: CacheKey,
    spec: usize,
    tenant: u32,
    deadline: Option<u64>,
    admit_tick: u64,
    fault: Option<ServiceFault>,
    strikes: u32,
    probe: bool,
    /// Requests handed this job's result: pending hits and sheds.
    waiters: Vec<usize>,
}

struct Req {
    outcome: Outcome,
    served: Option<Served>,
    terminal: Option<Stage>,
    epoch: u64,
    vic_hit: bool,
}

struct Model {
    limits: Limits,
    plane: Arc<ServiceFaultPlane>,
    topology_fp: u64,
    specs: Vec<QaoaSpec>,
    now: u64,
    epoch: u64,
    /// Cache entries, least recently used first.
    cache: Vec<(CacheKey, Slot)>,
    queues: [VecDeque<usize>; TENANTS],
    rr: usize,
    breakers: [Breaker; TENANTS],
    /// `(tokens, last refill tick)` per tenant.
    buckets: [(u64, u64); TENANTS],
    strikes: HashMap<usize, u32>,
    quarantined: HashMap<usize, QuarantineReason>,
    fault_seq: u64,
    jobs: Vec<Job>,
    reqs: Vec<Req>,
    stats: ServiceStats,
}

impl Model {
    fn new(limits: Limits, plane: Arc<ServiceFaultPlane>, topology: &Topology) -> Model {
        Model {
            limits,
            plane,
            topology_fp: topology.fingerprint(),
            specs: (0..SPECS).map(line_spec).collect(),
            now: 0,
            epoch: 0,
            cache: Vec::new(),
            queues: Default::default(),
            rr: 0,
            breakers: [Breaker::Closed(0); TENANTS],
            buckets: [(limits.bucket.capacity, 0); TENANTS],
            strikes: HashMap::new(),
            quarantined: HashMap::new(),
            fault_seq: 0,
            jobs: Vec::new(),
            reqs: Vec::new(),
            stats: ServiceStats::default(),
        }
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn touch(&mut self, index: usize) -> Slot {
        let entry = self.cache.remove(index);
        let slot = entry.1.clone();
        self.cache.push(entry);
        slot
    }

    /// Ends request `r` at admission (`served: None` waits on a job).
    fn finish(&mut self, r: usize, outcome: Outcome, stage: Stage, served: Option<Served>) {
        let req = &mut self.reqs[r];
        req.outcome = outcome;
        req.terminal = Some(stage);
        req.served = served;
    }

    /// Ends request `r` at admission with `error`.
    fn refuse(&mut self, r: usize, outcome: Outcome, stage: Stage, error: ServeError) {
        self.finish(r, outcome, stage, Some(Served::Error(error)));
    }

    fn return_probe(&mut self, tenant: usize, probe: bool) {
        if probe && self.breakers[tenant] == Breaker::HalfOpen {
            self.breakers[tenant] = Breaker::Open(self.now);
        }
    }

    fn take_token(&mut self, tenant: usize) -> bool {
        let BucketConfig {
            capacity,
            refill_ticks,
        } = self.limits.bucket;
        let (tokens, last) = &mut self.buckets[tenant];
        let earned = (self.now - *last) / refill_ticks;
        *tokens = (*tokens + earned).min(capacity);
        *last += earned * refill_ticks;
        let granted = *tokens > 0;
        *tokens -= u64::from(granted);
        granted
    }

    fn submit(&mut self, tenant: u32, spec: usize, options: CompileOptions, deadline: Option<u64>) {
        self.advance(1);
        let (now, t, r) = (self.now, tenant as usize % TENANTS, self.reqs.len());
        self.stats.requests += 1;
        let key = CacheKey::new(
            self.specs[spec].clone(),
            options,
            self.topology_fp,
            self.epoch,
        );
        self.reqs.push(Req {
            outcome: Outcome::Miss,
            served: None,
            terminal: None,
            epoch: self.epoch,
            vic_hit: false,
        });
        let mut strikes = 0;
        if let Some(i) = self.cache.iter().position(|(k, _)| *k == key) {
            match self.cache[i].1 {
                // A lapsed negative entry is reaped by the lookup; the
                // retry carries its strikes into the next backoff.
                Slot::Failed {
                    expires_at,
                    strikes: prior,
                    ..
                } if now > expires_at => {
                    self.cache.remove(i);
                    self.stats.negative_expired += 1;
                    strikes = prior;
                }
                _ => {
                    self.stats.hits += 1;
                    self.reqs[r].vic_hit = key.calibration_epoch.is_some();
                    match self.touch(i) {
                        Slot::Pending(j) => {
                            self.reqs[r].outcome = Outcome::Hit;
                            self.jobs[j].waiters.push(r);
                        }
                        Slot::Ready(j) => {
                            let served = Some(Served::Artifact(j));
                            self.finish(r, Outcome::Hit, Stage::Completed, served);
                        }
                        Slot::Failed { served, .. } => {
                            self.finish(r, Outcome::Hit, Stage::Failed, Some(served));
                        }
                    }
                    return;
                }
            }
        }

        // §5.9: quarantine, breaker, overload shed/reject, bucket.
        if let Some(&reason) = self.quarantined.get(&spec) {
            self.stats.quarantine_rejects += 1;
            let spec_fp = spec_fingerprint(&self.specs[spec]);
            let error = ServeError::Quarantined { spec_fp, reason };
            return self.refuse(r, Outcome::Quarantined, Stage::Quarantined, error);
        }
        let retry_in = match self.breakers[t] {
            Breaker::Closed(_) => None,
            Breaker::Open(until) if now >= until => {
                self.breakers[t] = Breaker::HalfOpen;
                None
            }
            Breaker::Open(until) => Some(until - now),
            Breaker::HalfOpen => Some(0),
        };
        let probe = self.breakers[t] == Breaker::HalfOpen;
        if let Some(retry_in) = retry_in {
            self.stats.breaker_rejects += 1;
            let error = ServeError::CircuitOpen { tenant, retry_in };
            return self.refuse(r, Outcome::BreakerOpen, Stage::CircuitOpen, error);
        }
        if self.queued() >= self.limits.queue {
            self.return_probe(t, probe);
            for (rungs, rung) in options.ladder().into_iter().enumerate().skip(1) {
                let alt =
                    CacheKey::new(self.specs[spec].clone(), rung, self.topology_fp, self.epoch);
                let servable = self
                    .cache
                    .iter()
                    .position(|(k, s)| *k == alt && !matches!(s, Slot::Failed { .. }));
                if let Some(i) = servable {
                    self.stats.shed += 1;
                    let outcome = Outcome::Shed { rungs: rungs as u8 };
                    match self.touch(i) {
                        Slot::Ready(j) => {
                            let served = Some(Served::Artifact(j));
                            self.finish(r, outcome, Stage::Shed, served);
                        }
                        Slot::Pending(j) => {
                            self.finish(r, outcome, Stage::Shed, None);
                            self.jobs[j].waiters.push(r);
                        }
                        Slot::Failed { .. } => unreachable!("filtered above"),
                    }
                    return;
                }
            }
            self.stats.rejected += 1;
            let error = ServeError::Overloaded {
                queued: self.queued(),
                capacity: self.limits.queue,
            };
            return self.refuse(r, Outcome::Rejected, Stage::Rejected, error);
        }
        if !self.take_token(t) {
            self.return_probe(t, probe);
            self.stats.throttled += 1;
            let error = ServeError::Throttled { tenant };
            return self.refuse(r, Outcome::Throttled, Stage::Throttled, error);
        }

        self.stats.misses += 1;
        while self.cache.len() >= self.limits.cache {
            self.cache.remove(0);
            self.stats.evictions += 1;
        }
        let j = self.jobs.len();
        self.cache.push((key.clone(), Slot::Pending(j)));
        self.jobs.push(Job {
            owner: r,
            key,
            spec,
            tenant,
            deadline: deadline.map(|d| now + d),
            admit_tick: now,
            fault: self.plane.fault_for(self.fault_seq),
            strikes,
            probe,
            waiters: Vec::new(),
        });
        self.fault_seq += 1;
        self.queues[t].push_back(j);
    }

    /// Hands job `j`'s result to its owner and every waiter on it.
    fn resolve(&mut self, j: usize, served: Served, stage: Stage) {
        let waiters = std::mem::take(&mut self.jobs[j].waiters);
        for r in std::iter::once(self.jobs[j].owner).chain(waiters) {
            let req = &mut self.reqs[r];
            req.served = Some(served.clone());
            req.terminal.get_or_insert(stage);
        }
    }

    /// Moves the clock; queued jobs past their deadline are reaped, and
    /// their reservations forgotten.
    fn advance(&mut self, ticks: u64) {
        self.now += ticks;
        let now = self.now;
        let mut expired = Vec::new();
        for queue in &mut self.queues {
            let jobs = &self.jobs;
            let (gone, kept) = queue
                .iter()
                .partition(|&&j| jobs[j].deadline.is_some_and(|d| now > d));
            *queue = VecDeque::from(kept);
            expired.extend::<Vec<usize>>(gone);
        }
        for j in expired {
            self.stats.deadline_reaped += 1;
            self.cache
                .retain(|(_, s)| !matches!(s, Slot::Pending(p) if *p == j));
            let (tenant, probe) = (self.jobs[j].tenant as usize % TENANTS, self.jobs[j].probe);
            self.return_probe(tenant, probe);
            let deadline = self.jobs[j].deadline.expect("only deadlines expire");
            let error = ServeError::DeadlineExceeded { deadline, now };
            self.resolve(j, Served::Error(error), Stage::Reaped);
        }
    }

    /// Round-robin dispatch of one queued job, compiled at once.
    fn drain(&mut self) -> bool {
        for offset in 0..TENANTS {
            let t = (self.rr + offset) % TENANTS;
            if let Some(j) = self.queues[t].pop_front() {
                self.rr = (t + 1) % TENANTS;
                self.complete(j);
                return true;
            }
        }
        false
    }

    fn complete(&mut self, j: usize) {
        let now = self.now;
        let job = &self.jobs[j];
        let (t, spec, probe) = (job.tenant as usize % TENANTS, job.spec, job.probe);
        let panicked = job.fault == Some(ServiceFault::WorkerPanic);
        // A stall cancels the compile iff it outlasts the deadline.
        let timeout = match (job.fault, job.deadline) {
            (Some(ServiceFault::SlowCompile { ticks }), Some(d)) if job.admit_tick + ticks > d => {
                Some(d)
            }
            _ => None,
        };
        let (served, stage) = match (panicked, timeout) {
            (true, _) => (Served::Panic(j), Stage::Failed),
            (false, Some(deadline)) => {
                let error = ServeError::DeadlineExceeded { deadline, now };
                (Served::Error(error), Stage::Cancelled)
            }
            (false, None) => (Served::Artifact(j), Stage::Completed),
        };
        let ok = stage == Stage::Completed;
        // The reservation may have been evicted or invalidated meanwhile.
        let live = self
            .cache
            .iter()
            .position(|(_, s)| matches!(s, Slot::Pending(p) if *p == j));
        if let Some(i) = live {
            self.cache[i].1 = if ok {
                Slot::Ready(j)
            } else {
                let strikes = job.strikes + 1;
                let expires_at = now + BACKOFF.ttl(job.key.fingerprint(), strikes);
                Slot::Failed {
                    served: served.clone(),
                    expires_at,
                    strikes,
                }
            };
        }
        if (panicked || timeout.is_some()) && !self.quarantined.contains_key(&spec) {
            let count = self.strikes.entry(spec).or_default();
            *count += 1;
            if *count >= QUARANTINE {
                let strikes = *count;
                let reason = if panicked {
                    QuarantineReason::Panicked { strikes }
                } else {
                    QuarantineReason::TimedOut { strikes }
                };
                self.quarantined.insert(spec, reason);
            }
        }
        let trip = (Breaker::Open(now + self.limits.cooldown), true);
        let (state, tripped) = match (self.breakers[t], ok) {
            (Breaker::Closed(_), true) => (Breaker::Closed(0), false),
            (Breaker::Closed(f), false) if f + 1 < FAILURE_THRESHOLD => {
                (Breaker::Closed(f + 1), false)
            }
            (Breaker::Closed(_), false) => trip,
            // Exactly the half-open probe decides; stragglers do not.
            (Breaker::HalfOpen, true) if probe => (Breaker::Closed(0), false),
            (Breaker::HalfOpen, false) if probe => trip,
            (state, _) => (state, false),
        };
        self.breakers[t] = state;
        self.stats.breaker_trips += u64::from(tripped);
        self.resolve(j, served, stage);
    }

    fn reload(&mut self) -> usize {
        self.epoch += 1;
        self.stats.epoch_bumps += 1;
        let before = self.cache.len();
        self.cache.retain(|(k, _)| k.calibration_epoch.is_none());
        let dropped = before - self.cache.len();
        self.stats.invalidated += dropped as u64;
        dropped
    }

    fn release(&mut self, spec: usize) -> bool {
        self.strikes.remove(&spec);
        self.quarantined.remove(&spec).is_some()
    }

    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            epoch: self.epoch,
            cached_entries: self.cache.len(),
            queued: self.queued(),
            quarantined_specs: self.quarantined.len() as u64,
            breakers_open: self
                .breakers
                .iter()
                .filter(|b| matches!(b, Breaker::Open(_)))
                .count() as u64,
            now_tick: self.now,
            ..self.stats
        }
    }
}

/// What one run exercised, for the non-vacuity check.
#[derive(Default)]
struct Coverage {
    outcomes: BTreeSet<String>,
    journal: BTreeSet<&'static str>,
}

fn outcome_kind(outcome: Outcome) -> String {
    let name = format!("{outcome:?}");
    name.split(' ').next().unwrap_or_default().to_string()
}

/// Runs `ops` (then drains) against a fresh service and the model,
/// comparing after every step.
fn run(seed: u64, limits: Limits, ops: &[Op]) -> Result<Coverage, String> {
    let topology = Topology::grid(2, 3);
    let calibrations = [calibration(&topology, 11), calibration(&topology, 99)];
    let plane = Arc::new(ServiceFaultPlane::plan(seed, 512, 0.3, 0.2, STALL_TICKS));
    let config = ServiceConfig {
        workers: 0,
        cache_capacity: limits.cache,
        queue_capacity: limits.queue,
        tenants: TENANTS,
        quarantine_threshold: QUARANTINE,
        backoff: BACKOFF,
        breaker: BreakerConfig {
            failure_threshold: FAILURE_THRESHOLD,
            cooldown_ticks: limits.cooldown,
        },
        bucket: Some(limits.bucket),
        fault_plane: Some(Arc::clone(&plane)),
        ..ServiceConfig::default()
    };
    let service = Service::new(topology.clone(), Some(calibrations[0].clone()), config);
    let mut model = Model::new(limits, plane, &topology);
    let mut tickets: Vec<Option<Ticket<'_>>> = Vec::new();
    let mut artifacts: Vec<Option<Arc<CompiledArtifact>>> = Vec::new();
    let mut coverage = Coverage::default();
    let tail = std::iter::repeat(Op::Drain).take(limits.queue + 1);
    for (step, op) in ops.iter().copied().chain(tail).enumerate() {
        let fail = |what: String| format!("seed {seed}, {limits:?}, step {step} ({op:?}): {what}");
        match op {
            Op::Submit {
                tenant,
                spec,
                options: o,
                deadline,
            } => {
                model.submit(tenant, spec, options(o), deadline);
                let mut request = Request::new(tenant, line_spec(spec), options(o), 5);
                request.deadline = deadline;
                let ticket = service.submit(request);
                let expected = model.reqs[tickets.len()].outcome;
                if ticket.outcome() != expected {
                    let got = ticket.outcome();
                    return Err(fail(format!("outcome {got:?}, model {expected:?}")));
                }
                coverage.outcomes.insert(outcome_kind(expected));
                tickets.push(Some(ticket));
            }
            Op::Drain => {
                let (got, expected) = (service.drain_one(), model.drain());
                if got != expected {
                    return Err(fail(format!("drained {got}, model {expected}")));
                }
            }
            Op::Advance(ticks) => {
                service.advance(ticks);
                model.advance(ticks);
            }
            Op::Reload => {
                let next = calibrations[(model.epoch as usize + 1) % 2].clone();
                let (got, expected) = (service.reload_calibration(Some(next)), model.reload());
                if got != expected {
                    return Err(fail(format!("invalidated {got}, model {expected}")));
                }
            }
            Op::Release(spec) => {
                let spec_fp = spec_fingerprint(&line_spec(spec));
                let (got, expected) = (service.release_quarantine(spec_fp), model.release(spec));
                if got != expected {
                    return Err(fail(format!("released {got}, model {expected}")));
                }
            }
        }
        artifacts.resize(model.jobs.len(), None);
        for (r, slot) in tickets.iter_mut().enumerate() {
            let Some(ticket) = slot else { continue };
            let expected = model.reqs[r].served.clone();
            if ticket.is_ready() != expected.is_some() {
                return Err(fail(format!(
                    "request {r} resolved: model says {expected:?}"
                )));
            }
            let Some(expected) = expected else { continue };
            let response = slot.take().expect("checked above").wait();
            check_response(&model, &mut artifacts, r, response.result, &expected)
                .map_err(|what| fail(format!("request {r}: {what}")))?;
        }
        let mut expected = model.snapshot();
        let actual = service.stats();
        expected.sequence_fp = actual.sequence_fp;
        if actual != expected {
            return Err(fail(format!("stats {actual:?}, model {expected:?}")));
        }
    }

    let traces = service.take_lifecycle();
    if traces.len() != model.reqs.len() {
        return Err(format!("seed {seed}: {} traces", traces.len()));
    }
    for (trace, req) in traces.iter().zip(&model.reqs) {
        if trace.terminal_count() != 1 || trace.terminal() != req.terminal {
            let want = req.terminal;
            return Err(format!("seed {seed}: {trace:?}, model terminal {want:?}"));
        }
    }
    coverage.journal = service.take_journal().iter().map(|e| e.code).collect();
    Ok(coverage)
}

/// Compares one resolved result with the model's prediction. The first
/// observation of a job's artifact records it; every later one must be
/// the same `Arc`. A VIC hit must come from a compile of its own epoch.
fn check_response(
    model: &Model,
    artifacts: &mut [Option<Arc<CompiledArtifact>>],
    r: usize,
    result: Result<Arc<CompiledArtifact>, ServeError>,
    expected: &Served,
) -> Result<(), String> {
    match (expected, result) {
        (Served::Artifact(j), Ok(artifact)) => {
            let known = artifacts[*j].get_or_insert_with(|| Arc::clone(&artifact));
            if !Arc::ptr_eq(known, &artifact) {
                return Err(format!("served another artifact than job {j}'s"));
            }
            if model.reqs[r].vic_hit {
                let epoch = model.reqs[r].epoch;
                let producer = artifacts
                    .iter()
                    .position(|a| a.as_ref().is_some_and(|a| Arc::ptr_eq(a, &artifact)))
                    .map(|p| model.jobs[p].key.calibration_epoch);
                if producer != Some(Some(epoch)) {
                    return Err(format!("VIC hit at epoch {epoch} served {producer:?}"));
                }
            }
            Ok(())
        }
        (Served::Error(want), Err(got)) if *want == got => Ok(()),
        (Served::Panic(j), Err(ServeError::Compile(CompileError::Internal(message)))) => {
            let job = &model.jobs[*j];
            let spec_fp = spec_fingerprint(&model.specs[job.spec]);
            let names_spec = message.contains(&format!("{spec_fp:#018x}"));
            if names_spec && message.contains(&format!("tenant {}", job.tenant)) {
                Ok(())
            } else {
                Err(format!("panic message {message:?} misattributed"))
            }
        }
        (expected, got) => Err(format!("got {got:?}, model {expected:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn service_matches_the_sequential_model(
        seed in 0u64..1_000_000,
        limits in (2usize..6, 1usize..5, 1u64..8, (1u64..4, 2u64..9)),
        ops in proptest::collection::vec((0u32..100, 0u32..1_000_000), 20..200),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(decode).collect();
        if let Err(mismatch) = run(seed, Limits::new(limits), &ops) {
            prop_assert!(false, "{}", mismatch);
        }
    }
}

/// The model test is only as good as what it exercises: over a fixed
/// set of seeded streams, every outcome occurs, and so do the probe
/// return and the quarantine release.
#[test]
fn model_runs_cover_every_outcome_and_the_rare_journal_codes() {
    let mut outcomes = BTreeSet::new();
    let mut journal = BTreeSet::new();
    for seed in 1..=6u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ops: Vec<Op> = (0..200)
            .map(|_| decode(((next() % 100) as u32, (next() % 1_000_000) as u32)))
            .collect();
        let limits = Limits::new((4, 3, 4, (2, 5)));
        let coverage = run(seed, limits, &ops).unwrap_or_else(|mismatch| panic!("{mismatch}"));
        outcomes.extend(coverage.outcomes);
        journal.extend(coverage.journal);
    }
    let all = [
        "Hit",
        "Miss",
        "Shed",
        "Rejected",
        "Quarantined",
        "BreakerOpen",
        "Throttled",
    ];
    for kind in all {
        assert!(outcomes.contains(kind), "no {kind} outcome in {outcomes:?}");
    }
    for code in ["breaker_probe_abort", "quarantine_release"] {
        assert!(journal.contains(code), "no {code} event in {journal:?}");
    }
}
