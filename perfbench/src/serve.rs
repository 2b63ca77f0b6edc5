//! `serve_zipf`: open-loop traffic into a `qserve::Service` with one
//! worker. One submitter thread sends requests on a fixed schedule; keys
//! follow 80/20 popularity over a tokyo key universe larger than the
//! cache, and a calibration reload fires every [`RELOAD_EVERY`]
//! requests. Latency runs from each request's due time, so a stall is
//! charged to every request it delays.
//!
//! A run alternates two kinds of pass: reference slices at
//! [`REFERENCE_RATE`] (`p50_us`, `p99_us`) and attempts on a ladder of
//! offered rates, which find the highest rate that meets
//! [`LATENCY_LIMIT_US`] (`ops_per_s`, the service's capacity).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bench::workloads::Family;
use qaoa::{MaxCut, QaoaParams};
use qcompile::{CompiledArtifact, QaoaSpec};
use qgraph::Graph;
use qhw::{Calibration, Topology};
use qserve::{Outcome, Request, Service, ServiceConfig, ServiceStats, Ticket};
use qsim::SimOptions;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::check::{compiled_expectation, recover_spec};
use crate::corpus::CONFIGS;
use crate::report::{Checks, Report};
use crate::spans::Tracer;
use crate::stats::{block_p99, mean, quantile, sorted, tail, Sample, BLOCK_SECS, QUIET_SHARE};
use crate::{mix, typical_instances, Setups, CALIBRATION_SEED, LEVELS};

/// Compile workers of the service.
pub const WORKERS: usize = 1;

/// Threads the workload runs: the submitter plus the workers.
pub const THREADS: usize = 1 + WORKERS;

/// The p99 limit a pass must meet for its rate to count as sustained,
/// microseconds.
pub const LATENCY_LIMIT_US: f64 = 5000.0;

/// Offered rate of the reference slices, and of the capacity ladder's
/// lowest rung, requests per second.
pub const REFERENCE_RATE: f64 = 20_000.0;

/// Requests between calibration reloads (0.25 s at the reference rate).
/// Counting requests rather than seconds keeps the share of misses the
/// same at every rate, so every pass offers the same request mix.
pub const RELOAD_EVERY: usize = 5_000;

/// Tenant queues requests are spread over.
const TENANTS: usize = 4;

/// Length of one reference slice: two whole [`BLOCK_SECS`] blocks.
const REFERENCE_SLICE_SECS: f64 = 2.0 * BLOCK_SECS;

/// Length of one capacity attempt.
const ATTEMPT_SECS: f64 = BLOCK_SECS;

/// Ratio of neighbouring rates on the capacity ladder.
const RUNG_RATIO: f64 = 1.04;

/// Rungs the ladder climbs after its first attempt.
const FIRST_STEP: usize = 8;

/// A scheduled pass stops early once a request is this late: far past
/// the latency limit, the pass has failed.
const ABANDON_LATE: Duration = Duration::from_millis(20);

/// One cacheable compile product.
#[derive(Debug, Clone)]
pub struct Key {
    /// The parametric program.
    pub spec: QaoaSpec,
    /// Index into [`CONFIGS`].
    pub config: usize,
    /// `qserve::spec_fingerprint(&spec)`.
    pub spec_fp: u64,
    /// Index of the problem graph.
    pub graph: usize,
    /// QAOA levels.
    pub p: usize,
}

/// The generated key universe and calibrations.
pub struct Universe {
    /// Every key, in a fixed shuffled order: the first fifth is the hot
    /// set, mixing keys of many graphs, levels and configurations.
    pub keys: Vec<Key>,
    /// Problem graphs.
    pub graphs: Vec<Graph>,
    /// The calibration the service starts with.
    pub calibration: Calibration,
    /// The two calibrations reloads alternate between.
    pub reloads: [Calibration; 2],
}

/// Seed of the fixed key universe.
pub const SUITE_SEED: u64 = 0x5E4E;

/// Graphs per family of the benchmark's key universe: 96 keys.
pub const INSTANCES_PER_FAMILY: usize = 6;

/// Generates the key universe from `instances_per_family` ER(0.3) and
/// 3-regular 20-node graphs × p ∈ {1, 2} × the four configurations. It
/// is fixed (drawn from [`SUITE_SEED`]), like the device; the run seed
/// drives the request stream.
pub fn universe(instances_per_family: usize) -> Universe {
    let topo = Topology::ibmq_20_tokyo();
    let mut cal_rng = StdRng::seed_from_u64(CALIBRATION_SEED);
    let calibration = Calibration::random_normal(&topo, 1e-2, 0.5e-2, &mut cal_rng);
    let reloads = [
        calibration.drifted(0.5, &mut cal_rng),
        calibration.drifted(0.5, &mut cal_rng),
    ];
    let mut graphs = Vec::new();
    let mut keys = Vec::new();
    for family in [Family::ErdosRenyi(0.3), Family::Regular(3)] {
        for graph in typical_instances(family, 20, instances_per_family, SUITE_SEED) {
            let problem = MaxCut::without_optimum(graph.clone());
            for p in 1..=LEVELS {
                let qaoa = QaoaSpec::from_maxcut_parametric(&problem, p, true);
                let spec_fp = qserve::spec_fingerprint(&qaoa);
                for config in 0..CONFIGS.len() {
                    keys.push(Key {
                        spec: qaoa.clone(),
                        config,
                        spec_fp,
                        graph: graphs.len(),
                        p,
                    });
                }
            }
            graphs.push(graph);
        }
    }
    // Shuffle so the hot fifth mixes keys of many graphs, levels and
    // configurations instead of the first graph's.
    keys.shuffle(&mut StdRng::seed_from_u64(SUITE_SEED));
    Universe {
        keys,
        graphs,
        calibration,
        reloads,
    }
}

/// Cache entries: an eighth fewer than the key universe, so the cold
/// tail evicts.
pub fn cache_capacity(u: &Universe) -> usize {
    (u.keys.len() - u.keys.len() / 8).max(1)
}

/// A request for `key`; its compile seed is the key's own, so every
/// compile of a key produces the same artifact.
fn request(u: &Universe, key: usize, tenant: u32) -> Request {
    let k = &u.keys[key];
    Request::new(
        tenant,
        k.spec.clone(),
        (CONFIGS[k.config].1)(),
        mix(SUITE_SEED, key as u64),
    )
}

/// Starts the service and warms every key; returns the warm-up
/// artifacts in key order.
pub fn start_service(u: &Universe) -> (Service, Vec<Option<Arc<CompiledArtifact>>>) {
    let service = Service::new(
        Topology::ibmq_20_tokyo(),
        Some(u.calibration.clone()),
        ServiceConfig {
            workers: WORKERS,
            cache_capacity: cache_capacity(u),
            queue_capacity: 4096,
            tenants: TENANTS,
            ..ServiceConfig::default()
        },
    );
    let warm = (0..u.keys.len())
        .map(|k| {
            let tenant = (k % TENANTS) as u32;
            service.warm(request(u, k, tenant)).result.ok()
        })
        .collect();
    (service, warm)
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seconds of schedule the pass covered.
    pub seconds: f64,
    /// Requests sent.
    pub sent: u64,
    /// Latency from due time to resolution per request, stamped with its
    /// due time (seconds into the pass).
    pub latencies: Vec<Sample>,
    /// How late the generator issued each request, microseconds.
    pub late: Vec<f64>,
    /// Requests refused (shed, rejected, throttled, quarantined, breaker).
    pub refused: u64,
    /// Requests whose result was an error.
    pub errors: u64,
    /// Misses: latency minus the artifact's compile time, microseconds.
    pub queue_wait: Vec<f64>,
    /// Misses: the artifact's compile time, microseconds.
    pub miss_compile: Vec<f64>,
    /// Largest number of unresolved requests.
    pub backlog_max: usize,
    /// Whether unresolved requests piled up over the pass.
    pub backlog_growing: bool,
    /// Whether the generator's own work could not keep the schedule.
    pub generator_behind: bool,
    /// Whether the pass stopped early because it fell hopelessly behind.
    pub abandoned: bool,
    /// Completed requests per second of pass wall time.
    pub completed_rate: f64,
    /// Service counters over the pass.
    pub stats: ServiceStats,
}

impl Pass {
    /// Latencies from the pass's quietest blocks (see
    /// [`crate::stats::quiet_blocks`]).
    pub fn quiet(&self) -> Vec<f64> {
        sorted(crate::stats::quiet_blocks(&self.latencies, mean))
    }

    /// The reported tail latency over the whole pass, microseconds.
    pub fn p99(&self) -> f64 {
        tail(&sorted(self.latencies.iter().map(|s| s.us).collect())).value
    }

    /// Whether the pass met the latency limit over all its requests, with
    /// no refusals, errors or growing backlog, on a schedule the
    /// generator kept.
    pub fn passes(&self) -> bool {
        !self.generator_behind
            && !self.abandoned
            && !self.backlog_growing
            && self.refused == 0
            && self.errors == 0
            && self.p99() <= LATENCY_LIMIT_US
    }
}

/// The latencies in the quietest blocks over all of `passes`, ranked
/// together by `rank`, so a pass the host slowed throughout contributes
/// nothing.
pub fn pooled_quiet(passes: &[Pass], rank: fn(&[f64]) -> f64) -> Vec<f64> {
    let samples: Vec<Sample> = passes
        .iter()
        .enumerate()
        .flat_map(|(k, p)| {
            // Shift each pass to its own range of blocks.
            let offset = k as f64 * (p.seconds + 1.0).ceil() * 1e3;
            p.latencies.iter().map(move |s| Sample {
                at: s.at + offset,
                ..*s
            })
        })
        .collect();
    sorted(crate::stats::quiet_blocks(&samples, rank))
}

/// Verdicts on served artifacts. Each artifact is checked once, when it
/// is first served: it must satisfy tokyo's coupling and implement the
/// request's spec (`qserve::spec_fingerprint` of the program rebuilt from
/// the circuit equals the request's). A weak reference pins each checked
/// allocation so its address cannot be reused by a later artifact while
/// its verdict is kept; verdicts on artifacts nobody holds any more are
/// forgotten, so memory stays bounded however many compiles a run makes.
pub struct Verifier {
    topology: Topology,
    seen: HashMap<usize, (Weak<CompiledArtifact>, bool, Option<u64>)>,
    /// Check results.
    pub checks: Checks,
}

impl Verifier {
    /// A verifier for tokyo artifacts.
    pub fn new() -> Verifier {
        Verifier {
            topology: Topology::ibmq_20_tokyo(),
            seen: HashMap::new(),
            checks: Checks::default(),
        }
    }

    /// Checks `artifact` served for `key`.
    pub fn verify(&mut self, u: &Universe, artifact: &Arc<CompiledArtifact>, key: usize) {
        if self.seen.len() >= 4 * u.keys.len() {
            self.seen.retain(|_, (held, _, _)| held.strong_count() > 0);
        }
        let k = &u.keys[key];
        let topology = &self.topology;
        let &mut (_, coupled, fp) = self
            .seen
            .entry(Arc::as_ptr(artifact) as usize)
            .or_insert_with(|| {
                let t = artifact.template();
                let fp = recover_spec(t, k.spec.num_qubits())
                    .ok()
                    .map(|s| qserve::spec_fingerprint(&s));
                (
                    Arc::downgrade(artifact),
                    qroute::satisfies_coupling(t.physical(), topology),
                    fp,
                )
            });
        self.checks.check(coupled && fp == Some(k.spec_fp), || {
            format!("key {key}: served artifact fails coupling or does not implement the request's spec")
        });
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

/// One sent request.
#[derive(Clone, Copy)]
struct Sent {
    /// Due time, seconds into the pass.
    at: f64,
    due: Instant,
    submitted: Instant,
    key: usize,
}

struct Pending<'a> {
    sent: Sent,
    ticket: Ticket<'a>,
}

fn settle(
    pass: &mut Pass,
    verifier: &mut Verifier,
    u: &Universe,
    sent: Sent,
    response: qserve::Response,
) {
    let Sent {
        at,
        due,
        submitted,
        key,
    } = sent;
    let latency = submitted.saturating_duration_since(due) + response.latency;
    pass.latencies.push(Sample {
        at,
        class: 0,
        us: latency.as_secs_f64() * 1e6,
    });
    if !matches!(response.outcome, Outcome::Hit | Outcome::Miss) {
        pass.refused += 1;
    }
    match response.result {
        Ok(artifact) => {
            if response.outcome == Outcome::Miss {
                let compile_us = artifact.template().elapsed().as_secs_f64() * 1e6;
                pass.miss_compile.push(compile_us);
                pass.queue_wait
                    .push((response.latency.as_secs_f64() * 1e6 - compile_us).max(0.0));
            }
            verifier.verify(u, &artifact, key);
        }
        Err(_) => pass.errors += 1,
    }
}

/// The traffic state that persists across passes.
pub struct Traffic<'a> {
    /// The service under load.
    pub service: &'a Service,
    /// Its key universe.
    pub universe: &'a Universe,
    /// Key and tenant choices.
    pub rng: StdRng,
    /// Requests sent so far, over every pass.
    pub sent: usize,
    /// Calibration reloads so far.
    pub reloads: usize,
    /// Served-artifact checks.
    pub verifier: Verifier,
}

impl Traffic<'_> {
    /// Sends one pass of traffic for `seconds`, requests due at `rate`
    /// per second; spans around each `Service::submit` go to `tracer`
    /// when given.
    ///
    /// Every [`RELOAD_EVERY`] requests the submitter reloads the
    /// calibration and drains the service's lifecycle log, as an operator
    /// would, so ops capture records every request instead of hitting its
    /// capacity bound. Both count as the submitter's work.
    pub fn pass(&mut self, rate: f64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Pass {
        let (service, u) = (self.service, self.universe);
        let n = ((rate * seconds).round() as usize).max(1);
        let gap = Duration::from_secs_f64(1.0 / rate);
        let hot = (u.keys.len() / 5).max(1);
        let before = service.stats();
        // Reserved up front so that growing them never copies mid-pass.
        let mut pass = Pass {
            seconds,
            latencies: Vec::with_capacity(n),
            late: Vec::with_capacity(n),
            ..Pass::default()
        };
        let mut pending: Vec<Pending<'_>> = Vec::new();
        let mut backlog_at = Vec::with_capacity(n);
        let mut own_work = Duration::ZERO;
        let start = Instant::now() + Duration::from_millis(1);
        let mut due = start;
        let mut i = 0;
        while i < n {
            // Build the request before its due time, so latency measures
            // the service rather than request construction.
            let work = Instant::now();
            let key = if self.rng.gen_bool(0.8) {
                self.rng.gen_range(0..hot)
            } else {
                self.rng.gen_range(0..u.keys.len())
            };
            let tenant = self.rng.gen_range(0..TENANTS as u32);
            let req = request(u, key, tenant);
            own_work += work.elapsed();
            // Wait for the due time, settling completed misses meanwhile.
            let now = loop {
                let mut j = 0;
                while j < pending.len() {
                    if pending[j].ticket.is_ready() {
                        let p = pending.swap_remove(j);
                        let response = p.ticket.wait();
                        settle(&mut pass, &mut self.verifier, u, p.sent, response);
                    } else {
                        j += 1;
                    }
                }
                let now = Instant::now();
                if now >= due {
                    break now;
                }
                std::hint::spin_loop();
            };
            if now - due > ABANDON_LATE {
                pass.abandoned = true;
                break;
            }
            pass.late.push(now.duration_since(due).as_secs_f64() * 1e6);
            self.sent += 1;
            if self.sent % RELOAD_EVERY == 0 {
                self.reloads += 1;
                service.reload_calibration(Some(u.reloads[self.reloads % 2].clone()));
                drop(service.take_lifecycle());
            }
            let submitted = Instant::now();
            let ticket = match tracer.as_deref_mut() {
                Some(t) => {
                    let span = t.enter("admit", i as u64);
                    let ticket = service.submit(req);
                    t.exit(span);
                    ticket
                }
                None => service.submit(req),
            };
            let work = Instant::now();
            let sent = Sent {
                at: (due - start).as_secs_f64(),
                due,
                submitted,
                key,
            };
            if ticket.is_ready() {
                settle(&mut pass, &mut self.verifier, u, sent, ticket.wait());
            } else {
                pending.push(Pending { sent, ticket });
            }
            backlog_at.push(pending.len());
            pass.backlog_max = pass.backlog_max.max(pending.len());
            own_work += work.elapsed();
            due += gap;
            i += 1;
        }
        for p in pending.drain(..) {
            let response = p.ticket.wait();
            settle(&mut pass, &mut self.verifier, u, p.sent, response);
        }
        pass.sent = i as u64;
        let wall = start.elapsed().as_secs_f64();
        pass.completed_rate = pass.latencies.len() as f64 / wall;
        // A service that keeps up drains its backlog between misses; one
        // that never got back below a handful of unresolved requests in
        // the last quarter of the pass is falling behind. (A host stall
        // piles requests up too, but they drain once it ends.)
        let quarter = (i / 4).max(1);
        pass.backlog_growing = backlog_at[i.saturating_sub(quarter)..]
            .iter()
            .min()
            .is_some_and(|&m| m > 8);
        // The generator is behind when its own per-request work (key
        // choice, request building, settling, checks) takes over half the
        // send interval: the pass then measures the generator, not the
        // service, and is invalid.
        pass.generator_behind = own_work.as_secs_f64() / i.max(1) as f64 > 0.5 * gap.as_secs_f64();
        let after = service.stats();
        pass.stats = ServiceStats {
            requests: after.requests - before.requests,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            shed: after.shed - before.shed,
            rejected: after.rejected - before.rejected,
            invalidated: after.invalidated - before.invalidated,
            epoch_bumps: after.epoch_bumps - before.epoch_bumps,
            ..after
        };
        pass
    }
}

/// Attempts at one rung of the capacity ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Attempts that met every condition of [`Pass::passes`].
    pub passed: usize,
    /// Attempts that missed the latency limit, refused or failed a
    /// request, or backed up.
    pub over_limit: usize,
    /// Attempts on which the generator fell behind: invalid, not failed.
    pub invalid: usize,
    /// Lowest whole-pass tail latency over the attempts, microseconds.
    pub best_p99: f64,
}

/// The capacity ladder. Rung `k` offers [`REFERENCE_RATE`] ×
/// [`RUNG_RATIO`]^k. Each attempt offers the rung `step` above the
/// highest rung passed so far; a pass raises that rung and doubles the
/// step, anything else halves it (to at least one). So the ladder first
/// gallops up to capacity, then keeps retrying the rung just above it.
/// Attempts alternate with the reference slices over the whole run, so
/// the host's quiet moments decide the result whenever they come, as in
/// a best-of-N timing: host contention only ever slows the service down.
pub struct Ladder {
    /// Highest rung passed, with the completion rate of its passing
    /// attempt.
    pub best: Option<(usize, f64)>,
    step: usize,
    /// Attempts by rung.
    pub rungs: BTreeMap<usize, Rung>,
}

impl Ladder {
    /// A ladder nothing has been attempted on.
    pub fn new() -> Ladder {
        Ladder {
            best: None,
            step: FIRST_STEP,
            rungs: BTreeMap::new(),
        }
    }

    /// Offered rate of rung `k`, requests per second.
    pub fn rate(k: usize) -> f64 {
        REFERENCE_RATE * RUNG_RATIO.powi(k as i32)
    }

    /// Runs one attempt of [`ATTEMPT_SECS`].
    pub fn attempt(&mut self, traffic: &mut Traffic<'_>) {
        let k = self.best.map_or(0, |(b, _)| b + self.step);
        // Summarized and dropped at once, so memory does not grow with
        // the attempts.
        let pass = traffic.pass(Self::rate(k), ATTEMPT_SECS, None);
        let rung = self.rungs.entry(k).or_insert(Rung {
            passed: 0,
            over_limit: 0,
            invalid: 0,
            best_p99: f64::INFINITY,
        });
        rung.best_p99 = rung.best_p99.min(pass.p99());
        if pass.passes() {
            rung.passed += 1;
            self.best = Some((k, pass.completed_rate));
            self.step *= 2;
        } else {
            if pass.generator_behind {
                rung.invalid += 1;
            } else {
                rung.over_limit += 1;
            }
            self.step = (self.step / 2).max(1);
        }
    }

    /// The completion rate at the highest rung passed, or 0.
    pub fn capacity(&self) -> f64 {
        self.best.map_or(0.0, |(_, rate)| rate)
    }

    /// One line per rung attempted, then the rung that bounded the result.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (&k, r) in &self.rungs {
            out += &format!(
                "  rung {k:>3} {:>9.0} req/s: passed {}, over limit {}, generator behind {}; best p99 {:.0} us\n",
                Self::rate(k),
                r.passed,
                r.over_limit,
                r.invalid,
                r.best_p99
            );
        }
        match self.best {
            Some((k, done)) => {
                let above = self.rungs.get(&(k + 1)).map_or(0, |r| r.over_limit + r.invalid);
                out += &format!(
                    "capacity: rung {k} ({:.0} req/s offered, {done:.0} req/s completed) is the highest passed; \
                     rung {} ({:.0} req/s) failed all {above} attempts",
                    Self::rate(k),
                    k + 1,
                    Self::rate(k + 1)
                );
            }
            None => out += "capacity: no rung passed",
        }
        out
    }
}

impl Default for Ladder {
    fn default() -> Self {
        Ladder::new()
    }
}

/// `⟨C⟩ / optimum` of the served p=1 artifacts bound at the closed-form
/// optimum, each checked against the closed form.
fn approx_ratio(u: &Universe, warm: &[Option<Arc<CompiledArtifact>>], checks: &mut Checks) -> f64 {
    let sim = SimOptions::serial().with_threads(THREADS);
    let mut ratios = Vec::new();
    for (gi, graph) in u.graphs.iter().enumerate() {
        let config = gi % CONFIGS.len();
        let Some(k) = u
            .keys
            .iter()
            .position(|k| k.graph == gi && k.p == 1 && k.config == config)
        else {
            continue;
        };
        let Some(artifact) = &warm[k] else { continue };
        let problem = MaxCut::new(graph.clone());
        let ((gamma, beta), closed) = qaoa::analytic::grid_search_p1(&problem, 24);
        match artifact.bind(&QaoaParams::p1(gamma, beta).to_values()) {
            Ok(bound) => {
                let e = compiled_expectation(&bound, &problem, &sim);
                checks.check((e - closed).abs() < 1e-9, || {
                    format!("key {k}: served <C> {e} differs from the closed form {closed}")
                });
                ratios.push(e / problem.max_value());
            }
            Err(e) => checks.check(false, || format!("key {k}: bind failed: {e}")),
        }
    }
    mean(&ratios)
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report, tracer: &mut Tracer) {
    let process_start = Instant::now();
    let mut setups = Setups::new(seconds);
    // A re-timed set-up builds and warms a second service and drops it at
    // once; warm-up compiles inline on the calling thread, so its worker
    // never runs.
    let set_up = || {
        let u = universe(INSTANCES_PER_FAMILY);
        let (service, warm) = start_service(&u);
        (u, service, warm)
    };
    let (u, service, warm) = setups.time(set_up);
    println!(
        "serve_zipf: {} keys, cache {} entries, {WORKERS} worker, first op at {:.3} s",
        u.keys.len(),
        cache_capacity(&u),
        process_start.elapsed().as_secs_f64()
    );
    let mut traffic = Traffic {
        service: &service,
        universe: &u,
        rng: StdRng::seed_from_u64(mix(seed, 0x21F)),
        sent: 0,
        reloads: 0,
        verifier: Verifier::new(),
    };
    traffic
        .verifier
        .checks
        .check(warm.iter().all(Option::is_some), || {
            "warm-up compile failed".to_owned()
        });
    for (k, artifact) in warm.iter().enumerate() {
        if let Some(a) = artifact {
            traffic.verifier.verify(&u, a, k);
        }
    }

    if trace {
        // A third untraced at the reference rate for the overhead
        // comparison, then the rest traced at the same rate.
        let third = seconds / 3.0;
        let untraced = traffic.pass(REFERENCE_RATE, third, None);
        let traced = traffic.pass(REFERENCE_RATE, seconds - third, Some(&mut *tracer));
        traced_metrics(report, &untraced, &traced, tracer);
        let checks = std::mem::take(&mut traffic.verifier.checks);
        finish(report, &traffic, &[traced], checks);
        return;
    }

    // Reference slices alternate with capacity attempts (and the set-up
    // re-timings) until the run's time is used, so that each samples the
    // host's load over the whole run. The first pass after start-up runs
    // measurably slower (cold caches, allocator growth); a short warm-up
    // pass absorbs that.
    let run_start = Instant::now();
    traffic.pass(REFERENCE_RATE, BLOCK_SECS, None);
    let mut reference: Vec<Pass> = Vec::new();
    let mut ladder = Ladder::new();
    let round_secs = REFERENCE_SLICE_SECS + ATTEMPT_SECS;
    while reference.is_empty() || run_start.elapsed().as_secs_f64() + round_secs <= seconds {
        reference.push(traffic.pass(REFERENCE_RATE, REFERENCE_SLICE_SECS, None));
        ladder.attempt(&mut traffic);
        if setups.due() {
            setups.time(set_up);
        }
    }
    setups.finish(set_up);
    println!("serve_zipf: {}", setups.describe());
    println!("{}", ladder.describe());
    println!(
        "serve_zipf: {} reference slices and {} capacity attempts in {:.1} s; {} calibration reloads",
        reference.len(),
        ladder.rungs.values().map(|r| r.passed + r.over_limit + r.invalid).sum::<usize>(),
        run_start.elapsed().as_secs_f64(),
        traffic.reloads
    );

    // Blocks ranked by mean latency for the median, by their own tail for
    // the tail.
    let pooled = pooled_quiet(&reference, mean);
    let tail_pool = pooled_quiet(&reference, block_p99);
    let t = tail(&tail_pool);
    let per_slice = |f: &dyn Fn(&Pass) -> f64| {
        reference
            .iter()
            .map(|r| format!("{:.1}", f(r)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "p50_us and p99_us pool the quietest {:.0}% of {BLOCK_SECS} s blocks over the slices, by mean and by p99: \
         p50 is the median of {} and p99 the {}th percentile of {} ({} beyond it) of {} requests",
        QUIET_SHARE * 100.0,
        pooled.len(),
        t.percentile,
        tail_pool.len(),
        t.beyond,
        reference.iter().map(|r| r.latencies.len()).sum::<usize>()
    );
    println!(
        "  per-slice p50 us: {}",
        per_slice(&|r| quantile(&r.quiet(), 0.5))
    );
    println!(
        "  per-slice median miss compile us: {}",
        per_slice(&|r| crate::stats::median(&r.miss_compile))
    );
    report.metric("setup_s", setups.best(), "s");
    report.metric("ops_per_s", ladder.capacity(), "1/s");
    report.metric("p50_us", quantile(&pooled, 0.5), "us");
    report.metric("p99_us", t.value, "us");
    let templates: Vec<_> = warm.iter().flatten().map(|a| a.template()).collect();
    report.metric(
        "depth_sum",
        templates.iter().map(|t| t.depth() as f64).sum(),
        "count",
    );
    report.metric(
        "cx_sum",
        templates.iter().map(|t| t.cx_count() as f64).sum(),
        "count",
    );
    let log_esp: Vec<f64> = templates
        .iter()
        .map(|t| t.success_probability(&u.calibration).ln())
        .collect();
    report.metric("esp_geomean", mean(&log_esp).exp(), "prob");
    let mut checks = std::mem::take(&mut traffic.verifier.checks);
    report.metric("approx_ratio", approx_ratio(&u, &warm, &mut checks), "ratio");
    let sent: u64 = reference.iter().map(|r| r.sent).sum();
    let bad = failures(&reference, &checks);
    report.metric("ok_ratio", 1.0 - bad as f64 / sent.max(1) as f64, "ratio");
    finish(report, &traffic, &reference, checks);
}

/// Refused and failed requests of `passes`, plus failed checks. Refusals
/// on the capacity ladder are the service's expected behaviour above its
/// capacity, so only the passes at the reference rate count.
fn failures(passes: &[Pass], checks: &Checks) -> u64 {
    passes.iter().map(|r| r.refused + r.errors).sum::<u64>() + checks.failed
}

/// Counts every request sent into `attempted` and the [`failures`] of
/// the reference-rate `passes` into `failed`, and merges the checks.
fn finish(report: &mut Report, traffic: &Traffic<'_>, passes: &[Pass], checks: Checks) {
    report.attempted = traffic.sent as u64;
    report.failed = failures(passes, &checks);
    report.checks.merge(checks);
}

/// The per-layer metrics of a traced run.
fn traced_metrics(report: &mut Report, untraced: &Pass, traced: &Pass, tracer: &Tracer) {
    let totals = tracer.totals();
    let admit = totals.get("admit").copied().unwrap_or_default();
    report.metric("admit.self_us", admit.self_us_mean(), "us");
    let stats = &traced.stats;
    report.metric(
        "cache.hit_ratio",
        stats.hits as f64 / stats.requests.max(1) as f64,
        "ratio",
    );
    report.metric("cache.evictions", stats.evictions as f64, "count");
    report.metric("cache.invalidated", stats.invalidated as f64, "count");
    report.metric("serve.shed", stats.shed as f64, "count");
    report.metric("serve.rejected", stats.rejected as f64, "count");
    report.metric("backlog.max", traced.backlog_max as f64, "count");
    report.metric("queue.wait_us", crate::stats::median(&traced.queue_wait), "us");
    report.metric("compile.miss_us", crate::stats::median(&traced.miss_compile), "us");
    report.metric(
        "gen.late_us",
        quantile(&sorted(traced.late.clone()), 0.99),
        "us",
    );
    let p50 = |p: &Pass| quantile(&p.quiet(), 0.5);
    crate::print_overhead(report, p50(untraced), p50(traced), "request");
}
