//! `compile_corpus`: back-to-back `try_compile_artifact_with_context`
//! calls over the Figure 9 set on ibmq_20_tokyo, with a heavy-hex slice.
//!
//! The traced run replays every job from outside through the public pass
//! API — mapping pass, then the ordering pass and `qroute::try_route` or
//! `ic::try_compile_incremental_with`, then basis lowering — and asserts
//! that the replay is instruction-identical to the pipeline's output, so
//! the per-layer numbers describe the program that was measured.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::workloads::{Family, ER_PROBABILITIES, REGULAR_DEGREES};
use qaoa::{MaxCut, QaoaParams};
use qcircuit::basis::{to_basis, BasisSet};
use qcircuit::Circuit;
use qcompile::passes::{CompileContext, RoutingStage};
use qcompile::{
    ic, ip, try_compile_artifact_with_context, Compilation, CompileOptions, CompiledArtifact,
    CphaseOp, QaoaSpec,
};
use qgraph::Graph;
use qhw::{Calibration, HardwareContext, Topology};
use qroute::{try_route, Layout, RoutingMetric};
use qsim::SimOptions;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::check::{compiled_expectation, recover_spec};
use crate::report::{Checks, Report};
use crate::spans::Tracer;
use crate::stats::Sample;
use crate::{closed_loop_metrics, mix, typical_instances, Setups, CALIBRATION_SEED, LEVELS};

/// Compile jobs run on one thread.
pub const THREADS: usize = 1;

/// The two targets of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Device {
    /// ibmq_20_tokyo (20 qubits), the Figure 9 device.
    Tokyo,
    /// `Topology::heavy_hex(6, 7)` (129 qubits).
    HeavyHex,
}

impl Device {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Device::Tokyo => "tokyo",
            Device::HeavyHex => "heavy_hex",
        }
    }
}

/// A paper configuration: its metric name and its options.
pub type Config = (&'static str, fn() -> CompileOptions);

/// The four paper configurations, with their metric names.
pub const CONFIGS: [Config; 4] = [
    ("qaim", CompileOptions::qaim_only),
    ("ip", CompileOptions::ip),
    ("ic", CompileOptions::ic),
    ("vic", CompileOptions::vic),
];

/// Corpus size knobs.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Tokyo graph families (20 nodes each).
    pub families: Vec<Family>,
    /// Instances per family.
    pub instances_per_family: usize,
    /// 40-node ER(0.1) graphs compiled on heavy-hex under IC and VIC.
    pub heavy_hex_graphs: usize,
}

/// Tokyo outputs checked with `qroute::routed_equivalent` (one per
/// family, in family order, up to this many): one for each of the twelve
/// families.
const EQUIVALENCE_SAMPLES: usize = 12;

impl CorpusSpec {
    /// The benchmark corpus: 12 families × 16 instances × p∈{1,2} × 4
    /// configurations on tokyo (1536 jobs) plus 80 heavy-hex jobs.
    pub fn full() -> CorpusSpec {
        let mut families: Vec<Family> = ER_PROBABILITIES
            .iter()
            .map(|&p| Family::ErdosRenyi(p))
            .collect();
        families.extend(REGULAR_DEGREES.iter().map(|&k| Family::Regular(k)));
        CorpusSpec {
            families,
            instances_per_family: 16,
            heavy_hex_graphs: 40,
        }
    }

    /// A corpus small enough for the self-test.
    pub fn small() -> CorpusSpec {
        CorpusSpec {
            families: vec![Family::ErdosRenyi(0.3), Family::Regular(3)],
            instances_per_family: 1,
            heavy_hex_graphs: 1,
        }
    }
}

/// One compile job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Target device.
    pub device: Device,
    /// Index into [`CONFIGS`].
    pub config: usize,
    /// The parametric program.
    pub spec: QaoaSpec,
    /// Index into [`Corpus::graphs`].
    pub graph: usize,
    /// QAOA level count.
    pub p: usize,
    /// Seed of the job's compile RNG.
    pub seed: u64,
}

impl Job {
    /// The job's compile options.
    pub fn options(&self) -> CompileOptions {
        (CONFIGS[self.config].1)()
    }
}

/// Generated inputs of one run.
pub struct Corpus {
    /// Tokyo context with the corpus calibration.
    pub tokyo: HardwareContext,
    /// Heavy-hex context with its own calibration.
    pub heavy_hex: HardwareContext,
    /// The N(1e-2, 0.5e-2) tokyo calibration (§V-F).
    pub calibration: Calibration,
    /// Problem graphs; the first `families × instances` are tokyo's.
    pub graphs: Vec<Graph>,
    /// Family of each tokyo graph (heavy-hex graphs are ER(0.1)).
    pub families: Vec<Family>,
    /// Compile jobs, tokyo and heavy-hex interleaved.
    pub jobs: Vec<Job>,
    /// Time spent building the two hardware contexts.
    pub context_build: Duration,
}

impl Corpus {
    /// The context a job compiles against.
    pub fn context(&self, device: Device) -> &HardwareContext {
        match device {
            Device::Tokyo => &self.tokyo,
            Device::HeavyHex => &self.heavy_hex,
        }
    }
}

/// Generates the corpus for `seed`.
pub fn build(seed: u64, spec: &CorpusSpec) -> Corpus {
    let mut cal_rng = StdRng::seed_from_u64(CALIBRATION_SEED);
    let tokyo_topo = Topology::ibmq_20_tokyo();
    let hh_topo = Topology::heavy_hex(6, 7);
    let calibration = Calibration::random_normal(&tokyo_topo, 1e-2, 0.5e-2, &mut cal_rng);
    let hh_calibration = Calibration::random_normal(&hh_topo, 1e-2, 0.5e-2, &mut cal_rng);
    let start = Instant::now();
    let tokyo = HardwareContext::with_calibration(tokyo_topo, calibration.clone());
    let heavy_hex = HardwareContext::with_calibration(hh_topo, hh_calibration);
    let context_build = start.elapsed();

    let mut graphs = Vec::new();
    let mut families = Vec::new();
    for &family in &spec.families {
        for g in typical_instances(family, 20, spec.instances_per_family, mix(seed, 0x0F19)) {
            graphs.push(g);
            families.push(family);
        }
    }
    let tokyo_graphs = graphs.len();
    graphs.extend(typical_instances(
        Family::ErdosRenyi(0.1),
        40,
        spec.heavy_hex_graphs,
        mix(seed, 0x4E4E),
    ));

    let mut tokyo_jobs = Vec::new();
    for (gi, graph) in graphs[..tokyo_graphs].iter().enumerate() {
        let problem = MaxCut::without_optimum(graph.clone());
        for p in 1..=LEVELS {
            let qaoa = QaoaSpec::from_maxcut_parametric(&problem, p, true);
            for config in 0..CONFIGS.len() {
                tokyo_jobs.push((Device::Tokyo, config, qaoa.clone(), gi, p));
            }
        }
    }
    let mut hh_jobs = Vec::new();
    for (gi, graph) in graphs.iter().enumerate().skip(tokyo_graphs) {
        let problem = MaxCut::without_optimum(graph.clone());
        let qaoa = QaoaSpec::from_maxcut_parametric(&problem, 1, true);
        for config in [2, 3] {
            hh_jobs.push((Device::HeavyHex, config, qaoa.clone(), gi, 1));
        }
    }
    // Spread the heavy-hex jobs evenly through the tokyo ones.
    let stride = (tokyo_jobs.len() / hh_jobs.len().max(1)).max(1);
    let mut ordered = Vec::with_capacity(tokyo_jobs.len() + hh_jobs.len());
    let mut hh = hh_jobs.into_iter();
    for (i, job) in tokyo_jobs.into_iter().enumerate() {
        ordered.push(job);
        if (i + 1) % stride == 0 {
            ordered.extend(hh.next());
        }
    }
    ordered.extend(hh);
    let jobs = ordered
        .into_iter()
        .enumerate()
        .map(|(i, (device, config, spec, graph, p))| Job {
            device,
            config,
            spec,
            graph,
            p,
            seed: mix(seed, i as u64 + 1),
        })
        .collect();
    Corpus {
        tokyo,
        heavy_hex,
        calibration,
        graphs,
        families,
        jobs,
        context_build,
    }
}

/// Compiles one job through the public artifact entry point.
pub fn compile(corpus: &Corpus, job: &Job) -> Result<CompiledArtifact, qcompile::CompileError> {
    let mut rng = StdRng::seed_from_u64(job.seed);
    try_compile_artifact_with_context(
        &job.spec,
        corpus.context(job.device),
        &job.options(),
        &mut rng,
    )
}

/// What the replay produced, for the identity check.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Routed circuit in IR gates.
    pub physical: Circuit,
    /// Basis-lowered circuit.
    pub basis: Circuit,
    /// Initial layout.
    pub initial_layout: Layout,
    /// Final layout.
    pub final_layout: Layout,
    /// SWAPs inserted.
    pub swaps: usize,
}

/// Per-layer counts the replay observes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// IP layers formed.
    pub ip_layers: u64,
    /// SWAPs from full-circuit routing.
    pub route_swaps: u64,
    /// IC/VIC layers formed.
    pub ic_layers: u64,
    /// SWAPs from incremental compilation.
    pub ic_swaps: u64,
    /// Gates out of basis lowering.
    pub basis_gates: u64,
}

fn mapping_span(device: Device) -> &'static str {
    match device {
        Device::Tokyo => "mapping.tokyo",
        Device::HeavyHex => "mapping.heavy_hex",
    }
}

fn ic_span(device: Device) -> &'static str {
    match device {
        Device::Tokyo => "ic.tokyo",
        Device::HeavyHex => "ic.heavy_hex",
    }
}

/// The pipeline's logical circuit: Hadamards, each level's ordered cost
/// gates and mixers, measurements.
fn logical_circuit(
    spec: &QaoaSpec,
    mut order: impl FnMut(&[CphaseOp]) -> Vec<CphaseOp>,
) -> Circuit {
    let n = spec.num_qubits();
    let mut c = Circuit::new(n);
    c.set_param_table(spec.param_table().clone());
    for q in 0..n {
        c.h(q);
    }
    for (level, (ops, beta)) in spec.levels().iter().enumerate() {
        for op in order(ops) {
            c.rzz(op.angle, op.a, op.b);
        }
        for &(q, angle) in spec.field_terms(level) {
            c.rz(angle, q);
        }
        for q in 0..n {
            c.rx(beta.scaled(2.0), q);
        }
    }
    if spec.measure() {
        c.measure_all();
    }
    c
}

/// Replays one job's pipeline through the public pass API, recording a
/// span per layer under `op`.
///
/// # Errors
///
/// Any pass error, rendered.
pub fn replay(
    corpus: &Corpus,
    job: &Job,
    tracer: &mut Tracer,
    op: u64,
    counts: &mut ReplayCounts,
) -> Result<Replay, String> {
    let options = job.options();
    let hw = corpus.context(job.device);
    let cx = CompileContext {
        spec: &job.spec,
        hw,
        options: &options,
    };
    let mut std_rng = StdRng::seed_from_u64(job.seed);
    let rng: &mut dyn RngCore = &mut std_rng;

    let mapping = options.mapping.pass();
    let span = tracer.enter(mapping_span(job.device), op);
    let initial_layout = mapping.run(&cx, rng).map_err(|e| e.to_string());
    tracer.exit(span);
    let initial_layout = initial_layout?;

    let (physical, final_layout, swaps) = match options.compilation.routing_stage() {
        RoutingStage::Full => {
            let span = tracer.enter("ordering", op);
            let logical = if options.compilation == Compilation::Ip {
                logical_circuit(&job.spec, |ops| {
                    let layers =
                        ip::pack_layers(job.spec.num_qubits(), ops, options.packing_limit, rng);
                    counts.ip_layers += layers.len() as u64;
                    ip::flatten(&layers)
                })
            } else {
                let ordering = options
                    .compilation
                    .ordering_pass()
                    .ok_or("full routing without an ordering pass")?;
                logical_circuit(&job.spec, |ops| ordering.order_level(&cx, ops, rng))
            };
            tracer.exit(span);

            let span = tracer.enter("route", op);
            let routed = RoutingMetric::from_context(hw, false)
                .ok_or_else(|| "hop metric unavailable".to_owned())
                .and_then(|metric| {
                    try_route(&logical, hw.topology(), initial_layout.clone(), &metric)
                        .map_err(|e| e.to_string())
                });
            tracer.exit(span);
            let routed = routed?;
            counts.route_swaps += routed.swap_count as u64;
            (routed.circuit, routed.final_layout, routed.swap_count)
        }
        RoutingStage::Incremental { variation_aware } => {
            let span = tracer.enter(ic_span(job.device), op);
            let result = RoutingMetric::from_context(hw, variation_aware)
                .ok_or_else(|| "routing metric unavailable".to_owned())
                .and_then(|metric| {
                    ic::try_compile_incremental_with(
                        &job.spec,
                        hw.topology(),
                        initial_layout.clone(),
                        &metric,
                        options.packing_limit,
                        true,
                        rng,
                    )
                    .map_err(|e| e.to_string())
                });
            tracer.exit(span);
            let r = result?;
            counts.ic_layers += r.cphase_layers as u64;
            counts.ic_swaps += r.swap_count as u64;
            (r.circuit, r.final_layout, r.swap_count)
        }
    };

    let span = tracer.enter("basis", op);
    let basis = to_basis(&physical, BasisSet::Ibm).map_err(|e| e.to_string());
    tracer.exit(span);
    let basis = basis?;
    counts.basis_gates += basis.gate_count() as u64;
    Ok(Replay {
        physical,
        basis,
        initial_layout,
        final_layout,
        swaps,
    })
}

/// [`replay`] inside a `replay` span; also returns the summed duration of
/// its layer spans, nanoseconds.
fn traced_replay(
    corpus: &Corpus,
    job: &Job,
    tracer: &mut Tracer,
    op: u64,
    counts: &mut ReplayCounts,
) -> (Result<Replay, String>, u64) {
    let span = tracer.enter("replay", op);
    let replayed = replay(corpus, job, tracer, op, counts);
    tracer.exit(span);
    let layer_ns = tracer.spans()[span + 1..]
        .iter()
        .filter(|s| s.parent == Some(span))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (replayed, layer_ns)
}

/// Whether a replay is instruction-identical to the pipeline's output.
pub fn replay_matches(replay: &Replay, artifact: &CompiledArtifact) -> bool {
    let t = artifact.template();
    replay.physical == *t.physical()
        && replay.basis == *t.basis_circuit()
        && replay.initial_layout == *t.initial_layout()
        && replay.final_layout == *t.final_layout()
        && replay.swaps == t.swap_count()
}

/// A compact fingerprint of one output, kept per job so recompiles can be
/// compared with the reference pass without holding every circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    swaps: usize,
    physical_len: usize,
    basis_len: usize,
    final_layout: Vec<usize>,
}

impl Signature {
    /// The signature of `artifact`'s template.
    pub fn of(artifact: &CompiledArtifact) -> Signature {
        let t = artifact.template();
        Signature {
            swaps: t.swap_count(),
            physical_len: t.physical().len(),
            basis_len: t.basis_circuit().len(),
            final_layout: t.final_layout().as_mapping().to_vec(),
        }
    }
}

/// Checks one timed-loop output: coupling on every output, and the same
/// signature as the reference pass.
fn check_output(
    corpus: &Corpus,
    idx: usize,
    artifact: &CompiledArtifact,
    reference: &Option<Signature>,
    checks: &mut Checks,
) {
    let job = &corpus.jobs[idx];
    checks.check(
        qroute::satisfies_coupling(
            artifact.template().physical(),
            corpus.context(job.device).topology(),
        ),
        || format!("job {idx}: output violates coupling"),
    );
    checks.check(reference.as_ref() == Some(&Signature::of(artifact)), || {
        format!("job {idx}: recompile differs from the reference pass")
    });
}

/// The corpus's quality sums, exact for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Basis-circuit depth summed over every job.
    pub depth_sum: u64,
    /// Basis-circuit CX count summed over every job.
    pub cx_sum: u64,
    /// Geometric mean of tokyo success probabilities.
    pub esp_geomean: f64,
}

/// Compiles every job once, checking coupling and the rebuilt spec.
pub fn reference_pass(corpus: &Corpus, checks: &mut Checks) -> (Vec<Option<Signature>>, Quality) {
    let mut depth_sum = 0u64;
    let mut cx_sum = 0u64;
    let mut log_esp = Vec::new();
    let mut outputs = Vec::with_capacity(corpus.jobs.len());
    for (i, job) in corpus.jobs.iter().enumerate() {
        match compile(corpus, job) {
            Ok(artifact) => {
                let t = artifact.template();
                checks.check(
                    qroute::satisfies_coupling(t.physical(), corpus.context(job.device).topology()),
                    || format!("job {i}: output violates coupling"),
                );
                let rebuilt = recover_spec(t, job.spec.num_qubits());
                checks.check(
                    rebuilt.as_ref().is_ok_and(|s| {
                        qserve::spec_fingerprint(s) == qserve::spec_fingerprint(&job.spec)
                    }),
                    || format!("job {i}: output does not implement its spec ({rebuilt:?})"),
                );
                depth_sum += t.depth() as u64;
                cx_sum += t.cx_count() as u64;
                if job.device == Device::Tokyo {
                    log_esp.push(t.success_probability(&corpus.calibration).ln());
                }
                outputs.push(Some(Signature::of(&artifact)));
            }
            Err(e) => {
                checks.check(false, || format!("job {i}: compile failed: {e}"));
                outputs.push(None);
            }
        }
    }
    let esp_geomean = crate::stats::mean(&log_esp).exp();
    (
        outputs,
        Quality {
            depth_sum,
            cx_sum,
            esp_geomean,
        },
    )
}

/// Untimed functional checks on a seeded sample of bound tokyo p=1
/// outputs: `qroute::routed_equivalent` against the uncompiled
/// `qaoa::qaoa_circuit`, and the compiled `⟨C⟩` (read through the final
/// layout) against the closed-form p=1 value. Returns the mean of
/// `⟨C⟩ / optimum` over the sample.
pub fn equivalence_sample(
    corpus: &Corpus,
    outputs: &[Option<Signature>],
    seed: u64,
    samples: usize,
    checks: &mut Checks,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xE9));
    let sim = SimOptions::serial().with_threads(THREADS);
    let mut ratios = Vec::new();
    let mut seen = Vec::new();
    for (gi, &family) in corpus.families.iter().enumerate() {
        if ratios.len() == samples || seen.contains(&family) {
            continue;
        }
        seen.push(family);
        // One instance of this family, one configuration, both seeded.
        let candidates: Vec<usize> = (gi..corpus.families.len())
            .filter(|&g| corpus.families[g] == family)
            .collect();
        let graph = candidates[rng.gen_range(0..candidates.len())];
        let config = rng.gen_range(0..CONFIGS.len());
        let Some((ji, _)) = corpus.jobs.iter().enumerate().find(|(_, j)| {
            j.device == Device::Tokyo && j.graph == graph && j.p == 1 && j.config == config
        }) else {
            continue;
        };
        if outputs[ji].is_none() {
            continue;
        }
        let Ok(artifact) = compile(corpus, &corpus.jobs[ji]) else {
            checks.check(false, || format!("job {ji}: recompile failed"));
            continue;
        };
        let problem = MaxCut::new(corpus.graphs[graph].clone());
        let ((gamma, beta), analytic) = qaoa::analytic::grid_search_p1(&problem, 24);
        let params = QaoaParams::p1(gamma, beta);
        let Ok(bound) = artifact.bind(&params.to_values()) else {
            checks.check(false, || format!("job {ji}: bind failed"));
            continue;
        };
        let logical = qaoa::qaoa_circuit(&problem, &params, true);
        checks.check(
            qroute::routed_equivalent(
                &logical,
                bound.physical(),
                bound.initial_layout(),
                bound.final_layout(),
            ),
            || format!("job {ji}: routed circuit is not equivalent to the logical ansatz"),
        );
        let e = compiled_expectation(&bound, &problem, &sim);
        checks.check((e - analytic).abs() < 1e-9, || {
            format!("job {ji}: compiled <C> {e} differs from closed form {analytic}")
        });
        ratios.push(e / problem.max_value());
    }
    crate::stats::mean(&ratios)
}

/// Runs the workload and fills `report`.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    spec: &CorpusSpec,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let process_start = Instant::now();
    let mut setups = Setups::new(seconds);
    let mut context_builds = Vec::new();
    let mut set_up = || {
        let c = build(seed, spec);
        context_builds.push(c.context_build.as_secs_f64() * 1e6);
        c
    };
    let corpus = setups.time(&mut set_up);
    let mut checks = Checks::default();
    let (outputs, quality) = reference_pass(&corpus, &mut checks);
    println!(
        "corpus: {} jobs ({} heavy-hex), first op at {:.3} s",
        corpus.jobs.len(),
        corpus.jobs.iter().filter(|j| j.device == Device::HeavyHex).count(),
        process_start.elapsed().as_secs_f64()
    );

    // Untraced closed loop (the whole run, or its first third when traced).
    let untraced_secs = if trace { seconds / 3.0 } else { seconds };
    let mut latencies = Vec::new();
    let mut by_config: BTreeMap<(Device, usize), Vec<f64>> = BTreeMap::new();
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(untraced_secs);
    let mut i = 0usize;
    while Instant::now() < deadline {
        if setups.due() {
            setups.time(&mut set_up);
        }
        let idx = i % corpus.jobs.len();
        let job = &corpus.jobs[idx];
        let start = Instant::now();
        let result = compile(&corpus, job);
        let us = start.elapsed().as_secs_f64() * 1e6;
        latencies.push(Sample {
            at: (start - loop_start).as_secs_f64(),
            class: idx as u32,
            us,
        });
        by_config
            .entry((job.device, job.config))
            .or_default()
            .push(us);
        match &result {
            Ok(a) => check_output(&corpus, idx, a, &outputs[idx], &mut checks),
            Err(_) => checks.check(false, || format!("job {idx}: compile failed")),
        }
        i += 1;
    }
    report.attempted = latencies.len() as u64;
    setups.finish(&mut set_up);
    println!("corpus: {}", setups.describe());

    let ratio = equivalence_sample(&corpus, &outputs, seed, EQUIVALENCE_SAMPLES, &mut checks);

    for ((device, config), samples) in &by_config {
        let sorted = crate::stats::sorted(samples.clone());
        println!(
            "  strategy {:<4} on {:<9}: p50 {:>9.2} us  p90 {:>9.2} us  n={}",
            CONFIGS[*config].0,
            device.name(),
            crate::stats::quantile(&sorted, 0.5),
            crate::stats::quantile(&sorted, 0.9),
            sorted.len()
        );
    }

    if trace {
        let untraced_p50 =
            crate::stats::median(&latencies.iter().map(|s| s.us).collect::<Vec<_>>());
        traced_phase(
            &corpus,
            &outputs,
            seconds - untraced_secs,
            untraced_p50,
            &by_config,
            report,
            tracer,
            &mut checks,
        );
        report.metric(
            "qhw.context_build_us",
            crate::stats::median(&context_builds),
            "us",
        );
    } else {
        report.metric("setup_s", setups.best(), "s");
        // The loop cycles through the corpus, so each job is compiled many
        // times; its timing is its best compile.
        closed_loop_metrics(report, &latencies, crate::stats::best_per_class(&latencies));
        report.metric("depth_sum", quality.depth_sum as f64, "count");
        report.metric("cx_sum", quality.cx_sum as f64, "count");
        report.metric("esp_geomean", quality.esp_geomean, "prob");
        report.metric("approx_ratio", ratio, "ratio");
    }
    report.failed = checks.failed;
    report.checks.merge(checks);
}

#[allow(clippy::too_many_arguments)]
fn traced_phase(
    corpus: &Corpus,
    outputs: &[Option<Signature>],
    seconds: f64,
    untraced_p50: f64,
    untraced_by_config: &BTreeMap<(Device, usize), Vec<f64>>,
    report: &mut Report,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let mut counts = ReplayCounts::default();
    let mut e2e = Vec::new();
    let mut unattributed = Vec::new();
    let mut first_rung = 0u64;
    let mut fallbacks = 0u64;
    let mut replays = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let idx = i % corpus.jobs.len();
        let job = &corpus.jobs[idx];
        let op = i as u64;
        // Alternate which of the pipeline call and its replay runs first,
        // so neither always finds the warmer caches.
        let mut replayed =
            (i % 2 == 1).then(|| traced_replay(corpus, job, tracer, op, &mut counts));
        let span = tracer.enter("compile", op);
        let result = compile(corpus, job);
        let compile_ns = tracer.exit(span);
        e2e.push(compile_ns as f64 / 1e3);
        let Ok(artifact) = result else {
            checks.check(false, || format!("job {idx}: compile failed"));
            i += 1;
            continue;
        };
        let fallback_steps = artifact.template().trace().fallbacks().len() as u64;
        fallbacks += fallback_steps;
        first_rung += u64::from(fallback_steps == 0);

        let (replayed, layer_ns) = replayed
            .take()
            .unwrap_or_else(|| traced_replay(corpus, job, tracer, op, &mut counts));
        unattributed.push((compile_ns as f64 - layer_ns as f64) / 1e3);
        replays += 1;
        checks.check(
            replayed
                .as_ref()
                .is_ok_and(|r| replay_matches(r, &artifact)),
            || format!("job {idx}: replay is not instruction-identical to the pipeline"),
        );
        check_output(corpus, idx, &artifact, &outputs[idx], checks);
        i += 1;
    }
    println!("traced: {replays} replays, every one compared instruction-by-instruction with the pipeline");

    let totals = tracer.totals();
    let layer = |name: &str| totals.get(name).copied().unwrap_or_default();
    for device in [Device::Tokyo, Device::HeavyHex] {
        report.metric(
            format!("mapping.{}.self_us", device.name()),
            layer(mapping_span(device)).self_us_mean(),
            "us",
        );
    }
    report.metric("ordering.self_us", layer("ordering").self_us_mean(), "us");
    report.metric("ip.layers", counts.ip_layers as f64, "count");
    report.metric("route.self_us", layer("route").self_us_mean(), "us");
    report.metric("route.swaps", counts.route_swaps as f64, "count");
    for device in [Device::Tokyo, Device::HeavyHex] {
        report.metric(
            format!("ic.{}.self_us", device.name()),
            layer(ic_span(device)).self_us_mean(),
            "us",
        );
    }
    report.metric("ic.layers", counts.ic_layers as f64, "count");
    report.metric("ic.swaps", counts.ic_swaps as f64, "count");
    report.metric("basis.self_us", layer("basis").self_us_mean(), "us");
    report.metric("basis.gates_out", counts.basis_gates as f64, "count");
    report.metric(
        "compile.unattributed_us",
        crate::stats::mean(&unattributed),
        "us",
    );
    report.metric("ladder.fallbacks", fallbacks as f64, "count");
    report.metric(
        "ladder.first_rung_ratio",
        first_rung as f64 / e2e.len().max(1) as f64,
        "ratio",
    );
    for (device, configs) in [
        (Device::Tokyo, &[0usize, 1, 2, 3][..]),
        (Device::HeavyHex, &[2, 3][..]),
    ] {
        for &config in configs {
            let p50 = untraced_by_config
                .get(&(device, config))
                .map_or(0.0, |v| crate::stats::median(v));
            report.metric(
                format!("strategy.{}.{}.p50_us", CONFIGS[config].0, device.name()),
                p50,
                "us",
            );
        }
    }
    let traced_p50 = crate::stats::median(&e2e);
    crate::print_overhead(report, untraced_p50, traced_p50, "compile");
}
