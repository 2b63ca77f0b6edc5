//! The Figure 2 workflow: initial mapping → gate ordering / incremental
//! compilation → backend routing → hardware-compliant circuit and quality
//! metrics.
//!
//! The pipeline is organized around a [`HardwareContext`]: distance
//! matrices and the connectivity profile are computed once per target and
//! shared (by `Arc`) with every pass that needs them. The stages
//! themselves are trait objects selected from [`CompileOptions`] — see
//! [`crate::passes`]. Each run records a [`PassTrace`] of per-pass
//! wall-clock time and swap/depth deltas, and the one entry point,
//! [`try_compile_artifact_with_context`], returns [`CompileError`] values
//! instead of panicking.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use qcircuit::basis::{to_basis, BasisSet};
use qcircuit::{Circuit, CircuitError, ParamValues};
use qhw::{Calibration, HardwareContext};
use qroute::{try_route, Layout, RoutingMetric};
use rand::{Rng, RngCore};

use crate::cancel::CancelToken;
use crate::error::CompileError;
use crate::explain::{Explain, ExplainLayer};
use crate::passes::{CompileContext, RoutingStage};
use crate::trace::{FallbackReason, FallbackRecord, PassTrace};
use crate::{ic, CompiledArtifact, CphaseOp, QaoaSpec};

/// Largest device for which fallback verification runs the full
/// state-vector equivalence check ([`qroute::routed_equivalent`]); larger
/// targets are verified for coupling compliance only (the equivalence
/// check simulates `2^n` amplitudes).
pub const FULL_VERIFY_MAX_QUBITS: usize = 16;

/// The initial logical→physical mapping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialMapping {
    /// Random placement (the paper's NAIVE baseline).
    Naive,
    /// Heaviest-qubit-first placement (the GreedyV baseline of \[59\]).
    GreedyV,
    /// Densest-subgraph topology selection (the qiskit optimizer baseline
    /// of §III).
    Dense,
    /// The paper's QAIM (§IV-A).
    Qaim,
}

/// The gate-ordering / compilation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compilation {
    /// Randomly ordered CPHASE sequence, compiled in one backend pass
    /// (the NAIVE / QAIM-only configurations of §V).
    RandomOrder,
    /// Instruction Parallelization: bin-packed gate order, one backend
    /// pass (§IV-B).
    Ip,
    /// Incremental Compilation with hop distances (§IV-C).
    IncrementalHops,
    /// Variation-aware Incremental Compilation with reliability-weighted
    /// distances (§IV-D). Requires calibration data.
    IncrementalReliability,
}

/// Resilience policy for one compilation run: the graceful-degradation
/// ladder, per-pass budgets, and the batch retry allowance.
///
/// With `fallback` set, a run that cannot complete on its requested
/// configuration steps down the ladder **VIC → IC → NAIVE** (reliability
/// metric → hop metric → random mapping/order) instead of erroring:
/// unusable or missing calibration, recoverable compile failures, and
/// budget exhaustion each cost one rung. Every fallback-produced circuit
/// is re-verified (coupling compliance always; full state-vector
/// equivalence up to [`FULL_VERIFY_MAX_QUBITS`]) before being returned,
/// and every step is recorded in the run's [`PassTrace`] and as
/// `qcompile/fallbacks*` qtrace counters.
///
/// The default policy is inert — no fallback, no budgets, no retries —
/// so existing behavior is unchanged unless opted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resilience {
    /// Degrade down the VIC → IC → NAIVE ladder instead of erroring.
    pub fallback: bool,
    /// Per-pass wall-clock budget; a pass finishing beyond it triggers a
    /// fallback (or [`CompileError::BudgetExceeded`] without `fallback`).
    /// The ladder's final rung is exempt: best effort beats no circuit.
    pub pass_budget: Option<Duration>,
    /// Maximum SWAPs a run may insert before the same treatment.
    pub swap_budget: Option<usize>,
    /// Extra attempts [`crate::compile_batch`] may make for a failing
    /// job; retries force `fallback` on and reseed the job's RNG stream
    /// deterministically.
    pub max_retries: u8,
}

/// Options controlling one compilation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Initial-mapping strategy.
    pub mapping: InitialMapping,
    /// Compilation mode.
    pub compilation: Compilation,
    /// Maximum CPHASE gates per formed layer (§V-H); `None` packs fully.
    pub packing_limit: Option<usize>,
    /// Fault-tolerance policy: degradation ladder, budgets, retries.
    pub resilience: Resilience,
}

impl CompileOptions {
    /// Options with full layer packing.
    pub fn new(mapping: InitialMapping, compilation: Compilation) -> Self {
        CompileOptions {
            mapping,
            compilation,
            packing_limit: None,
            resilience: Resilience::default(),
        }
    }

    /// The five named configurations evaluated in the paper (§V-F).
    pub fn naive() -> Self {
        CompileOptions::new(InitialMapping::Naive, Compilation::RandomOrder)
    }

    /// QAIM mapping with random gate order.
    pub fn qaim_only() -> Self {
        CompileOptions::new(InitialMapping::Qaim, Compilation::RandomOrder)
    }

    /// IP on top of QAIM.
    pub fn ip() -> Self {
        CompileOptions::new(InitialMapping::Qaim, Compilation::Ip)
    }

    /// IC on top of QAIM.
    pub fn ic() -> Self {
        CompileOptions::new(InitialMapping::Qaim, Compilation::IncrementalHops)
    }

    /// VIC on top of QAIM.
    pub fn vic() -> Self {
        CompileOptions::new(InitialMapping::Qaim, Compilation::IncrementalReliability)
    }

    /// Returns a copy with the given packing limit.
    pub fn with_packing_limit(mut self, limit: usize) -> Self {
        self.packing_limit = Some(limit);
        self
    }

    /// Returns a copy with the graceful-degradation ladder enabled.
    pub fn with_fallback(mut self) -> Self {
        self.resilience.fallback = true;
        self
    }

    /// Returns a copy with a per-pass wall-clock budget.
    pub fn with_pass_budget(mut self, budget: Duration) -> Self {
        self.resilience.pass_budget = Some(budget);
        self
    }

    /// Returns a copy with a per-run SWAP budget.
    pub fn with_swap_budget(mut self, budget: usize) -> Self {
        self.resilience.swap_budget = Some(budget);
        self
    }

    /// Returns a copy allowing up to `retries` batch retries.
    pub fn with_retries(mut self, retries: u8) -> Self {
        self.resilience.max_retries = retries;
        self
    }

    /// The graceful-degradation ladder for these options, starting with
    /// the options themselves: VIC → IC → NAIVE; IC and IP step straight
    /// to NAIVE; QAIM-only drops its mapping; NAIVE is terminal. This is
    /// exactly the rung sequence the fallback pipeline walks — serving
    /// layers reuse it to shed an overloaded request to a cheaper
    /// (possibly already-cached) configuration before rejecting.
    pub fn ladder(&self) -> Vec<CompileOptions> {
        degradation_rungs(self)
    }

    /// The paper configuration name without resilience decorations, used
    /// for fallback records (`"VIC"`, `"IC"`, `"NAIVE"`, …).
    fn config_name(&self) -> String {
        let mut plain = *self;
        plain.resilience = Resilience::default();
        plain.to_string()
    }
}

/// The NAIVE baseline configuration, as in the paper's comparisons.
impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::naive()
    }
}

/// The paper's configuration names: `NAIVE`, `QAIM`, `IP`, `IC`, `VIC`
/// (§V-F), with a `(limit=n)` suffix when a packing limit is set. Other
/// mapping/compilation combinations print both components.
impl fmt::Display for CompileOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mapping, self.compilation) {
            (InitialMapping::Naive, Compilation::RandomOrder) => write!(f, "NAIVE")?,
            (InitialMapping::Qaim, Compilation::RandomOrder) => write!(f, "QAIM")?,
            (InitialMapping::Qaim, Compilation::Ip) => write!(f, "IP")?,
            (InitialMapping::Qaim, Compilation::IncrementalHops) => write!(f, "IC")?,
            (InitialMapping::Qaim, Compilation::IncrementalReliability) => write!(f, "VIC")?,
            (m, c) => write!(f, "{m:?}+{c:?}")?,
        }
        if let Some(limit) = self.packing_limit {
            write!(f, "(limit={limit})")?;
        }
        if self.resilience.fallback {
            write!(f, "+fallback")?;
        }
        Ok(())
    }
}

/// A compiled QAOA circuit plus the quality metrics the paper reports.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    physical: Circuit,
    basis: Circuit,
    initial_layout: Layout,
    final_layout: Layout,
    swap_count: usize,
    // Instructions carrying symbolic angles across both circuits,
    // counted once at construction so per-iteration rebinds never scan.
    parametric_gates: usize,
    // Arc-shared so rebinding an artifact carries the (immutable)
    // compile-time metadata at refcount cost instead of a deep clone.
    trace: Arc<PassTrace>,
    explain: Arc<Explain>,
}

impl CompiledCircuit {
    /// Reassembles a compiled circuit from externally persisted parts —
    /// the constructor an artifact store (disk spill, warm-start
    /// recovery) uses after deserializing what [`CompiledCircuit`]
    /// accessors expose. The per-run [`PassTrace`] is not persisted
    /// (wall-clock data is meaningless across restarts), so the
    /// recovered circuit carries an empty trace and a minimal
    /// [`Explain`] report whose `config` is `"RECOVERED"`; circuit
    /// content, layouts, swap count and parametric-gate behavior are
    /// identical to the original.
    pub fn from_recovered_parts(
        physical: Circuit,
        basis: Circuit,
        initial_layout: Layout,
        final_layout: Layout,
        swap_count: usize,
    ) -> CompiledCircuit {
        let trace = PassTrace::new();
        let basis_census = basis.census();
        let explain = Explain::from_parts(
            "RECOVERED".to_owned(),
            initial_layout.num_logical(),
            initial_layout.num_physical(),
            initial_layout.as_mapping().to_vec(),
            final_layout.as_mapping().to_vec(),
            &trace,
            Vec::new(),
            swap_count,
            basis_census,
        );
        CompiledCircuit {
            parametric_gates: physical.census().parametric + basis_census.parametric,
            physical,
            basis,
            initial_layout,
            final_layout,
            swap_count,
            trace: Arc::new(trace),
            explain: Arc::new(explain),
        }
    }

    /// The hardware-compliant circuit in IR gates (Rzz/SWAP preserved).
    pub fn physical(&self) -> &Circuit {
        &self.physical
    }

    /// The circuit lowered to the IBM basis `{U1, U2, U3, CNOT}` — the
    /// paper's depth/gate-count metrics are measured here.
    pub fn basis_circuit(&self) -> &Circuit {
        &self.basis
    }

    /// The initial logical→physical mapping used.
    pub fn initial_layout(&self) -> &Layout {
        &self.initial_layout
    }

    /// The mapping after all SWAP insertion.
    pub fn final_layout(&self) -> &Layout {
        &self.final_layout
    }

    /// Circuit depth of the basis-lowered circuit, as recorded at compile
    /// time in [`Explain::basis_depth`].
    pub fn depth(&self) -> usize {
        self.explain.basis_depth
    }

    /// Gate count (excluding measurements) of the basis-lowered circuit,
    /// as recorded at compile time in [`Explain::gate_count`].
    pub fn gate_count(&self) -> usize {
        self.explain.gate_count
    }

    /// CNOT count of the basis-lowered circuit, as recorded at compile
    /// time in [`Explain::cx_count`].
    pub fn cx_count(&self) -> usize {
        self.explain.cx_count
    }

    /// Number of SWAPs the router inserted.
    pub fn swap_count(&self) -> usize {
        self.swap_count
    }

    /// Total wall-clock compilation time (the sum over all passes).
    pub fn elapsed(&self) -> Duration {
        self.trace.total_elapsed()
    }

    /// Per-pass wall-clock time and swap/depth deltas for this run.
    pub fn trace(&self) -> &PassTrace {
        &self.trace
    }

    /// The structured explain report for this run: initial layout,
    /// per-layer membership and SWAP cost, fallback narrative. Contains
    /// no wall-clock data, so its JSON/text renderings are
    /// byte-reproducible for a fixed seed.
    pub fn explain(&self) -> &Explain {
        &self.explain
    }

    /// Success probability of the basis circuit under `calibration` (§II).
    pub fn success_probability(&self, calibration: &Calibration) -> f64 {
        qroute::success_probability(&self.basis, calibration)
    }

    /// Whether the compiled circuits still carry symbolic angles.
    pub fn is_parametric(&self) -> bool {
        self.physical.is_parametric()
    }

    /// Instructions carrying symbolic angles across the physical and
    /// basis circuits — exactly what one [`CompiledArtifact::bind`] call
    /// substitutes (and reports as `qcompile/rebind_gates`). Zero for a
    /// bound circuit.
    pub fn parametric_gate_count(&self) -> usize {
        self.parametric_gates
    }

    /// The substitution behind [`CompiledArtifact::bind`]: binds every
    /// symbolic angle of the physical and basis circuits and carries
    /// layouts, SWAP count, pass trace and explain report over verbatim.
    pub(crate) fn bind(&self, values: &ParamValues) -> Result<CompiledCircuit, CompileError> {
        let map_err = |e: CircuitError| match e {
            CircuitError::ParamCountMismatch { expected, found } => {
                CompileError::UnboundParameters { expected, found }
            }
            CircuitError::UnboundParameter { param, provided } => CompileError::UnboundParameters {
                expected: param as usize + 1,
                found: provided,
            },
            other => CompileError::Internal(other.to_string()),
        };
        let physical = self.physical.bind(values).map_err(map_err)?;
        let basis = self.basis.bind(values).map_err(map_err)?;
        let q = qtrace::global();
        if q.is_enabled() {
            q.add("qcompile/rebind", 1);
            q.add("qcompile/rebind_gates", self.parametric_gates as u64);
        }
        Ok(CompiledCircuit {
            physical,
            basis,
            initial_layout: self.initial_layout.clone(),
            final_layout: self.final_layout.clone(),
            swap_count: self.swap_count,
            parametric_gates: 0,
            trace: Arc::clone(&self.trace),
            explain: Arc::clone(&self.explain),
        })
    }
}

/// Compiles a QAOA program against a prebuilt [`HardwareContext`] into a
/// [`CompiledArtifact`] — the one compile entry point. The context's
/// cached distance matrices and connectivity profile are shared across
/// every pass, so no Floyd–Warshall or profiling recomputation happens
/// during the run; callers holding only a topology resolve one through
/// the process-wide [`HardwareContext::shared`] cache.
///
/// A bound spec's result is read through [`CompiledArtifact::template`];
/// a parametric spec's artifact is compiled once and then
/// [`CompiledArtifact::bind`]-ed per parameter point with zero
/// mapping/ordering/routing work. [`crate::compile_batch`] fans this
/// function out across worker threads. When
/// `options.resilience.fallback` is set, failures degrade down the
/// VIC → IC → NAIVE ladder (see [`Resilience`]) instead of erroring; a
/// disconnected coupling graph is reported up front as
/// [`CompileError::DisconnectedTopology`] on every configuration.
///
/// # Errors
///
/// Structured [`CompileError`]s, never panics: VIC without usable
/// calibration, a program that does not fit the device, a zero
/// `options.packing_limit` under IP/IC/VIC, exhausted budgets.
pub fn try_compile_artifact_with_context<R: Rng + ?Sized>(
    spec: &QaoaSpec,
    context: &HardwareContext,
    options: &CompileOptions,
    rng: &mut R,
) -> Result<CompiledArtifact, CompileError> {
    try_compile_artifact_with_context_cancellable(spec, context, options, rng, CancelToken::never())
}

/// [`try_compile_artifact_with_context`] with a cooperative
/// [`CancelToken`].
///
/// The pipeline polls `cancel` at every pass boundary (the same points
/// the per-pass budgets are checked) and before each degradation-ladder
/// rung; a tripped token aborts the run with
/// [`CompileError::Cancelled`] without attempting further rungs. This
/// is how a serving layer bounds a wedged or slow compile: trip the
/// token from the admission thread and the worker returns within one
/// pass.
pub fn try_compile_artifact_with_context_cancellable<R: Rng + ?Sized>(
    spec: &QaoaSpec,
    context: &HardwareContext,
    options: &CompileOptions,
    rng: &mut R,
    cancel: &CancelToken,
) -> Result<CompiledArtifact, CompileError> {
    // Erase the caller's RNG type once so trait-object passes can share it.
    let mut reborrow: &mut R = rng;
    let rng: &mut dyn RngCore = &mut reborrow;
    let template = compile_with_ladder(spec, context, options, rng, cancel)?;
    Ok(CompiledArtifact::new(template, spec.num_params()))
}

/// The degradation rungs for `options`, starting with `options` itself:
/// VIC steps down to IC then NAIVE; IC/IP step down to NAIVE; NAIVE has
/// nowhere lower to go.
fn degradation_rungs(options: &CompileOptions) -> Vec<CompileOptions> {
    let mut rungs = vec![*options];
    let naive = {
        let mut naive = CompileOptions::naive();
        naive.resilience = options.resilience;
        naive
    };
    match options.compilation {
        Compilation::IncrementalReliability => {
            let mut ic = *options;
            ic.compilation = Compilation::IncrementalHops;
            rungs.push(ic);
            rungs.push(naive);
        }
        Compilation::IncrementalHops | Compilation::Ip => rungs.push(naive),
        Compilation::RandomOrder => {
            if options.mapping != InitialMapping::Naive {
                rungs.push(naive);
            }
        }
    }
    rungs
}

/// Maps a rung failure to the ladder-step reason recorded in traces and
/// telemetry.
fn fallback_reason(error: &CompileError) -> FallbackReason {
    match error {
        CompileError::MissingCalibration => FallbackReason::MissingCalibration,
        CompileError::UnusableCalibration(_) => FallbackReason::UnusableCalibration,
        CompileError::BudgetExceeded { pass: "swaps" } => FallbackReason::SwapBudget,
        CompileError::BudgetExceeded { .. } => FallbackReason::PassBudget,
        CompileError::Verification { .. } => FallbackReason::VerificationFailed,
        _ => FallbackReason::CompileFailed,
    }
}

/// Post-routing verification of a fallback-produced circuit: coupling
/// compliance always, full state-vector equivalence on devices up to
/// [`FULL_VERIFY_MAX_QUBITS`] qubits.
fn verify_fallback(
    spec: &QaoaSpec,
    context: &HardwareContext,
    compiled: CompiledCircuit,
) -> Result<CompiledCircuit, CompileError> {
    if !qroute::satisfies_coupling(compiled.physical(), context.topology()) {
        return Err(CompileError::Verification { stage: "coupling" });
    }
    // Symbolic angles have no amplitudes to compare; parametric specs are
    // verified for coupling compliance only (the equivalence of a rebind
    // follows from the bound-vs-parametric tests in `param_equiv`).
    if context.num_qubits() <= FULL_VERIFY_MAX_QUBITS && !spec.is_parametric() {
        // CPHASEs commute, so the spec-order logical circuit is a valid
        // equivalence reference for every gate ordering a rung chose.
        let logical = build_logical_circuit(spec, |ops| ops.to_vec());
        if !qroute::routed_equivalent(
            &logical,
            compiled.physical(),
            compiled.initial_layout(),
            compiled.final_layout(),
        ) {
            return Err(CompileError::Verification {
                stage: "equivalence",
            });
        }
    }
    Ok(compiled)
}

/// Runs the degradation ladder: try each rung in turn, verifying any
/// fallback product, until a circuit is produced or the ladder (or the
/// recoverability of the failure) is exhausted.
fn compile_with_ladder(
    spec: &QaoaSpec,
    context: &HardwareContext,
    options: &CompileOptions,
    rng: &mut dyn RngCore,
    cancel: &CancelToken,
) -> Result<CompiledCircuit, CompileError> {
    if !context.is_connected() {
        return Err(CompileError::DisconnectedTopology {
            components: context.component_count(),
        });
    }
    let rungs = degradation_rungs(options);
    let allow = options.resilience.fallback;
    let mut steps: Vec<FallbackRecord> = Vec::new();
    let mut rung = 0usize;
    loop {
        // A tripped token stops the ladder between rungs as well as
        // inside them: a cancelled caller wants no rung's answer.
        cancel.check()?;
        let opts = &rungs[rung];
        let last = rung + 1 == rungs.len();
        // Budgets are enforced wherever a lower rung remains; the final
        // rung of an enabled ladder is best-effort (a late circuit beats
        // no circuit). Without the ladder, budgets are hard errors.
        let enforce_budgets = !(allow && last);
        let attempt =
            compile_once(spec, context, opts, rng, enforce_budgets, cancel).and_then(|c| {
                if rung > 0 {
                    verify_fallback(spec, context, c)
                } else {
                    Ok(c)
                }
            });
        match attempt {
            Ok(mut compiled) => {
                if !steps.is_empty() {
                    Arc::make_mut(&mut compiled.trace).adopt_fallbacks(steps);
                    // Keep the explain artifact's narrative in sync with
                    // the authoritative fallback history on the trace.
                    Arc::make_mut(&mut compiled.explain).fallbacks =
                        compiled.trace.fallbacks().to_vec();
                }
                return Ok(compiled);
            }
            Err(e) => {
                if !allow || last || !e.recoverable() {
                    return Err(e);
                }
                let reason = fallback_reason(&e);
                let q = qtrace::global();
                if q.is_enabled() {
                    q.add("qcompile/fallbacks", 1);
                    q.add(&format!("qcompile/fallbacks/{}", reason.slug()), 1);
                }
                steps.push(FallbackRecord {
                    from: rungs[rung].config_name(),
                    to: rungs[rung + 1].config_name(),
                    reason,
                });
                rung += 1;
            }
        }
    }
}

/// Checks a finished pass against the per-pass budget.
fn check_pass_budget(
    options: &CompileOptions,
    enforce: bool,
    pass: &'static str,
    elapsed: Duration,
) -> Result<(), CompileError> {
    match options.resilience.pass_budget {
        Some(budget) if enforce && elapsed > budget => Err(CompileError::BudgetExceeded { pass }),
        _ => Ok(()),
    }
}

/// One compilation attempt on exactly the given configuration — no
/// ladder, no verification; budget checks when `enforce_budgets`,
/// cancellation polled at every pass boundary.
fn compile_once(
    spec: &QaoaSpec,
    context: &HardwareContext,
    options: &CompileOptions,
    rng: &mut dyn RngCore,
    enforce_budgets: bool,
    cancel: &CancelToken,
) -> Result<CompiledCircuit, CompileError> {
    let cx = CompileContext {
        spec,
        hw: context,
        options,
    };
    // Every pass runs under a qtrace span; `PassTrace` is the per-run
    // view over the same measurements (the span guard hands its elapsed
    // time back even when the global recorder is disabled), while the
    // recorder aggregates across runs into the run manifest.
    let run = qtrace::global().span("qcompile/compile");
    let mut trace = PassTrace::new();

    let mapping_pass = options.mapping.pass();
    let pass = run.child(mapping_pass.name());
    let initial_layout = mapping_pass.run(&cx, rng)?;
    let elapsed = pass.finish();
    trace.push(mapping_pass.name(), elapsed, 0, None);
    check_pass_budget(options, enforce_budgets, mapping_pass.name(), elapsed)?;
    cancel.check()?;

    let (physical, physical_census, final_layout, swap_count, layers) = match options
        .compilation
        .routing_stage()
    {
        RoutingStage::Full => {
            // IP's bin packer cannot form a layer under a zero limit;
            // report it as the incremental engine does. Random order
            // ignores the limit, as in the paper.
            if options.compilation == Compilation::Ip && options.packing_limit == Some(0) {
                return Err(CompileError::ZeroPackingLimit);
            }
            let ordering = options
                .compilation
                .ordering_pass()
                .expect("full-circuit routing always pairs with an ordering pass");
            let pass = run.child(ordering.name());
            let logical = build_logical_circuit(spec, |ops| ordering.order_level(&cx, ops, rng));
            let elapsed = pass.finish();
            trace.push(ordering.name(), elapsed, 0, None);
            check_pass_budget(options, enforce_budgets, ordering.name(), elapsed)?;
            cancel.check()?;

            let pass = run.child("route");
            let metric = RoutingMetric::from_context(context, false)
                .expect("the hop metric never needs calibration");
            let routed = try_route(
                &logical,
                context.topology(),
                initial_layout.clone(),
                &metric,
            )?;
            let elapsed = pass.finish();
            let census = routed.circuit.census();
            trace.push("route", elapsed, routed.swap_count, Some(census.depth));
            check_pass_budget(options, enforce_budgets, "route", elapsed)?;
            // ASAP layers of the full circuit may span QAOA levels and
            // interleave with mixer walls, so level and per-layer depth
            // are not attributable here. The stats are consumed — the
            // per-layer gate lists move into the report without copies.
            let layers = routed
                .layer_stats
                .into_iter()
                .map(|l| ExplainLayer {
                    level: None,
                    gates: l.gates,
                    swaps: l.swaps,
                    routed_depth: None,
                })
                .collect();
            (
                routed.circuit,
                census,
                routed.final_layout,
                routed.swap_count,
                layers,
            )
        }
        RoutingStage::Incremental { variation_aware } => {
            let name = if variation_aware {
                "incremental-reliability"
            } else {
                "incremental-hops"
            };
            let pass = run.child(name);
            // A quarantined calibration table reads as "uncalibrated" to
            // the metric; report *why* so the ladder (and the caller) can
            // tell a corrupt table from an absent one.
            let metric = RoutingMetric::from_context(context, variation_aware).ok_or_else(
                || match context.calibration_issue() {
                    Some(issue) => CompileError::UnusableCalibration(*issue),
                    None => CompileError::MissingCalibration,
                },
            )?;
            let r = ic::try_compile_incremental_with(
                spec,
                context.topology(),
                initial_layout.clone(),
                &metric,
                options.packing_limit,
                true,
                rng,
            )?;
            let elapsed = pass.finish();
            let census = r.circuit.census();
            trace.push(name, elapsed, r.swap_count, Some(census.depth));
            check_pass_budget(options, enforce_budgets, name, elapsed)?;
            // The result is consumed here, so the per-layer gate lists
            // move into the report without copies.
            let layers = r
                .layers
                .into_iter()
                .map(|l| ExplainLayer {
                    level: Some(l.level),
                    gates: l.gates,
                    swaps: l.swaps,
                    routed_depth: Some(l.routed_depth),
                })
                .collect();
            (r.circuit, census, r.final_layout, r.swap_count, layers)
        }
    };

    if enforce_budgets {
        if let Some(budget) = options.resilience.swap_budget {
            if swap_count > budget {
                return Err(CompileError::BudgetExceeded { pass: "swaps" });
            }
        }
    }
    cancel.check()?;

    let pass = run.child("lower-to-basis");
    let basis = to_basis(&physical, BasisSet::Ibm)
        .map_err(|e| CompileError::BasisLowering(e.to_string()))?;
    // One walk counts every figure the pass trace, the telemetry gauge and
    // the explain report need.
    let basis_census = basis.census();
    trace.push("lower-to-basis", pass.finish(), 0, Some(basis_census.depth));

    let q = qtrace::global();
    if q.is_enabled() {
        q.add("qcompile/runs", 1);
        q.add("qcompile/swaps", swap_count as u64);
        q.gauge_max("qcompile/basis_depth", basis_census.depth as u64);
        q.observe("qcompile/run_swaps", swap_count as u64);
    }
    run.finish();

    let layout_vec = |layout: &Layout| (0..spec.num_qubits()).map(|q| layout.phys(q)).collect();
    let explain = Explain::from_parts(
        options.config_name(),
        spec.num_qubits(),
        context.num_qubits(),
        layout_vec(&initial_layout),
        layout_vec(&final_layout),
        &trace,
        layers,
        swap_count,
        basis_census,
    );

    Ok(CompiledCircuit {
        physical,
        basis,
        initial_layout,
        final_layout,
        swap_count,
        parametric_gates: physical_census.parametric + basis_census.parametric,
        trace: Arc::new(trace),
        explain: Arc::new(explain),
    })
}

/// Builds the full logical circuit with each level's CPHASE list passed
/// through `order`.
fn build_logical_circuit<F>(spec: &QaoaSpec, mut order: F) -> Circuit
where
    F: FnMut(&[CphaseOp]) -> Vec<CphaseOp>,
{
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

#[cfg(test)]
mod tests {
    use super::*;
    use qaoa::{MaxCut, QaoaParams};
    use qhw::Topology;
    use qroute::satisfies_coupling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The compiled template of one run against `context`.
    fn compile_in(
        spec: &QaoaSpec,
        context: &HardwareContext,
        options: &CompileOptions,
        rng: &mut StdRng,
    ) -> Result<CompiledCircuit, CompileError> {
        try_compile_artifact_with_context(spec, context, options, rng).map(|a| a.template().clone())
    }

    /// Compiles through the shared context for `topo`, as a caller
    /// holding only a topology does.
    fn compile(
        spec: &QaoaSpec,
        topo: &Topology,
        cal: Option<&Calibration>,
        options: &CompileOptions,
        rng: &mut StdRng,
    ) -> CompiledCircuit {
        compile_in(spec, &HardwareContext::shared(topo, cal), options, rng).unwrap()
    }

    fn spec_20_node(seed: u64, p_edge: f64) -> QaoaSpec {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = qgraph::generators::connected_erdos_renyi(16, p_edge, 1000, &mut rng).unwrap();
        let problem = MaxCut::without_optimum(g);
        QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.5, 0.3), true)
    }

    #[test]
    fn public_ladder_matches_fallback_rungs() {
        // The serving layer keys shed decisions off this exact sequence.
        let vic = CompileOptions::vic().with_fallback();
        assert_eq!(vic.ladder(), degradation_rungs(&vic));
        let names: Vec<String> = vic.ladder().iter().map(|o| o.config_name()).collect();
        assert_eq!(names, ["VIC", "IC", "NAIVE"]);
        assert_eq!(CompileOptions::ic().ladder().len(), 2);
        assert_eq!(CompileOptions::ip().ladder().len(), 2);
        assert_eq!(CompileOptions::qaim_only().ladder().len(), 2);
        assert_eq!(CompileOptions::naive().ladder(), [CompileOptions::naive()]);
        // Resilience policy rides along unchanged on every rung.
        assert!(vic.ladder().iter().all(|o| o.resilience.fallback));
    }

    #[test]
    fn all_strategies_produce_compliant_circuits() {
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(2);
        let cal = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut rng);
        for options in [
            CompileOptions::naive(),
            CompileOptions::qaim_only(),
            CompileOptions::ip(),
            CompileOptions::ic(),
            CompileOptions::vic(),
        ] {
            let compiled = compile(&spec, &topo, Some(&cal), &options, &mut rng);
            assert!(
                satisfies_coupling(compiled.physical(), &topo),
                "{options} violates coupling"
            );
            assert!(qcircuit::basis::is_in_basis(
                compiled.basis_circuit(),
                BasisSet::Ibm
            ));
            assert!(compiled.depth() > 0);
            assert!(compiled.gate_count() > 0);
            assert!(compiled.cx_count() >= 2 * spec.total_cphase_count());
        }
    }

    #[test]
    fn qaim_reduces_swaps_versus_naive() {
        // Mean over instances: QAIM must insert fewer SWAPs than NAIVE on
        // sparse graphs (the Figure 7 effect).
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(5);
        let (mut naive_swaps, mut qaim_swaps) = (0usize, 0usize);
        for seed in 0..10 {
            let spec = spec_20_node(100 + seed, 0.15);
            naive_swaps +=
                compile(&spec, &topo, None, &CompileOptions::naive(), &mut rng).swap_count();
            qaim_swaps +=
                compile(&spec, &topo, None, &CompileOptions::qaim_only(), &mut rng).swap_count();
        }
        assert!(
            qaim_swaps < naive_swaps,
            "QAIM {qaim_swaps} should beat NAIVE {naive_swaps}"
        );
    }

    #[test]
    fn ip_reduces_depth_versus_random_order() {
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(6);
        let (mut rand_depth, mut ip_depth) = (0usize, 0usize);
        for seed in 0..8 {
            let spec = spec_20_node(200 + seed, 0.4);
            rand_depth +=
                compile(&spec, &topo, None, &CompileOptions::qaim_only(), &mut rng).depth();
            ip_depth += compile(&spec, &topo, None, &CompileOptions::ip(), &mut rng).depth();
        }
        assert!(
            (ip_depth as f64) < 0.8 * rand_depth as f64,
            "IP depth {ip_depth} should be well below random-order {rand_depth}"
        );
    }

    #[test]
    fn ic_reduces_gate_count_versus_ip() {
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(7);
        let (mut ip_gates, mut ic_gates) = (0usize, 0usize);
        for seed in 0..8 {
            let spec = spec_20_node(300 + seed, 0.4);
            ip_gates += compile(&spec, &topo, None, &CompileOptions::ip(), &mut rng).gate_count();
            ic_gates += compile(&spec, &topo, None, &CompileOptions::ic(), &mut rng).gate_count();
        }
        assert!(
            ic_gates < ip_gates,
            "IC gates {ic_gates} should beat IP {ip_gates}"
        );
    }

    #[test]
    fn vic_beats_ic_on_success_probability() {
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(8);
        let cal = Calibration::random_normal(&topo, 2e-2, 1.5e-2, &mut rng);
        let (mut sp_ic, mut sp_vic) = (0.0f64, 0.0f64);
        for seed in 0..16 {
            let spec = spec_20_node(400 + seed, 0.3);
            sp_ic += compile(&spec, &topo, Some(&cal), &CompileOptions::ic(), &mut rng)
                .success_probability(&cal);
            sp_vic += compile(&spec, &topo, Some(&cal), &CompileOptions::vic(), &mut rng)
                .success_probability(&cal);
        }
        assert!(
            sp_vic > sp_ic,
            "VIC success {sp_vic} should beat IC {sp_ic}"
        );
    }

    #[test]
    fn vic_without_calibration_errors_structurally() {
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(2);
        let context = HardwareContext::shared(&topo, None);
        let err = compile_in(&spec, &context, &CompileOptions::vic(), &mut rng).unwrap_err();
        assert_eq!(err, CompileError::MissingCalibration);
        let context = HardwareContext::new(topo);
        let err = compile_in(&spec, &context, &CompileOptions::vic(), &mut rng).unwrap_err();
        assert_eq!(err, CompileError::MissingCalibration);
    }

    #[test]
    fn zero_packing_limit_errors_structurally() {
        // Every layer-forming configuration (IP, IC, VIC) rejects a zero
        // limit with a structured, non-recoverable error — the ladder does
        // not mask it — while random order ignores the limit.
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let cal = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
        let context = HardwareContext::with_calibration(topo.clone(), cal);
        for options in [
            CompileOptions::naive(),
            CompileOptions::qaim_only(),
            CompileOptions::ip(),
            CompileOptions::ic(),
            CompileOptions::vic(),
        ] {
            for options in [options, options.with_fallback()] {
                let options = options.with_packing_limit(0);
                let mut rng = StdRng::seed_from_u64(2);
                let result = compile_in(&spec, &context, &options, &mut rng);
                match options.compilation {
                    Compilation::RandomOrder => assert!(result.is_ok(), "{options}"),
                    _ => assert_eq!(result.unwrap_err(), CompileError::ZeroPackingLimit),
                }
            }
        }
    }

    #[test]
    fn elapsed_time_is_recorded() {
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(2);
        let compiled = compile(&spec, &topo, None, &CompileOptions::ic(), &mut rng);
        assert!(compiled.elapsed() > Duration::ZERO);
    }

    #[test]
    fn pass_trace_names_every_stage() {
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(2);

        let ic = compile(&spec, &topo, None, &CompileOptions::ic(), &mut rng);
        let names: Vec<&str> = ic.trace().records().iter().map(|r| r.name).collect();
        assert_eq!(names, ["qaim", "incremental-hops", "lower-to-basis"]);
        // The swap delta is attributed to the routing pass, and the trace
        // total matches the circuit's headline swap count.
        assert_eq!(ic.trace().swaps_added(), ic.swap_count());
        assert_eq!(
            ic.trace().find("incremental-hops").unwrap().swaps_added,
            ic.swap_count()
        );
        assert_eq!(
            ic.trace().find("lower-to-basis").unwrap().depth_after,
            Some(ic.depth())
        );

        let ip = compile(&spec, &topo, None, &CompileOptions::ip(), &mut rng);
        let names: Vec<&str> = ip.trace().records().iter().map(|r| r.name).collect();
        assert_eq!(names, ["qaim", "ip-pack", "route", "lower-to-basis"]);

        let naive = compile(&spec, &topo, None, &CompileOptions::naive(), &mut rng);
        let names: Vec<&str> = naive.trace().records().iter().map(|r| r.name).collect();
        assert_eq!(names, ["naive", "random-order", "route", "lower-to-basis"]);
    }

    #[test]
    fn context_compile_matches_topology_compile() {
        // Same seed, same program: the context-sharing entry point must be
        // stream- and output-identical to the per-call path.
        let spec = spec_20_node(3, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let mut cal_rng = StdRng::seed_from_u64(4);
        let cal = Calibration::random_normal(&topo, 2e-2, 1.5e-2, &mut cal_rng);
        let context = HardwareContext::with_calibration(topo.clone(), cal.clone());
        for options in [
            CompileOptions::naive(),
            CompileOptions::ip(),
            CompileOptions::ic(),
            CompileOptions::vic(),
        ] {
            let mut rng_a = StdRng::seed_from_u64(77);
            let a = compile(&spec, &topo, Some(&cal), &options, &mut rng_a);
            let mut rng_b = StdRng::seed_from_u64(77);
            let b = compile_in(&spec, &context, &options, &mut rng_b).unwrap();
            assert_eq!(a.physical(), b.physical(), "{options}");
            assert_eq!(a.basis_circuit(), b.basis_circuit());
            assert_eq!(a.initial_layout(), b.initial_layout());
            assert_eq!(a.final_layout(), b.final_layout());
            assert_eq!(a.swap_count(), b.swap_count());
        }
    }

    #[test]
    fn default_options_are_the_naive_baseline() {
        assert_eq!(CompileOptions::default(), CompileOptions::naive());
    }

    #[test]
    fn display_uses_paper_configuration_names() {
        assert_eq!(CompileOptions::naive().to_string(), "NAIVE");
        assert_eq!(CompileOptions::qaim_only().to_string(), "QAIM");
        assert_eq!(CompileOptions::ip().to_string(), "IP");
        assert_eq!(CompileOptions::ic().to_string(), "IC");
        assert_eq!(CompileOptions::vic().to_string(), "VIC");
        assert_eq!(
            CompileOptions::ic().with_packing_limit(9).to_string(),
            "IC(limit=9)"
        );
        assert_eq!(
            CompileOptions::new(InitialMapping::GreedyV, Compilation::Ip).to_string(),
            "GreedyV+Ip"
        );
    }

    #[test]
    fn ladder_degrades_vic_on_corrupt_calibration() {
        use qhw::fault::{FaultInjector, FaultKind};
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let good = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
        let bad = FaultInjector::new(11).corrupt_calibration(&topo, &good, FaultKind::NanRate);
        let context = HardwareContext::with_calibration(topo.clone(), bad);

        // Without the ladder the corruption is a structured hard error.
        let mut rng = StdRng::seed_from_u64(2);
        let err = compile_in(&spec, &context, &CompileOptions::vic(), &mut rng).unwrap_err();
        assert!(matches!(err, CompileError::UnusableCalibration(_)));

        // With it, VIC steps down to IC and still delivers a verified
        // circuit, with the step on the record.
        let mut rng = StdRng::seed_from_u64(2);
        let options = CompileOptions::vic().with_fallback();
        let compiled = compile_in(&spec, &context, &options, &mut rng).unwrap();
        assert!(satisfies_coupling(compiled.physical(), &topo));
        assert!(compiled.trace().degraded());
        let steps = compiled.trace().fallbacks();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].from, "VIC");
        assert_eq!(steps[0].to, "IC");
        assert_eq!(steps[0].reason, crate::FallbackReason::UnusableCalibration);
        // The IC rung compiled, so the pass trace is IC-shaped.
        assert!(compiled.trace().find("incremental-hops").is_some());
    }

    #[test]
    fn ladder_degrades_vic_on_missing_calibration() {
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let context = HardwareContext::new(topo);
        let mut rng = StdRng::seed_from_u64(2);
        let options = CompileOptions::vic().with_fallback();
        let compiled = compile_in(&spec, &context, &options, &mut rng).unwrap();
        let steps = compiled.trace().fallbacks();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].reason, crate::FallbackReason::MissingCalibration);
    }

    #[test]
    fn disconnected_topology_is_fatal_even_with_fallback() {
        use qhw::fault::{FaultInjector, FaultKind};
        let spec = spec_20_node(1, 0.3);
        let split = FaultInjector::new(3)
            .degrade_topology(&Topology::ibmq_20_tokyo(), FaultKind::SplitComponent);
        let context = HardwareContext::new(split);
        assert!(!context.is_connected());
        for options in [
            CompileOptions::naive(),
            CompileOptions::ic().with_fallback(),
        ] {
            let mut rng = StdRng::seed_from_u64(2);
            let err = compile_in(&spec, &context, &options, &mut rng).unwrap_err();
            match err {
                CompileError::DisconnectedTopology { components } => assert!(components >= 2),
                other => panic!("expected DisconnectedTopology, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_best_effort_naive() {
        let spec = spec_20_node(1, 0.3);
        let topo = Topology::ibmq_20_tokyo();
        let context = HardwareContext::new(topo.clone());

        // A zero pass budget is deterministically exceeded (passes take
        // nonzero time); without fallback it is a hard error...
        let strict = CompileOptions::ic().with_pass_budget(Duration::ZERO);
        let mut rng = StdRng::seed_from_u64(2);
        let err = compile_in(&spec, &context, &strict, &mut rng).unwrap_err();
        assert!(matches!(err, CompileError::BudgetExceeded { .. }));

        // ...with fallback the final rung is budget-exempt, so the run
        // still delivers a verified circuit and records the step.
        let mut rng = StdRng::seed_from_u64(2);
        let resilient = strict.with_fallback();
        let compiled = compile_in(&spec, &context, &resilient, &mut rng).unwrap();
        assert!(satisfies_coupling(compiled.physical(), &topo));
        assert!(compiled.trace().degraded());
        assert_eq!(
            compiled.trace().fallbacks()[0].reason,
            crate::FallbackReason::PassBudget
        );

        // A zero swap budget behaves the same way via the swap reason.
        let mut rng = StdRng::seed_from_u64(2);
        let swap_capped = CompileOptions::ic().with_swap_budget(0).with_fallback();
        let compiled = compile_in(&spec, &context, &swap_capped, &mut rng).unwrap();
        if compiled.trace().degraded() {
            assert_eq!(
                compiled.trace().fallbacks()[0].reason,
                crate::FallbackReason::SwapBudget
            );
        }
    }

    #[test]
    fn fallback_steps_are_counted_in_qtrace() {
        let spec = spec_20_node(1, 0.3);
        let context = HardwareContext::new(Topology::ibmq_20_tokyo());
        let options = CompileOptions::vic().with_fallback();
        let q = qtrace::global();
        q.enable();
        let mut rng = StdRng::seed_from_u64(2);
        let compiled = compile_in(&spec, &context, &options, &mut rng).unwrap();
        q.disable();
        let manifest = q.take_manifest("pipeline-fallback-counters");
        assert!(compiled.trace().degraded());
        // The recorder is process-global and other tests may have recorded
        // concurrently, so assert presence/lower bounds only.
        assert!(
            manifest
                .counters
                .get("qcompile/fallbacks")
                .copied()
                .unwrap_or(0)
                >= 1
        );
        assert!(manifest
            .counters
            .contains_key("qcompile/fallbacks/missing-calibration"));
    }

    #[test]
    fn fallback_display_suffix_and_builders() {
        let o = CompileOptions::vic()
            .with_fallback()
            .with_pass_budget(Duration::from_millis(50))
            .with_swap_budget(400)
            .with_retries(2);
        assert_eq!(o.to_string(), "VIC+fallback");
        assert_eq!(o.resilience.pass_budget, Some(Duration::from_millis(50)));
        assert_eq!(o.resilience.swap_budget, Some(400));
        assert_eq!(o.resilience.max_retries, 2);
        assert_eq!(o.config_name(), "VIC");
        // The default policy is inert so existing behavior is untouched.
        assert_eq!(Resilience::default(), CompileOptions::ic().resilience);
    }

    #[test]
    fn recorded_figures_equal_fresh_walks() {
        // depth, gate_count, cx_count and parametric_gate_count report
        // what the compile's census walk recorded: each must equal a fresh
        // walk of the circuits, for every configuration, bound or
        // parametric, after bind and after recovery from parts.
        let topo = Topology::ibmq_20_tokyo();
        let mut cal_rng = StdRng::seed_from_u64(3);
        let cal = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut cal_rng);
        let context = HardwareContext::with_calibration(topo, cal);
        let mut g_rng = StdRng::seed_from_u64(8);
        let g = qgraph::generators::connected_erdos_renyi(14, 0.4, 1000, &mut g_rng).unwrap();
        let problem = MaxCut::without_optimum(g);
        let params = QaoaParams::new(vec![(0.5, 0.3), (0.2, 0.7)]);
        let bound = QaoaSpec::from_maxcut(&problem, &params, true);
        let parametric = QaoaSpec::from_maxcut_parametric(&problem, 2, true);
        let check = |c: &CompiledCircuit, what: &str| {
            let basis = c.basis_circuit();
            assert_eq!(c.depth(), basis.depth(), "{what}: depth");
            assert_eq!(c.gate_count(), basis.gate_count(), "{what}: gate count");
            assert_eq!(c.cx_count(), basis.count_gate("cx"), "{what}: cx count");
            let parametric = c
                .physical()
                .iter()
                .chain(basis.iter())
                .filter(|i| i.gate().is_parametric())
                .count();
            assert_eq!(c.parametric_gate_count(), parametric, "{what}: parametric");
        };
        for options in [
            CompileOptions::naive(),
            CompileOptions::qaim_only(),
            CompileOptions::ip(),
            CompileOptions::ic(),
            CompileOptions::vic(),
        ] {
            for spec in [&bound, &parametric] {
                let what = format!("{options}, parametric={}", spec.is_parametric());
                let mut rng = StdRng::seed_from_u64(4);
                let artifact =
                    try_compile_artifact_with_context(spec, &context, &options, &mut rng).unwrap();
                let t = artifact.template();
                check(t, &what);
                let recovered = CompiledCircuit::from_recovered_parts(
                    t.physical().clone(),
                    t.basis_circuit().clone(),
                    t.initial_layout().clone(),
                    t.final_layout().clone(),
                    t.swap_count(),
                );
                check(&recovered, &format!("{what}, recovered"));
                if spec.is_parametric() {
                    let rebound = artifact.bind(&params.to_values()).unwrap();
                    check(&rebound, &format!("{what}, bound"));
                }
            }
        }
    }

    #[test]
    fn packing_limit_flows_through_options() {
        let spec = spec_20_node(1, 0.5);
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(2);
        let limited = CompileOptions::ic().with_packing_limit(2);
        let c = compile(&spec, &topo, None, &limited, &mut rng);
        assert!(satisfies_coupling(c.physical(), &topo));
        assert_eq!(limited.packing_limit, Some(2));
    }
}
