//! Quickstart: compile the paper's Figure 1 example end to end.
//!
//! Builds the QAOA-MaxCut circuit of the 4-node 3-regular graph of
//! Figure 1(a), compiles it for the 4-qubit linear device of Figure 1(d)
//! with the NAIVE baseline and with IC(+QAIM), and prints both circuits
//! with their quality metrics. Tracing is enabled throughout: the run
//! ends with the compile *explain report* for the IC run and the span
//! timings the qtrace recorder collected along the way.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--explain <path>` to also write the explain report as
//! deterministic JSON (the same artifact CI uploads from the
//! bench-regress job).

use qaoa::MaxCut;
use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record span timings and timeline events for everything below.
    qtrace::enable();
    qtrace::global().capture_events(true);
    let explain_path = std::env::args()
        .skip(1)
        .skip_while(|a| a != "--explain")
        .nth(1)
        .map(std::path::PathBuf::from);

    // Figure 1(a): the 4-node 3-regular graph (complete graph K4).
    let graph = qgraph::Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
    let problem = MaxCut::new(graph);
    println!(
        "MaxCut optimum of the Figure 1(a) graph: {}",
        problem.max_value()
    );

    // Find good p=1 parameters analytically + by simplex refinement.
    let (params, expectation) = qaoa::optimize::grid_then_nelder_mead(&problem, 1, 24);
    let (gamma, beta) = params.levels()[0];
    println!("optimized p=1 parameters: gamma={gamma:.3}, beta={beta:.3}");
    println!(
        "expectation {expectation:.3} -> approximation ratio {:.3}\n",
        expectation / problem.max_value()
    );

    // The logical circuit (Figure 1(b)).
    let logical = qaoa::qaoa_circuit(&problem, &params, true);
    println!(
        "logical circuit (depth {}):\n{}",
        logical.depth(),
        qcircuit::draw::draw(&logical)
    );

    // Compile for the linearly coupled 4-qubit device of Figure 1(d).
    let device = Topology::linear(4);
    let context = HardwareContext::shared(&device, None);
    let mut rng = StdRng::seed_from_u64(1);

    // NAIVE baseline: compile the bound program directly.
    let bound_spec = QaoaSpec::from_maxcut(&problem, &params, true);
    let naive = try_compile_artifact_with_context(
        &bound_spec,
        &context,
        &CompileOptions::naive(),
        &mut rng,
    )?;
    let naive = naive.template();
    println!("--- NAIVE (random mapping + random order) ---");
    println!(
        "depth {}  gates {}  CNOTs {}  SWAPs {}  compile {:?}",
        naive.depth(),
        naive.gate_count(),
        naive.cx_count(),
        naive.swap_count(),
        naive.elapsed()
    );
    assert!(qroute::satisfies_coupling(naive.physical(), &device));
    println!("{}", qcircuit::draw::draw(naive.physical()));

    // IC (+QAIM), compile-once/rebind-many style: the compile flow never
    // looks at the angles, so the parametric template is compiled once
    // and `(γ, β)` values are substituted per use — the hybrid optimizer
    // loop rebinds this artifact every iteration instead of recompiling.
    let template_spec = QaoaSpec::from_maxcut_parametric(&problem, 1, true);
    let artifact = try_compile_artifact_with_context(
        &template_spec,
        &context,
        &CompileOptions::ic(),
        &mut rng,
    )?;
    let compiled = artifact.bind(&params.to_values())?;
    println!("--- IC (+QAIM), bound from the compiled artifact ---");
    println!(
        "depth {}  gates {}  CNOTs {}  SWAPs {}  compile {:?}",
        compiled.depth(),
        compiled.gate_count(),
        compiled.cx_count(),
        compiled.swap_count(),
        compiled.elapsed()
    );
    assert!(qroute::satisfies_coupling(compiled.physical(), &device));
    println!("{}", qcircuit::draw::draw(compiled.physical()));

    // Rebinding at different angles is a per-gate substitution, not a
    // compile: structure, layouts and metrics are unchanged.
    let probe = artifact.bind(&qcircuit::ParamValues::new(vec![0.5, 0.2]))?;
    assert_eq!(probe.depth(), compiled.depth());
    assert_eq!(probe.swap_count(), compiled.swap_count());
    println!(
        "(rebinding the artifact at fresh angles keeps depth {} and {} SWAPs)\n",
        probe.depth(),
        probe.swap_count()
    );

    // Where did the depth and SWAP cost come from? The explain report
    // breaks the IC compile down pass by pass and layer by layer; for a
    // fixed seed it is byte-identical across runs — and across rebinds,
    // since binding carries it over verbatim.
    let explain = compiled.explain();
    println!("--- explain (IC run) ---\n{}", explain.render_text());
    if let Some(path) = explain_path {
        explain.save_json(&path)?;
        println!("[wrote explain report {}]", path.display());
    }

    // And what did it cost? Drain the recorder and show the span stats.
    let manifest = qtrace::take("quickstart");
    println!("--- qtrace spans ---");
    for (span_path, stat) in &manifest.spans {
        println!(
            "{span_path}: {}x total {}ns p50 {}ns p99 {}ns",
            stat.count, stat.total_ns, stat.p50_ns, stat.p99_ns
        );
    }
    println!(
        "({} timeline events captured; use --trace on the fig drivers to export Perfetto traces)",
        manifest.events.len()
    );
    Ok(())
}
