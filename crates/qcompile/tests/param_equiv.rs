//! Property: parameter binding commutes with compilation.
//!
//! For any MaxCut problem, QAOA level and `(γ, β)` values, compiling the
//! bound program (`compile(bind(spec, θ))`) and binding the compiled
//! parametric artifact (`bind(compile(spec), θ)`) must agree — same
//! depth, same SWAP count, same layouts, and the same MaxCut expectation
//! to 1e-10. This is the contract that makes compile-once/rebind-many
//! sound: the compile flow is angle-blind, so one compilation serves
//! every optimizer iteration.

use proptest::prelude::*;
use qaoa::{MaxCut, QaoaParams};
use qcompile::{
    try_compile_artifact_with_context, CompileOptions, CompiledArtifact, CompiledCircuit, QaoaSpec,
};
use qhw::{HardwareContext, Topology};
use qsim::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a problem graph on `n` nodes (non-empty edge subset of the
/// complete graph) plus per-level `(γ, β)` values.
#[allow(clippy::type_complexity)]
fn arb_problem() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, Vec<(f64, f64)>)> {
    (4usize..=8).prop_flat_map(|n| {
        let all: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let edges = proptest::sample::subsequence(all.clone(), 1..=all.len());
        let levels = proptest::collection::vec((0.0f64..3.2, 0.0f64..1.6), 1..=2);
        (Just(n), edges, levels)
    })
}

/// Compiles `spec` on the 3×3 grid through the shared context.
fn compile_on_grid(spec: &QaoaSpec, options: &CompileOptions, seed: u64) -> CompiledArtifact {
    let context = HardwareContext::shared(&Topology::grid(3, 3), None);
    let mut rng = StdRng::seed_from_u64(seed);
    try_compile_artifact_with_context(spec, &context, options, &mut rng).unwrap()
}

/// Exact MaxCut expectation of a compiled circuit, evaluated on the
/// physical statevector through the final logical→physical layout.
fn physical_expectation(compiled: &CompiledCircuit, edges: &[(usize, usize)]) -> f64 {
    let state = StateVector::from_circuit(compiled.physical());
    let layout = compiled.final_layout();
    state.expectation_diagonal(|bits| {
        edges
            .iter()
            .filter(|&&(u, v)| (bits >> layout.phys(u)) & 1 != (bits >> layout.phys(v)) & 1)
            .count() as f64
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn binding_commutes_with_compilation(
        problem_parts in arb_problem(),
        seed in 0u64..500,
        strategy_idx in 0usize..3,
    ) {
        let (n, edges, levels) = problem_parts;
        let graph = qgraph::Graph::from_edges(n, edges.clone()).unwrap();
        let problem = MaxCut::without_optimum(graph);
        let params = QaoaParams::new(levels.clone());
        let p = levels.len();
        let options = [
            CompileOptions::naive(),
            CompileOptions::ip(),
            CompileOptions::ic(),
        ][strategy_idx];

        // Path A: bind the spec, then compile the bound program.
        let bound_spec = QaoaSpec::from_maxcut(&problem, &params, false);
        let recompiled = compile_on_grid(&bound_spec, &options, seed);
        let via_recompile = recompiled.template();

        // Path B: compile the parametric spec once, then bind values.
        let spec = QaoaSpec::from_maxcut_parametric(&problem, p, false);
        let artifact = compile_on_grid(&spec, &options, seed);
        prop_assert!(artifact.is_parametric());
        prop_assert_eq!(artifact.num_params(), 2 * p);
        let via_rebind = artifact.bind(&params.to_values()).unwrap();
        prop_assert!(!via_rebind.is_parametric());

        // Structure: identical quality metrics and layouts.
        prop_assert_eq!(via_rebind.depth(), via_recompile.depth());
        prop_assert_eq!(via_rebind.swap_count(), via_recompile.swap_count());
        prop_assert_eq!(via_rebind.gate_count(), via_recompile.gate_count());
        prop_assert_eq!(via_rebind.initial_layout(), via_recompile.initial_layout());
        prop_assert_eq!(via_rebind.final_layout(), via_recompile.final_layout());

        // Semantics: the same MaxCut expectation to 1e-10.
        let e_recompile = physical_expectation(via_recompile, &edges);
        let e_rebind = physical_expectation(&via_rebind, &edges);
        prop_assert!(
            (e_recompile - e_rebind).abs() < 1e-10,
            "expectations diverged: recompile {} vs rebind {}",
            e_recompile,
            e_rebind
        );
    }

    #[test]
    fn rebinding_twice_overwrites_cleanly(
        problem_parts in arb_problem(),
        seed in 0u64..500,
    ) {
        let (n, edges, levels) = problem_parts;
        let graph = qgraph::Graph::from_edges(n, edges).unwrap();
        let problem = MaxCut::without_optimum(graph);
        let p = levels.len();
        let spec = QaoaSpec::from_maxcut_parametric(&problem, p, false);
        let artifact = compile_on_grid(&spec, &CompileOptions::ic(), seed);

        // The template is immutable: binding a second set of values
        // gives exactly what binding it first would have given.
        let first = QaoaParams::new(levels.clone());
        let second = QaoaParams::new(levels.iter().map(|&(g, b)| (g + 0.25, b - 0.1)).collect());
        let _ = artifact.bind(&first.to_values()).unwrap();
        let b2 = artifact.bind(&second.to_values()).unwrap();
        let fresh = artifact.bind(&second.to_values()).unwrap();
        prop_assert_eq!(b2.physical(), fresh.physical());
        prop_assert_eq!(b2.basis_circuit(), fresh.basis_circuit());
    }
}

#[test]
fn binding_with_wrong_arity_is_a_structured_error() {
    let graph = qgraph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    let problem = MaxCut::without_optimum(graph);
    let spec = QaoaSpec::from_maxcut_parametric(&problem, 2, false);
    let artifact = compile_on_grid(&spec, &CompileOptions::ic(), 7);
    let err = artifact
        .bind(&qcircuit::ParamValues::new(vec![0.1; 3]))
        .unwrap_err();
    assert_eq!(
        err,
        qcompile::CompileError::UnboundParameters {
            expected: 4,
            found: 3
        }
    );
}
