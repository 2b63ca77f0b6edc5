//! The explain report must be byte-reproducible: same spec, options and
//! seed → identical JSON and text, across repeated runs and across batch
//! worker counts. The report deliberately carries no wall-clock fields,
//! so this is an exact-equality check, not a tolerance one.

use qcompile::{
    compile_batch, try_compile_artifact_with_context, BatchJob, CompileOptions, CphaseOp, QaoaSpec,
};
use qhw::{HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ring_spec(n: usize) -> QaoaSpec {
    let ops = (0..n).map(|i| CphaseOp::new(i, (i + 1) % n, 0.4)).collect();
    QaoaSpec::new(n, vec![(ops, 0.3)], true)
}

#[test]
fn explain_is_byte_identical_across_runs() {
    let context = HardwareContext::new(Topology::ibmq_20_tokyo());
    for options in [
        CompileOptions::qaim_only(),
        CompileOptions::ip(),
        CompileOptions::ic(),
    ] {
        let run = || {
            let mut rng = StdRng::seed_from_u64(4242);
            let artifact =
                try_compile_artifact_with_context(&ring_spec(8), &context, &options, &mut rng)
                    .unwrap();
            let explain = artifact.template().explain();
            (explain.to_json(), explain.render_text())
        };
        let (json_a, text_a) = run();
        let (json_b, text_b) = run();
        assert_eq!(json_a, json_b, "explain JSON must be reproducible");
        assert_eq!(text_a, text_b, "explain text must be reproducible");
    }
}

#[test]
fn explain_is_independent_of_batch_worker_count() {
    let context = HardwareContext::new(Topology::ibmq_20_tokyo());
    let jobs: Vec<BatchJob> = (0..6)
        .map(|i| {
            let options = if i % 2 == 0 {
                CompileOptions::ic()
            } else {
                CompileOptions::ip()
            };
            BatchJob::new(ring_spec(6 + i), options, 9000 + i as u64)
        })
        .collect();
    let serial = compile_batch(&context, &jobs, 1);
    let parallel = compile_batch(&context, &jobs, 4);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let s = s.as_ref().unwrap().template().explain().to_json();
        let p = p.as_ref().unwrap().template().explain().to_json();
        assert_eq!(s, p, "job {i}: worker count changed the explain report");
    }
}

#[test]
fn explain_is_byte_identical_across_rebinds() {
    // Rebinding a compiled artifact substitutes angles only; the explain
    // report (and the trace it derives from) must carry over verbatim,
    // so its JSON and text renderings stay byte-identical however many
    // times and with whatever values the template is rebound.
    let context = HardwareContext::new(Topology::ibmq_20_tokyo());
    let graph = qgraph::Graph::from_edges(8, (0..8).map(|i| (i, (i + 1) % 8))).unwrap();
    let problem = qaoa::MaxCut::without_optimum(graph);
    let spec = QaoaSpec::from_maxcut_parametric(&problem, 2, true);
    let mut rng = StdRng::seed_from_u64(4242);
    let artifact =
        try_compile_artifact_with_context(&spec, &context, &CompileOptions::ic(), &mut rng)
            .unwrap();

    let template_json = artifact.template().explain().to_json();
    let template_text = artifact.template().explain().render_text();
    for (i, values) in [
        vec![0.9, 0.35, 0.7, 0.2],
        vec![0.1, 0.2, 0.3, 0.4],
        vec![2.8, 1.5, 0.0, 1.0],
    ]
    .into_iter()
    .enumerate()
    {
        let bound = artifact.bind(&qcircuit::ParamValues::new(values)).unwrap();
        assert_eq!(
            bound.explain().to_json(),
            template_json,
            "rebind {i} changed the explain JSON"
        );
        assert_eq!(
            bound.explain().render_text(),
            template_text,
            "rebind {i} changed the explain text"
        );
        assert_eq!(
            bound.trace().records().len(),
            artifact.template().trace().records().len(),
            "rebind {i} changed the pass trace"
        );
    }
}

#[test]
fn explain_json_has_no_wall_clock_fields() {
    let context = HardwareContext::new(Topology::ibmq_20_tokyo());
    let mut rng = StdRng::seed_from_u64(7);
    let artifact =
        try_compile_artifact_with_context(&ring_spec(8), &context, &CompileOptions::ic(), &mut rng)
            .unwrap();
    let json = artifact.template().explain().to_json();
    for needle in ["_ns", "_ms", "elapsed"] {
        assert!(!json.contains(needle), "wall clock leaked: {needle}");
    }
}
