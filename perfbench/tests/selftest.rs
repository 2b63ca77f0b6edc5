//! Self-test of the benchmark: determinism per seed, seed sensitivity,
//! the replay identity the traced run relies on, and that the output
//! checks reject a broken circuit.

use perfbench::corpus::{self, CorpusSpec};
use perfbench::qaoaloop::{self, LoopSpec};
use perfbench::report::{Checks, Report};
use perfbench::serve::{self, Traffic, Verifier};
use perfbench::spans::Tracer;
use qcompile::CompiledCircuit;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn same_seed_gives_identical_corpus_quality() {
    let spec = CorpusSpec::small();
    let mut checks = Checks::default();
    let (_, a) = corpus::reference_pass(&corpus::build(7, &spec), &mut checks);
    let (_, b) = corpus::reference_pass(&corpus::build(7, &spec), &mut checks);
    assert_eq!(a, b);
    assert!(a.depth_sum > 0 && a.cx_sum > 0 && a.esp_geomean > 0.0);
    assert_eq!(checks.failed, 0, "{:?}", checks.messages);
}

#[test]
fn different_seed_gives_a_different_corpus() {
    let spec = CorpusSpec::small();
    let a = corpus::build(7, &spec);
    let b = corpus::build(8, &spec);
    assert_ne!(a.graphs, b.graphs);
    assert_eq!(a.jobs.len(), b.jobs.len());
}

#[test]
fn traced_replay_is_instruction_identical() {
    let corpus = corpus::build(11, &CorpusSpec::small());
    let mut tracer = Tracer::new();
    let mut counts = corpus::ReplayCounts::default();
    for (i, job) in corpus.jobs.iter().enumerate() {
        let artifact = corpus::compile(&corpus, job).expect("small corpus compiles");
        let replay =
            corpus::replay(&corpus, job, &mut tracer, i as u64, &mut counts).expect("replay runs");
        assert!(
            corpus::replay_matches(&replay, &artifact),
            "job {i} diverged"
        );
    }
    let totals = tracer.totals();
    assert!(totals.contains_key("mapping.tokyo") && totals.contains_key("basis"));
    assert!(counts.ip_layers > 0 && counts.ic_layers > 0 && counts.basis_gates > 0);
}

#[test]
fn same_seed_gives_identical_approx_ratio() {
    let run = |seed| {
        let mut report = Report::default();
        qaoaloop::run(
            seed,
            0.01,
            false,
            &LoopSpec::small(),
            &mut report,
            &mut Tracer::new(),
        );
        assert!(report.correct(), "{:?}", report.checks.messages);
        ["approx_ratio", "depth_sum", "cx_sum", "esp_geomean"]
            .map(|m| report.get(m).expect("metric recorded"))
    };
    assert_eq!(run(3), run(3));
}

#[test]
fn same_seed_gives_identical_serve_counts() {
    let counts = |seed| {
        let u = serve::universe(1);
        let (service, warm) = serve::start_service(&u);
        assert!(warm.iter().all(Option::is_some));
        let mut traffic = Traffic {
            service: &service,
            universe: &u,
            rng: StdRng::seed_from_u64(seed),
            sent: 0,
            reloads: 0,
            verifier: Verifier::new(),
        };
        let pass = traffic.pass(2_000.0, 0.1, None);
        assert_eq!(
            traffic.verifier.checks.failed, 0,
            "{:?}",
            traffic.verifier.checks.messages
        );
        (
            pass.stats.hits,
            pass.stats.misses,
            pass.stats.evictions,
            pass.stats.invalidated,
        )
    };
    let a = counts(5);
    assert_eq!(a, counts(5));
    assert!(a.0 > 0 && a.1 > 0, "the stream both hits and misses: {a:?}");
}

#[test]
fn checks_reject_a_dropped_cost_gate() {
    let corpus = corpus::build(3, &CorpusSpec::small());
    let job = &corpus.jobs[0];
    let artifact = corpus::compile(&corpus, job).expect("compiles");
    let t = artifact.template();
    let fp = |c: &CompiledCircuit| {
        perfbench::check::recover_spec(c, job.spec.num_qubits())
            .ok()
            .map(|s| qserve::spec_fingerprint(&s))
    };
    assert_eq!(fp(t), Some(qserve::spec_fingerprint(&job.spec)));

    let mut broken = qcircuit::Circuit::new(t.physical().num_qubits());
    broken.set_param_table(t.physical().param_table().clone());
    let drop_at = t
        .physical()
        .iter()
        .position(|i| matches!(i.gate(), qcircuit::Gate::Rzz(_)))
        .expect("a cost gate");
    for (k, instr) in t.physical().iter().enumerate() {
        if k != drop_at {
            broken.push(*instr).expect("same register");
        }
    }
    let mutant = CompiledCircuit::from_recovered_parts(
        broken,
        t.basis_circuit().clone(),
        t.initial_layout().clone(),
        t.final_layout().clone(),
        t.swap_count(),
    );
    assert_ne!(fp(&mutant), Some(qserve::spec_fingerprint(&job.spec)));
}
