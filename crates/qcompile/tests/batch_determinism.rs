//! Property test for the batch driver's determinism contract: compiling a
//! seeded Figure 7-style workload through `compile_batch` on N worker
//! threads is **byte-identical** to running the same jobs in a serial
//! loop, for every field of every compiled circuit (the wall-clock trace
//! excepted — time is not part of the contract).

use proptest::prelude::*;
use qaoa::{MaxCut, QaoaParams};
use qcompile::{
    compile_batch, try_compile_artifact_with_context, BatchJob, CompileOptions, QaoaSpec,
};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Figure 7 workload instance: MaxCut on a sparse connected
/// Erdős–Rényi graph, compiled for ibmq_20_tokyo.
fn fig7_spec(seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(16, 0.15, 1000, &mut rng).unwrap();
    QaoaSpec::from_maxcut(&MaxCut::without_optimum(g), &QaoaParams::p1(0.5, 0.3), true)
}

const CONFIGS: [fn() -> CompileOptions; 5] = [
    CompileOptions::naive,
    CompileOptions::qaim_only,
    CompileOptions::ip,
    CompileOptions::ic,
    CompileOptions::vic,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_batch_is_byte_identical_to_serial(
        base_seed in 0u64..10_000,
        workers in 4usize..9,
        num_jobs in 5usize..9,
    ) {
        let topo = Topology::ibmq_20_tokyo();
        let mut cal_rng = StdRng::seed_from_u64(base_seed ^ 0xCA11);
        let cal = Calibration::random_normal(&topo, 1e-2, 5e-3, &mut cal_rng);
        let context = HardwareContext::with_calibration(topo, cal);

        let jobs: Vec<BatchJob> = (0..num_jobs)
            .map(|i| BatchJob::new(
                fig7_spec(base_seed + i as u64),
                CONFIGS[i % CONFIGS.len()](),
                base_seed.wrapping_mul(31) + i as u64,
            ))
            .collect();

        let parallel = compile_batch(&context, &jobs, workers);
        prop_assert_eq!(parallel.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&parallel) {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let want =
                try_compile_artifact_with_context(&job.spec, &context, &job.options, &mut rng)
                    .expect("serial reference compile succeeds");
            let want = want.template();
            let got = got.as_ref().expect("batch compile succeeds").template();
            prop_assert_eq!(got.physical(), want.physical());
            prop_assert_eq!(got.basis_circuit(), want.basis_circuit());
            prop_assert_eq!(got.initial_layout(), want.initial_layout());
            prop_assert_eq!(got.final_layout(), want.final_layout());
            prop_assert_eq!(got.swap_count(), want.swap_count());
            prop_assert_eq!(got.depth(), want.depth());
            prop_assert_eq!(got.gate_count(), want.gate_count());
        }

        // Two parallel runs with different worker counts also agree.
        let again = compile_batch(&context, &jobs, workers.saturating_sub(2).max(1));
        for (a, b) in parallel.iter().zip(&again) {
            let (a, b) = (a.as_ref().unwrap().template(), b.as_ref().unwrap().template());
            prop_assert_eq!(a.physical(), b.physical());
            prop_assert_eq!(a.basis_circuit(), b.basis_circuit());
        }
    }
}
