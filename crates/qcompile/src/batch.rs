//! Multi-threaded batch compilation over one shared [`HardwareContext`].
//!
//! The paper's experiments compile hundreds of (instance, configuration)
//! pairs against a single device; [`compile_batch`] fans that out across
//! worker threads while keeping results **bit-for-bit identical** to a
//! serial loop: each job carries its own RNG seed, so its random stream
//! is independent of scheduling, and results are returned in job order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use qhw::HardwareContext;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::CompileError;
use crate::pipeline::{try_compile_artifact_with_context, CompileOptions};
use crate::{CompiledArtifact, QaoaSpec};

/// Odd multiplier mixed into retry seeds so each attempt gets an
/// independent RNG stream while staying a pure function of `(seed,
/// attempt)` — determinism survives retries.
const RETRY_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One unit of batch work: a program, a configuration and the seed of the
/// RNG stream the compilation consumes.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The QAOA program to compile.
    pub spec: QaoaSpec,
    /// The configuration to compile it under.
    pub options: CompileOptions,
    /// Seed for this job's private `StdRng`. Determinism contract: a job
    /// always sees `StdRng::seed_from_u64(seed)`, regardless of which
    /// worker runs it or in what order.
    pub seed: u64,
}

impl BatchJob {
    /// A job compiling `spec` under `options` with RNG stream `seed`.
    pub fn new(spec: QaoaSpec, options: CompileOptions, seed: u64) -> Self {
        BatchJob {
            spec,
            options,
            seed,
        }
    }
}

/// A sensible worker count for this machine (available parallelism,
/// falling back to 1 when it cannot be queried).
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// One job attempt with the panic boundary: a panicking compilation is
/// caught and surfaced as [`CompileError::Internal`] instead of tearing
/// down the batch (or aborting a worker thread mid-scope).
fn attempt_job(
    context: &HardwareContext,
    job: &BatchJob,
    options: &CompileOptions,
    seed: u64,
) -> Result<CompiledArtifact, CompileError> {
    // `AssertUnwindSafe`: everything captured is either freshly built per
    // attempt (the RNG) or immutable shared state (`context`, `job`), so
    // no observable broken invariant can leak past the boundary.
    catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        try_compile_artifact_with_context(&job.spec, context, options, &mut rng)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_owned());
        let q = qtrace::global();
        if q.is_enabled() {
            q.add("qcompile/batch/caught_panics", 1);
        }
        Err(CompileError::Internal(msg))
    })
}

/// Runs one job to completion: the first attempt on the job's own
/// options, then up to `max_retries` extra attempts with the degradation
/// ladder forced on and a derived (but deterministic) seed. Every path is
/// a pure function of the job alone, so scheduling cannot change results.
fn run_job(context: &HardwareContext, job: &BatchJob) -> Result<CompiledArtifact, CompileError> {
    let mut result = attempt_job(context, job, &job.options, job.seed);
    let retries = job.options.resilience.max_retries;
    for attempt in 1..=u64::from(retries) {
        match &result {
            Ok(_) => break,
            Err(e) if !e.recoverable() => break,
            Err(_) => {}
        }
        let q = qtrace::global();
        if q.is_enabled() {
            q.add("qcompile/batch/retries", 1);
        }
        let options = job.options.with_fallback();
        let seed = job.seed ^ attempt.wrapping_mul(RETRY_SEED_STRIDE);
        result = attempt_job(context, job, &options, seed);
    }
    result
}

/// Compiles every job against the shared `context` on `workers` threads.
///
/// Results are in job order, and each is exactly what a serial
/// [`try_compile_artifact_with_context`] call with
/// `StdRng::seed_from_u64(job.seed)` produces — worker count and
/// scheduling cannot change any output (the `batch_determinism` property
/// test pins this). Failures are returned per-job; one bad job does not
/// poison the batch. A job that *panics* is caught at the batch boundary
/// and reported as [`CompileError::Internal`], and jobs whose options
/// allow retries ([`crate::Resilience::max_retries`]) are
/// deterministically re-attempted with the degradation ladder forced on.
pub fn compile_batch(
    context: &HardwareContext,
    jobs: &[BatchJob],
    workers: usize,
) -> Vec<Result<CompiledArtifact, CompileError>> {
    let workers = workers.max(1).min(jobs.len().max(1));
    let q = qtrace::global();
    // Records on drop, covering both the serial and threaded exits.
    let _batch_span = q.span("qcompile/batch");
    if q.is_enabled() {
        q.add("qcompile/batch/jobs", jobs.len() as u64);
        q.gauge_max("qcompile/batch/workers", workers as u64);
    }
    if workers == 1 {
        // Serial fast path: no threads, no channel. Identical results by
        // construction — both paths run the same `run_job`.
        return jobs.iter().map(|job| run_job(context, job)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let result = run_job(context, &jobs[i]);
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<Result<CompiledArtifact, CompileError>>> =
        (0..jobs.len()).map(|_| None).collect();
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job sends exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CphaseOp;
    use qhw::Topology;

    fn ring_spec(n: usize) -> QaoaSpec {
        let ops = (0..n).map(|i| CphaseOp::new(i, (i + 1) % n, 0.4)).collect();
        QaoaSpec::new(n, vec![(ops, 0.3)], true)
    }

    #[test]
    fn batch_matches_serial_and_preserves_job_order() {
        let context = HardwareContext::new(Topology::ibmq_20_tokyo());
        let jobs: Vec<BatchJob> = (0..6)
            .map(|i| {
                let options = if i % 2 == 0 {
                    CompileOptions::ic()
                } else {
                    CompileOptions::qaim_only()
                };
                BatchJob::new(ring_spec(6 + i), options, 1000 + i as u64)
            })
            .collect();
        let parallel = compile_batch(&context, &jobs, 4);
        for (job, got) in jobs.iter().zip(&parallel) {
            let mut rng = StdRng::seed_from_u64(job.seed);
            let want =
                try_compile_artifact_with_context(&job.spec, &context, &job.options, &mut rng)
                    .unwrap();
            let (got, want) = (got.as_ref().unwrap().template(), want.template());
            assert_eq!(got.physical(), want.physical());
            assert_eq!(got.basis_circuit(), want.basis_circuit());
            assert_eq!(got.final_layout(), want.final_layout());
            assert_eq!(got.swap_count(), want.swap_count());
            // Job order: result widths track the per-job program sizes.
            assert_eq!(got.initial_layout().num_logical(), job.spec.num_qubits());
        }
    }

    #[test]
    fn failures_stay_per_job() {
        let context = HardwareContext::new(Topology::ibmq_20_tokyo());
        let jobs = vec![
            BatchJob::new(ring_spec(6), CompileOptions::ic(), 1),
            // VIC without calibration in the context: this job fails …
            BatchJob::new(ring_spec(6), CompileOptions::vic(), 2),
            // … but its neighbors still compile.
            BatchJob::new(ring_spec(7), CompileOptions::naive(), 3),
        ];
        let results = compile_batch(&context, &jobs, 2);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &CompileError::MissingCalibration
        );
        assert!(results[2].is_ok());
    }

    #[test]
    fn poisoned_job_is_caught_not_fatal() {
        // A self-CPHASE built via the public-field struct literal slips
        // past `QaoaSpec::new`'s range check (only `CphaseOp::new` rejects
        // duplicates) and panics deep inside interaction-graph/circuit
        // construction. The batch boundary must convert that into a
        // structured error and keep going.
        let context = HardwareContext::new(Topology::ibmq_20_tokyo());
        let self_loop = CphaseOp {
            a: 2,
            b: 2,
            angle: (0.4).into(),
        };
        let poison = QaoaSpec::new(4, vec![(vec![self_loop], 0.3)], true);
        let jobs = vec![
            BatchJob::new(ring_spec(6), CompileOptions::ic(), 1),
            BatchJob::new(poison, CompileOptions::qaim_only(), 2),
            BatchJob::new(ring_spec(7), CompileOptions::naive(), 3),
        ];
        for workers in [1, 3] {
            let results = compile_batch(&context, &jobs, workers);
            assert!(results[0].is_ok());
            assert!(
                matches!(results[1], Err(CompileError::Internal(_))),
                "workers={workers}: {:?}",
                results[1]
            );
            assert!(results[2].is_ok());
        }
    }

    #[test]
    fn retries_force_fallback_and_stay_deterministic() {
        // VIC without calibration fails its first attempt; one retry with
        // the ladder forced on delivers a circuit.
        let context = HardwareContext::new(Topology::ibmq_20_tokyo());
        let job = BatchJob::new(ring_spec(6), CompileOptions::vic().with_retries(1), 42);
        let no_retry = BatchJob::new(ring_spec(6), CompileOptions::vic(), 42);
        let results = compile_batch(&context, &[job.clone(), no_retry], 2);
        let recovered = results[0].as_ref().unwrap().template();
        assert!(recovered.trace().degraded());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &CompileError::MissingCalibration
        );
        // Retried results are a pure function of the job: serial and
        // parallel agree bit-for-bit.
        let serial = compile_batch(&context, &[job], 1);
        let s = serial[0].as_ref().unwrap().template();
        assert_eq!(s.physical(), recovered.physical());
        assert_eq!(s.final_layout(), recovered.final_layout());
    }

    #[test]
    fn unrecoverable_failures_are_not_retried() {
        // The program cannot fit: retrying cannot help and must not mask
        // the real error with fallback noise.
        let context = HardwareContext::new(Topology::ibmq_16_melbourne());
        let too_big = ring_spec(40);
        let jobs = vec![BatchJob::new(
            too_big,
            CompileOptions::ic().with_retries(3),
            7,
        )];
        let results = compile_batch(&context, &jobs, 1);
        assert!(matches!(
            results[0],
            Err(CompileError::ProgramTooLarge { .. })
        ));
    }

    #[test]
    fn degenerate_worker_counts_are_clamped() {
        let context = HardwareContext::new(Topology::ibmq_16_melbourne());
        let jobs = vec![BatchJob::new(ring_spec(5), CompileOptions::ic(), 9)];
        // Zero workers clamps to one; huge counts clamp to the job count.
        assert!(compile_batch(&context, &jobs, 0)[0].is_ok());
        assert!(compile_batch(&context, &jobs, 64)[0].is_ok());
        assert!(compile_batch(&context, &[], 4).is_empty());
    }
}
