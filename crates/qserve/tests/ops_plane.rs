//! Ops-plane contracts: stable error codes and lifecycle conservation.
//!
//! Two pins. First, [`ServeError::code`] is the vocabulary every
//! ops-plane artifact speaks — journal lines, per-tenant error
//! counters, `xray` breakdowns — so the mapping is pinned verbatim:
//! renaming a code silently orphans committed baselines and operator
//! runbooks. Second, the lifecycle log must *conserve* requests: every
//! admitted request reaches exactly one terminal stage, whatever mix of
//! hits, coalesced waits, sheds, rejections, reaps and deadline
//! cancellations the stream produces. The conservation test drives a
//! `workers: 0` service through `drain_one` with proptest-chosen
//! traffic (tenant mix, queue pressure, deadlines, sweep cadence), so
//! admission-path and scheduler-path terminals are both exercised
//! without any scheduling nondeterminism.

use proptest::prelude::*;
use qcompile::{CompileError, CompileOptions, CphaseOp, QaoaSpec};
use qhw::Topology;
use qserve::{QuarantineReason, Request, ServeError, Service, ServiceConfig, Stage};

fn line_spec(n: usize, shift: usize) -> QaoaSpec {
    let ops = (0..n - 1)
        .map(|i| CphaseOp::new(i, i + 1, 0.4 + shift as f64 * 0.01))
        .collect();
    QaoaSpec::new(n, vec![(ops, 0.3)], true)
}

/// The stable code table, verbatim. A change here is a breaking change
/// to every committed journal/baseline and must be deliberate.
#[test]
fn serve_error_codes_are_pinned() {
    let cases: [(ServeError, &str); 6] = [
        (
            ServeError::Overloaded {
                queued: 4,
                capacity: 4,
            },
            "overloaded",
        ),
        (
            ServeError::Compile(CompileError::DisconnectedTopology { components: 2 }),
            "compile_failed",
        ),
        (
            ServeError::DeadlineExceeded {
                deadline: 10,
                now: 12,
            },
            "deadline_exceeded",
        ),
        (
            ServeError::Quarantined {
                spec_fp: 0xAB,
                reason: QuarantineReason::Panicked { strikes: 3 },
            },
            "quarantined",
        ),
        (
            ServeError::CircuitOpen {
                tenant: 1,
                retry_in: 7,
            },
            "circuit_open",
        ),
        (ServeError::Throttled { tenant: 0 }, "throttled"),
    ];
    for (error, code) in cases {
        assert_eq!(error.code(), code, "{error:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: `admitted == sum over terminal stages`, i.e. every
    /// admitted request's trace carries exactly one terminal stage, and
    /// the log holds exactly one record per admission.
    #[test]
    fn every_admitted_request_reaches_exactly_one_terminal(
        seed in 0u64..1_000_000,
        requests in 1usize..60,
        tenants in 1u32..4,
        queue_capacity in 0usize..6,
        universe in 1usize..8,
        deadline in proptest::option::of(1u64..6),
        sweep_every in 2u64..5,
    ) {
        let service = Service::new(
            Topology::grid(2, 3),
            None,
            ServiceConfig {
                workers: 0,
                queue_capacity,
                tenants: tenants as usize,
                ..ServiceConfig::default()
            },
        );
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64: cheap, deterministic stream decisions.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut tickets = Vec::new();
        for i in 0..requests {
            let mut request = Request::new(
                next() as u32 % tenants,
                line_spec(6, next() as usize % universe),
                CompileOptions::ic(),
                3,
            );
            if let Some(ticks) = deadline {
                request = request.with_deadline(ticks);
            }
            tickets.push(service.submit(request));
            // Interleave queue drains, clock advances (which reap
            // lapsed deadlines) and idle gaps, so traces terminate via
            // every path: direct hits, worker completion, deadline
            // reap, shed/reject on queue pressure.
            match next() % 4 {
                0 => {
                    service.drain_one();
                }
                1 if (i as u64) % sweep_every == 0 => service.advance(next() % 8),
                _ => {}
            }
        }
        while service.drain_one() {}
        for ticket in tickets {
            // Outcome itself is irrelevant here; waiting just proves
            // every ticket resolved before the log is drained.
            let _ = ticket.wait();
        }

        let stats = service.stats();
        let traces = service.take_lifecycle();
        prop_assert_eq!(service.lifecycle_dropped(), 0);
        prop_assert_eq!(
            traces.len() as u64, stats.requests,
            "one lifecycle record per admitted request"
        );
        for trace in &traces {
            prop_assert_eq!(
                trace.terminal_count(), 1,
                "request {} terminals != 1: {:?}", trace.id, trace.stages
            );
            let (first_stage, _) = trace.stages[0];
            prop_assert_eq!(
                first_stage, Stage::Admitted,
                "request {} did not start at Admitted", trace.id
            );
        }
        // The terminal tally must add back up to the admission count.
        let terminals = traces
            .iter()
            .filter_map(|t| t.terminal())
            .count() as u64;
        prop_assert_eq!(terminals, stats.requests);
    }
}
