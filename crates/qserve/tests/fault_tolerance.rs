//! The fault-tolerance plane, end to end: deadlines and cancellation,
//! backoff-TTL'd negative caching, poison-pill quarantine, per-tenant
//! circuit breaking and throttling, and crash-safe warm starts from the
//! spill directory. Every test runs with `workers: 0` and drives the
//! queue through `drain_one` on the logical clock, so every expiry and
//! state transition is under test control and nothing here can flake on
//! scheduling.

use std::sync::Arc;

use qcompile::{CompileError, CompileOptions, CphaseOp, QaoaSpec};
use qhw::fault::{FaultInjector, ServiceFaultPlane, SpillCorruption};
use qhw::{Calibration, Topology};
use qserve::{
    spec_fingerprint, BackoffConfig, BreakerConfig, BucketConfig, Outcome, QuarantineReason,
    Request, ServeError, Service, ServiceConfig,
};

fn line_spec(n: usize, shift: usize) -> QaoaSpec {
    let ops = (0..n - 1)
        .map(|i| CphaseOp::new(i, i + 1, 0.4 + shift as f64 * 0.01))
        .collect();
    QaoaSpec::new(n, vec![(ops, 0.3)], true)
}

fn inline_config() -> ServiceConfig {
    ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    }
}

/// A fault plane whose first `jobs` compiles all detonate `fault`-style.
fn plane(
    jobs: usize,
    panic_rate: f64,
    stall_rate: f64,
    stall_ticks: u64,
) -> Arc<ServiceFaultPlane> {
    Arc::new(ServiceFaultPlane::plan(
        9,
        jobs,
        panic_rate,
        stall_rate,
        stall_ticks,
    ))
}

#[test]
fn deadlines_reap_queued_jobs_and_forget_reservations() {
    let service = Service::new(Topology::grid(2, 3), None, inline_config());
    let request = Request::new(0, line_spec(6, 0), CompileOptions::ic(), 3);
    let ticket = service.submit(request.clone().with_deadline(2));
    assert_eq!(ticket.outcome(), Outcome::Miss);

    // Nothing dequeues; the clock leaves the job behind.
    service.advance(5);
    let response = ticket.wait();
    assert!(matches!(
        response.result.unwrap_err(),
        ServeError::DeadlineExceeded { deadline, now } if now > deadline
    ));
    assert_eq!(service.stats().deadline_reaped, 1);

    // A deadline lapse is not a verdict on the key: the reservation was
    // forgotten, not negatively cached, so the key re-admits cleanly.
    let retry = service.submit(request);
    assert_eq!(retry.outcome(), Outcome::Miss);
    assert!(service.drain_one());
    assert!(retry.wait().result.is_ok());
}

#[test]
fn stalled_compiles_cancel_at_the_deadline_in_flight() {
    // The first compile stalls 100 ticks — far past the 4-tick deadline
    // — so the cooperative token cancels it at a pass boundary.
    let config = ServiceConfig {
        fault_plane: Some(plane(1, 0.0, 1.0, 100)),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let request = Request::new(0, line_spec(6, 0), CompileOptions::ic(), 3);
    let ticket = service.submit(request.clone().with_deadline(4));
    assert!(service.drain_one());
    assert!(matches!(
        ticket.wait().result.unwrap_err(),
        ServeError::DeadlineExceeded { .. }
    ));

    // The fault plane is exhausted: the retry compiles cleanly after
    // the timeout's backoff TTL lapses.
    service.advance(64);
    let retry = service.submit(request);
    assert_eq!(retry.outcome(), Outcome::Miss);
    assert!(service.drain_one());
    assert!(retry.wait().result.is_ok());
}

#[test]
fn panicked_compiles_are_contained_attributed_and_retried_after_backoff() {
    let config = ServiceConfig {
        fault_plane: Some(plane(1, 1.0, 0.0, 0)),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let spec = line_spec(6, 0);
    let request = Request::new(3, spec.clone(), CompileOptions::ic(), 3);

    let ticket = service.submit(request.clone());
    assert!(service.drain_one());
    let error = ticket.wait().result.unwrap_err();
    // The containment error names the offender: spec fingerprint and
    // tenant, so one log line identifies what to quarantine or bill.
    match &error {
        ServeError::Compile(CompileError::Internal(message)) => {
            assert!(message.contains(&format!("{:#018x}", spec_fingerprint(&spec))));
            assert!(message.contains("tenant 3"));
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }

    // Within the backoff TTL the failure serves from cache.
    let cached = service.submit(request.clone());
    assert_eq!(cached.outcome(), Outcome::Hit);
    assert_eq!(cached.wait().result.unwrap_err(), error);

    // Past the TTL the entry expires into a retry, which succeeds (the
    // fault plane scheduled only one panic).
    service.advance(64);
    let retry = service.submit(request);
    assert_eq!(retry.outcome(), Outcome::Miss);
    assert!(service.drain_one());
    assert!(retry.wait().result.is_ok());
    let stats = service.stats();
    assert_eq!(stats.negative_expired, 1);
    assert_eq!(stats.quarantined_specs, 0, "one strike is not quarantine");
}

#[test]
fn repeated_panics_quarantine_the_spec_until_released() {
    let config = ServiceConfig {
        quarantine_threshold: 2,
        backoff: BackoffConfig {
            base_ticks: 1,
            max_ticks: 4,
            ..BackoffConfig::default()
        },
        fault_plane: Some(plane(16, 1.0, 0.0, 0)),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let spec = line_spec(6, 0);
    let spec_fp = spec_fingerprint(&spec);
    let request = Request::new(0, spec.clone(), CompileOptions::ic(), 3);

    for strike in 1..=2u32 {
        let ticket = service.submit(request.clone());
        assert_eq!(ticket.outcome(), Outcome::Miss, "strike {strike} admitted");
        assert!(service.drain_one());
        assert!(ticket.wait().result.is_err());
        service.advance(8); // let the backoff TTL lapse
    }

    // Two strikes hit the threshold: the program fails fast now —
    // under *every* option set, because quarantine keys on the spec.
    let rejected = service.call(request.clone());
    assert_eq!(rejected.outcome, Outcome::Quarantined);
    assert_eq!(
        rejected.result.unwrap_err(),
        ServeError::Quarantined {
            spec_fp,
            reason: QuarantineReason::Panicked { strikes: 2 },
        }
    );
    let other_options = service.call(Request::new(0, spec, CompileOptions::qaim_only(), 3));
    assert_eq!(other_options.outcome, Outcome::Quarantined);
    let stats = service.stats();
    assert_eq!(stats.quarantine_rejects, 2);
    assert_eq!(stats.quarantined_specs, 1);

    // Release lifts it: the next request is admitted again.
    assert!(service.release_quarantine(spec_fp));
    assert!(!service.release_quarantine(spec_fp), "already released");
    let retry = service.submit(request);
    assert_eq!(retry.outcome(), Outcome::Miss);
}

#[test]
fn breaker_trips_on_one_tenant_and_spares_the_others() {
    let config = ServiceConfig {
        quarantine_threshold: 0, // isolate the breaker
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 8,
        },
        fault_plane: Some(plane(16, 1.0, 0.0, 0)),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let request = |shift: usize, tenant: u32| {
        Request::new(tenant, line_spec(6, shift), CompileOptions::ic(), 3)
    };

    // Two consecutive failures trip tenant 0's breaker.
    for shift in 0..2 {
        let ticket = service.submit(request(shift, 0));
        assert!(service.drain_one());
        assert!(ticket.wait().result.is_err());
    }
    let rejected = service.call(request(2, 0));
    assert_eq!(rejected.outcome, Outcome::BreakerOpen);
    assert!(matches!(
        rejected.result.unwrap_err(),
        ServeError::CircuitOpen { tenant: 0, retry_in } if retry_in <= 8
    ));

    // Tenant 1 is untouched: its miss is admitted (and tried).
    let innocent = service.submit(request(3, 1));
    assert_eq!(innocent.outcome(), Outcome::Miss);
    assert!(service.drain_one());
    assert!(innocent.wait().result.is_err(), "the compile still fails");

    // Cooldown over: the half-open probe is admitted, fails, re-trips.
    service.advance(9);
    let probe = service.submit(request(4, 0));
    assert_eq!(probe.outcome(), Outcome::Miss, "half-open probe admitted");
    assert!(service.drain_one());
    assert!(probe.wait().result.is_err());
    let stats = service.stats();
    assert_eq!(
        stats.breaker_trips, 2,
        "the trip and the failed-probe re-trip"
    );
    assert_eq!(stats.breaker_rejects, 1);
}

/// A half-open probe admission that a *later* gate rejects dispatches
/// no compile, so no completion can ever resolve the half-open state —
/// the probe slot must be returned, or the tenant's compile path fails
/// fast forever (a permanent lockout triggered exactly under the
/// overload that tripped the breaker).
#[test]
fn throttled_probe_returns_the_breaker_slot() {
    let config = ServiceConfig {
        quarantine_threshold: 0, // isolate the breaker
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 4,
        },
        bucket: Some(BucketConfig {
            capacity: 1,
            refill_ticks: 8,
        }),
        fault_plane: Some(plane(16, 1.0, 0.0, 0)),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let request = |shift: usize| Request::new(0, line_spec(6, shift), CompileOptions::ic(), 3);

    // One failure trips the breaker; the miss also spent the token.
    let ticket = service.submit(request(0));
    assert!(service.drain_one());
    assert!(ticket.wait().result.is_err());

    // Cooldown over, but the bucket is dry: the probe admission is
    // throttled before it can queue.
    service.advance(5);
    let throttled = service.call(request(1));
    assert_eq!(throttled.outcome, Outcome::Throttled);

    // The probe slot came back: once a token refills, the next miss is
    // admitted as the probe instead of failing fast forever.
    service.advance(2); // past the 8-tick refill interval
    let probe = service.submit(request(2));
    assert_eq!(
        probe.outcome(),
        Outcome::Miss,
        "the throttled probe was aborted, not leaked"
    );
    assert!(service.drain_one());
    assert!(
        probe.wait().result.is_err(),
        "the probe compile still fails"
    );
}

/// Same leak through the deadline plane: a queued probe reaped before
/// dispatch never completes, so the reap must return the probe slot.
#[test]
fn deadline_reaped_probe_returns_the_breaker_slot() {
    let config = ServiceConfig {
        quarantine_threshold: 0,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 4,
        },
        fault_plane: Some(plane(16, 1.0, 0.0, 0)),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let request = |shift: usize| Request::new(0, line_spec(6, shift), CompileOptions::ic(), 3);

    let ticket = service.submit(request(0));
    assert!(service.drain_one());
    assert!(
        ticket.wait().result.is_err(),
        "one failure trips the breaker"
    );

    // The probe queues with a deadline and nothing dequeues it
    // (workers: 0): the sweep reaps it before any worker reports.
    service.advance(5);
    let reaped = service.submit(request(1).with_deadline(2));
    assert_eq!(reaped.outcome(), Outcome::Miss, "probe admitted");
    service.advance(5);
    assert!(matches!(
        reaped.wait().result.unwrap_err(),
        ServeError::DeadlineExceeded { .. }
    ));

    // The reap returned the slot: the next miss probes again.
    let probe = service.submit(request(2));
    assert_eq!(
        probe.outcome(),
        Outcome::Miss,
        "the reaped probe was aborted, not leaked"
    );
}

/// Exactly one half-open probe decides the breaker. A straggler queued
/// before the trip and finishing after the probe was admitted is not
/// that probe: it must neither close the breaker in the probe's place
/// nor keep the probe's failure from re-tripping it.
#[test]
fn straggler_cannot_decide_a_half_open_breaker() {
    let config = ServiceConfig {
        quarantine_threshold: 0, // isolate the breaker
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 4,
        },
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    // A 7-qubit program cannot fit the 6-qubit device: it always fails.
    let failing = |shift: usize| Request::new(0, line_spec(7, shift), CompileOptions::ic(), 3);

    // Two failures, then a good job, all queued before any completes.
    let first = service.submit(failing(0));
    let second = service.submit(failing(1));
    let straggler = service.submit(Request::new(0, line_spec(6, 0), CompileOptions::ic(), 3));
    assert!(service.drain_one() && service.drain_one());
    assert!(first.wait().result.is_err() && second.wait().result.is_err());
    assert_eq!(service.stats().breaker_trips, 1, "two failures trip it");

    // Cooldown over: a failing probe is admitted behind the straggler.
    service.advance(5);
    let probe = service.submit(failing(2));
    assert_eq!(probe.outcome(), Outcome::Miss, "half-open probe admitted");
    assert!(service.drain_one());
    assert!(straggler.wait().result.is_ok(), "the straggler compiles");
    assert!(service.drain_one());
    assert!(probe.wait().result.is_err());

    // The probe's failure re-tripped the breaker; the straggler decided
    // nothing, so the next miss fails fast.
    assert_eq!(service.stats().breaker_trips, 2);
    assert_eq!(service.call(failing(3)).outcome, Outcome::BreakerOpen);
    let journal = service.take_journal();
    assert!(journal.iter().all(|event| event.code != "breaker_close"));
    let trips: Vec<Option<u64>> = journal
        .iter()
        .filter(|event| event.code == "breaker_trip")
        .map(|event| event.request)
        .collect();
    assert_eq!(
        trips,
        vec![Some(2), Some(4)],
        "request 2 trips, probe 4 re-trips"
    );
}

/// The token bucket charges compiles that actually queue: a request
/// rejected under overload must not drain the tenant's budget (or a
/// tenant would pay tokens for rejections all through an overload and
/// then be throttled once capacity frees up).
#[test]
fn overload_rejection_does_not_charge_the_bucket() {
    let config = ServiceConfig {
        queue_capacity: 0, // every miss is overload
        bucket: Some(BucketConfig {
            capacity: 1,
            refill_ticks: 1_000,
        }),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let request = |shift: usize| Request::new(0, line_spec(6, shift), CompileOptions::ic(), 3);

    // Both rejections surface as Overloaded — with the token charged
    // first, the second would burn the budget and report Throttled.
    for shift in 0..2 {
        let rejected = service.call(request(shift));
        assert_eq!(rejected.outcome, Outcome::Rejected);
    }
    let stats = service.stats();
    assert_eq!((stats.rejected, stats.throttled), (2, 0));
}

#[test]
fn token_bucket_charges_misses_only_and_refills_on_the_clock() {
    let config = ServiceConfig {
        bucket: Some(BucketConfig {
            capacity: 1,
            refill_ticks: 4,
        }),
        ..inline_config()
    };
    let service = Service::new(Topology::grid(2, 3), None, config);
    let request = |shift: usize| Request::new(0, line_spec(6, shift), CompileOptions::ic(), 3);

    // The single token pays for the first miss.
    let first = service.submit(request(0));
    assert_eq!(first.outcome(), Outcome::Miss);
    assert!(service.drain_one());
    assert!(first.wait().result.is_ok());

    // The bucket is dry: a second miss fails fast…
    let throttled = service.call(request(1));
    assert_eq!(throttled.outcome, Outcome::Throttled);
    assert_eq!(
        throttled.result.unwrap_err(),
        ServeError::Throttled { tenant: 0 }
    );

    // …but hits are free — serving an Arc clone needs no protection.
    assert_eq!(service.call(request(0)).outcome, Outcome::Hit);

    // A refill interval buys one more compile.
    service.advance(4);
    assert_eq!(service.submit(request(2)).outcome(), Outcome::Miss);
    assert_eq!(service.stats().throttled, 1);
}

#[test]
fn warm_start_recovers_spills_and_drops_stale_vic_entries() {
    let dir = std::env::temp_dir().join(format!("qserve_warm_start_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::grid(2, 3);
    let cal_a = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
    let cal_b = Calibration::uniform(&topo, 0.03, 0.002, 0.03);
    let config = || ServiceConfig {
        spill_dir: Some(dir.clone()),
        ..inline_config()
    };
    // 5 specs × {IC, VIC} = 10 spilled artifacts.
    let keys: Vec<(QaoaSpec, CompileOptions)> = (0..5)
        .flat_map(|shift| {
            let spec = line_spec(6, shift);
            [
                (spec.clone(), CompileOptions::ic()),
                (spec, CompileOptions::vic()),
            ]
        })
        .collect();

    // First incarnation: warm everything, then "crash" (drop).
    {
        let service = Service::new(topo.clone(), Some(cal_a.clone()), config());
        for (spec, options) in &keys {
            assert!(service
                .warm(Request::new(0, spec.clone(), *options, 3))
                .result
                .is_ok());
        }
        assert_eq!(service.stats().spill_saved, keys.len() as u64);
    }

    // Torn write on one file: recovery must skip exactly that one.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "qart"))
        .collect();
    files.sort();
    assert_eq!(files.len(), keys.len());
    FaultInjector::new(3)
        .corrupt_spill_file(&files[0], SpillCorruption::Truncate)
        .unwrap();

    // Same-calibration restart: >= 90% of the artifacts come back and
    // serve as first-request hits without a single compile.
    {
        let service = Service::new(topo.clone(), Some(cal_a), config());
        let stats = service.stats();
        assert_eq!(stats.spill_recovered, keys.len() as u64 - 1);
        assert_eq!(stats.spill_corrupt, 1);
        assert!(stats.spill_recovered as f64 >= 0.9 * keys.len() as f64);
        let tickets: Vec<_> = keys
            .iter()
            .map(|(spec, options)| service.submit(Request::new(0, spec.clone(), *options, 3)))
            .collect();
        let hits = tickets
            .iter()
            .filter(|ticket| ticket.outcome() == Outcome::Hit)
            .count();
        assert_eq!(hits, keys.len() - 1, "every recovered artifact hits");
        // Drain the one recompile so its artifact is spilled again for
        // the next incarnation.
        while service.drain_one() {}
        for ticket in tickets {
            assert!(ticket.wait().result.is_ok());
        }
    }

    // Changed-calibration restart: VIC spills are stale-epoch and must
    // be dropped — serving one would hand out reliability mappings
    // computed against dead calibration data.
    {
        let service = Service::new(topo, Some(cal_b), config());
        assert_eq!(service.stats().spill_stale, 5, "all five VIC spills die");
        for (spec, options) in &keys {
            let outcome = service
                .submit(Request::new(0, spec.clone(), *options, 3))
                .outcome();
            if matches!(
                options.compilation,
                qcompile::Compilation::IncrementalReliability
            ) {
                assert_eq!(outcome, Outcome::Miss, "no stale-epoch VIC entry serves");
            } else {
                assert_eq!(outcome, Outcome::Hit, "calibration-free entries survive");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
