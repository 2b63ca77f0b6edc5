//! Hit-cost guard: a cache hit on a resubmitted program must cost the
//! same whatever the program's size. The service keeps the spec's
//! fingerprint with the spec and a resubmitted clone shares the cached
//! key's body, so neither locating the bucket nor verifying the key may
//! walk the program.
//!
//! One `workers: 0` service is warmed with a 10-CPHASE and a
//! 1000-CPHASE program; rounds of hits on clones of each are then timed
//! interleaved, so clock and scheduler drift hit both sizes equally,
//! and the best of many rounds keeps the least-disturbed one. A hit
//! cost that grew with the program would read ~40x here.
//!
//! Ignored by default because it is a timing assertion; CI runs it
//! explicitly (`cargo test --release -p qserve --test hit_cost -- --ignored`).

use std::time::Instant;

use qcompile::{CompileOptions, CphaseOp, QaoaSpec};
use qhw::Topology;
use qserve::{Outcome, Request, Service, ServiceConfig};

const ROUNDS: usize = 30;
const HITS: usize = 200;
const MAX_RATIO: f64 = 2.0;

/// `levels` copies of the first `edges` pairs of the complete graph on
/// `n` qubits.
fn program(n: usize, edges: usize, levels: usize) -> QaoaSpec {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .take(edges)
        .collect();
    assert_eq!(pairs.len(), edges, "not enough pairs on {n} qubits");
    let level = |k: usize| {
        let ops = pairs
            .iter()
            .map(|&(a, b)| CphaseOp::new(a, b, 0.5 + 0.01 * k as f64))
            .collect();
        (ops, 0.3)
    };
    QaoaSpec::new(n, (0..levels).map(level).collect(), true)
}

/// Best per-hit wall time over one round of `HITS` hits on clones of
/// `request`; the clones are made before the clock starts.
fn time_round(service: &Service, request: &Request) -> f64 {
    let batch: Vec<Request> = (0..HITS).map(|_| request.clone()).collect();
    let start = Instant::now();
    for request in batch {
        assert_eq!(service.call(request).outcome, Outcome::Hit);
    }
    start.elapsed().as_secs_f64() / HITS as f64
}

#[test]
#[ignore = "timing assertion; run explicitly on a quiet machine/CI step"]
fn hit_cost_does_not_grow_with_program_size() {
    let service = Service::new(
        Topology::grid(5, 5),
        None,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let small = Request::new(0, program(5, 10, 1), CompileOptions::ic(), 7);
    let big = Request::new(0, program(20, 100, 10), CompileOptions::ic(), 7);
    assert_eq!(small.spec.total_cphase_count(), 10);
    assert_eq!(big.spec.total_cphase_count(), 1000);
    for request in [&small, &big] {
        let warmed = service.warm(request.clone());
        assert_eq!(warmed.outcome, Outcome::Miss);
        assert!(warmed.result.is_ok(), "{:?}", warmed.result);
    }

    let (mut best_small, mut best_big) = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        best_small = best_small.min(time_round(&service, &small));
        best_big = best_big.min(time_round(&service, &big));
    }
    let ratio = best_big / best_small;
    eprintln!(
        "hit: 10 CPHASEs {:.0} ns, 1000 CPHASEs {:.0} ns, ratio {ratio:.2}",
        best_small * 1e9,
        best_big * 1e9
    );
    assert!(
        ratio <= MAX_RATIO,
        "a hit on the 1000-CPHASE program costs {ratio:.1}x the 10-CPHASE one \
         (budget {MAX_RATIO}x): hit cost grows with program size"
    );
}
