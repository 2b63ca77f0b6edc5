//! The repository benchmark. One command takes a workload name and a
//! seed, generates that workload's inputs, drives the compile stack
//! through its public entry points, checks every output against a
//! reference that does not come from the compiler under test, and prints
//! the end-to-end metrics (or, traced, the per-layer metrics) ending with
//! one JSON line.
//!
//! Workloads: `compile_corpus` (closed-loop compiles), `qaoa_loop`
//! (closed-loop optimizer evaluations) and `serve_zipf` (open-loop
//! requests into `qserve`). See `perfbench/README.md` for what each
//! metric means on each workload and which layer should move it.

pub mod check;
pub mod corpus;
pub mod qaoaloop;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use std::time::{Duration, Instant};

use bench::workloads::{instances, Family};
use qgraph::Graph;
use report::Report;

/// Seed of the device calibration tables. Calibration is a property of
/// the device, not of the workload, so it stays fixed across run seeds.
pub const CALIBRATION_SEED: u64 = 0x00CA_11B8;

/// `count` graphs of `family` on `n` nodes from
/// `bench::workloads::instances`, each the median-edge-count graph of
/// five consecutive candidates: the seed changes the instances but barely
/// their sizes, so seed-to-seed spread of the size-driven metrics stays
/// small.
pub fn typical_instances(family: Family, n: usize, count: usize, seed: u64) -> Vec<Graph> {
    const CANDIDATES: usize = 5;
    instances(family, n, count * CANDIDATES, seed)
        .chunks(CANDIDATES)
        .map(|c| {
            let mut by_size: Vec<&Graph> = c.iter().collect();
            by_size.sort_by_key(|g| g.edge_count());
            by_size[CANDIDATES / 2].clone()
        })
        .collect()
}

/// Set-up is timed this many times per run; `setup_s` is the best.
pub const SETUP_REPS: usize = 24;

/// Set-up timings spread through a run. The run's own set-up is the
/// first; the workload re-times its set-up whenever [`Setups::due`] says
/// another slice of the run has passed, and [`Setups::finish`] tops the
/// count up to [`SETUP_REPS`] after the timed part. `setup_s` is the
/// best of them: host contention comes and goes over seconds and only
/// ever slows set-up down, so repetitions spread over the run filter it
/// where repetitions back to back, all in one moment, cannot.
pub struct Setups {
    times: Vec<f64>,
    start: Instant,
    slice: Duration,
}

impl Setups {
    /// Re-timings spread over a run of `seconds`.
    pub fn new(seconds: f64) -> Setups {
        Setups {
            times: Vec::with_capacity(SETUP_REPS),
            start: Instant::now(),
            slice: Duration::from_secs_f64(seconds / SETUP_REPS as f64),
        }
    }

    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = setup();
        self.times.push(start.elapsed().as_secs_f64());
        out
    }

    /// Whether the next re-timing is due.
    pub fn due(&self) -> bool {
        self.times.len() < SETUP_REPS && self.start.elapsed() >= self.slice * self.times.len() as u32
    }

    /// Re-times `setup` until there are [`SETUP_REPS`] timings.
    pub fn finish<T>(&mut self, mut setup: impl FnMut() -> T) {
        while self.times.len() < SETUP_REPS {
            self.time(&mut setup);
        }
    }

    /// The best timing, seconds.
    pub fn best(&self) -> f64 {
        stats::min(&self.times)
    }

    /// One line describing the timings.
    pub fn describe(&self) -> String {
        let sorted = stats::sorted(self.times.clone());
        format!(
            "set-up best {:.4} s of {} spread through the run (median {:.4} s, worst {:.4} s)",
            self.best(),
            sorted.len(),
            stats::quantile(&sorted, 0.5),
            sorted.last().copied().unwrap_or(0.0)
        )
    }
}

/// Every workload compiles QAOA at levels p = 1..=LEVELS.
pub const LEVELS: usize = 2;

/// End-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("depth_sum", "count"),
    ("cx_sum", "count"),
    ("esp_geomean", "prob"),
    ("approx_ratio", "ratio"),
];

/// Per-layer metrics every traced run prints, with units. A layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("qhw.context_build_us", "us"),
    ("mapping.tokyo.self_us", "us"),
    ("mapping.heavy_hex.self_us", "us"),
    ("ordering.self_us", "us"),
    ("ip.layers", "count"),
    ("route.self_us", "us"),
    ("route.swaps", "count"),
    ("ic.tokyo.self_us", "us"),
    ("ic.heavy_hex.self_us", "us"),
    ("ic.layers", "count"),
    ("ic.swaps", "count"),
    ("basis.self_us", "us"),
    ("basis.gates_out", "count"),
    ("compile.unattributed_us", "us"),
    ("ladder.fallbacks", "count"),
    ("ladder.first_rung_ratio", "ratio"),
    ("strategy.qaim.tokyo.p50_us", "us"),
    ("strategy.ip.tokyo.p50_us", "us"),
    ("strategy.ic.tokyo.p50_us", "us"),
    ("strategy.vic.tokyo.p50_us", "us"),
    ("strategy.ic.heavy_hex.p50_us", "us"),
    ("strategy.vic.heavy_hex.p50_us", "us"),
    ("bind.self_us", "us"),
    ("bind.gates", "count"),
    ("sim.self_us", "us"),
    ("sim.gate_amp_ops", "count"),
    ("sim.bytes_moved", "B"),
    ("expect.self_us", "us"),
    ("optimizer.self_us", "us"),
    ("admit.self_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidated", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("backlog.max", "count"),
    ("queue.wait_us", "us"),
    ("compile.miss_us", "us"),
    ("gen.late_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, with the threads each runs.
pub const WORKLOADS: [(&str, usize); 3] = [
    ("compile_corpus", corpus::THREADS),
    ("qaoa_loop", qaoaloop::THREADS),
    ("serve_zipf", serve::THREADS),
];

/// Derives an independent stream seed from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Records the timing metrics of a closed loop from `quiet`, the
/// latencies left after filtering host contention out of `samples` (see
/// [`stats::best_per_class`]): `p50_us`,
/// `p99_us` (printing which percentile and how many samples lie beyond
/// it) and `ops_per_s` as operations per second of operation time.
pub fn closed_loop_metrics(report: &mut Report, samples: &[stats::Sample], quiet: Vec<f64>) {
    let all = stats::sorted(samples.iter().map(|s| s.us).collect());
    let quiet = stats::sorted(quiet);
    let t = stats::tail(&quiet);
    report.metric("ops_per_s", 1e6 / stats::mean(&quiet), "1/s");
    report.metric("p50_us", stats::quantile(&quiet, 0.5), "us");
    report.metric("p99_us", t.value, "us");
    println!(
        "timings use {} of {} operations after filtering host contention; p99_us is their {}th percentile ({} beyond it); \
         unfiltered p50 {:.2} us, p99 {:.2} us",
        quiet.len(),
        all.len(),
        t.percentile,
        t.beyond,
        stats::quantile(&all, 0.5),
        stats::tail(&all).value
    );
}

/// Prints the tracing overhead and records it as `trace.overhead_pct`.
pub fn print_overhead(report: &mut Report, untraced_p50: f64, traced_p50: f64, what: &str) {
    let pct = if untraced_p50 > 0.0 {
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0
    } else {
        0.0
    };
    println!(
        "tracing overhead: {what} p50 untraced {untraced_p50:.2} us, traced {traced_p50:.2} us ({pct:+.2}%)"
    );
    report.metric("trace.overhead_pct", pct, "%");
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` for `seconds` and returns its report; `None` for an
/// unknown workload. Traced runs record spans into `tracer`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tracer: &mut spans::Tracer,
) -> Option<Report> {
    let mut report = Report::default();
    match workload {
        "compile_corpus" => corpus::run(
            seed,
            seconds,
            trace,
            &corpus::CorpusSpec::full(),
            &mut report,
            tracer,
        ),
        "qaoa_loop" => qaoaloop::run(
            seed,
            seconds,
            trace,
            &qaoaloop::LoopSpec::full(),
            &mut report,
            tracer,
        ),
        "serve_zipf" => serve::run(seed, seconds, trace, &mut report, tracer),
        _ => return None,
    }
    complete(&mut report, workload, trace);
    Some(report)
}

/// Adds the metrics every workload shares and fills idle layers, so a
/// run prints exactly the metric set its mode promises.
pub fn complete(report: &mut Report, workload: &str, trace: bool) {
    if trace {
        for (name, unit) in PER_LAYER {
            if report.get(name).is_none() {
                println!("  {name}: 0, layer idle on {workload}");
                report.metric(name, 0.0, unit);
            }
        }
    } else {
        if report.get("ok_ratio").is_none() {
            let ratio = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
            report.metric("ok_ratio", ratio.max(0.0), "ratio");
        }
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        for (name, _) in END_TO_END {
            let recorded = report.get(name).is_some();
            report
                .checks
                .check(recorded, || format!("{workload} did not record {name}"));
        }
    }
}
