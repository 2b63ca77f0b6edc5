//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints its metrics; the last line of
//! standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when an output check failed and 2 on
//! a usage error or a workload that would need more threads than the
//! machine has.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::spans::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, threads)) = perfbench::WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
    else {
        let names: Vec<&str> = perfbench::WORKLOADS.iter().map(|(w, _)| *w).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={nproc} threads={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if threads > nproc {
        eprintln!(
            "perfbench: {} needs {threads} threads but nproc is {nproc}; refusing to run",
            args.workload
        );
        return ExitCode::from(2);
    }

    let mut tracer = Tracer::new();
    let report = perfbench::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &mut tracer,
    )
    .expect("workload name was validated");
    if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let path = dir.join(format!(
            "perfbench-spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }
    print!("{}", report.render_table());
    for m in &report.checks.messages {
        println!("CHECK FAILED: {m}");
    }
    println!(
        "checks: {} run, {} failed",
        report.checks.run, report.checks.failed
    );
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
