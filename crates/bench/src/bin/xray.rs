//! `xray` — render a qtrace run manifest as a text flamegraph, hot-path
//! table and counter report, followed by the per-tenant serving
//! dashboard for a serving run.
//!
//! Usage:
//!
//! ```text
//! xray <manifest.json> [--top 10] [--baseline <manifest.json>] [--tenant <id>]
//!      [--journal <path>]
//! ```
//!
//! The input is the run manifest a bench binary writes with
//! `--manifest`; the Chrome trace a `--trace` run writes beside it is
//! for Perfetto and is refused. With `--baseline`, counters are shown as deltas against the
//! other manifest. When the manifest carries the `qserve/` series, or
//! `--journal` names the run's ops journal (JSON lines), the serving
//! dashboard follows: per-tenant traffic, terminals, error codes, tail
//! latencies, hot specs and journal tallies. `--tenant` narrows every
//! section to one tenant's `qserve/tenant/<id>/...` series (and the
//! journal tallies to that tenant's events); `--top` caps both the
//! hot-path and the hot-spec table. Exit status: 0 on success, 2 on
//! usage/parse errors.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{qstat, xray};
use qtrace::Manifest;

struct Args {
    manifest: PathBuf,
    top: usize,
    baseline: Option<PathBuf>,
    tenant: Option<u32>,
    journal: Option<PathBuf>,
}

fn usage_text() -> String {
    "usage: xray <manifest.json> [--top 10] [--baseline <manifest.json>] \
     [--tenant <id>] [--journal <path>]\n\
     \n\
     options:\n\
     \x20 --top <n>              how many hot paths and hot specs to list (default 10)\n\
     \x20 --baseline <manifest>  show counters as deltas against this manifest\n\
     \x20 --tenant <id>          narrow to one tenant's qserve/tenant/<id>/ series\n\
     \x20 --journal <path>       tally this ops journal (JSON lines) in the serving dashboard\n\
     \x20 -h, --help             print this help and exit"
        .to_owned()
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut top = 10;
    let mut baseline = None;
    let mut tenant = None;
    let mut journal = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            "--top" => {
                let Some(v) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                top = v;
            }
            "--baseline" => {
                let Some(p) = iter.next() else { usage() };
                baseline = Some(PathBuf::from(p));
            }
            "--tenant" => {
                let Some(v) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                tenant = Some(v);
            }
            "--journal" => {
                let Some(p) = iter.next() else { usage() };
                journal = Some(PathBuf::from(p));
            }
            _ if arg.starts_with("--") => usage(),
            _ => positional.push(PathBuf::from(arg)),
        }
    }
    if positional.len() != 1 || top == 0 {
        usage();
    }
    Args {
        manifest: positional.pop().expect("len checked"),
        top,
        baseline,
        tenant,
        journal,
    }
}

fn fail(path: &Path, e: impl Display) -> ! {
    eprintln!("xray: {}: {e}", path.display());
    std::process::exit(2);
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(path, format!("cannot read: {e}")))
}

fn load(path: &Path) -> Manifest {
    xray::parse(&read(path)).unwrap_or_else(|e| fail(path, e))
}

fn main() -> ExitCode {
    let args = parse_args();
    let manifest = load(&args.manifest);
    let baseline = args.baseline.as_deref().map(load);
    let tallies = args.journal.as_ref().map(|path| {
        qstat::journal_tallies(&read(path), args.tenant).unwrap_or_else(|e| fail(path, e))
    });
    let dash = qstat::dashboard(&manifest);
    let (view, baseline) = match args.tenant {
        Some(tenant) => (
            xray::filter_tenant(&manifest, tenant),
            baseline.map(|b| xray::filter_tenant(&b, tenant)),
        ),
        None => (manifest, baseline),
    };
    print!("{}", xray::render(&view, args.top, baseline.as_ref()));
    if !dash.is_empty() || tallies.is_some() {
        print!(
            "{}",
            qstat::render(&dash, tallies.as_ref(), args.tenant, args.top)
        );
    }
    ExitCode::SUCCESS
}
