//! `qstat` — render the `qserve` ops plane as a per-tenant text
//! dashboard.
//!
//! Usage:
//!
//! ```text
//! qstat <manifest.json> [--journal <path>] [--tenant <id>] [--top 8]
//! ```
//!
//! The manifest is a qtrace run artifact (`--manifest` output of
//! `serve_load`/`serve_chaos`) carrying the `qserve/` series family;
//! the optional journal is the matching `--journal` JSON-lines file.
//! `--tenant` narrows the dashboard (and the journal tallies) to one
//! tenant; `--top` caps the hot-spec table. Exit status: 0 on success,
//! 2 on usage/parse errors.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::qstat::{dashboard, journal_tallies, render};
use qtrace::Manifest;

struct Args {
    manifest: PathBuf,
    journal: Option<PathBuf>,
    tenant: Option<u32>,
    top: usize,
}

fn usage_text() -> String {
    "usage: qstat <manifest.json> [--journal <path>] [--tenant <id>] [--top 8]\n\
     \n\
     options:\n\
     \x20 --journal <path>  tally the ops journal (JSON lines) alongside\n\
     \x20 --tenant <id>     show one tenant only (filters journal tallies too)\n\
     \x20 --top <n>         how many hot specs to list (default 8)\n\
     \x20 -h, --help        print this help and exit"
        .to_owned()
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut journal = None;
    let mut tenant = None;
    let mut top = 8;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage_text());
                std::process::exit(0);
            }
            "--journal" => {
                let Some(p) = iter.next() else { usage() };
                journal = Some(PathBuf::from(p));
            }
            "--tenant" => {
                let Some(v) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                tenant = Some(v);
            }
            "--top" => {
                let Some(v) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage();
                };
                top = v;
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
        journal,
        tenant,
        top,
    }
}

fn read(path: &PathBuf) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("qstat: cannot read {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let manifest = match Manifest::from_json(&read(&args.manifest)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("qstat: {}: bad manifest: {e}", args.manifest.display());
            std::process::exit(2);
        }
    };
    let tallies =
        args.journal
            .as_ref()
            .map(|path| match journal_tallies(&read(path), args.tenant) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("qstat: {}: {e}", path.display());
                    std::process::exit(2);
                }
            });
    let dash = dashboard(&manifest);
    print!("{}", render(&dash, tallies.as_ref(), args.tenant, args.top));
    ExitCode::SUCCESS
}
