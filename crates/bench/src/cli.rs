//! Shared command-line handling for the figure binaries.
//!
//! Every `fig*` driver historically took bare positional arguments
//! (instance counts, shot counts). This module keeps that contract and
//! adds the telemetry flags all drivers share:
//!
//! * `--manifest <path>` (or `--manifest=<path>`) — enable the global
//!   [`qtrace`] recorder for the run and write the drained run manifest
//!   to `<path>` when the driver finishes.
//! * `--trace <path>` (or `--trace=<path>`) — additionally capture the
//!   event timeline and export it as Chrome Trace Format JSON, loadable
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * `--help` / `-h` — print the unified usage string and exit 0.
//!
//! Positional arguments keep their old positions regardless of where the
//! flags appear. Both output flags drain the recorder exactly once, so a
//! run may request the manifest, the trace, or both.

use std::path::{Path, PathBuf};

/// Parsed driver arguments: positionals plus the shared telemetry flags.
#[derive(Debug, Clone)]
pub struct Cli {
    figure: String,
    positional: Vec<String>,
    manifest: Option<PathBuf>,
    trace: Option<PathBuf>,
    /// Driver-specific boolean flags that were present, stored without
    /// the `--` prefix (see [`Cli::parse_with_options`]).
    flags: Vec<String>,
    /// Driver-specific valued options (`--name <value>` or
    /// `--name=<value>`), stored without the `--` prefix (see
    /// [`Cli::parse_with_options`]).
    options: Vec<(String, String)>,
}

/// The unified usage string every driver prints (`--help` on stdout,
/// malformed-flag errors on stderr).
pub fn usage(figure: &str) -> String {
    format!(
        "usage: {figure} [positional args…] [--manifest <path>] [--trace <path>]\n\
         \n\
         options:\n\
         \x20 --manifest <path>  enable telemetry; write the qtrace run manifest to <path>\n\
         \x20 --trace <path>     also capture the event timeline; write Chrome Trace Format\n\
         \x20                    JSON to <path> (open in Perfetto or chrome://tracing)\n\
         \x20 -h, --help         print this help and exit"
    )
}

impl Cli {
    /// Parses `std::env::args()` for the driver named `figure` (the name
    /// stamped into the manifest). Enables the global `qtrace` recorder
    /// when `--manifest` or `--trace` is present; `--trace` additionally
    /// turns on event capture.
    ///
    /// Prints the usage string and exits 0 on `--help`/`-h`. Exits with
    /// status 2 on a malformed flag (missing value or unknown `--`
    /// option), printing the usage hint to stderr.
    pub fn parse(figure: &str) -> Cli {
        Cli::parse_with_options(figure, &[], &[])
    }

    /// Like [`Cli::parse`], additionally accepting the listed boolean
    /// flags and valued options (`--name <value>` or `--name=<value>`),
    /// all named without the `--` prefix. A present flag is readable
    /// through [`Cli::flag`] and an option's value through [`Cli::opt`];
    /// any other `--` option still errors.
    pub fn parse_with_options(figure: &str, allowed_flags: &[&str], allowed_opts: &[&str]) -> Cli {
        match Cli::from_args(
            figure,
            std::env::args().skip(1).collect(),
            allowed_flags,
            allowed_opts,
        ) {
            Ok(None) => {
                println!("{}", usage(figure));
                std::process::exit(0);
            }
            Ok(Some(cli)) => {
                if cli.manifest.is_some() || cli.trace.is_some() {
                    qtrace::enable();
                }
                if cli.trace.is_some() {
                    qtrace::global().capture_events(true);
                }
                cli
            }
            Err(message) => {
                eprintln!("{figure}: {message}");
                eprintln!("{}", usage(figure));
                std::process::exit(2);
            }
        }
    }

    /// Flag-parsing core of [`Cli::parse_with_options`], separated from
    /// process concerns for testing. `Ok(None)` means `--help` was
    /// requested.
    pub fn from_args(
        figure: &str,
        args: Vec<String>,
        allowed_flags: &[&str],
        allowed_opts: &[&str],
    ) -> Result<Option<Cli>, String> {
        let mut positional = Vec::new();
        let mut manifest = None;
        let mut trace = None;
        let mut flags = Vec::new();
        let mut options: Vec<(String, String)> = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            } else if let Some(name) = arg
                .strip_prefix("--")
                .filter(|name| allowed_flags.contains(name))
            {
                if !flags.iter().any(|f| f == name) {
                    flags.push(name.to_owned());
                }
            } else if let Some(name) = arg
                .strip_prefix("--")
                .filter(|name| allowed_opts.contains(name))
            {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                options.retain(|(n, _)| n != name);
                options.push((name.to_owned(), value));
            } else if let Some((name, value)) = arg
                .strip_prefix("--")
                .and_then(|rest| rest.split_once('='))
                .filter(|(name, _)| allowed_opts.contains(name))
            {
                options.retain(|(n, _)| n != name);
                options.push((name.to_owned(), value.to_owned()));
            } else if arg == "--manifest" {
                let path = iter
                    .next()
                    .ok_or_else(|| "--manifest requires a path".to_owned())?;
                manifest = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--manifest=") {
                manifest = Some(PathBuf::from(path));
            } else if arg == "--trace" {
                let path = iter
                    .next()
                    .ok_or_else(|| "--trace requires a path".to_owned())?;
                trace = Some(PathBuf::from(path));
            } else if let Some(path) = arg.strip_prefix("--trace=") {
                trace = Some(PathBuf::from(path));
            } else if arg.starts_with("--") {
                return Err(format!("unknown option '{arg}'"));
            } else {
                positional.push(arg);
            }
        }
        Ok(Some(Cli {
            figure: figure.to_owned(),
            positional,
            manifest,
            trace,
            flags,
            options,
        }))
    }

    /// Whether the boolean flag `name` (without `--`) was present. Only
    /// flags listed in [`Cli::parse_with_options`] can ever be present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of the valued option `name` (without `--`), if present.
    /// Only options listed in [`Cli::parse_with_options`] can ever be
    /// present; the last occurrence wins.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `idx`-th positional argument parsed as `usize`, or `default`
    /// when absent or unparsable (the drivers' historical behavior).
    pub fn pos_usize(&self, idx: usize, default: usize) -> usize {
        self.positional
            .get(idx)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// Like [`Cli::pos_usize`] for `u32` arguments (trajectory counts).
    pub fn pos_u32(&self, idx: usize, default: u32) -> u32 {
        self.positional
            .get(idx)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// Like [`Cli::pos_usize`] for `u64` arguments (shot counts).
    pub fn pos_u64(&self, idx: usize, default: u64) -> u64 {
        self.positional
            .get(idx)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// Where the run manifest will be written, if requested.
    pub fn manifest_path(&self) -> Option<&Path> {
        self.manifest.as_deref()
    }

    /// Where the Chrome Trace Format export will be written, if requested.
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace.as_deref()
    }

    /// Drains the global recorder into a manifest named after the driver
    /// and writes the requested artifacts: the Chrome Trace Format export
    /// to `--trace`, then the manifest to `--manifest`. The recorder is
    /// drained exactly once; both files come from the same manifest, but
    /// the timeline events go only into the trace (no manifest reader
    /// uses them). No-op without either flag. Call this last, after all
    /// instrumented work.
    ///
    /// Exits with status 2 when an artifact cannot be written, as an
    /// unwritable report does.
    pub fn write_manifest(&self) {
        if self.manifest.is_none() && self.trace.is_none() {
            return;
        }
        let mut manifest = qtrace::take(&self.figure);
        if let Some(path) = self.trace.as_deref() {
            announce(
                "trace",
                path,
                qtrace::export::save_chrome_trace(&manifest, path),
            );
        }
        if let Some(path) = self.manifest.as_deref() {
            manifest.events.clear();
            announce("manifest", path, manifest.save(path));
        }
    }
}

/// Reports a written artifact, or exits 2 naming the one that failed.
fn announce(kind: &str, path: &Path, written: std::io::Result<()>) {
    match written {
        Ok(()) => println!("[wrote {kind} {}]", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses `list` with no driver-specific flags or options allowed.
    fn try_parse(list: &[&str]) -> Result<Option<Cli>, String> {
        Cli::from_args("fig", args(list), &[], &[])
    }

    fn parse(list: &[&str]) -> Cli {
        try_parse(list)
            .expect("well-formed args")
            .expect("not a help request")
    }

    #[test]
    fn positionals_survive_flag_interleaving() {
        let cli = parse(&["12", "--manifest", "m.json", "34"]);
        assert_eq!(cli.pos_usize(0, 0), 12);
        assert_eq!(cli.pos_usize(1, 0), 34);
        assert_eq!(cli.pos_usize(2, 77), 77, "absent positional falls back");
        assert_eq!(cli.manifest_path(), Some(Path::new("m.json")));
    }

    #[test]
    fn equals_form_and_absence() {
        let cli = parse(&["--manifest=out/x.json"]);
        assert_eq!(cli.manifest_path(), Some(Path::new("out/x.json")));
        let cli = parse(&["5"]);
        assert_eq!(cli.manifest_path(), None);
        assert_eq!(cli.trace_path(), None);
        assert_eq!(cli.pos_u32(0, 1), 5);
        assert_eq!(cli.pos_u64(0, 1), 5);
    }

    #[test]
    fn trace_flag_both_forms() {
        let cli = parse(&["--trace", "t.json", "7"]);
        assert_eq!(cli.trace_path(), Some(Path::new("t.json")));
        assert_eq!(cli.pos_usize(0, 0), 7);
        let cli = parse(&["--trace=out/t.json", "--manifest=m.json"]);
        assert_eq!(cli.trace_path(), Some(Path::new("out/t.json")));
        assert_eq!(cli.manifest_path(), Some(Path::new("m.json")));
    }

    #[test]
    fn help_is_recognized_in_any_position() {
        assert!(try_parse(&["--help"]).unwrap().is_none());
        assert!(try_parse(&["-h"]).unwrap().is_none());
        assert!(try_parse(&["3", "--help", "4"]).unwrap().is_none());
    }

    #[test]
    fn usage_names_every_flag() {
        let text = usage("fig09_ip_ic");
        assert!(text.starts_with("usage: fig09_ip_ic"));
        for needle in ["--manifest", "--trace", "--help"] {
            assert!(text.contains(needle), "usage lacks {needle}");
        }
    }

    #[test]
    fn malformed_flags_error() {
        assert!(try_parse(&["--manifest"]).is_err());
        assert!(try_parse(&["--trace"]).is_err());
        assert!(try_parse(&["--bogus"]).is_err());
    }

    #[test]
    fn boolean_flags_are_opt_in_per_driver() {
        // Without an allowance the flag is still an error.
        assert!(try_parse(&["--quick"]).is_err());

        let cli = Cli::from_args(
            "fig",
            args(&["--quick", "7", "--manifest=m.json"]),
            &["quick"],
            &[],
        )
        .expect("well-formed")
        .expect("not help");
        assert!(cli.flag("quick"));
        assert!(!cli.flag("deep"));
        assert_eq!(cli.pos_usize(0, 0), 7);
        assert_eq!(cli.manifest_path(), Some(Path::new("m.json")));

        // Absent flag reads false; unknown flags still error even with
        // an allowance in place.
        let cli = Cli::from_args("fig", args(&["7"]), &["quick"], &[])
            .expect("well-formed")
            .expect("not help");
        assert!(!cli.flag("quick"));
        assert!(Cli::from_args("fig", args(&["--bogus"]), &["quick"], &[]).is_err());
    }

    #[test]
    fn unparsable_positionals_fall_back() {
        let cli = parse(&["abc"]);
        assert_eq!(cli.pos_usize(0, 9), 9);
    }

    #[test]
    fn valued_options_are_opt_in_per_driver() {
        // Without an allowance the option is an error.
        assert!(try_parse(&["--journal", "j.jsonl"]).is_err());

        let cli = Cli::from_args(
            "fig",
            args(&["--quick", "--journal", "j.jsonl", "7"]),
            &["quick"],
            &["journal"],
        )
        .expect("well-formed")
        .expect("not help");
        assert!(cli.flag("quick"));
        assert_eq!(cli.opt("journal"), Some("j.jsonl"));
        assert_eq!(cli.opt("absent"), None);
        assert_eq!(cli.pos_usize(0, 0), 7);

        // Equals form works and the last occurrence wins.
        let cli = Cli::from_args(
            "fig",
            args(&["--journal=a.jsonl", "--journal=b.jsonl"]),
            &[],
            &["journal"],
        )
        .expect("well-formed")
        .expect("not help");
        assert_eq!(cli.opt("journal"), Some("b.jsonl"));

        // A missing value is a parse error, not a silent skip.
        assert!(Cli::from_args("fig", args(&["--journal"]), &[], &["journal"]).is_err());
    }
}
