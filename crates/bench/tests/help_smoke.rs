//! Every bench binary must answer `--help` by printing a usage string to
//! stdout and exiting 0, and a report or manifest that cannot be written
//! must fail the run with status 2 — the contracts the CI and README lean
//! on.

use std::process::Command;

/// `(name, CARGO_BIN_EXE path)` for every binary in this crate; the bins
/// are discovered from `src/bin/`, so this list is the one place they are
/// enumerated. A listed name with no binary fails to compile, but a new
/// binary missing from the list goes untested — add it here.
const BINARIES: &[(&str, &str)] = &[
    ("ablation_ic", env!("CARGO_BIN_EXE_ablation_ic")),
    ("ablation_qaim", env!("CARGO_BIN_EXE_ablation_qaim")),
    ("ablation_reverse", env!("CARGO_BIN_EXE_ablation_reverse")),
    ("ablation_routers", env!("CARGO_BIN_EXE_ablation_routers")),
    ("baseline", env!("CARGO_BIN_EXE_baseline")),
    ("chaos", env!("CARGO_BIN_EXE_chaos")),
    (
        "compile_throughput",
        env!("CARGO_BIN_EXE_compile_throughput"),
    ),
    ("disc_ring8", env!("CARGO_BIN_EXE_disc_ring8")),
    ("ext_heavy_hex", env!("CARGO_BIN_EXE_ext_heavy_hex")),
    ("ext_p_sweep", env!("CARGO_BIN_EXE_ext_p_sweep")),
    (
        "ext_stale_calibration",
        env!("CARGO_BIN_EXE_ext_stale_calibration"),
    ),
    ("fig07_qaim", env!("CARGO_BIN_EXE_fig07_qaim")),
    ("fig08_size_sweep", env!("CARGO_BIN_EXE_fig08_size_sweep")),
    ("fig09_ip_ic", env!("CARGO_BIN_EXE_fig09_ip_ic")),
    ("fig10_vic", env!("CARGO_BIN_EXE_fig10_vic")),
    ("fig11a_summary", env!("CARGO_BIN_EXE_fig11a_summary")),
    ("fig11b_arg", env!("CARGO_BIN_EXE_fig11b_arg")),
    ("fig12_packing", env!("CARGO_BIN_EXE_fig12_packing")),
    ("param_loop", env!("CARGO_BIN_EXE_param_loop")),
    ("qstat", env!("CARGO_BIN_EXE_qstat")),
    ("regress", env!("CARGO_BIN_EXE_regress")),
    ("serve_chaos", env!("CARGO_BIN_EXE_serve_chaos")),
    ("serve_load", env!("CARGO_BIN_EXE_serve_load")),
    ("xray", env!("CARGO_BIN_EXE_xray")),
];

#[test]
fn every_binary_answers_help_with_exit_zero() {
    for (name, exe) in BINARIES {
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("{name}: failed to spawn: {e}"));
        assert!(
            out.status.success(),
            "{name} --help exited {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage:"),
            "{name} --help printed no usage string:\n{stdout}"
        );
        assert!(
            stdout.contains(name),
            "{name} --help does not name the binary:\n{stdout}"
        );
    }
}

#[test]
fn short_help_flag_works_too() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig09_ip_ic"))
        .arg("-h")
        .output()
        .expect("spawn fig09_ip_ic");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn unwritable_report_exits_nonzero() {
    // The cheapest report-writing bin, pointed at a directory that does
    // not exist: the run must fail rather than print a notice and pass.
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!missing.exists());
    let out = Command::new(env!("CARGO_BIN_EXE_fig08_size_sweep"))
        .arg("1")
        .env("BENCH_OUT_DIR", &missing)
        .output()
        .expect("spawn fig08_size_sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("BENCH_fig08_size_sweep.json"), "{stderr}");
}

#[test]
fn unwritable_manifest_exits_two() {
    // The report lands in a writable directory and only `--manifest`
    // points into a missing one: that must fail the run with the same
    // status as an unwritable report.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unwritable-manifest");
    std::fs::create_dir_all(&dir).expect("create report dir");
    let manifest = dir.join("missing").join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fig08_size_sweep"))
        .arg("1")
        .arg("--manifest")
        .arg(&manifest)
        .env("BENCH_OUT_DIR", &dir)
        .output()
        .expect("spawn fig08_size_sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("could not write {}", manifest.display())),
        "{stderr}"
    );
}
