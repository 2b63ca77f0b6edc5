//! `qaoac` reports invalid user input as an error, not a panic: exit
//! status 1 and a `qaoac: <msg>` line, never a backtrace.

use std::process::Command;

fn qaoac(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qaoac"))
        .args(args)
        .output()
        .expect("run qaoac")
}

#[test]
fn bad_inputs_exit_1_without_panicking() {
    for args in [
        &["--packing", "0"][..],
        &["--strategy", "ip", "--packing", "0"][..],
        &["--nodes", "24", "--device", "melbourne"][..],
    ] {
        let out = qaoac(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("qaoac: "), "{args:?}: {stderr}");
    }
}
