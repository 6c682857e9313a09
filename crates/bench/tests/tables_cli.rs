//! The `tables` binary checks its arguments before it evaluates any
//! machine: an unknown flag or table id prints the usage line and exits 2,
//! `--help` prints it and exits 0.

use std::process::Command;

/// Runs `tables` with `args`: exit code, stdout, stderr.
fn tables(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("spawn tables");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flag_exits_2_before_evaluating() {
    let (code, _, stderr) = tables(&["--quick", "--no-exact", "--quik"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stderr.contains("evaluating"), "{stderr}");
    assert!(stderr.contains("usage: tables"), "{stderr}");
}

#[test]
fn unknown_table_id_exits_2_before_evaluating() {
    let (code, _, stderr) = tables(&["--quick", "--no-exact", "table9"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stderr.contains("evaluating"), "{stderr}");
    assert!(stderr.contains("usage: tables"), "{stderr}");
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for flag in ["-h", "--help"] {
        let (code, stdout, stderr) = tables(&[flag]);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.contains("usage: tables"), "{stdout}");
        assert!(!stderr.contains("evaluating"), "{stderr}");
    }
}
