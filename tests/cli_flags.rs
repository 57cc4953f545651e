//! Every subcommand rejects unknown and repeated flags before it runs
//! anything: a typo'd flag must never run a different experiment or
//! overwrite a sweep's report.

use std::path::PathBuf;
use std::process::Command;

use rapid_transit::cli::{RUN_FLAGS, SWEEP_FLAGS};

const SWEEPS: [&str; 5] = ["faults", "crashes", "soak", "integrity", "tail"];

/// Run `rapid-transit <args>` and assert it exits 2 without printing
/// anything to stdout (nothing ran), naming `bad` and the accepted flags.
fn assert_refused(args: &[&str], bad: &str, accepted: &str) {
    let result = Command::new(env!("CARGO_BIN_EXE_rapid-transit"))
        .args(args)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(bad), "{args:?}: {stderr}");
    assert!(stderr.contains(accepted), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} ran: {stdout}");
}

/// [`assert_refused`] for a sweep given `--out`, which must stay unwritten.
fn assert_sweep_refused(args: &[&str], out: &str, bad: &str) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let _ = std::fs::remove_file(&out);
    let args = [args, &["--out", out.to_str().unwrap()]].concat();
    assert_refused(&args, bad, "--out FILE, --smoke, --check");
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn sweeps_reject_unknown_and_repeated_flags() {
    assert_sweep_refused(
        &["faults", "--smoke", "--chek"],
        "cli_flags_typo.json",
        "\"--chek\"",
    );
    for sweep in SWEEPS {
        let out = format!("cli_flags_{sweep}.json");
        assert_sweep_refused(&[sweep, "--chek"], &out, "\"--chek\"");
        assert_sweep_refused(
            &[sweep, "--smoke", "--smoke"],
            &out,
            "--smoke given more than once",
        );
    }
}

#[test]
fn commands_reject_unknown_and_repeated_flags() {
    assert_refused(
        &["run", "--patern", "lfp", "--hegde", "5", "--blocks", "200"],
        "\"--patern\"",
        "--pattern P",
    );
    assert_refused(
        &["run", "--prefetch", "--prefetch"],
        "--prefetch given more than once",
        "--prefetch",
    );
    assert_refused(&["grid", "--cvs"], "\"--cvs\"", "accepted: --csv");
    assert_refused(
        &["lead", "gw", "--bogus"],
        "\"--bogus\"",
        "accepted: PATTERN",
    );
}

#[test]
fn usage_lists_every_run_and_sweep_flag() {
    let result = Command::new(env!("CARGO_BIN_EXE_rapid-transit"))
        .arg("help")
        .output()
        .expect("binary runs");
    let usage = String::from_utf8_lossy(&result.stdout);
    for flag in RUN_FLAGS.iter().chain(SWEEP_FLAGS) {
        assert!(usage.contains(flag.name()), "USAGE omits {}", flag.name());
    }
}
