//! The sweep subcommands reject unknown and repeated flags before they run
//! anything: a typo'd flag must never run a sweep and overwrite its report.

use std::path::{Path, PathBuf};
use std::process::Command;

const SWEEPS: [&str; 5] = ["faults", "crashes", "soak", "integrity", "tail"];

/// Run `rapid-transit <args> --out <out>` and assert it exits 2 before
/// running the sweep, naming `bad` and writing nothing.
fn assert_rejected(args: &[&str], out: &Path, bad: &str) {
    let _ = std::fs::remove_file(out);
    let result = Command::new(env!("CARGO_BIN_EXE_rapid-transit"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&result.stdout);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(bad), "{args:?}: {stderr}");
    assert!(
        stderr.contains("--out FILE, --smoke, --check"),
        "{args:?}: {stderr}"
    );
    assert!(!stdout.contains("running"), "{args:?} ran: {stdout}");
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn sweeps_reject_unknown_and_repeated_flags() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    assert_rejected(
        &["faults", "--smoke", "--chek"],
        &dir.join("cli_flags_typo.json"),
        "\"--chek\"",
    );
    for sweep in SWEEPS {
        let out = dir.join(format!("cli_flags_{sweep}.json"));
        assert_rejected(&[sweep, "--chek"], &out, "\"--chek\"");
        assert_rejected(
            &[sweep, "--smoke", "--smoke"],
            &out,
            "--smoke given more than once",
        );
    }
}
