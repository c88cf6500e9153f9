//! Integration tests against the real `btfluid` binary: the selfcheck
//! oracle's exit-code contract, and the hard-error behaviour of the arg
//! parser (unknown flags, retired flags, unparseable numerics).

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn btfluid");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn selfcheck_quick_tier_is_green() {
    let (code, stdout, stderr) = run(&["selfcheck", "--seed", "7"]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("checks passed"),
        "missing summary line:\n{stdout}"
    );
    assert!(
        stdout.contains("mutation-canary") && stdout.contains("cli-arg-round-trip"),
        "expected checks missing from table:\n{stdout}"
    );
    assert!(
        !stdout.contains("FAIL"),
        "table reports failures:\n{stdout}"
    );
}

#[test]
fn selfcheck_expect_fail_exits_with_invariant_code() {
    // The canary corrupts a live rate cache; detection must surface as the
    // invariant-violation exit code (4), proving the whole path from the
    // engine audit to the process exit status.
    let (code, _stdout, stderr) = run(&["selfcheck", "--expect-fail"]);
    assert_eq!(code, 4, "stderr:\n{stderr}");
    assert!(
        stderr.contains("rate-cache drift"),
        "detection detail missing:\n{stderr}"
    );
}

#[test]
fn unknown_flag_is_a_hard_usage_error() {
    let (code, _stdout, stderr) = run(&["fig2", "--frobnicate"]);
    assert_eq!(code, 1, "stderr:\n{stderr}");
    assert!(stderr.contains("frobnicate"), "stderr:\n{stderr}");
}

#[test]
fn unparseable_numeric_is_a_hard_usage_error() {
    let (code, _stdout, stderr) = run(&["sim", "--scheme", "mtsd", "--p", "abc"]);
    assert_eq!(code, 1, "stderr:\n{stderr}");
    assert!(stderr.contains("abc"), "stderr:\n{stderr}");

    let (code, _stdout, stderr) = run(&["validate", "--seed", "12x"]);
    assert_eq!(code, 1, "stderr:\n{stderr}");
    assert!(stderr.contains("12x"), "stderr:\n{stderr}");
}

#[test]
fn retired_exact_flag_is_an_unknown_option() {
    // The forced-full-recompute mode is a test-only reference now; every
    // command that once took `--exact` must refuse it as a usage error.
    let cases: [&[&str]; 5] = [
        &["sim", "--scheme", "mtsd"],
        &["profile", "--scheme", "mtsd"],
        &["scenario", "flash_crowd", "--smoke"],
        &["sweep", "--manifest", "unused.jsonl"],
        &["trace", "replay", "--in", "unused.csv"],
    ];
    for args in cases {
        let argv: Vec<&str> = args.iter().copied().chain(["--exact"]).collect();
        let (code, _stdout, stderr) = run(&argv);
        assert_eq!(code, 1, "{argv:?}\nstderr:\n{stderr}");
        assert!(
            stderr.contains("unknown option --exact"),
            "{argv:?}\nstderr:\n{stderr}"
        );
    }
}
