//! Integration tests against the real `btfluid` binary: the selfcheck
//! oracle's exit-code contract, and the hard-error behaviour of the arg
//! parser (unknown flags, retired flags and commands, unparseable
//! numerics).

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
fn zero_replications_is_a_config_error() {
    for cmd in ["validate", "adapt"] {
        let (code, _stdout, stderr) = run(&[cmd, "--reps", "0"]);
        assert_eq!(code, 2, "{cmd} --reps 0: stderr:\n{stderr}");
        assert!(stderr.contains("replication"), "{cmd}: stderr:\n{stderr}");
    }
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

#[test]
fn retired_perf_command_is_an_unknown_command() {
    // The benchmark package is the one performance measure; the old
    // `perf` observatory is gone, with every one of its flags.
    for args in [&["perf"][..], &["perf", "--check"], &["perf", "--help"]] {
        let (code, _stdout, stderr) = run(args);
        assert_eq!(code, 1, "{args:?}\nstderr:\n{stderr}");
        assert!(
            stderr.contains("unknown command 'perf'"),
            "{args:?}\nstderr:\n{stderr}"
        );
    }
}

#[test]
fn flags_a_command_does_not_read_are_rejected() {
    // Each flag below is real, but owned by another command (or, for
    // sweep, in conflict with --workload). Every line must die as a
    // usage error naming the command and the flag, before any work.
    let dir = std::env::temp_dir().join("btfluid_flag_rejection");
    let manifest = dir.join("m.jsonl");
    let manifest = manifest.to_str().unwrap();
    let cases: [(&[&str], &[&str]); 12] = [
        (
            &["sim", "--checkpoint", "c.snap", "--resume"],
            &["sim", "--checkpoint"],
        ),
        (&["sim", "--trace", "t.jsonl"], &["sim", "--trace"]),
        (&["validate", "--aggregate"], &["validate", "--aggregate"]),
        (&["fig4a", "--points", "5"], &["fig4a", "--points"]),
        (
            &["repro", "no-such-bundle", "--seed", "3"],
            &["repro", "--seed"],
        ),
        (
            &["profile", "--flightrec", "f.jsonl"],
            &["profile", "--flightrec"],
        ),
        (&["chaos", "--csv"], &["chaos", "--csv"]),
        (&["trace", "gen", "--csv"], &["trace gen", "--csv"]),
        (
            &[
                "sweep",
                "--workload",
                "F",
                "--p",
                "0.3",
                "--manifest",
                manifest,
            ],
            &["sweep", "--p conflicts with --workload"],
        ),
        (
            &[
                "sweep",
                "--workload",
                "F",
                "--k",
                "4",
                "--manifest",
                manifest,
            ],
            &["sweep", "--k conflicts with --workload"],
        ),
        (
            &[
                "sweep",
                "--workload",
                "F",
                "--horizon",
                "90",
                "--manifest",
                manifest,
            ],
            &["sweep", "--horizon conflicts with --workload"],
        ),
        (
            &["sweep", "--bins", "4", "--manifest", manifest],
            &["sweep", "--bins needs --workload"],
        ),
    ];
    for (args, fragments) in cases {
        let (code, _stdout, stderr) = run(args);
        assert_eq!(code, 1, "{args:?}\nstderr:\n{stderr}");
        for fragment in fragments {
            assert!(
                stderr.contains(fragment),
                "{args:?}: no '{fragment}' in\n{stderr}"
            );
        }
    }
    assert!(!dir.exists(), "a rejected line must not start a sweep");
}

#[test]
fn help_answers_before_positional_arguments() {
    // `--help` exits 0 with the command's own synopsis, whatever
    // positional argument precedes it.
    let cases: [(&[&str], &str); 7] = [
        (
            &["scenario", "--help"],
            "USAGE: btfluid scenario <NAME|list>",
        ),
        (&["trace", "--help"], "USAGE: btfluid trace <subcommand>"),
        (
            &["sweep", "--manifest", "m.jsonl", "--help"],
            "USAGE: btfluid sweep",
        ),
        (
            &["scenario", "flash_crowd", "--help"],
            "USAGE: btfluid scenario",
        ),
        (&["inspect", "--help"], "USAGE: btfluid inspect <TRACE>"),
        (&["repro", "--help"], "USAGE: btfluid repro <BUNDLE-DIR>"),
        (
            &["trace", "replay", "--help"],
            "USAGE: btfluid trace replay [--in FILE]",
        ),
    ];
    for (args, usage) in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, 0, "{args:?}\nstderr:\n{stderr}");
        assert!(stdout.starts_with(usage), "{args:?}:\n{stdout}");
    }
}
