//! A checked-in hybrid snapshot pins the envelope's byte layout.
//!
//! The fixture under `tests/fixtures/` was cut mid-discrete, so it embeds
//! an engine snapshot body. The current build must resume it and snapshot
//! the resumed runner back to the same bytes, write the same bytes itself
//! when it cuts the same run at the same boundary, and finish the resumed
//! run bit-identical to an uninterrupted one.
//!
//! Regenerate (only on a deliberate format change, with a version bump):
//! `cargo test -p btfluid-hybrid --test snapshot_fixture -- --ignored`.

use btfluid_des::SchemeKind;
use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridRunner, Regime};
use std::path::PathBuf;

/// Decision boundaries stepped before the cut: still in the initial
/// discrete ramp.
const CUT: usize = 1;

fn cfg() -> HybridConfig {
    HybridConfig {
        program: amplified_flash_crowd(512.0, 0.005),
        scheme: SchemeKind::Mtcd,
        seed: 29,
        tol: 0.1,
        aggregate: true,
    }
}

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mtcd_discrete.snap")
}

fn cut_snapshot() -> Vec<u8> {
    let mut runner = HybridRunner::new(cfg()).unwrap();
    for _ in 0..CUT {
        assert!(runner.step_boundary().unwrap(), "run ended before the cut");
    }
    assert_eq!(
        runner.regime(),
        Regime::Discrete,
        "the cut must embed an engine"
    );
    runner.snapshot()
}

fn fixture_bytes() -> Vec<u8> {
    std::fs::read(path()).unwrap_or_else(|e| panic!("{}: {e}", path().display()))
}

#[test]
fn fixture_resumes_and_resnapshots_to_the_same_bytes() {
    let bytes = fixture_bytes();
    assert!(bytes.len() < 64 * 1024, "{} bytes", bytes.len());
    let runner = HybridRunner::resume(cfg(), &bytes).unwrap();
    assert_eq!(runner.regime(), Regime::Discrete);
    assert!(
        runner.snapshot() == bytes,
        "re-snapshot after resume differs"
    );
}

#[test]
fn this_build_writes_the_fixture_bytes() {
    assert!(
        cut_snapshot() == fixture_bytes(),
        "hybrid snapshot bytes moved"
    );
}

#[test]
fn fixture_resumes_to_the_straight_run() {
    let straight = HybridRunner::run(cfg()).unwrap();
    let mut resumed = HybridRunner::resume(cfg(), &fixture_bytes()).unwrap();
    while resumed.step_boundary().unwrap() {}
    // `Debug` prints every float in shortest round-trip form, so equal
    // text means equal bits.
    assert_eq!(format!("{:?}", resumed.finish()), format!("{straight:?}"));
}

#[test]
#[ignore = "rewrites the checked-in fixture"]
fn write_fixture() {
    std::fs::write(path(), cut_snapshot()).unwrap();
}
