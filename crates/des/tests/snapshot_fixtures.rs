//! Checked-in snapshots pin the on-disk byte layout.
//!
//! Each fixture under `tests/fixtures/` was written mid-run by an earlier
//! build. The current build must decode it, restore an engine from it and
//! snapshot that engine back to the same bytes, produce the same bytes
//! itself when it cuts the same run at the same step, and resume it to the
//! outcome of an uninterrupted run. A change to the in-memory peer or group
//! layout that leaks into the format fails here, even when the in-build
//! round trip of `snapshot_resume` still holds.
//!
//! Regenerate (only on a deliberate format change, with a version bump):
//! `cargo test -p btfluid-des --test snapshot_fixtures -- --ignored`.

use btfluid_des::config::{DesConfig, SchemeKind};
use btfluid_des::engine::Simulation;
use btfluid_des::snapshot::Snapshot;
use std::path::PathBuf;

/// One pinned run: its config and the step count at which it was cut.
struct Fixture {
    file: &'static str,
    scheme: SchemeKind,
    aggregate: bool,
    seed: u64,
    cut: usize,
}

const FIXTURES: [Fixture; 2] = [
    Fixture {
        file: "mtcd_aggregate.snap",
        scheme: SchemeKind::Mtcd,
        aggregate: true,
        seed: 7,
        cut: 300,
    },
    Fixture {
        file: "cmfsd_incremental.snap",
        scheme: SchemeKind::Cmfsd { rho: 0.5 },
        aggregate: false,
        seed: 7,
        cut: 300,
    },
];

fn cfg(f: &Fixture) -> DesConfig {
    let mut cfg = DesConfig::paper_small(f.scheme, 0.5, f.seed).unwrap();
    cfg.horizon = 400.0;
    cfg.warmup = 100.0;
    cfg.drain = 400.0;
    cfg.aggregate = f.aggregate;
    cfg
}

fn path(f: &Fixture) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(f.file)
}

/// The sealed snapshot of `f`'s run after `f.cut` steps.
fn cut_snapshot(f: &Fixture) -> Vec<u8> {
    let mut sim = Simulation::new(cfg(f)).unwrap();
    for _ in 0..f.cut {
        assert!(sim.step().unwrap(), "{}: run ended before the cut", f.file);
    }
    Snapshot::seal(sim.snapshot_body())
}

fn fixture_bytes(f: &Fixture) -> Vec<u8> {
    std::fs::read(path(f)).unwrap_or_else(|e| panic!("{}: {e}", f.file))
}

#[test]
fn fixtures_decode_and_reencode_to_the_same_bytes() {
    for f in &FIXTURES {
        let bytes = fixture_bytes(f);
        assert!(bytes.len() < 64 * 1024, "{}: {} bytes", f.file, bytes.len());
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.events(), f.cut as u64, "{}", f.file);
        let restored = Simulation::restore(cfg(f), &snap).unwrap();
        assert!(
            Snapshot::seal(restored.snapshot_body()) == bytes,
            "{}: re-snapshot after restore differs",
            f.file
        );
    }
}

#[test]
fn this_build_writes_the_fixture_bytes() {
    for f in &FIXTURES {
        assert!(
            cut_snapshot(f) == fixture_bytes(f),
            "{}: snapshot bytes moved",
            f.file
        );
    }
}

#[test]
fn fixtures_resume_to_the_straight_run() {
    for f in &FIXTURES {
        let straight = Simulation::new(cfg(f)).unwrap().run();
        let snap = Snapshot::from_bytes(&fixture_bytes(f)).unwrap();
        let mut resumed = Simulation::restore(cfg(f), &snap).unwrap();
        while resumed.step().unwrap() {}
        // `Debug` prints every float in shortest round-trip form, so equal
        // text means equal bits.
        assert_eq!(
            format!("{:?}", resumed.finish()),
            format!("{straight:?}"),
            "{}",
            f.file
        );
    }
}

#[test]
#[ignore = "rewrites the checked-in fixtures"]
fn write_fixtures() {
    for f in &FIXTURES {
        let p = path(f);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        Snapshot::write_file_bytes(&p, &cut_snapshot(f)).unwrap();
    }
}
