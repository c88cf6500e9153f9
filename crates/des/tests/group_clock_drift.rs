//! Per-record agreement with the per-download engine that group virtual
//! clocks replaced.
//!
//! `tests/fixtures/per_download_records.txt` holds the user records of the
//! engine that settled each download's remaining work on its own, for
//! eight configurations covering all four schemes, Adapt, warm start,
//! rarest-first ordering and origin seeds. Group clocks read a download's
//! remaining work as `mark − V` instead, so float bits may differ. The
//! records must not move beyond that: the same event count, the same
//! record order (ids and classes), and departure, download span, online
//! time and final ρ within 1e-9 relative.
//!
//! The fixture was written by the per-download engine (commit a167a3c)
//! with this file copied into `crates/des/tests/` and
//! `cargo test --release -p btfluid-des --test group_clock_drift -- --ignored`.
//! Rerunning that writer on a later engine rewrites the reference, so it
//! is for a deliberate re-anchoring only.

use btfluid_core::adapt::AdaptConfig;
use btfluid_des::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind, Simulation};
use btfluid_workload::CorrelationModel;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Largest relative deviation any record field may show.
const TOL: f64 = 1e-9;

fn base(scheme: SchemeKind) -> DesConfig {
    let mut cfg = DesConfig::paper_small(scheme, 0.5, 7).unwrap();
    cfg.horizon = 600.0;
    cfg.warmup = 150.0;
    cfg.drain = 600.0;
    cfg
}

/// The pinned configurations, by label.
fn configs() -> Vec<(&'static str, DesConfig)> {
    let mtsd = base(SchemeKind::Mtsd);
    let mtcd = base(SchemeKind::Mtcd);
    let mut mfcd = base(SchemeKind::Mfcd);
    mfcd.origin_seeds = 1;
    let cmfsd = base(SchemeKind::Cmfsd { rho: 0.3 });
    let mut adapt = base(SchemeKind::Cmfsd { rho: 0.3 });
    adapt.adapt = Some(AdaptSetup {
        controller: AdaptConfig::default_for_mu(adapt.params.mu()),
        epoch: 40.0,
        cheater_fraction: 0.2,
    });
    adapt.order_policy = OrderPolicy::RarestFirst;
    adapt.origin_seeds = 1;
    let mut warm = base(SchemeKind::Cmfsd { rho: 0.5 });
    warm.warm_start = true;
    let mut rarest = base(SchemeKind::Mtsd);
    rarest.order_policy = OrderPolicy::RarestFirst;
    rarest.origin_seeds = 1;
    // A larger swarm: long-lived groups whose clocks run far from zero.
    let mut crowd = base(SchemeKind::Mtcd);
    crowd.model = CorrelationModel::new(10, 0.5, 4.0).unwrap();
    crowd.horizon = 400.0;
    crowd.warmup = 100.0;
    crowd.drain = 400.0;
    crowd.origin_seeds = 1;
    vec![
        ("mtsd", mtsd),
        ("mtcd", mtcd),
        ("mfcd-origin", mfcd),
        ("cmfsd", cmfsd),
        ("cmfsd-adapt-rarest-origin", adapt),
        ("cmfsd-warm", warm),
        ("mtsd-rarest-origin", rarest),
        ("mtcd-crowd", crowd),
    ]
}

/// The records of every configuration in the fixture's text form: a
/// `config` header line, then one line per record. `{:?}` prints floats in
/// shortest round-trip form, so the text is exact.
fn render() -> String {
    let mut out = String::new();
    for (label, cfg) in configs() {
        let o = Simulation::new(cfg).unwrap().run();
        writeln!(
            out,
            "config {label} events {} records {}",
            o.events,
            o.records.len()
        )
        .unwrap();
        for r in &o.records {
            writeln!(
                out,
                "{} {} {:?} {:?} {:?} {:?}",
                r.id, r.class, r.departure, r.download_span, r.online_fluid, r.final_rho
            )
            .unwrap();
        }
    }
    out
}

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/per_download_records.txt")
}

fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }
}

#[test]
fn records_match_the_per_download_engine() {
    let fixture = std::fs::read_to_string(path()).expect("fixture present");
    let actual = render();
    let (want, got): (Vec<&str>, Vec<&str>) = (fixture.lines().collect(), actual.lines().collect());
    assert_eq!(want.len(), got.len(), "record line counts differ");
    let mut worst = (0.0f64, String::new());
    let mut label = "";
    for (w, g) in want.iter().zip(&got) {
        if w.starts_with("config ") {
            assert_eq!(w, g, "event or record count moved");
            label = w;
            continue;
        }
        let (wf, gf): (Vec<&str>, Vec<&str>) = (w.split(' ').collect(), g.split(' ').collect());
        assert_eq!(wf[..2], gf[..2], "{label}: record order moved");
        for (i, name) in ["departure", "download_span", "online_fluid", "final_rho"]
            .iter()
            .enumerate()
        {
            let (a, b): (f64, f64) = (gf[2 + i].parse().unwrap(), wf[2 + i].parse().unwrap());
            let d = rel(a, b);
            assert!(
                d <= TOL,
                "{label}: user {} {name} {a} vs {b} ({d:e})",
                wf[0]
            );
            if d > worst.0 {
                worst = (d, format!("{label}: user {} {name}", wf[0]));
            }
        }
    }
    println!("largest relative deviation {:e} ({})", worst.0, worst.1);
}

#[test]
#[ignore = "rewrites the per-download reference records"]
fn write_fixture() {
    let p = path();
    std::fs::create_dir_all(p.parent().unwrap()).unwrap();
    std::fs::write(&p, render()).unwrap();
}
