//! Bit-exact equivalence between the incremental rate engine and the
//! forced full-recompute test reference.
//!
//! The engine's incremental `RateCache` and the reference
//! (`Simulation::force_full_recompute_for_test`) run the same code path; the
//! only difference is that the reference recomputes every aggregate and
//! every rate at every event. Because recomputation re-sums ordered member
//! lists, an aggregate that did not change reproduces its bits exactly —
//! so the two must produce *identical* trajectories:
//! the same events in the same order, the same per-user records bit for
//! bit, and the same population integrals. This suite asserts that over
//! all four schemes, with and without Adapt, rarest-first ordering, origin
//! seeds, and warm start.

use btfluid_core::adapt::AdaptConfig;
use btfluid_des::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind, SimOutcome, Simulation};

/// Runs one configuration both ways and asserts bitwise identity of
/// everything `SimOutcome` carries.
fn assert_equivalent(cfg: DesConfig, label: &str) {
    let mut reference = Simulation::new(cfg.clone()).expect(label);
    reference.force_full_recompute_for_test();
    let exact = reference.run();
    let incr = Simulation::new(cfg).expect(label).run();
    assert_outcomes_identical(&exact, &incr, label);
}

fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, label: &str) {
    assert_eq!(a.events, b.events, "{label}: event counts differ");
    assert_eq!(a.arrivals, b.arrivals, "{label}: arrival counts differ");
    assert_eq!(
        a.records.len(),
        b.records.len(),
        "{label}: record counts differ"
    );
    for (i, (ra, rb)) in a.records.iter().zip(&b.records).enumerate() {
        assert_eq!(ra.id, rb.id, "{label}: record {i} id");
        assert_eq!(ra.class, rb.class, "{label}: record {i} class");
        assert_eq!(
            ra.arrival.to_bits(),
            rb.arrival.to_bits(),
            "{label}: record {i} arrival"
        );
        assert_eq!(
            ra.departure.to_bits(),
            rb.departure.to_bits(),
            "{label}: record {i} departure"
        );
        assert_eq!(
            ra.download_span.to_bits(),
            rb.download_span.to_bits(),
            "{label}: record {i} download_span"
        );
        assert_eq!(
            ra.online_fluid.to_bits(),
            rb.online_fluid.to_bits(),
            "{label}: record {i} online_fluid"
        );
        assert_eq!(
            ra.final_rho.to_bits(),
            rb.final_rho.to_bits(),
            "{label}: record {i} final_rho"
        );
        assert_eq!(ra.cheater, rb.cheater, "{label}: record {i} cheater");
    }
    let pa = &a.population;
    let pb = &b.population;
    assert_eq!(
        pa.window.to_bits(),
        pb.window.to_bits(),
        "{label}: population window"
    );
    for (name, ia, ib) in [
        (
            "downloader peers",
            &pa.downloader_peer_integral,
            &pb.downloader_peer_integral,
        ),
        (
            "download pairs",
            &pa.download_pair_integral,
            &pb.download_pair_integral,
        ),
        ("seed pairs", &pa.seed_pair_integral, &pb.seed_pair_integral),
    ] {
        for (c, (xa, xb)) in ia.iter().zip(ib).enumerate() {
            assert_eq!(
                xa.to_bits(),
                xb.to_bits(),
                "{label}: {name} integral, class {}",
                c + 1
            );
        }
    }
    assert_eq!(a.censored, b.censored, "{label}: censored counts differ");
    assert_eq!(a.inflight, b.inflight, "{label}: inflight diagnostics");
    match (&a.trajectory, &b.trajectory) {
        (None, None) => {}
        (Some(sa), Some(sb)) => {
            assert_eq!(sa.len(), sb.len(), "{label}: trajectory lengths");
            assert_eq!(sa.times(), sb.times(), "{label}: trajectory times");
            for ch in 0..2 {
                assert_eq!(
                    sa.channel(ch),
                    sb.channel(ch),
                    "{label}: trajectory channel {ch}"
                );
            }
        }
        _ => panic!("{label}: trajectory presence differs"),
    }
}

/// A shortened paper_small so the full matrix stays fast: the population
/// still reaches a few dozen concurrent peers.
fn short(scheme: SchemeKind, p: f64, seed: u64) -> DesConfig {
    let mut cfg = DesConfig::paper_small(scheme, p, seed).unwrap();
    cfg.horizon = 1200.0;
    cfg.warmup = 300.0;
    cfg.drain = 1200.0;
    cfg
}

#[test]
fn mtsd_is_bit_identical() {
    assert_equivalent(short(SchemeKind::Mtsd, 0.5, 101), "MTSD");
}

#[test]
fn mtcd_is_bit_identical() {
    assert_equivalent(short(SchemeKind::Mtcd, 0.5, 102), "MTCD");
}

#[test]
fn mfcd_is_bit_identical() {
    assert_equivalent(short(SchemeKind::Mfcd, 0.5, 103), "MFCD");
}

#[test]
fn cmfsd_is_bit_identical() {
    assert_equivalent(short(SchemeKind::Cmfsd { rho: 0.3 }, 0.6, 104), "CMFSD");
}

#[test]
fn cmfsd_with_adapt_is_bit_identical() {
    let mut cfg = short(SchemeKind::Cmfsd { rho: 0.5 }, 0.6, 105);
    cfg.adapt = Some(AdaptSetup {
        controller: AdaptConfig::default_for_mu(0.02),
        epoch: 10.0,
        cheater_fraction: 0.2,
    });
    assert_equivalent(cfg, "CMFSD+Adapt");
}

#[test]
fn cmfsd_rarest_first_with_origin_is_bit_identical() {
    let mut cfg = short(SchemeKind::Cmfsd { rho: 0.1 }, 0.4, 106);
    cfg.order_policy = OrderPolicy::RarestFirst;
    cfg.origin_seeds = 2;
    assert_equivalent(cfg, "CMFSD rarest-first + origin");
}

#[test]
fn cmfsd_warm_start_is_bit_identical() {
    let mut cfg = short(SchemeKind::Cmfsd { rho: 0.4 }, 0.5, 107);
    cfg.warm_start = true;
    assert_equivalent(cfg, "CMFSD warm start");
}

#[test]
fn mtsd_rarest_first_with_trajectory_is_bit_identical() {
    let mut cfg = short(SchemeKind::Mtsd, 0.4, 108);
    cfg.order_policy = OrderPolicy::RarestFirst;
    cfg.origin_seeds = 1;
    cfg.record_every = Some(25.0);
    assert_equivalent(cfg, "MTSD rarest-first + trajectory");
}
