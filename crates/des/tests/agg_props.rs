//! Property tests for the aggregate (class-group) completion cache:
//! group totals against the per-peer allocator, exact member enumeration
//! across the slab's SoA layout, and the from-scratch audit under
//! join/leave/seed-transition mutation cycles.

use btfluid_core::FluidParams;
use btfluid_des::config::SchemeKind;
use btfluid_des::peer::{Peer, Phase};
use btfluid_des::rate::compute_rates;
use btfluid_des::{AggCache, DesConfig, Simulation};
use btfluid_workload::CorrelationModel;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const K: usize = 6;
/// Aggregate mode requires a homogeneous ρ (Adapt is rejected), so every
/// generated peer carries the scheme's ρ.
const RHO: f64 = 0.5;

const ALL_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Mtsd,
    SchemeKind::Mtcd,
    SchemeKind::Mfcd,
    SchemeKind::Cmfsd { rho: RHO },
];

/// Strategy: a random peer in a consistent state (some prefix of its
/// request set finished, or a full real seed).
fn rand_peer(id: u64) -> impl Strategy<Value = Peer> {
    (
        prop::collection::btree_set(0u16..K as u16, 1..=K),
        any::<bool>(),
        0usize..K,
    )
        .prop_map(move |(files, seeding_all, progress)| {
            let files: Vec<u16> = files.into_iter().collect();
            let n = files.len();
            let order: Vec<usize> = (0..n).collect();
            let mut p = Peer::new(id, 0.0, files, order, RHO);
            if seeding_all {
                for s in 0..n {
                    p.slots[s].remaining = 0.0;
                    p.slots[s].completed_at = Some(1.0);
                }
                p.cursor = n;
                p.phase = Phase::SeedingAll;
            } else {
                let done = progress.min(n - 1);
                for s in 0..done {
                    let slot = p.order(s);
                    p.slots[slot].remaining = 0.0;
                    p.slots[slot].completed_at = Some(1.0);
                }
                p.cursor = done;
            }
            p
        })
}

fn population() -> impl Strategy<Value = Vec<Peer>> {
    prop::collection::vec(any::<u64>(), 1..20).prop_flat_map(|ids| {
        ids.into_iter()
            .enumerate()
            .map(|(i, _)| rand_peer(i as u64))
            .collect::<Vec<_>>()
    })
}

/// Builds the cache by incremental registration with a refresh between
/// steps, so the dirty tracking (not one full build) produces the state.
fn build_incrementally(
    peers: &[Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    origin: usize,
) -> AggCache {
    let mut a = AggCache::new(K, scheme, params, origin);
    a.grow(peers.len());
    let mut changed = Vec::new();
    for idx in 0..peers.len() {
        a.register(idx, peers);
        a.refresh(0.0, false, &mut changed);
        changed.clear();
    }
    a
}

/// Independent reimplementation of the membership rules: which
/// `(peer, slot)` pairs belong to each `(file, class, band)` group.
#[allow(clippy::type_complexity)]
fn expected_members(
    peers: &[Peer],
    scheme: SchemeKind,
) -> BTreeMap<(usize, usize, u8), BTreeSet<(u32, u32)>> {
    let mut m: BTreeMap<(usize, usize, u8), BTreeSet<(u32, u32)>> = BTreeMap::new();
    for (idx, p) in peers.iter().enumerate() {
        let class = p.class();
        match scheme {
            SchemeKind::Mtsd => {
                if p.phase == Phase::Downloading {
                    let slot = p.current_slot();
                    m.entry((p.slots[slot].file as usize, class, 0))
                        .or_default()
                        .insert((idx as u32, slot as u32));
                }
            }
            SchemeKind::Mtcd | SchemeKind::Mfcd => {
                if p.phase != Phase::Departed {
                    for slot in 0..class {
                        if !p.finished(slot) {
                            m.entry((p.slots[slot].file as usize, class, 0))
                                .or_default()
                                .insert((idx as u32, slot as u32));
                        }
                    }
                }
            }
            SchemeKind::Cmfsd { .. } => {
                if p.phase == Phase::Downloading {
                    let slot = p.current_slot();
                    let band = u8::from(p.done_count() >= 1);
                    m.entry((p.slots[slot].file as usize, class, band))
                        .or_default()
                        .insert((idx as u32, slot as u32));
                }
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn group_rate_is_sum_of_member_rates(peers in population(), origin in 0usize..3) {
        // The class-total service rate of every group must equal the sum
        // of its members' per-peer rates from the reference allocator.
        // Summation orders differ (n·w/W·P vs. Σ w/W·P), so the agreement
        // is numeric, not bitwise.
        let params = FluidParams::paper();
        for scheme in ALL_SCHEMES {
            let a = build_incrementally(&peers, scheme, &params, origin);
            let full = compute_rates(&peers, scheme, &params, K, origin);
            let mut sums = vec![0.0f64; a.n_groups()];
            for d in &full.downloads {
                let p = &peers[d.peer_idx];
                let band = match scheme {
                    SchemeKind::Cmfsd { .. } => u8::from(p.done_count() >= 1),
                    _ => 0,
                };
                let g = a.gid(p.slots[d.slot].file as usize, p.class(), band);
                sums[g as usize] += d.rate;
            }
            for g in 0..a.n_groups() as u32 {
                let expect = sums[g as usize];
                let got = a.group_rate(g);
                let tol = 1e-9 * expect.abs().max(1.0);
                prop_assert!(
                    (got - expect).abs() <= tol,
                    "{}: group {g}: class total {got} vs Σ member rates {expect}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn sampling_enumerates_every_live_member_exactly_once(
        peers in population(),
        origin in 0usize..3,
    ) {
        // Uniform member sampling indexes 0..group_len; that range must
        // enumerate exactly the live members — no duplicates, no free-list
        // slots, nothing missing — for every group across the SoA layout.
        let params = FluidParams::paper();
        for scheme in ALL_SCHEMES {
            let a = build_incrementally(&peers, scheme, &params, origin);
            let expected = expected_members(&peers, scheme);
            for g in 0..a.n_groups() as u32 {
                let key = (
                    a.group_file(g),
                    a.group_class(g),
                    a.group_band(g),
                );
                let want = expected.get(&key).cloned().unwrap_or_default();
                let got: BTreeSet<(u32, u32)> =
                    (0..a.group_len(g)).map(|i| a.group_member(g, i)).collect();
                prop_assert_eq!(
                    got.len(),
                    a.group_len(g),
                    "{}: group {g} enumerates duplicates",
                    scheme.name()
                );
                prop_assert_eq!(
                    &got,
                    &want,
                    "{}: group {g} members diverge from the registration rules",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn audit_holds_under_join_leave_and_seed_transitions(
        peers in population(),
        origin in 0usize..3,
    ) {
        // Deregister → mutate (complete the current file / depart / join)
        // → re-register → refresh must keep every weight, pool, integer
        // aggregate, and group rate bitwise equal to a from-scratch
        // rebuild at every step.
        let params = FluidParams::paper();
        for scheme in [SchemeKind::Mtcd, SchemeKind::Cmfsd { rho: RHO }] {
            let mut peers = peers.clone();
            let mut a = build_incrementally(&peers, scheme, &params, origin);
            let mut changed = Vec::new();
            if let Err(d) = a.audit(&peers) {
                prop_assert!(false, "{}: initial audit: {d}", scheme.name());
            }
            for idx in 0..peers.len() {
                match peers[idx].phase {
                    Phase::Downloading => {
                        // Seed transition: finish the current file.
                        a.deregister(idx, &peers);
                        let slot = peers[idx].current_slot();
                        peers[idx].slots[slot].remaining = 0.0;
                        peers[idx].slots[slot].completed_at = Some(2.0);
                        peers[idx].cursor += 1;
                        if peers[idx].cursor >= peers[idx].class() {
                            peers[idx].phase = Phase::SeedingAll;
                        }
                        a.register(idx, &peers);
                    }
                    Phase::SeedingAll => {
                        // Leave: the seed departs for good.
                        a.deregister(idx, &peers);
                        peers[idx].phase = Phase::Departed;
                    }
                    _ => continue,
                }
                a.refresh(0.0, false, &mut changed);
                changed.clear();
                if let Err(d) = a.audit(&peers) {
                    prop_assert!(false, "{}: audit after mutating {idx}: {d}", scheme.name());
                }
            }
            // Join: two fresh arrivals extend the slab.
            for extra in 0..2u64 {
                let files: Vec<u16> = (0..=(extra as u16 % K as u16)).collect();
                let n = files.len();
                let p = Peer::new(1000 + extra, 3.0, files, (0..n).collect(), RHO);
                peers.push(p);
                let idx = peers.len() - 1;
                a.grow(peers.len());
                a.register(idx, &peers);
                a.refresh(0.0, false, &mut changed);
                changed.clear();
                if let Err(d) = a.audit(&peers) {
                    prop_assert!(false, "{}: audit after join {idx}: {d}", scheme.name());
                }
            }
        }
    }
}

/// The scaling point the `des` bench times at `lambda0` (one origin seed,
/// seed 7): horizon, warm-up and drain shrink as `λ₀` grows so each point
/// dispatches a comparable number of events.
fn scale_config(scheme: SchemeKind, lambda0: f64, aggregate: bool) -> DesConfig {
    let (horizon, warmup, drain) = match lambda0 {
        32.0 => (150.0, 40.0, 80.0),
        512.0 => (40.0, 10.0, 20.0),
        _ => unreachable!("no scaling point at λ₀ = {lambda0}"),
    };
    let mut cfg = DesConfig::paper_small(scheme, 0.5, 7).expect("valid");
    cfg.model = CorrelationModel::new(10, 0.5, lambda0).expect("valid");
    cfg.horizon = horizon;
    cfg.warmup = warmup;
    cfg.drain = drain;
    cfg.origin_seeds = 1;
    cfg.aggregate = aggregate;
    cfg
}

/// Runs the MTSD scaling point at `lambda0` in aggregate mode; returns
/// `(rate_recomputes, agg_rate_updates per dispatched event)`.
fn agg_scale_point(lambda0: f64) -> (u64, f64) {
    let mut sim = Simulation::new(scale_config(SchemeKind::Mtsd, lambda0, true)).expect("valid");
    while sim.step().expect("step") {}
    let events = sim.events();
    assert!(events > 0, "λ₀ = {lambda0}: no events");
    let c = sim.counters();
    (c.rate_recomputes, c.agg_rate_updates as f64 / events as f64)
}

/// The work behind the bench's aggregate flatness guard, as counts: the
/// aggregate engine never evaluates a per-download rate, and its
/// group-rate updates per event stay within 2× from λ₀ = 32 to λ₀ = 512
/// while the arrival rate grows 16×.
#[test]
fn aggregate_rate_work_per_event_is_flat_in_swarm_size() {
    let (recomputes_32, per_event_32) = agg_scale_point(32.0);
    let (recomputes_512, per_event_512) = agg_scale_point(512.0);
    assert_eq!(recomputes_32, 0, "per-download rates evaluated at λ₀ = 32");
    assert_eq!(
        recomputes_512, 0,
        "per-download rates evaluated at λ₀ = 512"
    );
    let ratio = per_event_512 / per_event_32;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "group-rate updates per event went {per_event_32:.1} → {per_event_512:.1} \
         between λ₀ = 32 and λ₀ = 512 (claim is within 2×)"
    );
}

/// Steps the incremental engine through `scheme`'s scaling point at
/// `lambda0`, asserting after every event that it evaluated no more group
/// rates than there are occupied rate groups. Returns `(group-rate
/// evaluations per event, mean active downloads)`.
fn incremental_rate_work(scheme: SchemeKind, lambda0: f64) -> (f64, f64) {
    let mut sim = Simulation::new(scale_config(scheme, lambda0, false)).expect("valid");
    let mut before = 0;
    let mut downloads = 0usize;
    while sim.step().expect("step") {
        let done = sim.counters().rate_recomputes;
        assert!(
            done - before <= sim.rate_groups() as u64,
            "{} λ₀ = {lambda0}: {} group-rate evaluations with {} occupied groups at t = {}",
            scheme.name(),
            done - before,
            sim.rate_groups(),
            sim.sim_time()
        );
        before = done;
        downloads += sim.class_downloaders().iter().sum::<usize>();
    }
    let events = sim.events() as f64;
    (before as f64 / events, downloads as f64 / events)
}

/// Incremental rate work is a count, bounded by occupied groups, not by
/// the swarm: each event evaluates at most one rate per occupied
/// `(file, u, w)` group — at most K groups under MTSD, K² under MTCD —
/// and the evaluations per event stay within 2× from λ₀ = 32 to λ₀ = 512
/// while the mean downloading swarm grows about threefold (from ~3,300
/// to ~10,300 peers under MTSD).
#[test]
fn incremental_rate_work_per_event_is_bounded_by_groups() {
    for (scheme, max_groups) in [(SchemeKind::Mtsd, 10.0), (SchemeKind::Mtcd, 100.0)] {
        let (per_event_32, swarm_32) = incremental_rate_work(scheme, 32.0);
        let (per_event_512, swarm_512) = incremental_rate_work(scheme, 512.0);
        println!(
            "{}: group-rate evaluations per event {per_event_32:.2} (λ₀ = 32, mean swarm \
             {swarm_32:.0}) → {per_event_512:.2} (λ₀ = 512, mean swarm {swarm_512:.0})",
            scheme.name()
        );
        assert!(per_event_512 <= max_groups && per_event_32 <= max_groups);
        assert!(swarm_512 >= 2.0 * swarm_32, "the swarm did not grow");
        let ratio = per_event_512 / per_event_32;
        assert!(
            ratio <= 2.0,
            "{}: evaluations per event went {per_event_32:.2} → {per_event_512:.2} \
             between λ₀ = 32 and λ₀ = 512 (claim is within 2×)",
            scheme.name()
        );
    }
}

/// Steps the incremental engine through `scheme`'s scaling point at
/// `lambda0`, with service ten times faster than the paper's (μ = 0.2,
/// γ = 0.5) so that seeds and source sets form within the short horizons
/// at both swarm sizes, draining the rate cache's summed weight, demand
/// and pool terms after every event. Asserts after every event that the
/// terms stay within the occupied groups plus `2·K` per live source set
/// (a set over `m` files costs at most `m` demand and `m` pool terms).
/// Returns `(terms per event, mean live source sets)`.
fn rate_terms(scheme: SchemeKind, lambda0: f64) -> (f64, f64) {
    let mut cfg = scale_config(scheme, lambda0, false);
    cfg.params = FluidParams::new(0.2, 0.5, 0.5).expect("valid");
    let mut sim = Simulation::new(cfg).expect("valid");
    let (mut terms, mut sets) = (0u64, 0usize);
    while sim.step().expect("step") {
        let (now, live) = sim.take_rate_terms();
        let groups = sim.rate_groups();
        assert!(
            now as usize <= groups + 2 * 10 * live,
            "{} λ₀ = {lambda0}: {now} terms with {groups} groups and {live} sets at t = {}",
            scheme.name(),
            sim.sim_time()
        );
        terms += now;
        sets += live;
    }
    let events = sim.events() as f64;
    (terms as f64 / events, sets as f64 / events)
}

/// The incremental engine's aggregates are sums over counts: the weight,
/// demand and pool terms it sums per event stay within 2× from λ₀ = 32 to
/// λ₀ = 512 under MTSD, MTCD and MFCD while the swarm grows about
/// fivefold, and under CMFSD they are bounded by the live source sets,
/// not by the swarm.
#[test]
fn incremental_rate_terms_are_counts_not_swarm_size() {
    for scheme in [SchemeKind::Mtsd, SchemeKind::Mtcd, SchemeKind::Mfcd] {
        let (per_event_32, sets_32) = rate_terms(scheme, 32.0);
        let (per_event_512, sets_512) = rate_terms(scheme, 512.0);
        println!(
            "{}: terms per event {per_event_32:.2} (λ₀ = 32, {sets_32:.1} sets) → \
             {per_event_512:.2} (λ₀ = 512, {sets_512:.1} sets)",
            scheme.name()
        );
        assert!(sets_32 > 1.0 && sets_512 > 1.0, "no seeds formed");
        let ratio = per_event_512 / per_event_32;
        assert!(
            ratio <= 2.0,
            "{}: terms per event went {per_event_32:.2} → {per_event_512:.2} between \
             λ₀ = 32 and λ₀ = 512 (claim is within 2×)",
            scheme.name()
        );
    }
    let (per_event, sets) = rate_terms(SchemeKind::Cmfsd { rho: 0.5 }, 32.0);
    println!("CMFSD: terms per event {per_event:.1} over {sets:.1} live sets (λ₀ = 32)");
}
