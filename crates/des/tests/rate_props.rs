//! Property tests for the bandwidth allocator: conservation and
//! non-negativity over randomized peer populations.

use btfluid_core::FluidParams;
use btfluid_des::config::SchemeKind;
use btfluid_des::peer::{Peer, Phase};
use btfluid_des::rate::compute_rates;
use btfluid_des::rate_cache::RateCache;
use proptest::prelude::*;

const K: usize = 6;

const ALL_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Mtsd,
    SchemeKind::Mtcd,
    SchemeKind::Mfcd,
    SchemeKind::Cmfsd { rho: 0.5 },
];

/// The TFT upload a peer dedicates to the file of download `(peer, slot)`
/// under `scheme` — mirrors `rate::visit`, which `compute_rates` and
/// `RateCache` both read peers through.
fn member_u(scheme: SchemeKind, peer: &Peer, mu: f64) -> f64 {
    match scheme {
        SchemeKind::Mtsd => mu,
        SchemeKind::Mtcd | SchemeKind::Mfcd => mu / peer.class() as f64,
        SchemeKind::Cmfsd { .. } => {
            if peer.done_count() >= 1 {
                peer.rho * mu
            } else {
                mu
            }
        }
    }
}

/// Builds a cache over `peers` by incremental registration, refreshing
/// after every step so the dirty tracking (not a single full build) is
/// what produces the final state.
fn build_incrementally(
    peers: &mut [Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    origin: usize,
) -> RateCache {
    let mut cache = RateCache::new(K, scheme, params, origin);
    cache.grow(peers.len());
    for idx in 0..peers.len() {
        cache.register(idx, peers, 0.0);
        cache.refresh(peers, 0.0, false);
        cache.clear_changed();
    }
    cache
}

/// Asserts the cache's snapshot equals a from-scratch `compute_rates`
/// bit for bit.
fn assert_matches_full(
    cache: &RateCache,
    peers: &[Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    origin: usize,
) -> Result<(), TestCaseError> {
    let snap = cache.snapshot(peers);
    let full = compute_rates(peers, scheme, params, K, origin);
    prop_assert_eq!(snap.downloads.len(), full.downloads.len());
    for (a, b) in snap.downloads.iter().zip(&full.downloads) {
        prop_assert_eq!(a.peer_idx, b.peer_idx);
        prop_assert_eq!(a.slot, b.slot);
        prop_assert_eq!(
            a.rate.to_bits(),
            b.rate.to_bits(),
            "rate mismatch for peer {} slot {}: {} vs {}",
            a.peer_idx,
            a.slot,
            a.rate,
            b.rate
        );
        prop_assert_eq!(
            a.vs_rate.to_bits(),
            b.vs_rate.to_bits(),
            "vs_rate mismatch for peer {} slot {}: {} vs {}",
            a.peer_idx,
            a.slot,
            a.vs_rate,
            b.vs_rate
        );
    }
    prop_assert_eq!(snap.donations.len(), full.donations.len());
    for (i, (a, b)) in snap.donations.iter().zip(&full.donations).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "donation mismatch for peer {i}: {} vs {}",
            a,
            b
        );
    }
    Ok(())
}

/// Strategy: a random CMFSD peer in a consistent state.
fn cmfsd_peer(id: u64) -> impl Strategy<Value = Peer> {
    (
        prop::collection::btree_set(0u16..K as u16, 1..=K),
        0.0f64..=1.0,
        any::<bool>(),
        0usize..K,
    )
        .prop_map(move |(files, rho, seeding_all, progress)| {
            let files: Vec<u16> = files.into_iter().collect();
            let n = files.len();
            let order: Vec<usize> = (0..n).collect();
            let mut p = Peer::new(id, 0.0, files, order, rho);
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

/// A CMFSD peer that has finished its first `done` files (in slot order):
/// a real seed when that is all of them, a partial seed otherwise.
fn cmfsd_finished(id: u64, files: Vec<u16>, done: usize, rho: f64) -> Peer {
    let n = files.len();
    let mut p = Peer::new(id, 0.0, files, (0..n).collect(), rho);
    for s in 0..done {
        p.slots[s].remaining = 0.0;
        p.slots[s].completed_at = Some(1.0);
    }
    p.cursor = done;
    if done == n {
        p.phase = Phase::SeedingAll;
    }
    p
}

fn population() -> impl Strategy<Value = Vec<Peer>> {
    prop::collection::vec(any::<u64>(), 1..20).prop_flat_map(|ids| {
        ids.into_iter()
            .enumerate()
            .map(|(i, _)| cmfsd_peer(i as u64))
            .collect::<Vec<_>>()
    })
}

/// Downloads as `(peer, slot, rate, vs_rate)`.
type Downloads = Vec<(usize, usize, f64, f64)>;

/// The allocator as it summed before it worked from counts: weights
/// accumulate download by download in peer order, and every seed source
/// adds its own share, in peer order, with its demand summed in its
/// files' order. The views mirror `rate::visit`. Kept as an independent
/// check that summing counts in canonical order moves the rates by
/// rounding only. Returns the downloads and the donations.
fn per_member_rates(
    peers: &[Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    origin: usize,
) -> (Downloads, Vec<f64>) {
    let mu = params.mu();
    let mut active = Vec::new();
    let mut sources: Vec<(usize, f64, bool, Vec<usize>)> = Vec::new();
    for (idx, p) in peers.iter().enumerate() {
        let file = |s: usize| p.slots[s].file as usize;
        let class = p.class() as f64;
        match scheme {
            SchemeKind::Mtsd => match p.phase {
                Phase::Downloading => active.push((idx, p.current_slot(), mu, 1.0)),
                Phase::SeedingFile(s) => sources.push((idx, mu, false, vec![file(s)])),
                _ => {}
            },
            SchemeKind::Mtcd | SchemeKind::Mfcd if p.phase != Phase::Departed => {
                for s in 0..p.class() {
                    if !p.finished(s) {
                        active.push((idx, s, mu / class, 1.0 / class));
                    } else if p.slots[s].seed_until.is_some() {
                        sources.push((idx, mu / class, false, vec![file(s)]));
                    }
                }
            }
            SchemeKind::Cmfsd { .. } => match p.phase {
                Phase::Downloading if p.done_count() >= 1 => {
                    active.push((idx, p.current_slot(), p.rho * mu, 1.0));
                    let donated = (1.0 - p.rho) * mu;
                    if donated > 0.0 {
                        let done = (0..p.class()).filter(|&s| p.finished(s)).map(file);
                        sources.push((idx, donated, true, done.collect()));
                    }
                }
                Phase::Downloading => active.push((idx, p.current_slot(), mu, 1.0)),
                Phase::SeedingAll => {
                    sources.push((idx, mu, false, (0..p.class()).map(file).collect()))
                }
                _ => {}
            },
            _ => {}
        }
    }
    let mut weight = [0.0; K];
    for &(idx, s, _, w) in &active {
        weight[peers[idx].slots[s].file as usize] += w;
    }
    let mut pool_real = [0.0; K];
    let mut pool_virtual = [0.0; K];
    let bw = origin as f64 * mu;
    if origin > 0 {
        if matches!(scheme, SchemeKind::Mtsd | SchemeKind::Mtcd) {
            pool_real.iter_mut().for_each(|p| *p += bw);
        } else {
            let demand: f64 = weight.iter().sum();
            for f in 0..K {
                if demand > 0.0 && weight[f] > 0.0 {
                    pool_real[f] += bw * weight[f] / demand;
                }
            }
        }
    }
    let mut donations = vec![0.0; peers.len()];
    for (idx, bandwidth, is_virtual, files) in &sources {
        let demand: f64 = files.iter().map(|&f| weight[f]).sum();
        if demand <= 0.0 {
            continue;
        }
        for &f in files {
            if weight[f] > 0.0 {
                let pool = if *is_virtual {
                    &mut pool_virtual
                } else {
                    &mut pool_real
                };
                pool[f] += bandwidth * weight[f] / demand;
            }
        }
        if *is_virtual {
            donations[*idx] += bandwidth;
        }
    }
    let downloads = active
        .iter()
        .map(|&(idx, s, u, w)| {
            let f = peers[idx].slots[s].file as usize;
            let share = if weight[f] > 0.0 { w / weight[f] } else { 0.0 };
            let vs = share * pool_virtual[f];
            (idx, s, params.eta() * u + share * pool_real[f] + vs, vs)
        })
        .collect();
    (downloads, donations)
}

/// `a` and `b` agree to 1e-12 relative.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cmfsd_conserves_bandwidth(peers in population(), origin in 0usize..3) {
        let params = FluidParams::paper();
        let scheme = SchemeKind::Cmfsd { rho: 0.5 }; // per-peer ρ is on the peer
        let snap = compute_rates(&peers, scheme, &params, K, origin);

        // Non-negativity and vs_rate ≤ rate.
        for d in &snap.downloads {
            prop_assert!(d.rate >= 0.0);
            prop_assert!(d.vs_rate >= -1e-15 && d.vs_rate <= d.rate + 1e-12);
        }

        // Conservation: total received = η·Σ(TFT uploads) + consumed
        // donations + consumed real-seed/origin bandwidth. We can't see
        // "consumed real" directly, so check the weaker sound bound:
        // total received ≤ η·ΣTFT + all donations + all real capacity.
        let eta = params.eta();
        let mu = params.mu();
        let mut tft = 0.0;
        let mut real_capacity = origin as f64 * mu;
        for p in &peers {
            match p.phase {
                Phase::Downloading => {
                    let u = if p.done_count() >= 1 { p.rho * mu } else { mu };
                    tft += u;
                }
                Phase::SeedingAll => real_capacity += mu,
                _ => {}
            }
        }
        let donations: f64 = snap.donations.iter().sum();
        let received: f64 = snap.downloads.iter().map(|d| d.rate).sum();
        prop_assert!(
            received <= eta * tft + donations + real_capacity + 1e-9,
            "received {received} exceeds capacity {}",
            eta * tft + donations + real_capacity
        );

        // Per-download TFT floor: every downloader gets at least η·(own
        // upload).
        for d in &snap.downloads {
            let p = &peers[d.peer_idx];
            let own = if p.done_count() >= 1 { p.rho * mu } else { mu };
            prop_assert!(d.rate >= eta * own - 1e-12);
        }

        // Donations only come from peers with a finished file still
        // downloading.
        for (idx, &don) in snap.donations.iter().enumerate() {
            if don > 0.0 {
                let p = &peers[idx];
                prop_assert_eq!(p.phase, Phase::Downloading);
                prop_assert!(p.done_count() >= 1);
                prop_assert!((don - (1.0 - p.rho) * mu).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cache_matches_full_recompute_every_scheme(peers in population(), origin in 0usize..3) {
        // The incremental cache, built peer by peer with a refresh between
        // registrations, must agree bit for bit with a from-scratch
        // `compute_rates` under every scheme.
        let params = FluidParams::paper();
        for scheme in ALL_SCHEMES {
            let mut peers = peers.clone();
            let cache = build_incrementally(&mut peers, scheme, &params, origin);
            assert_matches_full(&cache, &peers, scheme, &params, origin)?;
        }
    }

    #[test]
    fn cache_tracks_mutation_cycles(peers in population(), origin in 0usize..3) {
        // Mutate (complete the current file) → re-register (the diff moves
        // what changed) → refresh must keep the cache in lockstep with a
        // full recompute at every step.
        let params = FluidParams::paper();
        let scheme = SchemeKind::Cmfsd { rho: 0.5 };
        let mut peers = peers.clone();
        let mut cache = build_incrementally(&mut peers, scheme, &params, origin);
        for idx in 0..peers.len() {
            if peers[idx].phase != Phase::Downloading {
                continue;
            }
            let slot = peers[idx].current_slot();
            peers[idx].slots[slot].remaining = 0.0;
            peers[idx].slots[slot].completed_at = Some(2.0);
            peers[idx].cursor += 1;
            if peers[idx].cursor >= peers[idx].class() {
                peers[idx].phase = Phase::SeedingAll;
            }
            cache.register(idx, &mut peers, 0.0);
            cache.refresh(&mut peers, 0.0, false);
            cache.clear_changed();
            assert_matches_full(&cache, &peers, scheme, &params, origin)?;
        }
    }

    #[test]
    fn cache_recycles_sources_within_one_refresh(
        peers in population(),
        kept in prop::collection::btree_set(0u16..K as u16, 1..=K),
        rho in 0.0f64..1.0,
    ) {
        // One refresh round that retires a real seed, registers a partial
        // seed whose virtual source set reuses the retired set's slab slot
        // with a different file set, and re-registers an unchanged real
        // seed. The recycled set must get a fresh demand, and the
        // re-registration, which moves nothing, keeps its set's demand.
        let params = FluidParams::paper();
        let scheme = SchemeKind::Cmfsd { rho: 0.5 };
        for origin in [0, 2] {
            let mut peers = peers.clone();
            let retired = peers.len();
            let kept_idx = retired + 1;
            peers.push(cmfsd_finished(retired as u64, vec![0, 1, 2], 3, 1.0));
            let kept: Vec<u16> = kept.iter().copied().collect();
            let n_kept = kept.len();
            peers.push(cmfsd_finished(kept_idx as u64, kept, n_kept, 1.0));
            let mut cache = build_incrementally(&mut peers, scheme, &params, origin);

            peers[retired].phase = Phase::Departed;
            cache.register(retired, &mut peers, 0.0);
            let partial = peers.len();
            peers.push(cmfsd_finished(partial as u64, vec![3, 4, 5], 2, rho));
            cache.grow(peers.len());
            cache.register(partial, &mut peers, 0.0);
            cache.register(kept_idx, &mut peers, 0.0);
            cache.refresh(&mut peers, 0.0, false);
            assert_matches_full(&cache, &peers, scheme, &params, origin)?;
        }
    }

    #[test]
    fn cache_conserves_bandwidth_per_subtorrent(peers in population(), origin in 0usize..3) {
        // On every subtorrent with at least one downloader, the shares of
        // the pools sum to 1, so Σ rates = η·Σu + pool_real + pool_virtual.
        let params = FluidParams::paper();
        let eta = params.eta();
        let mu = params.mu();
        for scheme in ALL_SCHEMES {
            let mut peers = peers.clone();
            let cache = build_incrementally(&mut peers, scheme, &params, origin);
            let snap = cache.snapshot(&peers);
            let mut sum_rate = [0.0f64; K];
            let mut sum_u = [0.0f64; K];
            for d in &snap.downloads {
                let p = &peers[d.peer_idx];
                let f = p.slots[d.slot].file as usize;
                sum_rate[f] += d.rate;
                sum_u[f] += member_u(scheme, p, mu);
            }
            for f in 0..K {
                if cache.weight()[f] <= 0.0 {
                    continue;
                }
                let expect = eta * sum_u[f] + cache.pool_real()[f] + cache.pool_virtual()[f];
                let tol = 1e-9 * expect.abs().max(1.0);
                prop_assert!(
                    (sum_rate[f] - expect).abs() <= tol,
                    "{}: subtorrent {f}: Σrates {} vs η·Σu + pools {}",
                    scheme.name(),
                    sum_rate[f],
                    expect
                );
            }
        }
    }

    #[test]
    fn mtcd_rates_respect_class_split(peers in population()) {
        // Reinterpreting the same peers under MTCD: each unfinished slot
        // downloads at ≥ η·μ/class.
        let params = FluidParams::paper();
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params, K, 0);
        for d in &snap.downloads {
            let p = &peers[d.peer_idx];
            let floor = params.eta() * params.mu() / p.class() as f64;
            prop_assert!(d.rate >= floor - 1e-12);
        }
    }

    #[test]
    fn count_order_matches_per_member_summation(peers in population(), origin in 0usize..3) {
        // Every scheme over the same peers (per-peer ρ), with each
        // finished slot lingering as an MTCD/MFCD seed: the canonical
        // count order must reproduce the per-member sums to rounding, and
        // the cache must reproduce the count order bit for bit.
        let params = FluidParams::paper();
        let mut peers = peers.clone();
        for p in &mut peers {
            for s in 0..p.class() {
                if p.finished(s) {
                    p.slots[s].seed_until = Some(100.0);
                }
            }
        }
        for scheme in ALL_SCHEMES {
            let snap = compute_rates(&peers, scheme, &params, K, origin);
            let (old, donations) = per_member_rates(&peers, scheme, &params, origin);
            prop_assert_eq!(snap.downloads.len(), old.len());
            for (d, &(idx, s, rate, vs)) in snap.downloads.iter().zip(&old) {
                prop_assert_eq!((d.peer_idx, d.slot), (idx, s));
                prop_assert!(
                    close(d.rate, rate) && close(d.vs_rate, vs),
                    "{}: peer {idx} slot {s}: ({}, {}) vs per-member ({rate}, {vs})",
                    scheme.name(),
                    d.rate,
                    d.vs_rate
                );
            }
            for (a, b) in snap.donations.iter().zip(&donations) {
                prop_assert!(close(*a, *b), "{}: donation {a} vs {b}", scheme.name());
            }
            let mut seeded = peers.clone();
            let cache = build_incrementally(&mut seeded, scheme, &params, origin);
            assert_matches_full(&cache, &seeded, scheme, &params, origin)?;
        }
    }
}
