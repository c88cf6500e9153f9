//! Bandwidth allocation: turns the current peer population into per-download
//! service rates, mirroring the fluid model's two service assumptions.
//!
//! For every subtorrent `f` the snapshot aggregates
//!
//! * `pool_real[f]` — bandwidth of real seeds (and MTSD/MTCD per-file
//!   seeds) serving `f`;
//! * `pool_virtual[f]` — bandwidth of CMFSD virtual seeds serving `f`;
//! * `weight[f]` — total download-capacity weight of the downloaders in
//!   `f` (`1/class` under concurrent schemes, `1` under sequential ones).
//!
//! A downloader of `f` with own TFT upload `u` and weight `w` then receives
//!
//! ```text
//! rate = η·u + (w / weight[f]) · (pool_real[f] + pool_virtual[f])
//! ```
//!
//! which conserves bandwidth exactly: summing over downloaders of `f`
//! reproduces `η·Σu + pool_real[f] + pool_virtual[f]`, the fluid model's
//! per-torrent service capacity.
//!
//! ## Demand-aware CMFSD seeding
//!
//! The fluid model of Eq. (5) pools all virtual-seed and real-seed
//! bandwidth *globally* over the torrent's downloaders. A physical peer can
//! only serve files it has finished, so this simulator realizes the pooling
//! by splitting each CMFSD seed's bandwidth across its finished subtorrents
//! in proportion to their current downloader weight (a seed never wastes
//! bandwidth on an empty subtorrent). A naive alternative — pinning each
//! virtual seed to one randomly chosen finished file — matches the fluid
//! model at moderate ρ but collapses at ρ → 0, where downloaders have no
//! TFT income and starve whenever their subtorrent happens to attract no
//! donor; the paper's model implicitly assumes the perfectly mixed
//! allocation implemented here.
//!
//! MTCD/MFCD virtual peers, by contrast, are genuinely separate peers in
//! separate (sub)torrents with a fixed `μ/i` each (that is the scheme), so
//! their seed bandwidth stays pinned to its own file.

use crate::config::SchemeKind;
use crate::peer::{Peer, Phase};
use btfluid_core::FluidParams;
use std::collections::BTreeMap;

/// One active (peer, file-slot) download with its current rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveDownload {
    /// Index into the engine's peer vector.
    pub peer_idx: usize,
    /// File slot within that peer.
    pub slot: usize,
    /// Total download rate (files per time unit).
    pub rate: f64,
    /// Portion of [`ActiveDownload::rate`] received from *virtual seeds*
    /// (CMFSD Adapt accounting).
    pub vs_rate: f64,
}

/// The rate snapshot between two events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RateSnapshot {
    /// Every active download and its rate.
    pub downloads: Vec<ActiveDownload>,
    /// Per-peer bandwidth currently donated through a virtual seed and
    /// actually consumed by someone (parallel to the engine's peer vector;
    /// CMFSD only).
    pub donations: Vec<f64>,
}

/// Reads what `peer` contributes under `scheme`, in view order: `active`
/// receives each download `(slot, tft_upload, weight)` and `seed` each
/// seed source `(bandwidth, is_virtual, files)`. [`compute_rates`] and
/// the incremental [`crate::rate_cache::RateCache`] both read peers
/// through it.
pub(crate) fn visit(
    peer: &Peer,
    scheme: SchemeKind,
    mu: f64,
    mut active: impl FnMut(usize, f64, f64),
    mut seed: impl FnMut(f64, bool, &mut dyn Iterator<Item = usize>),
) {
    let class = peer.class() as f64;
    let file = |slot: usize| peer.slots[slot].file as usize;
    match scheme {
        SchemeKind::Mtsd => match peer.phase {
            Phase::Downloading => active(peer.current_slot(), mu, 1.0),
            Phase::SeedingFile(slot) => seed(mu, false, &mut std::iter::once(file(slot))),
            Phase::SeedingAll | Phase::Departed => {}
        },
        SchemeKind::Mtcd | SchemeKind::Mfcd => {
            if peer.phase == Phase::Departed {
                return;
            }
            let share = mu / class;
            for slot in 0..peer.class() {
                if !peer.finished(slot) {
                    active(slot, share, 1.0 / class);
                } else if peer.slots[slot].seed_until.is_some() {
                    // Finished slot: this virtual peer seeds its own
                    // torrent (MTCD: until its deadline; MFCD: until the
                    // user departs).
                    seed(share, false, &mut std::iter::once(file(slot)));
                }
            }
        }
        SchemeKind::Cmfsd { .. } => match peer.phase {
            Phase::Downloading => {
                let slot = peer.current_slot();
                if peer.done_count() >= 1 {
                    // Partial seed: ρμ plays TFT in the current subtorrent,
                    // (1−ρ)μ serves the finished files demand-aware.
                    active(slot, peer.rho * mu, 1.0);
                    let donated = (1.0 - peer.rho) * mu;
                    if donated > 0.0 {
                        let mut files = (0..peer.class()).filter(|&s| peer.finished(s)).map(file);
                        seed(donated, true, &mut files);
                    }
                } else {
                    active(slot, mu, 1.0);
                }
            }
            // Real seed: μ over all its files, demand-aware.
            Phase::SeedingAll => seed(mu, false, &mut peer.files().map(usize::from)),
            Phase::SeedingFile(_) | Phase::Departed => {}
        },
    }
}

/// A source set's demand: Σ `weight` over its files, ascending.
pub(crate) fn demand_of(files: &[u32], weight: &[f64]) -> f64 {
    files.iter().fold(0.0, |d, &g| d + weight[g as usize])
}

/// What `n` sources of bandwidth `bw` in one set give a file of weight
/// `wf` when the set's demand is `demand`.
pub(crate) fn pool_term(n: u32, bw: f64, wf: f64, demand: f64) -> f64 {
    (f64::from(n) * bw) * wf / demand
}

/// The origin publishers' share of a file of weight `wf`: pinned per
/// torrent, or demand-aware over the total weight `total`.
pub(crate) fn origin_pool(origin_bw: f64, demand_aware: bool, wf: f64, total: f64) -> f64 {
    if origin_bw <= 0.0 {
        0.0
    } else if !demand_aware {
        origin_bw
    } else if total > 0.0 && wf > 0.0 {
        origin_bw * wf / total
    } else {
        0.0
    }
}

/// `(rate, vs_rate)` of a download with upload `u` and weight `w` in a
/// file of weight `wf` and pools `pr`, `pv`.
pub(crate) fn download_rate(eta: f64, u: f64, w: f64, wf: f64, pr: f64, pv: f64) -> (f64, f64) {
    let share = if wf > 0.0 { w / wf } else { 0.0 };
    let from_real = share * pr;
    let from_virtual = share * pv;
    (eta * u + from_real + from_virtual, from_virtual)
}

/// Builds the rate snapshot for the current population.
///
/// `origin_seeds` is the number of permanent publisher seeds: under the
/// multi-torrent schemes each of the `K` torrents has that many publishers
/// (bandwidth `μ` each, pinned to their torrent); under the multi-file
/// schemes the single torrent has that many publishers, each splitting `μ`
/// demand-aware over the `K` subtorrents.
///
/// Every aggregate is summed from counts in a canonical order, the one
/// [`crate::rate_cache::RateCache`] keeps: `weight[f]` is `Σ n·w` over the
/// file's `(u, w)` rate groups in bit order, and each pool adds, after
/// the origin share, one `pool_term` per counted source set
/// `(virtual, bandwidth bits, files)` in key order.
pub fn compute_rates(
    peers: &[Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    k: usize,
    origin_seeds: usize,
) -> RateSnapshot {
    let mut active = Vec::new();
    let mut groups: BTreeMap<(u32, u64, u64), usize> = BTreeMap::new();
    let mut sets: BTreeMap<(bool, u64, Vec<u32>), u32> = BTreeMap::new();
    let mut donors = Vec::new();
    for (idx, peer) in peers.iter().enumerate() {
        visit(
            peer,
            scheme,
            params.mu(),
            |slot, u, w| {
                let f = peer.slots[slot].file as u32;
                active.push((idx, slot, f, u, w));
                *groups.entry((f, u.to_bits(), w.to_bits())).or_default() += 1;
            },
            |bw, is_virtual, files| {
                let files: Vec<u32> = files.map(|f| f as u32).collect();
                if is_virtual {
                    donors.push((idx, bw, files.clone()));
                }
                *sets.entry((is_virtual, bw.to_bits(), files)).or_default() += 1;
            },
        );
    }
    let mut weight = vec![0.0; k];
    for (&(f, _, w), &n) in &groups {
        weight[f as usize] += n as f64 * f64::from_bits(w);
    }
    let demand_aware = matches!(scheme, SchemeKind::Mfcd | SchemeKind::Cmfsd { .. });
    let origin_bw = origin_seeds as f64 * params.mu();
    let total: f64 = weight.iter().sum();
    let mut pool_real: Vec<f64> = (0..k)
        .map(|f| origin_pool(origin_bw, demand_aware, weight[f], total))
        .collect();
    let mut pool_virtual = vec![0.0; k];
    for ((is_virtual, bw, files), &n) in &sets {
        let demand = demand_of(files, &weight);
        let pool = if *is_virtual {
            &mut pool_virtual
        } else {
            &mut pool_real
        };
        for &f in files {
            let wf = weight[f as usize];
            if wf > 0.0 {
                pool[f as usize] += pool_term(n, f64::from_bits(*bw), wf, demand);
            }
        }
    }
    let mut snapshot = RateSnapshot {
        downloads: Vec::with_capacity(active.len()),
        donations: vec![0.0; peers.len()],
    };
    for (idx, bw, files) in donors {
        if demand_of(&files, &weight) > 0.0 {
            snapshot.donations[idx] += bw;
        }
    }
    for (peer_idx, slot, f, u, w) in active {
        let f = f as usize;
        let (rate, vs_rate) =
            download_rate(params.eta(), u, w, weight[f], pool_real[f], pool_virtual[f]);
        snapshot.downloads.push(ActiveDownload {
            peer_idx,
            slot,
            rate,
            vs_rate,
        });
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_core::FluidParams;

    fn params() -> FluidParams {
        FluidParams::paper() // μ = 0.02, η = 0.5, γ = 0.05
    }

    fn peer(id: u64, files: Vec<u16>) -> Peer {
        let order: Vec<usize> = (0..files.len()).collect();
        Peer::new(id, 0.0, files, order, 1.0)
    }

    #[test]
    fn lone_mtsd_downloader_gets_only_tft() {
        let peers = vec![peer(0, vec![3])];
        let snap = compute_rates(&peers, SchemeKind::Mtsd, &params(), 10, 0);
        assert_eq!(snap.downloads.len(), 1);
        let d = snap.downloads[0];
        assert_eq!(d.slot, 0);
        // η·μ = 0.01
        assert!((d.rate - 0.01).abs() < 1e-15);
        assert_eq!(d.vs_rate, 0.0);
    }

    #[test]
    fn mtsd_seed_feeds_downloader() {
        let mut seeder = peer(0, vec![3]);
        seeder.slots[0].remaining = 0.0;
        seeder.phase = Phase::SeedingFile(0);
        let downloader = peer(1, vec![3]);
        let peers = vec![seeder, downloader];
        let snap = compute_rates(&peers, SchemeKind::Mtsd, &params(), 10, 0);
        assert_eq!(snap.downloads.len(), 1);
        // η·μ + μ (full seed bandwidth to the only downloader).
        assert!((snap.downloads[0].rate - (0.01 + 0.02)).abs() < 1e-15);
    }

    #[test]
    fn mtsd_seed_in_other_torrent_does_not_help() {
        let mut seeder = peer(0, vec![4]);
        seeder.slots[0].remaining = 0.0;
        seeder.phase = Phase::SeedingFile(0);
        let downloader = peer(1, vec![3]);
        let peers = vec![seeder, downloader];
        let snap = compute_rates(&peers, SchemeKind::Mtsd, &params(), 10, 0);
        assert!((snap.downloads[0].rate - 0.01).abs() < 1e-15);
    }

    #[test]
    fn mtcd_splits_bandwidth_across_torrents() {
        let peers = vec![peer(0, vec![0, 1, 2, 3])];
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params(), 10, 0);
        assert_eq!(snap.downloads.len(), 4);
        for d in &snap.downloads {
            // η·μ/4 each.
            assert!((d.rate - 0.5 * 0.02 / 4.0).abs() < 1e-15);
        }
    }

    #[test]
    fn mtcd_seed_share_weighted_by_inverse_class() {
        // A seed with μ/2 serves torrent 0; two downloaders compete: one of
        // class 1 (weight 1) and one of class 4 (weight 1/4).
        let mut seeder = peer(0, vec![0, 5]);
        seeder.slots[0].remaining = 0.0;
        seeder.slots[0].seed_until = Some(100.0);
        let d1 = peer(1, vec![0]);
        let d4 = peer(2, vec![0, 1, 2, 3]);
        let peers = vec![seeder, d1, d4];
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params(), 10, 0);
        let pool = 0.02 / 2.0; // seeder of class 2
        let total_w = 1.0 + 0.25;
        let r1 = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 1)
            .unwrap()
            .rate;
        let r4 = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 2 && d.slot == 0)
            .unwrap()
            .rate;
        assert!((r1 - (0.5 * 0.02 + 1.0 / total_w * pool)).abs() < 1e-15);
        assert!((r4 - (0.5 * 0.02 / 4.0 + 0.25 / total_w * pool)).abs() < 1e-15);
        // The seeder still downloads its unfinished slot 1.
        assert!(snap
            .downloads
            .iter()
            .any(|d| d.peer_idx == 0 && d.slot == 1));
    }

    #[test]
    fn mtcd_seed_bandwidth_stays_pinned_to_its_torrent() {
        // An MTCD virtual seed of torrent 0 idles when torrent 0 has no
        // downloaders — it cannot redirect to torrent 5.
        let mut seeder = peer(0, vec![0, 5]);
        for s in &mut seeder.slots {
            s.remaining = 0.0;
        }
        seeder.slots[0].seed_until = Some(100.0);
        seeder.phase = Phase::SeedingAll;
        let other = peer(1, vec![5]);
        let peers = vec![seeder, other];
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params(), 10, 0);
        let r = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 1)
            .unwrap()
            .rate;
        assert!((r - 0.01).abs() < 1e-15, "only TFT: {r}");
    }

    #[test]
    fn cmfsd_first_file_full_tft() {
        let mut p = peer(0, vec![2, 7]);
        p.rho = 0.3;
        let peers = vec![p];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.3 }, &params(), 10, 0);
        // No finished file yet: P = 1 → η·μ.
        assert!((snap.downloads[0].rate - 0.01).abs() < 1e-15);
        assert_eq!(snap.donations[0], 0.0);
    }

    #[test]
    fn cmfsd_partial_seed_splits_upload() {
        // Peer A finished slot 0, downloading slot 1; its virtual seed can
        // only serve file 2, where peer B downloads.
        let mut a = peer(0, vec![2, 7]);
        a.rho = 0.25;
        a.slots[0].remaining = 0.0;
        a.slots[0].completed_at = Some(1.0);
        a.cursor = 1;
        let b = peer(1, vec![2]);
        let peers = vec![a, b];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.25 }, &params(), 10, 0);
        // A's download: η·ρμ (nobody serves file 7).
        let ra = snap.downloads.iter().find(|d| d.peer_idx == 0).unwrap();
        assert!((ra.rate - 0.5 * 0.25 * 0.02).abs() < 1e-15);
        // B gets η·μ TFT + A's donated (1−ρ)μ as vs_rate.
        let rb = snap.downloads.iter().find(|d| d.peer_idx == 1).unwrap();
        let donated = 0.75 * 0.02;
        assert!((rb.rate - (0.01 + donated)).abs() < 1e-15);
        assert!((rb.vs_rate - donated).abs() < 1e-15);
        assert!((snap.donations[0] - donated).abs() < 1e-15);
    }

    #[test]
    fn cmfsd_virtual_seed_is_demand_aware() {
        // A has finished files 2 and 7. File 2 has two downloaders, file 7
        // has one — the donated bandwidth splits 2:1 by weight.
        let mut a = peer(0, vec![2, 7, 9]);
        a.rho = 0.0;
        a.slots[0].remaining = 0.0;
        a.slots[1].remaining = 0.0;
        a.slots[0].completed_at = Some(1.0);
        a.slots[1].completed_at = Some(2.0);
        a.cursor = 2;
        let b = peer(1, vec![2]);
        let c = peer(2, vec![2]);
        let d = peer(3, vec![7]);
        let peers = vec![a, b, c, d];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.0 }, &params(), 10, 0);
        let donated = 0.02;
        // Demand: weight(file 2) = 2, weight(file 7) = 1 → 2/3 vs 1/3.
        let rb = snap.downloads.iter().find(|x| x.peer_idx == 1).unwrap();
        assert!((rb.vs_rate - donated * (2.0 / 3.0) / 2.0).abs() < 1e-15);
        let rd = snap.downloads.iter().find(|x| x.peer_idx == 3).unwrap();
        assert!((rd.vs_rate - donated * (1.0 / 3.0)).abs() < 1e-15);
        assert!((snap.donations[0] - donated).abs() < 1e-15);
    }

    #[test]
    fn cmfsd_idle_virtual_seed_not_counted_as_donation() {
        // A's only finished file has no downloaders: capacity idles and Δ
        // accounting sees no donation.
        let mut a = peer(0, vec![2, 7]);
        a.rho = 0.0;
        a.slots[0].remaining = 0.0;
        a.slots[0].completed_at = Some(1.0);
        a.cursor = 1;
        let peers = vec![a];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.0 }, &params(), 10, 0);
        assert_eq!(snap.donations[0], 0.0);
    }

    #[test]
    fn cmfsd_real_seed_demand_aware_over_its_files() {
        let mut s = peer(0, vec![2, 7]);
        s.slots[0].remaining = 0.0;
        s.slots[1].remaining = 0.0;
        s.slots[0].completed_at = Some(1.0);
        s.slots[1].completed_at = Some(2.0);
        s.phase = Phase::SeedingAll;
        let b = peer(1, vec![2]);
        let peers = vec![s, b];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.5 }, &params(), 10, 0);
        // Only file 2 has demand: the WHOLE μ goes there.
        let rb = snap.downloads.iter().find(|d| d.peer_idx == 1).unwrap();
        assert!((rb.rate - (0.01 + 0.02)).abs() < 1e-15);
        assert_eq!(rb.vs_rate, 0.0);
    }

    #[test]
    fn bandwidth_conservation_per_subtorrent() {
        // Sum of downloader rates in a subtorrent equals η·Σ uploads + pools.
        let mut a = peer(0, vec![0, 1, 2]);
        a.rho = 0.4;
        a.slots[0].remaining = 0.0;
        a.slots[0].completed_at = Some(1.0);
        a.cursor = 1;
        let b = peer(1, vec![1]);
        let c = peer(2, vec![1, 2]);
        let peers = vec![a, b, c];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.4 }, &params(), 10, 0);
        // Total received must equal η·ΣTFT + Σ consumed donations.
        let total_received: f64 = snap.downloads.iter().map(|d| d.rate).sum();
        let eta = 0.5;
        let tft = eta * (0.4 * 0.02 + 0.02 + 0.02);
        let donations: f64 = snap.donations.iter().sum();
        assert!(
            (total_received - (tft + donations)).abs() < 1e-12,
            "received {total_received} vs capacity {}",
            tft + donations
        );
    }

    #[test]
    fn departed_peers_contribute_nothing() {
        let mut p = peer(0, vec![1]);
        p.phase = Phase::Departed;
        let snap = compute_rates(&[p], SchemeKind::Mtcd, &params(), 10, 0);
        assert!(snap.downloads.is_empty());
    }

    #[test]
    fn mfcd_finished_slots_keep_seeding_until_departure() {
        let mut p = peer(0, vec![0, 1]);
        p.slots[0].remaining = 0.0;
        p.slots[0].completed_at = Some(5.0);
        p.slots[0].seed_until = Some(f64::INFINITY); // engine sets departure later
        let q = peer(1, vec![0]);
        let peers = vec![p, q];
        let snap = compute_rates(&peers, SchemeKind::Mfcd, &params(), 10, 0);
        let rq = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 1)
            .unwrap()
            .rate;
        // q: η·μ + the virtual seed's μ/2.
        assert!((rq - (0.01 + 0.01)).abs() < 1e-15);
    }
}
