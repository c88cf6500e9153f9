//! Incremental rate maintenance: per-subtorrent aggregates kept up to date
//! event-by-event instead of rebuilt from scratch.
//!
//! [`crate::rate::compute_rates`] rebuilds `weight`, `pool_real`,
//! `pool_virtual` and every download rate from the whole population on
//! every call — O(peers) per event. [`RateCache`] maintains the same
//! aggregates incrementally: when a peer's membership changes (arrival,
//! completion, expiry, ρ update) the engine deregisters and re-registers
//! that one peer, which marks the affected subtorrents dirty; the
//! subsequent [`RateCache::refresh`] recomputes only dirty aggregates and
//! the downloads they feed.
//!
//! ## Bit-exactness contract
//!
//! Every aggregate is recomputed by re-summing an ordered member list that
//! reproduces `compute_rates`' accumulation order (peers ascending by slab
//! index, slots in view order within a peer, the origin publisher first in
//! every pool). A recompute of an *unchanged* aggregate therefore yields
//! the identical bit pattern, which is what makes the engine's forced
//! full recompute every event (the equivalence suites' test reference) and
//! the incremental refresh produce bit-identical trajectories: the only
//! difference between the two is how much provably-unchanged work is
//! redone.
//!
//! Change detection is by `f64::to_bits` comparison, and a changed rate
//! triggers lazy settlement of the affected download
//! ([`crate::peer::Peer::settle_slot`]) before the new rate is stored, so
//! progress accrual is exact piecewise-linear integration either way.
//!
//! ## Dirty propagation
//!
//! * A membership change on subtorrent `f` marks `weight[f]` dirty.
//! * A bit-changed `weight[f]` invalidates: `f`'s own pools, the pools of
//!   every file served by any source that also serves `f` (their
//!   demand-aware split changed), and — when a demand-aware origin
//!   publisher exists (MFCD/CMFSD) — every pool (the global demand
//!   changed).
//! * Download rates are recomputed for every member of a subtorrent whose
//!   weight or pools bit-changed, plus every active slot of a peer touched
//!   this round (its TFT upload `u` can change with no weight change,
//!   e.g. a CMFSD peer finishing its first file at unchanged weight 1).
//! * Donation rates are recomputed for touched peers and for owners of
//!   sources serving a pool-dirty file.

use crate::config::SchemeKind;
use crate::peer::{Peer, Phase};
use crate::rate::{ActiveDownload, RateSnapshot};
use btfluid_core::FluidParams;

/// One downloader membership in a subtorrent's member list.
#[derive(Debug, Clone, Copy)]
struct Member {
    peer: u32,
    slot: u32,
    /// TFT upload bandwidth `u` of this download.
    u: f64,
    /// Downloader weight `w` of this download.
    w: f64,
}

/// Reference to one seed source in a subtorrent's source list:
/// `reg[peer].sources[ord]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SourceRef {
    peer: u32,
    ord: u32,
}

/// A seed capacity source owned by one peer.
#[derive(Debug, Clone)]
struct PeerSource {
    files: Vec<usize>,
    bandwidth: f64,
    is_virtual: bool,
}

/// What one peer currently has registered in the cache.
#[derive(Debug, Default)]
struct PeerReg {
    /// Active downloads `(slot, file, u, w)` in view order.
    active: Vec<(u32, u32, f64, f64)>,
    /// Seed sources in view order.
    sources: Vec<PeerSource>,
    registered: bool,
}

/// Incrementally maintained per-subtorrent rate aggregates.
///
/// Protocol (driven by the engine around every event):
/// 1. [`RateCache::deregister`] each peer whose state the event mutates;
/// 2. mutate the peer;
/// 3. [`RateCache::register`] it again;
/// 4. call [`RateCache::refresh`] once, which settles and updates every
///    download whose rate actually changed.
#[derive(Debug)]
pub struct RateCache {
    k: usize,
    scheme: SchemeKind,
    mu: f64,
    eta: f64,
    /// Aggregate origin-publisher bandwidth (0 when there are none).
    origin_bw: f64,
    /// Whether the origin splits demand-aware over subtorrents
    /// (MFCD/CMFSD) rather than pinning μ per torrent (MTSD/MTCD).
    origin_demand_aware: bool,
    weight: Vec<f64>,
    pool_real: Vec<f64>,
    pool_virtual: Vec<f64>,
    /// Per file: downloader members sorted by (peer, slot).
    downloaders: Vec<Vec<Member>>,
    /// Per file: seed sources serving it, sorted by (peer, ord).
    sources: Vec<Vec<SourceRef>>,
    reg: Vec<PeerReg>,
    // Dirty tracking (list + flag pairs so marking is O(1) amortized).
    dirty_w: Vec<usize>,
    dirty_w_flag: Vec<bool>,
    dirty_p: Vec<usize>,
    dirty_p_flag: Vec<bool>,
    touched: Vec<usize>,
    touched_flag: Vec<bool>,
    // Scratch reused across refreshes.
    wc: Vec<usize>,
    pd: Vec<usize>,
    pd_flag: Vec<bool>,
    rate_files: Vec<usize>,
    rate_flag: Vec<bool>,
    owners: Vec<usize>,
    owner_flag: Vec<bool>,
    // Telemetry (drained via `take_stats`, never read by the cache).
    /// Download-rate recomputations performed since the last drain.
    stat_recomputes: u64,
    /// Refreshes satisfied by the early return (nothing dirty).
    stat_clean: u64,
}

impl RateCache {
    /// Creates an empty cache for `k` subtorrents.
    ///
    /// `origin_seeds` has the same meaning as in
    /// [`crate::rate::compute_rates`].
    pub fn new(k: usize, scheme: SchemeKind, params: &FluidParams, origin_seeds: usize) -> Self {
        let origin_bw = if origin_seeds > 0 {
            origin_seeds as f64 * params.mu()
        } else {
            0.0
        };
        RateCache {
            k,
            scheme,
            mu: params.mu(),
            eta: params.eta(),
            origin_bw,
            origin_demand_aware: matches!(scheme, SchemeKind::Mfcd | SchemeKind::Cmfsd { .. }),
            weight: vec![0.0; k],
            pool_real: vec![0.0; k],
            pool_virtual: vec![0.0; k],
            downloaders: vec![Vec::new(); k],
            sources: vec![Vec::new(); k],
            reg: Vec::new(),
            dirty_w: Vec::new(),
            dirty_w_flag: vec![false; k],
            dirty_p: Vec::new(),
            dirty_p_flag: vec![false; k],
            touched: Vec::new(),
            touched_flag: Vec::new(),
            wc: Vec::new(),
            pd: Vec::new(),
            pd_flag: vec![false; k],
            rate_files: Vec::new(),
            rate_flag: vec![false; k],
            owners: Vec::new(),
            owner_flag: Vec::new(),
            stat_recomputes: 0,
            stat_clean: 0,
        }
    }

    /// Drains the telemetry accumulated since the last call:
    /// `(download-rate recomputations, clean refresh hits)`.
    pub fn take_stats(&mut self) -> (u64, u64) {
        let stats = (self.stat_recomputes, self.stat_clean);
        self.stat_recomputes = 0;
        self.stat_clean = 0;
        stats
    }

    /// Changes the origin-publisher count mid-run (scenario seed crash /
    /// recovery) and marks every pool dirty so the next [`Self::refresh`]
    /// redistributes the new bandwidth.
    ///
    /// Marking all pools (rather than diffing) keeps the bit-exactness
    /// contract trivially: the forced-recompute mode recomputes every pool
    /// anyway, and an incremental recompute of an unchanged pool is a
    /// bitwise no-op.
    pub fn set_origin_seeds(&mut self, origin_seeds: usize) {
        let bw = if origin_seeds > 0 {
            origin_seeds as f64 * self.mu
        } else {
            0.0
        };
        if bw.to_bits() == self.origin_bw.to_bits() {
            return;
        }
        self.origin_bw = bw;
        for f in 0..self.k {
            self.mark_p(f);
        }
    }

    /// Grows per-peer bookkeeping to cover `n` peer slab slots.
    pub fn grow(&mut self, n: usize) {
        while self.reg.len() < n {
            self.reg.push(PeerReg::default());
        }
        if self.touched_flag.len() < n {
            self.touched_flag.resize(n, false);
        }
        if self.owner_flag.len() < n {
            self.owner_flag.resize(n, false);
        }
    }

    fn mark_w(&mut self, f: usize) {
        if !self.dirty_w_flag[f] {
            self.dirty_w_flag[f] = true;
            self.dirty_w.push(f);
        }
    }

    fn mark_p(&mut self, f: usize) {
        if !self.dirty_p_flag[f] {
            self.dirty_p_flag[f] = true;
            self.dirty_p.push(f);
        }
    }

    fn mark_touched(&mut self, idx: usize) {
        if !self.touched_flag[idx] {
            self.touched_flag[idx] = true;
            self.touched.push(idx);
        }
    }

    /// Removes a peer's current memberships from the aggregate structures
    /// and marks the affected subtorrents dirty. Does not settle — the
    /// engine settles the peer before calling this.
    pub fn deregister(&mut self, idx: usize, _peers: &[Peer]) {
        self.mark_touched(idx);
        let reg = std::mem::take(&mut self.reg[idx]);
        for &(slot, file, _u, _w) in &reg.active {
            let f = file as usize;
            let list = &mut self.downloaders[f];
            let pos = list
                .binary_search_by_key(&(idx as u32, slot), |m| (m.peer, m.slot))
                .expect("deregistering a member that was never inserted");
            list.remove(pos);
            self.mark_w(f);
        }
        for (ord, src) in reg.sources.iter().enumerate() {
            let sref = SourceRef {
                peer: idx as u32,
                ord: ord as u32,
            };
            for &f in &src.files {
                let list = &mut self.sources[f];
                let pos = list
                    .binary_search(&sref)
                    .expect("deregistering a source that was never inserted");
                list.remove(pos);
                self.mark_p(f);
            }
        }
        // reg[idx] is left empty (registered = false) until re-registered.
        let slot = &mut self.reg[idx];
        slot.active = reg.active;
        slot.active.clear();
        slot.sources = reg.sources;
        slot.sources.clear();
        slot.registered = false;
    }

    /// Computes the peer's current memberships (mirroring
    /// `crate::rate::view`) and inserts them, marking the affected
    /// subtorrents dirty.
    pub fn register(&mut self, idx: usize, peers: &[Peer]) {
        self.mark_touched(idx);
        let peer = &peers[idx];
        debug_assert!(!self.reg[idx].registered, "double registration");
        let mut reg = std::mem::take(&mut self.reg[idx]);
        reg.registered = true;
        self.fill_membership(peer, &mut reg);
        for &(slot, file, u, w) in &reg.active {
            let f = file as usize;
            let list = &mut self.downloaders[f];
            let pos = list
                .binary_search_by_key(&(idx as u32, slot), |m| (m.peer, m.slot))
                .expect_err("duplicate downloader membership");
            list.insert(
                pos,
                Member {
                    peer: idx as u32,
                    slot,
                    u,
                    w,
                },
            );
            self.mark_w(f);
        }
        for (ord, src) in reg.sources.iter().enumerate() {
            let sref = SourceRef {
                peer: idx as u32,
                ord: ord as u32,
            };
            for &f in &src.files {
                let list = &mut self.sources[f];
                let pos = list
                    .binary_search(&sref)
                    .expect_err("duplicate source membership");
                list.insert(pos, sref);
                self.mark_p(f);
            }
        }
        self.reg[idx] = reg;
    }

    /// Mirrors `crate::rate::view`: what the peer contributes under the
    /// configured scheme, in the same order.
    fn fill_membership(&self, peer: &Peer, reg: &mut PeerReg) {
        let mu = self.mu;
        let class = peer.class() as f64;
        match self.scheme {
            SchemeKind::Mtsd => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    reg.active
                        .push((slot as u32, peer.slots[slot].file as u32, mu, 1.0));
                }
                Phase::SeedingFile(slot) => {
                    reg.sources.push(PeerSource {
                        files: vec![peer.slots[slot].file as usize],
                        bandwidth: mu,
                        is_virtual: false,
                    });
                }
                Phase::SeedingAll | Phase::Departed => {}
            },
            SchemeKind::Mtcd | SchemeKind::Mfcd => {
                if peer.phase == Phase::Departed {
                    return;
                }
                let share = mu / class;
                for slot in 0..peer.class() {
                    if !peer.finished(slot) {
                        reg.active.push((
                            slot as u32,
                            peer.slots[slot].file as u32,
                            share,
                            1.0 / class,
                        ));
                    } else if peer.slots[slot].seed_until.is_some() {
                        reg.sources.push(PeerSource {
                            files: vec![peer.slots[slot].file as usize],
                            bandwidth: share,
                            is_virtual: false,
                        });
                    }
                }
            }
            SchemeKind::Cmfsd { .. } => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    if peer.done_count() >= 1 {
                        let rho = peer.rho;
                        reg.active
                            .push((slot as u32, peer.slots[slot].file as u32, rho * mu, 1.0));
                        let donated = (1.0 - rho) * mu;
                        if donated > 0.0 {
                            let files = peer
                                .finished_slots()
                                .into_iter()
                                .map(|s| peer.slots[s].file as usize)
                                .collect();
                            reg.sources.push(PeerSource {
                                files,
                                bandwidth: donated,
                                is_virtual: true,
                            });
                        }
                    } else {
                        reg.active
                            .push((slot as u32, peer.slots[slot].file as u32, mu, 1.0));
                    }
                }
                Phase::SeedingAll => {
                    reg.sources.push(PeerSource {
                        files: peer.files().map(usize::from).collect(),
                        bandwidth: mu,
                        is_virtual: false,
                    });
                }
                Phase::SeedingFile(_) | Phase::Departed => {}
            },
        }
    }

    /// Recomputes dirty aggregates and updates the rates they feed,
    /// settling every download/donation whose rate bit-changes before the
    /// new value is stored on the peer.
    ///
    /// With `force` the full recompute path of the seed engine is
    /// replayed: every weight, pool, and rate is recomputed (and, by the
    /// ordered-resummation argument in the module docs, every unchanged
    /// one reproduces its cached bits). `changed` receives the
    /// `(peer, slot)` of every download whose rate changed, for completion
    /// rescheduling.
    pub fn refresh(
        &mut self,
        peers: &mut [Peer],
        t: f64,
        force: bool,
        changed: &mut Vec<(u32, u32)>,
    ) {
        changed.clear();
        if !force && self.dirty_w.is_empty() && self.dirty_p.is_empty() && self.touched.is_empty() {
            self.stat_clean += 1;
            return;
        }

        // Pass 1: weights. `wc` collects the bit-changed files.
        self.wc.clear();
        if force {
            for f in 0..self.k {
                self.recompute_weight(f);
            }
        } else {
            let dirty = std::mem::take(&mut self.dirty_w);
            for &f in &dirty {
                self.recompute_weight(f);
            }
            self.dirty_w = dirty;
        }

        // Pass 2: the pool-dirty set `pd`.
        self.pd.clear();
        if force {
            for f in 0..self.k {
                self.pd_flag[f] = true;
                self.pd.push(f);
            }
        } else {
            let dirty = std::mem::take(&mut self.dirty_p);
            for &f in &dirty {
                self.mark_pd(f);
            }
            self.dirty_p = dirty;
            let wc = std::mem::take(&mut self.wc);
            for &f in &wc {
                self.mark_pd(f);
                // Sources serving a weight-changed file redistribute their
                // bandwidth over all their files.
                for i in 0..self.sources[f].len() {
                    let sref = self.sources[f][i];
                    for j in 0..self.reg[sref.peer as usize].sources[sref.ord as usize]
                        .files
                        .len()
                    {
                        let g = self.reg[sref.peer as usize].sources[sref.ord as usize].files[j];
                        self.mark_pd(g);
                    }
                }
            }
            if self.origin_demand_aware && self.origin_bw > 0.0 && !wc.is_empty() {
                for f in 0..self.k {
                    self.mark_pd(f);
                }
            }
            self.wc = wc;
        }

        // Pass 3: pools, collecting donation owners along the way.
        self.owners.clear();
        for i in 0..self.touched.len() {
            let p = self.touched[i];
            self.mark_owner(p);
        }
        for i in 0..self.pd.len() {
            let f = self.pd[i];
            let mut pr = 0.0;
            let mut pv = 0.0;
            if self.origin_bw > 0.0 {
                if self.origin_demand_aware {
                    let demand: f64 = self.weight.iter().sum();
                    if demand > 0.0 && self.weight[f] > 0.0 {
                        pr += self.origin_bw * self.weight[f] / demand;
                    }
                } else {
                    pr += self.origin_bw;
                }
            }
            for j in 0..self.sources[f].len() {
                let sref = self.sources[f][j];
                let src = &self.reg[sref.peer as usize].sources[sref.ord as usize];
                if src.is_virtual {
                    // Inline owner marking: `src` pins `self.reg` borrowed.
                    let p = sref.peer as usize;
                    if !self.owner_flag[p] {
                        self.owner_flag[p] = true;
                        self.owners.push(p);
                    }
                }
                let demand: f64 = src.files.iter().map(|&g| self.weight[g]).sum();
                if demand <= 0.0 {
                    continue;
                }
                if self.weight[f] > 0.0 {
                    let share = src.bandwidth * self.weight[f] / demand;
                    if src.is_virtual {
                        pv += share;
                    } else {
                        pr += share;
                    }
                }
            }
            if pr.to_bits() != self.pool_real[f].to_bits()
                || pv.to_bits() != self.pool_virtual[f].to_bits()
            {
                self.pool_real[f] = pr;
                self.pool_virtual[f] = pv;
                if !self.rate_flag[f] {
                    self.rate_flag[f] = true;
                    self.rate_files.push(f);
                }
            }
        }

        // Pass 4: download rates for members of weight- or pool-changed
        // files plus all active slots of touched peers. Under `force` the
        // seed engine's full pass is replayed: every rate is recomputed
        // (unchanged ones are bitwise no-ops and trigger nothing).
        if force {
            for f in 0..self.k {
                if !self.rate_flag[f] {
                    self.rate_flag[f] = true;
                    self.rate_files.push(f);
                }
            }
        }
        for i in 0..self.wc.len() {
            let f = self.wc[i];
            if !self.rate_flag[f] {
                self.rate_flag[f] = true;
                self.rate_files.push(f);
            }
        }
        let mut recomputed = 0u64;
        for i in 0..self.rate_files.len() {
            let f = self.rate_files[i];
            recomputed += self.downloaders[f].len() as u64;
            for j in 0..self.downloaders[f].len() {
                let m = self.downloaders[f][j];
                self.recompute_rate(peers, t, m.peer, m.slot, f, m.u, m.w, changed);
            }
        }
        for i in 0..self.touched.len() {
            let p = self.touched[i];
            recomputed += self.reg[p].active.len() as u64;
            for j in 0..self.reg[p].active.len() {
                let (slot, file, u, w) = self.reg[p].active[j];
                self.recompute_rate(peers, t, p as u32, slot, file as usize, u, w, changed);
            }
        }
        self.stat_recomputes += recomputed;

        // Pass 5: donation rates for owners.
        if force {
            for p in 0..self.reg.len() {
                self.mark_owner(p);
            }
        }
        for i in 0..self.owners.len() {
            let p = self.owners[i];
            let mut dr = 0.0;
            for src in &self.reg[p].sources {
                if !src.is_virtual {
                    continue;
                }
                let demand: f64 = src.files.iter().map(|&g| self.weight[g]).sum();
                if demand > 0.0 {
                    dr += src.bandwidth;
                }
            }
            let peer = &mut peers[p];
            if dr.to_bits() != peer.donation_rate.to_bits() {
                peer.settle_donation(t);
                peer.donation_rate = dr;
            }
        }

        // Reset dirty/scratch state for the next round.
        for &f in &self.dirty_w {
            self.dirty_w_flag[f] = false;
        }
        self.dirty_w.clear();
        for &f in &self.dirty_p {
            self.dirty_p_flag[f] = false;
        }
        self.dirty_p.clear();
        for &p in &self.touched {
            self.touched_flag[p] = false;
        }
        self.touched.clear();
        for &f in &self.pd {
            self.pd_flag[f] = false;
        }
        self.pd.clear();
        for &f in &self.rate_files {
            self.rate_flag[f] = false;
        }
        self.rate_files.clear();
        for &p in &self.owners {
            self.owner_flag[p] = false;
        }
        self.owners.clear();
        self.wc.clear();
    }

    fn mark_pd(&mut self, f: usize) {
        if !self.pd_flag[f] {
            self.pd_flag[f] = true;
            self.pd.push(f);
        }
    }

    fn mark_owner(&mut self, p: usize) {
        if !self.owner_flag[p] {
            self.owner_flag[p] = true;
            self.owners.push(p);
        }
    }

    /// Re-sums `weight[f]` over the ordered member list; records a bit
    /// change in `wc`.
    fn recompute_weight(&mut self, f: usize) {
        let s: f64 = self.downloaders[f].iter().map(|m| m.w).sum();
        if s.to_bits() != self.weight[f].to_bits() {
            self.weight[f] = s;
            self.wc.push(f);
        }
    }

    /// Recomputes one download's rate with the exact float expression of
    /// `compute_rates`; on a bit change settles the slot and stores it.
    #[allow(clippy::too_many_arguments)]
    fn recompute_rate(
        &self,
        peers: &mut [Peer],
        t: f64,
        p: u32,
        slot: u32,
        f: usize,
        u: f64,
        w: f64,
        changed: &mut Vec<(u32, u32)>,
    ) {
        let share = if self.weight[f] > 0.0 {
            w / self.weight[f]
        } else {
            0.0
        };
        let from_real = share * self.pool_real[f];
        let from_virtual = share * self.pool_virtual[f];
        let rate = self.eta * u + from_real + from_virtual;
        let peer = &mut peers[p as usize];
        let s = slot as usize;
        if rate.to_bits() != peer.slots[s].rate.to_bits()
            || from_virtual.to_bits() != peer.slots[s].vs_rate.to_bits()
        {
            peer.settle_slot(s, t);
            peer.slots[s].rate = rate;
            peer.slots[s].vs_rate = from_virtual;
            changed.push((p, slot));
        }
    }

    /// Current downloader weight per subtorrent.
    pub fn weight(&self) -> &[f64] {
        &self.weight
    }

    /// Current real-seed pool per subtorrent.
    pub fn pool_real(&self) -> &[f64] {
        &self.pool_real
    }

    /// Current virtual-seed pool per subtorrent.
    pub fn pool_virtual(&self) -> &[f64] {
        &self.pool_virtual
    }

    /// Materializes a [`RateSnapshot`] from the cached state (testing and
    /// verification; downloads in the same order `compute_rates` emits).
    pub fn snapshot(&self, peers: &[Peer]) -> RateSnapshot {
        let mut snap = RateSnapshot {
            downloads: Vec::new(),
            donations: vec![0.0; peers.len()],
        };
        for (idx, reg) in self.reg.iter().enumerate() {
            if idx >= peers.len() {
                break;
            }
            for &(slot, _f, _u, _w) in &reg.active {
                let s = slot as usize;
                snap.downloads.push(ActiveDownload {
                    peer_idx: idx,
                    slot: s,
                    rate: peers[idx].slots[s].rate,
                    vs_rate: peers[idx].slots[s].vs_rate,
                });
            }
            snap.donations[idx] = peers[idx].donation_rate;
        }
        snap
    }
}
