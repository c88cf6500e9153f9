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
//! ## Source table
//!
//! Seed sources live in one slab (`SourceTable`): bandwidth, owner,
//! kind, a cached `demand` (the left-to-right sum of its files' weights,
//! exactly as `compute_rates` sums it) and its files in a shared arena.
//! Each file keeps two lists of `(sid, bandwidth)` entries sorted by
//! `(peer, ord)`, one for real and one for virtual sources. Each pool is
//! its own accumulator, so splitting the lists keeps both summation
//! orders; the pool pass costs one multiply, one divide and one add per
//! membership.
//!
//! ## Dirty propagation
//!
//! * A membership change on subtorrent `f` marks `weight[f]` dirty.
//! * A bit-changed `weight[f]` invalidates: `f`'s own pools, the pools of
//!   every file served by any source that also serves `f` (their
//!   demand-aware split changed), and — when a demand-aware origin
//!   publisher exists (MFCD/CMFSD) — every pool (the global demand
//!   changed).
//! * A source's demand is computed when it is registered (after the
//!   weight pass of the next refresh) and recomputed only by the walk over
//!   the bit-changed weights above, which visits every source serving a
//!   changed file. A source none of whose files changed weight bits keeps
//!   its cached demand, which equals a fresh sum bit for bit.
//! * Download rates are recomputed for every member of a subtorrent whose
//!   weight or pools bit-changed, plus every active slot of a peer touched
//!   this round (its TFT upload `u` can change with no weight change,
//!   e.g. a CMFSD peer finishing its first file at unchanged weight 1).
//! * Donation rates are recomputed for touched peers and for owners of
//!   virtual sources whose demand was recomputed (a donation counts only
//!   while its source's demand is positive).

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

/// One seed source in a subtorrent's real or virtual source list.
#[derive(Debug, Clone, Copy)]
struct SourceEntry {
    /// Sort key `(owner peer, ordinal within the owner)` as
    /// `peer << 32 | ord`.
    key: u64,
    /// Index into the [`SourceTable`].
    sid: u32,
    bandwidth: f64,
}

fn source_key(peer: usize, ord: usize) -> u64 {
    ((peer as u64) << 32) | ord as u64
}

/// Per-source metadata in the [`SourceTable`].
#[derive(Debug, Clone, Copy)]
struct Source {
    bandwidth: f64,
    owner: u32,
    is_virtual: bool,
    /// The source's files: `files[start..start + len]`, room for `cap`.
    start: u32,
    len: u32,
    cap: u32,
    /// Refresh round in which `demand` was last computed.
    round: u64,
}

/// Slab of registered seed sources. Released ids are reused LIFO, and a
/// reused id keeps its arena range when the new file set fits.
#[derive(Debug, Default)]
struct SourceTable {
    meta: Vec<Source>,
    /// Σ weight over the source's files, in file order.
    demand: Vec<f64>,
    files: Vec<u32>,
    free: Vec<u32>,
    /// Staging buffer for the file set being allocated.
    staging: Vec<u32>,
}

impl SourceTable {
    /// Stores a source serving `files` (in view order) and returns its id.
    fn alloc(
        &mut self,
        owner: usize,
        bandwidth: f64,
        is_virtual: bool,
        files: impl IntoIterator<Item = usize>,
    ) -> u32 {
        self.staging.clear();
        self.staging.extend(files.into_iter().map(|f| f as u32));
        let len = self.staging.len() as u32;
        let sid = match self.free.pop() {
            Some(sid) => sid,
            None => {
                self.meta.push(Source {
                    bandwidth: 0.0,
                    owner: 0,
                    is_virtual: false,
                    start: 0,
                    len: 0,
                    cap: 0,
                    round: 0,
                });
                self.demand.push(0.0);
                (self.meta.len() - 1) as u32
            }
        };
        let src = &mut self.meta[sid as usize];
        if src.cap < len {
            src.start = self.files.len() as u32;
            src.cap = len.next_power_of_two();
            self.files.resize(self.files.len() + src.cap as usize, 0);
        }
        src.bandwidth = bandwidth;
        src.owner = owner as u32;
        src.is_virtual = is_virtual;
        src.len = len;
        let start = src.start as usize;
        self.files[start..start + len as usize].copy_from_slice(&self.staging);
        sid
    }

    fn files(&self, sid: u32) -> &[u32] {
        let src = &self.meta[sid as usize];
        &self.files[src.start as usize..(src.start + src.len) as usize]
    }

    /// Recomputes and caches the source's demand for refresh `round`.
    fn refresh_demand(&mut self, sid: u32, weight: &[f64], round: u64) {
        let d: f64 = self.files(sid).iter().map(|&g| weight[g as usize]).sum();
        self.demand[sid as usize] = d;
        self.meta[sid as usize].round = round;
    }
}

/// What one peer currently has registered in the cache.
#[derive(Debug, Default)]
struct PeerReg {
    /// Active downloads `(slot, file, u, w)` in view order.
    active: Vec<(u32, u32, f64, f64)>,
    /// Seed source ids in view order (the index is the source's `ord`).
    sources: Vec<u32>,
    registered: bool,
}

/// One subtorrent's aggregates as pass 4 reads them.
#[derive(Debug, Clone, Copy)]
struct FileAgg {
    eta: f64,
    weight: f64,
    pool_real: f64,
    pool_virtual: f64,
}

impl FileAgg {
    /// Recomputes one download's rate with the exact float expression of
    /// `compute_rates`; on a bit change settles the slot and stores it.
    fn update(&self, peers: &mut [Peer], t: f64, m: Member, changed: &mut Vec<(u32, u32)>) {
        let share = if self.weight > 0.0 {
            m.w / self.weight
        } else {
            0.0
        };
        let from_real = share * self.pool_real;
        let from_virtual = share * self.pool_virtual;
        let rate = self.eta * m.u + from_real + from_virtual;
        let peer = &mut peers[m.peer as usize];
        let s = m.slot as usize;
        if rate.to_bits() != peer.slots[s].rate.to_bits()
            || from_virtual.to_bits() != peer.slots[s].vs_rate.to_bits()
        {
            peer.settle_slot(s, t);
            peer.slots[s].rate = rate;
            peer.slots[s].vs_rate = from_virtual;
            changed.push((m.peer, m.slot));
        }
    }
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
    /// Per file: real seed sources serving it, sorted by (peer, ord).
    src_real: Vec<Vec<SourceEntry>>,
    /// Per file: virtual seed sources serving it, sorted by (peer, ord).
    src_virtual: Vec<Vec<SourceEntry>>,
    table: SourceTable,
    reg: Vec<PeerReg>,
    /// Refresh counter stamping recomputed demands.
    round: u64,
    /// Sources registered since the last refresh (their demand is stale).
    fresh: Vec<u32>,
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
            src_real: vec![Vec::new(); k],
            src_virtual: vec![Vec::new(); k],
            table: SourceTable::default(),
            reg: Vec::new(),
            round: 0,
            fresh: Vec::new(),
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
        let mut reg = std::mem::take(&mut self.reg[idx]);
        for &(slot, file, _u, _w) in &reg.active {
            let f = file as usize;
            let list = &mut self.downloaders[f];
            let pos = list
                .binary_search_by_key(&(idx as u32, slot), |m| (m.peer, m.slot))
                .expect("deregistering a member that was never inserted");
            list.remove(pos);
            self.mark_w(f);
        }
        for (ord, &sid) in reg.sources.iter().enumerate() {
            let key = source_key(idx, ord);
            let is_virtual = self.table.meta[sid as usize].is_virtual;
            for i in 0..self.table.files(sid).len() {
                let g = self.table.files(sid)[i] as usize;
                let list = self.source_list(g, is_virtual);
                let pos = list
                    .binary_search_by_key(&key, |e| e.key)
                    .expect("deregistering a source that was never inserted");
                list.remove(pos);
                self.mark_p(g);
            }
            self.table.free.push(sid);
        }
        // reg[idx] is left empty (registered = false) until re-registered.
        reg.active.clear();
        reg.sources.clear();
        reg.registered = false;
        self.reg[idx] = reg;
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
        self.fill_membership(idx, peer, &mut reg);
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
        for (ord, &sid) in reg.sources.iter().enumerate() {
            let key = source_key(idx, ord);
            let Source {
                bandwidth,
                is_virtual,
                ..
            } = self.table.meta[sid as usize];
            for i in 0..self.table.files(sid).len() {
                let g = self.table.files(sid)[i] as usize;
                let list = self.source_list(g, is_virtual);
                let pos = list
                    .binary_search_by_key(&key, |e| e.key)
                    .expect_err("duplicate source membership");
                list.insert(
                    pos,
                    SourceEntry {
                        key,
                        sid,
                        bandwidth,
                    },
                );
                self.mark_p(g);
            }
            self.fresh.push(sid);
        }
        self.reg[idx] = reg;
    }

    /// File `g`'s real or virtual source list.
    fn source_list(&mut self, g: usize, is_virtual: bool) -> &mut Vec<SourceEntry> {
        if is_virtual {
            &mut self.src_virtual[g]
        } else {
            &mut self.src_real[g]
        }
    }

    /// Mirrors `crate::rate::view`: what the peer contributes under the
    /// configured scheme, in the same order. Sources are allocated in the
    /// table; their list entries are inserted by the caller.
    fn fill_membership(&mut self, idx: usize, peer: &Peer, reg: &mut PeerReg) {
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
                    let file = peer.slots[slot].file as usize;
                    reg.sources.push(self.table.alloc(idx, mu, false, [file]));
                }
                Phase::SeedingAll | Phase::Departed => {}
            },
            SchemeKind::Mtcd | SchemeKind::Mfcd => {
                if peer.phase == Phase::Departed {
                    return;
                }
                let share = mu / class;
                for slot in 0..peer.class() {
                    let file = peer.slots[slot].file as usize;
                    if !peer.finished(slot) {
                        reg.active
                            .push((slot as u32, file as u32, share, 1.0 / class));
                    } else if peer.slots[slot].seed_until.is_some() {
                        reg.sources
                            .push(self.table.alloc(idx, share, false, [file]));
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
                            let files = (0..peer.class())
                                .filter(|&s| peer.finished(s))
                                .map(|s| peer.slots[s].file as usize);
                            reg.sources
                                .push(self.table.alloc(idx, donated, true, files));
                        }
                    } else {
                        reg.active
                            .push((slot as u32, peer.slots[slot].file as u32, mu, 1.0));
                    }
                }
                Phase::SeedingAll => {
                    let files = peer.files().map(usize::from);
                    reg.sources.push(self.table.alloc(idx, mu, false, files));
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
    /// replayed: every weight, demand, pool, and rate is recomputed (and,
    /// by the ordered-resummation argument in the module docs, every
    /// unchanged one reproduces its cached bits). `changed` receives the
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
        self.round += 1;
        let round = self.round;

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

        // Demands of sources registered this round, now that the weights
        // are final (under `force`, of every source).
        if force {
            for sid in 0..self.table.meta.len() as u32 {
                self.table.refresh_demand(sid, &self.weight, round);
            }
        } else {
            for &sid in &self.fresh {
                self.table.refresh_demand(sid, &self.weight, round);
            }
        }
        self.fresh.clear();

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
                self.walk_sources(f, round);
            }
            if self.origin_demand_aware && self.origin_bw > 0.0 && !wc.is_empty() {
                for f in 0..self.k {
                    self.mark_pd(f);
                }
            }
            self.wc = wc;
        }

        // Pass 3: pools, from the cached source demands.
        let total_weight: f64 = if self.origin_demand_aware && self.origin_bw > 0.0 {
            self.weight.iter().sum()
        } else {
            0.0
        };
        let demand = &self.table.demand;
        for &f in &self.pd {
            let wf = self.weight[f];
            let mut pr = 0.0;
            let mut pv = 0.0;
            if self.origin_bw > 0.0 {
                if self.origin_demand_aware {
                    if total_weight > 0.0 && wf > 0.0 {
                        pr += self.origin_bw * wf / total_weight;
                    }
                } else {
                    pr += self.origin_bw;
                }
            }
            // A positive weight makes every serving source's demand
            // positive (it is a sum of non-negative weights including
            // `wf`), so no per-source guard is needed.
            if wf > 0.0 {
                for e in &self.src_real[f] {
                    pr += e.bandwidth * wf / demand[e.sid as usize];
                }
                for e in &self.src_virtual[f] {
                    pv += e.bandwidth * wf / demand[e.sid as usize];
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
        for &f in &self.rate_files {
            let agg = self.file_agg(f);
            let members = &self.downloaders[f];
            recomputed += members.len() as u64;
            for &m in members {
                agg.update(peers, t, m, changed);
            }
        }
        for &p in &self.touched {
            let active = &self.reg[p].active;
            recomputed += active.len() as u64;
            for &(slot, file, u, w) in active {
                let m = Member {
                    peer: p as u32,
                    slot,
                    u,
                    w,
                };
                self.file_agg(file as usize).update(peers, t, m, changed);
            }
        }
        self.stat_recomputes += recomputed;

        // Pass 5: donation rates for touched peers and the owners the
        // source walk marked.
        if force {
            for p in 0..self.reg.len() {
                self.mark_owner(p);
            }
        }
        for i in 0..self.touched.len() {
            let p = self.touched[i];
            self.mark_owner(p);
        }
        for &p in &self.owners {
            let mut dr = 0.0;
            for &sid in &self.reg[p].sources {
                let src = &self.table.meta[sid as usize];
                if src.is_virtual && self.table.demand[sid as usize] > 0.0 {
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

    /// Visits the sources serving weight-changed file `f` in `(peer, ord)`
    /// order, merging the real and virtual lists. A source not yet seen
    /// this round gets a fresh demand, marks its virtual owner for the
    /// donation pass, and marks every file it serves pool-dirty. A source
    /// already seen this round (registered, or reached through another
    /// changed file) has nothing left to mark.
    fn walk_sources(&mut self, f: usize, round: u64) {
        let (mut i, mut j) = (0, 0);
        loop {
            let real = self.src_real[f].get(i);
            let virt = self.src_virtual[f].get(j);
            let sid = match (real, virt) {
                (Some(a), Some(b)) if a.key < b.key => {
                    i += 1;
                    a.sid
                }
                (_, Some(b)) => {
                    j += 1;
                    b.sid
                }
                (Some(a), None) => {
                    i += 1;
                    a.sid
                }
                (None, None) => break,
            };
            let src = self.table.meta[sid as usize];
            if src.round == round {
                continue;
            }
            self.table.refresh_demand(sid, &self.weight, round);
            if src.is_virtual {
                self.mark_owner(src.owner as usize);
            }
            for g in src.start..src.start + src.len {
                let g = self.table.files[g as usize] as usize;
                self.mark_pd(g);
            }
        }
    }

    fn file_agg(&self, f: usize) -> FileAgg {
        FileAgg {
            eta: self.eta,
            weight: self.weight[f],
            pool_real: self.pool_real[f],
            pool_virtual: self.pool_virtual[f],
        }
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
