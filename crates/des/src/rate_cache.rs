//! Incremental rate maintenance: per-subtorrent aggregates kept up to date
//! event-by-event, and one virtual clock per rate group instead of per
//! download.
//!
//! [`crate::rate::compute_rates`] rebuilds `weight`, `pool_real`,
//! `pool_virtual` and every download rate from the whole population on
//! every call — O(peers) per event. [`RateCache`] maintains the same
//! aggregates incrementally: when a peer's membership changes (arrival,
//! completion, expiry, ρ update) the engine deregisters and re-registers
//! that one peer, which marks the affected subtorrents dirty; the
//! subsequent [`RateCache::refresh`] recomputes only dirty aggregates and
//! the group rates they feed.
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
//! ## Groups and virtual clocks
//!
//! A download of file `f` with TFT upload `u` and weight `w` receives
//! `η·u + (w/weight[f])·pool_real[f] + (w/weight[f])·pool_virtual[f]`, so
//! downloads of one file whose `(u, w)` have identical bits get identical
//! rate bits. The cache keeps each such set in one *group*: one per file
//! under MTSD, one per (file, class) under MTCD/MFCD, one per (file, band)
//! under CMFSD, one per distinct ρ under Adapt. A group evaluates its rate
//! once, with the exact float expression of `compute_rates`, and keeps two
//! clocks: `V = ∫ rate dt` and `VS = ∫ vs_rate dt`. Both are settled at
//! the old rate only when the rate bits change (change detection is by
//! `f64::to_bits`), so integration stays exact piecewise-linear.
//!
//! A download joins its group at *mark* `V + remaining` (and `VS`), and
//! leaves it with `remaining = mark − V` and `received_vs += VS − vs_mark`.
//! While it is a member, [`crate::peer::Slot::remaining`] keeps the value
//! it joined with. The group's next completion is its smallest
//! `(mark, peer, slot)`, kept in an indexed per-group heap, due at
//! `anchor + (mark − V)/rate`. A rate change therefore costs O(1) per
//! group, not O(members).
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
//! * Group rates are recomputed for every group of a subtorrent whose
//!   weight or pools bit-changed, plus every group created since the last
//!   refresh. A touched peer's downloads left and rejoined their groups,
//!   so a `u` that changed with no weight change (e.g. a CMFSD peer
//!   finishing its first file at unchanged weight 1) lands in another
//!   group.
//! * Donation rates are recomputed for touched peers and for owners of
//!   virtual sources whose demand was recomputed (a donation counts only
//!   while its source's demand is positive).

use crate::config::SchemeKind;
use crate::event_queue::{remove_at, sift_down, sift_up};
use crate::peer::{Peer, SlotArena};
use crate::rate::{visit, ActiveDownload, RateSnapshot};
use btfluid_core::FluidParams;
use std::collections::HashMap;

/// One downloader membership in a subtorrent's member list.
#[derive(Debug, Clone, Copy)]
struct Member {
    peer: u32,
    slot: u32,
    /// Downloader weight `w` of this download.
    w: f64,
}

/// One download's place in its group: the clock reading at which it
/// finishes, and the virtual-seed clock reading when it joined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Mark {
    pub(crate) mark: f64,
    pub(crate) vs_mark: f64,
    pub(crate) peer: u32,
    pub(crate) slot: u32,
}

impl Mark {
    /// The heap order: `(mark, peer, slot)`.
    fn before(&self, other: &Mark) -> bool {
        self.mark
            .total_cmp(&other.mark)
            .then(self.peer.cmp(&other.peer))
            .then(self.slot.cmp(&other.slot))
            .is_lt()
    }
}

/// The downloads of one file with bit-identical `(u, w)`: one rate, one
/// pair of clocks, and a min-heap of marks. A snapshot stores every
/// occupied group with its members sorted by `(peer, slot)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Group {
    pub(crate) file: u32,
    pub(crate) u: f64,
    pub(crate) w: f64,
    pub(crate) rate: f64,
    pub(crate) vs_rate: f64,
    /// `V`: per-member work served up to `anchor`.
    pub(crate) clock: f64,
    /// `VS`: per-member virtual-seed work served up to `anchor`.
    pub(crate) vs_clock: f64,
    /// Time the clocks were last settled.
    pub(crate) anchor: f64,
    /// Members, a binary min-heap in [`Mark::before`] order.
    pub(crate) heap: Vec<Mark>,
    /// Position in the file's group list.
    pub(crate) fpos: u32,
    /// Refresh round of the last rate evaluation (0: never evaluated).
    pub(crate) round: u64,
}

impl Group {
    /// The clocks read at `t`, without settling them.
    fn clocks_at(&self, t: f64) -> (f64, f64) {
        let dt = t - self.anchor;
        if dt > 0.0 {
            (
                self.clock + self.rate * dt,
                self.vs_clock + self.vs_rate * dt,
            )
        } else {
            (self.clock, self.vs_clock)
        }
    }

    /// Folds the interval since the last settlement into the clocks at
    /// the current rate and re-anchors them at `t`.
    fn settle(&mut self, t: f64) {
        (self.clock, self.vs_clock) = self.clocks_at(t);
        self.anchor = t;
    }

    /// When the head finishes at the current rate (∞ if never).
    fn head_due(&self) -> f64 {
        match self.heap.first() {
            Some(h) if self.rate > 0.0 => self.anchor + (h.mark - self.clock) / self.rate,
            _ => f64::INFINITY,
        }
    }
}

/// A member's remaining work read off its group clock. An active download
/// never reads as finished: only its completion event may finish it. A
/// mark can sit on the clock to within rounding (e.g. an arrival tying
/// with the completion), and zero there would mark the slot finished
/// without ever dispatching the completion — no seed phase, no holder
/// count, no record. The smallest positive value keeps the slot alive for
/// the completion event that is due now.
fn remaining_of(m: &Mark, clock: f64) -> f64 {
    let left = m.mark - clock;
    if left > 0.0 {
        left
    } else {
        f64::MIN_POSITIVE
    }
}

/// Records in the arena that mark `m` sits at position `i` of group `g`.
fn placed(arena: &mut SlotArena, g: u32) -> impl FnMut(&Mark, usize) + '_ {
    move |m, i| arena.set(m.peer as usize, m.slot as usize, g, i as u32)
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

/// Incrementally maintained per-subtorrent rate aggregates and group
/// clocks.
///
/// Protocol (driven by the engine around every event):
/// 1. [`RateCache::deregister`] each peer whose state the event mutates
///    (its downloads leave their groups with their remaining work);
/// 2. mutate the peer;
/// 3. [`RateCache::register`] it again;
/// 4. call [`RateCache::refresh`] once, which settles and updates every
///    group whose rate actually changed, then reschedule the
///    `RateCache::changed_groups` and [`RateCache::clear_changed`].
#[derive(Debug)]
pub struct RateCache {
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
    /// Group slab; a group with an empty heap is free.
    groups: Vec<Group>,
    free_groups: Vec<u32>,
    /// `(file, u bits, w bits)` → group id, for occupied groups.
    index: HashMap<(u32, u64, u64), u32>,
    /// Per file: its occupied groups.
    file_groups: Vec<Vec<u32>>,
    /// `(peer, slot)` → `(group, heap position)`.
    arena: SlotArena,
    /// Groups whose head, rate or occupancy changed since the engine last
    /// rescheduled (list + flag).
    changed: Vec<u32>,
    changed_flag: Vec<bool>,
    /// Refresh counter stamping recomputed demands and group rates.
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
    /// Group-rate evaluations performed since the last drain.
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
            groups: Vec::new(),
            free_groups: Vec::new(),
            index: HashMap::new(),
            file_groups: vec![Vec::new(); k],
            arena: SlotArena::new(k),
            changed: Vec::new(),
            changed_flag: Vec::new(),
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
    /// `(group-rate evaluations, clean refresh hits)`.
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
        for f in 0..self.weight.len() {
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
        self.arena.ensure_peers(n);
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

    fn mark_changed(&mut self, g: u32) {
        if !self.changed_flag[g as usize] {
            self.changed_flag[g as usize] = true;
            self.changed.push(g);
        }
    }

    /// Removes a peer's current memberships from the aggregate structures
    /// and marks the affected subtorrents dirty. Each download leaves its
    /// group at `t`: its remaining work and virtual-seed receipts are read
    /// off the group clocks into the peer.
    pub fn deregister(&mut self, idx: usize, peers: &mut [Peer], t: f64) {
        self.mark_touched(idx);
        let mut reg = std::mem::take(&mut self.reg[idx]);
        let peer = &mut peers[idx];
        for &(slot, file, _u, _w) in &reg.active {
            let f = file as usize;
            let list = &mut self.downloaders[f];
            let pos = list
                .binary_search_by_key(&(idx as u32, slot), |m| (m.peer, m.slot))
                .expect("deregistering a member that was never inserted");
            list.remove(pos);
            self.mark_w(f);
            let (g, i) = self
                .arena
                .clear(idx, slot as usize)
                .expect("an active download sits in a group");
            let grp = &mut self.groups[g as usize];
            let m = remove_at(
                &mut grp.heap,
                i as usize,
                Mark::before,
                &mut placed(&mut self.arena, g),
            );
            let (clock, vs_clock) = grp.clocks_at(t);
            peer.slots[slot as usize].remaining = remaining_of(&m, clock);
            peer.received_vs += vs_clock - m.vs_mark;
            if grp.heap.is_empty() {
                self.free_group(g);
            }
            self.mark_changed(g);
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

    /// Computes the peer's current memberships (read through
    /// `crate::rate::visit`) and inserts them, marking the affected
    /// subtorrents dirty. Each download joins its `(file, u, w)` group at
    /// `t` with mark `V + remaining`.
    pub fn register(&mut self, idx: usize, peers: &[Peer], t: f64) {
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
                    w,
                },
            );
            self.mark_w(f);
            let g = self.group_for(file, u, w, t);
            let grp = &mut self.groups[g as usize];
            let (clock, vs_clock) = grp.clocks_at(t);
            grp.heap.push(Mark {
                mark: clock + peer.slots[slot as usize].remaining,
                vs_mark: vs_clock,
                peer: idx as u32,
                slot,
            });
            let last = grp.heap.len() - 1;
            sift_up(
                &mut grp.heap,
                last,
                Mark::before,
                &mut placed(&mut self.arena, g),
            );
            self.mark_changed(g);
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

    /// The occupied group of `(file, u, w)`, or a new one with both clocks
    /// at zero from `t` (its rate is set by the next refresh).
    fn group_for(&mut self, file: u32, u: f64, w: f64, t: f64) -> u32 {
        let key = (file, u.to_bits(), w.to_bits());
        if let Some(&g) = self.index.get(&key) {
            return g;
        }
        let g = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(Group::default());
            self.changed_flag.push(false);
            (self.groups.len() - 1) as u32
        });
        let list = &mut self.file_groups[file as usize];
        let heap = std::mem::take(&mut self.groups[g as usize].heap);
        self.groups[g as usize] = Group {
            file,
            u,
            w,
            anchor: t,
            fpos: list.len() as u32,
            heap,
            ..Group::default()
        };
        list.push(g);
        self.index.insert(key, g);
        g
    }

    /// Returns an emptied group to the free list.
    fn free_group(&mut self, g: u32) {
        let grp = &self.groups[g as usize];
        self.index
            .remove(&(grp.file, grp.u.to_bits(), grp.w.to_bits()));
        let list = &mut self.file_groups[grp.file as usize];
        let fpos = grp.fpos as usize;
        list.swap_remove(fpos);
        if let Some(&moved) = list.get(fpos) {
            self.groups[moved as usize].fpos = fpos as u32;
        }
        self.free_groups.push(g);
    }

    /// File `g`'s real or virtual source list.
    fn source_list(&mut self, g: usize, is_virtual: bool) -> &mut Vec<SourceEntry> {
        if is_virtual {
            &mut self.src_virtual[g]
        } else {
            &mut self.src_real[g]
        }
    }

    /// What the peer contributes under the configured scheme, read by
    /// [`crate::rate::visit`] in its order. Sources are allocated in the
    /// table; their list entries are inserted by the caller.
    fn fill_membership(&mut self, idx: usize, peer: &Peer, reg: &mut PeerReg) {
        let table = &mut self.table;
        visit(
            peer,
            self.scheme,
            self.mu,
            |slot, u, w| {
                let file = peer.slots[slot].file as u32;
                reg.active.push((slot as u32, file, u, w));
            },
            |bandwidth, is_virtual, files| {
                reg.sources
                    .push(table.alloc(idx, bandwidth, is_virtual, files));
            },
        );
    }

    /// Recomputes dirty aggregates and the group rates they feed,
    /// settling every group clock and donation whose rate bit-changes
    /// before the new value is stored. Returns how many group rates
    /// changed bits.
    ///
    /// With `force` the full recompute path of the seed engine is
    /// replayed: every weight, demand, pool, and group rate is recomputed
    /// (and, by the ordered-resummation argument in the module docs, every
    /// unchanged one reproduces its cached bits). Afterwards every
    /// `Self::changed_groups` entry carries its fresh completion time.
    pub fn refresh(&mut self, peers: &mut [Peer], t: f64, force: bool) -> usize {
        if !force && self.dirty_w.is_empty() && self.dirty_p.is_empty() && self.touched.is_empty() {
            self.stat_clean += 1;
            return 0;
        }
        self.round += 1;
        let round = self.round;
        let k = self.weight.len();

        // Pass 1: weights. `wc` collects the bit-changed files.
        self.wc.clear();
        if force {
            for f in 0..k {
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
            for f in 0..k {
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
                for f in 0..k {
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

        // Pass 4: group rates of weight- or pool-changed files (every file
        // under `force`), then of groups created since the last refresh
        // (changed, never evaluated).
        if force {
            for f in 0..k {
                self.mark_rate(f);
            }
        }
        for i in 0..self.wc.len() {
            self.mark_rate(self.wc[i]);
        }
        let mut moved = 0;
        for i in 0..self.rate_files.len() {
            let f = self.rate_files[i];
            for j in 0..self.file_groups[f].len() {
                moved += self.update_rate(self.file_groups[f][j], t, round);
            }
        }
        for i in 0..self.changed.len() {
            let g = self.changed[i];
            let grp = &self.groups[g as usize];
            if grp.round == 0 && !grp.heap.is_empty() {
                moved += self.update_rate(g, t, round);
            }
        }

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
        moved
    }

    /// Evaluates group `g`'s rate with the exact float expression of
    /// `compute_rates`; on a bit change settles the clocks at the old rate
    /// and stores the new one. Returns 1 on a change.
    fn update_rate(&mut self, g: u32, t: f64, round: u64) -> usize {
        let grp = &mut self.groups[g as usize];
        grp.round = round;
        self.stat_recomputes += 1;
        let f = grp.file as usize;
        let weight = self.weight[f];
        let share = if weight > 0.0 { grp.w / weight } else { 0.0 };
        let from_real = share * self.pool_real[f];
        let from_virtual = share * self.pool_virtual[f];
        let rate = self.eta * grp.u + from_real + from_virtual;
        if rate.to_bits() == grp.rate.to_bits() && from_virtual.to_bits() == grp.vs_rate.to_bits() {
            return 0;
        }
        grp.settle(t);
        grp.rate = rate;
        grp.vs_rate = from_virtual;
        self.mark_changed(g);
        1
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

    fn mark_pd(&mut self, f: usize) {
        if !self.pd_flag[f] {
            self.pd_flag[f] = true;
            self.pd.push(f);
        }
    }

    fn mark_rate(&mut self, f: usize) {
        if !self.rate_flag[f] {
            self.rate_flag[f] = true;
            self.rate_files.push(f);
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

    /// Groups whose completion may have moved since the last
    /// [`Self::clear_changed`] (freed ones included).
    pub(crate) fn changed_groups(&self) -> &[u32] {
        &self.changed
    }

    /// Empties `Self::changed_groups` once the engine has rescheduled
    /// them.
    pub fn clear_changed(&mut self) {
        for &g in &self.changed {
            self.changed_flag[g as usize] = false;
        }
        self.changed.clear();
    }

    /// Group `g`'s next completion `(time, peer, slot)`: its head at the
    /// current rate, or `None` when the group is free or stalled.
    pub(crate) fn next_completion(&self, g: u32) -> Option<(f64, u32, u32)> {
        let grp = &self.groups[g as usize];
        let (due, head) = (grp.head_due(), grp.heap.first()?);
        due.is_finite().then_some((due, head.peer, head.slot))
    }

    /// Group `g`'s true completion time (∞ when none is due).
    pub(crate) fn group_due(&self, g: u32) -> f64 {
        self.groups[g as usize].head_due()
    }

    /// Number of groups with a completion due (one queue entry each).
    pub(crate) fn due_groups(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.head_due().is_finite())
            .count()
    }

    /// Number of occupied rate groups.
    pub(crate) fn occupied_groups(&self) -> usize {
        self.index.len()
    }

    /// Writes every member's remaining work at `t` into its slot (closing
    /// out a run; the memberships stay).
    pub(crate) fn settle_remaining(&self, peers: &mut [Peer], t: f64) {
        for grp in &self.groups {
            let (clock, _) = grp.clocks_at(t);
            for m in &grp.heap {
                peers[m.peer as usize].slots[m.slot as usize].remaining = remaining_of(m, clock);
            }
        }
    }

    /// `(rate, vs_rate)` of download `(peer, slot)`, if it is active.
    pub(crate) fn slot_rate(&self, peer: usize, slot: usize) -> Option<(f64, f64)> {
        let (g, _) = self.arena.get(peer, slot)?;
        let grp = &self.groups[g as usize];
        Some((grp.rate, grp.vs_rate))
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
        for (idx, reg) in self.reg.iter().enumerate().take(peers.len()) {
            for &(slot, _f, _u, _w) in &reg.active {
                let s = slot as usize;
                let (rate, vs_rate) = self.slot_rate(idx, s).expect("registered download");
                snap.downloads.push(ActiveDownload {
                    peer_idx: idx,
                    slot: s,
                    rate,
                    vs_rate,
                });
            }
            snap.donations[idx] = peers[idx].donation_rate;
        }
        snap
    }

    /// Every occupied group, in `(file, u, w)` order with its members
    /// sorted by `(peer, slot)`: the snapshot encoding, which depends on
    /// neither group ids nor heap layout.
    pub(crate) fn group_clocks(&self) -> Vec<Group> {
        let mut out: Vec<Group> = self
            .groups
            .iter()
            .filter(|g| !g.heap.is_empty())
            .cloned()
            .collect();
        for g in &mut out {
            g.heap.sort_unstable_by_key(|m| (m.peer, m.slot));
        }
        out.sort_unstable_by_key(|g| (g.file, g.u.to_bits(), g.w.to_bits()));
        out
    }

    /// Snapshot restore: after every live peer has been re-registered,
    /// installs the serialized clocks, rates and marks over the groups
    /// registration built. The records must be strictly increasing in
    /// `(file, u, w)`, the order [`Self::group_clocks`] writes, so with
    /// the count check each occupied group is named exactly once; each
    /// must carry exactly the registered members.
    ///
    /// # Errors
    /// A description of the first record that does not fit.
    pub(crate) fn install_clocks(&mut self, records: &[Group]) -> Result<(), String> {
        if records.len() != self.index.len() {
            return Err(format!(
                "snapshot carries {} rate groups, the slab registers {}",
                records.len(),
                self.index.len()
            ));
        }
        let mut last = None;
        for r in records {
            let key = (r.file, r.u.to_bits(), r.w.to_bits());
            if last >= Some(key) {
                return Err(format!("rate group {key:?} out of order or repeated"));
            }
            last = Some(key);
            let Some(&g) = self.index.get(&key) else {
                return Err(format!("no registered download in group {key:?}"));
            };
            let grp = &mut self.groups[g as usize];
            if grp.heap.len() != r.heap.len() {
                return Err(format!(
                    "group {key:?}: {} marks for {} registered downloads",
                    r.heap.len(),
                    grp.heap.len()
                ));
            }
            grp.rate = r.rate;
            grp.vs_rate = r.vs_rate;
            grp.clock = r.clock;
            grp.vs_clock = r.vs_clock;
            grp.anchor = r.anchor;
            // Members come sorted by (peer, slot), so each names a distinct
            // registered download of this group exactly once.
            let mut prev = None;
            for m in &r.heap {
                let at = self.arena.get(m.peer as usize, m.slot as usize);
                match at {
                    Some((at, i))
                        if at == g
                            && prev < Some((m.peer, m.slot))
                            && (grp.heap[i as usize].peer, grp.heap[i as usize].slot)
                                == (m.peer, m.slot) =>
                    {
                        grp.heap[i as usize] = *m;
                        prev = Some((m.peer, m.slot));
                    }
                    _ => {
                        return Err(format!(
                            "no download ({}, {}) in group {key:?}",
                            m.peer, m.slot
                        ))
                    }
                }
            }
            for i in (0..grp.heap.len() / 2).rev() {
                sift_down(
                    &mut grp.heap,
                    i,
                    Mark::before,
                    &mut placed(&mut self.arena, g),
                );
            }
        }
        Ok(())
    }

    /// Structural audit of the groups: heap order, the arena and the
    /// group index point at each member and group, finite clocks and
    /// rates, and one member per active download.
    ///
    /// # Errors
    /// A description of the first inconsistency.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let mut members = 0;
        for (g, grp) in self.groups.iter().enumerate() {
            if grp.heap.is_empty() {
                continue;
            }
            let key = (grp.file, grp.u.to_bits(), grp.w.to_bits());
            if self.index.get(&key) != Some(&(g as u32)) {
                return Err(format!("group {g} missing from the group index"));
            }
            for (i, m) in grp.heap.iter().enumerate() {
                if i > 0 && m.before(&grp.heap[(i - 1) / 2]) {
                    return Err(format!("group {g}: heap order broken at {i}"));
                }
                if self.arena.get(m.peer as usize, m.slot as usize) != Some((g as u32, i as u32)) {
                    return Err(format!(
                        "group {g}: arena misplaces ({}, {})",
                        m.peer, m.slot
                    ));
                }
            }
            for v in [grp.rate, grp.vs_rate, grp.clock, grp.vs_clock] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("group {g}: rate or clock {v}"));
                }
            }
            members += grp.heap.len();
        }
        let active: usize = self.reg.iter().map(|r| r.active.len()).sum();
        if members != active {
            return Err(format!(
                "{members} group members for {active} active downloads"
            ));
        }
        Ok(())
    }
}
