//! Incremental rate maintenance: per-subtorrent aggregates kept up to date
//! event-by-event, and one virtual clock per rate group instead of per
//! download.
//!
//! [`crate::rate::compute_rates`] rebuilds `weight`, `pool_real`,
//! `pool_virtual` and every download rate from the whole population on
//! every call — O(peers) per event. [`RateCache`] maintains the same
//! aggregates incrementally: when a peer's state changes (arrival,
//! completion, expiry, ρ update) the engine re-registers that one peer,
//! which moves only the memberships that changed and marks the affected
//! subtorrents dirty; the subsequent [`RateCache::refresh`] recomputes
//! only dirty aggregates and the group rates they feed.
//!
//! ## Bit-exactness contract
//!
//! Every aggregate is a function of counts, summed in a canonical order
//! that does not depend on history: `weight[f] = Σ n·w` over the file's
//! occupied `(u, w)` groups in bit order, a set's demand over its files
//! ascending, and each pool over the file's source sets in key order
//! (after the origin publishers' share). [`crate::rate::compute_rates`]
//! sums the same counts in the same order with the same helpers. A
//! recompute of an *unchanged* aggregate therefore yields the identical bit
//! pattern, whatever joined and left in between, which is what makes the
//! engine's forced full recompute every event (the equivalence suites'
//! test reference), the checked-mode audit and a snapshot restore agree
//! with the incremental refresh bit for bit.
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
//! keeps that mark for as long as its `(file, u, w)` does not change: a
//! touch of its peer that leaves the download's group alone (a sibling's
//! completion or seed expiry under MTCD/MFCD) does not move it. While it
//! is a member, [`crate::peer::Slot::remaining`] and
//! [`Peer::received_vs`] keep the values they had when it joined;
//! `RateCache::remaining_at`, `RateCache::settle_received_vs` and
//! `settle_remaining` read them through the clocks. When it leaves, its
//! `remaining = mark − V` and `received_vs += VS − vs_mark` are written
//! back. The group's next completion is its smallest `(mark, peer,
//! slot)`, kept in an indexed per-group heap, due at
//! `anchor + (mark − V)/rate`. A rate change therefore costs O(1) per
//! group, not O(members).
//!
//! ## Source table
//!
//! Seed sources are counted, not listed: a *source set* is keyed by
//! `(real | virtual, bandwidth bits, files ascending)` and holds how many
//! sources share that key. An MTSD/MTCD/MFCD seed is a one-file set (one
//! per file and bandwidth); a CMFSD real or virtual seed is a set over its
//! finished files, freed when its count drops to zero. Each file keeps its
//! live sets in key order, and that list is also the index a source looks
//! its set up in. A set caches its demand, computed once per refresh that
//! needs it; a pool adds `(n·bw)·weight[f]/demand` per set, so the pool
//! pass costs one term per set serving the file, however many sources the
//! set counts. Virtual sets also list their owners, whose donation rate
//! moves when the set's demand crosses zero.
//!
//! ## Dirty propagation
//!
//! * A download joining or leaving subtorrent `f` marks `weight[f]` dirty;
//!   a source set's count change marks the pools of its files dirty.
//! * A bit-changed `weight[f]` invalidates `f`'s own pools and the demand
//!   of every set serving `f`. Each such set's demand is recomputed once
//!   per refresh; only when its bits change are the pools of its files
//!   marked. When a demand-aware origin publisher exists (MFCD/CMFSD) every
//!   pool is marked (the global demand changed).
//! * Sets created since the last refresh get their demand once the weight
//!   pass is done; a set none of whose files changed weight bits keeps its
//!   cached demand, which equals a fresh sum bit for bit.
//! * Group rates are recomputed for every group of a subtorrent whose
//!   weight or pools bit-changed, plus every group created since the last
//!   refresh. A download whose `u` changed with no weight change (e.g. a
//!   CMFSD peer finishing its first file at unchanged weight 1) moves to
//!   another group.
//! * Donation rates are recomputed for touched peers and for the owners
//!   of virtual sets whose demand crossed zero (a donation counts only
//!   while its set's demand is positive).

use crate::config::SchemeKind;
use crate::event_queue::{remove_at, sift_down, sift_up};
use crate::peer::{Peer, SlotArena};
use crate::rate::{
    demand_of, download_rate, origin_pool, pool_term, visit, ActiveDownload, RateSnapshot,
};
use btfluid_core::FluidParams;

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

/// `count` seed sources of one kind and bandwidth serving exactly `files`.
/// A set lives while its count is positive; an emptied set is freed.
#[derive(Debug, Default)]
struct SourceSet {
    is_virtual: bool,
    bandwidth: f64,
    /// The files served, ascending.
    files: Vec<u32>,
    count: u32,
    /// Σ weight over `files`, as of refresh `round`.
    demand: f64,
    round: u64,
    /// The peers owning a virtual source here (empty for real sets): the
    /// donations that start or stop when the demand crosses zero.
    owners: Vec<u32>,
}

impl SourceSet {
    /// The canonical set order: kind (real first), bandwidth bits, files.
    fn key(&self) -> (bool, u64, &[u32]) {
        (self.is_virtual, self.bandwidth.to_bits(), &self.files)
    }
}

/// One source in a peer's view: kind, bandwidth and its files as a range
/// of the view's file buffer.
type ViewSource = (bool, f64, usize, usize);

/// What one peer currently has registered in the cache.
#[derive(Debug, Default)]
struct PeerReg {
    /// Active downloads `(slot, file, u, w)` in slot order.
    active: Vec<(u32, u32, f64, f64)>,
    /// Source memberships `(set, position among the set's owners)` in view
    /// order (the position is meaningful for virtual sets only).
    sources: Vec<(u32, u32)>,
}

/// Incrementally maintained per-subtorrent rate aggregates and group
/// clocks.
///
/// Protocol (driven by the engine around every event):
/// 1. mutate a peer, then [`RateCache::register`] it: its memberships are
///    diffed against what it has registered, and only the downloads and
///    sources that changed move;
/// 2. call [`RateCache::refresh`] once, which settles and updates every
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
    /// Source-set slab; a set with count 0 is free.
    sets: Vec<SourceSet>,
    free_sets: Vec<u32>,
    /// Per file: the live sets serving it, in key order.
    file_sets: Vec<Vec<u32>>,
    reg: Vec<PeerReg>,
    /// Group slab; a group with an empty heap is free.
    groups: Vec<Group>,
    free_groups: Vec<u32>,
    /// Per file: its occupied groups in `(u, w)` bit order.
    file_groups: Vec<Vec<u32>>,
    /// `(peer, slot)` → `(group, heap position)`.
    arena: SlotArena,
    /// Groups whose head, rate or occupancy changed since the engine last
    /// rescheduled.
    changed: Marks,
    /// Refresh counter stamping recomputed demands and group rates.
    round: u64,
    /// Sets created since the last refresh (their demand is stale).
    fresh: Vec<u32>,
    // Dirty tracking.
    dirty_w: Marks,
    dirty_p: Marks,
    touched: Marks,
    // Scratch reused across refreshes and registrations.
    wc: Vec<usize>,
    pd: Marks,
    rate_files: Marks,
    owners: Marks,
    view_active: Vec<(u32, u32, f64, f64)>,
    view_sources: Vec<ViewSource>,
    view_files: Vec<u32>,
    view_sets: Vec<(u32, u32)>,
    // Telemetry, drained by `take_stats`/`take_terms`.
    /// Group-rate evaluations performed since the last drain.
    stat_recomputes: u64,
    /// Refreshes satisfied by the early return (nothing dirty).
    stat_clean: u64,
    /// Weight, demand and pool terms summed since the last drain.
    stat_terms: u64,
}

/// A set of small indices as a list plus membership flags: marking is
/// O(1), and clearing costs only what was marked.
#[derive(Debug, Default)]
struct Marks {
    list: Vec<usize>,
    flag: Vec<bool>,
}

impl Marks {
    fn with_len(n: usize) -> Self {
        Marks {
            list: Vec::new(),
            flag: vec![false; n],
        }
    }

    fn grow(&mut self, n: usize) {
        if self.flag.len() < n {
            self.flag.resize(n, false);
        }
    }

    fn mark(&mut self, i: usize) {
        if !self.flag[i] {
            self.flag[i] = true;
            self.list.push(i);
        }
    }

    fn clear(&mut self) {
        for &i in &self.list {
            self.flag[i] = false;
        }
        self.list.clear();
    }
}

/// No set linked yet (registration scratch).
const UNLINKED: u32 = u32::MAX;

impl RateCache {
    /// Creates an empty cache for `k` subtorrents.
    ///
    /// `origin_seeds` has the same meaning as in
    /// [`crate::rate::compute_rates`].
    pub fn new(k: usize, scheme: SchemeKind, params: &FluidParams, origin_seeds: usize) -> Self {
        RateCache {
            scheme,
            mu: params.mu(),
            eta: params.eta(),
            origin_bw: origin_seeds as f64 * params.mu(),
            origin_demand_aware: matches!(scheme, SchemeKind::Mfcd | SchemeKind::Cmfsd { .. }),
            weight: vec![0.0; k],
            pool_real: vec![0.0; k],
            pool_virtual: vec![0.0; k],
            sets: Vec::new(),
            free_sets: Vec::new(),
            file_sets: vec![Vec::new(); k],
            reg: Vec::new(),
            groups: Vec::new(),
            free_groups: Vec::new(),
            file_groups: vec![Vec::new(); k],
            arena: SlotArena::new(k),
            changed: Marks::default(),
            round: 0,
            fresh: Vec::new(),
            dirty_w: Marks::with_len(k),
            dirty_p: Marks::with_len(k),
            touched: Marks::default(),
            wc: Vec::new(),
            pd: Marks::with_len(k),
            rate_files: Marks::with_len(k),
            owners: Marks::default(),
            view_active: Vec::new(),
            view_sources: Vec::new(),
            view_files: Vec::new(),
            view_sets: Vec::new(),
            stat_recomputes: 0,
            stat_clean: 0,
            stat_terms: 0,
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

    /// Drains the weight, demand and pool terms summed since the last
    /// call (the work the aggregates cost, as a count), with the number of
    /// live source sets.
    pub fn take_terms(&mut self) -> (u64, usize) {
        let live = self.sets.len() - self.free_sets.len();
        (std::mem::take(&mut self.stat_terms), live)
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
        let bw = origin_seeds as f64 * self.mu;
        if bw.to_bits() == self.origin_bw.to_bits() {
            return;
        }
        self.origin_bw = bw;
        for f in 0..self.weight.len() {
            self.dirty_p.mark(f);
        }
    }

    /// Grows per-peer bookkeeping to cover `n` peer slab slots.
    pub fn grow(&mut self, n: usize) {
        while self.reg.len() < n {
            self.reg.push(PeerReg::default());
        }
        self.touched.grow(n);
        self.owners.grow(n);
        self.arena.ensure_peers(n);
    }

    /// Brings the peer's memberships in line with its current state (read
    /// through `crate::rate::visit`), moving only what changed: a
    /// download whose `(file, u, w)` group is unchanged keeps its mark, and
    /// a source whose set is unchanged keeps its unit there. A download
    /// that leaves reads its remaining work (unless its completion already
    /// zeroed it) and virtual-seed receipts off its group clocks at `t`; a
    /// download that joins does so at mark `V + remaining`. A departed
    /// peer leaves everything.
    pub fn register(&mut self, idx: usize, peers: &mut [Peer], t: f64) {
        self.touched.mark(idx);
        let mut reg = std::mem::take(&mut self.reg[idx]);
        let peer = &mut peers[idx];
        self.read_view(peer);
        let mut view = std::mem::take(&mut self.view_active);
        let same = |a: &(u32, u32, f64, f64), b: &(u32, u32, f64, f64)| {
            (a.0, a.1, a.2.to_bits(), a.3.to_bits()) == (b.0, b.1, b.2.to_bits(), b.3.to_bits())
        };
        // Both lists are in slot order, so each side finds its match with
        // one forward cursor into the other.
        let mut j = 0;
        for old in &reg.active {
            while view.get(j).is_some_and(|v| v.0 < old.0) {
                j += 1;
            }
            if !view.get(j).is_some_and(|v| same(v, old)) {
                self.leave(idx, peer, old.0, t);
            }
        }
        let mut i = 0;
        for new in &view {
            while reg.active.get(i).is_some_and(|o| o.0 < new.0) {
                i += 1;
            }
            if !reg.active.get(i).is_some_and(|o| same(o, new)) {
                self.join(idx, peer, *new, t);
            }
        }
        std::mem::swap(&mut reg.active, &mut view);
        self.view_active = view;

        // Sources: a registered unit stays where the view has an unclaimed
        // source with its set's key; the rest leave, then the unclaimed
        // view sources join.
        let sources = std::mem::take(&mut self.view_sources);
        self.view_sets.clear();
        self.view_sets.resize(sources.len(), (UNLINKED, 0));
        for &(s, pos) in &reg.sources {
            let set = &self.sets[s as usize];
            let hit = sources
                .iter()
                .enumerate()
                .position(|(v, &(kind, bw, a, b))| {
                    self.view_sets[v].0 == UNLINKED
                        && set.key() == (kind, bw.to_bits(), &self.view_files[a..b])
                });
            match hit {
                Some(v) => self.view_sets[v] = (s, pos),
                None => self.leave_set(s, pos),
            }
        }
        for (v, &(kind, bw, a, b)) in sources.iter().enumerate() {
            if self.view_sets[v].0 == UNLINKED {
                self.view_sets[v] = self.join_set(idx, kind, bw, a, b);
            }
        }
        std::mem::swap(&mut reg.sources, &mut self.view_sets);
        self.view_sources = sources;
        self.reg[idx] = reg;
    }

    /// Reads the peer's downloads and sources into the view scratch.
    fn read_view(&mut self, peer: &Peer) {
        self.view_active.clear();
        self.view_sources.clear();
        self.view_files.clear();
        let file = |slot: usize| peer.slots[slot].file as u32;
        visit(
            peer,
            self.scheme,
            self.mu,
            |slot, u, w| self.view_active.push((slot as u32, file(slot), u, w)),
            |bw, is_virtual, set| {
                let a = self.view_files.len();
                self.view_files.extend(set.map(|f| f as u32));
                debug_assert!(self.view_files[a..].is_sorted(), "slots are sorted by file");
                self.view_sources
                    .push((is_virtual, bw, a, self.view_files.len()));
            },
        );
    }

    /// Download `(idx, slot)` leaves its group at `t`.
    fn leave(&mut self, idx: usize, peer: &mut Peer, slot: u32, t: f64) {
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
        let left = &mut peer.slots[slot as usize].remaining;
        if *left > 0.0 {
            *left = remaining_of(&m, clock);
        }
        peer.received_vs += vs_clock - m.vs_mark;
        let f = grp.file as usize;
        if grp.heap.is_empty() {
            self.free_group(g);
        }
        self.changed.mark(g as usize);
        self.dirty_w.mark(f);
    }

    /// Download `(idx, slot, file, u, w)` joins its group at `t` with mark
    /// `V + remaining`.
    fn join(&mut self, idx: usize, peer: &Peer, (slot, file, u, w): (u32, u32, f64, f64), t: f64) {
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
        self.changed.mark(g as usize);
        self.dirty_w.mark(file as usize);
    }

    /// Removes one source unit (owner position `pos`) from set `s`,
    /// freeing the set when it empties.
    fn leave_set(&mut self, s: u32, pos: u32) {
        let set = &mut self.sets[s as usize];
        set.count -= 1;
        if set.is_virtual {
            set.owners.swap_remove(pos as usize);
            if let Some(&moved) = set.owners.get(pos as usize) {
                let link = self.reg[moved as usize]
                    .sources
                    .iter_mut()
                    .find(|l| l.0 == s)
                    .expect("an owner links its set");
                link.1 = pos;
            }
        }
        let empty = self.sets[s as usize].count == 0;
        for i in 0..self.sets[s as usize].files.len() {
            let f = self.sets[s as usize].files[i] as usize;
            self.dirty_p.mark(f);
            if empty {
                let at = self
                    .set_pos(f, self.sets[s as usize].key())
                    .expect("a live set is listed");
                self.file_sets[f].remove(at);
            }
        }
        if empty {
            self.free_sets.push(s);
        }
    }

    /// Adds one source unit of peer `idx` to the set keyed by `kind`, `bw`
    /// and view files `a..b`, creating the set if needed. Returns the
    /// membership `(set, owner position)`.
    fn join_set(&mut self, idx: usize, kind: bool, bw: f64, a: usize, b: usize) -> (u32, u32) {
        let f0 = self.view_files[a] as usize;
        let s = match self.set_pos(f0, (kind, bw.to_bits(), &self.view_files[a..b])) {
            Ok(at) => self.file_sets[f0][at],
            Err(_) => {
                let s = self.free_sets.pop().unwrap_or_else(|| {
                    self.sets.push(SourceSet::default());
                    (self.sets.len() - 1) as u32
                });
                let set = &mut self.sets[s as usize];
                set.is_virtual = kind;
                set.bandwidth = bw;
                set.files.clear();
                set.files.extend_from_slice(&self.view_files[a..b]);
                set.owners.clear();
                for &f in &self.view_files[a..b] {
                    let f = f as usize;
                    let at = self.set_pos(f, self.sets[s as usize].key()).unwrap_err();
                    self.file_sets[f].insert(at, s);
                }
                self.fresh.push(s);
                s
            }
        };
        let set = &mut self.sets[s as usize];
        set.count += 1;
        let pos = set.owners.len() as u32;
        if kind {
            set.owners.push(idx as u32);
        }
        for i in a..b {
            self.dirty_p.mark(self.view_files[i] as usize);
        }
        (s, pos)
    }

    /// Where the set keyed `key` sits in file `f`'s list (or would).
    fn set_pos(&self, f: usize, key: (bool, u64, &[u32])) -> Result<usize, usize> {
        self.file_sets[f].binary_search_by(|&s| self.sets[s as usize].key().cmp(&key))
    }

    /// Where the group `(u, w)` sits in file `f`'s list (or would).
    fn group_pos(&self, f: usize, u: f64, w: f64) -> Result<usize, usize> {
        let key = (u.to_bits(), w.to_bits());
        self.file_groups[f].binary_search_by_key(&key, |&g| {
            let grp = &self.groups[g as usize];
            (grp.u.to_bits(), grp.w.to_bits())
        })
    }

    /// The occupied group of `(file, u, w)`, if any.
    fn group_of(&self, file: u32, u: f64, w: f64) -> Option<u32> {
        let list = self.file_groups.get(file as usize)?;
        Some(list[self.group_pos(file as usize, u, w).ok()?])
    }

    /// The occupied group of `(file, u, w)`, or a new one with both clocks
    /// at zero from `t` (its rate is set by the next refresh).
    fn group_for(&mut self, file: u32, u: f64, w: f64, t: f64) -> u32 {
        let at = match self.group_pos(file as usize, u, w) {
            Ok(at) => return self.file_groups[file as usize][at],
            Err(at) => at,
        };
        let g = self.free_groups.pop().unwrap_or_else(|| {
            self.groups.push(Group::default());
            self.changed.flag.push(false);
            (self.groups.len() - 1) as u32
        });
        let heap = std::mem::take(&mut self.groups[g as usize].heap);
        self.groups[g as usize] = Group {
            file,
            u,
            w,
            anchor: t,
            heap,
            ..Group::default()
        };
        self.file_groups[file as usize].insert(at, g);
        g
    }

    /// Returns an emptied group to the free list.
    fn free_group(&mut self, g: u32) {
        let grp = &self.groups[g as usize];
        let f = grp.file as usize;
        let at = self
            .group_pos(f, grp.u, grp.w)
            .expect("an occupied group is listed");
        self.file_groups[f].remove(at);
        self.free_groups.push(g);
    }

    /// Folds the virtual-seed service the peer's downloads received up to
    /// `t` into [`Peer::received_vs`] and restarts their receipts at `t`.
    /// Marks stay, so no group membership moves.
    pub(crate) fn settle_received_vs(&mut self, idx: usize, peer: &mut Peer, t: f64) {
        for &(slot, ..) in &self.reg[idx].active {
            let (g, i) = self
                .arena
                .get(idx, slot as usize)
                .expect("an active download sits in a group");
            let grp = &mut self.groups[g as usize];
            let (_, vs_clock) = grp.clocks_at(t);
            let m = &mut grp.heap[i as usize];
            peer.received_vs += vs_clock - m.vs_mark;
            m.vs_mark = vs_clock;
        }
    }

    /// Download `(peer, slot)`'s remaining work at `t`, read off its group
    /// clock (`None` when it is not active).
    pub(crate) fn remaining_at(&self, peer: usize, slot: usize, t: f64) -> Option<f64> {
        let (g, i) = self.arena.get(peer, slot)?;
        let grp = &self.groups[g as usize];
        Some(remaining_of(&grp.heap[i as usize], grp.clocks_at(t).0))
    }

    /// Recomputes dirty aggregates and the group rates they feed,
    /// settling every group clock and donation whose rate bit-changes
    /// before the new value is stored. Returns how many group rates
    /// changed bits.
    ///
    /// With `force` the full recompute path of the seed engine is
    /// replayed: every weight, demand, pool, and group rate is recomputed
    /// (and, since each is summed from counts in canonical order, every
    /// unchanged one reproduces its cached bits). Afterwards every
    /// `Self::changed_groups` entry carries its fresh completion time.
    pub fn refresh(&mut self, peers: &mut [Peer], t: f64, force: bool) -> usize {
        if !force
            && self.dirty_w.list.is_empty()
            && self.dirty_p.list.is_empty()
            && self.touched.list.is_empty()
        {
            self.stat_clean += 1;
            return 0;
        }
        self.round += 1;
        let round = self.round;
        let k = self.weight.len();

        // Pass 1: weights. `wc` collects the bit-changed files.
        self.wc.clear();
        let dirty = std::mem::take(&mut self.dirty_w);
        if force {
            (0..k).for_each(|f| self.recompute_weight(f));
        } else {
            dirty.list.iter().for_each(|&f| self.recompute_weight(f));
        }
        self.dirty_w = dirty;

        // Demands of sets created since the last refresh, now that the
        // weights are final (under `force`, of every live set).
        if force {
            for s in 0..self.sets.len() as u32 {
                if self.sets[s as usize].count > 0 {
                    self.refresh_demand(s, round);
                }
            }
        }
        for i in 0..self.fresh.len() {
            let set = &self.sets[self.fresh[i] as usize];
            if set.count > 0 && set.round != round {
                self.refresh_demand(self.fresh[i], round);
            }
        }
        self.fresh.clear();

        // Pass 2: the pool-dirty set `pd`.
        if force {
            (0..k).for_each(|f| self.pd.mark(f));
        } else {
            for i in 0..self.dirty_p.list.len() {
                self.pd.mark(self.dirty_p.list[i]);
            }
            for i in 0..self.wc.len() {
                let f = self.wc[i];
                self.pd.mark(f);
                self.walk_sets(f, round);
            }
            if self.origin_demand_aware && self.origin_bw > 0.0 && !self.wc.is_empty() {
                (0..k).for_each(|f| self.pd.mark(f));
            }
        }

        // Pass 3: pools, from the sets' counts and cached demands.
        let total_weight: f64 = if self.origin_demand_aware && self.origin_bw > 0.0 {
            self.weight.iter().sum()
        } else {
            0.0
        };
        for &f in &self.pd.list {
            let wf = self.weight[f];
            let mut pr = origin_pool(self.origin_bw, self.origin_demand_aware, wf, total_weight);
            let mut pv = 0.0;
            if wf > 0.0 {
                self.stat_terms += self.file_sets[f].len() as u64;
                for &s in &self.file_sets[f] {
                    let set = &self.sets[s as usize];
                    let term = pool_term(set.count, set.bandwidth, wf, set.demand);
                    if set.is_virtual {
                        pv += term;
                    } else {
                        pr += term;
                    }
                }
            }
            if pr.to_bits() != self.pool_real[f].to_bits()
                || pv.to_bits() != self.pool_virtual[f].to_bits()
            {
                self.pool_real[f] = pr;
                self.pool_virtual[f] = pv;
                self.rate_files.mark(f);
            }
        }

        // Pass 4: group rates of weight- or pool-changed files (every file
        // under `force`), then of groups created since the last refresh
        // (changed, never evaluated).
        if force {
            (0..k).for_each(|f| self.rate_files.mark(f));
        }
        for i in 0..self.wc.len() {
            self.rate_files.mark(self.wc[i]);
        }
        let mut moved = 0;
        for i in 0..self.rate_files.list.len() {
            let f = self.rate_files.list[i];
            for j in 0..self.file_groups[f].len() {
                moved += self.update_rate(self.file_groups[f][j], t, round);
            }
        }
        for i in 0..self.changed.list.len() {
            let g = self.changed.list[i] as u32;
            let grp = &self.groups[g as usize];
            if grp.round == 0 && !grp.heap.is_empty() {
                moved += self.update_rate(g, t, round);
            }
        }

        // Pass 5: donation rates for touched peers and the owners of sets
        // whose demand crossed zero.
        if force {
            (0..self.reg.len()).for_each(|p| self.owners.mark(p));
        }
        for i in 0..self.touched.list.len() {
            self.owners.mark(self.touched.list[i]);
        }
        for &p in &self.owners.list {
            let mut dr = 0.0;
            for &(s, _) in &self.reg[p].sources {
                let set = &self.sets[s as usize];
                if set.is_virtual && set.demand > 0.0 {
                    dr += set.bandwidth;
                }
            }
            let peer = &mut peers[p];
            if dr.to_bits() != peer.donation_rate.to_bits() {
                peer.settle_donation(t);
                peer.donation_rate = dr;
            }
        }

        // Reset dirty/scratch state for the next round.
        for marks in [
            &mut self.dirty_w,
            &mut self.dirty_p,
            &mut self.touched,
            &mut self.pd,
            &mut self.rate_files,
            &mut self.owners,
        ] {
            marks.clear();
        }
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
        let (rate, vs_rate) = download_rate(
            self.eta,
            grp.u,
            grp.w,
            self.weight[f],
            self.pool_real[f],
            self.pool_virtual[f],
        );
        if rate.to_bits() == grp.rate.to_bits() && vs_rate.to_bits() == grp.vs_rate.to_bits() {
            return 0;
        }
        grp.settle(t);
        grp.rate = rate;
        grp.vs_rate = vs_rate;
        self.changed.mark(g as usize);
        1
    }

    /// Recomputes set `s`'s demand for refresh `round`; returns the old
    /// value.
    fn refresh_demand(&mut self, s: u32, round: u64) -> f64 {
        let set = &mut self.sets[s as usize];
        self.stat_terms += set.files.len() as u64;
        set.round = round;
        std::mem::replace(&mut set.demand, demand_of(&set.files, &self.weight))
    }

    /// Visits the sets serving weight-changed file `f`. A set not yet
    /// refreshed this round gets a fresh demand; when its bits change,
    /// every file it serves is marked pool-dirty, and when it crosses zero
    /// the owners of a virtual set are marked for the donation pass.
    fn walk_sets(&mut self, f: usize, round: u64) {
        for i in 0..self.file_sets[f].len() {
            let s = self.file_sets[f][i];
            if self.sets[s as usize].round == round {
                continue;
            }
            let old = self.refresh_demand(s, round);
            let set = &self.sets[s as usize];
            if set.demand.to_bits() == old.to_bits() {
                continue;
            }
            for j in 0..set.files.len() {
                self.pd.mark(self.sets[s as usize].files[j] as usize);
            }
            let set = &self.sets[s as usize];
            if set.is_virtual && (set.demand > 0.0) != (old > 0.0) {
                for j in 0..set.owners.len() {
                    self.owners.mark(self.sets[s as usize].owners[j] as usize);
                }
            }
        }
    }

    /// Sums `weight[f] = Σ n·w` over the file's groups in `(u, w)` bit
    /// order; records a bit change in `wc`.
    fn recompute_weight(&mut self, f: usize) {
        let groups = &self.file_groups[f];
        self.stat_terms += groups.len() as u64;
        let s = groups.iter().fold(0.0, |s, &g| {
            let grp = &self.groups[g as usize];
            s + grp.heap.len() as f64 * grp.w
        });
        if s.to_bits() != self.weight[f].to_bits() {
            self.weight[f] = s;
            self.wc.push(f);
        }
    }

    /// Groups whose completion may have moved since the last
    /// [`Self::clear_changed`] (freed ones included).
    pub(crate) fn changed_groups(&self) -> &[usize] {
        &self.changed.list
    }

    /// Empties `Self::changed_groups` once the engine has rescheduled
    /// them.
    pub fn clear_changed(&mut self) {
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
        self.file_groups.iter().map(Vec::len).sum()
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
        let group = |&g: &u32| {
            let mut grp = self.groups[g as usize].clone();
            grp.heap.sort_unstable_by_key(|m| (m.peer, m.slot));
            grp
        };
        self.file_groups.iter().flatten().map(group).collect()
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
        let occupied = self.occupied_groups();
        if records.len() != occupied {
            return Err(format!(
                "snapshot carries {} rate groups, the slab registers {occupied}",
                records.len()
            ));
        }
        let mut last = None;
        for r in records {
            let key = (r.file, r.u.to_bits(), r.w.to_bits());
            if last >= Some(key) {
                return Err(format!("rate group {key:?} out of order or repeated"));
            }
            last = Some(key);
            let Some(g) = self.group_of(r.file, r.u, r.w) else {
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

    /// Structural audit of the groups and source sets: heap order, the
    /// arena and the file lists point at each member and group, finite
    /// clocks, rates and marks, one member per active download, and one
    /// set unit (and virtual owner link) per registered source.
    ///
    /// # Errors
    /// A description of the first inconsistency.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let mut members = 0;
        for (g, grp) in self.groups.iter().enumerate() {
            if grp.heap.is_empty() {
                continue;
            }
            if self.group_of(grp.file, grp.u, grp.w) != Some(g as u32) {
                return Err(format!("group {g} missing from its file's group list"));
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
                if !m.mark.is_finite() || !m.vs_mark.is_finite() {
                    return Err(format!("group {g}: mark {m:?}"));
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
        let mut units = vec![0u32; self.sets.len()];
        for (p, reg) in self.reg.iter().enumerate() {
            for &(s, pos) in &reg.sources {
                let set = &self.sets[s as usize];
                units[s as usize] += 1;
                if set.is_virtual && set.owners.get(pos as usize) != Some(&(p as u32)) {
                    return Err(format!("peer {p}: virtual set {s} misplaces its owner"));
                }
            }
        }
        for (f, list) in self.file_sets.iter().enumerate() {
            for (i, &s) in list.iter().enumerate() {
                let set = &self.sets[s as usize];
                if set.count == 0 || !set.files.contains(&(f as u32)) {
                    return Err(format!("file {f} lists set {s}, which does not serve it"));
                }
                if i > 0 && self.sets[list[i - 1] as usize].key() >= set.key() {
                    return Err(format!("file {f}: set order broken at {i}"));
                }
            }
        }
        match (0..units.len()).find(|&s| self.sets[s].count != units[s]) {
            Some(s) => Err(format!(
                "set {s}: count {} for {} sources",
                self.sets[s].count, units[s]
            )),
            None => Ok(()),
        }
    }
}
