//! Class-aggregated completion scheduling: one exponential completion
//! process per (subtorrent, class) group instead of one heap deadline per
//! peer.
//!
//! The paper's fluid service model makes every downloader within a
//! (subtorrent, class) rate-homogeneous: each member of the group receives
//! the same instantaneous rate `η·u + (w/W_f)·(P_real + P_virt)`. The
//! class-level description is therefore lossless for the *total* completion
//! intensity — the sum of member rates — and the scaling-limit literature
//! (Kesidis et al.) shows the class-level Markov chain is the correct
//! large-swarm description. [`AggCache`] maintains that class-total rate as
//! the first-class quantity:
//!
//! * **Groups** are keyed `gid = (f·K + (class−1))·2 + band`. The band bit
//!   separates CMFSD downloaders that already finished a file (TFT upload
//!   `ρμ`, plus a virtual-seed donation) from those that have not (full
//!   `μ`); for the other schemes band 1 is always empty. Members of one
//!   group share `(u, w)` exactly, so the group rate is
//!   `n·η·u + (n·w/W_f)·(P_real + P_virt)`.
//! * **Member lists** are SoA (parallel `peers`/`slots` vectors) with
//!   `swap_remove` deletion; a [`SlotArena`] maps `(peer, slot)` back to
//!   `(group, position)` for O(1) deregistration. List order is
//!   sampling-relevant (the engine draws the completing member uniformly
//!   by position), so snapshots serialize it verbatim.
//! * **Seed pools** are kept as *integer* aggregates: per-(file, class)
//!   single-file seed counts and per-file-set real/virtual source counts
//!   (bitmask-keyed, K ≤ 64 enforced by config validation). Pools are
//!   recomputed from those counts in a canonical order (classes ascending,
//!   set masks ascending, mask bits ascending), so a from-scratch rebuild
//!   reproduces every cached float bit-for-bit — the property snapshot
//!   restore and the checked-mode audit rely on.
//!
//! ## Scheduling (hazard accumulation)
//!
//! Each group carries an Exp(1) `target` and an integrated hazard
//! `acc = ∫ R_g dt` since the last completion. While the rate is constant
//! the next completion fires at `anchor + (target − acc)/R_g`; when the
//! rate changes the hazard is settled at the old rate first, so the
//! schedule is exact for the inhomogeneous exponential — one RNG draw per
//! completion regardless of how many rate changes happen in between
//! (identical in spirit to the per-peer engine's lazy completion-deadline
//! correction).
//!
//! Group deadlines stay out of the engine's per-peer event heap. They live
//! in a dense per-group array (∞ = disarmed) with a cached argmin, ties to
//! the lowest group id: arming or moving a deadline earlier is O(1), and
//! the O(groups) rescan runs only when the current minimum moves later or
//! is disarmed — and then once, when the engine next asks for the minimum.
//! The engine compares that minimum with its heap top under the heap's
//! `(time, rank, peer, slot)` order, groups ranking behind per-peer events
//! at a tie.
//!
//! ## What aggregate mode gives up
//!
//! Per-peer mode integrates each download's *deterministic* unit of work at
//! its exact rate; aggregate mode replaces that with a memoryless
//! completion process at the identical total intensity. Event interleaving
//! therefore differs between the modes — equivalence is distributional
//! (same per-class mean populations and sojourn times; the drift of the
//! downloader population is the same `λ − Σ rates` in both), which the
//! oracle's aggregate-equivalence checks assert statistically. Within the
//! mode, runs are fully deterministic per seed and snapshot/resume is
//! bit-identical.

use crate::config::SchemeKind;
use crate::peer::{Peer, Phase, SlotArena};
use btfluid_core::FluidParams;
use std::collections::HashMap;

/// One (subtorrent, class, band) completion group.
#[derive(Debug, Default)]
pub(crate) struct Group {
    /// Member peer slab indices (parallel to `slots`).
    pub(crate) peers: Vec<u32>,
    /// Member slot indices (parallel to `peers`).
    pub(crate) slots: Vec<u32>,
    /// Class-total service rate `Σ member rates`, maintained canonically.
    pub(crate) rate: f64,
    /// Exp(1) hazard target of the pending completion.
    pub(crate) target: f64,
    /// Integrated hazard `∫ rate dt` since the last completion.
    pub(crate) acc: f64,
    /// Time the hazard was last settled at.
    pub(crate) anchor: f64,
    /// Arming stamp (0 = disarmed): a fresh value from the engine's stamp
    /// sequence whenever the deadline is armed or moves earlier.
    pub(crate) stamp: u64,
}

/// One collaborative source set: peers serving exactly the files in
/// `mask`, split real (seeds) / virtual (CMFSD donations). Entries whose
/// counts drop to zero stay as tombstones (they contribute nothing and
/// keep `file_masks` indices stable).
#[derive(Debug, Clone, Copy)]
struct SetEntry {
    mask: u64,
    n_real: u32,
    n_virt: u32,
}

/// What one peer registered, for O(1) deregistration without re-deriving
/// memberships from (possibly since-mutated) peer state. Downloads are
/// tracked by the arena instead.
#[derive(Debug, Clone, Copy)]
enum SrcReg {
    /// One single-file seed: `n_seed[file·K + class−1]` holds a unit.
    Seed { file: u32, class: u32 },
    /// One unit in `sets[set]` (real or virtual).
    Set { set: u32, is_virtual: bool },
}

/// Class-aggregated rate/scheduling cache (aggregate mode's counterpart of
/// [`crate::rate_cache::RateCache`]).
///
/// Protocol, mirrored from the per-peer cache: the engine deregisters a
/// peer before mutating it, re-registers it after, and calls
/// [`AggCache::refresh`] once per event; `refresh` reports every group
/// whose rate bit-changed (plus groups reset by [`AggCache::on_pop`]) so
/// the engine can re-arm their deadlines (`schedule_group`).
#[derive(Debug)]
pub struct AggCache {
    k: usize,
    scheme: SchemeKind,
    mu: f64,
    eta: f64,
    /// CMFSD ρ (0 for other schemes); all peers share it — aggregate mode
    /// rejects Adapt, so no per-peer ρ drift exists.
    rho: f64,
    /// Per-peer virtual-seed donation `(1−ρ)μ` (CMFSD only).
    virt_bw: f64,
    origin_bw: f64,
    origin_demand_aware: bool,
    weight: Vec<f64>,
    pool_real: Vec<f64>,
    pool_virtual: Vec<f64>,
    /// `2·K²` groups, indexed by [`AggCache::gid`].
    groups: Vec<Group>,
    /// Scheduled completion time per group while armed, else ∞.
    deadline: Vec<f64>,
    /// Cached argmin of `deadline` (lowest id on ties; `None` when every
    /// group is disarmed), valid unless `min_stale`.
    min_group: Option<u32>,
    /// The minimum moved later or was disarmed since the last scan.
    min_stale: bool,
    /// `(peer, slot) → (group, position)` for member removal.
    arena: SlotArena,
    /// Single-file seed counts per `file·K + class−1`.
    n_seed: Vec<u32>,
    sets: Vec<SetEntry>,
    set_index: HashMap<u64, u32>,
    /// Per file: indices into `sets` of every set containing it, kept
    /// sorted by mask (canonical pool summation order).
    file_masks: Vec<Vec<u32>>,
    /// Per peer: registered sources (seeds / set units).
    reg_src: Vec<Vec<SrcReg>>,
    // Dirty tracking (list + flag idiom of the per-peer cache).
    dirty_w: Vec<usize>,
    dirty_w_flag: Vec<bool>,
    dirty_p: Vec<usize>,
    dirty_p_flag: Vec<bool>,
    /// Groups whose hazard was reset at pop time; always rescheduled by
    /// the next refresh even if their rate bits did not change.
    rearm: Vec<u32>,
    rearm_flag: Vec<bool>,
    // Scratch reused across refreshes.
    wc: Vec<usize>,
    pd: Vec<usize>,
    pd_flag: Vec<bool>,
    rate_files: Vec<usize>,
    rate_flag: Vec<bool>,
    changed_flag: Vec<bool>,
    /// Group-rate recomputations since the last [`AggCache::take_stats`].
    stat_updates: u64,
    /// Clean refreshes (nothing dirty) since the last drain.
    stat_clean: u64,
}

/// Ascending file indices of a set-membership bitmask.
fn mask_files(mask: u64) -> impl Iterator<Item = usize> {
    // `wrapping_sub`: `successors` calls the closure on the final 0 before
    // `take_while` can stop the chain.
    std::iter::successors(Some(mask), |&m| Some(m & m.wrapping_sub(1)))
        .take_while(|&m| m != 0)
        .map(|m| m.trailing_zeros() as usize)
}

impl AggCache {
    /// Creates an empty aggregate cache for `k` subtorrents (requires
    /// `k ≤ 64`, enforced by [`crate::DesConfig::validate`]).
    pub fn new(k: usize, scheme: SchemeKind, params: &FluidParams, origin_seeds: usize) -> Self {
        assert!(k <= 64, "aggregate mode needs file bitmasks: K = {k} > 64");
        let rho = match scheme {
            SchemeKind::Cmfsd { rho } => rho,
            _ => 0.0,
        };
        let mu = params.mu();
        AggCache {
            k,
            scheme,
            mu,
            eta: params.eta(),
            rho,
            virt_bw: match scheme {
                SchemeKind::Cmfsd { .. } => (1.0 - rho) * mu,
                _ => 0.0,
            },
            origin_bw: if origin_seeds > 0 {
                origin_seeds as f64 * mu
            } else {
                0.0
            },
            origin_demand_aware: matches!(scheme, SchemeKind::Mfcd | SchemeKind::Cmfsd { .. }),
            weight: vec![0.0; k],
            pool_real: vec![0.0; k],
            pool_virtual: vec![0.0; k],
            groups: (0..2 * k * k).map(|_| Group::default()).collect(),
            deadline: vec![f64::INFINITY; 2 * k * k],
            min_group: None,
            min_stale: false,
            arena: SlotArena::new(k),
            n_seed: vec![0; k * k],
            sets: Vec::new(),
            set_index: HashMap::new(),
            file_masks: vec![Vec::new(); k],
            reg_src: Vec::new(),
            dirty_w: Vec::new(),
            dirty_w_flag: vec![false; k],
            // Every pool starts dirty: the origin publisher contributes
            // even to files with no downloaders yet (non-demand-aware
            // schemes), and the from-scratch audit/restore rebuild expects
            // fully computed pools, not lazily-zero ones.
            dirty_p: (0..k).collect(),
            dirty_p_flag: vec![true; k],
            rearm: Vec::new(),
            rearm_flag: vec![false; 2 * k * k],
            wc: Vec::new(),
            pd: Vec::new(),
            pd_flag: vec![false; k],
            rate_files: Vec::new(),
            rate_flag: vec![false; k],
            changed_flag: vec![false; 2 * k * k],
            stat_updates: 0,
            stat_clean: 0,
        }
    }

    /// Group id of `(file, class, band)`; classes are 1-based.
    pub fn gid(&self, file: usize, class: usize, band: u8) -> u32 {
        debug_assert!(file < self.k && (1..=self.k).contains(&class) && band < 2);
        ((file * self.k + (class - 1)) * 2 + band as usize) as u32
    }

    /// Subtorrent a group belongs to.
    pub fn group_file(&self, g: u32) -> usize {
        g as usize / 2 / self.k
    }

    /// 1-based class of a group.
    pub fn group_class(&self, g: u32) -> usize {
        (g as usize / 2) % self.k + 1
    }

    /// Band bit of a group (CMFSD done≥1 downloaders are band 1).
    pub fn group_band(&self, g: u32) -> u8 {
        (g % 2) as u8
    }

    /// Total number of groups (`2·K²`).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Live member count of a group.
    pub fn group_len(&self, g: u32) -> usize {
        self.groups[g as usize].peers.len()
    }

    /// The `i`-th member `(peer, slot)` of a group, in sampling order.
    pub fn group_member(&self, g: u32, i: usize) -> (u32, u32) {
        let grp = &self.groups[g as usize];
        (grp.peers[i], grp.slots[i])
    }

    /// Current class-total rate of a group.
    pub fn group_rate(&self, g: u32) -> f64 {
        self.groups[g as usize].rate
    }

    /// Arming stamp of a group (0 = disarmed).
    pub fn group_stamp(&self, g: u32) -> u64 {
        self.groups[g as usize].stamp
    }

    /// Scheduled completion time of an armed group (∞ when disarmed).
    pub fn group_deadline(&self, g: u32) -> f64 {
        self.deadline[g as usize]
    }

    /// The earliest armed group deadline as `(time, group)`, lowest group
    /// id on a tie; rescans the array first if the cached minimum moved
    /// later or was disarmed.
    pub fn next_deadline(&mut self) -> Option<(f64, u32)> {
        if self.min_stale {
            self.min_group = first_min(&self.deadline);
            self.min_stale = false;
        }
        self.min_group.map(|g| (self.deadline[g as usize], g))
    }

    /// Sets a group's deadline (∞ disarms it), keeping the cached argmin:
    /// O(1) unless the current minimum moves later or is disarmed, which
    /// defers a rescan to the next [`Self::next_deadline`].
    fn set_deadline(&mut self, g: u32, t: f64) {
        let old = std::mem::replace(&mut self.deadline[g as usize], t);
        if self.min_stale {
            return;
        }
        match self.min_group {
            Some(m) if m == g => {
                if t > old {
                    self.min_stale = true;
                }
            }
            Some(m) => {
                let mt = self.deadline[m as usize];
                if t < mt || (t == mt && g < m) {
                    self.min_group = Some(g);
                }
            }
            None => {
                if t.is_finite() {
                    self.min_group = Some(g);
                }
            }
        }
    }

    /// (Re)schedules group `g` after its rate or hazard changed: arms it at
    /// `anchor + (target − acc)/rate` while it has members and a positive
    /// rate, else disarms it. A fresh stamp is drawn from `next_stamp`
    /// whenever the group is newly armed or its deadline moves earlier; a
    /// later deadline keeps the stamp.
    pub(crate) fn schedule_group(&mut self, g: u32, next_stamp: &mut u64) {
        let grp = &mut self.groups[g as usize];
        let armed = grp.stamp != 0;
        if grp.rate > 0.0 && !grp.peers.is_empty() {
            let time = grp.anchor + (grp.target - grp.acc) / grp.rate;
            if !armed || time < self.deadline[g as usize] {
                grp.stamp = *next_stamp;
                *next_stamp += 1;
            }
            self.set_deadline(g, time);
        } else if armed {
            grp.stamp = 0;
            self.set_deadline(g, f64::INFINITY);
        }
    }

    /// Hazard state `(target, acc, anchor)` of a group.
    pub fn group_hazard(&self, g: u32) -> (f64, f64, f64) {
        let grp = &self.groups[g as usize];
        (grp.target, grp.acc, grp.anchor)
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

    /// Drains `(group-rate recomputations, clean refresh hits)`.
    pub fn take_stats(&mut self) -> (u64, u64) {
        let stats = (self.stat_updates, self.stat_clean);
        self.stat_updates = 0;
        self.stat_clean = 0;
        stats
    }

    /// Grows per-peer bookkeeping to cover `n` slab slots.
    pub fn grow(&mut self, n: usize) {
        self.arena.ensure_peers(n);
        while self.reg_src.len() < n {
            self.reg_src.push(Vec::new());
        }
    }

    /// Changes the origin-publisher count mid-run; marks every pool dirty
    /// (same policy as the per-peer cache).
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

    /// Installs a freshly drawn Exp(1) hazard target (engine init and
    /// post-pop redraw both go through [`AggCache::on_pop`]; this one is
    /// for the eager draws at simulation start, before any arming).
    pub fn set_initial_target(&mut self, g: u32, target: f64) {
        debug_assert!(target > 0.0);
        let grp = &mut self.groups[g as usize];
        grp.target = target;
        grp.acc = 0.0;
        grp.anchor = 0.0;
        grp.stamp = 0;
        self.set_deadline(g, f64::INFINITY);
    }

    /// A group's completion was accepted at time `t`: resets the hazard
    /// with a fresh Exp(1) `new_target`, disarms the entry, and queues the
    /// group for rescheduling by the next [`AggCache::refresh`].
    pub fn on_pop(&mut self, g: u32, new_target: f64, t: f64) {
        debug_assert!(new_target > 0.0);
        let grp = &mut self.groups[g as usize];
        grp.target = new_target;
        grp.acc = 0.0;
        grp.anchor = t;
        grp.stamp = 0;
        self.set_deadline(g, f64::INFINITY);
        if !self.rearm_flag[g as usize] {
            self.rearm_flag[g as usize] = true;
            self.rearm.push(g);
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

    fn mark_pd(&mut self, f: usize) {
        if !self.pd_flag[f] {
            self.pd_flag[f] = true;
            self.pd.push(f);
        }
    }

    /// TFT upload `u` shared by every member of a `(class, band)` group.
    fn member_u(&self, class: usize, band: u8) -> f64 {
        match self.scheme {
            SchemeKind::Mtsd => self.mu,
            SchemeKind::Mtcd | SchemeKind::Mfcd => self.mu / class as f64,
            SchemeKind::Cmfsd { .. } => {
                if band == 1 {
                    self.rho * self.mu
                } else {
                    self.mu
                }
            }
        }
    }

    /// Downloader weight `w` shared by every member of a class.
    fn member_w(&self, class: usize) -> f64 {
        match self.scheme {
            SchemeKind::Mtsd | SchemeKind::Cmfsd { .. } => 1.0,
            SchemeKind::Mtcd | SchemeKind::Mfcd => 1.0 / class as f64,
        }
    }

    /// Bandwidth of one single-file seed of `class` (never called for
    /// CMFSD, which has no single-file seeds).
    fn seed_bw(&self, class: usize) -> f64 {
        match self.scheme {
            SchemeKind::Mtsd => self.mu,
            SchemeKind::Mtcd | SchemeKind::Mfcd => self.mu / class as f64,
            SchemeKind::Cmfsd { .. } => unreachable!("CMFSD has no single-file seeds"),
        }
    }

    fn add_member(&mut self, f: usize, class: usize, band: u8, peer: usize, slot: usize) {
        let g = self.gid(f, class, band);
        let grp = &mut self.groups[g as usize];
        let pos = grp.peers.len() as u32;
        grp.peers.push(peer as u32);
        grp.slots.push(slot as u32);
        self.arena.set(peer, slot, g, pos);
        self.mark_w(f);
    }

    fn remove_member(&mut self, g: u32, pos: u32) {
        let grp = &mut self.groups[g as usize];
        let pos = pos as usize;
        grp.peers.swap_remove(pos);
        grp.slots.swap_remove(pos);
        if pos < grp.peers.len() {
            let (mp, ms) = (grp.peers[pos] as usize, grp.slots[pos] as usize);
            self.arena.set(mp, ms, g, pos as u32);
        }
        let f = self.group_file(g);
        self.mark_w(f);
    }

    fn add_seed(&mut self, idx: usize, file: usize, class: usize) {
        self.n_seed[file * self.k + class - 1] += 1;
        self.reg_src[idx].push(SrcReg::Seed {
            file: file as u32,
            class: class as u32,
        });
        self.mark_p(file);
    }

    fn add_set(&mut self, idx: usize, mask: u64, is_virtual: bool) {
        debug_assert!(mask != 0);
        let si = match self.set_index.get(&mask) {
            Some(&si) => si,
            None => {
                let si = self.sets.len() as u32;
                self.sets.push(SetEntry {
                    mask,
                    n_real: 0,
                    n_virt: 0,
                });
                self.set_index.insert(mask, si);
                let sets = &self.sets;
                for f in mask_files(mask) {
                    let list = &mut self.file_masks[f];
                    let pos = list.partition_point(|&o| sets[o as usize].mask < mask);
                    list.insert(pos, si);
                }
                si
            }
        };
        let e = &mut self.sets[si as usize];
        if is_virtual {
            e.n_virt += 1;
        } else {
            e.n_real += 1;
        }
        self.reg_src[idx].push(SrcReg::Set {
            set: si,
            is_virtual,
        });
        for f in mask_files(mask) {
            self.mark_p(f);
        }
    }

    /// Computes the peer's memberships (mirroring the per-peer cache's
    /// `fill_membership`) and inserts them, marking dirt.
    pub fn register(&mut self, idx: usize, peers: &[Peer]) {
        let peer = &peers[idx];
        debug_assert!(self.reg_src[idx].is_empty(), "double registration");
        let class = peer.class();
        match self.scheme {
            SchemeKind::Mtsd => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    self.add_member(peer.slots[slot].file as usize, class, 0, idx, slot);
                }
                Phase::SeedingFile(slot) => {
                    self.add_seed(idx, peer.slots[slot].file as usize, class);
                }
                Phase::SeedingAll | Phase::Departed => {}
            },
            SchemeKind::Mtcd | SchemeKind::Mfcd => {
                if peer.phase == Phase::Departed {
                    return;
                }
                for slot in 0..class {
                    if !peer.finished(slot) {
                        self.add_member(peer.slots[slot].file as usize, class, 0, idx, slot);
                    } else if peer.slots[slot].seed_until.is_some() {
                        self.add_seed(idx, peer.slots[slot].file as usize, class);
                    }
                }
            }
            SchemeKind::Cmfsd { .. } => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    let f = peer.slots[slot].file as usize;
                    if peer.done_count() >= 1 {
                        debug_assert_eq!(
                            peer.rho.to_bits(),
                            self.rho.to_bits(),
                            "aggregate mode requires a homogeneous ρ (Adapt is rejected)"
                        );
                        self.add_member(f, class, 1, idx, slot);
                        if self.virt_bw > 0.0 {
                            let mut mask = 0u64;
                            for s in peer.finished_slots() {
                                mask |= 1 << peer.slots[s].file;
                            }
                            self.add_set(idx, mask, true);
                        }
                    } else {
                        self.add_member(f, class, 0, idx, slot);
                    }
                }
                Phase::SeedingAll => {
                    let mut mask = 0u64;
                    for f in peer.files() {
                        mask |= 1 << f;
                    }
                    self.add_set(idx, mask, false);
                }
                Phase::SeedingFile(_) | Phase::Departed => {}
            },
        }
    }

    /// Removes a peer's current memberships: downloads via the arena,
    /// sources via the explicit registration record.
    pub fn deregister(&mut self, idx: usize, peers: &[Peer]) {
        let class = peers[idx].class();
        for slot in 0..class {
            if let Some((g, pos)) = self.arena.clear(idx, slot) {
                self.remove_member(g, pos);
            }
        }
        let srcs = std::mem::take(&mut self.reg_src[idx]);
        for src in &srcs {
            match *src {
                SrcReg::Seed { file, class } => {
                    let cell = &mut self.n_seed[file as usize * self.k + class as usize - 1];
                    debug_assert!(*cell > 0);
                    *cell -= 1;
                    self.mark_p(file as usize);
                }
                SrcReg::Set { set, is_virtual } => {
                    let e = &mut self.sets[set as usize];
                    let mask = e.mask;
                    if is_virtual {
                        debug_assert!(e.n_virt > 0);
                        e.n_virt -= 1;
                    } else {
                        debug_assert!(e.n_real > 0);
                        e.n_real -= 1;
                    }
                    for f in mask_files(mask) {
                        self.mark_p(f);
                    }
                }
            }
        }
        let mut srcs = srcs;
        srcs.clear();
        self.reg_src[idx] = srcs;
    }

    /// Canonical weight resummation: `Σ n·w` over classes ascending, bands
    /// ascending, skipping empty groups. Depends only on integer counts,
    /// so a rebuild reproduces the bits.
    fn recompute_weight(&mut self, f: usize) {
        let mut s = 0.0;
        for class in 1..=self.k {
            let w = self.member_w(class);
            for band in 0..2u8 {
                let n = self.groups[self.gid(f, class, band) as usize].peers.len();
                if n > 0 {
                    s += n as f64 * w;
                }
            }
        }
        if s.to_bits() != self.weight[f].to_bits() {
            self.weight[f] = s;
            self.wc.push(f);
        }
    }

    /// Canonical pool resummation for `f`: origin first, then single-file
    /// seeds (classes ascending), then sets in mask-ascending order with
    /// demand summed over mask bits ascending.
    fn recompute_pools(&mut self, f: usize) {
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
        if self.weight[f] > 0.0 {
            for class in 1..=self.k {
                let n = self.n_seed[f * self.k + class - 1];
                if n > 0 {
                    pr += n as f64 * self.seed_bw(class);
                }
            }
        }
        for i in 0..self.file_masks[f].len() {
            let si = self.file_masks[f][i] as usize;
            let e = self.sets[si];
            if e.n_real == 0 && e.n_virt == 0 {
                continue; // tombstone
            }
            let demand: f64 = mask_files(e.mask).map(|g| self.weight[g]).sum();
            if demand <= 0.0 || !(self.weight[f] > 0.0) {
                continue;
            }
            if e.n_real > 0 {
                pr += (e.n_real as f64 * self.mu) * self.weight[f] / demand;
            }
            if e.n_virt > 0 {
                pv += (e.n_virt as f64 * self.virt_bw) * self.weight[f] / demand;
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

    /// Settles a group's hazard at `t` with its *current* (old) rate, then
    /// moves the anchor. Must run before a new rate is stored.
    fn settle_group(grp: &mut Group, t: f64) {
        let dt = t - grp.anchor;
        debug_assert!(dt >= 0.0, "hazard settled backwards: dt = {dt}");
        if dt > 0.0 && grp.rate > 0.0 {
            grp.acc += grp.rate * dt;
        }
        grp.anchor = t;
    }

    /// Canonical group-rate recomputation for every group of `f`:
    /// `n·η·u + (n·w/W_f)·(P_real + P_virt)`, share 0 when `W_f ≤ 0`.
    /// Bit-changed groups are settled (old rate) and appended to `changed`.
    fn recompute_group_rates(&mut self, f: usize, t: f64, changed: &mut Vec<u32>) {
        for class in 1..=self.k {
            for band in 0..2u8 {
                let g = self.gid(f, class, band);
                let n = self.groups[g as usize].peers.len();
                self.stat_updates += 1;
                let r = if n == 0 {
                    0.0
                } else {
                    let nf = n as f64;
                    let share = if self.weight[f] > 0.0 {
                        nf * self.member_w(class) / self.weight[f]
                    } else {
                        0.0
                    };
                    nf * (self.eta * self.member_u(class, band))
                        + share * self.pool_real[f]
                        + share * self.pool_virtual[f]
                };
                let grp = &mut self.groups[g as usize];
                if r.to_bits() != grp.rate.to_bits() {
                    Self::settle_group(grp, t);
                    grp.rate = r;
                    if !self.changed_flag[g as usize] {
                        self.changed_flag[g as usize] = true;
                        changed.push(g);
                    }
                }
            }
        }
    }

    /// Recomputes dirty aggregates at time `t` and reports every group
    /// that needs (re)scheduling: rate bit-changed this refresh, or hazard
    /// reset by [`AggCache::on_pop`] since the last one. With `force`,
    /// every weight, pool, and group rate is recomputed (unchanged ones
    /// are bitwise no-ops, the same contract as the per-peer cache).
    pub fn refresh(&mut self, t: f64, force: bool, changed: &mut Vec<u32>) {
        changed.clear();
        if !force && self.dirty_w.is_empty() && self.dirty_p.is_empty() && self.rearm.is_empty() {
            self.stat_clean += 1;
            return;
        }

        // Pass 1: weights (`wc` collects bit changes).
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

        // Pass 2: the pool-dirty set.
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
                // Sets serving a weight-changed file redistribute over all
                // their files.
                for i in 0..self.file_masks[f].len() {
                    let si = self.file_masks[f][i] as usize;
                    let e = self.sets[si];
                    if e.n_real == 0 && e.n_virt == 0 {
                        continue;
                    }
                    for g in mask_files(e.mask) {
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

        // Pass 3: pools (bit changes feed `rate_files`).
        for i in 0..self.pd.len() {
            let f = self.pd[i];
            self.recompute_pools(f);
        }

        // Pass 4: group rates. Rate-dirty = membership-changed files
        // (`dirty_w`, not just `wc` — two leaves plus a join can collide
        // on the same weight bits while the member counts changed) ∪
        // pool-changed files; everything under force.
        if force {
            for f in 0..self.k {
                if !self.rate_flag[f] {
                    self.rate_flag[f] = true;
                    self.rate_files.push(f);
                }
            }
        } else {
            let dirty = std::mem::take(&mut self.dirty_w);
            for &f in &dirty {
                if !self.rate_flag[f] {
                    self.rate_flag[f] = true;
                    self.rate_files.push(f);
                }
            }
            self.dirty_w = dirty;
        }
        let mut i = 0;
        while i < self.rate_files.len() {
            let f = self.rate_files[i];
            self.recompute_group_rates(f, t, changed);
            i += 1;
        }

        // Merge the rearm list: a popped group must be rescheduled even if
        // its recomputed rate happens to reproduce the old bits.
        let rearm = std::mem::take(&mut self.rearm);
        for &g in &rearm {
            self.rearm_flag[g as usize] = false;
            if !self.changed_flag[g as usize] {
                self.changed_flag[g as usize] = true;
                changed.push(g);
            }
        }
        let mut rearm = rearm;
        rearm.clear();
        self.rearm = rearm;

        // Reset dirty/scratch state.
        for &f in &self.dirty_w {
            self.dirty_w_flag[f] = false;
        }
        self.dirty_w.clear();
        for &f in &self.dirty_p {
            self.dirty_p_flag[f] = false;
        }
        self.dirty_p.clear();
        for &f in &self.pd {
            self.pd_flag[f] = false;
        }
        self.pd.clear();
        for &f in &self.rate_files {
            self.rate_flag[f] = false;
        }
        self.rate_files.clear();
        for &g in changed.iter() {
            self.changed_flag[g as usize] = false;
        }
        self.wc.clear();
    }

    /// Restore support: overwrites a group's member order with the
    /// serialized one after verifying it is a permutation of the rebuilt
    /// list, and fixes the arena positions.
    pub(crate) fn install_members(&mut self, g: u32, members: &[(u32, u32)]) -> Result<(), String> {
        let grp = &self.groups[g as usize];
        let mut have: Vec<(u32, u32)> = grp
            .peers
            .iter()
            .copied()
            .zip(grp.slots.iter().copied())
            .collect();
        let mut want: Vec<(u32, u32)> = members.to_vec();
        have.sort_unstable();
        want.sort_unstable();
        if have != want {
            return Err(format!(
                "group {g}: serialized member list is not a permutation of the rebuilt one \
                 ({} vs {} members)",
                members.len(),
                have.len()
            ));
        }
        let grp = &mut self.groups[g as usize];
        grp.peers.clear();
        grp.slots.clear();
        for &(p, s) in members {
            grp.peers.push(p);
            grp.slots.push(s);
        }
        for (pos, &(p, s)) in members.iter().enumerate() {
            self.arena.set(p as usize, s as usize, g, pos as u32);
        }
        Ok(())
    }

    /// Restore support: installs serialized hazard/scheduling state.
    pub(crate) fn install_hazard(
        &mut self,
        g: u32,
        target: f64,
        acc: f64,
        anchor: f64,
        deadline: f64,
        stamp: u64,
    ) {
        let grp = &mut self.groups[g as usize];
        grp.target = target;
        grp.acc = acc;
        grp.anchor = anchor;
        grp.stamp = stamp;
        self.deadline[g as usize] = deadline;
        self.min_stale = true;
    }

    /// From-scratch audit: rebuilds a fresh cache from the slab and checks
    /// the incrementally maintained state against it — weights, pools, and
    /// group rates bitwise; member lists as multisets; arena consistency.
    /// O(peers + K²); driven by checked mode and the property tests.
    pub fn audit(&self, peers: &[Peer]) -> Result<(), String> {
        let origin_seeds = if self.origin_bw > 0.0 {
            (self.origin_bw / self.mu).round() as usize
        } else {
            0
        };
        let params = FluidParams::new(self.mu, self.eta, 1.0)
            .map_err(|e| format!("audit: cannot rebuild params: {e}"))?;
        let mut fresh = AggCache::new(self.k, self.scheme, &params, origin_seeds);
        fresh.grow(peers.len());
        for idx in 0..peers.len() {
            if peers[idx].phase != Phase::Departed {
                fresh.register(idx, peers);
            }
        }
        let mut changed = Vec::new();
        fresh.refresh(0.0, true, &mut changed);
        for f in 0..self.k {
            if self.weight[f].to_bits() != fresh.weight[f].to_bits() {
                return Err(format!(
                    "weight[{f}] drift: cached {} vs rebuilt {}",
                    self.weight[f], fresh.weight[f]
                ));
            }
            if self.pool_real[f].to_bits() != fresh.pool_real[f].to_bits()
                || self.pool_virtual[f].to_bits() != fresh.pool_virtual[f].to_bits()
            {
                return Err(format!(
                    "pool[{f}] drift: cached ({}, {}) vs rebuilt ({}, {})",
                    self.pool_real[f],
                    self.pool_virtual[f],
                    fresh.pool_real[f],
                    fresh.pool_virtual[f]
                ));
            }
        }
        for g in 0..self.groups.len() {
            let a = &self.groups[g];
            let b = &fresh.groups[g];
            if a.rate.to_bits() != b.rate.to_bits() {
                return Err(format!(
                    "group {g} rate drift: cached {} vs rebuilt {}",
                    a.rate, b.rate
                ));
            }
            let mut am: Vec<(u32, u32)> = a
                .peers
                .iter()
                .copied()
                .zip(a.slots.iter().copied())
                .collect();
            let mut bm: Vec<(u32, u32)> = b
                .peers
                .iter()
                .copied()
                .zip(b.slots.iter().copied())
                .collect();
            am.sort_unstable();
            bm.sort_unstable();
            if am != bm {
                return Err(format!(
                    "group {g} member drift: cached {} vs rebuilt {} members",
                    a.peers.len(),
                    b.peers.len()
                ));
            }
            // Arena back-references must agree with positions.
            for (pos, (&p, &s)) in a.peers.iter().zip(&a.slots).enumerate() {
                if self.arena.get(p as usize, s as usize) != Some((g as u32, pos as u32)) {
                    return Err(format!(
                        "arena drift: group {g} pos {pos} holds ({p}, {s}) but the arena \
                         maps it to {:?}",
                        self.arena.get(p as usize, s as usize)
                    ));
                }
            }
        }
        // Integer aggregates must agree exactly.
        if self.n_seed != fresh.n_seed {
            return Err("single-file seed counts drifted from the slab".into());
        }
        let mut have: Vec<(u64, u32, u32)> = self
            .sets
            .iter()
            .filter(|e| e.n_real > 0 || e.n_virt > 0)
            .map(|e| (e.mask, e.n_real, e.n_virt))
            .collect();
        let mut want: Vec<(u64, u32, u32)> = fresh
            .sets
            .iter()
            .filter(|e| e.n_real > 0 || e.n_virt > 0)
            .map(|e| (e.mask, e.n_real, e.n_virt))
            .collect();
        have.sort_unstable();
        want.sort_unstable();
        if have != want {
            return Err("source-set counts drifted from the slab".into());
        }
        self.audit_schedule()
    }

    /// Scheduling audit: a disarmed group holds no deadline, and the cached
    /// argmin (unless a rescan is pending) equals a fresh scan over the
    /// armed groups.
    fn audit_schedule(&self) -> Result<(), String> {
        for (g, grp) in self.groups.iter().enumerate() {
            if grp.stamp == 0 && self.deadline[g] != f64::INFINITY {
                return Err(format!(
                    "group {g}: disarmed but holds deadline {}",
                    self.deadline[g]
                ));
            }
        }
        // Checked against the plain loop, not `first_min`, so a fault in
        // the fast scan cannot hide behind itself.
        if !self.min_stale {
            let fresh = first_min_naive(&self.deadline);
            if self.min_group != fresh {
                return Err(format!(
                    "group argmin drift: cached {:?} vs scanned {fresh:?}",
                    self.min_group
                ));
            }
        }
        Ok(())
    }
}

/// Lanes of the minimum pass in [`first_min`]: one AVX-512 register, or
/// two to four narrower ones.
const MIN_LANES: usize = 8;

/// Index of the first entry holding the minimum of `xs`, or `None` when no
/// entry is below ∞ — the same answer as [`first_min_naive`].
///
/// Two passes instead of one compare-and-branch loop. The first takes a
/// lane-wise minimum over [`MIN_LANES`]-wide chunks; its select has no
/// data-dependent branch, so it vectorises, and it costs the same whether
/// or not the minimum moves. The second finds the first index equal to that
/// minimum, which is the lowest id among ties. NaN never wins either pass
/// (`<` and `==` are false for it), as in the naive loop.
fn first_min(xs: &[f64]) -> Option<u32> {
    let mut lanes = [f64::INFINITY; MIN_LANES];
    let chunks = xs.chunks_exact(MIN_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = if x < *m { x } else { *m };
        }
    }
    for (m, &x) in lanes.iter_mut().zip(tail) {
        *m = if x < *m { x } else { *m };
    }
    let min = lanes
        .iter()
        .fold(f64::INFINITY, |a, &x| if x < a { x } else { a });
    if min == f64::INFINITY {
        return None;
    }
    xs.iter().position(|&x| x == min).map(|i| i as u32)
}

/// The reference for [`first_min`]: one compare-and-branch pass keeping the
/// first strict minimum below ∞.
fn first_min_naive(xs: &[f64]) -> Option<u32> {
    let mut best = None;
    let mut best_t = f64::INFINITY;
    for (i, &t) in xs.iter().enumerate() {
        if t < best_t {
            best_t = t;
            best = Some(i as u32);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_workload::requests::FileId;
    use proptest::prelude::*;

    fn params() -> FluidParams {
        FluidParams::new(1.0, 0.8, 1.0 / 20.0).unwrap()
    }

    fn downloader(k: usize, files: Vec<FileId>) -> Peer {
        let n = files.len();
        let order: Vec<usize> = (0..n).collect();
        let _ = k;
        Peer::new(0, 0.0, files, order, 1.0)
    }

    #[test]
    fn gid_roundtrip() {
        let a = AggCache::new(6, SchemeKind::Mtsd, &params(), 1);
        for f in 0..6 {
            for class in 1..=6 {
                for band in 0..2u8 {
                    let g = a.gid(f, class, band);
                    assert_eq!(a.group_file(g), f);
                    assert_eq!(a.group_class(g), class);
                    assert_eq!(a.group_band(g), band);
                }
            }
        }
        assert_eq!(a.n_groups(), 72);
    }

    #[test]
    fn mtsd_group_rate_matches_per_member_formula() {
        let k = 4;
        let mut a = AggCache::new(k, SchemeKind::Mtsd, &params(), 1);
        let peers: Vec<Peer> = (0..3).map(|_| downloader(k, vec![2])).collect();
        a.grow(peers.len());
        for idx in 0..peers.len() {
            a.register(idx, &peers);
        }
        let mut changed = Vec::new();
        a.refresh(0.0, false, &mut changed);
        let g = a.gid(2, 1, 0);
        assert_eq!(a.group_len(g), 3);
        assert_eq!(a.weight()[2], 3.0);
        // pool = origin μ; share = 3·1/3 = 1; rate = 3·η·μ + 1·pool.
        let expect: f64 = 3.0 * (0.8 * 1.0) + (3.0 / 3.0) * 1.0;
        assert_eq!(a.group_rate(g).to_bits(), expect.to_bits());
        assert!(changed.contains(&g));
        // Every other group stays silent.
        assert!(changed.iter().all(|&c| c == g));
    }

    #[test]
    fn deregister_restores_empty_state() {
        let k = 3;
        let mut a = AggCache::new(k, SchemeKind::Cmfsd { rho: 0.25 }, &params(), 1);
        let mut p = downloader(k, vec![0, 2]);
        p.rho = 0.25;
        let peers = vec![p];
        a.grow(1);
        a.register(0, &peers);
        let mut changed = Vec::new();
        a.refresh(0.0, false, &mut changed);
        assert_eq!(a.group_len(a.gid(0, 2, 0)), 1);
        a.deregister(0, &peers);
        a.refresh(1.0, false, &mut changed);
        assert_eq!(a.group_len(a.gid(0, 2, 0)), 0);
        assert!(a.weight().iter().all(|&w| w == 0.0));
        a.audit(&[]).unwrap();
    }

    #[test]
    fn cmfsd_finished_peer_moves_to_band_one_with_virtual_set() {
        let k = 3;
        let mut a = AggCache::new(k, SchemeKind::Cmfsd { rho: 0.25 }, &params(), 1);
        let mut p = downloader(k, vec![0, 2]);
        p.rho = 0.25;
        // First file finished, cursor on the second.
        p.slots[0].remaining = 0.0;
        p.slots[0].completed_at = Some(1.0);
        p.cursor = 1;
        let peers = vec![p];
        a.grow(1);
        a.register(0, &peers);
        let mut changed = Vec::new();
        a.refresh(2.0, false, &mut changed);
        let g1 = a.gid(2, 2, 1);
        assert_eq!(a.group_len(g1), 1);
        assert_eq!(a.group_len(a.gid(2, 2, 0)), 0);
        // The virtual set over file 0 serves nothing (weight[0] = 0) but
        // is registered with the right mask.
        assert_eq!(a.sets.len(), 1);
        assert_eq!(a.sets[0].mask, 0b001);
        assert_eq!(a.sets[0].n_virt, 1);
        a.audit(&peers).unwrap();
    }

    #[test]
    fn hazard_settles_at_old_rate_before_storing_new() {
        let k = 2;
        let mut a = AggCache::new(k, SchemeKind::Mtsd, &params(), 0);
        let peers: Vec<Peer> = (0..2).map(|_| downloader(k, vec![1])).collect();
        a.grow(peers.len());
        a.register(0, &peers);
        let mut changed = Vec::new();
        a.refresh(0.0, false, &mut changed);
        let g = a.gid(1, 1, 0);
        let r1 = a.group_rate(g);
        assert!(r1 > 0.0);
        a.set_initial_target(g, 100.0);
        // Second member joins at t = 5: hazard must accrue r1·5 first.
        a.register(1, &peers);
        a.refresh(5.0, false, &mut changed);
        let (target, acc, anchor) = a.group_hazard(g);
        assert_eq!(target, 100.0);
        assert_eq!(acc.to_bits(), (r1 * 5.0).to_bits());
        assert_eq!(anchor, 5.0);
        assert!(a.group_rate(g) > r1);
    }

    #[test]
    fn on_pop_rearms_even_when_rate_bits_survive() {
        let k = 2;
        let mut a = AggCache::new(k, SchemeKind::Mtsd, &params(), 1);
        let peers = vec![downloader(k, vec![0])];
        a.grow(1);
        a.register(0, &peers);
        let mut changed = Vec::new();
        a.refresh(0.0, false, &mut changed);
        let g = a.gid(0, 1, 0);
        a.on_pop(g, 1.5, 3.0);
        // Nothing dirty except the rearm: refresh must still report g.
        a.refresh(3.0, false, &mut changed);
        assert_eq!(changed, vec![g]);
        let (target, acc, anchor) = a.group_hazard(g);
        assert_eq!((target, acc, anchor), (1.5, 0.0, 3.0));
    }

    /// The cached argmin follows arming, earlier and later moves and
    /// disarming, breaks ties toward the lowest group id, and always agrees
    /// with a fresh scan once read.
    #[test]
    fn group_argmin_tracks_deadline_moves() {
        let mut a = AggCache::new(2, SchemeKind::Mtcd, &params(), 0);
        let next = |a: &mut AggCache| {
            let got = a.next_deadline();
            assert_eq!(got.map(|(_, g)| g), first_min_naive(&a.deadline));
            got
        };
        assert_eq!(next(&mut a), None);
        a.set_deadline(5, 4.0);
        a.set_deadline(3, 6.0);
        assert_eq!(next(&mut a), Some((4.0, 5)));
        // A tie goes to the lower id, an earlier move takes the minimum.
        a.set_deadline(3, 4.0);
        assert_eq!(next(&mut a), Some((4.0, 3)));
        a.set_deadline(6, 1.0);
        assert_eq!(next(&mut a), Some((1.0, 6)));
        // The minimum moving later or disarming forces a rescan.
        a.set_deadline(6, 9.0);
        assert_eq!(next(&mut a), Some((4.0, 3)));
        a.set_deadline(3, f64::INFINITY);
        assert_eq!(next(&mut a), Some((4.0, 5)));
        a.set_deadline(5, f64::INFINITY);
        a.set_deadline(6, f64::INFINITY);
        assert_eq!(next(&mut a), None);
    }

    #[test]
    fn set_tombstones_are_reused() {
        let k = 3;
        let mut a = AggCache::new(k, SchemeKind::Cmfsd { rho: 0.5 }, &params(), 0);
        let mut p = downloader(k, vec![0, 1]);
        p.rho = 0.5;
        p.phase = Phase::SeedingAll;
        let peers = vec![p];
        a.grow(1);
        a.register(0, &peers);
        a.deregister(0, &peers);
        assert_eq!(a.sets.len(), 1);
        assert_eq!((a.sets[0].n_real, a.sets[0].n_virt), (0, 0));
        a.register(0, &peers);
        assert_eq!(a.sets.len(), 1, "tombstone must be reused, not duplicated");
        assert_eq!(a.sets[0].n_real, 1);
    }

    /// Group-count shaped arrays: `2·K²` for K = 1..12, so 18 and 50 leave
    /// a remainder after the lanes.
    fn deadline_arrays() -> impl Strategy<Value = Vec<f64>> {
        (1usize..=12).prop_flat_map(|k| {
            // Half the entries disarmed; a small value set makes exact ties
            // common.
            let entry = prop_oneof![
                Just(f64::INFINITY),
                Just(f64::INFINITY),
                (0u8..6).prop_map(|v| f64::from(v) * 0.5),
                -1e3f64..=1e3,
            ];
            proptest::collection::vec(entry, 2 * k * k)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn first_min_matches_the_naive_loop(xs in deadline_arrays()) {
            prop_assert_eq!(first_min(&xs), first_min_naive(&xs));
        }
    }

    #[test]
    fn first_min_edge_cases() {
        for k in 1..=12 {
            let n = 2 * k * k;
            let mut xs = vec![f64::INFINITY; n];
            assert_eq!(first_min(&xs), None, "all disarmed, n = {n}");
            // A tie anywhere, including in the tail, goes to the lower id.
            xs[n - 1] = 2.0;
            assert_eq!(first_min(&xs), Some(n as u32 - 1));
            xs[n / 2] = 2.0;
            assert_eq!(first_min(&xs), Some(n as u32 / 2));
            xs[0] = 2.0;
            assert_eq!(first_min(&xs), Some(0));
            xs[n - 1] = -1.0;
            assert_eq!(first_min(&xs), Some(n as u32 - 1));
        }
    }
}
