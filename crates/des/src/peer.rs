//! The simulated peer: request set, per-file progress, lifecycle phase.

use btfluid_core::adapt::AdaptController;
use btfluid_workload::requests::FileId;

/// Lifecycle phase of a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Actively downloading (sequential: the file at the cursor;
    /// concurrent: every unfinished file).
    Downloading,
    /// MTSD only: seeding the just-finished file (slot index) before moving
    /// to the next torrent.
    SeedingFile(usize),
    /// All files finished; seeding until departure (CMFSD/MFCD real seed,
    /// MTCD lingering virtual seeds).
    SeedingAll,
    /// Left the system (record finalized).
    Departed,
}

/// One simulated user/peer.
///
/// Field semantics vary slightly per scheme (documented inline); the engine
/// interprets them via [`crate::config::SchemeKind`].
#[derive(Debug, Clone)]
pub struct Peer {
    /// Unique id (monotone arrival counter).
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// Requested files (non-empty, sorted).
    pub files: Vec<FileId>,
    /// Remaining work per file slot, `1.0 → 0.0`.
    pub remaining: Vec<f64>,
    /// Completion time per slot.
    pub completed_at: Vec<Option<f64>>,
    /// Sequential download order: a permutation of slot indices.
    pub order: Vec<usize>,
    /// Position in [`Peer::order`] (sequential schemes).
    pub cursor: usize,
    /// Current phase.
    pub phase: Phase,
    /// Per-slot seed expiry (MTSD: the one being seeded; MTCD: each virtual
    /// seed's own deadline).
    pub seed_until: Vec<Option<f64>>,
    /// Pre-sampled seed durations per slot (recorded for the fluid-metric
    /// online time).
    pub seed_duration: Vec<f64>,
    /// Whole-user departure time (CMFSD/MFCD real-seed phase end).
    pub depart_at: Option<f64>,
    /// CMFSD: individual bandwidth allocation ratio ρ.
    pub rho: f64,
    /// Whether this peer cheats (pins ρ = 1, never donates).
    pub cheater: bool,
    /// Optional per-peer Adapt controller.
    pub adapt: Option<AdaptController>,
    /// Adapt accounting: bandwidth·time donated through the virtual seed in
    /// the current epoch.
    pub donated: f64,
    /// Adapt accounting: bandwidth·time received from others' virtual
    /// seeds in the current epoch.
    pub received_vs: f64,
    /// Accumulated wall-clock time with at least one active download.
    pub download_time_acc: f64,
    /// Cached service rate per slot, maintained by the engine's rate cache
    /// (zero for inactive slots).
    pub rate: Vec<f64>,
    /// Virtual-seed portion of [`Peer::rate`] per slot.
    pub vs_rate: Vec<f64>,
    /// Last time each slot's progress was folded into
    /// [`Peer::remaining`]/[`Peer::received_vs`] (lazy settlement).
    pub settled_at: Vec<f64>,
    /// Bandwidth currently donated through this peer's virtual seed and
    /// consumed by someone (zero outside CMFSD).
    pub donation_rate: f64,
    /// Last time [`Peer::donated`] was settled.
    pub donation_since: f64,
    /// When the current [`Phase::Downloading`] stretch began (feeds
    /// [`Peer::download_time_acc`] on the next phase transition).
    pub active_since: f64,
    /// Arming stamp of the slot's completion (0 = no queue entry). A fresh
    /// value is drawn whenever the deadline is armed or moves earlier.
    pub comp_stamp: Vec<u64>,
    /// The slot's true completion deadline, meaningful while
    /// [`Peer::comp_stamp`] is non-zero. A rate *decrease* only moves the
    /// deadline later, so the engine records it here and leaves the queue
    /// entry's key early; the entry is re-keyed when it reaches the top.
    pub comp_time: Vec<f64>,
    /// Arming stamp of the seed-expiry/departure deadline (0 = no queue
    /// entry).
    pub expiry_stamp: u64,
}

impl Peer {
    /// Creates a freshly arrived peer.
    pub fn new(id: u64, arrival: f64, files: Vec<FileId>, order: Vec<usize>, rho: f64) -> Self {
        let n = files.len();
        debug_assert!(n > 0, "peers always request at least one file");
        debug_assert_eq!(order.len(), n);
        Self {
            id,
            arrival,
            files,
            remaining: vec![1.0; n],
            completed_at: vec![None; n],
            order,
            cursor: 0,
            phase: Phase::Downloading,
            seed_until: vec![None; n],
            seed_duration: vec![0.0; n],
            depart_at: None,
            rho,
            cheater: false,
            adapt: None,
            donated: 0.0,
            received_vs: 0.0,
            download_time_acc: 0.0,
            rate: vec![0.0; n],
            vs_rate: vec![0.0; n],
            settled_at: vec![arrival; n],
            donation_rate: 0.0,
            donation_since: arrival,
            active_since: arrival,
            comp_stamp: vec![0; n],
            comp_time: vec![f64::INFINITY; n],
            expiry_stamp: 0,
        }
    }

    /// Folds the interval since the slot's last settlement into
    /// [`Peer::remaining`] and [`Peer::received_vs`] at the cached rates,
    /// then re-anchors the slot at `t`.
    ///
    /// Safe to call on inactive slots (their cached rate is zero).
    ///
    /// An actively downloading slot never settles all the way to zero:
    /// only its completion *event* may finish it. A settle can land on the
    /// deadline to within a ulp (e.g. an arrival tying with the
    /// completion), and clamping to zero there would mark the slot
    /// finished without ever dispatching the completion — no seed phase,
    /// no holder count, no record. Pinning to the smallest positive value
    /// keeps the slot alive for the completion event that is due now.
    pub fn settle_slot(&mut self, slot: usize, t: f64) {
        let dt = t - self.settled_at[slot];
        if dt > 0.0 {
            let left = self.remaining[slot] - self.rate[slot] * dt;
            self.remaining[slot] = if left > 0.0 || !(self.rate[slot] > 0.0) {
                left.max(0.0)
            } else {
                f64::MIN_POSITIVE
            };
            self.received_vs += self.vs_rate[slot] * dt;
        }
        self.settled_at[slot] = t;
    }

    /// Folds the interval since the last donation settlement into
    /// [`Peer::donated`] at the cached donation rate, re-anchoring at `t`.
    pub fn settle_donation(&mut self, t: f64) {
        let dt = t - self.donation_since;
        if dt > 0.0 {
            self.donated += self.donation_rate * dt;
        }
        self.donation_since = t;
    }

    /// The user's class: number of requested files.
    pub fn class(&self) -> usize {
        self.files.len()
    }

    /// The earliest finite seed or departure deadline (∞ when none): the
    /// time of the peer's expiry event.
    pub fn expiry_deadline(&self) -> f64 {
        let seeds = self.seed_until.iter().flatten().copied();
        seeds
            .chain(self.depart_at)
            .filter(|t| t.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether slot `i` has finished downloading.
    pub fn finished(&self, slot: usize) -> bool {
        self.remaining[slot] <= 0.0
    }

    /// Number of finished files.
    pub fn done_count(&self) -> usize {
        self.remaining.iter().filter(|&&r| r <= 0.0).count()
    }

    /// Whether every requested file is finished.
    pub fn all_done(&self) -> bool {
        self.done_count() == self.class()
    }

    /// The slot currently being downloaded under a sequential scheme.
    ///
    /// # Panics
    /// Panics when the cursor has run past the order (the peer should then
    /// be in a seeding phase).
    pub fn current_slot(&self) -> usize {
        assert!(
            self.cursor < self.order.len(),
            "cursor {} past the end for peer {}",
            self.cursor,
            self.id
        );
        self.order[self.cursor]
    }

    /// Time of the last file completion, if all are done.
    pub fn last_completion(&self) -> Option<f64> {
        if !self.all_done() {
            return None;
        }
        self.completed_at
            .iter()
            .map(|c| c.expect("all slots completed"))
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.max(t)))
            })
    }

    /// Slots whose download is finished (what a CMFSD virtual seed can
    /// serve).
    pub fn finished_slots(&self) -> Vec<usize> {
        (0..self.class()).filter(|&s| self.finished(s)).collect()
    }
}

/// Structure-of-arrays map from `(peer slab index, slot)` to the peer's
/// position inside an aggregate group's member list.
///
/// Aggregate scheduling keeps one member list per (file, class, band)
/// group and needs O(1) deregistration of an arbitrary `(peer, slot)`
/// download from its group (the lists use `swap_remove`). Storing the
/// back-references on the `Peer` struct would drag two more `Vec`s through
/// every cache line the hot loop touches; this arena keeps them in two
/// flat parallel arrays indexed `peer · K + slot`, sized like the slab and
/// reused across the free list exactly as the slab itself is.
#[derive(Debug, Default, Clone)]
pub struct SlotArena {
    /// Slots per peer (the workload's `K`; a peer's class never exceeds it).
    k: usize,
    /// Group id per flat index; [`SlotArena::NONE`] when unregistered.
    group: Vec<u32>,
    /// Position inside the group's member list, parallel to `group`.
    pos: Vec<u32>,
}

impl SlotArena {
    /// Sentinel for "this (peer, slot) is not in any group".
    pub const NONE: u32 = u32::MAX;

    /// Creates an arena for peers with at most `k` slots each.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            group: Vec::new(),
            pos: Vec::new(),
        }
    }

    fn flat(&self, peer: usize, slot: usize) -> usize {
        debug_assert!(slot < self.k, "slot {slot} out of range (K = {})", self.k);
        peer * self.k + slot
    }

    /// Grows the arena to cover `peers` slab entries (new cells empty).
    pub fn ensure_peers(&mut self, peers: usize) {
        let want = peers * self.k;
        if self.group.len() < want {
            self.group.resize(want, Self::NONE);
            self.pos.resize(want, 0);
        }
    }

    /// Records that `(peer, slot)` sits at `pos` in group `group`.
    pub fn set(&mut self, peer: usize, slot: usize, group: u32, pos: u32) {
        let i = self.flat(peer, slot);
        self.group[i] = group;
        self.pos[i] = pos;
    }

    /// Looks up `(group, pos)` for `(peer, slot)`; `None` if unregistered.
    pub fn get(&self, peer: usize, slot: usize) -> Option<(u32, u32)> {
        let i = self.flat(peer, slot);
        match self.group.get(i) {
            Some(&g) if g != Self::NONE => Some((g, self.pos[i])),
            _ => None,
        }
    }

    /// Clears the `(peer, slot)` cell, returning its previous `(group, pos)`.
    pub fn clear(&mut self, peer: usize, slot: usize) -> Option<(u32, u32)> {
        let i = self.flat(peer, slot);
        match self.group.get(i) {
            Some(&g) if g != Self::NONE => {
                let p = self.pos[i];
                self.group[i] = Self::NONE;
                Some((g, p))
            }
            _ => None,
        }
    }

    /// Drops all registrations, keeping capacity (snapshot restore).
    pub fn reset(&mut self) {
        self.group.fill(Self::NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer3() -> Peer {
        Peer::new(7, 10.0, vec![2, 5, 9], vec![1, 0, 2], 0.3)
    }

    #[test]
    fn new_peer_state() {
        let p = peer3();
        assert_eq!(p.class(), 3);
        assert_eq!(p.done_count(), 0);
        assert!(!p.all_done());
        assert_eq!(p.phase, Phase::Downloading);
        assert_eq!(p.current_slot(), 1);
        assert_eq!(p.rho, 0.3);
        assert!(p.last_completion().is_none());
        assert!(p.finished_slots().is_empty());
    }

    #[test]
    fn progress_and_completion_tracking() {
        let mut p = peer3();
        p.remaining[1] = 0.0;
        p.completed_at[1] = Some(42.0);
        assert!(p.finished(1));
        assert_eq!(p.done_count(), 1);
        assert_eq!(p.finished_slots(), vec![1]);
        assert!(!p.all_done());
        p.remaining[0] = 0.0;
        p.completed_at[0] = Some(50.0);
        p.remaining[2] = 0.0;
        p.completed_at[2] = Some(47.0);
        assert!(p.all_done());
        assert_eq!(p.last_completion(), Some(50.0));
    }

    #[test]
    fn cursor_walks_the_order() {
        let mut p = peer3();
        assert_eq!(p.current_slot(), 1);
        p.cursor = 1;
        assert_eq!(p.current_slot(), 0);
        p.cursor = 2;
        assert_eq!(p.current_slot(), 2);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn cursor_overflow_panics() {
        let mut p = peer3();
        p.cursor = 3;
        let _ = p.current_slot();
    }

    #[test]
    fn slot_arena_set_get_clear() {
        let mut a = SlotArena::new(4);
        a.ensure_peers(3);
        assert_eq!(a.get(2, 3), None);
        a.set(2, 3, 17, 5);
        assert_eq!(a.get(2, 3), Some((17, 5)));
        // Neighbouring cells stay untouched (flat layout is peer·K + slot).
        assert_eq!(a.get(2, 2), None);
        assert_eq!(a.get(1, 3), None);
        assert_eq!(a.clear(2, 3), Some((17, 5)));
        assert_eq!(a.get(2, 3), None);
        assert_eq!(a.clear(2, 3), None);
    }

    #[test]
    fn slot_arena_growth_and_reset() {
        let mut a = SlotArena::new(2);
        a.ensure_peers(1);
        a.set(0, 1, 3, 0);
        a.ensure_peers(10);
        assert_eq!(a.get(0, 1), Some((3, 0)), "growth preserves cells");
        assert_eq!(a.get(9, 1), None);
        a.reset();
        assert_eq!(a.get(0, 1), None);
    }
}
