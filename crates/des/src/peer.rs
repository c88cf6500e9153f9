//! The simulated peer: request set, per-file progress, lifecycle phase.
//!
//! A [`Peer`] keeps everything it tracks per requested file in one
//! `Vec<Slot>` ([`Peer::slots`]), its only heap allocation. The engine's
//! slab recycles departed peers' entries, and an arrival into a recycled
//! entry reuses the old buffer (`Peer::in_buffer`), so in steady state
//! arrivals allocate no slot storage. Group back-references (the rate
//! groups' heap positions, the aggregate groups' member positions) live
//! outside the peer, in a flat [`SlotArena`] per cache.

use btfluid_core::adapt::AdaptController;
use btfluid_workload::requests::FileId;

/// Lifecycle phase of a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    #[default]
    Departed,
}

/// Per-file state of one requested file (a *slot*).
///
/// A peer keeps all of its slots in one `Vec<Slot>`, so touching a peer's
/// progress and deadlines walks one contiguous block instead of a pointer
/// per field. Service rates and completion deadlines are not per slot:
/// an active download belongs to a rate group of the engine's rate cache
/// ([`crate::rate_cache`]), which keeps its progress as a mark on the
/// group's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// The requested file.
    pub file: FileId,
    /// Entry at this *position* of the sequential download order (the
    /// slot downloaded at this position); read it through [`Peer::order`].
    /// Stored here so the permutation shares the slots' allocation.
    pub(crate) order: u32,
    /// Remaining work, `1.0 → 0.0`. While the download is active this is
    /// the value it joined its rate group with; the group clock holds the
    /// live figure and writes it back when the download leaves.
    pub remaining: f64,
    /// Completion time.
    pub completed_at: Option<f64>,
    /// Seed expiry (MTSD: the one being seeded; MTCD: each virtual seed's
    /// own deadline).
    pub seed_until: Option<f64>,
    /// Pre-sampled seed duration (recorded for the fluid-metric online
    /// time).
    pub seed_duration: f64,
}

/// One simulated user/peer.
///
/// Field semantics vary slightly per scheme (documented inline); the engine
/// interprets them via [`crate::config::SchemeKind`]. Everything kept per
/// requested file lives in [`Peer::slots`], the peer's only heap
/// allocation; a peer that arrives into a departed tombstone's slab entry
/// reuses that buffer (`Peer::in_buffer`). `Peer::default()` is an empty
/// tombstone: what a snapshot restores for a departed peer, whose fields
/// nothing reads again.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Peer {
    /// Unique id (monotone arrival counter).
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// Per-file state, one entry per requested file (non-empty, files
    /// sorted). Also carries the sequential download order
    /// ([`Peer::order`]).
    pub slots: Vec<Slot>,
    /// Position in the download order (sequential schemes).
    pub cursor: usize,
    /// Current phase.
    pub phase: Phase,
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
    /// Bandwidth currently donated through this peer's virtual seed and
    /// consumed by someone (zero outside CMFSD).
    pub donation_rate: f64,
    /// Last time [`Peer::donated`] was settled.
    pub donation_since: f64,
    /// When the current [`Phase::Downloading`] stretch began (feeds
    /// [`Peer::download_time_acc`] on the next phase transition).
    pub active_since: f64,
    /// Arming stamp of the seed-expiry/departure deadline (0 = no queue
    /// entry).
    pub expiry_stamp: u64,
}

impl Peer {
    /// Creates a freshly arrived peer requesting `files` (sorted), to be
    /// downloaded in `order` (a permutation of slot indices) by sequential
    /// schemes.
    pub fn new(id: u64, arrival: f64, files: Vec<FileId>, order: Vec<usize>, rho: f64) -> Self {
        Self::in_buffer(Vec::new(), id, arrival, &files, &order, rho)
    }

    /// [`Peer::new`] built in `buf`'s storage: its contents are discarded
    /// and its capacity reused, so a peer built on a departed peer's buffer
    /// allocates nothing unless its class is larger.
    pub(crate) fn in_buffer(
        mut buf: Vec<Slot>,
        id: u64,
        arrival: f64,
        files: &[FileId],
        order: &[usize],
        rho: f64,
    ) -> Self {
        debug_assert!(!files.is_empty(), "peers always request at least one file");
        debug_assert_eq!(order.len(), files.len());
        buf.clear();
        // Exact: `extend` alone would round a small class up to 4 slots.
        buf.reserve_exact(files.len());
        buf.extend(files.iter().zip(order).map(|(&file, &o)| Slot {
            file,
            order: o as u32,
            remaining: 1.0,
            completed_at: None,
            seed_until: None,
            seed_duration: 0.0,
        }));
        Self {
            id,
            arrival,
            slots: buf,
            cursor: 0,
            phase: Phase::Downloading,
            depart_at: None,
            rho,
            cheater: false,
            adapt: None,
            donated: 0.0,
            received_vs: 0.0,
            download_time_acc: 0.0,
            donation_rate: 0.0,
            donation_since: arrival,
            active_since: arrival,
            expiry_stamp: 0,
        }
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
        self.slots.len()
    }

    /// The requested files, in slot order.
    pub fn files(&self) -> impl ExactSizeIterator<Item = FileId> + '_ {
        self.slots.iter().map(|s| s.file)
    }

    /// The slot downloaded at position `pos` of the sequential order.
    pub fn order(&self, pos: usize) -> usize {
        self.slots[pos].order as usize
    }

    /// Swaps positions `a` and `b` of the sequential download order.
    pub fn swap_order(&mut self, a: usize, b: usize) {
        let oa = self.slots[a].order;
        self.slots[a].order = std::mem::replace(&mut self.slots[b].order, oa);
    }

    /// The earliest finite seed or departure deadline (∞ when none): the
    /// time of the peer's expiry event.
    pub fn expiry_deadline(&self) -> f64 {
        let seeds = self.slots.iter().filter_map(|s| s.seed_until);
        seeds
            .chain(self.depart_at)
            .filter(|t| t.is_finite())
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether slot `i` has finished downloading.
    pub fn finished(&self, slot: usize) -> bool {
        self.slots[slot].remaining <= 0.0
    }

    /// Number of finished files.
    pub fn done_count(&self) -> usize {
        self.slots.iter().filter(|s| s.remaining <= 0.0).count()
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
            self.cursor < self.class(),
            "cursor {} past the end for peer {}",
            self.cursor,
            self.id
        );
        self.order(self.cursor)
    }

    /// Time of the last file completion, if all are done.
    pub fn last_completion(&self) -> Option<f64> {
        if !self.all_done() {
            return None;
        }
        self.slots
            .iter()
            .map(|s| s.completed_at.expect("all slots completed"))
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

/// Structure-of-arrays map from `(peer slab index, slot)` to the
/// download's position inside its group: an aggregate group's member list
/// or a rate group's mark heap.
///
/// Both caches need to find an arbitrary `(peer, slot)` download in its
/// group in O(1) to remove it (aggregate lists use `swap_remove`, mark
/// heaps re-sift the moved entry). Storing the
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

    /// Looks up `(group, pos)` for `(peer, slot)`; `None` if unregistered
    /// (or `slot` is out of range, as in a corrupt snapshot).
    pub fn get(&self, peer: usize, slot: usize) -> Option<(u32, u32)> {
        if slot >= self.k {
            return None;
        }
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
        p.slots[1].remaining = 0.0;
        p.slots[1].completed_at = Some(42.0);
        assert!(p.finished(1));
        assert_eq!(p.done_count(), 1);
        assert_eq!(p.finished_slots(), vec![1]);
        assert!(!p.all_done());
        p.slots[0].remaining = 0.0;
        p.slots[0].completed_at = Some(50.0);
        p.slots[2].remaining = 0.0;
        p.slots[2].completed_at = Some(47.0);
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
    fn swap_order_permutes_positions() {
        let mut p = peer3();
        p.swap_order(0, 2);
        assert_eq!(
            (0..3).map(|pos| p.order(pos)).collect::<Vec<_>>(),
            [2, 0, 1]
        );
        assert_eq!(p.files().collect::<Vec<_>>(), [2, 5, 9], "files stay put");
    }

    #[test]
    fn peer_in_recycled_buffer_equals_new_peer() {
        // A departed class-5 peer's buffer, every field dirty.
        let mut old = Peer::new(1, 3.0, vec![0, 1, 3, 4, 8], vec![4, 3, 2, 1, 0], 0.9);
        for (i, s) in old.slots.iter_mut().enumerate() {
            s.remaining = 0.0;
            s.completed_at = Some(i as f64);
            s.seed_until = Some(99.0);
            s.seed_duration = 7.5;
        }
        old.slots.reserve(16);
        let buf = std::mem::take(&mut old.slots);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        assert!(cap > 5);

        let reused = Peer::in_buffer(buf, 7, 10.0, &[2, 5, 9], &[1, 0, 2], 0.3);
        let fresh = peer3();
        assert_eq!(fresh.slots.capacity(), 3, "a new peer's buffer is exact");
        assert_eq!(reused.slots.as_ptr(), ptr, "the buffer is reused");
        assert_eq!(reused.slots.capacity(), cap);
        assert_eq!(reused.slots.len(), 3);
        for (a, b) in reused.slots.iter().zip(&fresh.slots) {
            assert_eq!(a, b);
        }
        assert_eq!(reused, fresh);
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
