//! Indexed future-event queue: a binary min-heap holding exactly one entry
//! per armed rate-group completion and per armed peer expiry.
//!
//! The seed engine found the next event by scanning every peer's pending
//! completion and expiry deadline on every iteration — O(peers) per event.
//! This queue replaces the scan with a binary heap keyed on event time, so
//! selection is O(log n).
//!
//! Each key — a rate group's completion or a peer's expiry — owns at most
//! one entry, and a position map records where it sits in the heap. A
//! group's entry is ordered by its head download `(peer, slot)`, so ties
//! break exactly as they would with one entry per download. A deadline
//! change therefore updates the entry in place ([`EventQueue::schedule`],
//! [`EventQueue::advance`]) and an idle group or a departure removes it
//! ([`EventQueue::remove`]); nothing superseded is ever left behind to be
//! discarded at the top.
//!
//! The engine keeps one deliberate laziness: when a group's completion
//! *slows down* with the same head, it only records the later deadline on
//! the group, so the entry's key becomes a lower bound of the true
//! deadline. When such an entry reaches the top, the engine re-keys it in
//! place ([`EventQueue::rekey_top`]) before deciding what fires next. Because
//! every key is a lower bound and the top is re-keyed until it is exact,
//! the dispatched order is the order of the true `(time, rank, peer,
//! slot)` keys.
//!
//! Aggregate group completions never enter this heap: the group cache
//! keeps their deadlines in a dense array with a cached argmin
//! ([`crate::agg`]), and the engine compares that minimum with the heap
//! top under the same [`Entry`] order.

use std::cmp::Ordering;

/// Rank of a download-completion entry (fires before expiries at a tie).
pub const RANK_COMPLETION: u8 = 0;
/// Rank of a seed-expiry / departure entry.
pub const RANK_EXPIRY: u8 = 1;
/// Rank of an aggregate group completion (`Entry::peer` carries the group
/// id). Groups live outside the heap; the rank orders them behind
/// per-peer events at a tie so the tie-break stays deterministic.
pub const RANK_AGG: u8 = 2;

/// Position-map marker of a key with no entry.
const ABSENT: u32 = u32::MAX;

/// One scheduled future event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Absolute simulation time at which the event fires (for a lazily
    /// slowed completion, a lower bound of it).
    pub time: f64,
    /// Tie-break rank: [`RANK_COMPLETION`] before [`RANK_EXPIRY`] before
    /// [`RANK_AGG`].
    pub rank: u8,
    /// Slab index of the peer the event belongs to (for a completion, the
    /// group's head download), or the group id for [`RANK_AGG`].
    pub peer: u32,
    /// Slot index (completions only; 0 otherwise).
    pub slot: u32,
    /// The rate group that owns a [`RANK_COMPLETION`] entry (its key; 0
    /// otherwise). Not part of the order.
    pub group: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Deterministic total order: time, then completions before
        // expiries before groups, then peer/slot so equal-time events pop
        // in a reproducible sequence regardless of heap internals. The
        // group is a key, not an order: one download heads one group.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.rank.cmp(&other.rank))
            .then_with(|| self.peer.cmp(&other.peer))
            .then_with(|| self.slot.cmp(&other.slot))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Indexed min-heap of [`Entry`] values ordered by [`Entry::cmp`], one
/// entry per key: a group id for completions, a peer for expiries.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Entry>,
    pos: Positions,
}

/// The queue's position map: the heap index of each completion key (at
/// the group id) and of each expiry key (at the peer), [`ABSENT`] when
/// unarmed.
#[derive(Debug, Default)]
struct Positions([Vec<u32>; 2]);

impl Positions {
    /// Which map holds `e`'s key, and the key.
    fn key(e: &Entry) -> (usize, usize) {
        debug_assert!(
            e.rank != RANK_AGG,
            "aggregate deadlines do not enter the heap"
        );
        if e.rank == RANK_COMPLETION {
            (0, e.group as usize)
        } else {
            (1, e.peer as usize)
        }
    }

    fn get(&self, e: &Entry) -> Option<usize> {
        let (m, i) = Self::key(e);
        self.0[m]
            .get(i)
            .filter(|&&p| p != ABSENT)
            .map(|&p| p as usize)
    }

    fn set(&mut self, e: &Entry, pos: u32) {
        let (m, i) = Self::key(e);
        let v = &mut self.0[m];
        if i >= v.len() {
            v.resize(i + 1, ABSENT);
        }
        v[i] = pos;
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries (one per armed key).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no key is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The earliest entry.
    pub fn peek(&self) -> Option<Entry> {
        self.heap.first().copied()
    }

    /// Every entry, in heap order.
    pub fn entries(&self) -> &[Entry] {
        &self.heap
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<Entry> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// Arms `e`'s key at exactly `e`: inserts it, or replaces the existing
    /// entry (time and head) in place, moving it up or down. An unchanged
    /// entry is free.
    pub fn schedule(&mut self, e: Entry) {
        match self.pos.get(&e) {
            None => self.insert(e),
            Some(i) => {
                let old = self.heap[i];
                if old.time.to_bits() == e.time.to_bits() && old == e {
                    return;
                }
                self.heap[i] = e;
                if e < old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Arms `e`'s key no later than `e`: inserts it, or moves the existing
    /// entry earlier in place. An entry already ordered at or before `e` is
    /// left alone — its key stays a lower bound.
    pub fn advance(&mut self, e: Entry) {
        match self.pos.get(&e) {
            None => self.insert(e),
            Some(i) => {
                if e < self.heap[i] {
                    self.heap[i] = e;
                    self.sift_up(i);
                }
            }
        }
    }

    /// The entry armed under a key (`id` is the group for completions, the
    /// peer for expiries).
    pub(crate) fn get(&self, rank: u8, id: u32) -> Option<Entry> {
        self.pos.get(&Self::probe(rank, id)).map(|i| self.heap[i])
    }

    /// Re-keys the top entry at the later `time` (its true deadline) and
    /// restores the heap order below it.
    ///
    /// # Panics
    /// Panics on an empty queue.
    pub fn rekey_top(&mut self, time: f64) {
        debug_assert!(time >= self.heap[0].time, "rekey_top moved the top earlier");
        self.heap[0].time = time;
        self.sift_down(0);
    }

    /// Disarms a key (`id` as in `Self::get`), returning its entry if it
    /// had one.
    pub fn remove(&mut self, rank: u8, id: u32) -> Option<Entry> {
        self.pos
            .get(&Self::probe(rank, id))
            .map(|i| self.remove_at(i))
    }

    /// A lookup probe for a key; only its key fields are read.
    fn probe(rank: u8, id: u32) -> Entry {
        Entry {
            time: 0.0,
            rank,
            peer: id,
            slot: 0,
            group: id,
        }
    }

    /// Structural audit: the heap order holds and the position map points
    /// each entry back at its own heap index, with no other key marked
    /// present. O(entries + map size).
    pub fn check(&self) -> Result<(), String> {
        for (i, e) in self.heap.iter().enumerate() {
            if i > 0 && *e < self.heap[(i - 1) / 2] {
                return Err(format!("heap order broken at index {i}"));
            }
            if self.pos.get(e) != Some(i) {
                return Err(format!(
                    "position map of (rank {}, peer {}, slot {}) does not point at index {i}",
                    e.rank, e.peer, e.slot
                ));
            }
        }
        let mapped = self
            .pos
            .0
            .iter()
            .flatten()
            .filter(|&&p| p != ABSENT)
            .count();
        if mapped != self.heap.len() {
            return Err(format!(
                "position map holds {mapped} keys, heap holds {} entries",
                self.heap.len()
            ));
        }
        Ok(())
    }

    fn insert(&mut self, e: Entry) {
        self.heap.push(e);
        self.sift_up(self.heap.len() - 1);
    }

    fn remove_at(&mut self, i: usize) -> Entry {
        let pos = &mut self.pos;
        let e = remove_at(&mut self.heap, i, Entry::lt, &mut |x, p| {
            pos.set(x, p as u32)
        });
        pos.set(&e, ABSENT);
        e
    }

    fn sift_up(&mut self, i: usize) {
        let pos = &mut self.pos;
        sift_up(&mut self.heap, i, Entry::lt, &mut |x, p| {
            pos.set(x, p as u32)
        });
    }

    fn sift_down(&mut self, i: usize) {
        let pos = &mut self.pos;
        sift_down(&mut self.heap, i, Entry::lt, &mut |x, p| {
            pos.set(x, p as u32)
        });
    }
}

// Binary min-heap primitives, shared with the rate groups' mark heaps
// (`crate::rate_cache`): `before` orders two entries, and `placed(e, i)`
// records in the caller's position map that `e` now sits at index `i`.

/// Moves entry `i` up until its parent is not after it.
pub(crate) fn sift_up<T: Copy>(
    heap: &mut [T],
    mut i: usize,
    before: impl Fn(&T, &T) -> bool,
    placed: &mut impl FnMut(&T, usize),
) {
    let e = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if !before(&e, &heap[parent]) {
            break;
        }
        heap[i] = heap[parent];
        placed(&heap[i], i);
        i = parent;
    }
    heap[i] = e;
    placed(&e, i);
}

/// Moves entry `i` down until no child is before it.
pub(crate) fn sift_down<T: Copy>(
    heap: &mut [T],
    mut i: usize,
    before: impl Fn(&T, &T) -> bool,
    placed: &mut impl FnMut(&T, usize),
) {
    let e = heap[i];
    let n = heap.len();
    loop {
        let left = 2 * i + 1;
        if left >= n {
            break;
        }
        let right = left + 1;
        let c = if right < n && before(&heap[right], &heap[left]) {
            right
        } else {
            left
        };
        if !before(&heap[c], &e) {
            break;
        }
        heap[i] = heap[c];
        placed(&heap[i], i);
        i = c;
    }
    heap[i] = e;
    placed(&e, i);
}

/// Removes and returns entry `i`; the caller unmaps it.
pub(crate) fn remove_at<T: Copy>(
    heap: &mut Vec<T>,
    i: usize,
    before: impl Fn(&T, &T) -> bool,
    placed: &mut impl FnMut(&T, usize),
) -> T {
    let e = heap.swap_remove(i);
    if i < heap.len() {
        // The former last entry now sits at `i`: it can belong above or
        // below that position.
        if i > 0 && before(&heap[i], &heap[(i - 1) / 2]) {
            sift_up(heap, i, before, placed);
        } else {
            sift_down(heap, i, before, placed);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    /// The key an entry for `(peer, slot)` is armed under in these tests:
    /// each download heads its own group.
    fn id(rank: u8, peer: u32, slot: u32) -> u32 {
        if rank == RANK_COMPLETION {
            peer * 4 + slot
        } else {
            peer
        }
    }

    fn entry(time: f64, rank: u8, peer: u32, slot: u32) -> Entry {
        Entry {
            time,
            rank,
            peer,
            slot,
            group: if rank == RANK_COMPLETION {
                id(rank, peer, slot)
            } else {
                0
            },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(entry(3.0, RANK_EXPIRY, 0, 0));
        q.schedule(entry(1.0, RANK_EXPIRY, 1, 0));
        q.schedule(entry(2.0, RANK_COMPLETION, 2, 0));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_on_rank_then_peer() {
        let mut q = EventQueue::new();
        q.schedule(entry(5.0, RANK_EXPIRY, 0, 0));
        q.schedule(entry(5.0, RANK_COMPLETION, 9, 0));
        q.schedule(entry(5.0, RANK_COMPLETION, 3, 0));
        let order: Vec<(u8, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.rank, e.peer))
            .collect();
        assert_eq!(
            order,
            vec![(RANK_COMPLETION, 3), (RANK_COMPLETION, 9), (RANK_EXPIRY, 0)]
        );
    }

    #[test]
    fn agg_rank_ties_behind_per_peer_ranks() {
        let mut order = [
            entry(5.0, RANK_AGG, 0, 0),
            entry(5.0, RANK_EXPIRY, 0, 0),
            entry(5.0, RANK_COMPLETION, 0, 0),
        ];
        order.sort();
        let ranks: Vec<u8> = order.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![RANK_COMPLETION, RANK_EXPIRY, RANK_AGG]);
    }

    #[test]
    fn the_same_key_updates_in_place() {
        // One key owns one entry: re-arming it moves that entry instead of
        // adding a second one.
        let mut q = EventQueue::new();
        q.schedule(entry(4.0, RANK_COMPLETION, 7, 1));
        q.schedule(entry(9.0, RANK_EXPIRY, 3, 0));
        q.advance(entry(2.0, RANK_COMPLETION, 7, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some(entry(2.0, RANK_COMPLETION, 7, 1)));
        // `advance` never moves a key later; `schedule` does.
        q.advance(entry(6.0, RANK_COMPLETION, 7, 1));
        assert_eq!(q.peek().unwrap().time, 2.0);
        q.schedule(entry(1.0, RANK_EXPIRY, 3, 0));
        q.schedule(entry(10.0, RANK_COMPLETION, 7, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(entry(1.0, RANK_EXPIRY, 3, 0)));
        assert_eq!(q.pop(), Some(entry(10.0, RANK_COMPLETION, 7, 1)));
        assert!(q.is_empty());
        q.check().unwrap();
    }

    #[test]
    fn remove_disarms_only_its_key() {
        let mut q = EventQueue::new();
        for p in 0..6 {
            q.schedule(entry(p as f64, RANK_COMPLETION, p, 0));
            q.schedule(entry(p as f64, RANK_EXPIRY, p, 0));
        }
        let key = id(RANK_COMPLETION, 3, 0);
        assert_eq!(
            q.remove(RANK_COMPLETION, key),
            Some(entry(3.0, RANK_COMPLETION, 3, 0))
        );
        assert_eq!(q.remove(RANK_COMPLETION, key), None);
        assert_eq!(q.remove(RANK_COMPLETION, id(RANK_COMPLETION, 3, 1)), None);
        assert_eq!(q.len(), 11);
        assert!(q.entries().contains(&entry(3.0, RANK_EXPIRY, 3, 0)));
        q.check().unwrap();
    }

    #[test]
    fn a_group_entry_changes_head_in_place() {
        // A group's entry is keyed by the group and ordered by its head
        // download; a new head replaces both the time and the tie-break.
        let head = |time, peer| Entry {
            time,
            rank: RANK_COMPLETION,
            peer,
            slot: 0,
            group: 5,
        };
        let mut q = EventQueue::new();
        q.schedule(head(4.0, 9));
        q.schedule(entry(4.0, RANK_COMPLETION, 3, 0));
        assert_eq!(q.peek().unwrap().peer, 3);
        q.schedule(head(4.0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(RANK_COMPLETION, 5), Some(head(4.0, 1)));
        assert_eq!(q.pop(), Some(head(4.0, 1)));
        q.check().unwrap();
    }

    #[test]
    fn rekey_top_sinks_the_root() {
        let mut q = EventQueue::new();
        for p in 0..8 {
            q.schedule(entry(p as f64, RANK_EXPIRY, p, 0));
        }
        q.rekey_top(5.5);
        q.check().unwrap();
        let peers: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.peer).collect();
        assert_eq!(peers, vec![1, 2, 3, 4, 5, 0, 6, 7]);
    }

    /// One step of the model-based test; keys index a small key space so
    /// operations collide often, and times are small integers so ties do.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32, u32),
        Earlier(u32, u32),
        Later(u32, u32),
        Exact(u32, u32),
        RekeyTop,
        Cancel(u32),
        Pop,
    }

    const SLOTS: u32 = 3;
    /// Key space: 4 peers × (3 completion slots + 1 expiry).
    const KEYS: u32 = 16;

    fn key(k: u32) -> (u8, u32, u32) {
        let (peer, s) = (k / (SLOTS + 1), k % (SLOTS + 1));
        if s == SLOTS {
            (RANK_EXPIRY, peer, 0)
        } else {
            (RANK_COMPLETION, peer, s)
        }
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..7, 0..KEYS, 0u32..12).prop_map(|(o, k, t)| match o {
            0 => Op::Insert(k, t),
            1 => Op::Earlier(k, t),
            2 => Op::Later(k, t),
            3 => Op::Exact(k, t),
            4 => Op::RekeyTop,
            5 => Op::Cancel(k),
            _ => Op::Pop,
        })
    }

    /// The engine's top resolution: re-key the top in place until its key
    /// equals the true deadline.
    fn resolve_top(q: &mut EventQueue, truth: &HashMap<(u8, u32, u32), u32>) {
        while let Some(e) = q.peek() {
            let due = truth[&(e.rank, e.peer, e.slot)] as f64;
            if e.time < due {
                q.rekey_top(due);
            } else {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert / move-earlier / lazy move-later / exact re-key /
        /// re-key-top / cancel / pop sequences against a `BTreeSet` model
        /// of the true `(time, rank, peer, slot)` keys.
        #[test]
        fn matches_an_ordered_set_model(ops in prop::collection::vec(op(), 1..200)) {
            let mut q = EventQueue::new();
            // True deadline per armed key, and the same keys ordered.
            let mut truth: HashMap<(u8, u32, u32), u32> = HashMap::new();
            let mut model: BTreeSet<(u32, u8, u32, u32)> = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(k, t) | Op::Earlier(k, t) | Op::Later(k, t) | Op::Exact(k, t) => {
                        let (rank, peer, slot) = key(k);
                        let old = truth.get(&(rank, peer, slot)).copied();
                        let t = match (op, old) {
                            (Op::Insert(..), None) | (Op::Exact(..), _) => t,
                            (Op::Earlier(..), Some(d)) if d > 0 => d - 1 - t % d,
                            (Op::Later(..), Some(d)) => d + t,
                            _ => continue,
                        };
                        match op {
                            // Exact re-key, either direction (expiries).
                            Op::Exact(..) => q.schedule(entry(t as f64, rank, peer, slot)),
                            // Lazy slowdown: only the true deadline moves.
                            Op::Later(..) => {}
                            _ => q.advance(entry(t as f64, rank, peer, slot)),
                        }
                        if let Some(d) = old {
                            model.remove(&(d, rank, peer, slot));
                        }
                        truth.insert((rank, peer, slot), t);
                        model.insert((t, rank, peer, slot));
                    }
                    Op::RekeyTop => {
                        if let Some(e) = q.peek() {
                            let due = truth[&(e.rank, e.peer, e.slot)] as f64;
                            if e.time < due {
                                q.rekey_top(due);
                            }
                        }
                    }
                    Op::Cancel(k) => {
                        let (rank, peer, slot) = key(k);
                        let removed = q.remove(rank, id(rank, peer, slot));
                        let old = truth.remove(&(rank, peer, slot));
                        prop_assert_eq!(removed.is_some(), old.is_some());
                        if let Some(d) = old {
                            model.remove(&(d, rank, peer, slot));
                        }
                    }
                    Op::Pop => {
                        resolve_top(&mut q, &truth);
                        let got = q.pop().map(|e| (e.time as u32, e.rank, e.peer, e.slot));
                        let want = model.pop_first();
                        prop_assert_eq!(got, want);
                        if let Some((_, rank, peer, slot)) = want {
                            truth.remove(&(rank, peer, slot));
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                if let Err(e) = q.check() {
                    return Err(TestCaseError::fail(e));
                }
                for e in q.entries() {
                    let due = truth[&(e.rank, e.peer, e.slot)] as f64;
                    prop_assert!(e.time <= due, "key {} above true deadline {due}", e.time);
                }
            }
            // Draining pops the model's order to the end.
            loop {
                resolve_top(&mut q, &truth);
                let got = q.pop().map(|e| (e.time as u32, e.rank, e.peer, e.slot));
                let want = model.pop_first();
                prop_assert_eq!(got, want);
                match want {
                    Some((_, rank, peer, slot)) => {
                        truth.remove(&(rank, peer, slot));
                    }
                    None => break,
                }
            }
        }
    }
}
