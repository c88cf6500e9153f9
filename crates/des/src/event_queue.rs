//! Indexed future-event queue: a binary min-heap holding exactly one entry
//! per armed per-peer deadline.
//!
//! The seed engine found the next event by scanning every peer's pending
//! completion and expiry deadline on every iteration — O(peers) per event.
//! This queue replaces the scan with a binary heap keyed on event time, so
//! selection is O(log n).
//!
//! Each key — a (peer, slot) completion or a peer's expiry — owns at most
//! one entry, and a position map records where it sits in the heap. A
//! deadline change therefore updates the entry in place ([`EventQueue::schedule`],
//! [`EventQueue::advance`]) and a departure removes it
//! ([`EventQueue::remove`]); nothing superseded is ever left behind to be
//! discarded at the top.
//!
//! The engine keeps one deliberate laziness: when a completion *slows
//! down* it only records the later deadline on the peer, so the entry's
//! key becomes a lower bound of the true deadline. When such an entry
//! reaches the top, the engine re-keys it in place
//! ([`EventQueue::rekey_top`]) before deciding what fires next. Because
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
    /// Slab index of the peer the event belongs to, or the group id for
    /// [`RANK_AGG`].
    pub peer: u32,
    /// Slot index (completions only; 0 otherwise).
    pub slot: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Deterministic total order: time, then completions before
        // expiries before groups, then peer/slot so equal-time events pop
        // in a reproducible sequence regardless of heap internals.
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
/// entry per `(rank, peer, slot)` key.
#[derive(Debug)]
pub struct EventQueue {
    heap: Vec<Entry>,
    /// Heap position of each completion key, at `peer · stride + slot`.
    comp_pos: Vec<u32>,
    /// Heap position of each peer's expiry key, at `peer`.
    expiry_pos: Vec<u32>,
    /// Completion slots per peer (the largest class).
    stride: usize,
}

impl EventQueue {
    /// Creates an empty queue for peers with at most `slots` completion
    /// slots each.
    pub fn new(slots: usize) -> Self {
        Self {
            heap: Vec::new(),
            comp_pos: Vec::new(),
            expiry_pos: Vec::new(),
            stride: slots.max(1),
        }
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

    /// Arms `e`'s key at exactly `e.time`: inserts it, or moves the
    /// existing entry in place, up or down. An unchanged time is free.
    pub fn schedule(&mut self, e: Entry) {
        match self.find(&e) {
            None => self.insert(e),
            Some(i) => {
                let old = self.heap[i].time;
                if old.to_bits() == e.time.to_bits() {
                    return;
                }
                self.heap[i].time = e.time;
                if e.time < old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Arms `e`'s key no later than `e.time`: inserts it, or moves the
    /// existing entry earlier in place. An entry already keyed at or before
    /// `e.time` is left alone — its key stays a lower bound.
    pub fn advance(&mut self, e: Entry) {
        match self.find(&e) {
            None => self.insert(e),
            Some(i) => {
                if e.time < self.heap[i].time {
                    self.heap[i].time = e.time;
                    self.sift_up(i);
                }
            }
        }
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

    /// Disarms a key, returning its entry if it had one.
    pub fn remove(&mut self, rank: u8, peer: u32, slot: u32) -> Option<Entry> {
        // The probe's time plays no part in the lookup.
        let key = Entry {
            time: 0.0,
            rank,
            peer,
            slot,
        };
        self.find(&key).map(|i| self.remove_at(i))
    }

    /// Structural audit: the heap order holds and the position map points
    /// each entry back at its own heap index, with no other key marked
    /// present. O(entries + map size).
    pub fn check(&self) -> Result<(), String> {
        for (i, e) in self.heap.iter().enumerate() {
            if i > 0 && *e < self.heap[(i - 1) / 2] {
                return Err(format!("heap order broken at index {i}"));
            }
            if self.find(e) != Some(i) {
                return Err(format!(
                    "position map of (rank {}, peer {}, slot {}) does not point at index {i}",
                    e.rank, e.peer, e.slot
                ));
            }
        }
        let mapped = self
            .comp_pos
            .iter()
            .chain(&self.expiry_pos)
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

    fn pos_index(&self, rank: u8, peer: u32, slot: u32) -> usize {
        debug_assert!(rank != RANK_AGG, "group deadlines do not enter the heap");
        if rank == RANK_COMPLETION {
            debug_assert!((slot as usize) < self.stride);
            peer as usize * self.stride + slot as usize
        } else {
            peer as usize
        }
    }

    /// Heap index of `e`'s key, if armed.
    fn find(&self, e: &Entry) -> Option<usize> {
        let i = self.pos_index(e.rank, e.peer, e.slot);
        let map = if e.rank == RANK_COMPLETION {
            &self.comp_pos
        } else {
            &self.expiry_pos
        };
        map.get(i).filter(|&&p| p != ABSENT).map(|&p| p as usize)
    }

    fn set_pos(&mut self, e: &Entry, pos: u32) {
        let i = self.pos_index(e.rank, e.peer, e.slot);
        let v = if e.rank == RANK_COMPLETION {
            &mut self.comp_pos
        } else {
            &mut self.expiry_pos
        };
        if i >= v.len() {
            v.resize(i + 1, ABSENT);
        }
        v[i] = pos;
    }

    fn insert(&mut self, e: Entry) {
        self.heap.push(e);
        self.sift_up(self.heap.len() - 1);
    }

    fn remove_at(&mut self, i: usize) -> Entry {
        let e = self.heap.swap_remove(i);
        self.set_pos(&e, ABSENT);
        if i < self.heap.len() {
            // The former last entry now sits at `i`: it can belong above or
            // below that position.
            if i > 0 && self.heap[i] < self.heap[(i - 1) / 2] {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        e
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if e >= p {
                break;
            }
            self.heap[i] = p;
            self.set_pos(&p, i as u32);
            i = parent;
        }
        self.heap[i] = e;
        self.set_pos(&e, i as u32);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let c = if right < n && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            let child = self.heap[c];
            if child >= e {
                break;
            }
            self.heap[i] = child;
            self.set_pos(&child, i as u32);
            i = c;
        }
        self.heap[i] = e;
        self.set_pos(&e, i as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    fn entry(time: f64, rank: u8, peer: u32, slot: u32) -> Entry {
        Entry {
            time,
            rank,
            peer,
            slot,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(1);
        q.schedule(entry(3.0, RANK_EXPIRY, 0, 0));
        q.schedule(entry(1.0, RANK_EXPIRY, 1, 0));
        q.schedule(entry(2.0, RANK_COMPLETION, 2, 0));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_on_rank_then_peer() {
        let mut q = EventQueue::new(1);
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
        let mut q = EventQueue::new(2);
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
        let mut q = EventQueue::new(2);
        for p in 0..6 {
            q.schedule(entry(p as f64, RANK_COMPLETION, p, 0));
            q.schedule(entry(p as f64, RANK_EXPIRY, p, 0));
        }
        assert_eq!(
            q.remove(RANK_COMPLETION, 3, 0),
            Some(entry(3.0, RANK_COMPLETION, 3, 0))
        );
        assert_eq!(q.remove(RANK_COMPLETION, 3, 0), None);
        assert_eq!(q.remove(RANK_COMPLETION, 3, 1), None);
        assert_eq!(q.len(), 11);
        assert!(q.entries().contains(&entry(3.0, RANK_EXPIRY, 3, 0)));
        q.check().unwrap();
    }

    #[test]
    fn rekey_top_sinks_the_root() {
        let mut q = EventQueue::new(1);
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
            let mut q = EventQueue::new(SLOTS as usize);
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
                        let removed = q.remove(rank, peer, slot);
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
