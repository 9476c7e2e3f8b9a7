//! The timed queue behind both of [`SimFabric`]'s queues — timed events
//! and modeled deliveries — as a timing wheel.
//!
//! Every delay the engine schedules is a small bounded integer (Table 4:
//! 4-cycle tag, 5-cycle bank, 1-cycle router, 260-cycle memory), so the
//! queue is a ring of [`SPAN`] per-cycle FIFO buckets instead of a heap:
//! key `k` lives in bucket `k % SPAN` while `base <= k < base + SPAN`,
//! and push and pop are a few loads and stores whatever the queue holds.
//! Keys beyond the window (the DRAM tail under queueing, a saturated
//! `u64::MAX`) wait in a sorted overflow.
//!
//! **Order.** Items pop by `(due, seq)` exactly as they did from the
//! heap this replaces. Two rules give that: every bucket is a FIFO, and
//! the overflow is emptied into the ring *whenever the window slides* —
//! so by the time a key can be pushed into a bucket directly, every
//! older entry with that key is already in the bucket ahead of it.
//!
//! [`SimFabric`]: crate::fabric::SimFabric

use std::collections::VecDeque;

/// Cycles the ring covers (a power of two): the 260-cycle DRAM latency
/// with room for channel queueing on top.
const SPAN: u64 = 512;
const BUCKETS: usize = SPAN as usize;
const WORDS: usize = BUCKETS / 64;
/// The null slab index: an empty bucket, the end of a list.
const NIL: u32 = u32::MAX;

/// One entry of the slab. A free slot keeps only `next`.
#[derive(Debug)]
struct Slot<T> {
    seq: u64,
    /// The next entry of the same bucket, or the next free slot.
    next: u32,
    item: Option<T>,
}

/// One cycle's FIFO, as the slab indices of its ends.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A timed queue: items pop in due-cycle order, same-cycle items in
/// push order (a sequence number breaks the tie). Serves both the
/// timed-event queue and the modeled fabrics' delivery queue.
#[derive(Debug)]
pub(crate) struct DueQueue<T> {
    /// Storage of every ring entry: memory follows the live item count,
    /// not the bucket count. Buckets and the free list thread through it.
    slab: Vec<Slot<T>>,
    /// Head of the free-slot list.
    free: u32,
    buckets: [Bucket; BUCKETS],
    /// Bit `b` is set while bucket `b` holds an entry.
    occupied: [u64; WORDS],
    /// The ring holds the keys `base .. base + SPAN`; no entry is
    /// earlier than `base`.
    base: u64,
    /// Entries due at `base + SPAN` or later, ascending by `(due, seq)`.
    overflow: VecDeque<(u64, u64, T)>,
    /// Due cycle of the earliest entry; `u64::MAX` when there is none.
    earliest: u64,
    len: usize,
    /// Sequence number of the latest push (the first push gets 1).
    seq: u64,
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        Self {
            slab: Vec::new(),
            free: NIL,
            buckets: [Bucket {
                head: NIL,
                tail: NIL,
            }; BUCKETS],
            occupied: [0; WORDS],
            base: 0,
            overflow: VecDeque::new(),
            earliest: u64::MAX,
            len: 0,
            seq: 0,
        }
    }
}

impl<T> DueQueue<T> {
    /// Queues `item(seq)` for cycle `due`, where `seq` is the sequence
    /// number this push is handed.
    pub(crate) fn push(&mut self, due: u64, item: impl FnOnce(u64) -> T) {
        self.seq += 1;
        let seq = self.seq;
        if due < self.base {
            self.rebase(due);
        }
        self.insert(due, seq, item(seq));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The due cycle of the earliest queued item.
    #[cfg(test)]
    pub(crate) fn next_due(&self) -> Option<u64> {
        (self.len != 0).then_some(self.earliest)
    }

    /// Pops the earliest item if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.earliest > now || self.len == 0 {
            return None;
        }
        Some(self.pop_entry().2)
    }

    /// Files one entry behind every queued entry with the same `due`.
    fn insert(&mut self, due: u64, seq: u64, item: T) {
        self.len += 1;
        self.earliest = self.earliest.min(due);
        if due - self.base >= SPAN {
            let at = self.overflow.partition_point(|e| e.0 <= due);
            self.overflow.insert(at, (due, seq, item));
            return;
        }
        let slot = Slot {
            seq,
            next: NIL,
            item: Some(item),
        };
        let ix = match self.free {
            NIL => {
                self.slab.push(slot);
                u32::try_from(self.slab.len() - 1).expect("timed queue outgrew u32 indices")
            }
            ix => {
                let reused = &mut self.slab[ix as usize];
                self.free = reused.next;
                *reused = slot;
                ix
            }
        };
        let b = (due % SPAN) as usize;
        let bucket = &mut self.buckets[b];
        if bucket.head == NIL {
            bucket.head = ix;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.slab[bucket.tail as usize].next = ix;
        }
        bucket.tail = ix;
    }

    /// Removes the earliest entry of a non-empty queue, sliding the
    /// window up to its key. Inlined into `pop_due`: called, it hands
    /// the item back through one more copy.
    #[inline]
    fn pop_entry(&mut self) -> (u64, u64, T) {
        let due = self.earliest;
        if due != self.base {
            // Nothing is queued below `due`, so the window may start
            // there; what it now covers of the overflow moves in first.
            self.base = due;
            while self.overflow.front().is_some_and(|e| e.0 - due < SPAN) {
                let (d, seq, item) = self.overflow.pop_front().expect("front exists");
                self.len -= 1;
                self.insert(d, seq, item);
            }
        }
        let b = (due % SPAN) as usize;
        let bucket = &mut self.buckets[b];
        let ix = bucket.head;
        let slot = &mut self.slab[ix as usize];
        let item = slot.item.take().expect("a linked slot holds an item");
        let seq = slot.seq;
        bucket.head = std::mem::replace(&mut slot.next, self.free);
        self.free = ix;
        self.len -= 1;
        if bucket.head == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
            // Ring positions ascend with the key, circularly from the
            // window's start — which is this bucket.
            self.earliest = match self.next_occupied(b) {
                Some(p) => due + (p.wrapping_sub(b) % BUCKETS) as u64,
                None => self.overflow.front().map_or(u64::MAX, |e| e.0),
            };
        }
        (due, seq, item)
    }

    /// The first occupied bucket at or circularly after `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        // `from`'s own word is looked at twice: first its bits from
        // `from` up, last — a full turn later — the ones below.
        let mut bits = self.occupied[from / 64] & (!0 << (from % 64));
        for turn in 0..=WORDS {
            let word = (from / 64 + turn) % WORDS;
            if turn > 0 {
                bits = self.occupied[word];
            }
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Lowers the window to start at `due`, for a push below the base.
    /// The simulator pushes `now + delay` and the base trails `now`, so
    /// it never gets here; tests that pump a queue by hand may at any
    /// time.
    #[cold]
    fn rebase(&mut self, due: u64) {
        let mut entries = Vec::with_capacity(self.len);
        while self.len > 0 {
            entries.push(self.pop_entry());
        }
        self.base = due;
        for (d, seq, item) in entries {
            self.insert(d, seq, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The binary heap the wheel replaced, kept as the oracle: the same
    /// four operations, `(due, seq)` order by construction.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
        seq: u64,
    }

    impl HeapQueue {
        /// The item is the sequence number: it names the entry.
        fn push(&mut self, due: u64) {
            self.seq += 1;
            self.heap.push(Reverse((due, self.seq, self.seq)));
        }

        fn next_due(&self) -> Option<u64> {
            self.heap.peek().map(|e| e.0 .0)
        }

        fn pop_due(&mut self, now: u64) -> Option<u64> {
            if self.next_due()? > now {
                return None;
            }
            self.heap.pop().map(|e| e.0 .2)
        }

        /// Every entry as `(due, seq, item)`, ascending.
        fn entries(&self) -> Vec<(u64, u64, u64)> {
            let mut entries: Vec<_> = self.heap.iter().map(|e| e.0).collect();
            entries.sort_unstable();
            entries
        }
    }

    /// Every entry of the wheel as `(due, seq, item)`, in the order the
    /// buckets and the overflow hold them — ascending when the wheel
    /// keeps its order invariant.
    fn entries(q: &DueQueue<u64>) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        for off in 0..SPAN {
            // Past `u64::MAX` the sum wraps onto buckets that are empty.
            let due = q.base.wrapping_add(off);
            let mut ix = q.buckets[(due % SPAN) as usize].head;
            while ix != NIL {
                let slot = &q.slab[ix as usize];
                out.push((
                    due,
                    slot.seq,
                    slot.item.expect("a linked slot holds an item"),
                ));
                ix = slot.next;
            }
        }
        out.extend(q.overflow.iter().copied());
        out
    }

    /// Every delay class the engine can produce, as distances from `now`:
    /// same-cycle, the Table 4 constants, both sides of the ring's edge,
    /// far beyond it, and the saturated key.
    const DELAYS: [u64; 10] = [
        0,
        1,
        4,
        5,
        260,
        SPAN - 1,
        SPAN,
        SPAN + 1,
        10 * SPAN,
        u64::MAX,
    ];

    /// The wheel and the oracle, driven in lockstep.
    struct Pair {
        wheel: DueQueue<u64>,
        heap: HeapQueue,
        now: u64,
        /// Every key pushed so far, for pushes that aim at one again.
        keys: Vec<u64>,
    }

    impl Pair {
        fn at(now: u64) -> Self {
            Self {
                wheel: DueQueue::default(),
                heap: HeapQueue::default(),
                now,
                keys: Vec::new(),
            }
        }

        fn agree(&self) {
            assert_eq!(self.wheel.next_due(), self.heap.next_due());
            assert_eq!(self.wheel.is_empty(), self.heap.heap.is_empty());
            assert_eq!(self.wheel.len, self.heap.heap.len());
        }

        fn push(&mut self, delay: u64) {
            let due = self.now.saturating_add(delay);
            self.wheel.push(due, |seq| seq);
            self.heap.push(due);
            self.keys.push(due);
            self.agree();
        }

        /// Pushes to one of the last eight keys again, if it is still
        /// ahead: an entry that went to the overflow meets one pushed
        /// straight into the bucket the window has since slid over.
        fn push_again(&mut self, pick: usize) {
            let recent = &self.keys[self.keys.len().saturating_sub(8)..];
            if let Some(delay) = recent
                .get(pick % 8)
                .and_then(|due| due.checked_sub(self.now))
            {
                self.push(delay);
            }
        }

        /// Moves the clock and pops everything due, as the run loop
        /// does; `during` lists delays to push right after each pop, the
        /// way a handler schedules from inside the drain.
        fn drain(&mut self, advance: u64, during: &[u64]) {
            self.now = self.now.saturating_add(advance);
            let mut during = during.iter();
            loop {
                let (got, want) = (self.wheel.pop_due(self.now), self.heap.pop_due(self.now));
                assert_eq!(got, want, "pop at cycle {}", self.now);
                self.agree();
                if got.is_none() {
                    break;
                }
                if let Some(&delay) = during.next() {
                    self.push(delay);
                }
            }
        }

        fn entries_agree(&self) {
            assert_eq!(entries(&self.wheel), self.heap.entries());
            assert_eq!(self.wheel.seq, self.heap.seq);
        }

        fn finish(mut self) {
            self.entries_agree();
            self.now = u64::MAX;
            self.drain(0, &[]);
            assert!(self.wheel.is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn wheel_matches_the_heap_on_random_scripts(
            start in 0usize..3,
            script in proptest::collection::vec((0u8..12, 0usize..10, any::<u16>()), 0..120),
        ) {
            let mut p = Pair::at([0, 1 << 40, u64::MAX - 40_000][start]);
            for (op, pick, amount) in script {
                let amount = u64::from(amount);
                // In-drain pushes: up to three, the first one same-cycle
                // half of the time.
                let during = [DELAYS[pick] * (amount % 2), DELAYS[pick], DELAYS[(pick + 3) % 10]];
                let during = &during[..(amount % 4) as usize];
                match op {
                    0..=3 => p.push(DELAYS[pick]),
                    4 | 5 => p.push_again(pick),
                    6 => p.drain(1, during),
                    7 => p.drain(amount % 8, during),
                    // An idle gap longer than the span, then a push.
                    8 => {
                        p.drain(SPAN + amount, &[]);
                        p.push(DELAYS[pick]);
                    }
                    // Drain up to one cycle short of the next due key,
                    // so the following op lands exactly on it.
                    9 => {
                        let to = p.wheel.next_due().map_or(p.now, |due| due.saturating_sub(1));
                        p.drain(to.saturating_sub(p.now), during);
                    }
                    _ => p.entries_agree(),
                }
            }
            p.finish();
        }
    }

    #[test]
    fn a_migrated_entry_stays_ahead_of_a_later_push_to_its_bucket() {
        let mut p = Pair::at(0);
        p.push(SPAN + 88); // beyond the window: overflow
        p.push(100);
        p.drain(100, &[]); // the window slides to 100 and now covers it
        assert!(p.wheel.overflow.is_empty(), "migrated on the slide");
        p.push(SPAN - 12); // 100 + 500: the same key, pushed directly
        p.entries_agree();
        p.drain(SPAN - 12, &[]);
        assert!(p.wheel.is_empty());
    }

    #[test]
    fn a_push_below_the_window_base_lowers_it() {
        let mut p = Pair::at(2000);
        p.push(5);
        p.push(9);
        p.push(SPAN + 700);
        p.drain(5, &[]);
        assert_eq!((p.wheel.base, p.wheel.overflow.len()), (2005, 1));
        // A test pumping by hand may schedule from an earlier clock.
        p.now = 1000;
        p.push(3);
        assert_eq!(p.wheel.base, 1003);
        assert_eq!(
            p.wheel.overflow.len(),
            2,
            "both are beyond the lowered window"
        );
        p.entries_agree();
        p.finish();
    }

    #[test]
    fn an_idle_gap_longer_than_the_span_is_crossed_on_the_next_pop() {
        let mut p = Pair::at(0);
        p.push(1);
        p.drain(1, &[]);
        p.drain(20 * SPAN, &[]);
        p.push(4); // far beyond the stale window: waits in the overflow
        assert_eq!(p.wheel.overflow.len(), 1);
        p.drain(3, &[]);
        p.drain(1, &[0, 0]);
        assert!(p.wheel.is_empty());
        assert_eq!(p.wheel.slab.len(), 1, "freed slots are reused");
    }

    #[test]
    fn a_saturated_key_parks_until_the_end_of_time() {
        let mut p = Pair::at(77);
        p.push(u64::MAX);
        p.push(260);
        p.drain(10 * SPAN, &[u64::MAX]);
        assert_eq!(p.wheel.next_due(), Some(u64::MAX));
        p.finish();
    }
}
