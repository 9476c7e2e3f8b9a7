//! Packets, flits, and the send/receive interface records.
//!
//! Messages are packetised and broken into *flits* — the unit of transfer
//! whose width equals the link width (paper §2.2). With the default
//! configuration a 64 B cache line travels as one 4-flit packet of 128-bit
//! flits (§3.2); control messages (requests, tag probes, acks) are single
//! head-tail flits.
//!
//! Buffered flits live in one pooled [`FlitArena`]; every router VC and
//! pillar transceiver queue is a bounded [`FlitFifo`] linked through it.

use nim_types::{Coord, Cycle, PacketId, PillarId};

/// Position of a flit within its packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit; carries routing information and allocates VCs.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases VCs and port holds as it drains.
    Tail,
    /// Single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// Whether this flit performs head duties (VC allocation).
    #[inline]
    pub(crate) const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit performs tail duties (resource release).
    #[inline]
    pub(crate) const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// The kind of flit number `seq` in a packet of `len` flits.
    pub(crate) const fn for_position(seq: u32, len: u32) -> FlitKind {
        if len == 1 {
            FlitKind::HeadTail
        } else if seq == 0 {
            FlitKind::Head
        } else if seq + 1 == len {
            FlitKind::Tail
        } else {
            FlitKind::Body
        }
    }
}

/// Coarse message class, used for statistics and energy accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Requests, tag probes, acknowledgements (single-flit).
    Control,
    /// Cache-line data transfers.
    Data,
    /// Cache-line movements caused by the migration policy.
    Migration,
    /// L1 coherence traffic (invalidations, directory updates).
    Coherence,
}

impl TrafficClass {
    /// All classes, in [`index`](Self::index) order.
    #[cfg(test)]
    pub(crate) const ALL: [TrafficClass; 4] = [
        TrafficClass::Control,
        TrafficClass::Data,
        TrafficClass::Migration,
        TrafficClass::Coherence,
    ];

    /// Dense index, in declaration order.
    #[inline]
    pub(crate) const fn index(self) -> usize {
        match self {
            TrafficClass::Control => 0,
            TrafficClass::Data => 1,
            TrafficClass::Migration => 2,
            TrafficClass::Coherence => 3,
        }
    }

    /// Stable lowercase name, used as a trace-event label.
    #[inline]
    pub(crate) const fn name(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::Data => "data",
            TrafficClass::Migration => "migration",
            TrafficClass::Coherence => "coherence",
        }
    }
}

/// One flit in flight.
///
/// Every flit carries the full routing record so routers stay stateless
/// about packets (look-ahead routing computes the output port from the
/// destination on the fly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Packet this flit belongs to.
    pub(crate) pkt: PacketId,
    /// Head/body/tail position.
    pub(crate) kind: FlitKind,
    /// Injecting node.
    pub(crate) src: Coord,
    /// Destination node.
    pub(crate) dst: Coord,
    /// Pillar to ride for inter-layer traversal (the transaction owner's
    /// dedicated pillar); `None` lets routers pick the nearest.
    pub(crate) via: Option<PillarId>,
    /// Message class for statistics.
    pub(crate) class: TrafficClass,
    /// Opaque sender cookie, returned on delivery.
    pub(crate) token: u64,
    /// Cycle the packet was handed to [`Network::send`].
    ///
    /// [`Network::send`]: crate::Network::send
    pub(crate) injected: Cycle,
    /// Cycle this flit last moved (prevents multi-hop teleports within a
    /// single simulated cycle).
    pub(crate) arrived: Cycle,
    /// Router traversals so far (head flit only is meaningful).
    pub(crate) hops: u16,
    /// Cycles spent waiting for dTDMA pillar slots so far (head flit
    /// only is meaningful) — the vertical-arbitration share of latency.
    pub(crate) bus_wait: u32,
}

#[cfg(test)]
impl Flit {
    /// The tests' template flit.
    pub(crate) const VACANT: Flit = Flit {
        pkt: PacketId(u64::MAX),
        kind: FlitKind::HeadTail,
        src: Coord::new(0, 0, 0),
        dst: Coord::new(0, 0, 0),
        via: None,
        class: TrafficClass::Control,
        token: 0,
        injected: Cycle::ZERO,
        arrived: Cycle::ZERO,
        hops: 0,
        bus_wait: 0,
    };
}

/// The link of a slot with nothing after it: the end of the free list.
const NIL: u32 = u32::MAX;

/// Pooled backing store for every flit FIFO in the network.
///
/// One slab of flits with a parallel array of links. A slot is either
/// on one [`FlitFifo`]'s list or on the arena's LIFO free list. A push
/// takes the most recently freed slot and grows the slab only when none
/// is free, so the slab is as long as the most flits ever buffered at
/// once (about 70 in a loaded cell), never what the FIFO capacities
/// could hold (14 464 on the default chip). A hop moves its flit's slot
/// from one FIFO's list to the next, and an ejection frees a slot that
/// the next injection takes back, so the live flits stay within a few
/// hot kilobytes.
#[derive(Clone, Debug)]
pub(crate) struct FlitArena {
    slots: Vec<Flit>,
    /// `next[s]`: the slot after `s` on its FIFO or on the free list.
    next: Vec<u32>,
    /// Most recently freed slot, or [`NIL`].
    free: u32,
}

impl Default for FlitArena {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }
}

impl FlitArena {
    /// Stores `flit` in a free slot, or in a new one, and returns it.
    #[inline]
    pub(crate) fn take(&mut self, flit: Flit) -> u32 {
        let s = self.free;
        if s == NIL {
            return self.grow(flit);
        }
        self.free = self.next[s as usize];
        self.slots[s as usize] = flit;
        s
    }

    #[cold]
    fn grow(&mut self, flit: Flit) -> u32 {
        // Invariant: the slab holds at most the sum of the FIFO capacities.
        let s = u32::try_from(self.slots.len()).expect("flit slab exceeds u32 slots");
        self.slots.push(flit);
        self.next.push(NIL);
        s
    }

    /// Puts slot `s` on the free list.
    #[inline]
    pub(crate) fn release(&mut self, s: u32) {
        self.next[s as usize] = self.free;
        self.free = s;
    }

    /// The flit in slot `s`.
    #[inline]
    pub(crate) fn flit(&self, s: u32) -> &Flit {
        &self.slots[s as usize]
    }

    /// The flit in slot `s`, to update in place while the slot moves
    /// from one FIFO to another.
    #[inline]
    pub(crate) fn flit_mut(&mut self, s: u32) -> &mut Flit {
        &mut self.slots[s as usize]
    }

    /// Slots in the slab, live or free.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Asserts that `fifos` and the free list partition the slab: every
    /// slot is on exactly one of their lists, and the live slots number
    /// the FIFOs' total length.
    ///
    /// # Panics
    ///
    /// Panics on a slot on two lists or on none.
    pub(crate) fn check_partition<'a>(&self, fifos: impl IntoIterator<Item = &'a FlitFifo>) {
        let mut seen = vec![false; self.slots.len()];
        let mut mark = |s: u32, what: &str| {
            let i = s as usize;
            assert!(
                i < seen.len() && !seen[i],
                "slab slot {s} on a {what}: past the slab, or on another list"
            );
            seen[i] = true;
        };
        let mut live = 0;
        for q in fifos {
            let mut s = q.head;
            for _ in 0..q.len {
                mark(s, "FIFO");
                s = self.next[s as usize];
            }
            live += q.len();
        }
        let mut free = 0;
        let mut s = self.free;
        while s != NIL {
            mark(s, "free list");
            s = self.next[s as usize];
            free += 1;
        }
        // No slot was marked twice, so this also puts every slot on a list.
        assert_eq!(self.slots.len() - free, live, "live slab slots");
    }
}

/// A bounded flit FIFO: a linked list through the [`FlitArena`] slab.
///
/// It owns no storage: an injection's push takes an arena slot, an
/// ejection frees one, and a move between FIFOs relinks the slot
/// ([`unlink_front`](Self::unlink_front), [`link_back`](Self::link_back)),
/// so an empty FIFO costs nothing beyond this record. `cap` bounds
/// the list, so back-pressure is exactly that of a fixed buffer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlitFifo {
    /// Slot of the oldest flit; meaningful while `len > 0`.
    head: u32,
    /// Slot of the newest flit; meaningful while `len > 0`.
    tail: u32,
    cap: u16,
    len: u16,
}

impl FlitFifo {
    /// Creates an empty FIFO of `cap` flits.
    pub(crate) fn new(cap: usize) -> Self {
        assert!((1..=1 << 14).contains(&cap), "unreasonable FIFO depth");
        Self {
            head: NIL,
            tail: NIL,
            cap: cap as u16,
            len: 0,
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }

    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        usize::from(self.cap)
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.len == self.cap
    }

    /// Appends a flit: a slot from [`FlitArena::take`], then
    /// [`link_back`](Self::link_back) — the tests' shorthand.
    ///
    /// # Panics
    ///
    /// Panics (debug) when full.
    #[cfg(test)]
    pub(crate) fn push_back(&mut self, arena: &mut FlitArena, flit: Flit) {
        let s = arena.take(flit);
        self.link_back(arena, s);
    }

    /// Appends the flit in slot `s`, which is on no list: one
    /// [`unlink_front`](Self::unlink_front) took it off another FIFO, so
    /// a move relinks the slot and copies no flit.
    ///
    /// # Panics
    ///
    /// Panics (debug) when full.
    #[inline]
    pub(crate) fn link_back(&mut self, arena: &mut FlitArena, s: u32) {
        debug_assert!(!self.is_full(), "push into full flit FIFO");
        if self.len == 0 {
            self.head = s;
        } else {
            arena.next[self.tail as usize] = s;
        }
        self.tail = s;
        self.len += 1;
    }

    /// The oldest queued flit, if any.
    #[inline]
    pub(crate) fn front<'a>(&self, arena: &'a FlitArena) -> Option<&'a Flit> {
        if self.len == 0 {
            None
        } else {
            Some(&arena.slots[self.head as usize])
        }
    }

    /// Drops the oldest queued flit and frees its slot:
    /// [`unlink_front`](Self::unlink_front), then
    /// [`FlitArena::release`] — the tests' shorthand.
    ///
    /// # Panics
    ///
    /// Panics (debug) when empty.
    #[cfg(test)]
    pub(crate) fn advance(&mut self, arena: &mut FlitArena) {
        let s = self.unlink_front(arena);
        arena.release(s);
    }

    /// Takes the oldest queued flit's slot off this FIFO without freeing
    /// it, for [`link_back`](Self::link_back) into another FIFO. The
    /// slot keeps its flit; until it is linked again it is on no list.
    ///
    /// # Panics
    ///
    /// Panics (debug) when empty.
    #[inline]
    pub(crate) fn unlink_front(&mut self, arena: &FlitArena) -> u32 {
        debug_assert!(!self.is_empty(), "unlink from an empty flit FIFO");
        let s = self.head;
        self.head = arena.next[s as usize];
        self.len -= 1;
        s
    }
}

/// A request to inject one packet into the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendRequest {
    /// Injecting node (must host the sender's network interface).
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// Pillar to ride for any inter-layer traversal.
    pub via: Option<PillarId>,
    /// Message class.
    pub class: TrafficClass,
    /// Packet length in flits (≥ 1).
    pub flits: u32,
    /// Opaque cookie returned on delivery.
    pub token: u64,
}

/// A packet that reached its destination's local port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivered {
    /// Packet id assigned by [`Network::send`].
    ///
    /// [`Network::send`]: crate::Network::send
    pub packet: PacketId,
    /// Injecting node.
    pub src: Coord,
    /// Destination node (where it was delivered).
    pub dst: Coord,
    /// Message class.
    pub class: TrafficClass,
    /// Sender cookie.
    pub token: u64,
    /// Cycle the packet was handed to the network.
    pub injected: Cycle,
    /// Cycle the tail flit left the destination router.
    pub delivered: Cycle,
    /// Router/bus traversals of the head flit.
    pub hops: u16,
    /// Cycles the head flit spent waiting for dTDMA pillar slots —
    /// receivers split [`Delivered::latency`] into horizontal hop time
    /// and vertical arbitration wait.
    pub bus_wait: u32,
}

impl Delivered {
    /// End-to-end packet latency in cycles (injection to tail ejection).
    #[inline]
    pub fn latency(&self) -> u64 {
        self.delivered - self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_kind_positions() {
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::HeadTail);
        assert_eq!(FlitKind::for_position(0, 4), FlitKind::Head);
        assert_eq!(FlitKind::for_position(1, 4), FlitKind::Body);
        assert_eq!(FlitKind::for_position(2, 4), FlitKind::Body);
        assert_eq!(FlitKind::for_position(3, 4), FlitKind::Tail);
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    fn traffic_class_indices_are_dense() {
        for (i, c) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn flit_fifo_wraps_and_respects_capacity() {
        let mut arena = FlitArena::default();
        let mut q = FlitFifo::new(2);
        let mut f = Flit::VACANT;
        assert!(q.is_empty() && !q.is_full());
        assert_eq!(q.capacity(), 2);
        for round in 0..5u64 {
            f.token = round;
            q.push_back(&mut arena, f);
            f.token = round + 100;
            q.push_back(&mut arena, f);
            assert!(q.is_full());
            assert_eq!(q.len(), 2);
            assert_eq!(q.front(&arena).unwrap().token, round);
            q.advance(&mut arena);
            assert_eq!(q.front(&arena).unwrap().token, round + 100);
            q.advance(&mut arena);
            assert_eq!(q.front(&arena), None);
        }
        assert_eq!(arena.slab_len(), 2, "freed slots are reused");
        arena.check_partition([&q]);
    }

    #[test]
    fn arena_windows_are_disjoint() {
        let mut arena = FlitArena::default();
        let mut a = FlitFifo::new(4);
        let mut b = FlitFifo::new(4);
        let mut f = Flit::VACANT;
        for i in 0..3 {
            f.token = i;
            a.push_back(&mut arena, f);
            f.token = 10 + i;
            b.push_back(&mut arena, f);
        }
        for i in 0..3 {
            assert_eq!(a.front(&arena).unwrap().token, i);
            assert_eq!(b.front(&arena).unwrap().token, 10 + i);
            arena.check_partition([&a, &b]);
            a.advance(&mut arena);
            b.advance(&mut arena);
        }
        assert!(a.is_empty() && b.is_empty());
        arena.check_partition([&a, &b]);
    }

    /// Seeded push / advance / move scripts over FIFOs of several
    /// capacities on one arena, each FIFO checked against a `VecDeque`
    /// after every step, and the slab never longer than the most flits
    /// ever live: a move relinks a slot and allocates nothing.
    #[test]
    fn flit_fifos_sharing_one_pool_match_vecdeques() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::VecDeque;

        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = FlitArena::default();
            let mut fifos: Vec<FlitFifo> = [1, 2, 3, 4, 4, 7].map(FlitFifo::new).to_vec();
            let mut oracle = vec![VecDeque::new(); fifos.len()];
            let (mut live, mut peak) = (0, 0);
            let mut f = Flit::VACANT;
            for step in 0..4_000u64 {
                let (i, j) = (
                    rng.random_range(0..fifos.len()),
                    rng.random_range(0..fifos.len()),
                );
                if i != j && rng.random_bool(0.2) && !fifos[i].is_empty() && !fifos[j].is_full() {
                    // A hop: the front's slot moves on, nothing is freed.
                    let s = fifos[i].unlink_front(&arena);
                    fifos[j].link_back(&mut arena, s);
                    let moved = oracle[i].pop_front();
                    oracle[j].extend(moved);
                }
                let (q, o) = (&mut fifos[i], &mut oracle[i]);
                // Pushes lead while `step` is in the first half of each
                // 1 000, advances in the second: the pool fills and drains.
                let push = rng.random_bool(if step % 1_000 < 500 { 0.7 } else { 0.3 });
                if push && !q.is_full() {
                    f.token = step;
                    q.push_back(&mut arena, f);
                    o.push_back(f);
                    live += 1;
                    peak = usize::max(peak, live);
                } else if !push && !q.is_empty() {
                    q.advance(&mut arena);
                    o.pop_front();
                    live -= 1;
                }
                for (q, o) in fifos.iter().zip(&oracle) {
                    assert_eq!(q.front(&arena), o.front(), "seed {seed} step {step}");
                    assert_eq!(q.len(), o.len(), "seed {seed} step {step}");
                    assert_eq!(q.is_full(), o.len() == q.capacity());
                }
                assert_eq!(arena.slab_len(), peak, "seed {seed} step {step}");
            }
            assert!(peak > 10, "seed {seed}: the script fills the FIFOs");
            arena.check_partition(&fifos);
        }
    }

    #[test]
    fn delivered_latency() {
        let d = Delivered {
            packet: PacketId(1),
            src: Coord::new(0, 0, 0),
            dst: Coord::new(1, 0, 0),
            class: TrafficClass::Control,
            token: 0,
            injected: Cycle(10),
            delivered: Cycle(25),
            hops: 2,
            bus_wait: 3,
        };
        assert_eq!(d.latency(), 15);
    }
}
