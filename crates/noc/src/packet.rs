//! Packets, flits, and the send/receive interface records.
//!
//! Messages are packetised and broken into *flits* — the unit of transfer
//! whose width equals the link width (paper §2.2). With the default
//! configuration a 64 B cache line travels as one 4-flit packet of 128-bit
//! flits (§3.2); control messages (requests, tag probes, acks) are single
//! head-tail flits.

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

impl Flit {
    /// Filler for arena slots no live flit occupies.
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

/// Pooled backing store for every flit FIFO in the network.
///
/// Router VCs and pillar transceiver queues each own a fixed-size window
/// of one contiguous slab, so the per-cycle hot path reads cache-adjacent
/// slots instead of chasing one heap allocation per queue, and bursts
/// never reallocate.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlitArena {
    slots: Vec<Flit>,
}

impl FlitArena {
    /// Reserves `cap` contiguous slots and returns their base index.
    fn alloc(&mut self, cap: usize) -> u32 {
        let base = self.slots.len();
        self.slots.resize(base + cap, Flit::VACANT);
        u32::try_from(base).expect("flit arena exceeds u32 slots")
    }
}

/// A bounded flit FIFO: a ring over a fixed [`FlitArena`] window.
///
/// Ring indices wrap by compare, never by `%`: every index is below
/// `2 × cap`, and a FIFO push or pop sits on the per-flit hot path.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlitFifo {
    base: u32,
    cap: u16,
    head: u16,
    len: u16,
}

impl FlitFifo {
    /// The FIFO of a port that does not exist: zero capacity, no arena
    /// slots, always both empty and full.
    pub(crate) const ABSENT: FlitFifo = FlitFifo {
        base: 0,
        cap: 0,
        head: 0,
        len: 0,
    };

    /// Creates a FIFO of `cap` flits backed by freshly reserved arena
    /// slots.
    pub(crate) fn new(arena: &mut FlitArena, cap: usize) -> Self {
        assert!((1..=1 << 14).contains(&cap), "unreasonable FIFO depth");
        Self {
            base: arena.alloc(cap),
            cap: cap as u16,
            ..Self::ABSENT
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

    /// Arena index of the `i`-th queued flit (`i <= len <= cap`).
    #[inline]
    fn slot(&self, i: u16) -> usize {
        let mut k = self.head + i;
        if k >= self.cap {
            k -= self.cap;
        }
        self.base as usize + usize::from(k)
    }

    /// Appends a flit.
    ///
    /// # Panics
    ///
    /// Panics (debug) when full — callers check
    /// [`is_full`](Self::is_full) first.
    #[inline]
    pub(crate) fn push_back(&mut self, arena: &mut FlitArena, flit: Flit) {
        debug_assert!(!self.is_full(), "push into full flit FIFO");
        let s = self.slot(self.len);
        arena.slots[s] = flit;
        self.len += 1;
    }

    /// The oldest queued flit, if any.
    #[inline]
    pub(crate) fn front<'a>(&self, arena: &'a FlitArena) -> Option<&'a Flit> {
        if self.len == 0 {
            None
        } else {
            Some(&arena.slots[self.slot(0)])
        }
    }

    /// Drops the oldest queued flit — the one the caller already read
    /// through [`front`](Self::front) — without reading the arena again.
    ///
    /// # Panics
    ///
    /// Panics (debug) when empty.
    #[inline]
    pub(crate) fn advance(&mut self) {
        debug_assert!(!self.is_empty(), "advance on an empty flit FIFO");
        self.head += 1;
        if self.head == self.cap {
            self.head = 0;
        }
        self.len -= 1;
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
        let mut q = FlitFifo::new(&mut arena, 2);
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
            q.advance();
            assert_eq!(q.front(&arena).unwrap().token, round + 100);
            q.advance();
            assert_eq!(q.front(&arena), None);
        }
    }

    #[test]
    fn arena_windows_are_disjoint() {
        let mut arena = FlitArena::default();
        let mut a = FlitFifo::new(&mut arena, 4);
        let mut b = FlitFifo::new(&mut arena, 4);
        let mut f = Flit::VACANT;
        f.token = 1;
        a.push_back(&mut arena, f);
        f.token = 2;
        b.push_back(&mut arena, f);
        assert_eq!(a.front(&arena).unwrap().token, 1);
        assert_eq!(b.front(&arena).unwrap().token, 2);
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
