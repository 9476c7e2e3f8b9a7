//! Bounded event ring buffer.

use crate::event::Event;

/// A fixed-capacity ring of trace events.
///
/// When full, the oldest event is overwritten and the dropped counter
/// increments — a long run keeps the most recent window rather than
/// exhausting memory or silently losing the tail.
#[derive(Clone, Debug)]
pub(crate) struct TraceBuffer {
    buf: Vec<Event>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` events (min 1).
    pub(crate) fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            buf: Vec::new(),
            cap: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if full.
    pub(crate) fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// The ring capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates events oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventData;

    fn note(cycle: u64) -> Event {
        Event {
            cycle,
            data: EventData::Note {
                label: format!("e{cycle}"),
            },
        }
    }

    #[test]
    fn wraps_and_counts_drops() {
        let mut ring = TraceBuffer::new(3);
        for c in 0..5 {
            ring.push(note(c));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "keeps the newest window, in order");
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut ring = TraceBuffer::new(8);
        for c in 0..5 {
            ring.push(note(c));
        }
        assert_eq!(ring.len(), 5);
        assert_eq!(ring.dropped(), 0);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }
}
