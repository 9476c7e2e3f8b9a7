//! Small-integer sets as bitmaps.
//!
//! The simulator's per-cycle work lists (routers with buffered flits,
//! nodes with packets pending injection, buses with queued flits) and
//! the directory's sharer lists are sets over a small fixed universe
//! that must be visited in ascending id order. A bitmap gives that order
//! for free — no membership flags beside a list, no per-cycle sort, no
//! allocation — and inserting an id twice is idempotent.

/// Iterates the set bit positions of `m`, lowest first.
#[inline]
pub fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            return None;
        }
        let b = m.trailing_zeros() as usize;
        m &= m - 1;
        Some(b)
    })
}

/// A set of ids below a fixed bound, iterated in ascending order.
#[derive(Clone, Debug, Default)]
pub struct IdSet {
    words: Vec<u64>,
    len: u32,
}

impl IdSet {
    /// An empty set over the ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
        }
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`; a no-op when it is already a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    #[inline]
    pub fn insert(&mut self, id: usize) {
        let (word, bit) = (&mut self.words[id >> 6], 1u64 << (id & 63));
        self.len += u32::from(*word & bit == 0);
        *word |= bit;
    }

    /// Whether `id` is a member.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words[id >> 6] & (1 << (id & 63)) != 0
    }

    /// The members, ascending.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| bits(word).map(move |b| (w << 6) + b))
    }

    /// Removes and returns the smallest member `>= from` — the draining
    /// walk a phase uses while it re-inserts ids into the same set:
    /// `while let Some(id) = set.take_next(at) { at = id + 1; … }` visits
    /// the members in ascending order, and an id inserted behind the
    /// cursor stays for the next walk.
    #[inline]
    pub fn take_next(&mut self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut w = from >> 6;
        let mut word = *self.words.get(w)? & (!0 << (from & 63));
        while word == 0 {
            w += 1;
            word = *self.words.get(w)?;
        }
        let b = word.trailing_zeros() as usize;
        self.words[w] &= !(1 << b);
        self.len -= 1;
        Some((w << 6) + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_ascending_and_dedups() {
        let mut s = IdSet::new(200);
        assert!(s.is_empty());
        for id in [130, 3, 64, 3, 199, 63] {
            s.insert(id);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 63, 64, 130, 199]);
        assert!(s.contains(64) && !s.contains(65));
    }

    #[test]
    fn draining_keeps_reinserted_ids_for_the_next_pass() {
        let mut s = IdSet::new(128);
        s.insert(5);
        s.insert(70);
        let (mut seen, mut at) = (Vec::new(), 0);
        while let Some(id) = s.take_next(at) {
            at = id + 1;
            seen.push(id);
            s.insert(5);
        }
        assert_eq!(seen, [5, 70]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [5]);
        assert_eq!(s.take_next(6), None);
        assert_eq!(s.take_next(200), None, "past the universe");
    }
}
