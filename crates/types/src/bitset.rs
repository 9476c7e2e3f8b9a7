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

    /// How many 64-id words the set spans: the bound of a word walk.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Removes and returns word `w`, the members `64 * w ..= 64 * w + 63`
    /// as bits — the draining walk a phase uses while it re-inserts ids
    /// into the same set: `for w in 0..set.word_count()` takes each word
    /// once and visits its bits lowest first, so the members come out in
    /// ascending order, and an id inserted into a word already taken
    /// stays for the next walk.
    #[inline]
    pub fn take_word(&mut self, w: usize) -> u64 {
        let word = std::mem::take(&mut self.words[w]);
        // Without POPCNT a count is a dozen instructions; skip it for an
        // empty word.
        if word != 0 {
            self.len -= word.count_ones();
        }
        word
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
        let mut s = IdSet::new(200);
        for id in [70, 5, 199, 64, 6] {
            s.insert(id);
        }
        let mut seen = Vec::new();
        for w in 0..s.word_count() {
            let mut word = s.take_word(w);
            while word != 0 {
                let id = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                seen.push(id);
                // Behind the walk in this word (5), in this word's own
                // taken bits (70), and a word already walked (6).
                s.insert(5);
                if id == 70 {
                    s.insert(70);
                    s.insert(6);
                }
            }
        }
        assert_eq!(seen, [5, 6, 64, 70, 199], "ascending, each once");
        assert_eq!(s.iter().collect::<Vec<_>>(), [5, 6, 70]);
        assert_eq!(s.len, 3, "len counts the re-inserted ids exactly");
        assert_eq!(s.take_word(1), 1 << (70 - 64));
        assert_eq!(s.len, 2);
        assert_eq!(s.take_word(3), 0, "an empty word takes nothing");
        assert_eq!(s.len, 2);
        assert_eq!(s.word_count(), 4, "200 ids span four words");
    }
}
