//! A flat open-addressing map keyed by [`LineAddr`], for the per-line
//! tables that live for a whole run (the L2's away map, the engine's
//! last-accessor map).
//!
//! Keys and values sit in two parallel vectors, so a slot costs
//! 8 + `size_of::<V>()` bytes (10 bytes for a `u16` id) where a
//! `HashMap` entry costs its padded `(K, V)` pair plus a control byte.
//! Lookups probe linearly from the key's home slot, a multiply-shift
//! (Fibonacci) hash of the key, and the table keeps Robin Hood order: a
//! resident never sits further from its home than a key that displaced
//! it. Removal shifts the rest of the run back one slot instead of
//! leaving a tombstone, so a map that sees many inserts and removes at
//! a steady size never fills up with dead slots and never has to grow:
//! once [`LineMap::reserve`] has sized it, it keeps its capacity for as
//! long as it holds no more lines than reserved.
//!
//! An empty slot holds the key `u64::MAX`. A [`LineAddr`] is a byte
//! address shifted right by the line bits, so it never takes that value.
//!
//! ```
//! use nim_types::{LineAddr, LineMap};
//!
//! let mut away: LineMap<u16> = LineMap::default();
//! assert_eq!(away.insert(LineAddr(0xbeef), 3), None);
//! assert_eq!(away.get(LineAddr(0xbeef)), Some(3));
//! assert_eq!(away.remove(LineAddr(0xbeef)), Some(3));
//! assert!(away.is_empty());
//! ```

use core::fmt;

use crate::LineAddr;

/// The key an empty slot holds; no line address takes it.
const EMPTY: u64 = u64::MAX;

/// 2^64 over the golden ratio: the multiplier of Fibonacci hashing.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slots in the smallest table.
const MIN_SLOTS: usize = 8;

/// A map from [`LineAddr`] to a small `Copy` value, by linear probing
/// in Robin Hood order with backward-shift deletion (no tombstones).
/// It holds at most 7/8 of its slots and doubles when an insert would
/// pass that.
#[derive(Clone, Default)]
pub struct LineMap<V> {
    /// Each slot's key, [`EMPTY`] when the slot is free. The length is
    /// zero or a power of two of at least [`MIN_SLOTS`].
    keys: Vec<u64>,
    /// Each slot's value; meaningful only where the key is not empty.
    vals: Vec<V>,
    /// Occupied slots.
    len: usize,
    /// `64 − log2(slots)`: the home slot is the hash's top bits.
    shift: u32,
}

impl<V: Copy + Default> LineMap<V> {
    /// Lines held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no line.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lines the map holds before an insert must grow it.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.keys.len() / 8 * 7
    }

    /// Sizes the table, once, to hold `additional` more lines than it
    /// does now without growing.
    pub fn reserve(&mut self, additional: usize) {
        let want = self.len.saturating_add(additional);
        if want > self.capacity() {
            self.rehash(slots_for(want));
        }
    }

    /// The value stored for `line`.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<V> {
        match self.find(line.0) {
            Ok(i) => Some(self.vals[i]),
            Err(_) => None,
        }
    }

    /// Stores `val` for `line`, returning the value it replaces.
    ///
    /// # Panics
    ///
    /// Panics if `line` is `LineAddr(u64::MAX)`, the empty-slot key no
    /// line address takes.
    pub fn insert(&mut self, line: LineAddr, val: V) -> Option<V> {
        assert_ne!(line.0, EMPTY, "the empty-slot key is not a line");
        let mut at = match self.find(line.0) {
            Ok(i) => return Some(core::mem::replace(&mut self.vals[i], val)),
            Err(at) => at,
        };
        if self.len >= self.capacity() {
            self.rehash(slots_for(self.len + 1));
            at = self.vacancy(line.0);
        }
        self.place(at, line.0, val);
        self.len += 1;
        None
    }

    /// Removes `line`, returning its value. The run after its slot
    /// shifts back one place, up to an empty slot or a line already in
    /// its home slot.
    pub fn remove(&mut self, line: LineAddr) -> Option<V> {
        let mut i = self.find(line.0).ok()?;
        let val = self.vals[i];
        let mask = self.mask();
        loop {
            let next = (i + 1) & mask;
            let key = self.keys[next];
            if key == EMPTY || self.home(key) == next {
                self.keys[i] = EMPTY;
                break;
            }
            self.keys[i] = key;
            self.vals[i] = self.vals[next];
            i = next;
        }
        self.len -= 1;
        Some(val)
    }

    /// Every `(line, value)` pair, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, V)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (LineAddr(*k), *v))
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len().wrapping_sub(1)
    }

    /// The slot `key` hashes to.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    /// How far slot `i` sits past the home slot of `key`.
    #[inline]
    fn distance(&self, key: u64, i: usize) -> usize {
        i.wrapping_sub(self.home(key)) & self.mask()
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)` where an insert of it
    /// belongs: the first empty slot, or the first resident closer to its
    /// own home than the probe has walked (Robin Hood order puts `key`
    /// before neither). A table with no slots answers `Err(0)`.
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        if self.keys.is_empty() {
            return Err(0);
        }
        let mask = self.mask();
        let mut i = self.home(key);
        let mut walked = 0;
        loop {
            let here = self.keys[i];
            if here == EMPTY {
                return Err(i);
            }
            if here == key {
                return Ok(i);
            }
            if self.distance(here, i) < walked {
                return Err(i);
            }
            i = (i + 1) & mask;
            walked += 1;
        }
    }

    /// Where an insert of `key`, known absent, belongs.
    fn vacancy(&self, key: u64) -> usize {
        match self.find(key) {
            Ok(i) | Err(i) => i,
        }
    }

    /// Puts `key` at slot `at`; each resident it displaces moves on
    /// along its own probe, until one lands in an empty slot (the table
    /// must have one).
    fn place(&mut self, mut at: usize, mut key: u64, mut val: V) {
        let mask = self.mask();
        loop {
            key = core::mem::replace(&mut self.keys[at], key);
            val = core::mem::replace(&mut self.vals[at], val);
            if key == EMPTY {
                return;
            }
            // The displaced resident takes the next slot that is empty
            // or holds a resident closer to its home than it would be.
            let mut walked = self.distance(key, at);
            loop {
                at = (at + 1) & mask;
                walked += 1;
                let here = self.keys[at];
                if here == EMPTY || self.distance(here, at) < walked {
                    break;
                }
            }
        }
    }

    /// Moves every line into a fresh table of `slots` slots.
    fn rehash(&mut self, slots: usize) {
        let keys = core::mem::replace(&mut self.keys, vec![EMPTY; slots]);
        let vals = core::mem::replace(&mut self.vals, vec![V::default(); slots]);
        self.shift = 64 - slots.trailing_zeros();
        for (key, val) in keys.into_iter().zip(vals) {
            if key != EMPTY {
                let at = self.vacancy(key);
                self.place(at, key, val);
            }
        }
    }
}

/// The fewest slots, a power of two and at least [`MIN_SLOTS`], whose
/// 7/8 holds `lines`: the least power of two ≥ 8·lines/7.
fn slots_for(lines: usize) -> usize {
    let least = lines.saturating_add(lines.div_ceil(7));
    least.max(MIN_SLOTS).next_power_of_two()
}

impl<V: Copy + Default + fmt::Debug> fmt::Debug for LineMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `n`-th of a stream of distinct pseudo-random lines
    /// (splitmix64, shifted clear of the empty-slot key).
    fn line(n: u64) -> LineAddr {
        let mut z = n.wrapping_add(1).wrapping_mul(GOLDEN);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        LineAddr((z ^ (z >> 31)) >> 6)
    }

    /// Checks the Robin Hood order over the whole table: every resident
    /// is reached from its home without crossing an empty slot, and no
    /// resident sits further from home than the one after it plus one.
    fn assert_robin_hood(m: &LineMap<u32>) {
        let slots = m.keys.len();
        for i in 0..slots {
            let key = m.keys[i];
            if key == EMPTY {
                continue;
            }
            let d = m.distance(key, i);
            for back in 1..=d {
                assert_ne!(
                    m.keys[(i + slots - back) % slots],
                    EMPTY,
                    "gap before slot {i}"
                );
            }
            let next = m.keys[(i + 1) % slots];
            if next != EMPTY {
                assert!(
                    m.distance(next, (i + 1) % slots) <= d + 1,
                    "slot {i} out of order"
                );
            }
        }
        assert_eq!(m.iter().count(), m.len());
    }

    #[test]
    fn a_reserved_map_at_a_steady_size_never_grows() {
        // Filled to 7/8 of its 2 048 slots: the most it holds unmoved.
        const LIVE: usize = 1792;
        let mut m: LineMap<u32> = LineMap::default();
        m.reserve(LIVE);
        let capacity = m.capacity();
        assert_eq!(capacity, LIVE);
        let (mut live, mut next) = (Vec::new(), 0u64);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..100_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if live.len() < LIVE && (live.is_empty() || !rng.is_multiple_of(4)) {
                assert_eq!(m.insert(line(next), next as u32), None);
                live.push(next);
                next += 1;
            } else {
                let n = live.swap_remove((rng >> 8) as usize % live.len());
                assert_eq!(m.remove(line(n)), Some(n as u32));
            }
            assert_eq!(m.len(), live.len());
        }
        assert_eq!(m.capacity(), capacity, "the map grew");
        assert_robin_hood(&m);
        assert!(live.iter().all(|&n| m.get(line(n)) == Some(n as u32)));
    }

    #[test]
    fn keys_sharing_a_home_slot_and_wrapping_runs_stay_findable() {
        let mut m: LineMap<u32> = LineMap::default();
        m.reserve(7);
        assert_eq!(m.keys.len(), 8);
        // Lines whose home is the last slot: their run wraps to slot 0.
        let last: Vec<LineAddr> = (0..)
            .map(line)
            .filter(|l| m.home(l.0) == 7)
            .take(4)
            .collect();
        for (v, &l) in last.iter().enumerate() {
            assert_eq!(m.insert(l, v as u32), None);
        }
        assert_robin_hood(&m);
        assert_eq!(m.keys[0], last[1].0, "the run wrapped");
        assert_eq!(m.remove(last[0]), Some(0));
        assert_robin_hood(&m);
        for (v, &l) in last.iter().enumerate().skip(1) {
            assert_eq!(m.get(l), Some(v as u32));
        }
        assert_eq!(m.keys[7], last[1].0, "the run shifted back");
    }

    #[test]
    fn growth_keeps_every_line() {
        let mut m: LineMap<u32> = LineMap::default();
        for n in 0..10_000u64 {
            m.insert(line(n), n as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.capacity(), 14_336, "16 384 slots");
        assert_robin_hood(&m);
        assert!((0..10_000u64).all(|n| m.get(line(n)) == Some(n as u32)));
        assert_eq!(m.get(line(10_000)), None);
    }

    #[test]
    fn the_empty_key_is_never_found() {
        let mut m: LineMap<u32> = LineMap::default();
        assert_eq!(m.get(LineAddr(EMPTY)), None);
        m.insert(LineAddr(1), 1);
        assert_eq!(m.get(LineAddr(EMPTY)), None);
        assert_eq!(m.remove(LineAddr(EMPTY)), None);
    }

    #[test]
    fn slots_for_is_the_least_power_of_two_that_holds_the_lines() {
        for lines in 0..5000 {
            let s = slots_for(lines);
            assert!(s.is_power_of_two() && s >= MIN_SLOTS && s / 8 * 7 >= lines);
            assert!(s == MIN_SLOTS || s / 16 * 7 < lines, "{lines} lines → {s}");
        }
        assert_eq!(slots_for(35_840), 65_536);
    }
}
