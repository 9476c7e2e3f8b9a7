//! Clusters: groups of banks with a shared tag array (paper §4.1).
//!
//! Each cluster contains a set of cache banks and a separate tag array
//! covering every line in the cluster. Because a line's bank slot and set
//! are fixed by its address (only the *cluster* varies under migration),
//! the tag array lookup is exactly one set probe in one bank.

use nim_types::addr::L2Map;
use nim_types::{ClusterId, LineAddr};

use crate::bank::{Bank, Inserted};

/// One cluster of banks plus its tag array.
#[derive(Clone, Debug)]
pub struct Cluster {
    id: ClusterId,
    banks: Vec<Bank>,
}

impl Cluster {
    /// Creates an empty cluster for the given L2 geometry.
    pub fn new(id: ClusterId, map: &L2Map, ways: u32) -> Self {
        Self {
            id,
            banks: (0..map.banks_per_cluster())
                .map(|_| Bank::new(map.sets_per_bank(), ways))
                .collect(),
        }
    }

    /// This cluster's id.
    #[inline]
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Marks `line` most-recently used (on a hit).
    pub fn touch(&mut self, map: &L2Map, line: LineAddr) {
        let bank = map.bank_in_cluster(line) as usize;
        let set = map.set_in_bank(line);
        self.banks[bank].touch(set, line);
    }

    /// Inserts `line`, evicting the pseudo-LRU victim of its set if full.
    pub fn insert(&mut self, map: &L2Map, line: LineAddr) -> Inserted {
        let bank = map.bank_in_cluster(line) as usize;
        let set = map.set_in_bank(line);
        self.banks[bank].insert(set, line)
    }

    /// Removes `line`; returns whether it was present.
    pub fn remove(&mut self, map: &L2Map, line: LineAddr) -> bool {
        let bank = map.bank_in_cluster(line) as usize;
        let set = map.set_in_bank(line);
        self.banks[bank].remove(set, line)
    }

    /// Lines resident in this cluster.
    pub fn occupancy(&self) -> usize {
        self.banks.iter().map(Bank::occupancy).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::L2Config;

    fn cluster() -> (L2Map, Cluster) {
        let l2 = L2Config::default();
        let map = l2.map();
        (map, Cluster::new(ClusterId(3), &map, l2.ways))
    }

    /// The tag-array probe: the one set of the one bank `line` maps to.
    fn contains(cl: &Cluster, map: &L2Map, line: LineAddr) -> bool {
        let bank = &cl.banks[map.bank_in_cluster(line) as usize];
        bank.lookup(map.set_in_bank(line), line).is_some()
    }

    #[test]
    fn insert_contains_remove_round_trip() {
        let (map, mut cl) = cluster();
        let line = LineAddr(0xdead);
        assert!(!contains(&cl, &map, line));
        cl.insert(&map, line);
        assert!(contains(&cl, &map, line));
        assert_eq!(cl.occupancy(), 1);
        assert!(cl.remove(&map, line));
        assert!(!contains(&cl, &map, line));
    }

    #[test]
    fn lines_land_in_their_address_mapped_bank() {
        let (map, mut cl) = cluster();
        // Two lines differing only in bank bits must not conflict even in
        // the same set position.
        let a = LineAddr(0b0000);
        let b = LineAddr(0b0001);
        cl.insert(&map, a);
        cl.insert(&map, b);
        assert!(contains(&cl, &map, a) && contains(&cl, &map, b));
        assert_eq!(cl.occupancy(), 2);
    }

    #[test]
    fn conflict_misses_evict_within_one_set() {
        let (map, mut cl) = cluster();
        // 17 lines mapping to the same (bank 0, set 0) slot of a 16-way set:
        // stride = one full cluster of index space (2^10 lines).
        let stride = 1u64 << 10;
        let mut evicted = None;
        for i in 0..17u64 {
            let ins = cl.insert(&map, LineAddr(i * stride * 16)); // keep cluster field stable
            if ins.evicted.is_some() {
                evicted = ins.evicted;
            }
        }
        assert!(evicted.is_some(), "17th line must evict from a 16-way set");
        assert_eq!(cl.occupancy(), 16);
    }

    #[test]
    fn id_is_preserved() {
        let (_, cl) = cluster();
        assert_eq!(cl.id(), ClusterId(3));
    }
}
