//! Physical addresses and NUCA address decomposition.
//!
//! The L2 in the paper is a NUCA: a line's *initial* placement is derived
//! from its address — the low-order bits of the cache tag pick the cluster,
//! the low-order bits of the index pick the bank within the cluster, and
//! the remaining index bits pick the set within the bank (paper §4.2.2).
//! Once lines migrate, the cluster can no longer be derived from the
//! address, so cluster tag arrays track locations explicitly; only the
//! *intra-bank* mapping (bank-relative set) stays address-derived.
//!
//! [`L2Map`] encapsulates this decomposition for a given L2 geometry.

use core::fmt;

use crate::id::{BankId, ClusterId};

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u64);

impl Address {
    /// The cache-line address containing this byte, for `line_bytes`-byte
    /// lines (`line_bytes` must be a power of two, so this is a shift).
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for Address {
    fn from(value: u64) -> Self {
        Address(value)
    }
}

/// A cache-line address: the byte address divided by the line size.
///
/// All cache and coherence bookkeeping works at line granularity; using a
/// distinct type from [`Address`] prevents shifted and unshifted addresses
/// from being mixed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte address of this line, for `line_bytes`-byte lines.
    #[inline]
    pub fn byte_address(self, line_bytes: u64) -> Address {
        Address(self.0 * line_bytes)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ln:0x{:x}", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for LineAddr {
    fn from(value: u64) -> Self {
        LineAddr(value)
    }
}

/// Address decomposition for a NUCA L2 of `clusters × banks_per_cluster ×
/// sets_per_bank × ways` lines.
///
/// Bit layout of a [`LineAddr`], low to high:
///
/// ```text
/// | bank-in-cluster | set-in-bank | home cluster | tag ... |
/// ```
///
/// The "home cluster" field is the low-order bits of the cache tag in the
/// paper's terminology (everything above the index is tag; the cluster
/// field is its bottom slice).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct L2Map {
    clusters: u32,
    banks_per_cluster: u32,
    sets_per_bank: u32,
    bank_bits: u32,
    set_bits: u32,
    cluster_bits: u32,
}

impl L2Map {
    /// Creates a decomposition for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any of the three arguments is zero or not a power of two
    /// (the decomposition is a bit-field split).
    pub fn new(clusters: u32, banks_per_cluster: u32, sets_per_bank: u32) -> Self {
        for (what, v) in [
            ("clusters", clusters),
            ("banks_per_cluster", banks_per_cluster),
            ("sets_per_bank", sets_per_bank),
        ] {
            assert!(
                v > 0 && v.is_power_of_two(),
                "{what} must be a nonzero power of two, got {v}"
            );
        }
        Self {
            clusters,
            banks_per_cluster,
            sets_per_bank,
            bank_bits: banks_per_cluster.trailing_zeros(),
            set_bits: sets_per_bank.trailing_zeros(),
            cluster_bits: clusters.trailing_zeros(),
        }
    }

    /// Number of clusters in the decomposition.
    #[inline]
    pub const fn clusters(&self) -> u32 {
        self.clusters
    }

    /// Number of banks per cluster.
    #[inline]
    pub const fn banks_per_cluster(&self) -> u32 {
        self.banks_per_cluster
    }

    /// Number of sets per bank.
    #[inline]
    pub const fn sets_per_bank(&self) -> u32 {
        self.sets_per_bank
    }

    /// The cluster a line is *initially* placed in (low-order tag bits).
    #[inline]
    pub fn home_cluster(&self, line: LineAddr) -> ClusterId {
        let shifted = line.0 >> (self.bank_bits + self.set_bits);
        ClusterId((shifted as u32 & (self.clusters - 1)) as u16)
    }

    /// The bank within *any* cluster that the line maps to (low-order index
    /// bits). Migration moves lines between clusters but a line always
    /// occupies the same bank slot and set within whichever cluster holds
    /// it, so the tag array only needs to record the cluster.
    #[inline]
    pub fn bank_in_cluster(&self, line: LineAddr) -> u32 {
        (line.0 & u64::from(self.banks_per_cluster - 1)) as u32
    }

    /// The set within the bank (middle index bits).
    #[inline]
    pub fn set_in_bank(&self, line: LineAddr) -> u32 {
        ((line.0 >> self.bank_bits) & u64::from(self.sets_per_bank - 1)) as u32
    }

    /// The tag that must be stored to disambiguate lines sharing a set
    /// (everything above bank+set bits; includes the home-cluster bits,
    /// since after migration a set may hold lines of any home cluster).
    #[inline]
    pub fn tag(&self, line: LineAddr) -> u64 {
        line.0 >> (self.bank_bits + self.set_bits)
    }

    /// Reconstructs the line address from its decomposition. Inverse of
    /// ([`tag`](Self::tag), [`set_in_bank`](Self::set_in_bank),
    /// [`bank_in_cluster`](Self::bank_in_cluster)).
    #[inline]
    pub fn compose(&self, tag: u64, set: u32, bank: u32) -> LineAddr {
        debug_assert!(set < self.sets_per_bank);
        debug_assert!(bank < self.banks_per_cluster);
        LineAddr(
            (tag << (self.bank_bits + self.set_bits))
                | u64::from(set) << self.bank_bits
                | u64::from(bank),
        )
    }

    /// Global bank id for (`cluster`, bank-in-cluster) pairs.
    #[inline]
    pub fn global_bank(&self, cluster: ClusterId, bank_in_cluster: u32) -> BankId {
        debug_assert!(bank_in_cluster < self.banks_per_cluster);
        BankId(cluster.0 as u32 * self.banks_per_cluster + bank_in_cluster)
    }

    /// Splits a global bank id back into (cluster, bank-in-cluster).
    #[inline]
    pub fn split_bank(&self, bank: BankId) -> (ClusterId, u32) {
        (
            ClusterId((bank.0 / self.banks_per_cluster) as u16),
            bank.0 % self.banks_per_cluster,
        )
    }

    /// Total number of banks.
    #[inline]
    pub const fn total_banks(&self) -> u32 {
        self.clusters * self.banks_per_cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_map() -> L2Map {
        // Paper default: 16 clusters × 16 banks × 64 sets (16-way, 64 KB banks).
        L2Map::new(16, 16, 64)
    }

    #[test]
    fn address_to_line_divides_by_line_size() {
        assert_eq!(Address(0x1000).line(64), LineAddr(0x40));
        assert_eq!(Address(0x103f).line(64), LineAddr(0x40));
        assert_eq!(Address(0x1040).line(64), LineAddr(0x41));
    }

    #[test]
    fn line_to_byte_address_round_trips() {
        let line = Address(0xdead_b000).line(64);
        assert_eq!(line.byte_address(64).0, 0xdead_b000 & !63);
    }

    #[test]
    fn decomposition_fields_do_not_overlap() {
        let m = default_map();
        // bank uses bits [0,4), set bits [4,10), cluster bits [10,14).
        #[allow(clippy::unusual_byte_groupings)] // grouped by bank/set/cluster fields
        let line = LineAddr(0b11_0101_110011_1010);
        assert_eq!(m.bank_in_cluster(line), 0b1010);
        assert_eq!(m.set_in_bank(line), 0b110011);
        assert_eq!(m.home_cluster(line), ClusterId(0b0101));
        assert_eq!(m.tag(line), 0b11_0101);
    }

    #[test]
    fn compose_inverts_decomposition() {
        let m = default_map();
        for raw in [0u64, 1, 0x3fff, 0xdead_beef, u64::MAX >> 8] {
            let line = LineAddr(raw);
            let back = m.compose(m.tag(line), m.set_in_bank(line), m.bank_in_cluster(line));
            assert_eq!(back, line);
        }
    }

    #[test]
    fn home_cluster_covers_all_clusters() {
        let m = default_map();
        let mut seen = [false; 16];
        for i in 0..16u64 {
            let line = LineAddr(i << 10); // cluster field starts at bit 10
            seen[m.home_cluster(line).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn global_bank_round_trips() {
        let m = default_map();
        for c in 0..16u16 {
            for b in 0..16u32 {
                let g = m.global_bank(ClusterId(c), b);
                assert_eq!(m.split_bank(g), (ClusterId(c), b));
            }
        }
        assert_eq!(m.total_banks(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_geometry_rejected() {
        let _ = L2Map::new(12, 16, 64);
    }

    #[test]
    fn bigger_caches_shift_cluster_field() {
        // 32 MB: 16 clusters × 32 banks × 64 sets.
        let m = L2Map::new(16, 32, 64);
        assert_eq!(m.total_banks(), 512);
        let line = LineAddr(1 << 11); // cluster bit 0 for this geometry
        assert_eq!(m.home_cluster(line), ClusterId(1));
    }
}
