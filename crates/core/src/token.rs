//! Message tokens and timed events.
//!
//! Every packet the system puts on the network carries a 64-bit token
//! identifying what should happen when it arrives. [`Token`] packs a
//! message kind and its payload (transaction id, cluster, or line
//! address) into the cookie; [`TimedEvent`] is the non-network companion
//! for fixed-latency steps (tag probes, bank accesses, memory fetches).

use nim_noc::TrafficClass;
use nim_types::{ClusterId, Coord, LineAddr};

use crate::txn::TxnId;

/// Decoded message token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Token {
    /// Tag-array probe for a transaction, aimed at one cluster.
    Probe { txn: TxnId, cluster: ClusterId },
    /// Tag broadcast riding the pillar: one packet probes the whole
    /// search-step disc on the destination layer (paper §4.2.1 — "all the
    /// vertically neighboring clusters receive the tag that is broadcast
    /// through the pillar").
    VerticalProbe {
        txn: TxnId,
        /// Layer whose clusters are probed.
        layer: u8,
        /// Search step the probe belongs to (selects the cluster set).
        step: u8,
    },
    /// A probed tag array reports a miss back to the requester.
    ProbeMiss { txn: TxnId },
    /// Forwarded request travelling from a tag array to the serving bank.
    BankFetch { txn: TxnId },
    /// Data packet from the serving bank back to the requesting CPU.
    DataToCpu { txn: TxnId },
    /// A probed tag array tells a writing CPU where the line lives.
    FoundForWrite { txn: TxnId, cluster: ClusterId },
    /// Write-through store data from the CPU to the serving bank.
    WriteData { txn: TxnId },
    /// Store acknowledgement from the bank back to the CPU.
    WriteAck { txn: TxnId },
    /// A migrating cache line moving between banks.
    MigrationMove { line: LineAddr },
    /// L1 invalidation (coherence or L2 eviction).
    Invalidate { line: LineAddr },
    /// A read-only replica copy travelling to its new cluster
    /// (replication extension).
    ReplicaFill { line: LineAddr, cluster: ClusterId },
    /// An L2 miss travelling to a memory controller.
    MemRequest { line: LineAddr },
    /// A line fetched from DRAM travelling from a memory controller to
    /// its home bank.
    MemFill { line: LineAddr },
}

const KIND_SHIFT: u32 = 56;
const PAYLOAD_MASK: u64 = (1 << KIND_SHIFT) - 1;

impl Token {
    /// Packs the token into a packet cookie.
    pub(crate) fn encode(self) -> u64 {
        let (kind, payload): (u64, u64) = match self {
            Token::Probe { txn, cluster } => (0, u64::from(txn) | (u64::from(cluster.0) << 32)),
            Token::ProbeMiss { txn } => (1, u64::from(txn)),
            Token::BankFetch { txn } => (2, u64::from(txn)),
            Token::DataToCpu { txn } => (3, u64::from(txn)),
            Token::FoundForWrite { txn, cluster } => {
                (4, u64::from(txn) | (u64::from(cluster.0) << 32))
            }
            Token::WriteData { txn } => (5, u64::from(txn)),
            Token::WriteAck { txn } => (6, u64::from(txn)),
            Token::MigrationMove { line } => (7, line.0),
            Token::Invalidate { line } => (8, line.0),
            Token::VerticalProbe { txn, layer, step } => (
                9,
                u64::from(txn) | (u64::from(layer) << 32) | (u64::from(step) << 40),
            ),
            Token::ReplicaFill { line, cluster } => {
                debug_assert!(line.0 < (1 << 40), "line address too large for token");
                (10, line.0 | (u64::from(cluster.0) << 40))
            }
            Token::MemRequest { line } => (11, line.0),
            Token::MemFill { line } => (12, line.0),
        };
        debug_assert!(payload <= PAYLOAD_MASK, "token payload overflow");
        (kind << KIND_SHIFT) | payload
    }

    /// The transaction this token belongs to, if it carries one (the
    /// line-scoped tokens — migrations, invalidations, replica and
    /// memory traffic — serve no single transaction; their network time
    /// lands in the waiters' memory-wait bucket or in no bucket at all).
    pub(crate) fn txn_id(self) -> Option<TxnId> {
        match self {
            Token::Probe { txn, .. }
            | Token::VerticalProbe { txn, .. }
            | Token::ProbeMiss { txn }
            | Token::BankFetch { txn }
            | Token::DataToCpu { txn }
            | Token::FoundForWrite { txn, .. }
            | Token::WriteData { txn }
            | Token::WriteAck { txn } => Some(txn),
            Token::MigrationMove { .. }
            | Token::Invalidate { .. }
            | Token::ReplicaFill { .. }
            | Token::MemRequest { .. }
            | Token::MemFill { .. } => None,
        }
    }

    /// The packet each kind travels as — the protocol's whole packet
    /// vocabulary (paper §4.2, Table 4): its traffic class, and whether it
    /// carries a cache line (`data_packet_flits` long) or is one
    /// tag/control flit.
    pub(crate) fn shape(self) -> (TrafficClass, bool) {
        match self {
            Token::Probe { .. }
            | Token::VerticalProbe { .. }
            | Token::ProbeMiss { .. }
            | Token::BankFetch { .. }
            | Token::FoundForWrite { .. }
            | Token::WriteAck { .. }
            | Token::MemRequest { .. } => (TrafficClass::Control, false),
            Token::DataToCpu { .. }
            | Token::WriteData { .. }
            | Token::ReplicaFill { .. }
            | Token::MemFill { .. } => (TrafficClass::Data, true),
            Token::MigrationMove { .. } => (TrafficClass::Migration, true),
            Token::Invalidate { .. } => (TrafficClass::Coherence, false),
        }
    }

    /// Unpacks a packet cookie; `None` for an unknown kind tag.
    pub(crate) fn decode(raw: u64) -> Option<Token> {
        let kind = raw >> KIND_SHIFT;
        let payload = raw & PAYLOAD_MASK;
        let txn = payload as u32;
        let cluster = ClusterId(((payload >> 32) & 0xffff) as u16);
        Some(match kind {
            0 => Token::Probe { txn, cluster },
            1 => Token::ProbeMiss { txn },
            2 => Token::BankFetch { txn },
            3 => Token::DataToCpu { txn },
            4 => Token::FoundForWrite { txn, cluster },
            5 => Token::WriteData { txn },
            6 => Token::WriteAck { txn },
            7 => Token::MigrationMove {
                line: LineAddr(payload),
            },
            8 => Token::Invalidate {
                line: LineAddr(payload),
            },
            9 => Token::VerticalProbe {
                txn,
                layer: ((payload >> 32) & 0xff) as u8,
                step: ((payload >> 40) & 0xff) as u8,
            },
            10 => Token::ReplicaFill {
                line: LineAddr(payload & ((1 << 40) - 1)),
                cluster: ClusterId(((payload >> 40) & 0xffff) as u16),
            },
            11 => Token::MemRequest {
                line: LineAddr(payload),
            },
            12 => Token::MemFill {
                line: LineAddr(payload),
            },
            _ => return None,
        })
    }
}

/// A fixed-latency step that completes at a scheduled cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TimedEvent {
    /// A tag array finished probing for a transaction. `queue` is the
    /// serialization wait the claim charged before the lookup started —
    /// carried here so attribution can split the delay at fire time
    /// (the timeline must never be advanced past `now` at claim time:
    /// a racing serve path could complete first and break the sum
    /// invariant).
    ProbeResolved {
        txn: TxnId,
        cluster: ClusterId,
        queue: u64,
    },
    /// One tag array finished probing a pillar broadcast (fan-out from
    /// the pillar node charged per cluster; the misses of a layer are
    /// aggregated into a single reply). `queue` is the tag claim's
    /// serialization wait, `fanout` the per-hop charge from the pillar
    /// node to the probed cluster.
    VerticalClusterResolved {
        txn: TxnId,
        cluster: ClusterId,
        queue: u64,
        fanout: u64,
    },
    /// The bank at `at` finished a read for the transaction; `queue` is
    /// the combined tag/bank serialization wait of the claims.
    BankReadDone { txn: TxnId, at: Coord, queue: u64 },
    /// The bank at `at` finished a write for the transaction; `queue`
    /// as for [`TimedEvent::BankReadDone`].
    BankWritten { txn: TxnId, at: Coord, queue: u64 },
    /// A memory controller finished a DRAM access; the fill may depart.
    MemoryReady { line: LineAddr, mc: u16 },
    /// The fetched line is installed and ready to serve its waiters.
    MemoryFetched { line: LineAddr },
    /// A migrated line finished writing into its destination bank.
    MigrationDone { line: LineAddr },
    /// A replica copy finished writing into its new cluster's bank.
    ReplicaInstalled { line: LineAddr, cluster: ClusterId },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind round-trips and travels as the packet the protocol's
    /// call sites gave it before the table existed. Each row names the
    /// kind's pinned shape and the next kind's sample, so the exhaustive
    /// match leaves no way to add a kind without a row.
    #[test]
    fn tokens_round_trip() {
        use TrafficClass::{Coherence, Control, Data, Migration};
        let (txn, cluster) = (0xdead_beef, ClusterId(15));
        let line = LineAddr((1 << 40) - 1);
        let row = |t: Token| match t {
            Token::Probe { .. } => (
                (Control, false),
                Some(Token::VerticalProbe {
                    txn: u32::MAX,
                    layer: 7,
                    step: 2,
                }),
            ),
            Token::VerticalProbe { .. } => ((Control, false), Some(Token::ProbeMiss { txn: 7 })),
            Token::ProbeMiss { .. } => ((Control, false), Some(Token::BankFetch { txn })),
            Token::BankFetch { .. } => ((Control, false), Some(Token::DataToCpu { txn: 0 })),
            Token::DataToCpu { .. } => ((Data, true), Some(Token::FoundForWrite { txn, cluster })),
            Token::FoundForWrite { .. } => ((Control, false), Some(Token::WriteData { txn: 1 })),
            Token::WriteData { .. } => ((Data, true), Some(Token::WriteAck { txn: 2 })),
            Token::WriteAck { .. } => ((Control, false), Some(Token::MigrationMove { line })),
            Token::MigrationMove { .. } => ((Migration, true), Some(Token::Invalidate { line })),
            Token::Invalidate { .. } => (
                (Coherence, false),
                Some(Token::ReplicaFill { line, cluster }),
            ),
            Token::ReplicaFill { .. } => ((Data, true), Some(Token::MemRequest { line })),
            Token::MemRequest { .. } => ((Control, false), Some(Token::MemFill { line })),
            Token::MemFill { .. } => ((Data, true), None),
        };
        let mut kinds = Vec::new();
        let mut next = Some(Token::Probe { txn, cluster });
        while let Some(t) = next {
            let (shape, after) = row(t);
            assert_eq!(Token::decode(t.encode()), Some(t), "{t:?}");
            assert_eq!(t.shape(), shape, "{t:?}");
            kinds.push(t.encode() >> KIND_SHIFT);
            next = after;
        }
        kinds.sort_unstable();
        assert_eq!(kinds, (0..13).collect::<Vec<u64>>(), "every kind visited");
    }

    #[test]
    fn corrupt_tokens_are_rejected() {
        assert_eq!(Token::decode(63 << 56), None);
        assert_eq!(Token::decode(13 << 56), None, "the first unused kind");
    }
}
