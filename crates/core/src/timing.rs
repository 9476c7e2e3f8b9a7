//! Contention-aware latency models for the chip's shared resources.
//!
//! Each model owns the busy-until bookkeeping for one resource class —
//! tag arrays, SRAM data banks, DRAM channels — and answers a single
//! question: *if a request claims the resource now, how many cycles
//! until it completes?* Claiming advances the resource's schedule, so
//! back-to-back requests queue exactly like the god-object's old inline
//! `tag_busy`/`bank_busy`/`mc_ready` vectors did. The models know
//! nothing about transactions or the network; [`SimFabric`] wires them
//! into the simulation and the protocol engine reaches them only
//! through the [`Fabric`] trait.
//!
//! [`SimFabric`]: crate::fabric::SimFabric
//! [`Fabric`]: crate::fabric::Fabric

use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, Codec, CodecError};
use nim_types::{ClusterId, Cycle};

/// Cycles between successive probe initiations at one (pipelined) tag
/// array — concurrent searches crowding a cluster's tag array queue up.
pub(crate) const TAG_INITIATION: u64 = 2;

/// A claimed resource's delay, split into the cycles spent queueing
/// behind earlier claimants and the cycles of actual service. The split
/// feeds latency attribution ([`crate::txn::Phase`]); timing-wise only
/// [`ClaimedDelay::total`] matters, and it equals what `claim` returned
/// before the split existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClaimedDelay {
    /// Cycles waiting for the resource's slot (serialization queueing).
    pub queue: u64,
    /// Cycles of service once the slot is held.
    pub service: u64,
}

impl ClaimedDelay {
    /// A zero delay (e.g. a tag check the oracle skips).
    pub const NONE: ClaimedDelay = ClaimedDelay {
        queue: 0,
        service: 0,
    };

    /// Total cycles until the claimed operation completes.
    pub fn total(self) -> u64 {
        self.queue + self.service
    }
}

/// The per-cluster tag arrays (paper §4.1): pipelined lookups that
/// accept one new probe every [`TAG_INITIATION`] cycles.
#[derive(Clone, Debug)]
pub(crate) struct TagArrays {
    /// Cycle until which each cluster's issue slot is occupied.
    busy: Vec<u64>,
    /// Lookup latency once a probe is issued.
    latency: u64,
}

impl TagArrays {
    pub(crate) fn new(clusters: usize, latency: u64) -> Self {
        Self {
            busy: vec![0; clusters],
            latency,
        }
    }

    /// Latency until a tag probe of `cluster` completes, occupying the
    /// array's issue slot, split into queue wait and lookup service.
    pub(crate) fn claim(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay {
        let slot = &mut self.busy[cluster.index()];
        let start = (*slot).max(now.0);
        *slot = start + TAG_INITIATION;
        ClaimedDelay {
            queue: start - now.0,
            service: self.latency,
        }
    }
}

impl Checkpoint for TagArrays {
    fn save(&self, w: &mut ByteWriter) {
        self.busy.put(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.busy = r.seq_of_len(self.busy.len(), "tag array count mismatch")?;
        Ok(())
    }
}

/// The SRAM data banks: one access at a time, node-indexed. Also keeps
/// the per-bank access census that drives activity-based power and
/// thermal analysis.
#[derive(Clone, Debug)]
pub(crate) struct Banks {
    /// Cycle until which each bank is occupied.
    busy: Vec<u64>,
    /// Accesses performed by each bank (node-indexed).
    access_counts: Vec<u64>,
    /// Single-access latency.
    latency: u64,
}

impl Banks {
    pub(crate) fn new(nodes: usize, latency: u64) -> Self {
        Self {
            busy: vec![0; nodes],
            access_counts: vec![0; nodes],
            latency,
        }
    }

    /// Latency until an access of bank `node` completes, counting the
    /// access; the bank performs one access at a time, so a busy bank
    /// adds queue cycles before its fixed-service access.
    pub(crate) fn claim(&mut self, node: usize, now: Cycle) -> ClaimedDelay {
        self.access_counts[node] += 1;
        let slot = &mut self.busy[node];
        let start = (*slot).max(now.0);
        *slot = start + self.latency;
        ClaimedDelay {
            queue: start - now.0,
            service: self.latency,
        }
    }

    /// Accesses each bank performed so far, indexed like
    /// [`ChipLayout::node_index`](nim_topology::ChipLayout::node_index).
    pub(crate) fn access_counts(&self) -> &[u64] {
        &self.access_counts
    }
}

impl Checkpoint for Banks {
    fn save(&self, w: &mut ByteWriter) {
        self.busy.put(w);
        self.access_counts.put(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.busy = r.seq_of_len(self.busy.len(), "bank count mismatch")?;
        self.access_counts =
            r.seq_of_len(self.access_counts.len(), "bank census count mismatch")?;
        Ok(())
    }
}

/// The memory controllers' DRAM channels: each accepts a new request
/// every `interval` cycles (channel bandwidth) and answers `latency`
/// cycles after the request is accepted.
#[derive(Clone, Debug)]
pub(crate) struct MemoryChannels {
    /// Earliest cycle each controller can accept its next request.
    ready: Vec<u64>,
    /// Minimum spacing between accepted requests.
    interval: u64,
    /// DRAM access latency once accepted.
    latency: u64,
}

impl MemoryChannels {
    pub(crate) fn new(controllers: usize, interval: u64, latency: u64) -> Self {
        Self {
            ready: vec![0; controllers],
            interval,
            latency,
        }
    }

    /// Latency until controller `mc` finishes a DRAM access claimed
    /// now, queueing behind the channel's bandwidth limit.
    pub(crate) fn claim(&mut self, mc: usize, now: Cycle) -> ClaimedDelay {
        let start = self.ready[mc].max(now.0);
        self.ready[mc] = start + self.interval;
        ClaimedDelay {
            queue: start - now.0,
            service: self.latency,
        }
    }
}

impl Checkpoint for MemoryChannels {
    fn save(&self, w: &mut ByteWriter) {
        self.ready.put(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.ready = r.seq_of_len(self.ready.len(), "memory controller count mismatch")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delay(queue: u64, service: u64) -> ClaimedDelay {
        ClaimedDelay { queue, service }
    }

    #[test]
    fn tag_arrays_pipeline_at_the_initiation_interval() {
        let mut tags = TagArrays::new(4, 8);
        let now = Cycle(100);
        // An idle array answers after the bare lookup latency.
        assert_eq!(tags.claim(ClusterId(0), now), delay(0, 8));
        // The next probe in the same cycle waits one initiation slot;
        // the wait is queueing, the lookup itself stays 8 cycles.
        assert_eq!(tags.claim(ClusterId(0), now), delay(TAG_INITIATION, 8));
        assert_eq!(tags.claim(ClusterId(0), now), delay(2 * TAG_INITIATION, 8));
        assert_eq!(
            tags.claim(ClusterId(0), now).total(),
            2 * TAG_INITIATION + 8 + TAG_INITIATION
        );
        // A different cluster's array is unaffected.
        assert_eq!(tags.claim(ClusterId(1), now), delay(0, 8));
    }

    #[test]
    fn banks_serialise_accesses_and_count_them() {
        let mut banks = Banks::new(2, 5);
        let now = Cycle(0);
        assert_eq!(banks.claim(0, now), delay(0, 5));
        assert_eq!(banks.claim(0, now), delay(5, 5));
        assert_eq!(banks.claim(1, now), delay(0, 5));
        assert_eq!(banks.access_counts(), &[2, 1]);
        // After the backlog drains the bank answers at full speed again.
        assert_eq!(banks.claim(0, Cycle(10)), delay(0, 5));
    }

    #[test]
    fn checkpoints_restore_schedules_and_reject_shape_mismatches() {
        let mut banks = Banks::new(2, 5);
        banks.claim(0, Cycle(0));
        banks.claim(0, Cycle(0));
        banks.claim(1, Cycle(3));
        let mut w = ByteWriter::new();
        banks.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Banks::new(2, 5);
        restored.restore(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(restored.busy, banks.busy);
        assert_eq!(restored.access_counts(), banks.access_counts());
        // A same-cycle claim on the restored banks queues identically.
        assert_eq!(restored.claim(0, Cycle(0)), banks.claim(0, Cycle(0)));
        let mut wrong = Banks::new(3, 5);
        assert!(wrong.restore(&mut ByteReader::new(&bytes)).is_err());

        let mut tags = TagArrays::new(4, 8);
        tags.claim(ClusterId(2), Cycle(7));
        let mut w = ByteWriter::new();
        tags.save(&mut w);
        let mut restored = TagArrays::new(4, 8);
        restored
            .restore(&mut ByteReader::new(&w.into_bytes()))
            .unwrap();
        assert_eq!(restored.busy, tags.busy);

        let mut mem = MemoryChannels::new(2, 16, 260);
        mem.claim(1, Cycle(0));
        let mut w = ByteWriter::new();
        mem.save(&mut w);
        let mut restored = MemoryChannels::new(2, 16, 260);
        restored
            .restore(&mut ByteReader::new(&w.into_bytes()))
            .unwrap();
        assert_eq!(restored.ready, mem.ready);
    }

    #[test]
    fn memory_channels_honour_the_bandwidth_interval() {
        let mut mem = MemoryChannels::new(2, 16, 260);
        let now = Cycle(0);
        assert_eq!(mem.claim(0, now), delay(0, 260));
        // Queued behind the channel's 16-cycle acceptance interval.
        assert_eq!(mem.claim(0, now), delay(16, 260));
        assert_eq!(mem.claim(0, now), delay(32, 260));
        // The second controller has its own channel.
        assert_eq!(mem.claim(1, now), delay(0, 260));
    }
}
