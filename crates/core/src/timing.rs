//! The contention-aware latency model of the chip's shared resources.
//!
//! Tag arrays, SRAM data banks and DRAM channels are all the same
//! thing timing-wise: a row of serialised ports, each accepting a new
//! request every `interval` cycles and answering `latency` cycles after
//! acceptance. [`Ports`] owns that busy-until bookkeeping and answers a
//! single question: *if a request claims port `i` now, how many cycles
//! until it completes?* Claiming advances the port's schedule, so
//! back-to-back requests queue. The model knows nothing about
//! transactions or the network; [`Ports::of_chip`] instantiates it once
//! per resource class when [`SimFabric`] is built, which keeps the three,
//! and the protocol engine reaches them only through the [`Fabric`]
//! trait.
//!
//! [`SimFabric`]: crate::fabric::SimFabric
//! [`Fabric`]: crate::fabric::Fabric

use nim_types::{Cycle, SystemConfig};

/// Cycles between successive probe initiations at one (pipelined) tag
/// array — concurrent searches crowding a cluster's tag array queue up.
const TAG_INITIATION: u64 = 2;

/// A claimed resource's delay, split into the cycles spent queueing
/// behind earlier claimants and the cycles of actual service. The split
/// feeds latency attribution ([`crate::txn::Phase`]); timing-wise only
/// [`ClaimedDelay::total`] matters, and it equals what `claim` returned
/// before the split existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ClaimedDelay {
    /// Cycles waiting for the resource's slot (serialization queueing).
    pub(crate) queue: u64,
    /// Cycles of service once the slot is held.
    pub(crate) service: u64,
}

impl ClaimedDelay {
    /// A zero delay (e.g. a tag check the oracle skips).
    pub(crate) const NONE: ClaimedDelay = ClaimedDelay {
        queue: 0,
        service: 0,
    };

    /// Total cycles until the claimed operation completes.
    pub(crate) fn total(self) -> u64 {
        self.queue.saturating_add(self.service)
    }
}

/// One claim after another (a tag check, then the bank access).
impl std::ops::Add for ClaimedDelay {
    type Output = ClaimedDelay;

    fn add(self, next: ClaimedDelay) -> ClaimedDelay {
        ClaimedDelay {
            queue: self.queue.saturating_add(next.queue),
            service: self.service.saturating_add(next.service),
        }
    }
}

/// A row of serialised ports of one resource class.
#[derive(Clone, Debug)]
pub(crate) struct Ports {
    /// Earliest cycle each port can accept its next request.
    ready: Vec<u64>,
    /// Minimum spacing between accepted requests.
    interval: u64,
    /// Service latency once accepted.
    latency: u64,
}

impl Ports {
    fn new(count: usize, interval: u64, latency: u64) -> Self {
        Self {
            ready: vec![0; count],
            interval,
            latency,
        }
    }

    /// The chip's three rows, `[tags, banks, memory]`: the per-cluster
    /// tag arrays (paper §4.1 — pipelined, one probe per
    /// [`TAG_INITIATION`] cycles under the lookup latency), the per-node
    /// SRAM data banks (one access at a time: interval = latency) and
    /// the memory controllers' DRAM channels (bandwidth interval under
    /// the DRAM latency).
    pub(crate) fn of_chip(
        cfg: &SystemConfig,
        clusters: usize,
        nodes: usize,
        controllers: usize,
    ) -> [Self; 3] {
        let bank = u64::from(cfg.l2.bank_latency);
        [
            Self::new(clusters, TAG_INITIATION, u64::from(cfg.l2.tag_latency)),
            Self::new(nodes, bank, bank),
            Self::new(
                controllers,
                u64::from(cfg.memory_interval),
                u64::from(cfg.memory_latency),
            ),
        ]
    }

    /// Number of ports.
    pub(crate) fn len(&self) -> usize {
        self.ready.len()
    }

    /// Latency until a request claiming port `i` now completes, split
    /// into the wait for the port's next slot and the fixed service.
    /// Sums saturate: a port busy until the end of time stalls its
    /// claimants (the watchdog reports it) rather than wrapping their
    /// completion into the past.
    pub(crate) fn claim(&mut self, i: usize, now: Cycle) -> ClaimedDelay {
        let start = self.ready[i].max(now.0);
        self.ready[i] = start.saturating_add(self.interval);
        ClaimedDelay {
            queue: start - now.0,
            service: self.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, TestFabric};

    fn delay(queue: u64, service: u64) -> ClaimedDelay {
        ClaimedDelay { queue, service }
    }

    #[test]
    fn tag_arrays_pipeline_at_the_initiation_interval() {
        let mut tags = Ports::new(4, TAG_INITIATION, 8);
        let now = Cycle(100);
        // An idle array answers after the bare lookup latency.
        assert_eq!(tags.claim(0, now), delay(0, 8));
        // The next probe in the same cycle waits one initiation slot;
        // the wait is queueing, the lookup itself stays 8 cycles.
        assert_eq!(tags.claim(0, now), delay(TAG_INITIATION, 8));
        assert_eq!(tags.claim(0, now), delay(2 * TAG_INITIATION, 8));
        assert_eq!(
            tags.claim(0, now).total(),
            2 * TAG_INITIATION + 8 + TAG_INITIATION
        );
        // A different cluster's array is unaffected.
        assert_eq!(tags.claim(1, now), delay(0, 8));
    }

    #[test]
    fn banks_serialise_accesses_and_count_them() {
        let mut f = TestFabric::new(1, 2, 1);
        let latency = u64::from(SystemConfig::default().l2.bank_latency);
        let now = Cycle(0);
        assert_eq!(f.bank_delay(0, now, false), delay(0, latency));
        assert_eq!(f.bank_delay(0, now, true), delay(latency, latency));
        assert_eq!(f.bank_delay(1, now, false), delay(0, latency));
        assert_eq!(f.shared.bank_accesses, [2, 1]);
        // After the backlog drains the bank answers at full speed again.
        assert_eq!(
            f.bank_delay(0, Cycle(2 * latency), false),
            delay(0, latency)
        );
    }

    #[test]
    fn memory_channels_honour_the_bandwidth_interval() {
        let mut mem = Ports::new(2, 16, 260);
        let now = Cycle(0);
        assert_eq!(mem.claim(0, now), delay(0, 260));
        // Queued behind the channel's 16-cycle acceptance interval.
        assert_eq!(mem.claim(0, now), delay(16, 260));
        assert_eq!(mem.claim(0, now), delay(32, 260));
        // The second controller has its own channel.
        assert_eq!(mem.claim(1, now), delay(0, 260));
    }
}
