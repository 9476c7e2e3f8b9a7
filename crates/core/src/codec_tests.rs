//! The `Codec` laws (`get(put(x)) == x`; every strict prefix of an image
//! is `UnexpectedEof`, never a panic) on arbitrary values of the
//! crate's field-list types.

use nim_types::codec::{assert_laws, ByteReader, Codec};
use nim_types::{AccessKind, Address, ClusterId, Coord, CpuId, Cycle, LineAddr, SystemConfig};
use proptest::prelude::*;

use crate::builder::Recipe;
use crate::fabric::FabricKind;
use crate::report::Counters;
use crate::scheme::Scheme;
use crate::system::LoopCarried;
use crate::token::TimedEvent;
use crate::txn::{Phase, Txn, TxnState, TxnTimeline};

fn timed_event() -> impl Strategy<Value = TimedEvent> {
    (
        (0u8..8, any::<u32>(), any::<u16>(), any::<u8>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|((variant, txn, small, layer), (queue, fanout, line))| {
            let (cluster, line) = (ClusterId(small), LineAddr(line));
            let at = Coord::new(layer, small as u8, (small >> 8) as u8);
            match variant {
                0 => TimedEvent::ProbeResolved {
                    txn,
                    cluster,
                    queue,
                },
                1 => TimedEvent::VerticalClusterResolved {
                    txn,
                    cluster,
                    queue,
                    fanout,
                },
                2 => TimedEvent::BankReadDone { txn, at, queue },
                3 => TimedEvent::BankWritten { txn, at, queue },
                4 => TimedEvent::MemoryReady { line, mc: small },
                5 => TimedEvent::MemoryFetched { line },
                6 => TimedEvent::MigrationDone { line },
                _ => TimedEvent::ReplicaInstalled { line, cluster },
            }
        })
}

fn txn_state() -> impl Strategy<Value = TxnState> {
    (0u8..3, any::<u32>()).prop_map(|(variant, n)| match variant {
        0 => TxnState::Searching { outstanding: n },
        1 => TxnState::Serving {
            cluster: ClusterId(n as u16),
        },
        _ => TxnState::MemoryWait,
    })
}

fn timeline() -> impl Strategy<Value = TxnTimeline> {
    (
        any::<u32>(),
        proptest::collection::vec((0usize..5, 0u64..1000), 0..8),
    )
        .prop_map(|(issued, touches)| {
            let mut now = u64::from(issued);
            let mut timeline = TxnTimeline::new(Cycle(now));
            for (phase, dt) in touches {
                now += dt;
                timeline.credit(Phase::ALL[phase], Cycle(now));
            }
            timeline
        })
}

/// All-integer records: any bytes of the right length are one.
fn counters() -> impl Strategy<Value = Counters> {
    proptest::collection::vec(any::<u8>(), 21 * 8)
        .prop_map(|bytes| Counters::get(&mut ByteReader::new(&bytes)).expect("21 u64s"))
}

proptest! {
    #[test]
    fn timed_events(ev in timed_event()) {
        prop_assert_eq!(assert_laws(&ev), ev);
    }

    #[test]
    fn transactions(
        (cpu, kind, addr, line) in (any::<u16>(), 0u8..3, any::<u64>(), any::<u64>()),
        (step, retries, state, timeline) in (any::<u8>(), any::<u8>(), txn_state(), timeline()),
    ) {
        prop_assert_eq!(assert_laws(&state), state);
        prop_assert_eq!(assert_laws(&timeline), timeline);
        let kind = [AccessKind::Read, AccessKind::Write, AccessKind::IFetch][usize::from(kind)];
        let issued = Cycle(timeline.attributed_to());
        let txn = Txn { step, retries, state, timeline, ..Txn::new(CpuId(cpu), kind, Address(addr), LineAddr(line), issued) };
        let back = assert_laws(&txn);
        prop_assert_eq!(
            (back.cpu, back.kind, back.addr, back.line, back.issued, back.step, back.retries, back.state, back.timeline),
            (txn.cpu, txn.kind, txn.addr, txn.line, txn.issued, step, retries, state, timeline)
        );
    }

    #[test]
    fn counters_and_loop_state(
        c in counters(),
        (warmed, windowed, cycle, instr) in (any::<bool>(), any::<bool>(), any::<u64>(), any::<u64>()),
    ) {
        prop_assert_eq!(assert_laws(&c), c);
        prop_assert_eq!(c.minus(&Counters::default()), c);
        prop_assert_eq!(c.as_array().len(), 21);
        let carried = LoopCarried {
            warmed,
            window_start: windowed.then_some((c, cycle, instr)),
            last_progress: cycle / 2,
            last_count: c.l2_transactions,
        };
        let back = assert_laws(&carried);
        prop_assert_eq!(
            (back.warmed, back.window_start, back.last_progress, back.last_count),
            (warmed, carried.window_start, cycle / 2, c.l2_transactions)
        );
    }

    #[test]
    fn recipes(
        (scheme, fabric, seed, warmup, sample) in (0usize..4, 0usize..2, any::<u64>(), any::<u64>(), any::<u64>()),
        flags in proptest::collection::vec(any::<bool>(), 3),
    ) {
        let (scheme, fabric) = (Scheme::ALL[scheme], FabricKind::ALL[fabric]);
        prop_assert_eq!(assert_laws(&scheme), scheme);
        prop_assert_eq!(assert_laws(&fabric), fabric);
        let recipe = Recipe {
            scheme,
            fabric,
            replication: flags[0],
            edge_memory: flags[1],
            prewarm: flags[2],
            seed,
            warmup,
            sample,
            cfg: SystemConfig::default(),
        };
        prop_assert_eq!(assert_laws(&recipe), recipe);
    }
}
