//! Engine transition tests against the [`TestFabric`] double.
//!
//! Each test drives the protocol engine through one transaction
//! lifecycle — the packets land in the double's queues and are pumped
//! back by hand, so every transition below runs without a network (or a
//! clock): read hits found in step 1, step 2, and over a vertical
//! pillar broadcast; read misses served flat and through edge memory
//! controllers; the write-through store path; L2 evictions; and the
//! migration and replication triggers.

use super::*;

use nim_cpu::CoreAction;
use nim_noc::SendRequest;
use nim_types::{Address, PacketId, TraceOp};

use crate::builder::SystemBuilder;
use crate::fabric::TestFabric;
use crate::scheme::Scheme;

/// Builds the engine exactly as the real builder wires it, paired with
/// a recording fabric sized to the same chip.
fn harness(
    scheme: Scheme,
    configure: impl FnOnce(SystemBuilder) -> SystemBuilder,
) -> (Engine, TestFabric) {
    let sys = configure(SystemBuilder::new(scheme))
        .build()
        .expect("system builds");
    let fabric = TestFabric::new(
        sys.engine.layout.num_clusters() as usize,
        sys.engine.layout.num_nodes(),
        sys.recipe.cfg.memory_controllers as usize,
    );
    (sys.engine, fabric)
}

/// "Delivers" a recorded send: same token, same endpoints, no network.
fn deliver(req: &SendRequest, at: u64) -> Delivered {
    Delivered {
        packet: PacketId(0),
        src: req.src,
        dst: req.dst,
        class: req.class,
        token: req.token,
        injected: Cycle(at),
        delivered: Cycle(at),
        hops: 0,
        bus_wait: 0,
    }
}

/// Pumps scheduled events and recorded sends until the system
/// quiesces; returns every decoded token that crossed the fabric, in
/// delivery order.
fn pump(eng: &mut Engine, f: &mut TestFabric) -> Vec<Token> {
    let mut log = Vec::new();
    let mut clock = 0;
    for _ in 0..100_000 {
        if let Some((due, ev)) = f.pop_event() {
            clock = clock.max(due);
            eng.handle_event(f, ev, Cycle(clock));
            continue;
        }
        let sent = f.take_sent();
        if sent.is_empty() {
            return log;
        }
        clock += 1;
        for req in sent {
            log.push(Token::decode(req.token).expect("sent tokens decode"));
            eng.handle_delivered(f, deliver(&req, clock), Cycle(clock));
        }
    }
    panic!("engine did not quiesce");
}

/// Issues one memory op through the requesting core — so its L1 and
/// stall state match the real pipeline — and pumps the resulting L2
/// transaction to completion.
fn issue(
    eng: &mut Engine,
    f: &mut TestFabric,
    cpu: CpuId,
    kind: AccessKind,
    addr: Address,
) -> Vec<Token> {
    let mut op = Some(TraceOp { gap: 0, kind, addr });
    let req = match eng.cores.tick(cpu.index(), 1, &mut || op.take()) {
        CoreAction::Request(req) => req,
        other => panic!("core issued no L2 request: {other:?}"),
    };
    eng.handle_request(f, req, Cycle(1));
    pump(eng, f)
}

fn read(eng: &mut Engine, f: &mut TestFabric, cpu: CpuId, addr: Address) -> Vec<Token> {
    issue(eng, f, cpu, AccessKind::Read, addr)
}

const ADDR: Address = Address(0x4240);

/// Read hits, as a table over where the line sits relative to the
/// requester's search plan: its own cluster (step 1, local tag array),
/// a same-step cluster on a remote layer (step 1, via the pillar
/// broadcast), and a step-2 cluster. CMP-SNUCA-3D keeps every placement
/// stable, so the serving location is exactly where the test put it.
#[test]
fn read_hits_across_the_search_plan() {
    enum Spot {
        Local,
        RemoteLayerStep1,
        Step2,
    }
    let table = [
        (Spot::Local, 1u64, 0u64),
        (Spot::RemoteLayerStep1, 1, 0),
        (Spot::Step2, 0, 1),
    ];
    for (spot, want_step1, want_step2) in table {
        let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
        let cpu = CpuId::from_index(0);
        let seat = eng.seats[0];
        let plan = &eng.plans[0];
        let cluster = match spot {
            Spot::Local => plan.local,
            Spot::RemoteLayerStep1 => *plan
                .step1
                .iter()
                .find(|cl| eng.layout.cluster_layer(**cl) != seat.coord.layer)
                .expect("3D step 1 spans layers"),
            Spot::Step2 => plan.step2[0],
        };
        let line = ADDR.line(eng.line_bytes);
        eng.l2.insert_at(line, cluster);
        let log = read(&mut eng, &mut f, cpu, ADDR);
        assert_eq!(eng.counters.l2_transactions, 1);
        assert_eq!(eng.counters.l2_hits, 1);
        assert_eq!(eng.counters.l2_misses, 0);
        assert_eq!(eng.counters.step1_hits, want_step1);
        assert_eq!(eng.counters.step2_hits, want_step2);
        assert!(eng.txns.is_empty(), "transaction completed");
        assert!(
            log.iter().any(|t| matches!(t, Token::DataToCpu { .. })),
            "data returned to the CPU"
        );
        if matches!(spot, Spot::RemoteLayerStep1) {
            assert!(
                log.iter()
                    .any(|t| matches!(t, Token::VerticalProbe { step: 1, .. })),
                "remote layers are probed via the pillar broadcast"
            );
        }
    }
}

#[test]
fn read_miss_fetches_from_flat_memory() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    assert_eq!(eng.l2.locate(line), None);
    let log = read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    assert_eq!(eng.counters.l2_misses, 1);
    assert_eq!(eng.counters.l2_hits, 0);
    // The flat model (Table 4) never puts memory traffic on the fabric.
    assert!(
        !log.iter().any(|t| matches!(t, Token::MemRequest { .. })),
        "flat memory is a timed event, not a packet"
    );
    assert_eq!(eng.l2.locate(line), Some(eng.l2.home_cluster(line)));
    assert!(eng.txns.is_empty());
}

#[test]
fn read_miss_routes_through_edge_memory_controllers() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b.edge_memory_controllers(true));
    let line = ADDR.line(eng.line_bytes);
    let log = read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    assert_eq!(eng.counters.l2_misses, 1);
    assert!(
        log.iter().any(|t| matches!(t, Token::MemRequest { .. })),
        "the miss travels to a memory controller"
    );
    assert!(
        log.iter().any(|t| matches!(t, Token::MemFill { .. })),
        "the fill travels back to the home bank"
    );
    assert_eq!(eng.l2.locate(line), Some(eng.l2.home_cluster(line)));
}

#[test]
fn write_hit_round_trips_data_and_ack() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let cpu = CpuId::from_index(0);
    let line = ADDR.line(eng.line_bytes);
    eng.l2.insert_at(line, eng.plans[0].local);
    let log = issue(&mut eng, &mut f, cpu, AccessKind::Write, ADDR);
    assert_eq!(eng.counters.l2_hits, 1);
    assert!(
        log.iter().any(|t| matches!(t, Token::WriteData { .. })),
        "store data shipped to the bank"
    );
    assert!(
        log.iter().any(|t| matches!(t, Token::WriteAck { .. })),
        "bank acknowledged the store"
    );
    assert!(eng.txns.is_empty());
}

#[test]
fn write_invalidates_other_sharers() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let writer = CpuId::from_index(0);
    let reader = CpuId::from_index(1);
    let line = ADDR.line(eng.line_bytes);
    eng.l2.insert_at(line, eng.plans[0].local);
    eng.dir.access(reader, line, DirAccess::Read);
    let log = issue(&mut eng, &mut f, writer, AccessKind::Write, ADDR);
    assert_eq!(eng.counters.invalidations, 1, "the reader's L1 copy dies");
    assert!(log.iter().any(|t| matches!(t, Token::Invalidate { .. })));
}

#[test]
fn l2_eviction_invalidates_every_l1_sharer() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    // Two L1s hold the line; the L2 no longer does (capacity victim).
    eng.dir.access(CpuId::from_index(0), line, DirAccess::Read);
    eng.dir.access(CpuId::from_index(1), line, DirAccess::Read);
    let from = eng.layout.cluster_center(eng.l2.home_cluster(line));
    eng.handle_l2_eviction(&mut f, line, from);
    assert_eq!(eng.counters.l2_evictions, 1);
    assert_eq!(eng.counters.invalidations, 2);
    let sent = f.take_sent();
    assert_eq!(sent.len(), 2);
    for req in &sent {
        assert!(matches!(
            Token::decode(req.token),
            Some(Token::Invalidate { line: l }) if l == line
        ));
    }
}

#[test]
fn remote_read_triggers_one_migration_step() {
    let (mut eng, mut f) = harness(Scheme::CmpDnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    // Outside the requester's step-1 vicinity, so vicinity-stop cannot
    // suppress the move.
    let far = eng.plans[0].step2[0];
    eng.l2.insert_at(line, far);
    let log = read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    assert_eq!(eng.counters.l2_hits, 1);
    assert_eq!(eng.counters.migrations, 1, "one gradual step committed");
    assert!(log.iter().any(|t| matches!(t, Token::MigrationMove { .. })));
    let now_at = eng.l2.locate(line).expect("line still resident");
    assert_ne!(now_at, far, "the line moved toward the accessor");
}

#[test]
fn static_nuca_never_migrates() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    let far = eng.plans[0].step2[0];
    eng.l2.insert_at(line, far);
    let log = read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    assert_eq!(eng.counters.migrations, 0);
    assert!(!log.iter().any(|t| matches!(t, Token::MigrationMove { .. })));
    assert_eq!(eng.l2.locate(line), Some(far), "the placement is static");
}

/// The attribution invariant, per lifecycle path: the five phase
/// buckets of every completed transaction sum exactly to its
/// end-to-end latency (`finish_counters` debug-asserts the per-txn
/// equality; this checks the aggregated counters and that each path
/// fills the buckets it should).
#[test]
fn phase_buckets_sum_to_end_to_end_latency() {
    let check = |eng: &Engine, path: &str| {
        let total: u64 = eng.counters.phase_cycles().iter().sum();
        assert_eq!(
            total,
            eng.counters.hit_latency_sum + eng.counters.miss_latency_sum,
            "{path}: buckets must decompose the latency sums"
        );
        assert!(total > 0, "{path}: transactions take time");
    };

    // Local hit: network + tag/bank service, never memory.
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    eng.l2.insert_at(line, eng.plans[0].local);
    read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    check(&eng, "hit");
    let [noc, _, _, service, mem] = eng.counters.phase_cycles();
    assert!(noc > 0 && service > 0, "a hit pays network and L2 service");
    assert_eq!(mem, 0, "a hit never waits on memory");

    // Flat miss: the fetch is a timed event, so its cycles are memory
    // wait by definition.
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    check(&eng, "flat miss");
    assert!(
        eng.counters.phase_cycles()[Phase::MemWait as usize] > 0,
        "a miss waits on the DRAM fetch"
    );

    // Edge-controller miss: adds the memory-side network legs, which
    // also land in the memory-wait bucket.
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b.edge_memory_controllers(true));
    read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    check(&eng, "edge-mc miss");

    // Migration path: the hit completes while the line moves behind it.
    let (mut eng, mut f) = harness(Scheme::CmpDnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    eng.l2.insert_at(line, eng.plans[0].step2[0]);
    read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    assert_eq!(eng.counters.migrations, 1);
    check(&eng, "migration");

    // Replication path: the replica fill rides the fabric after the
    // hit; the requester's own buckets still telescope.
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b.replication(true));
    let line = ADDR.line(eng.line_bytes);
    eng.l2.insert_at(line, eng.plans[0].step2[0]);
    eng.dir.access(CpuId::from_index(1), line, DirAccess::Read);
    read(&mut eng, &mut f, CpuId::from_index(0), ADDR);
    assert_eq!(eng.counters.replicas_created, 1);
    check(&eng, "replication");

    // Write-through store: data + ack round trip.
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    eng.l2.insert_at(line, eng.plans[0].local);
    issue(
        &mut eng,
        &mut f,
        CpuId::from_index(0),
        AccessKind::Write,
        ADDR,
    );
    check(&eng, "write");
}

/// A search retry (the migration race of §4.2.3) keeps the timeline
/// telescoped: the line "migrates" away mid-search, both steps miss,
/// the retry finds it, and the buckets still sum to the latency.
#[test]
fn phase_buckets_survive_a_search_retry() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b);
    let line = ADDR.line(eng.line_bytes);
    let local = eng.plans[0].local;
    eng.l2.insert_at(line, eng.plans[0].step2[0]);
    let mut op = Some(TraceOp {
        gap: 0,
        kind: AccessKind::Read,
        addr: ADDR,
    });
    let req = match eng.cores.tick(0, 1, &mut || op.take()) {
        CoreAction::Request(req) => req,
        other => panic!("core issued no L2 request: {other:?}"),
    };
    eng.handle_request(&mut f, req, Cycle(1));
    let mut clock = 0;
    let mut moved = false;
    for _ in 0..100_000 {
        // The instant step 2 is issued, yank the line to the local
        // cluster — every step-2 probe now misses a resident line,
        // which is exactly the racing-migration retry condition.
        if !moved && eng.txns.get(0).is_some_and(|t| t.step == 2) {
            eng.l2.remove(line);
            eng.l2.insert_at(line, local);
            moved = true;
        }
        if let Some((due, ev)) = f.pop_event() {
            clock = clock.max(due);
            eng.handle_event(&mut f, ev, Cycle(clock));
            continue;
        }
        let sent = f.take_sent();
        if sent.is_empty() {
            break;
        }
        clock += 1;
        for req in sent {
            eng.handle_delivered(&mut f, deliver(&req, clock), Cycle(clock));
        }
    }
    assert!(eng.txns.is_empty(), "transaction completed");
    assert_eq!(eng.counters.search_retries, 1, "the race forced a retry");
    assert_eq!(eng.counters.l2_hits, 1, "the retry found the line");
    let total: u64 = eng.counters.phase_cycles().iter().sum();
    assert_eq!(total, eng.counters.hit_latency_sum);
}

#[test]
fn shared_read_triggers_replication_into_the_local_cluster() {
    let (mut eng, mut f) = harness(Scheme::CmpSnuca3d, |b| b.replication(true));
    let reader = CpuId::from_index(0);
    let line = ADDR.line(eng.line_bytes);
    let remote = eng.plans[0].step2[0];
    eng.l2.insert_at(line, remote);
    // A second sharer makes the line read-shared (the trigger condition).
    eng.dir.access(CpuId::from_index(1), line, DirAccess::Read);
    let local = eng.plans[0].local;
    let log = read(&mut eng, &mut f, reader, ADDR);
    assert_eq!(eng.counters.replicas_created, 1);
    assert!(log.iter().any(|t| matches!(t, Token::ReplicaFill { .. })));
    assert!(
        eng.l2.has_copy_at(line, local),
        "the replica landed in the reader's cluster"
    );
    assert_eq!(eng.l2.locate(line), Some(remote), "the primary stays put");
}
