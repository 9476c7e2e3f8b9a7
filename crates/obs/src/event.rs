//! Typed trace events and their Chrome `trace_event` serialization.

use std::fmt::Write as _;

use crate::category::Category;
use crate::json::push_json_string;

/// One cycle-stamped trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation cycle at which the event occurred.
    pub(crate) cycle: u64,
    /// The typed payload.
    pub(crate) data: EventData,
}

/// How one payload field type is written as a JSON value.
trait JsonArg {
    fn write_json(&self, out: &mut String);
}

/// Integers and `bool` are written bare.
macro_rules! bare_json_arg {
    ($($t:ty),*) => {$(
        impl JsonArg for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
bare_json_arg!(u8, u16, u32, u64, bool);

/// Static names (traffic classes, access kinds) need no escaping.
impl JsonArg for &'static str {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

impl JsonArg for String {
    fn write_json(&self, out: &mut String) {
        push_json_string(out, self);
    }
}

/// Coordinates are written as one `"x,y,z"` string.
impl JsonArg for [u16; 3] {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{},{},{}\"", self[0], self[1], self[2]);
    }
}

/// Generates [`EventData`] and its three views from one table: each row
/// is a variant, its fields in trace `args` order, its [`Category`] and
/// its trace `name`.
macro_rules! event_table {
    ($(
        $(#[$doc:meta])*
        $v:ident { $f0:ident: $t0:ty $(, $f:ident: $t:ty)* $(,)? } => $cat:ident, $name:literal;
    )*) => {
        /// Event payloads, one variant per instrumented point in the simulator.
        ///
        /// Fields are plain integers (node/cluster indices, line addresses) so
        /// the crate stays dependency-free; callers translate their own id
        /// types. Coordinates are `[x, y, z]` triples.
        #[derive(Clone, Debug, PartialEq)]
        pub enum EventData {$(
            $(#[$doc])*
            $v { $f0: $t0 $(, $f: $t)* },
        )*}

        impl EventData {
            /// The category this payload belongs to.
            pub fn category(&self) -> Category {
                match self {$(
                    EventData::$v { .. } => Category::$cat,
                )*}
            }

            /// Short event name (the trace `name` field).
            pub fn name(&self) -> &'static str {
                match self {$(
                    EventData::$v { .. } => $name,
                )*}
            }

            /// Writes the fields as the members of the trace `args` object.
            fn write_args(&self, out: &mut String) {
                match self {$(
                    EventData::$v { $f0 $(, $f)* } => {
                        out.push_str(concat!("\"", stringify!($f0), "\":"));
                        $f0.write_json(out);
                        $(
                            out.push_str(concat!(",\"", stringify!($f), "\":"));
                            $f.write_json(out);
                        )*
                    }
                )*}
            }
        }
    };
}

event_table! {
    /// A packet entered the network.
    PacketInject { packet: u64, src: [u16; 3], dst: [u16; 3], class: &'static str, flits: u32 }
        => Packet, "inject";
    /// A packet's tail flit was ejected at its destination.
    PacketDeliver { packet: u64, dst: [u16; 3], latency: u64, hops: u32 } => Packet, "deliver";
    /// One flit crossed a router (high volume; off by default).
    FlitHop { at: [u16; 3], class: &'static str } => Hop, "hop";
    /// A dTDMA pillar bus granted its slot to a layer interface.
    BusGrant { pillar: u32, from_layer: u16, to_layer: u16 } => Pillar, "slot_grant";
    /// Multiple interfaces wanted the same dTDMA slot.
    BusContention { pillar: u32, waiting: u32 } => Pillar, "contention";
    /// A NUCA search step (1 = local cluster, 2 = pillar broadcast).
    SearchStep { txn: u64, step: u8, targets: u32 } => Search, "search_step";
    /// A probe arrived at a candidate cluster.
    Probe { txn: u64, cluster: u32, step: u8 } => Search, "probe";
    /// A probe found the line.
    ProbeHit { txn: u64, cluster: u32 } => Search, "probe_hit";
    /// Every probed cluster missed; the search widens or goes off-chip.
    ProbeMiss { txn: u64, step: u8 } => Search, "probe_miss";
    /// The search restarted (line was mid-migration or contended).
    SearchRetry { txn: u64, attempt: u32 } => Search, "search_retry";
    /// A cache line began migrating between clusters.
    MigrationStart { line: u64, from: u32, to: u32 } => Migration, "migration_start";
    /// A migration's data arrived and the move committed.
    MigrationCommit { line: u64, from: u32, to: u32 } => Migration, "migration_commit";
    /// A migration was abandoned (e.g. destination set filled).
    MigrationAbort { line: u64, from: u32, to: u32 } => Migration, "migration_abort";
    /// The directory invalidated one L1 copy.
    Invalidate { line: u64, cpu: u32 } => Coherence, "invalidate";
    /// The directory invalidated every sharer of a line.
    InvalidateAll { line: u64, sharers: u32 } => Coherence, "invalidate_all";
    /// A data-bank port serviced an access.
    BankAccess { node: u32, write: bool } => Bank, "bank_access";
    /// A resident line was evicted from a cluster's set.
    Eviction { line: u64, cluster: u32 } => Bank, "eviction";
    /// A request left the chip for main memory.
    MemRequest { line: u64 } => Memory, "mem_request";
    /// Main memory returned a line.
    MemFill { line: u64 } => Memory, "mem_fill";
    /// Free-form annotation (also exercises JSON escaping).
    Note { label: String } => Meta, "note";
    /// A sampled transaction was issued (opens a Perfetto async span;
    /// paired with [`EventData::TxnEnd`] via the transaction id).
    TxnBegin { txn: u64, cpu: u32, kind: &'static str } => Txn, "txn";
    /// A sampled transaction completed, carrying its full latency
    /// decomposition: the five buckets sum to `total` exactly.
    TxnEnd {
        txn: u64,
        noc_hop: u64,
        pillar_wait: u64,
        resource_queue: u64,
        l2_service: u64,
        mem_wait: u64,
        total: u64,
    } => Txn, "txn";
}

impl EventData {
    /// Chrome `ph` phase and async-span id: instant events are
    /// `("i", None)`; transaction spans pair `"b"`/`"e"` events through
    /// the transaction id so Perfetto renders them as one async slice.
    fn phase(&self) -> (&'static str, Option<u64>) {
        match self {
            EventData::TxnBegin { txn, .. } => ("b", Some(*txn)),
            EventData::TxnEnd { txn, .. } => ("e", Some(*txn)),
            _ => ("i", None),
        }
    }
}

impl Event {
    /// Appends this event as one Chrome `trace_event` instant-event JSON
    /// object (no trailing newline or comma). `ts` is the simulation
    /// cycle, mapped 1 cycle = 1 µs; `tid` is the category track.
    pub(crate) fn write_chrome_json(&self, out: &mut String) {
        let cat = self.data.category();
        match self.data.phase() {
            // Async span halves carry an `id` (pairs "b" with "e") and
            // no instant scope.
            (ph, Some(id)) => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"id\":{id},\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{",
                    self.data.name(),
                    cat.name(),
                    self.cycle,
                    cat.index()
                );
            }
            _ => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{",
                    self.data.name(),
                    cat.name(),
                    self.cycle,
                    cat.index()
                );
            }
        }
        self.data.write_args(out);
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_as_instant_event() {
        let e = Event {
            cycle: 42,
            data: EventData::BusGrant {
                pillar: 3,
                from_layer: 0,
                to_layer: 1,
            },
        };
        let mut out = String::new();
        e.write_chrome_json(&mut out);
        assert_eq!(
            out,
            "{\"name\":\"slot_grant\",\"cat\":\"pillar\",\"ph\":\"i\",\"ts\":42,\"pid\":0,\
             \"tid\":2,\"s\":\"t\",\"args\":{\"pillar\":3,\"from_layer\":0,\"to_layer\":1}}"
        );
    }

    #[test]
    fn txn_spans_serialize_as_async_pairs() {
        let b = Event {
            cycle: 100,
            data: EventData::TxnBegin {
                txn: 7,
                cpu: 2,
                kind: "read",
            },
        };
        let mut out = String::new();
        b.write_chrome_json(&mut out);
        assert_eq!(
            out,
            "{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"b\",\"id\":7,\"ts\":100,\"pid\":0,\
             \"tid\":9,\"args\":{\"txn\":7,\"cpu\":2,\"kind\":\"read\"}}"
        );

        let e = Event {
            cycle: 130,
            data: EventData::TxnEnd {
                txn: 7,
                noc_hop: 19,
                pillar_wait: 0,
                resource_queue: 6,
                l2_service: 5,
                mem_wait: 0,
                total: 30,
            },
        };
        out.clear();
        e.write_chrome_json(&mut out);
        assert_eq!(
            out,
            "{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"e\",\"id\":7,\"ts\":130,\"pid\":0,\
             \"tid\":9,\"args\":{\"txn\":7,\"noc_hop\":19,\"pillar_wait\":0,\
             \"resource_queue\":6,\"l2_service\":5,\"mem_wait\":0,\"total\":30}}"
        );
    }

    /// One sample of every variant: its trace name, category and `args`
    /// object exactly as the hand-written serializer produced them.
    #[test]
    fn every_variant_serializes_to_its_pinned_form() {
        let p = [1u16, 2, 3];
        let table = [
            (
                EventData::PacketInject {
                    packet: 9,
                    src: p,
                    dst: [4, 5, 6],
                    class: "data",
                    flits: 4,
                },
                "inject",
                "packet",
                r#""packet":9,"src":"1,2,3","dst":"4,5,6","class":"data","flits":4"#,
            ),
            (
                EventData::PacketDeliver {
                    packet: 9,
                    dst: [4, 5, 6],
                    latency: 31,
                    hops: 7,
                },
                "deliver",
                "packet",
                r#""packet":9,"dst":"4,5,6","latency":31,"hops":7"#,
            ),
            (
                EventData::FlitHop {
                    at: p,
                    class: "control",
                },
                "hop",
                "hop",
                r#""at":"1,2,3","class":"control""#,
            ),
            (
                EventData::BusGrant {
                    pillar: 3,
                    from_layer: 0,
                    to_layer: 1,
                },
                "slot_grant",
                "pillar",
                r#""pillar":3,"from_layer":0,"to_layer":1"#,
            ),
            (
                EventData::BusContention {
                    pillar: 3,
                    waiting: 2,
                },
                "contention",
                "pillar",
                r#""pillar":3,"waiting":2"#,
            ),
            (
                EventData::SearchStep {
                    txn: 7,
                    step: 1,
                    targets: 6,
                },
                "search_step",
                "search",
                r#""txn":7,"step":1,"targets":6"#,
            ),
            (
                EventData::Probe {
                    txn: 7,
                    cluster: 12,
                    step: 2,
                },
                "probe",
                "search",
                r#""txn":7,"cluster":12,"step":2"#,
            ),
            (
                EventData::ProbeHit {
                    txn: 7,
                    cluster: 12,
                },
                "probe_hit",
                "search",
                r#""txn":7,"cluster":12"#,
            ),
            (
                EventData::ProbeMiss { txn: 7, step: 2 },
                "probe_miss",
                "search",
                r#""txn":7,"step":2"#,
            ),
            (
                EventData::SearchRetry { txn: 7, attempt: 1 },
                "search_retry",
                "search",
                r#""txn":7,"attempt":1"#,
            ),
            (
                EventData::MigrationStart {
                    line: 264,
                    from: 5,
                    to: 4,
                },
                "migration_start",
                "migration",
                r#""line":264,"from":5,"to":4"#,
            ),
            (
                EventData::MigrationCommit {
                    line: 264,
                    from: 5,
                    to: 4,
                },
                "migration_commit",
                "migration",
                r#""line":264,"from":5,"to":4"#,
            ),
            (
                EventData::MigrationAbort {
                    line: 264,
                    from: 5,
                    to: 4,
                },
                "migration_abort",
                "migration",
                r#""line":264,"from":5,"to":4"#,
            ),
            (
                EventData::Invalidate { line: 264, cpu: 3 },
                "invalidate",
                "coherence",
                r#""line":264,"cpu":3"#,
            ),
            (
                EventData::InvalidateAll {
                    line: 264,
                    sharers: 2,
                },
                "invalidate_all",
                "coherence",
                r#""line":264,"sharers":2"#,
            ),
            (
                EventData::BankAccess {
                    node: 77,
                    write: true,
                },
                "bank_access",
                "bank",
                r#""node":77,"write":true"#,
            ),
            (
                EventData::Eviction {
                    line: 264,
                    cluster: 12,
                },
                "eviction",
                "bank",
                r#""line":264,"cluster":12"#,
            ),
            (
                EventData::MemRequest { line: 264 },
                "mem_request",
                "memory",
                r#""line":264"#,
            ),
            (
                EventData::MemFill { line: 264 },
                "mem_fill",
                "memory",
                r#""line":264"#,
            ),
            (
                EventData::Note {
                    label: "a \"b\"\n".to_string(),
                },
                "note",
                "meta",
                r#""label":"a \"b\"\n""#,
            ),
            (
                EventData::TxnBegin {
                    txn: 7,
                    cpu: 2,
                    kind: "read",
                },
                "txn",
                "txn",
                r#""txn":7,"cpu":2,"kind":"read""#,
            ),
            (
                EventData::TxnEnd {
                    txn: 7,
                    noc_hop: 19,
                    pillar_wait: 0,
                    resource_queue: 6,
                    l2_service: 5,
                    mem_wait: 0,
                    total: 30,
                },
                "txn",
                "txn",
                r#""txn":7,"noc_hop":19,"pillar_wait":0,"resource_queue":6,"l2_service":5,"mem_wait":0,"total":30"#,
            ),
        ];
        let kinds: std::collections::HashSet<_> = table
            .iter()
            .map(|row| std::mem::discriminant(&row.0))
            .collect();
        assert_eq!(kinds.len(), 22, "one row per variant");
        for (data, name, cat, args) in table {
            assert_eq!((data.name(), data.category().name()), (name, cat));
            let mut out = String::new();
            Event { cycle: 42, data }.write_chrome_json(&mut out);
            let head = format!("{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"");
            assert!(out.starts_with(&head), "{out}");
            assert!(out.ends_with(&format!(",\"args\":{{{args}}}}}")), "{out}");
        }
    }

    #[test]
    fn note_labels_are_escaped() {
        let e = Event {
            cycle: 0,
            data: EventData::Note {
                label: "tab\t\"quote\"".to_string(),
            },
        };
        let mut out = String::new();
        e.write_chrome_json(&mut out);
        assert!(out.contains("\\t"));
        assert!(out.contains("\\\"quote\\\""));
    }
}
