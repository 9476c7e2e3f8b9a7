//! Memory-reference trace vocabulary.
//!
//! The workload generator (`nim-workload`) produces [`TraceOp`]s and the
//! core model (`nim-cpu`) consumes them; both sides speak through these
//! small shared types.

use crate::addr::Address;

/// The kind of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store (write-through to L2 in the paper's configuration).
    Write,
    /// Instruction fetch.
    IFetch,
}

/// One memory reference, preceded by a burst of non-memory instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions executed before this reference (one per
    /// cycle on the paper's single-issue cores).
    pub gap: u32,
    /// Access kind.
    pub kind: AccessKind,
    /// Byte address accessed.
    pub addr: Address,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_op_is_plain_data() {
        let op = TraceOp {
            gap: 3,
            kind: AccessKind::Write,
            addr: Address(0x100),
        };
        let copy = op;
        assert_eq!(op, copy);
        assert_ne!(
            TraceOp {
                kind: AccessKind::Read,
                ..op
            },
            op
        );
    }
}
