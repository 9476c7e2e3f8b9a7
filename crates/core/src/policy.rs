//! The per-scheme protocol policy: a table row, bound at build time.
//!
//! The paper's four L2 organisations differ in exactly two protocol
//! choices — perfect vs. two-step search, migration on or off (§4.2,
//! §5.2); the builder's memory-route knob adds a third. [`Policy::new`]
//! resolves a [`Scheme`] and that knob into plain data once, and the
//! engine's handlers read the fields: they contain no `Scheme` branches.
//! Adding an L2 organisation means adding a row here (and, if needed, a
//! placement), not editing the engine.

use crate::scheme::Scheme;

/// How an L2 miss reaches DRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemoryRoute {
    /// The paper's flat memory model (Table 4): a fixed latency, no
    /// network traffic.
    Flat {
        /// Cycles from request to fill.
        latency: u64,
    },
    /// The extension: route misses over the network to edge memory
    /// controllers with per-channel bandwidth limits.
    EdgeControllers,
}

/// The scheme-specific half of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Policy {
    /// The baseline's perfect-search oracle: the requester knows each
    /// line's location without probing, and the tag check is charged at
    /// the serving bank instead.
    pub(crate) oracle_search: bool,
    /// Whether cache lines migrate toward their accessors at all
    /// (gradual steps by [`nim_cache::migration_target`], paper §4.2.3).
    pub(crate) migrates: bool,
    /// How L2 misses reach memory.
    pub(crate) memory: MemoryRoute,
}

impl Policy {
    /// Binds the scheme's row: CMP-DNUCA is the only perfect-search
    /// scheme, CMP-SNUCA-3D the only static one (the 2D/3D difference
    /// lives in the layout, not the protocol).
    pub(crate) fn new(scheme: Scheme, memory: MemoryRoute) -> Self {
        Self {
            oracle_search: scheme == Scheme::CmpDnuca,
            migrates: scheme != Scheme::CmpSnuca3d,
            memory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_schemes_differ_in_two_booleans() {
        let memory = MemoryRoute::Flat { latency: 260 };
        for (scheme, oracle_search, migrates) in [
            (Scheme::CmpDnuca, true, true),
            (Scheme::CmpDnuca2d, false, true),
            (Scheme::CmpDnuca3d, false, true),
            (Scheme::CmpSnuca3d, false, false),
        ] {
            assert_eq!(
                Policy::new(scheme, memory),
                Policy {
                    oracle_search,
                    migrates,
                    memory,
                },
                "{scheme:?}"
            );
        }
    }
}
