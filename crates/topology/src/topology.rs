//! [`MeshTopology`] — a [`ChipLayout`] paired with the per-hop router
//! latency: what the ideal fabric costs a route with.

use nim_types::SystemConfig;

use crate::layout::ChipLayout;

/// A [`ChipLayout`] paired with the per-hop router latency.
///
/// All geometry — the nearest-pillar table included — lives in the
/// layout; this pairing is kept only because `nim-core`'s `LatencyModel`
/// stores it and nimbench's `topology.build_s.8-layer` probe times
/// [`from_config`](Self::from_config).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeshTopology {
    layout: ChipLayout,
    router_latency: u32,
}

impl MeshTopology {
    /// Builds the topology from an existing layout.
    pub fn new(layout: ChipLayout, router_latency: u32) -> Self {
        Self {
            layout,
            router_latency,
        }
    }

    /// Builds the topology straight from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`](crate::TopologyError) when the layout
    /// cannot be built.
    pub fn from_config(cfg: &SystemConfig) -> Result<Self, crate::TopologyError> {
        let layout = ChipLayout::new(cfg)?;
        Ok(Self::new(layout, cfg.network.router_latency))
    }

    /// The underlying geometry.
    #[inline]
    pub fn layout(&self) -> &ChipLayout {
        &self.layout
    }

    /// Cycles a flit dwells in one router.
    #[inline]
    pub fn hop_latency(&self) -> u32 {
        self.router_latency
    }
}

// nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
#[doc(hidden)]
pub struct ShardPlan;

// nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
#[doc(hidden)]
impl ShardPlan {
    pub fn new(_layout: &ChipLayout, _requested: usize) -> Self {
        Self
    }

    pub fn shards(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_map_matches_linear_scan_everywhere() {
        for layers in [2u8, 4, 8] {
            for pillars in [1u16, 2, 4, 8, 16] {
                let cfg = SystemConfig::default()
                    .with_layers(layers)
                    .with_pillars(pillars);
                let l = ChipLayout::new(&cfg).expect("layout");
                for i in 0..l.num_nodes() {
                    let c = l.coord_of_index(i);
                    assert_eq!(
                        l.nearest_pillar(c),
                        l.nearest_by_scan(c),
                        "layers={layers} pillars={pillars} at {c}"
                    );
                }
            }
        }
        let flat = ChipLayout::new(&SystemConfig::default().flattened()).expect("layout");
        for i in 0..flat.num_nodes() {
            assert_eq!(flat.nearest_pillar(flat.coord_of_index(i)), None);
        }
    }

    #[test]
    fn hop_latency_comes_from_config() {
        let mut cfg = SystemConfig::default();
        cfg.network.router_latency = 3;
        let t = MeshTopology::from_config(&cfg).expect("topology");
        assert_eq!(t.hop_latency(), 3);
    }
}
