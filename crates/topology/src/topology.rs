//! Names the frozen `examples/nimbench` still compiles against, with
//! nothing behind them; all geometry lives in [`ChipLayout`].

use nim_types::SystemConfig;

use crate::layout::ChipLayout;

// nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
#[doc(hidden)]
pub struct MeshTopology;

// nimbench-frozen: examples/nimbench compiles against this name; ROADMAP item 1 Step A deletes it
#[doc(hidden)]
impl MeshTopology {
    pub fn from_config(cfg: &SystemConfig) -> Result<ChipLayout, crate::TopologyError> {
        ChipLayout::new(cfg)
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
}
