//! Search fan-out resolved once per chip.
//!
//! A search step of one CPU always sends the same probes: the clusters
//! it probes with their own request, one pillar broadcast per remote
//! layer, and on each layer the clusters that broadcast reaches.
//! [`StepFanout`] derives all three from the CPU's [`SearchPlan`] when
//! the system is built, so a search step walks lists instead of
//! filtering the plan by layer every time.

use nim_cache::SearchPlan;
use nim_topology::{ChipLayout, CpuSeat};
use nim_types::{ClusterId, Coord};

/// One search step of one CPU, resolved against the chip.
#[derive(Debug)]
pub(crate) struct StepFanout {
    /// Every cluster the step probes, broadcast targets included.
    pub(crate) targets: u32,
    /// Clusters probed individually, in ascending id order, each with the
    /// node its probe travels to (the tag array at the cluster centre).
    pub(crate) direct: Vec<(ClusterId, Coord)>,
    /// Bit `l` set: layer `l` gets one pillar broadcast (step 1 only).
    pub(crate) remote_layers: u8,
    /// Per layer: the step's clusters on it, ascending, each with its
    /// mesh distance from the CPU's pillar node there — what a broadcast
    /// arriving on that layer probes. Empty for a CPU without a pillar.
    pub(crate) broadcast: Vec<Vec<(ClusterId, u64)>>,
}

impl StepFanout {
    /// Both steps of the CPU at `seat`, searching by `plan`: step 1
    /// reaches remote layers by broadcast, step 2 probes every cluster
    /// with its own request (paper §4.2.1).
    pub(crate) fn of_plan(layout: &ChipLayout, seat: &CpuSeat, plan: &SearchPlan) -> [Self; 2] {
        [
            Self::new(layout, seat, &plan.step1, true),
            Self::new(layout, seat, &plan.step2, false),
        ]
    }

    fn new(layout: &ChipLayout, seat: &CpuSeat, clusters: &[ClusterId], broadcasts: bool) -> Self {
        let my_layer = seat.coord.layer;
        let is_direct = |cl: ClusterId| !broadcasts || layout.cluster_layer(cl) == my_layer;
        let direct = clusters
            .iter()
            .filter(|&&cl| is_direct(cl))
            .map(|&cl| (cl, layout.cluster_center(cl)))
            .collect();
        let remote_layers = clusters
            .iter()
            .filter(|&&cl| !is_direct(cl))
            .fold(0u8, |mask, &cl| mask | 1 << layout.cluster_layer(cl));
        let broadcast = seat.pillar.map_or_else(Vec::new, |pillar| {
            (0..layout.layers())
                .map(|layer| {
                    let at = layout.pillar_coord(pillar, layer);
                    clusters
                        .iter()
                        .filter(|&&cl| layout.cluster_layer(cl) == layer)
                        .map(|&cl| (cl, u64::from(at.manhattan_2d(layout.cluster_center(cl)))))
                        .collect()
                })
                .collect()
        });
        Self {
            targets: clusters.len() as u32,
            direct,
            remote_layers,
            broadcast,
        }
    }

    /// The clusters a broadcast arriving on `layer` probes.
    pub(crate) fn on_layer(&self, layer: u8) -> &[(ClusterId, u64)] {
        self.broadcast
            .get(usize::from(layer))
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::scheme::Scheme;

    /// Every list equals the filter over the plan it stands for — the
    /// step's clusters by layer, the direct ones in plan order — for
    /// every CPU, step and layer, under all four schemes.
    #[test]
    fn fanout_lists_equal_the_filters_they_replace() {
        for scheme in Scheme::ALL {
            for layers in [1u8, 2, 4, 8] {
                let sys = SystemBuilder::new(scheme)
                    .layers(layers)
                    .build()
                    .expect("cell builds");
                let eng = &sys.engine;
                let layout = &eng.layout;
                for (cpu, seat) in eng.seats.iter().enumerate() {
                    let plan = &eng.plans[cpu];
                    for (i, clusters) in [&plan.step1, &plan.step2].into_iter().enumerate() {
                        let fan = &eng.fanout[cpu][i];
                        let label = format!("{scheme:?} {layers}L cpu {cpu} step {}", i + 1);
                        let remote = |cl: &&ClusterId| {
                            i == 0 && layout.cluster_layer(**cl) != seat.coord.layer
                        };
                        let direct: Vec<_> = clusters
                            .iter()
                            .filter(|cl| !remote(cl))
                            .map(|&cl| (cl, layout.cluster_center(cl)))
                            .collect();
                        assert_eq!(fan.direct, direct, "{label}");
                        assert!(fan.direct.windows(2).all(|w| w[0].0 < w[1].0), "{label}");
                        let mask = clusters
                            .iter()
                            .filter(remote)
                            .fold(0u8, |m, cl| m | 1 << layout.cluster_layer(*cl));
                        assert_eq!(fan.remote_layers, mask, "{label}");
                        assert_eq!(fan.targets as usize, clusters.len(), "{label}");
                        for layer in 0..layout.layers() {
                            let Some(pillar) = seat.pillar else {
                                assert!(fan.on_layer(layer).is_empty(), "{label}");
                                continue;
                            };
                            let at = layout.pillar_coord(pillar, layer);
                            let reached: Vec<_> = clusters
                                .iter()
                                .filter(|cl| layout.cluster_layer(**cl) == layer)
                                .map(|&cl| {
                                    (cl, u64::from(at.manhattan_2d(layout.cluster_center(cl))))
                                })
                                .collect();
                            assert_eq!(fan.on_layer(layer), reached, "{label} layer {layer}");
                            if mask >> layer & 1 != 0 {
                                assert!(!reached.is_empty(), "{label}: broadcast to nobody");
                            }
                        }
                    }
                }
            }
        }
    }
}
