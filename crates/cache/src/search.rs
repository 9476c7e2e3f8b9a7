//! The two-step cache-line search policy (paper §4.2.1).
//!
//! Step 1: the processor probes the tag array of its *local* cluster and
//! its laterally neighbouring clusters, and — broadcast through the
//! pillar — every cluster on every *other* layer: "clusters accessible
//! through the vertical pillar communications are considered to be in
//! local vicinity" (paper §4.2.3). The CPU's vicinity is a *disc* in 2D
//! and widens enormously in 3D (Fig. 8) because the single-hop pillar
//! puts whole layers within reach. Step 2: on a step-1 miss, the request
//! is multicast to every remaining cluster (own-layer for the default
//! plans; each probed tag array answers individually either way). A miss
//! everywhere is an L2 miss.

use nim_topology::ChipLayout;
use nim_types::ClusterId;

/// The probe schedule for one CPU: which clusters are searched in each step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchPlan {
    /// The CPU's own cluster (probed through the directly-connected tag
    /// array, no network round trip).
    pub local: ClusterId,
    /// Step 1: local + lateral neighbours + vertical neighbours.
    pub step1: Vec<ClusterId>,
    /// Step 2: every cluster not covered by step 1.
    pub step2: Vec<ClusterId>,
}

impl SearchPlan {
    /// Builds the plan for a CPU living in `cpu_cluster`.
    pub fn new(layout: &ChipLayout, cpu_cluster: ClusterId) -> Self {
        let own_layer = layout.cluster_layer(cpu_cluster);
        // The lateral disc on the CPU's own layer...
        let mut step1 = vec![cpu_cluster];
        step1.extend(layout.lateral_neighbors(cpu_cluster));
        // ...plus everything a single pillar hop reaches: every cluster
        // of every other layer (§4.2.3).
        step1.extend(
            (0..layout.num_clusters())
                .map(ClusterId)
                .filter(|cl| layout.cluster_layer(*cl) != own_layer),
        );
        step1.sort_unstable();
        step1.dedup();
        let step2: Vec<ClusterId> = (0..layout.num_clusters())
            .map(ClusterId)
            .filter(|cl| !step1.contains(cl))
            .collect();
        Self {
            local: cpu_cluster,
            step1,
            step2,
        }
    }

    /// Which step (1 or 2) probes `cluster`; `None` if it is probed by
    /// neither (cannot happen for clusters of the same chip).
    pub fn step_of(&self, cluster: ClusterId) -> Option<u8> {
        if self.step1.contains(&cluster) {
            Some(1)
        } else if self.step2.contains(&cluster) {
            Some(2)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    #[test]
    fn plan_partitions_all_clusters() {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        for cl in 0..layout.num_clusters() {
            let plan = SearchPlan::new(&layout, ClusterId(cl));
            let covered = plan.step1.len() + plan.step2.len();
            assert_eq!(covered, layout.num_clusters() as usize);
            for c in 0..layout.num_clusters() {
                assert!(plan.step_of(ClusterId(c)).is_some());
            }
            // No overlap.
            for c in &plan.step1 {
                assert!(!plan.step2.contains(c));
            }
        }
    }

    #[test]
    fn step1_contains_local_lateral_and_vertical() {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let local = layout.cluster_at_grid(0, 1, 1); // interior: 3 lateral? grid is 4x2 so (1,1) has 3 lateral
        let plan = SearchPlan::new(&layout, local);
        assert!(plan.step1.contains(&local));
        for n in layout.lateral_neighbors(local) {
            assert!(plan.step1.contains(&n), "lateral {n} in step 1");
        }
        for v in layout.vertical_neighbors(local) {
            assert!(plan.step1.contains(&v), "vertical {v} in step 1");
        }
        assert_eq!(plan.local, local);
    }

    #[test]
    fn flat_chip_has_no_vertical_probes() {
        let layout = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        let plan = SearchPlan::new(&layout, ClusterId(5)); // interior of 4x4 grid
                                                           // local + up to 4 lateral, no vertical.
        assert!(plan.step1.len() <= 5);
        for cl in &plan.step1 {
            assert_eq!(layout.cluster_layer(*cl), 0);
        }
    }

    #[test]
    fn step1_covers_the_disc_plus_every_remote_cluster() {
        let layout = ChipLayout::new(&SystemConfig::default()).unwrap();
        let local = layout.cluster_at_grid(0, 1, 1);
        let plan = SearchPlan::new(&layout, local);
        let disc = 1 + layout.lateral_neighbors(local).len();
        let per_layer = layout.num_clusters() / u16::from(layout.layers());
        let remote = usize::from(layout.num_clusters() - per_layer);
        assert_eq!(
            plan.step1.len(),
            disc + remote,
            "own-layer disc + all pillar-reachable clusters (§4.2.3)"
        );
        // Step 2 is entirely on the CPU's own layer.
        for cl in &plan.step2 {
            assert_eq!(layout.cluster_layer(*cl), layout.cluster_layer(local));
        }
    }

    #[test]
    fn four_layer_vicinity_includes_whole_remote_layers() {
        let layout = ChipLayout::new(&SystemConfig::default().with_layers(4)).unwrap();
        let local = layout.cluster_at_grid(1, 0, 0);
        let plan = SearchPlan::new(&layout, local);
        for layer in [0u8, 2, 3] {
            let on_layer = plan
                .step1
                .iter()
                .filter(|cl| layout.cluster_layer(**cl) == layer)
                .count();
            assert_eq!(
                on_layer,
                usize::from(layout.num_clusters() / u16::from(layout.layers())),
                "every cluster of layer {layer} is one bus hop away"
            );
        }
    }
}
