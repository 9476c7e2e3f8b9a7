//! Cluster-granular shard geometry for the parallel network engine.
//!
//! A *shard* is a contiguous run of **cluster rows** — horizontal bands
//! of one cluster height spanning a layer's full width. Node indexing is
//! layer-major ([`ChipLayout::node_index`]), so a run of cluster rows is
//! also a contiguous run of node indices: `node / nodes_per_shard` is the
//! owning shard with no lookup table. A chip with `layers` layers and a
//! `grid_h`-tall cluster grid has `layers * grid_h` cluster rows, so
//! valid shard counts are the divisors of that product — strictly more
//! than the layer-count divisors the engine's original layer-group cut
//! allowed (a 2-layer chip with `grid_h = 2` can be cut 4 ways).
//!
//! Besides the cut itself, the plan precomputes the two tables the
//! window executor's mesh-boundary lookahead needs:
//!
//! * [`ShardPlan::band`] — the y-interval of each layer a shard owns
//!   (shards need not own whole layers, and may span layer boundaries);
//! * [`ShardPlan::boundary_dist`] — per node, the Manhattan distance in
//!   mesh hops to the nearest *same-layer* router owned by another
//!   shard. Under dimension-order routing every hop costs at least one
//!   router dwell, so `movable + (dist - 1) × router_latency` is a sound
//!   lower bound on when a flit standing at the node could first enter
//!   foreign territory.

use crate::layout::ChipLayout;

/// How a chip layout is cut into equally-sized, node-contiguous shards
/// of whole cluster rows, plus the boundary-distance tables the
/// conservative window planner derives its mesh-boundary lookahead from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    nodes_per_shard: usize,
    layers: u8,
    height: u8,
    /// Owned y-band per `(shard, layer)`, indexed `shard * layers + layer`;
    /// `None` when the shard owns no nodes on that layer.
    bands: Vec<Option<(u8, u8)>>,
    /// Per-node mesh hops to the nearest same-layer router of another
    /// shard; `u32::MAX` when the owning shard has no same-layer cut
    /// there (i.e. it owns the layer's full height).
    boundary_dist: Vec<u32>,
}

impl ShardPlan {
    /// Cluster rows available for cutting: `layers × grid_h`.
    pub fn cluster_rows(layout: &ChipLayout) -> usize {
        usize::from(layout.layers()) * usize::from(layout.cluster_grid().1)
    }

    /// Builds the plan, clamping `requested` to the largest valid shard
    /// count not exceeding it (so any request is safe).
    pub fn new(layout: &ChipLayout, requested: usize) -> Self {
        let rows = Self::cluster_rows(layout);
        let req = requested.clamp(1, rows);
        let shards = (1..=req)
            .rev()
            .find(|&d| rows.is_multiple_of(d))
            .unwrap_or(1);
        let rows_per_shard = rows / shards;
        let layers = layout.layers();
        let grid_h = usize::from(layout.cluster_grid().1);
        let cluster_h = usize::from(layout.cluster_dims().1);
        let mut bands = vec![None; shards * usize::from(layers)];
        for s in 0..shards {
            let (r0, r1) = (s * rows_per_shard, (s + 1) * rows_per_shard - 1);
            for layer in 0..usize::from(layers) {
                let (lr0, lr1) = (layer * grid_h, (layer + 1) * grid_h - 1);
                let (a, b) = (r0.max(lr0), r1.min(lr1));
                if a <= b {
                    bands[s * usize::from(layers) + layer] = Some((
                        ((a - lr0) * cluster_h) as u8,
                        ((b - lr0 + 1) * cluster_h - 1) as u8,
                    ));
                }
            }
        }
        let nodes_per_shard = layout.num_nodes() / shards;
        let height = layout.height();
        let mut boundary_dist = vec![u32::MAX; layout.num_nodes()];
        for (idx, dist) in boundary_dist.iter_mut().enumerate() {
            let c = layout.coord_of_index(idx);
            let s = idx / nodes_per_shard;
            let (y0, y1) = bands[s * usize::from(layers) + usize::from(c.layer)]
                .expect("node lies in its shard's band");
            debug_assert!((y0..=y1).contains(&c.y));
            if y0 > 0 {
                *dist = (*dist).min(u32::from(c.y - y0) + 1);
            }
            if y1 + 1 < height {
                *dist = (*dist).min(u32::from(y1 - c.y) + 1);
            }
        }
        Self {
            shards,
            nodes_per_shard,
            layers,
            height,
            bands,
            boundary_dist,
        }
    }

    /// Number of shards the chip is cut into (≥ 1).
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Nodes per shard; shards are node-contiguous, so
    /// `node / nodes_per_shard` is the owning shard.
    #[inline]
    pub fn nodes_per_shard(&self) -> usize {
        self.nodes_per_shard
    }

    /// The shard owning a (layer-major) node index.
    #[inline]
    pub fn shard_of_node(&self, node: usize) -> usize {
        node / self.nodes_per_shard
    }

    /// The inclusive y-interval of `layer` owned by `shard`, or `None`
    /// when the shard owns no nodes on that layer.
    #[inline]
    pub fn band(&self, shard: usize, layer: u8) -> Option<(u8, u8)> {
        self.bands[shard * usize::from(self.layers) + usize::from(layer)]
    }

    /// Mesh hops from the node to the nearest same-layer router owned by
    /// another shard, or `None` when its shard owns the layer's full
    /// height there (layer-aligned cuts have no same-layer boundary).
    #[inline]
    pub fn boundary_dist(&self, node: usize) -> Option<u32> {
        let d = self.boundary_dist[node];
        (d != u32::MAX).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    fn layout(layers: u8) -> ChipLayout {
        let mut cfg = SystemConfig::default();
        cfg.network.layers = layers;
        ChipLayout::new(&cfg).expect("valid layout")
    }

    #[test]
    fn cluster_rows_are_layers_times_grid_height() {
        // Default 2-layer chip: 16x8 mesh, 4x2 cluster grid -> 4 rows.
        assert_eq!(ShardPlan::cluster_rows(&layout(2)), 4);
        // 4-layer chip: 8x8 mesh, 2x2 cluster grid -> 8 rows.
        assert_eq!(ShardPlan::cluster_rows(&layout(4)), 8);
    }

    #[test]
    fn requests_clamp_to_the_largest_valid_count() {
        let l2 = layout(2);
        for (req, want) in [(0, 1), (1, 1), (2, 2), (3, 2), (4, 4), (64, 4)] {
            assert_eq!(ShardPlan::new(&l2, req).shards(), want, "request {req}");
        }
    }

    #[test]
    fn bands_partition_every_layer_and_match_ownership() {
        // Every divisor of the cluster-row count is a valid cut.
        for (layers, counts) in [(2u8, &[1, 2, 4][..]), (4, &[1, 2, 4, 8])] {
            let lay = layout(layers);
            for &shards in counts {
                let plan = ShardPlan::new(&lay, shards);
                assert_eq!(plan.shards(), shards);
                assert_eq!(plan.nodes_per_shard() * shards, lay.num_nodes());
                for idx in 0..lay.num_nodes() {
                    let c = lay.coord_of_index(idx);
                    let s = plan.shard_of_node(idx);
                    let (y0, y1) = plan.band(s, c.layer).expect("owned band");
                    assert!(
                        (y0..=y1).contains(&c.y),
                        "node {idx} outside its shard's band"
                    );
                }
                // Bands tile each layer exactly.
                for layer in 0..layers {
                    let mut covered = vec![false; usize::from(lay.height())];
                    for s in 0..shards {
                        if let Some((y0, y1)) = plan.band(s, layer) {
                            for y in y0..=y1 {
                                assert!(!covered[usize::from(y)], "overlapping bands");
                                covered[usize::from(y)] = true;
                            }
                        }
                    }
                    assert!(
                        covered.iter().all(|&c| c),
                        "uncovered rows on layer {layer}"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_dist_counts_hops_to_the_cut() {
        let lay = layout(2);
        // 4 shards on 2 layers cut each layer at mid-height (y = 4).
        let plan = ShardPlan::new(&lay, 4);
        for idx in 0..lay.num_nodes() {
            let c = lay.coord_of_index(idx);
            let want = if c.y < 4 { 4 - c.y } else { c.y - 3 };
            assert_eq!(plan.boundary_dist(idx), Some(u32::from(want)), "node {idx}");
        }
        // Layer-aligned cuts have no same-layer boundary anywhere.
        let aligned = ShardPlan::new(&lay, 2);
        assert!((0..lay.num_nodes()).all(|i| aligned.boundary_dist(i).is_none()));
    }
}
