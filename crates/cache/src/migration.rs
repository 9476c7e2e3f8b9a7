//! The cache-line migration policy (paper §4.2.3).
//!
//! Migration moves data *gradually* — one cluster-grid step per qualifying
//! access — toward the accessing processor:
//!
//! * **Intra-layer**: step toward the accessor's cluster, skipping over
//!   clusters that contain *other* processors (so their local access
//!   patterns are not disturbed); repeated access by a single processor
//!   eventually pulls the line into its local cluster.
//! * **Inter-layer**: step toward the cluster (on the line's own layer)
//!   that holds the accessor's pillar. Lines **never** cross layers —
//!   vertically adjacent clusters are already in the accessor's local
//!   vicinity through the single-hop pillar, and staying put saves
//!   migration traffic and power.

use nim_topology::ChipLayout;
use nim_types::{ClusterId, Coord, PillarId};

/// Computes the next cluster a line should migrate to after an access, or
/// `None` if the line should stay where it is.
///
/// ```
/// use nim_cache::migration_target;
/// use nim_topology::ChipLayout;
/// use nim_types::SystemConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let layout = ChipLayout::new(&SystemConfig::default().flattened())?;
/// let line = layout.cluster_at_grid(0, 3, 0);
/// let accessor = layout.cluster_at_grid(0, 0, 0);
/// let next = migration_target(&layout, line, accessor, None, &|_| false);
/// assert_eq!(next, Some(layout.cluster_at_grid(0, 2, 0)), "one step closer");
/// # Ok(())
/// # }
/// ```
///
/// * `line_cluster` — where the line currently lives.
/// * `accessor_cluster` — the cluster containing the accessing CPU.
/// * `accessor_pillar` — the accessing CPU's dedicated pillar (used for
///   the inter-layer case); `None` on a single-layer chip.
/// * `has_other_cpu(cl)` — whether cluster `cl` contains a processor
///   *other than* the accessing one.
pub fn migration_target(
    layout: &ChipLayout,
    line_cluster: ClusterId,
    accessor_cluster: ClusterId,
    accessor_pillar: Option<PillarId>,
    has_other_cpu: &dyn Fn(ClusterId) -> bool,
) -> Option<ClusterId> {
    if line_cluster == accessor_cluster {
        return None;
    }
    let line_layer = layout.cluster_layer(line_cluster);
    let acc_layer = layout.cluster_layer(accessor_cluster);
    let target = if line_layer == acc_layer {
        // Intra-layer: head for the accessor's own cluster.
        layout.cluster_grid_pos(accessor_cluster)
    } else {
        // Inter-layer: head for the pillar's cluster on the line's layer.
        let (px, py) = match accessor_pillar {
            Some(p) => layout.pillar_xy(p),
            None => {
                let c = layout.cluster_center(accessor_cluster);
                (c.x, c.y)
            }
        };
        let pillar_cluster = layout.cluster_of(Coord::new(px, py, line_layer));
        layout.cluster_grid_pos(pillar_cluster)
    };
    step_toward(layout, line_cluster, target, has_other_cpu)
}

/// One grid step from `from` toward grid position `target` on the same
/// layer, skipping (jumping over) occupied clusters. Every candidate must
/// strictly reduce the grid Manhattan distance to the target.
fn step_toward(
    layout: &ChipLayout,
    from: ClusterId,
    target: (u8, u8),
    has_other_cpu: &dyn Fn(ClusterId) -> bool,
) -> Option<ClusterId> {
    let layer = layout.cluster_layer(from);
    let (fx, fy) = layout.cluster_grid_pos(from);
    let (tx, ty) = target;
    if (fx, fy) == (tx, ty) {
        return None;
    }
    let (gw, gh) = layout.cluster_grid();
    let dist = |x: u8, y: u8| u32::from(x.abs_diff(tx)) + u32::from(y.abs_diff(ty));
    let here = dist(fx, fy);
    let dx: i16 = (i16::from(tx) - i16::from(fx)).signum();
    let dy: i16 = (i16::from(ty) - i16::from(fy)).signum();
    // Candidates in preference order: one step in x, skip-two in x, one
    // step in y, skip-two in y (x first, matching XY routing). An axis
    // already aligned contributes zero steps, which the distance check
    // below rejects — so the list is a fixed array, not an allocation
    // per migration decision.
    let candidates: [(i16, i16); 4] = [(dx, 0), (2 * dx, 0), (0, dy), (0, 2 * dy)];
    for (cx, cy) in candidates {
        let nx = i16::from(fx) + cx;
        let ny = i16::from(fy) + cy;
        if nx < 0 || ny < 0 || nx >= i16::from(gw) || ny >= i16::from(gh) {
            continue;
        }
        let (nx, ny) = (nx as u8, ny as u8);
        if dist(nx, ny) >= here {
            continue; // skipping must not move the line farther away
        }
        let cl = layout.cluster_at_grid(layer, nx, ny);
        if !has_other_cpu(cl) {
            return Some(cl);
        }
        // Occupied: fall through — the next candidate in the list is the
        // skip-over (or the other axis).
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    fn layout() -> ChipLayout {
        // 2 layers, cluster grid 4x2 per layer.
        ChipLayout::new(&SystemConfig::default()).unwrap()
    }

    fn flat_layout() -> ChipLayout {
        // 1 layer, cluster grid 4x4.
        ChipLayout::new(&SystemConfig::default().flattened()).unwrap()
    }

    const FREE: &dyn Fn(ClusterId) -> bool = &|_| false;

    #[test]
    fn local_lines_stay_put() {
        let l = layout();
        let cl = l.cluster_at_grid(0, 1, 1);
        assert_eq!(migration_target(&l, cl, cl, None, FREE), None);
    }

    #[test]
    fn intra_layer_moves_one_step_toward_accessor() {
        let l = flat_layout();
        let line = l.cluster_at_grid(0, 3, 3);
        let acc = l.cluster_at_grid(0, 0, 3);
        let next = migration_target(&l, line, acc, None, FREE).unwrap();
        assert_eq!(l.cluster_grid_pos(next), (2, 3), "x-first single step");
    }

    #[test]
    fn repeated_steps_reach_the_accessor_cluster() {
        let l = flat_layout();
        let acc = l.cluster_at_grid(0, 0, 0);
        let mut cur = l.cluster_at_grid(0, 3, 3);
        let mut steps = 0;
        while let Some(next) = migration_target(&l, cur, acc, None, FREE) {
            cur = next;
            steps += 1;
            assert!(steps <= 10, "must converge");
        }
        assert_eq!(cur, acc, "single-CPU access pulls the line all the way");
        assert_eq!(steps, 6, "3 x-steps + 3 y-steps");
    }

    #[test]
    fn occupied_cluster_is_skipped_over() {
        let l = flat_layout();
        let line = l.cluster_at_grid(0, 3, 0);
        let acc = l.cluster_at_grid(0, 0, 0);
        let blocked = l.cluster_at_grid(0, 2, 0);
        let occ = move |cl: ClusterId| cl == blocked;
        let next = migration_target(&l, line, acc, None, &occ).unwrap();
        assert_eq!(
            l.cluster_grid_pos(next),
            (1, 0),
            "jumps over the other CPU's cluster to the next closest"
        );
    }

    #[test]
    fn blocked_straight_line_falls_back_to_other_axis() {
        let l = flat_layout();
        let line = l.cluster_at_grid(0, 2, 1);
        let acc = l.cluster_at_grid(0, 0, 0);
        // Both x candidates blocked; y must be used.
        let b1 = l.cluster_at_grid(0, 1, 1);
        let b2 = l.cluster_at_grid(0, 0, 1);
        let occ = move |cl: ClusterId| cl == b1 || cl == b2;
        let next = migration_target(&l, line, acc, None, &occ).unwrap();
        assert_eq!(l.cluster_grid_pos(next), (2, 0));
    }

    #[test]
    fn adjacent_but_occupied_target_means_stay() {
        let l = flat_layout();
        let line = l.cluster_at_grid(0, 1, 0);
        let acc = l.cluster_at_grid(0, 0, 0);
        // The only improving candidate contains another CPU, and skipping
        // two would overshoot (not closer). Line must stay.
        let occ = move |cl: ClusterId| cl == acc;
        assert_eq!(migration_target(&l, line, acc, None, &occ), None);
    }

    #[test]
    fn inter_layer_lines_never_change_layers() {
        let l = layout();
        // Accessor on layer 0, line on layer 1.
        let acc = l.cluster_at_grid(0, 0, 0);
        let line = l.cluster_at_grid(1, 3, 1);
        let pillar = l.nearest_pillar(l.cluster_center(acc));
        let mut cur = line;
        for _ in 0..10 {
            match migration_target(&l, cur, acc, pillar, FREE) {
                Some(next) => {
                    assert_eq!(
                        l.cluster_layer(next),
                        1,
                        "inter-layer migration stays on the line's layer"
                    );
                    cur = next;
                }
                None => break,
            }
        }
        // Converged to the cluster holding the pillar's (x, y) on layer 1.
        let (px, py) = l.pillar_xy(pillar.unwrap());
        let expect = l.cluster_of(Coord::new(px, py, 1));
        assert_eq!(cur, expect);
    }

    #[test]
    fn convergence_is_monotone_in_grid_distance() {
        let l = flat_layout();
        let acc = l.cluster_at_grid(0, 1, 2);
        let target = l.cluster_grid_pos(acc);
        let mut cur = l.cluster_at_grid(0, 3, 0);
        let mut last = {
            let (x, y) = l.cluster_grid_pos(cur);
            u32::from(x.abs_diff(target.0)) + u32::from(y.abs_diff(target.1))
        };
        while let Some(next) = migration_target(&l, cur, acc, None, FREE) {
            let (x, y) = l.cluster_grid_pos(next);
            let d = u32::from(x.abs_diff(target.0)) + u32::from(y.abs_diff(target.1));
            assert!(d < last, "every step gets strictly closer");
            last = d;
            cur = next;
        }
        assert_eq!(cur, acc);
    }
}
