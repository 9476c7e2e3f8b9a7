//! [`ChipLayout`]: all geometry of the stacked chip, derived from a
//! [`SystemConfig`].
//!
//! The layout answers every "where is it?" question the rest of the
//! simulator asks: which mesh node a bank occupies, which cluster a node
//! belongs to, where the pillars stand, which clusters are lateral or
//! vertical neighbours of which. It is pure geometry — no simulation state.

use core::error::Error;
use core::fmt;

use nim_types::{BankId, ClusterId, Coord, PillarId, SystemConfig};

/// Error building a [`ChipLayout`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The cluster count does not divide evenly across the layers.
    ClustersPerLayer {
        /// Total clusters.
        clusters: u32,
        /// Device layers.
        layers: u8,
    },
    /// More pillars requested than interior mesh positions available.
    TooManyPillars {
        /// Requested pillar count.
        pillars: u16,
        /// Interior positions available.
        available: u32,
    },
    /// The mesh is too large for 8-bit coordinates.
    MeshTooLarge {
        /// Computed layer width.
        width: u32,
        /// Computed layer height.
        height: u32,
    },
    /// The underlying configuration failed validation.
    Config(nim_types::ConfigError),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ClustersPerLayer { clusters, layers } => {
                write!(
                    f,
                    "{clusters} clusters do not divide across {layers} layers"
                )
            }
            TopologyError::TooManyPillars { pillars, available } => {
                write!(
                    f,
                    "{pillars} pillars requested, only {available} interior positions"
                )
            }
            TopologyError::MeshTooLarge { width, height } => {
                write!(f, "mesh {width}x{height} exceeds 8-bit coordinates")
            }
            TopologyError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl Error for TopologyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TopologyError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nim_types::ConfigError> for TopologyError {
    fn from(e: nim_types::ConfigError) -> Self {
        TopologyError::Config(e)
    }
}

/// Splits `n` into `(a, b)` with `a * b == n`, `a >= b`, and `a - b`
/// minimal — the most nearly square factorisation.
fn balanced_factors(n: u32) -> (u32, u32) {
    debug_assert!(n > 0);
    let mut b = (n as f64).sqrt() as u32;
    while b > 1 && !n.is_multiple_of(b) {
        b -= 1;
    }
    (n / b.max(1), b.max(1))
}

/// Geometry of the stacked chip.
///
/// Immutable once constructed; cheap to clone (a few dozen words, the
/// pillar position list, one byte-pair per `(x, y)` of a layer and one
/// coordinate per cluster and per bank).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChipLayout {
    layers: u8,
    width: u8,
    height: u8,
    /// Cluster extent in x (banks).
    cluster_w: u8,
    /// Cluster extent in y (banks).
    cluster_h: u8,
    /// Cluster-grid extent in x (clusters per layer row).
    grid_w: u8,
    /// Cluster-grid extent in y.
    grid_h: u8,
    clusters_per_layer: u16,
    banks_per_cluster: u32,
    /// Pillar positions, shared by every layer.
    pillars: Vec<(u8, u8)>,
    /// `nearest[y * width + x]`: the pillar nearest to each position
    /// (lowest id on ties); empty when the chip has no pillars.
    nearest: Vec<PillarId>,
    /// `centers[cl]`: each cluster's centre node; its `layer` is the
    /// cluster's layer.
    centers: Vec<Coord>,
    /// `bank_nodes[b]`: the mesh node of each bank.
    bank_nodes: Vec<Coord>,
}

impl ChipLayout {
    /// Builds the layout for a configuration.
    ///
    /// Banks per cluster and clusters per layer are each factored as close
    /// to square as possible, orienting the cluster grid so that the full
    /// layer is as square as possible. Pillars are spread uniformly over
    /// the interior of the layer (not on edges — paper §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if the configuration is invalid, the
    /// clusters do not divide across layers, or the requested pillar count
    /// cannot be seated in the interior of the mesh.
    pub fn new(cfg: &SystemConfig) -> Result<Self, TopologyError> {
        cfg.validate()?;
        let layers = cfg.network.layers;
        let clusters = cfg.l2.clusters;
        if !clusters.is_multiple_of(u32::from(layers)) {
            return Err(TopologyError::ClustersPerLayer { clusters, layers });
        }
        let clusters_per_layer = clusters / u32::from(layers);
        let (cw, ch) = balanced_factors(cfg.l2.banks_per_cluster);
        // Orient the cluster grid to make the layer as square as possible.
        let (ga, gb) = balanced_factors(clusters_per_layer);
        let candidates = [(ga, gb), (gb, ga)];
        let (grid_w, grid_h) = candidates
            .into_iter()
            .min_by_key(|&(gx, gy)| {
                let w = gx * cw;
                let h = gy * ch;
                let (hi, lo) = if w > h { (w, h) } else { (h, w) };
                // Scaled aspect ratio; ties broken by the first candidate.
                hi * 1000 / lo
            })
            .expect("two candidates");
        let width = grid_w * cw;
        let height = grid_h * ch;
        if width > u8::MAX as u32 || height > u8::MAX as u32 {
            return Err(TopologyError::MeshTooLarge { width, height });
        }
        let pillar_count = if layers > 1 { cfg.network.pillars } else { 0 };
        let interior = (width.saturating_sub(2)) * (height.saturating_sub(2));
        if u32::from(pillar_count) > interior.max(width * height) {
            return Err(TopologyError::TooManyPillars {
                pillars: pillar_count,
                available: interior,
            });
        }
        let pillars = pillar_sites(pillar_count, width as u8, height as u8);
        if pillars.len() < pillar_count as usize {
            return Err(TopologyError::TooManyPillars {
                pillars: pillar_count,
                available: width * height,
            });
        }
        let mut layout = Self {
            layers,
            width: width as u8,
            height: height as u8,
            cluster_w: cw as u8,
            cluster_h: ch as u8,
            grid_w: grid_w as u8,
            grid_h: grid_h as u8,
            clusters_per_layer: clusters_per_layer as u16,
            banks_per_cluster: cfg.l2.banks_per_cluster,
            pillars,
            nearest: Vec::new(),
            centers: Vec::new(),
            bank_nodes: Vec::new(),
        };
        if layout.num_pillars() > 0 {
            layout.nearest = (0..layout.nodes_per_layer())
                .map(|i| layout.nearest_by_scan(layout.coord_of_index(i)))
                .collect::<Option<_>>()
                .expect("pillars are non-empty");
        }
        layout.centers = (0..layout.num_clusters())
            .map(|cl| layout.center_by_arithmetic(ClusterId(cl)))
            .collect();
        layout.bank_nodes = (0..layout.num_nodes() as u32)
            .map(|b| layout.bank_node_by_arithmetic(BankId(b)))
            .collect();
        Ok(layout)
    }

    /// Number of device layers.
    #[inline]
    pub const fn layers(&self) -> u8 {
        self.layers
    }

    /// Mesh width (nodes) of one layer.
    #[inline]
    pub const fn width(&self) -> u8 {
        self.width
    }

    /// Mesh height (nodes) of one layer.
    #[inline]
    pub const fn height(&self) -> u8 {
        self.height
    }

    /// Total mesh nodes across all layers (one bank per node).
    #[inline]
    pub const fn num_nodes(&self) -> usize {
        self.width as usize * self.height as usize * self.layers as usize
    }

    /// Nodes per layer.
    #[inline]
    pub(crate) const fn nodes_per_layer(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Total clusters.
    #[inline]
    pub const fn num_clusters(&self) -> u16 {
        self.clusters_per_layer * self.layers as u16
    }

    /// Cluster-grid extent `(w, h)` in clusters per layer.
    #[inline]
    pub const fn cluster_grid(&self) -> (u8, u8) {
        (self.grid_w, self.grid_h)
    }

    /// Whether a coordinate lies on the mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height && c.layer < self.layers
    }

    /// Dense index of a node, suitable for indexing router arrays.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    #[inline]
    pub fn node_index(&self, c: Coord) -> usize {
        assert!(self.contains(c), "coordinate {c} outside mesh");
        (c.layer as usize * self.height as usize + c.y as usize) * self.width as usize
            + c.x as usize
    }

    /// Inverse of [`node_index`](Self::node_index).
    #[inline]
    pub fn coord_of_index(&self, index: usize) -> Coord {
        debug_assert!(index < self.num_nodes());
        let per_layer = self.nodes_per_layer();
        let layer = (index / per_layer) as u8;
        let rem = index % per_layer;
        Coord::new(
            (rem % self.width as usize) as u8,
            (rem / self.width as usize) as u8,
            layer,
        )
    }

    /// The cluster containing a node.
    #[inline]
    pub fn cluster_of(&self, c: Coord) -> ClusterId {
        debug_assert!(self.contains(c));
        let gx = c.x / self.cluster_w;
        let gy = c.y / self.cluster_h;
        ClusterId(
            u16::from(c.layer) * self.clusters_per_layer
                + u16::from(gy) * u16::from(self.grid_w)
                + u16::from(gx),
        )
    }

    /// Layer a cluster lives on (one indexed load).
    #[inline]
    pub fn cluster_layer(&self, cl: ClusterId) -> u8 {
        self.centers[cl.index()].layer
    }

    /// Grid position `(gx, gy)` of a cluster within its layer.
    #[inline]
    pub fn cluster_grid_pos(&self, cl: ClusterId) -> (u8, u8) {
        let within = cl.0 % self.clusters_per_layer;
        (
            (within % u16::from(self.grid_w)) as u8,
            (within / u16::from(self.grid_w)) as u8,
        )
    }

    /// The cluster at a grid position on a layer.
    #[inline]
    pub fn cluster_at_grid(&self, layer: u8, gx: u8, gy: u8) -> ClusterId {
        debug_assert!(layer < self.layers && gx < self.grid_w && gy < self.grid_h);
        ClusterId(
            u16::from(layer) * self.clusters_per_layer
                + u16::from(gy) * u16::from(self.grid_w)
                + u16::from(gx),
        )
    }

    /// The node at the (rounded-down) centre of a cluster — where its tag
    /// array sits and where distance-to-cluster is measured from. One
    /// indexed load from the table [`new`](Self::new) builds: every
    /// probe and every search step asks.
    ///
    /// # Panics
    ///
    /// Panics if the cluster id is out of range.
    #[inline]
    pub fn cluster_center(&self, cl: ClusterId) -> Coord {
        self.centers[cl.index()]
    }

    /// The mesh node of a bank: banks fill each cluster row-major. One
    /// indexed load, like [`cluster_center`](Self::cluster_center).
    ///
    /// # Panics
    ///
    /// Panics if the bank id is out of range.
    #[inline]
    pub fn coord_of_bank(&self, bank: BankId) -> Coord {
        self.bank_nodes[bank.0 as usize]
    }

    /// The arithmetic the `centers` table is built from (and tested
    /// against).
    fn center_by_arithmetic(&self, cl: ClusterId) -> Coord {
        let (gx, gy) = self.cluster_grid_pos(cl);
        Coord::new(
            gx * self.cluster_w + self.cluster_w / 2,
            gy * self.cluster_h + self.cluster_h / 2,
            (cl.0 / self.clusters_per_layer) as u8,
        )
    }

    /// The arithmetic the `bank_nodes` table is built from (and tested
    /// against).
    fn bank_node_by_arithmetic(&self, bank: BankId) -> Coord {
        let cluster = ClusterId((bank.0 / self.banks_per_cluster) as u16);
        let within = bank.0 % self.banks_per_cluster;
        let (gx, gy) = self.cluster_grid_pos(cluster);
        let lx = (within % u32::from(self.cluster_w)) as u8;
        let ly = (within / u32::from(self.cluster_w)) as u8;
        Coord::new(
            gx * self.cluster_w + lx,
            gy * self.cluster_h + ly,
            (cluster.0 / self.clusters_per_layer) as u8,
        )
    }

    /// Clusters sharing a grid edge with `cl` on the same layer.
    pub fn lateral_neighbors(&self, cl: ClusterId) -> Vec<ClusterId> {
        let layer = self.cluster_layer(cl);
        let (gx, gy) = self.cluster_grid_pos(cl);
        let mut out = Vec::with_capacity(4);
        if gx > 0 {
            out.push(self.cluster_at_grid(layer, gx - 1, gy));
        }
        if gx + 1 < self.grid_w {
            out.push(self.cluster_at_grid(layer, gx + 1, gy));
        }
        if gy > 0 {
            out.push(self.cluster_at_grid(layer, gx, gy - 1));
        }
        if gy + 1 < self.grid_h {
            out.push(self.cluster_at_grid(layer, gx, gy + 1));
        }
        out
    }

    /// Clusters at the same grid position on every *other* layer — the
    /// clusters reachable in a single pillar hop, which the search policy
    /// treats as local vicinity (paper §4.2.1).
    pub fn vertical_neighbors(&self, cl: ClusterId) -> Vec<ClusterId> {
        let layer = self.cluster_layer(cl);
        let (gx, gy) = self.cluster_grid_pos(cl);
        (0..self.layers)
            .filter(|&l| l != layer)
            .map(|l| self.cluster_at_grid(l, gx, gy))
            .collect()
    }

    /// Number of pillars (zero on a single-layer chip).
    #[inline]
    pub fn num_pillars(&self) -> u16 {
        self.pillars.len() as u16
    }

    /// The `(x, y)` position of a pillar (valid on every layer).
    ///
    /// # Panics
    ///
    /// Panics if the pillar id is out of range.
    #[inline]
    pub fn pillar_xy(&self, p: PillarId) -> (u8, u8) {
        self.pillars[p.index()]
    }

    /// The pillar's node on a given layer.
    #[inline]
    pub fn pillar_coord(&self, p: PillarId, layer: u8) -> Coord {
        let (x, y) = self.pillar_xy(p);
        Coord::new(x, y, layer)
    }

    /// Whether the node at `c` is a pillar node (hosts a vertical port).
    pub fn is_pillar_node(&self, c: Coord) -> bool {
        self.pillars.iter().any(|&(x, y)| x == c.x && y == c.y)
    }

    /// The pillar whose position is nearest to `c` (2D Manhattan, lowest
    /// id on ties); `None` on a single-layer chip. One indexed load from
    /// the table [`new`](Self::new) builds — cheap enough for the
    /// per-flit routing path.
    #[inline]
    pub fn nearest_pillar(&self, c: Coord) -> Option<PillarId> {
        if self.nearest.is_empty() {
            return None;
        }
        Some(self.nearest[c.y as usize * self.width as usize + c.x as usize])
    }

    /// The linear scan the `nearest` table is built from (and tested
    /// against): the first pillar id among the 2D-Manhattan minima.
    pub(crate) fn nearest_by_scan(&self, c: Coord) -> Option<PillarId> {
        self.pillars
            .iter()
            .enumerate()
            .min_by_key(|(_, &(x, y))| c.manhattan_2d(Coord::new(x, y, c.layer)))
            .map(|(i, _)| PillarId::from_index(i))
    }

    /// Positions of `n` memory controllers: evenly spaced around the
    /// perimeter of layer 0, where the package's DRAM channels attach.
    pub fn memory_controller_coords(&self, n: u16) -> Vec<Coord> {
        let w = u32::from(self.width);
        let h = u32::from(self.height);
        let perimeter = if w > 1 && h > 1 {
            2 * (w + h) - 4
        } else {
            w * h
        };
        (0..u32::from(n))
            .map(|i| {
                // Offset by half a stride so controllers sit mid-edge
                // rather than on corners.
                let pos =
                    (i * perimeter + perimeter / (2 * u32::from(n).max(1))) / u32::from(n).max(1);
                let (x, y) = perimeter_point(pos, w, h);
                Coord::new(x as u8, y as u8, 0)
            })
            .collect()
    }

    /// Router hops between two nodes under the paper's routing: XY within a
    /// layer; cross-layer via the given pillar (one bus hop).
    pub fn hops(&self, from: Coord, to: Coord, via: Option<PillarId>) -> u32 {
        if from.same_layer(to) {
            from.manhattan_2d(to)
        } else {
            let p = via
                .or_else(|| self.nearest_pillar(from))
                .expect("cross-layer route on a chip without pillars");
            from.hop_distance_via_pillar(to, self.pillar_coord(p, from.layer))
        }
    }
}

/// Chooses pillar positions by the paper's rule (§3.3): pillars are
/// placed *as far apart from each other as possible* within the layer to
/// avoid congested areas, but never on the edges. A uniform interior
/// lattice realises this for most counts; for two pillars the lattice
/// would collapse onto the centre row, so a quarter-inset diagonal keeps
/// them genuinely far apart.
fn pillar_sites(n: u16, w: u8, h: u8) -> Vec<(u8, u8)> {
    if n == 2 && w >= 4 && h >= 4 {
        let (x0, y0) = (w / 4, h / 4);
        let (x1, y1) = (w - 1 - w / 4, h - 1 - h / 4);
        return vec![(x0, y0), (x1, y1)];
    }
    spread_positions(n, w, h)
}

/// Walks the layer perimeter clockwise from the south-west corner
/// (shared by edge CPU placement and memory-controller placement).
pub(crate) fn perimeter_point(pos: u32, w: u32, h: u32) -> (u32, u32) {
    let pos = pos % (2 * (w + h) - 4).max(1);
    if pos < w {
        (pos, 0) // south edge, west to east
    } else if pos < w + h - 1 {
        (w - 1, pos - w + 1) // east edge, south to north
    } else if pos < 2 * w + h - 2 {
        (w - 1 - (pos - (w + h - 1)) - 1, h - 1) // north edge, east to west
    } else {
        (0, h - 1 - (pos - (2 * w + h - 2)) - 1) // west edge, north to south
    }
}

/// Spreads `n` positions uniformly over the interior of a `w × h` mesh.
///
/// Positions form an `a × b` lattice (`a ≥ b` oriented along the longer
/// mesh side), each at the centre of its lattice cell, clamped one node
/// away from the mesh edge when the mesh is large enough. Interior CPU
/// placement uses the same spreading rule as pillars.
pub(crate) fn spread_positions(n: u16, w: u8, h: u8) -> Vec<(u8, u8)> {
    if n == 0 {
        return Vec::new();
    }
    let (a, b) = balanced_factors(u32::from(n));
    let (nx, ny) = if w >= h { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(n as usize);
    for j in 0..ny {
        for i in 0..nx {
            let x = ((2 * i + 1) * u32::from(w)) / (2 * nx);
            let y = ((2 * j + 1) * u32::from(h)) / (2 * ny);
            let clamp = |v: u32, max: u8| -> u8 {
                if max >= 3 {
                    (v as u8).clamp(1, max - 2)
                } else {
                    (v as u8).min(max - 1)
                }
            };
            out.push((clamp(x, w), clamp(y, h)));
        }
    }
    out.sort_unstable();
    out.dedup();
    // Extremely dense requests can collide after clamping; nudge the
    // duplicates to free positions (deterministic scan, interior first,
    // then the whole mesh). If the mesh genuinely has fewer positions
    // than requested, return what fits — the caller checks the count.
    let mut used: std::collections::HashSet<(u8, u8)> = out.iter().copied().collect();
    'refill: while out.len() < n as usize {
        for y in 0..h {
            for x in 0..w {
                if used.insert((x, y)) {
                    out.push((x, y));
                    continue 'refill;
                }
            }
        }
        break; // the mesh is full
    }
    out.truncate(n as usize);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nim_types::SystemConfig;

    fn default_layout() -> ChipLayout {
        ChipLayout::new(&SystemConfig::default()).expect("default layout")
    }

    #[test]
    fn default_layout_is_16x8_times_2() {
        let l = default_layout();
        assert_eq!(l.layers(), 2);
        assert_eq!((l.width(), l.height()), (16, 8));
        assert_eq!(l.num_nodes(), 256);
        assert_eq!((l.cluster_w, l.cluster_h), (4, 4));
        assert_eq!(l.cluster_grid(), (4, 2));
        assert_eq!(l.clusters_per_layer, 8);
        assert_eq!(l.num_clusters(), 16);
    }

    #[test]
    fn flat_layout_is_16x16() {
        let l = ChipLayout::new(&SystemConfig::default().flattened()).unwrap();
        assert_eq!((l.width(), l.height(), l.layers()), (16, 16, 1));
        assert_eq!(l.num_pillars(), 0);
    }

    #[test]
    fn four_layer_layout_is_8x8() {
        let l = ChipLayout::new(&SystemConfig::default().with_layers(4)).unwrap();
        assert_eq!((l.width(), l.height(), l.layers()), (8, 8, 4));
        assert_eq!(l.clusters_per_layer, 4);
    }

    #[test]
    fn node_index_round_trips() {
        let l = default_layout();
        for i in 0..l.num_nodes() {
            let c = l.coord_of_index(i);
            assert_eq!(l.node_index(c), i);
            assert!(l.contains(c));
        }
    }

    #[test]
    fn bank_coord_round_trips_and_covers_all_nodes() {
        let l = default_layout();
        let mut seen = vec![false; l.num_nodes()];
        for b in 0..256u32 {
            let c = l.coord_of_bank(BankId(b));
            let cluster = u32::from(l.cluster_of(c).0);
            let within = u32::from(c.y % l.cluster_h) * u32::from(l.cluster_w)
                + u32::from(c.x % l.cluster_w);
            assert_eq!(cluster * l.banks_per_cluster + within, b);
            seen[l.node_index(c)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every node hosts a bank");
    }

    #[test]
    fn clusters_partition_banks() {
        let l = default_layout();
        let mut banks = vec![0u32; usize::from(l.num_clusters())];
        for b in 0..256u32 {
            banks[l.cluster_of(l.coord_of_bank(BankId(b))).index()] += 1;
        }
        assert!(banks.iter().all(|&n| n == l.banks_per_cluster), "{banks:?}");
    }

    #[test]
    fn geometry_tables_equal_the_arithmetic() {
        for layers in [1u8, 2, 4, 8] {
            for scale in [1u32, 2, 4] {
                let mut cfg = SystemConfig::default().with_layers(layers);
                cfg.l2 = cfg.l2.scaled(scale);
                let l = ChipLayout::new(&cfg).expect("layout builds");
                let label = format!("{layers} layers, l2 scale {scale}");
                for cl in (0..l.num_clusters()).map(ClusterId) {
                    let c = l.center_by_arithmetic(cl);
                    assert_eq!(l.cluster_center(cl), c, "{label}: {cl}");
                    assert_eq!(l.cluster_layer(cl), c.layer, "{label}: {cl}");
                    assert_eq!(u16::from(c.layer), cl.0 / l.clusters_per_layer);
                }
                assert_eq!(l.bank_nodes.len(), l.num_nodes(), "{label}");
                for b in (0..l.num_nodes() as u32).map(BankId) {
                    let want = l.bank_node_by_arithmetic(b);
                    assert_eq!(l.coord_of_bank(b), want, "{label}: bank {}", b.0);
                }
            }
        }
    }

    #[test]
    fn cluster_center_is_inside_cluster() {
        let l = default_layout();
        for cl in 0..l.num_clusters() {
            let c = l.cluster_center(ClusterId(cl));
            assert_eq!(l.cluster_of(c), ClusterId(cl));
        }
    }

    #[test]
    fn lateral_neighbors_are_adjacent_same_layer() {
        let l = default_layout();
        for cl in 0..l.num_clusters() {
            let cl = ClusterId(cl);
            for n in l.lateral_neighbors(cl) {
                assert_eq!(l.cluster_layer(n), l.cluster_layer(cl));
                let (ax, ay) = l.cluster_grid_pos(cl);
                let (bx, by) = l.cluster_grid_pos(n);
                assert_eq!((ax.abs_diff(bx) + ay.abs_diff(by)), 1, "grid-adjacent");
            }
        }
    }

    #[test]
    fn vertical_neighbors_share_grid_pos_differ_in_layer() {
        let l = default_layout();
        let cl = ClusterId(0);
        let vs = l.vertical_neighbors(cl);
        assert_eq!(vs.len(), 1); // 2 layers -> exactly one vertical neighbor
        assert_eq!(l.cluster_grid_pos(vs[0]), l.cluster_grid_pos(cl));
        assert_ne!(l.cluster_layer(vs[0]), l.cluster_layer(cl));
    }

    #[test]
    fn default_pillars_are_interior_and_distinct() {
        let l = default_layout();
        assert_eq!(l.num_pillars(), 8);
        let mut seen = std::collections::HashSet::new();
        for p in 0..8u16 {
            let (x, y) = l.pillar_xy(PillarId(p));
            assert!(x >= 1 && x <= l.width() - 2, "pillar x interior");
            assert!(y >= 1 && y <= l.height() - 2, "pillar y interior");
            assert!(seen.insert((x, y)), "pillar positions distinct");
            assert!(l.is_pillar_node(Coord::new(x, y, 0)));
            assert!(l.is_pillar_node(Coord::new(x, y, 1)), "pillar spans layers");
        }
    }

    #[test]
    fn nearest_pillar_is_actually_nearest() {
        let l = default_layout();
        for i in 0..l.num_nodes() {
            let c = l.coord_of_index(i);
            let p = l.nearest_pillar(c).unwrap();
            let (px, py) = l.pillar_xy(p);
            let d = c.manhattan_2d(Coord::new(px, py, c.layer));
            for q in 0..l.num_pillars() {
                let (qx, qy) = l.pillar_xy(PillarId(q));
                assert!(d <= c.manhattan_2d(Coord::new(qx, qy, c.layer)));
            }
        }
    }

    #[test]
    fn hops_same_layer_is_manhattan() {
        let l = default_layout();
        let a = Coord::new(0, 0, 0);
        let b = Coord::new(5, 3, 0);
        assert_eq!(l.hops(a, b, None), 8);
    }

    #[test]
    fn hops_cross_layer_uses_pillar() {
        let l = default_layout();
        let p = PillarId(0);
        let (px, py) = l.pillar_xy(p);
        let a = Coord::new(px, py, 0);
        let b = Coord::new(px, py, 1);
        assert_eq!(l.hops(a, b, Some(p)), 1, "on-pillar cross-layer is one hop");
    }

    #[test]
    fn odd_cluster_division_is_rejected() {
        let mut cfg = SystemConfig::default();
        cfg.network.layers = 8; // paper limit is 8; but 16 clusters / 8 = 2, fine
        assert!(ChipLayout::new(&cfg).is_ok());
        cfg.network.layers = 5;
        assert!(matches!(
            ChipLayout::new(&cfg),
            Err(TopologyError::ClustersPerLayer { .. })
        ));
    }

    #[test]
    fn invalid_config_is_surfaced() {
        let cfg = SystemConfig {
            num_cpus: 0,
            ..SystemConfig::default()
        };
        assert!(matches!(
            ChipLayout::new(&cfg),
            Err(TopologyError::Config(_))
        ));
    }

    #[test]
    fn scaled_l2_layouts_grow() {
        let mut cfg = SystemConfig::default();
        cfg.l2 = cfg.l2.scaled(2); // 32 MB
        let l = ChipLayout::new(&cfg).unwrap();
        assert_eq!(l.num_nodes(), 512);
        cfg.l2 = SystemConfig::default().l2.scaled(4); // 64 MB
        let l = ChipLayout::new(&cfg).unwrap();
        assert_eq!(l.num_nodes(), 1024);
    }

    #[test]
    fn balanced_factors_are_balanced() {
        assert_eq!(balanced_factors(16), (4, 4));
        assert_eq!(balanced_factors(8), (4, 2));
        assert_eq!(balanced_factors(2), (2, 1));
        assert_eq!(balanced_factors(1), (1, 1));
        assert_eq!(balanced_factors(7), (7, 1));
    }

    #[test]
    fn pillar_sites_are_distinct_and_interior_on_every_stack() {
        // The 2-, 4- and 8-layer restackings of the paper's 256 banks.
        for (w, h) in [(16u8, 8u8), (8, 8), (8, 4)] {
            for n in [1u16, 2, 4, 8, 16] {
                let sites = pillar_sites(n, w, h);
                assert_eq!(sites.len(), n as usize, "{w}x{h} n={n}");
                let set: std::collections::HashSet<_> = sites.iter().collect();
                assert_eq!(set.len(), n as usize, "distinct on {w}x{h} n={n}");
                // Never on an edge (§3.3) while the interior has room.
                if u32::from(n) <= u32::from(w - 2) * u32::from(h - 2) {
                    for &(x, y) in &sites {
                        assert!((1..=w - 2).contains(&x), "{w}x{h} n={n} x={x}");
                        assert!((1..=h - 2).contains(&y), "{w}x{h} n={n} y={y}");
                    }
                }
            }
        }
    }

    #[test]
    fn default_pillar_sites_are_the_recorded_ones() {
        // The sites every pinned fingerprint was recorded against.
        let l = default_layout();
        let xy: Vec<(u8, u8)> = (0..l.num_pillars())
            .map(|p| l.pillar_xy(PillarId(p)))
            .collect();
        let recorded = [2u8, 6, 10, 14].map(|x| [(x, 2u8), (x, 6)]).concat();
        assert_eq!(xy, recorded);
    }

    #[test]
    fn spread_positions_handles_odd_counts() {
        for n in [1u16, 2, 3, 5, 7, 8, 16] {
            let ps = spread_positions(n, 16, 8);
            assert_eq!(ps.len(), n as usize, "n={n}");
            let set: std::collections::HashSet<_> = ps.iter().collect();
            assert_eq!(set.len(), n as usize, "distinct for n={n}");
        }
    }
}
