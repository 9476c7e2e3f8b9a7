//! The four L2 organisations compared in the paper (§5.2).

use nim_topology::PlacementPolicy;

/// Which L2 design a [`System`](crate::System) simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The prior-work baseline: Beckmann & Wood's CMP-DNUCA with perfect
    /// search — processors on the chip edges, migration enabled, and an
    /// oracle that knows each line's location without probing.
    CmpDnuca,
    /// Our 2D scheme: single layer, processors in the interior surrounded
    /// by banks, two-step search, migration enabled.
    CmpDnuca2d,
    /// Our 3D scheme *without* migration — isolates the benefit of the
    /// 3D topology itself.
    CmpSnuca3d,
    /// Our full 3D scheme with layer-aware migration.
    CmpDnuca3d,
}

nim_types::codec_enum!(Scheme, "bad scheme tag" { 0 => CmpDnuca, 1 => CmpDnuca2d, 2 => CmpSnuca3d, 3 => CmpDnuca3d });

impl Scheme {
    /// All schemes in the paper's presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::CmpDnuca,
        Scheme::CmpDnuca2d,
        Scheme::CmpSnuca3d,
        Scheme::CmpDnuca3d,
    ];

    /// Whether the scheme stacks multiple device layers.
    pub fn is_3d(self) -> bool {
        matches!(self, Scheme::CmpSnuca3d | Scheme::CmpDnuca3d)
    }

    /// The CPU placement policy the scheme uses. `cpus_exceed_pillars`
    /// selects Algorithm 1 (shared pillars) over maximal offsetting.
    pub(crate) fn placement(self, cpus_exceed_pillars: bool) -> PlacementPolicy {
        match self {
            Scheme::CmpDnuca => PlacementPolicy::Edges,
            Scheme::CmpDnuca2d => PlacementPolicy::Interior2d,
            Scheme::CmpSnuca3d | Scheme::CmpDnuca3d => {
                if cpus_exceed_pillars {
                    PlacementPolicy::Algorithm1 { k: 1 }
                } else {
                    PlacementPolicy::MaximalOffset
                }
            }
        }
    }

    /// Display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::CmpDnuca => "CMP-DNUCA",
            Scheme::CmpDnuca2d => "CMP-DNUCA-2D",
            Scheme::CmpSnuca3d => "CMP-SNUCA-3D",
            Scheme::CmpDnuca3d => "CMP-DNUCA-3D",
        }
    }
}

impl core::fmt::Display for Scheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_match_the_paper() {
        assert!(!Scheme::CmpDnuca.is_3d());
        assert!(!Scheme::CmpDnuca2d.is_3d());
        assert!(Scheme::CmpSnuca3d.is_3d());
        assert!(Scheme::CmpDnuca3d.is_3d());
    }

    #[test]
    fn placement_policies() {
        assert_eq!(Scheme::CmpDnuca.placement(false), PlacementPolicy::Edges);
        assert_eq!(
            Scheme::CmpDnuca2d.placement(false),
            PlacementPolicy::Interior2d
        );
        assert_eq!(
            Scheme::CmpDnuca3d.placement(false),
            PlacementPolicy::MaximalOffset
        );
        assert_eq!(
            Scheme::CmpDnuca3d.placement(true),
            PlacementPolicy::Algorithm1 { k: 1 }
        );
    }

    #[test]
    fn labels_are_the_figure_names() {
        let labels: Vec<_> = Scheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["CMP-DNUCA", "CMP-DNUCA-2D", "CMP-SNUCA-3D", "CMP-DNUCA-3D"]
        );
        assert_eq!(Scheme::CmpSnuca3d.to_string(), "CMP-SNUCA-3D");
    }
}
