//! [`MeshTopology`] and the `--topology` grammar.
//!
//! * [`MeshTopology`] — a [`ChipLayout`] paired with the per-hop router
//!   latency: what the analytic fabrics cost a route with.
//! * [`TopoSpec`] — the CLI grammar behind `nim --topology`: presets
//!   (`default`, `4-layer`, `8-layer`) or a comma list of
//!   `layers=`/`pillars=`/`placement=` overrides, which the CLI reads
//!   as its `--layers` / `--pillars` / `--placements` flags.

use core::fmt;

use nim_types::{PillarPlacement, SystemConfig};

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

/// Error parsing a [`TopoSpec`] from its CLI string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopoSpecError(String);

impl fmt::Display for TopoSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; expected 'default', '4-layer', '8-layer', or a comma list of \
             layers=N, pillars=N, placement={{spread|corners|diagonal}}",
            self.0
        )
    }
}

impl core::error::Error for TopoSpecError {}

/// The `nim --topology` grammar: a set of overrides.
///
/// Presets name the common stacks (`default` changes nothing, `4-layer`
/// and `8-layer` restack the same silicon); the explicit comma grammar
/// (`layers=4,pillars=4,placement=corners`) reaches everything else.
/// Unset fields override nothing, so a spec composes with the other CLI
/// flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopoSpec {
    /// Device layers, if overridden.
    pub layers: Option<u8>,
    /// Pillar count, if overridden.
    pub pillars: Option<u16>,
    /// Pillar placement strategy, if overridden.
    pub placement: Option<PillarPlacement>,
}

impl TopoSpec {
    /// Parses the CLI value.
    ///
    /// # Errors
    ///
    /// Returns a [`TopoSpecError`] naming the offending token.
    pub fn parse(s: &str) -> Result<Self, TopoSpecError> {
        match s {
            "default" => return Ok(Self::default()),
            "4-layer" => {
                return Ok(Self {
                    layers: Some(4),
                    ..Self::default()
                });
            }
            "8-layer" => {
                return Ok(Self {
                    layers: Some(8),
                    ..Self::default()
                });
            }
            _ => {}
        }
        let mut spec = Self::default();
        for part in s.split(',') {
            let Some((key, value)) = part.split_once('=') else {
                return Err(TopoSpecError(format!("unknown topology '{part}'")));
            };
            match key {
                "layers" => {
                    spec.layers = Some(
                        value
                            .parse()
                            .map_err(|_| TopoSpecError(format!("bad layer count '{value}'")))?,
                    );
                }
                "pillars" => {
                    spec.pillars = Some(
                        value
                            .parse()
                            .map_err(|_| TopoSpecError(format!("bad pillar count '{value}'")))?,
                    );
                }
                "placement" => {
                    spec.placement = Some(
                        PillarPlacement::parse(value)
                            .map_err(|v| TopoSpecError(format!("unknown placement '{v}'")))?,
                    );
                }
                other => return Err(TopoSpecError(format!("unknown topology key '{other}'"))),
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_map_matches_linear_scan_everywhere() {
        for placement in [
            PillarPlacement::Spread,
            PillarPlacement::Corners,
            PillarPlacement::Diagonal,
        ] {
            for layers in [2u8, 4, 8] {
                for pillars in [2u16, 4, 8] {
                    let cfg = SystemConfig::default()
                        .with_layers(layers)
                        .with_pillars(pillars)
                        .with_pillar_placement(placement);
                    let l = ChipLayout::new(&cfg).expect("layout");
                    for i in 0..l.num_nodes() {
                        let c = l.coord_of_index(i);
                        assert_eq!(
                            l.nearest_pillar(c),
                            l.nearest_by_scan(c),
                            "{placement:?} layers={layers} pillars={pillars} at {c}"
                        );
                    }
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

    #[test]
    fn spec_presets_parse() {
        assert_eq!(TopoSpec::parse("default").unwrap(), TopoSpec::default());
        assert_eq!(TopoSpec::parse("4-layer").unwrap().layers, Some(4));
        assert_eq!(TopoSpec::parse("8-layer").unwrap().layers, Some(8));
    }

    #[test]
    fn spec_comma_grammar_parses_and_applies() {
        let spec = TopoSpec::parse("layers=4,pillars=4,placement=corners").unwrap();
        assert_eq!(spec.layers, Some(4));
        assert_eq!(spec.pillars, Some(4));
        assert_eq!(spec.placement, Some(PillarPlacement::Corners));
        // Only the named keys override: the rest stay unset.
        assert_eq!(TopoSpec::parse("pillars=2").unwrap().layers, None);
    }

    #[test]
    fn spec_rejects_junk() {
        assert!(TopoSpec::parse("ring").is_err());
        assert!(TopoSpec::parse("layers=x").is_err());
        assert!(TopoSpec::parse("placement=ring").is_err());
        assert!(TopoSpec::parse("torus=1").is_err());
        let msg = TopoSpec::parse("ring").unwrap_err().to_string();
        assert!(msg.contains("ring") && msg.contains("8-layer"), "{msg}");
    }

    #[test]
    fn default_spec_leaves_config_untouched() {
        let TopoSpec {
            layers,
            pillars,
            placement,
        } = TopoSpec::parse("default").unwrap();
        assert_eq!((layers, pillars, placement), (None, None, None));
    }
}
