//! Synthesised component figures (paper Table 1) and dTDMA control
//! wiring arithmetic (§3.1).
//!
//! The paper implemented the dTDMA bus components in Verilog and
//! synthesised them with 90 nm TSMC libraries; Table 1 reports the
//! resulting power and area next to a generic 5-port NoC router. Those
//! figures are constants of the design, reproduced here as the component
//! model the rest of the workspace builds on.

/// Power and area of one hardware component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComponentSpec {
    /// Component name (as in Table 1).
    pub name: &'static str,
    /// Power in watts.
    pub power_w: f64,
    /// Area in mm².
    pub area_mm2: f64,
    /// How many instances a design needs ("2 per client", ...).
    pub(crate) multiplicity: &'static str,
}

/// Generic 5-port NoC router (N, S, E, W, local), 90 nm synthesis.
pub const GENERIC_ROUTER: ComponentSpec = ComponentSpec {
    name: "Generic NoC Router (5-port)",
    power_w: 119.55e-3,
    area_mm2: 0.3748,
    multiplicity: "1 per node",
};

/// dTDMA bus transceiver (Rx/Tx pair), 90 nm synthesis.
pub const DTDMA_TRANSCEIVER: ComponentSpec = ComponentSpec {
    name: "dTDMA Bus Rx/Tx",
    power_w: 97.39e-6,
    area_mm2: 0.00036207,
    multiplicity: "2 per client",
};

/// dTDMA bus arbiter, 90 nm synthesis.
pub const DTDMA_ARBITER: ComponentSpec = ComponentSpec {
    name: "dTDMA Bus Arbiter",
    power_w: 204.98e-6,
    area_mm2: 0.00065480,
    multiplicity: "1 per bus",
};

/// Table 1, in row order.
pub fn table1() -> [ComponentSpec; 3] {
    [GENERIC_ROUTER, DTDMA_TRANSCEIVER, DTDMA_ARBITER]
}

/// Control wires from the dTDMA arbiter to each layer: `3n + log2(n)`
/// for `n` layers (paper §3.1).
///
/// # Panics
///
/// Panics if `layers` is zero.
pub fn control_wires_per_layer(layers: u8) -> u32 {
    assert!(layers > 0, "a bus needs at least one layer");
    3 * u32::from(layers) + u32::from(layers).ilog2()
}

/// Total wires in one pillar: the data bus plus control to every layer.
/// For a 128-bit bus spanning 4 layers this is the paper's 170 wires
/// (128 + 3 × 14).
pub fn pillar_wires(bus_bits: u32, layers: u8) -> u32 {
    bus_bits + 3 * control_wires_per_layer(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_verbatim() {
        let [router, rxtx, arb] = table1();
        assert_eq!(router.power_w, 0.11955);
        assert_eq!(router.area_mm2, 0.3748);
        assert_eq!(rxtx.power_w, 97.39e-6);
        assert_eq!(rxtx.area_mm2, 0.00036207);
        assert_eq!(arb.power_w, 204.98e-6);
        assert_eq!(arb.area_mm2, 0.00065480);
    }

    #[test]
    fn dtdma_overhead_is_orders_of_magnitude_below_the_router() {
        // The paper's justification for using the bus as the vertical
        // gateway: area and power overheads are negligible (a vertical
        // port is two transceivers plus the layer's share of the arbiter).
        let dtdma_area = 2.0 * DTDMA_TRANSCEIVER.area_mm2 + DTDMA_ARBITER.area_mm2;
        assert!(dtdma_area < GENERIC_ROUTER.area_mm2 / 100.0);
        let dtdma_power = 2.0 * DTDMA_TRANSCEIVER.power_w + DTDMA_ARBITER.power_w;
        assert!(dtdma_power < GENERIC_ROUTER.power_w / 100.0);
    }

    #[test]
    fn four_layer_pillar_has_170_wires() {
        assert_eq!(control_wires_per_layer(4), 14, "3*4 + log2(4)");
        assert_eq!(pillar_wires(128, 4), 170, "128-bit bus + 42 control");
    }

    #[test]
    fn control_wires_grow_with_layers() {
        assert_eq!(control_wires_per_layer(2), 7);
        assert_eq!(control_wires_per_layer(8), 27);
        assert!(control_wires_per_layer(8) > control_wires_per_layer(4));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        let _ = control_wires_per_layer(0);
    }
}
