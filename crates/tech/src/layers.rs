//! Physical layer stacks for thermal modeling (paper Table 10).
//!
//! A stack is an ordered list of material layers from the **heat sink at the
//! top** down to the bottom silicon. Device layers (where power is dissipated)
//! are flagged so the thermal solver can inject heat there.
//!
//! | Layer          | M3D      | TSV3D   | k (W/m·K) |
//! |----------------|----------|---------|-----------|
//! | Top metal      | 12 µm    | 12 µm   | 12        |
//! | Top silicon    | 100 nm   | 20 µm   | 120       |
//! | ILD            | 100 nm   | 20 µm   | 1.5       |
//! | Bottom metal   | <1 µm    | 12 µm   | 12        |
//! | Bottom silicon | 100 µm   | 100 µm  | 120       |
//! | TIM            | 50 µm    | 50 µm   | 5         |
//! | IHS            | 1 mm     | 1 mm    | 400       |
//! | Heat sink      | 7 mm     | 7 mm    | 400       |

/// One material layer of a chip stack.
#[derive(Debug, Clone, PartialEq)]
pub struct MaterialLayer {
    /// Human-readable name ("TIM", "Top Silicon", ...).
    pub name: &'static str,
    /// Thickness in metres.
    pub thickness_m: f64,
    /// Thermal conductivity in W/(m·K).
    pub conductivity_w_mk: f64,
    /// Whether transistors (heat sources) live in this layer.
    pub is_device_layer: bool,
}

impl MaterialLayer {
    /// Vertical thermal resistance of a column of this layer with footprint
    /// `area_m2`, in K/W.
    pub fn vertical_resistance_k_per_w(&self, area_m2: f64) -> f64 {
        self.thickness_m / (self.conductivity_w_mk * area_m2)
    }
}

/// The 3D integration style of a chip stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackKind {
    /// Planar 2D chip (single device layer).
    Planar2d,
    /// Monolithic 3D (two device layers, sub-µm apart).
    M3d,
    /// TSV-based die stacking (two device layers, tens of µm apart).
    Tsv3d,
}

/// An ordered chip stack, **heat sink first** (index 0 is closest to ambient).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStack {
    /// Which integration style this stack represents.
    pub kind: StackKind,
    /// Layers ordered from heat sink (ambient side) to the bottom of the chip.
    pub layers: Vec<MaterialLayer>,
}

/// Convection resistance of the heat sink to ambient, K/W.
///
/// A typical forced-air sink for a desktop part; combined with the paper's
/// 6.4 W per-core power this yields realistic 50–80 °C core temperatures.
pub const HEAT_SINK_TO_AMBIENT_K_PER_W: f64 = 0.45;

fn common_top() -> Vec<MaterialLayer> {
    vec![
        MaterialLayer {
            name: "Heat Sink",
            thickness_m: 7.0e-3,
            conductivity_w_mk: 400.0,
            is_device_layer: false,
        },
        MaterialLayer {
            name: "IHS",
            thickness_m: 1.0e-3,
            conductivity_w_mk: 400.0,
            is_device_layer: false,
        },
        MaterialLayer {
            name: "TIM",
            thickness_m: 50.0e-6,
            conductivity_w_mk: 5.0,
            is_device_layer: false,
        },
    ]
}

impl LayerStack {
    /// The two-device-layer monolithic 3D stack of Table 10.
    ///
    /// Note the orientation: when the chip is on the board the heat sink is at
    /// the top and the *bottom* (high-performance) silicon layer is furthest
    /// from it only by the package; within the stack the top device layer sits
    /// ~1 µm above the bottom one.
    pub fn m3d() -> Self {
        let mut layers = common_top();
        layers.extend([
            // Bulk silicon of the *bottom-fabricated* device layer faces the
            // TIM when flip-chip mounted; the paper's Figure 1 shows the heat
            // sink above the bottom bulk Si.
            MaterialLayer {
                name: "Bottom Bulk Si",
                thickness_m: 100.0e-6,
                conductivity_w_mk: 120.0,
                is_device_layer: true,
            },
            MaterialLayer {
                name: "Bottom Metal",
                thickness_m: 1.0e-6,
                conductivity_w_mk: 12.0,
                is_device_layer: false,
            },
            MaterialLayer {
                name: "ILD",
                thickness_m: 100.0e-9,
                conductivity_w_mk: 1.5,
                is_device_layer: false,
            },
            MaterialLayer {
                name: "Top Si",
                thickness_m: 100.0e-9,
                conductivity_w_mk: 120.0,
                is_device_layer: true,
            },
            MaterialLayer {
                name: "Top Metal",
                thickness_m: 12.0e-6,
                conductivity_w_mk: 12.0,
                is_device_layer: false,
            },
        ]);
        Self {
            kind: StackKind::M3d,
            layers,
        }
    }

    /// The TSV-based die-stacked alternative of Table 10 (aggressively thinned
    /// 20 µm top die, favourable to TSV3D).
    pub fn tsv3d() -> Self {
        let mut layers = common_top();
        layers.extend([
            MaterialLayer {
                name: "Bottom Bulk Si",
                thickness_m: 100.0e-6,
                conductivity_w_mk: 120.0,
                is_device_layer: true,
            },
            MaterialLayer {
                name: "Bottom Metal",
                thickness_m: 12.0e-6,
                conductivity_w_mk: 12.0,
                is_device_layer: false,
            },
            // Die-to-die bond layer: the thermally resistive ILD equivalent.
            MaterialLayer {
                name: "D2D/ILD",
                thickness_m: 20.0e-6,
                conductivity_w_mk: 1.5,
                is_device_layer: false,
            },
            MaterialLayer {
                name: "Top Si",
                thickness_m: 20.0e-6,
                conductivity_w_mk: 120.0,
                is_device_layer: true,
            },
            MaterialLayer {
                name: "Top Metal",
                thickness_m: 12.0e-6,
                conductivity_w_mk: 12.0,
                is_device_layer: false,
            },
        ]);
        Self {
            kind: StackKind::Tsv3d,
            layers,
        }
    }

    /// A conventional planar 2D stack (single device layer).
    pub fn planar_2d() -> Self {
        let mut layers = common_top();
        layers.extend([
            MaterialLayer {
                name: "Bulk Si",
                thickness_m: 100.0e-6,
                conductivity_w_mk: 120.0,
                is_device_layer: true,
            },
            MaterialLayer {
                name: "Metal",
                thickness_m: 12.0e-6,
                conductivity_w_mk: 12.0,
                is_device_layer: false,
            },
        ]);
        Self {
            kind: StackKind::Planar2d,
            layers,
        }
    }

    /// Indices (into `layers`) of the device layers, ordered sink-first.
    pub fn device_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_device_layer)
            .map(|(i, _)| i)
            .collect()
    }

    /// Vertical thermal resistance between the two device layers for a column
    /// of footprint `area_m2`, K/W. Returns `None` for a planar stack.
    ///
    /// This is the quantity that makes M3D thermally benign (sub-µm ILD) and
    /// TSV3D problematic (tens of µm of low-k bond material).
    pub fn interlayer_resistance_k_per_w(&self, area_m2: f64) -> Option<f64> {
        let dev = self.device_layer_indices();
        if dev.len() < 2 {
            return None;
        }
        // Half of each device layer plus everything in between.
        let (a, b) = (dev[0], dev[1]);
        let mut r = 0.5 * self.layers[a].vertical_resistance_k_per_w(area_m2)
            + 0.5 * self.layers[b].vertical_resistance_k_per_w(area_m2);
        for l in &self.layers[a + 1..b] {
            r += l.vertical_resistance_k_per_w(area_m2);
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m3d_has_two_device_layers_under_1um_apart() {
        let s = LayerStack::m3d();
        let dev = s.device_layer_indices();
        assert_eq!(dev.len(), 2);
        let between: f64 = s.layers[dev[0] + 1..dev[1]]
            .iter()
            .map(|l| l.thickness_m)
            .sum();
        assert!(between < 1.5e-6, "device layers {between} m apart");
    }

    #[test]
    fn tsv3d_interlayer_resistance_much_higher_than_m3d() {
        let a = 1e-6; // 1 mm^2 in m^2
        let m3d = LayerStack::m3d().interlayer_resistance_k_per_w(a).unwrap();
        let tsv = LayerStack::tsv3d()
            .interlayer_resistance_k_per_w(a)
            .unwrap();
        // Paper: D2D layers have ~13-16x higher thermal resistance; the full
        // inter-layer path in TSV3D ends up >10x worse than in M3D.
        assert!(tsv > 10.0 * m3d, "tsv {tsv} vs m3d {m3d}");
    }

    #[test]
    fn planar_has_single_device_layer() {
        let s = LayerStack::planar_2d();
        assert_eq!(s.device_layer_indices().len(), 1);
        assert!(s.interlayer_resistance_k_per_w(1e-6).is_none());
    }

    #[test]
    fn stacks_start_at_heat_sink() {
        for s in [
            LayerStack::m3d(),
            LayerStack::tsv3d(),
            LayerStack::planar_2d(),
        ] {
            assert_eq!(s.layers[0].name, "Heat Sink");
        }
    }

    #[test]
    fn material_resistance_formula() {
        let l = MaterialLayer {
            name: "x",
            thickness_m: 1e-3,
            conductivity_w_mk: 100.0,
            is_device_layer: false,
        };
        // R = t/(kA) = 1e-3/(100 * 1e-4) = 0.1 K/W
        assert!((l.vertical_resistance_k_per_w(1e-4) - 0.1).abs() < 1e-12);
    }
}
