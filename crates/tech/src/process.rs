//! Process corners for the layers of an M3D stack.
//!
//! The bottom layer of an M3D chip is fabricated with a conventional
//! high-temperature, high-performance process. Any layer above it must be
//! processed at low temperature (laser-scan annealing), which degrades device
//! performance: Shi et al. estimate a top-layer inverter is **17% slower**;
//! Rajendran et al. measured 27.8% (PMOS) / 16.8% (NMOS) degradation.
//! Alternatively, the top layer can deliberately use a low-power FDSOI process
//! (Section 5 of the paper).

/// A transistor process available to an M3D layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessCorner {
    /// Multiplier on intrinsic gate delay relative to bulk high-performance
    /// (1.0 = no penalty).
    pub delay_factor: f64,
    /// Multiplier on dynamic switching energy.
    pub dynamic_factor: f64,
    /// Multiplier on leakage power.
    pub leakage_factor: f64,
    /// Short label for reports.
    pub name: &'static str,
}

impl ProcessCorner {
    /// Bulk high-performance process (the bottom layer, and all of a 2D chip).
    pub fn bulk_hp() -> Self {
        Self {
            delay_factor: 1.0,
            dynamic_factor: 1.0,
            leakage_factor: 1.0,
            name: "bulk-HP",
        }
    }

    /// Low-temperature-processed top layer: 17% slower inverter (Shi et al.),
    /// same dynamic energy, slightly lower leakage (higher effective Vt).
    pub fn top_layer_degraded() -> Self {
        Self {
            delay_factor: 1.17,
            dynamic_factor: 1.0,
            leakage_factor: 0.9,
            name: "top-LT",
        }
    }

    /// FDSOI low-power process: slower but much lower leakage and somewhat
    /// lower dynamic energy (Section 5 / Section 7.1.2 of the paper).
    pub fn fdsoi_lp() -> Self {
        Self {
            delay_factor: 1.30,
            dynamic_factor: 0.85,
            leakage_factor: 0.25,
            name: "FDSOI-LP",
        }
    }

    /// A hypothetical future iso-performance top layer.
    pub fn iso_top() -> Self {
        Self {
            delay_factor: 1.0,
            dynamic_factor: 1.0,
            leakage_factor: 1.0,
            name: "iso-top",
        }
    }
}

impl Default for ProcessCorner {
    fn default() -> Self {
        Self::bulk_hp()
    }
}

/// The pair of processes assigned to the two layers of an M3D stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerProcesses {
    /// Bottom (high-performance) layer process.
    pub bottom: ProcessCorner,
    /// Top (sequentially fabricated) layer process.
    pub top: ProcessCorner,
}

impl LayerProcesses {
    /// The hypothetical iso-performance M3D stack (Section 3 of the paper).
    pub fn iso() -> Self {
        Self {
            bottom: ProcessCorner::bulk_hp(),
            top: ProcessCorner::iso_top(),
        }
    }

    /// The realistic hetero-layer M3D stack: degraded top layer (Section 4).
    pub fn hetero() -> Self {
        Self {
            bottom: ProcessCorner::bulk_hp(),
            top: ProcessCorner::top_layer_degraded(),
        }
    }

    /// How much slower the top layer is than the bottom (e.g. 0.17 = 17%).
    pub fn top_slowdown(&self) -> f64 {
        self.top.delay_factor / self.bottom.delay_factor - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_top_is_17pct_slower() {
        let p = LayerProcesses::hetero();
        assert!((p.top_slowdown() - 0.17).abs() < 1e-12);
    }

    #[test]
    fn iso_has_no_slowdown() {
        assert_eq!(LayerProcesses::iso().top_slowdown(), 0.0);
    }

    #[test]
    fn fdsoi_trades_delay_for_leakage() {
        let lp = ProcessCorner::fdsoi_lp();
        let hp = ProcessCorner::bulk_hp();
        assert!(lp.delay_factor > hp.delay_factor);
        assert!(lp.leakage_factor < 0.5 * hp.leakage_factor);
    }

    #[test]
    fn default_is_bulk_hp() {
        assert_eq!(ProcessCorner::default(), ProcessCorner::bulk_hp());
    }
}
