//! The evaluated configurations (paper Table 11).
//!
//! | Name            | Configuration                                     |
//! |-----------------|---------------------------------------------------|
//! | Base            | Baseline 2D, f = 3.3 GHz                          |
//! | TSV3D           | Conventional TSV3D, f = 3.3 GHz                   |
//! | M3D-Iso         | Iso-layer M3D, f = 3.83 GHz                       |
//! | M3D-HetNaive    | Hetero without modifications, f = 3.5 GHz         |
//! | M3D-Het         | Hetero with our modifications, f = 3.79 GHz       |
//! | M3D-HetAgg      | Aggressive M3D-Het, f = 4.34 GHz                  |
//! | M3D-Het (4c)    | + shared L2s, 4 cores, f = 3.79 GHz               |
//! | M3D-Het-W (4c)  | + shared L2s, issue 8, 4 cores, f = 3.3 GHz       |
//! | M3D-Het-2X (8c) | + shared L2s, 8 cores, f = 3.3 GHz, Vdd = 0.75 V  |
//! | TSV3D (4c)      | + shared L2s, 4 cores, f = 3.3 GHz                |
//!
//! Frequencies default to the paper's stated values so that the performance
//! figures reproduce the published experiment; the model-derived values
//! (from [`crate::planner::DesignSpace`]) are reported alongside in the
//! Table 11 experiment.

use crate::planner::DesignSpace;
use m3d_power::model::PowerConfig;
use m3d_uarch::config::CoreConfig;

/// Single-core design points of Table 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// Baseline 2D core.
    Base,
    /// TSV-based 3D core (intra-block partitioning where profitable).
    Tsv3d,
    /// Iso-layer M3D core.
    M3dIso,
    /// Hetero-layer M3D without the paper's modifications.
    M3dHetNaive,
    /// Hetero-layer M3D with asymmetric partitioning (the contribution).
    M3dHet,
    /// Aggressive M3D-Het (frequency limited by the IQ only).
    M3dHetAgg,
}

impl DesignPoint {
    /// All single-core designs in figure order.
    pub const ALL: [DesignPoint; 6] = [
        DesignPoint::Base,
        DesignPoint::Tsv3d,
        DesignPoint::M3dIso,
        DesignPoint::M3dHetNaive,
        DesignPoint::M3dHet,
        DesignPoint::M3dHetAgg,
    ];

    /// The paper's Table 11 name.
    pub fn label(self) -> &'static str {
        match self {
            DesignPoint::Base => "Base",
            DesignPoint::Tsv3d => "TSV3D",
            DesignPoint::M3dIso => "M3D-Iso",
            DesignPoint::M3dHetNaive => "M3D-HetNaive",
            DesignPoint::M3dHet => "M3D-Het",
            DesignPoint::M3dHetAgg => "M3D-HetAgg",
        }
    }

    /// The paper's stated frequency, GHz (Table 11).
    pub fn paper_frequency_ghz(self) -> f64 {
        match self {
            DesignPoint::Base | DesignPoint::Tsv3d => 3.3,
            DesignPoint::M3dIso => 3.83,
            DesignPoint::M3dHetNaive => 3.5,
            DesignPoint::M3dHet => 3.79,
            DesignPoint::M3dHetAgg => 4.34,
        }
    }

    /// The frequency derived from our own model's reductions.
    pub fn derived_frequency_ghz(self, space: &DesignSpace) -> f64 {
        let d = space.derived;
        match self {
            DesignPoint::Base | DesignPoint::Tsv3d => crate::planner::BASE_FREQ_GHZ,
            DesignPoint::M3dIso => d.iso_ghz,
            DesignPoint::M3dHetNaive => d.het_naive_ghz,
            DesignPoint::M3dHet => d.het_ghz,
            DesignPoint::M3dHetAgg => d.het_agg_ghz,
        }
    }

    /// Whether this is a 3D design (gets the shorter load-to-use and
    /// misprediction paths of Section 6).
    pub fn is_3d(self) -> bool {
        !matches!(self, DesignPoint::Base)
    }

    /// The layer stack this design is assembled on, as an index into the
    /// planner's three stack thermal models: 0 planar 2D, 1 TSV3D, 2 M3D
    /// (every monolithic design shares the two-tier M3D stack).
    pub fn stack_slot(self) -> usize {
        match self {
            DesignPoint::Base => 0,
            DesignPoint::Tsv3d => 1,
            _ => 2,
        }
    }

    /// Whether this design moves the complex decoder + µcode ROM to the top
    /// layer (the hetero-layer designs do; Section 4.1.2).
    pub fn complex_decoder_in_top(self) -> bool {
        matches!(
            self,
            DesignPoint::M3dHetNaive | DesignPoint::M3dHet | DesignPoint::M3dHetAgg
        )
    }

    /// Simulator configuration for this design.
    pub fn core_config(self) -> CoreConfig {
        let mut cfg = CoreConfig::base_2d().with_frequency(self.paper_frequency_ghz());
        if self.is_3d() {
            cfg = cfg.with_3d_paths();
        }
        if self.complex_decoder_in_top() {
            cfg = cfg.with_complex_decoder_in_top();
        }
        cfg
    }

    /// Power-model configuration (array reductions per the planner).
    pub fn power_config(self, space: &DesignSpace) -> PowerConfig {
        let f = self.paper_frequency_ghz();
        match self {
            DesignPoint::Base => PowerConfig::planar_2d(f),
            DesignPoint::Tsv3d => {
                let mut p = PowerConfig::three_d(f, space.tsv_energy_reductions());
                // TSVs are too coarse to fold the logic or halve the clock
                // footprint as effectively (Table 6 magnitudes are smaller).
                p.logic_scale = 0.95;
                p.pipeline_scale = 0.85;
                p.clock_scale = 0.85;
                p
            }
            DesignPoint::M3dIso => PowerConfig::three_d(f, space.iso_energy_reductions()),
            DesignPoint::M3dHetNaive | DesignPoint::M3dHet | DesignPoint::M3dHetAgg => {
                PowerConfig::three_d(f, space.het_energy_reductions())
            }
        }
    }
}

impl std::fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Multicore design points of Table 11 (Figures 9–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulticoreDesign {
    /// Four-core 2D baseline.
    Base4,
    /// Four-core TSV3D with shared L2 pairs.
    Tsv3d4,
    /// Four-core M3D-Het with shared L2 pairs.
    M3dHet4,
    /// Four-core M3D-Het widened to issue 8 at the base frequency.
    M3dHetW4,
    /// Eight-core M3D-Het at the base frequency and 0.75 V (iso-power).
    M3dHet2x8,
}

impl MulticoreDesign {
    /// All multicore designs in figure order.
    pub const ALL: [MulticoreDesign; 5] = [
        MulticoreDesign::Base4,
        MulticoreDesign::Tsv3d4,
        MulticoreDesign::M3dHet4,
        MulticoreDesign::M3dHetW4,
        MulticoreDesign::M3dHet2x8,
    ];

    /// The paper's name.
    pub fn label(self) -> &'static str {
        match self {
            MulticoreDesign::Base4 => "Base",
            MulticoreDesign::Tsv3d4 => "TSV3D",
            MulticoreDesign::M3dHet4 => "M3D-Het",
            MulticoreDesign::M3dHetW4 => "M3D-Het-W",
            MulticoreDesign::M3dHet2x8 => "M3D-Het-2X",
        }
    }

    /// Core count.
    pub fn n_cores(self) -> usize {
        match self {
            MulticoreDesign::M3dHet2x8 => 8,
            _ => 4,
        }
    }

    /// The layer stack this design's cores are assembled on, as an index
    /// like [`DesignPoint::stack_slot`]'s: 0 planar 2D, 1 TSV3D, 2 M3D.
    pub fn stack_slot(self) -> usize {
        match self {
            MulticoreDesign::Base4 => 0,
            MulticoreDesign::Tsv3d4 => 1,
            _ => 2,
        }
    }

    /// Supply voltage, volts.
    pub fn vdd(self) -> f64 {
        match self {
            MulticoreDesign::M3dHet2x8 => 0.75,
            _ => 0.8,
        }
    }

    /// Simulator configuration.
    pub fn core_config(self) -> CoreConfig {
        match self {
            MulticoreDesign::Base4 => CoreConfig::base_2d(),
            MulticoreDesign::Tsv3d4 => CoreConfig::base_2d().with_3d_paths().with_shared_l2(),
            MulticoreDesign::M3dHet4 => CoreConfig::base_2d()
                .with_frequency(DesignPoint::M3dHet.paper_frequency_ghz())
                .with_3d_paths()
                .with_shared_l2()
                .with_complex_decoder_in_top(),
            MulticoreDesign::M3dHetW4 => CoreConfig::base_2d()
                .with_3d_paths()
                .with_shared_l2()
                .with_issue_width(8)
                .with_complex_decoder_in_top(),
            MulticoreDesign::M3dHet2x8 => CoreConfig::base_2d()
                .with_3d_paths()
                .with_shared_l2()
                .with_vdd(0.75)
                .with_complex_decoder_in_top(),
        }
    }

    /// Power-model configuration.
    pub fn power_config(self, space: &DesignSpace) -> PowerConfig {
        let cfg = self.core_config();
        let base = match self {
            MulticoreDesign::Base4 => PowerConfig::planar_2d(cfg.freq_ghz),
            MulticoreDesign::Tsv3d4 => DesignPoint::Tsv3d.power_config(space),
            _ => PowerConfig::three_d(cfg.freq_ghz, space.het_energy_reductions()),
        };
        let mut p = base.with_cores(self.n_cores()).with_vdd(self.vdd());
        p.freq_ghz = cfg.freq_ghz;
        p
    }
}

impl std::fmt::Display for MulticoreDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frequencies_match_table11() {
        assert_eq!(DesignPoint::Base.paper_frequency_ghz(), 3.3);
        assert_eq!(DesignPoint::M3dIso.paper_frequency_ghz(), 3.83);
        assert_eq!(DesignPoint::M3dHetNaive.paper_frequency_ghz(), 3.5);
        assert_eq!(DesignPoint::M3dHet.paper_frequency_ghz(), 3.79);
        assert_eq!(DesignPoint::M3dHetAgg.paper_frequency_ghz(), 4.34);
    }

    #[test]
    fn three_d_designs_get_short_paths() {
        for d in DesignPoint::ALL {
            let cfg = d.core_config();
            if d.is_3d() {
                assert_eq!(cfg.mispredict_penalty, 12, "{d}");
                assert_eq!(cfg.load_to_use_saving, 1, "{d}");
            } else {
                assert_eq!(cfg.mispredict_penalty, 14);
            }
        }
    }

    #[test]
    fn multicore_shapes_match_table11() {
        assert_eq!(MulticoreDesign::Base4.n_cores(), 4);
        assert_eq!(MulticoreDesign::M3dHet2x8.n_cores(), 8);
        assert_eq!(MulticoreDesign::M3dHet2x8.vdd(), 0.75);
        assert_eq!(MulticoreDesign::M3dHetW4.core_config().issue_width, 8);
        assert_eq!(MulticoreDesign::M3dHetW4.core_config().freq_ghz, 3.3);
        assert!(MulticoreDesign::M3dHet4.core_config().shared_l2_pairs);
        assert!(!MulticoreDesign::Base4.core_config().shared_l2_pairs);
    }
}
