//! HotSpot-style compact thermal model for 2D, M3D, and TSV3D chips
//! (paper Section 6, Table 10, Figure 8).
//!
//! The chip is discretised into a 3D grid of thermal cells: one grid layer
//! per material layer of the [`m3d_tech::layers::LayerStack`], `nx × ny`
//! cells per layer. Cells exchange heat laterally within a layer and
//! vertically between layers through conductances derived from the material
//! conductivities and geometry; the heat sink connects to ambient through a
//! convection resistance. Power is injected in the device layers according
//! to a [`floorplan::Floorplan`] and per-block power map. The steady state
//! is found by red–black successive over-relaxation, two cells at a time
//! with SSE2 on x86-64 (see [`model`]).
//!
//! Every solve goes through [`model::ThermalModel`]: assemble a design once
//! (or fetch it from a [`model::ModelCache`]), then run many solves with
//! different power vectors, warm starts, and [`model::SolveStats`]
//! diagnostics. [`ThermalConfig::validate`] rejects a configuration outside
//! its documented ranges before assembly.
//!
//! # Example
//!
//! Solving one design at two power levels, the second warm-started from
//! the first:
//!
//! ```
//! use m3d_thermal::floorplan::Floorplan;
//! use m3d_thermal::model::{ThermalConfig, ThermalModel};
//! use m3d_tech::layers::LayerStack;
//!
//! let fp = Floorplan::ryzen_like(9.0e-6); // 9 mm² core
//! let cfg = ThermalConfig::default();
//! let model = ThermalModel::new(&LayerStack::planar_2d(), &[fp.clone()], &cfg)?;
//! let (low, _) = model.solve(&[fp.uniform_power(6.4)])?;
//! assert!(low.peak_c > 45.0 && low.peak_c < 110.0);
//! let (high, stats) = model.solve_from(&[fp.uniform_power(8.0)], Some(&low))?;
//! assert!(stats.warm_start && high.peak_c > low.peak_c);
//! # Ok::<(), m3d_thermal::model::ThermalError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod floorplan;
pub mod model;

pub use floorplan::{Block, Floorplan};
pub use model::{
    shared_cache, ModelCache, Solution, SolveStats, SolveStatsSummary, ThermalConfig, ThermalError,
    ThermalModel,
};
