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
//! is found by red–black successive over-relaxation, parallelised across
//! grid rows when the grid is large enough to pay for the threads.
//!
//! Two levels of API:
//!
//! * [`solver::solve`] — one-shot convenience: panic-on-misuse, cold start,
//!   config clamped into range, model assembly cached process-wide.
//! * [`model::ThermalModel`] — assemble a design once (or fetch it from a
//!   [`model::ModelCache`]), then run many solves with different power
//!   vectors, warm starts, an explicit [`model::SweepMode`], and
//!   [`model::SolveStats`] diagnostics. This is the API the experiment
//!   drivers in `m3d-core` use.
//!
//! # Example
//!
//! ```
//! use m3d_thermal::floorplan::Floorplan;
//! use m3d_thermal::solver::{solve, LayerPower, ThermalConfig};
//! use m3d_tech::layers::LayerStack;
//!
//! let fp = Floorplan::ryzen_like(9.0e-6); // 9 mm² core
//! let power = fp.uniform_power(6.4);
//! let sol = solve(
//!     &LayerStack::planar_2d(),
//!     &[LayerPower { floorplan: fp, power_w: power }],
//!     &ThermalConfig::default(),
//! );
//! assert!(sol.peak_c > 45.0 && sol.peak_c < 110.0);
//! ```
//!
//! Reusing a model across power vectors with a warm start:
//!
//! ```
//! use m3d_thermal::floorplan::Floorplan;
//! use m3d_thermal::model::ThermalModel;
//! use m3d_thermal::solver::ThermalConfig;
//! use m3d_tech::layers::LayerStack;
//!
//! let fp = Floorplan::ryzen_like(9.0e-6);
//! let cfg = ThermalConfig::default();
//! let model = ThermalModel::new(&LayerStack::planar_2d(), &[fp.clone()], &cfg)?;
//! let (low, _) = model.solve(&[fp.uniform_power(4.0)])?;
//! let (high, stats) = model.solve_from(&[fp.uniform_power(6.0)], Some(&low))?;
//! assert!(stats.warm_start && high.peak_c > low.peak_c);
//! # Ok::<(), m3d_thermal::model::ThermalError>(())
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod floorplan;
pub mod model;
pub mod solver;

pub use floorplan::{Block, Floorplan};
pub use model::{
    shared_cache, ModelCache, SolveStats, SolveStatsSummary, SweepMode, ThermalError,
    ThermalModel,
};
pub use solver::{solve, solve_with_stats, LayerPower, Solution, ThermalConfig};
