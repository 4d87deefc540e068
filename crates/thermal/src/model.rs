//! The steady-state thermal model (the HotSpot grid model): assemble a
//! design once, solve it for many power vectors.
//!
//! Each material layer of the stack becomes one grid layer of `nx × ny`
//! cells. Conductances:
//!
//! * lateral, within a layer: `g = k · (t · dy) / dx` between side-adjacent
//!   cells;
//! * vertical, between layers: series combination of each layer's half
//!   thickness, `g = A / (t₁/(2k₁) + t₂/(2k₂))`;
//! * sink-to-ambient: the stack's first layer connects to ambient through
//!   the convection resistance, distributed over its cells.
//!
//! [`ThermalModel`] works in two phases:
//!
//! 1. **Assembly** (per chip design): discretise the
//!    [`LayerStack`] over the grid, derive the conductances above, and
//!    rasterise each powered floorplan into a cell → block map. This
//!    depends only on the stack, the floorplans and the [`ThermalConfig`]
//!    — not on the power numbers.
//! 2. **Solve** (per power vector): inject per-block watts through the
//!    prebuilt maps and run red–black successive over-relaxation,
//!    `T += ω·((Σ g·T_neighbour + P) / Σ g − T)`, to the steady state,
//!    optionally warm-starting from a previous [`Solution`].
//!
//! Experiments that evaluate dozens of power vectors against the same design
//! (the Figure 8 thermal sweep, DVFS searches, the planner's feasibility
//! check) build the model once — or fetch it from a [`ModelCache`] — and pay
//! only the sweep cost per evaluation.
//!
//! # Red–black ordering and the split kernel
//!
//! Cells are two-coloured by the parity of `i + j + l` (grid coordinates
//! plus layer). Every neighbour of a red cell is black and vice versa, so
//! all cells of one colour update independently. A solve stores each
//! colour in its own dense array: cell `(i, j, l)` lives in row `(l, j)` of
//! its colour at slot `i / 2`, and every row and plane carries one cell of
//! zero padding on each side. With `s = (colour + j + l) & 1`, a cell's
//! west and east neighbours are slots `k − 1 + s` and `k + s` of the other
//! colour's row, and its north, south, down and up neighbours are slot `k`
//! of the other colour's adjacent rows. Consecutive cells of one colour are
//! therefore adjacent in memory, and one kernel relaxes a layer row by row,
//! two cells at a time with SSE2, which every x86-64 processor has (a row's
//! odd last cell, and every cell on other targets, run the same arithmetic
//! in scalar code).
//!
//! Each cell performs exactly the arithmetic of a plain scalar sweep, in
//! the same order: `p, +W, +E, +N, +S, +D, +U, +ambient`, then
//! `old + ω·(num·inv − old)`, with no fused multiply-add. A missing
//! neighbour reads a padding zero, and adding `g · 0.0 = +0.0` leaves the
//! sum's bits unchanged. So the field, the iteration count and the
//! residual equal a cell-by-cell scalar sweep bit for bit.

use crate::floorplan::Floorplan;
use m3d_tech::layers::{LayerStack, HEAT_SINK_TO_AMBIENT_K_PER_W};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Grid and solver configuration.
///
/// Every field has a physically meaningful range, checked by
/// [`validate`](ThermalConfig::validate), which [`ThermalModel::new`]
/// calls. In particular `sor_omega` outside `(0, 2)` makes SOR diverge and
/// `tolerance_k ≤ 0` never converges.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Grid cells along x. Must be ≥ 2: a single column has no lateral
    /// spreading and badly misrepresents hot spots.
    pub nx: usize,
    /// Grid cells along y. Must be ≥ 2.
    pub ny: usize,
    /// Ambient temperature, °C. Must be finite.
    pub ambient_c: f64,
    /// Heat-sink-to-ambient convection resistance, K/W. Must be finite and
    /// positive (a zero resistance shorts the stack to ambient and divides
    /// by zero in the per-cell conductance).
    pub convection_k_per_w: f64,
    /// SOR relaxation factor. Must lie in the open interval `(0, 2)`:
    /// 1.0 is plain Gauss–Seidel, values in `(1, 2)` over-relax and
    /// converge faster, and ω ≥ 2 provably diverges.
    pub sor_omega: f64,
    /// Convergence threshold on the max per-sweep update, K. Must be finite
    /// and > 0, otherwise the sweep can never terminate early.
    pub tolerance_k: f64,
    /// Iteration cap. Must be ≥ 1.
    pub max_iters: usize,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            nx: 24,
            ny: 24,
            ambient_c: 45.0,
            convection_k_per_w: HEAT_SINK_TO_AMBIENT_K_PER_W,
            sor_omega: 1.6,
            tolerance_k: 1e-4,
            max_iters: 20_000,
        }
    }
}

impl ThermalConfig {
    /// Check every field against its documented range.
    ///
    /// Returns [`ThermalError::InvalidConfig`] naming the first offending
    /// field. [`ThermalModel::new`] calls this, so invalid configurations
    /// fail fast instead of silently diverging.
    pub fn validate(&self) -> Result<(), ThermalError> {
        let fail = |msg: String| Err(ThermalError::InvalidConfig(msg));
        if self.nx < 2 || self.ny < 2 {
            return fail(format!(
                "grid {}x{} too small (need nx, ny >= 2)",
                self.nx, self.ny
            ));
        }
        if !self.ambient_c.is_finite() {
            return fail(format!("ambient_c = {} must be finite", self.ambient_c));
        }
        if !(self.convection_k_per_w.is_finite() && self.convection_k_per_w > 0.0) {
            return fail(format!(
                "convection_k_per_w = {} must be finite and > 0",
                self.convection_k_per_w
            ));
        }
        if !(self.sor_omega > 0.0 && self.sor_omega < 2.0) {
            return fail(format!(
                "sor_omega = {} outside (0, 2): SOR diverges",
                self.sor_omega
            ));
        }
        if !(self.tolerance_k.is_finite() && self.tolerance_k > 0.0) {
            return fail(format!(
                "tolerance_k = {} must be finite and > 0",
                self.tolerance_k
            ));
        }
        if self.max_iters == 0 {
            return fail("max_iters = 0 (need at least one sweep)".to_owned());
        }
        Ok(())
    }
}

/// Steady-state solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Temperatures per stack layer, each `nx × ny` row-major, °C.
    pub layer_temps_c: Vec<Vec<f64>>,
    /// Peak temperature anywhere in a device layer, °C.
    pub peak_c: f64,
    /// Peak temperature per block name (max over device layers), °C.
    pub block_peaks_c: Vec<(String, f64)>,
}

impl Solution {
    /// The hottest block.
    pub fn hottest_block(&self) -> Option<(&str, f64)> {
        self.block_peaks_c
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("temps are finite"))
            .map(|(n, t)| (n.as_str(), *t))
    }
}

/// Errors from building or using a [`ThermalModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A [`ThermalConfig`] field is outside its valid range.
    InvalidConfig(String),
    /// No powered floorplan was supplied.
    NoPoweredLayers,
    /// More powered floorplans than the stack has device layers.
    TooManyLayers {
        /// Powered floorplans supplied.
        supplied: usize,
        /// Device layers available in the stack.
        device_layers: usize,
    },
    /// A power vector's length does not match its floorplan's block count.
    PowerMismatch {
        /// Index of the offending powered layer.
        layer: usize,
        /// Power entries supplied.
        got: usize,
        /// Blocks in the floorplan.
        expected: usize,
    },
    /// A floorplan has a non-positive footprint.
    InvalidFloorplan(String),
}

impl std::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid thermal config: {msg}"),
            Self::NoPoweredLayers => write!(f, "need at least one powered layer"),
            Self::TooManyLayers {
                supplied,
                device_layers,
            } => write!(
                f,
                "more power maps ({supplied}) than device layers ({device_layers})"
            ),
            Self::PowerMismatch {
                layer,
                got,
                expected,
            } => write!(
                f,
                "power map of layer {layer} has {got} entries for {expected} blocks"
            ),
            Self::InvalidFloorplan(msg) => write!(f, "invalid floorplan: {msg}"),
        }
    }
}

impl std::error::Error for ThermalError {}

/// Per-solve diagnostics, surfaced through `repro` so performance
/// regressions in the hot thermal path are observable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Red–black sweeps executed.
    pub iterations: usize,
    /// Max per-cell update of the final sweep, K (the convergence measure).
    pub residual_k: f64,
    /// Whether the residual fell below `tolerance_k` within `max_iters`.
    pub converged: bool,
    /// Whether the solve started from a previous temperature field.
    pub warm_start: bool,
    /// Wall time of the solve (excluding assembly), seconds.
    pub wall_s: f64,
}

/// Running totals over many solves (rendered by `repro` output).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStatsSummary {
    /// Number of solves accumulated.
    pub solves: usize,
    /// Total sweeps across all solves.
    pub total_iterations: usize,
    /// Solves that started warm.
    pub warm_starts: usize,
    /// Solves that reused earlier work: the model came out of a
    /// [`ModelCache`] or the solve warm-started. [`absorb`] leaves it alone
    /// because a model does not know where it came from; whoever fetched the
    /// model counts it (in `m3d-core`, `DesignModels::solve`).
    ///
    /// [`absorb`]: SolveStatsSummary::absorb
    pub cache_hits: usize,
    /// Worst final residual seen, K.
    pub max_residual_k: f64,
    /// Solves that failed to converge.
    pub non_converged: usize,
    /// Total solver wall time, seconds.
    pub total_wall_s: f64,
}

impl SolveStatsSummary {
    /// Fold one solve's stats into the summary.
    pub fn absorb(&mut self, s: &SolveStats) {
        self.solves += 1;
        self.total_iterations += s.iterations;
        self.warm_starts += usize::from(s.warm_start);
        self.max_residual_k = self.max_residual_k.max(s.residual_k);
        self.non_converged += usize::from(!s.converged);
        self.total_wall_s += s.wall_s;
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &SolveStatsSummary) {
        self.solves += other.solves;
        self.total_iterations += other.total_iterations;
        self.warm_starts += other.warm_starts;
        self.cache_hits += other.cache_hits;
        self.max_residual_k = self.max_residual_k.max(other.max_residual_k);
        self.non_converged += other.non_converged;
        self.total_wall_s += other.total_wall_s;
    }
}

impl std::fmt::Display for SolveStatsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} solves, {} sweeps, {} warm, {} cached, max residual {:.2e} K, {} non-converged, {:.1} ms",
            self.solves,
            self.total_iterations,
            self.warm_starts,
            self.cache_hits,
            self.max_residual_k,
            self.non_converged,
            self.total_wall_s * 1e3,
        )
    }
}

/// Rasterised floorplan of one powered device layer.
#[derive(Debug, Clone)]
struct LayerMap {
    /// Index of the stack layer this floorplan powers.
    stack_layer: usize,
    /// Per grid cell: index into the floorplan's blocks, or `usize::MAX`.
    cell_block: Vec<usize>,
    /// `1 / cells` per block (0.0 for blocks covering no cell), so each
    /// block's wattage is conserved when spread over its cells.
    inv_cells: Vec<f64>,
    /// Block names, aligned with the floorplan.
    block_names: Vec<String>,
}

/// A chip design's assembled thermal grid; see the module docs.
#[derive(Debug)]
pub struct ThermalModel {
    nx: usize,
    ny: usize,
    nl: usize,
    ambient_c: f64,
    sor_omega: f64,
    tolerance_k: f64,
    max_iters: usize,
    lat_gx: Vec<f64>,
    lat_gy: Vec<f64>,
    vert_g: Vec<f64>,
    g_amb: f64,
    /// Per-cell reciprocal of the conductance sum (power-independent), in
    /// the red–black split layout.
    inv_den: Split,
    dev: Vec<usize>,
    layer_maps: Vec<LayerMap>,
}

/// A field in the red–black split layout of the module docs: one padded
/// array per colour, `(nl + 2) × (ny + 2)` rows of `stride` slots each.
/// Padding slots hold 0.0 and are never written.
#[derive(Debug, Clone)]
struct Split([Vec<f64>; 2]);

impl ThermalModel {
    /// Assemble the grid, conductances, and block maps for a design.
    ///
    /// `floorplans[i]` powers the stack's `i`-th device layer (sink-first
    /// order); the chip footprint is the largest supplied floorplan.
    /// Strictly validates `cfg` (see [`ThermalConfig::validate`]).
    pub fn new(
        stack: &LayerStack,
        floorplans: &[Floorplan],
        cfg: &ThermalConfig,
    ) -> Result<Self, ThermalError> {
        cfg.validate()?;
        if floorplans.is_empty() {
            return Err(ThermalError::NoPoweredLayers);
        }
        let dev = stack.device_layer_indices();
        if floorplans.len() > dev.len() {
            return Err(ThermalError::TooManyLayers {
                supplied: floorplans.len(),
                device_layers: dev.len(),
            });
        }
        let width = floorplans.iter().map(|f| f.width_m).fold(0.0, f64::max);
        let height = floorplans.iter().map(|f| f.height_m).fold(0.0, f64::max);
        if !(width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite()) {
            return Err(ThermalError::InvalidFloorplan(format!(
                "footprint {width} x {height} m"
            )));
        }

        let (nx, ny) = (cfg.nx, cfg.ny);
        let (dx, dy) = (width / nx as f64, height / ny as f64);
        let cell_area = dx * dy;
        let nl = stack.layers.len();
        let n_cells = nx * ny;

        let lat_gx: Vec<f64> = stack
            .layers
            .iter()
            .map(|l| l.conductivity_w_mk * (l.thickness_m * dy) / dx)
            .collect();
        let lat_gy: Vec<f64> = stack
            .layers
            .iter()
            .map(|l| l.conductivity_w_mk * (l.thickness_m * dx) / dy)
            .collect();
        let vert_g: Vec<f64> = (0..nl.saturating_sub(1))
            .map(|l| {
                let a = &stack.layers[l];
                let b = &stack.layers[l + 1];
                let r = a.thickness_m / (2.0 * a.conductivity_w_mk)
                    + b.thickness_m / (2.0 * b.conductivity_w_mk);
                cell_area / r
            })
            .collect();
        let g_amb = 1.0 / (cfg.convection_k_per_w * n_cells as f64);

        // The conductance sum per cell never changes; precompute 1/den.
        let mut inv_den = vec![0.0f64; nl * n_cells];
        for l in 0..nl {
            for j in 0..ny {
                for i in 0..nx {
                    let mut den = 0.0;
                    if i > 0 {
                        den += lat_gx[l];
                    }
                    if i + 1 < nx {
                        den += lat_gx[l];
                    }
                    if j > 0 {
                        den += lat_gy[l];
                    }
                    if j + 1 < ny {
                        den += lat_gy[l];
                    }
                    if l > 0 {
                        den += vert_g[l - 1];
                    }
                    if l + 1 < nl {
                        den += vert_g[l];
                    }
                    if l == 0 {
                        den += g_amb;
                    }
                    inv_den[l * n_cells + j * nx + i] = 1.0 / den;
                }
            }
        }

        let layer_maps = floorplans
            .iter()
            .enumerate()
            .map(|(li, fp)| {
                let mut cell_block = vec![usize::MAX; n_cells];
                let mut cells = vec![0usize; fp.blocks.len()];
                for j in 0..ny {
                    for i in 0..nx {
                        let x = (i as f64 + 0.5) * dx * (fp.width_m / width);
                        let y = (j as f64 + 0.5) * dy * (fp.height_m / height);
                        if let Some(bi) = fp.blocks.iter().position(|b| b.contains(x, y)) {
                            cells[bi] += 1;
                            cell_block[j * nx + i] = bi;
                        }
                    }
                }
                LayerMap {
                    stack_layer: dev[li],
                    cell_block,
                    inv_cells: cells
                        .iter()
                        .map(|&c| if c > 0 { 1.0 / c as f64 } else { 0.0 })
                        .collect(),
                    block_names: fp.blocks.iter().map(|b| b.name.clone()).collect(),
                }
            })
            .collect();

        let mut model = Self {
            nx,
            ny,
            nl,
            ambient_c: cfg.ambient_c,
            sor_omega: cfg.sor_omega,
            tolerance_k: cfg.tolerance_k,
            max_iters: cfg.max_iters,
            lat_gx,
            lat_gy,
            vert_g,
            g_amb,
            inv_den: Split([Vec::new(), Vec::new()]),
            dev,
            layer_maps,
        };
        model.inv_den = model.split(&inv_den);
        Ok(model)
    }

    /// Slots per padded row: `⌈nx / 2⌉` cells plus one pad on each side.
    fn stride(&self) -> usize {
        self.nx.div_ceil(2) + 2
    }

    /// Slots per padded plane (one layer of rows).
    fn plane(&self) -> usize {
        (self.ny + 2) * self.stride()
    }

    /// The kernel's view of layer `l`'s cells of one colour.
    fn layer(&self, l: usize, colour: usize) -> Layer {
        let stride = self.stride();
        Layer {
            at: ((l + 1) * (self.ny + 2) + 1) * stride + 1,
            rows: self.ny,
            nx: self.nx,
            s0: (colour + l) & 1,
            stride,
            plane: self.plane(),
            gx: self.lat_gx[l],
            gy: self.lat_gy[l],
            gd: if l > 0 { self.vert_g[l - 1] } else { 0.0 },
            gu: if l + 1 < self.nl { self.vert_g[l] } else { 0.0 },
            amb: if l == 0 {
                self.g_amb * self.ambient_c
            } else {
                0.0
            },
            omega: self.sor_omega,
        }
    }

    /// Colour and slot of cell `(i, j, l)` in the split layout.
    fn slot(&self, i: usize, j: usize, l: usize) -> (usize, usize) {
        let row = (l + 1) * (self.ny + 2) + j + 1;
        ((i + j + l) & 1, row * self.stride() + 1 + i / 2)
    }

    /// Scatter a flat layer-major field into the split layout.
    fn split(&self, flat: &[f64]) -> Split {
        let len = (self.nl + 2) * self.plane();
        let mut out = Split([vec![0.0; len], vec![0.0; len]]);
        let mut c = 0;
        for l in 0..self.nl {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let (colour, k) = self.slot(i, j, l);
                    out.0[colour][k] = flat[c];
                    c += 1;
                }
            }
        }
        out
    }

    /// Gather a split field back into the flat layer-major layout.
    fn join(&self, split: &Split) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.nl * self.n_cells());
        for l in 0..self.nl {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let (colour, k) = self.slot(i, j, l);
                    flat.push(split.0[colour][k]);
                }
            }
        }
        flat
    }

    fn n_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Spread per-block watts over the grid (power conserved per block).
    /// Returns a flat `n_layers × nx × ny` vector, layer-major.
    fn assemble_power(&self, block_powers: &[Vec<f64>]) -> Result<Vec<f64>, ThermalError> {
        if block_powers.is_empty() {
            return Err(ThermalError::NoPoweredLayers);
        }
        if block_powers.len() > self.layer_maps.len() {
            return Err(ThermalError::TooManyLayers {
                supplied: block_powers.len(),
                device_layers: self.layer_maps.len(),
            });
        }
        let n_cells = self.n_cells();
        let mut power = vec![0.0f64; self.nl * n_cells];
        for (li, watts) in block_powers.iter().enumerate() {
            let map = &self.layer_maps[li];
            if watts.len() != map.inv_cells.len() {
                return Err(ThermalError::PowerMismatch {
                    layer: li,
                    got: watts.len(),
                    expected: map.inv_cells.len(),
                });
            }
            let base = map.stack_layer * n_cells;
            for (c, &bi) in map.cell_block.iter().enumerate() {
                if bi != usize::MAX {
                    power[base + c] += watts[bi] * map.inv_cells[bi];
                }
            }
        }
        Ok(power)
    }

    /// Cold-start solve.
    pub fn solve(&self, block_powers: &[Vec<f64>]) -> Result<(Solution, SolveStats), ThermalError> {
        self.solve_from(block_powers, None)
    }

    /// Solve, optionally warm-starting from a previous solution's field.
    ///
    /// A warm start whose grid shape does not match this model falls back to
    /// ambient rather than erroring (the caller may legitimately hand over a
    /// field from a differently-configured model).
    pub fn solve_from(
        &self,
        block_powers: &[Vec<f64>],
        warm: Option<&Solution>,
    ) -> Result<(Solution, SolveStats), ThermalError> {
        let _span = m3d_obs::span("thermal", "solve");
        let t0 = Instant::now();
        let power = self.split(&self.assemble_power(block_powers)?);
        let n_cells = self.n_cells();

        let warm_ok = warm.is_some_and(|s| {
            s.layer_temps_c.len() == self.nl && s.layer_temps_c.iter().all(|l| l.len() == n_cells)
        });
        let mut t = if warm_ok {
            let flat: Vec<f64> = warm
                .expect("checked above")
                .layer_temps_c
                .iter()
                .flat_map(|l| l.iter().copied())
                .collect();
            self.split(&flat)
        } else {
            self.split(&vec![self.ambient_c; self.nl * n_cells])
        };

        let (iterations, residual, converged) = self.sweep(&mut t, &power);

        let solution = self.finish_solution(self.join(&t));
        let stats = SolveStats {
            iterations,
            residual_k: residual,
            converged,
            warm_start: warm_ok,
            wall_s: t0.elapsed().as_secs_f64(),
        };
        // Counters at solve granularity: the sweep loop itself stays clean.
        m3d_obs::add("thermal.solves", 1);
        m3d_obs::add("thermal.iterations", iterations as u64);
        m3d_obs::add(
            if warm_ok {
                "thermal.warm_start.hits"
            } else {
                "thermal.warm_start.misses"
            },
            1,
        );
        if !converged {
            m3d_obs::add("thermal.non_converged", 1);
        }
        m3d_obs::record("thermal.residual_k", residual);
        Ok((solution, stats))
    }

    /// Full red–black sweeps until the largest update of a sweep falls
    /// below `tolerance_k` or `max_iters` sweeps ran. Returns the sweep
    /// count, the last sweep's largest update and whether it converged.
    fn sweep(&self, t: &mut Split, power: &Split) -> (usize, f64, bool) {
        let mut residual = f64::INFINITY;
        for it in 1..=self.max_iters {
            let d_red = self.half_sweep(t, power, 0);
            let d_black = self.half_sweep(t, power, 1);
            residual = d_red.max(d_black);
            if residual < self.tolerance_k {
                return (it, residual, true);
            }
        }
        (self.max_iters, residual, false)
    }

    /// Relax every cell of one colour; returns the largest update.
    fn half_sweep(&self, t: &mut Split, power: &Split, colour: usize) -> f64 {
        let [red, black] = &mut t.0;
        let (cur, other) = if colour == 0 {
            (red, &*black)
        } else {
            (black, &*red)
        };
        let (p, inv) = (&power.0[colour], &self.inv_den.0[colour]);
        let mut max_delta = 0.0f64;
        for l in 0..self.nl {
            let d = relax_layer(cur, other, p, inv, self.layer(l, colour));
            if d > max_delta {
                max_delta = d;
            }
        }
        max_delta
    }

    /// Split a flat field into layers and find the device-layer and block
    /// peaks.
    fn finish_solution(&self, t: Vec<f64>) -> Solution {
        let n_cells = self.n_cells();
        let layer_temps_c: Vec<Vec<f64>> = (0..self.nl)
            .map(|l| t[l * n_cells..(l + 1) * n_cells].to_vec())
            .collect();

        let mut peak = self.ambient_c;
        for &l in &self.dev {
            for &v in &layer_temps_c[l] {
                peak = peak.max(v);
            }
        }
        let mut block_peaks: Vec<(String, f64)> = Vec::new();
        for map in &self.layer_maps {
            let temps = &layer_temps_c[map.stack_layer];
            for (c, &bi) in map.cell_block.iter().enumerate() {
                if bi == usize::MAX {
                    continue;
                }
                let v = temps[c];
                let name = &map.block_names[bi];
                match block_peaks.iter_mut().find(|(n, _)| n == name) {
                    Some((_, pk)) => *pk = pk.max(v),
                    None => block_peaks.push((name.clone(), v)),
                }
            }
        }
        Solution {
            layer_temps_c,
            peak_c: peak,
            block_peaks_c: block_peaks,
        }
    }
}

/// One layer's cells of one colour, as the kernel sees them: where they
/// sit in the split layout, the conductances they share, and the
/// relaxation factor.
#[derive(Debug, Clone, Copy)]
struct Layer {
    /// Index of slot 0 of the layer's first row.
    at: usize,
    /// Rows in the layer (`ny`).
    rows: usize,
    /// Cells per full row (`nx`).
    nx: usize,
    /// `(colour + l) & 1`: row `j` starts at odd `i` iff `(s0 + j) & 1`.
    s0: usize,
    /// Slots per padded row.
    stride: usize,
    /// Slots per padded plane.
    plane: usize,
    /// Lateral conductance along x.
    gx: f64,
    /// Lateral conductance along y.
    gy: f64,
    /// Conductance to the layer below (0.0 on the bottom layer).
    gd: f64,
    /// Conductance to the layer above (0.0 on the top layer).
    gu: f64,
    /// `g_amb · T_amb` on the sink layer, 0.0 elsewhere.
    amb: f64,
    /// SOR relaxation factor.
    omega: f64,
}

/// Relax one cell at slot `c` and return `|new − old|`. The sum runs in
/// the fixed order `p, W, E, N, S, D, U, ambient`; see the module docs.
#[inline(always)]
fn relax_cell(
    cur: &mut [f64],
    other: &[f64],
    p: &[f64],
    inv: &[f64],
    c: usize,
    s: usize,
    r: Layer,
) -> f64 {
    let mut num = p[c];
    num += r.gx * other[c + s - 1];
    num += r.gx * other[c + s];
    num += r.gy * other[c - r.stride];
    num += r.gy * other[c + r.stride];
    num += r.gd * other[c - r.plane];
    num += r.gu * other[c + r.plane];
    num += r.amb;
    let old = cur[c];
    let new = old + r.omega * (num * inv[c] - old);
    cur[c] = new;
    (new - old).abs()
}

/// Relax the cells of one colour in one layer, row by row; returns the
/// largest update. On x86-64 two cells of a row go per SSE2 step with the
/// same per-cell arithmetic as [`relax_cell`], which handles an odd last
/// cell of a row and all cells on other targets.
fn relax_layer(cur: &mut [f64], other: &[f64], p: &[f64], inv: &[f64], r: Layer) -> f64 {
    // Every neighbour index of the layer must be in bounds: that is what
    // makes the unchecked vector loads below sound.
    let end = r.at + r.rows * r.stride;
    assert!(r.at >= r.plane && end + r.plane <= other.len());
    assert!(end <= cur.len().min(p.len()).min(inv.len()));
    assert!(r.s0 <= 1 && r.nx.div_ceil(2) + 2 == r.stride);
    let mut max_delta = 0.0f64;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86-64 baseline. A row has at most
    // `stride − 2` cells, so every slot touched, neighbours included, lies
    // in `at − plane .. end + plane`, as asserted above; each two-lane load
    // or store covers slots `c` and `c + 1` of one row's cells; and `cur`
    // does not alias `other`, `p` or `inv`.
    unsafe {
        use std::arch::x86_64::*;
        let (o, pp, ip) = (other.as_ptr(), p.as_ptr(), inv.as_ptr());
        let (gx, gy) = (_mm_set1_pd(r.gx), _mm_set1_pd(r.gy));
        let (gd, gu) = (_mm_set1_pd(r.gd), _mm_set1_pd(r.gu));
        let (amb, omega) = (_mm_set1_pd(r.amb), _mm_set1_pd(r.omega));
        let sign = _mm_set1_pd(-0.0);
        let mut acc = _mm_setzero_pd();
        for j in 0..r.rows {
            let s = (r.s0 + j) & 1;
            let (row, cells) = (r.at + j * r.stride, (r.nx + 1 - s) / 2);
            // Taken per row: the scalar tail below reborrows `cur`.
            let cp = cur.as_mut_ptr();
            // One step relaxes cells `c` and `c + 1` of the row.
            let step = |c: usize| {
                let mut num = _mm_loadu_pd(pp.add(c));
                num = _mm_add_pd(num, _mm_mul_pd(gx, _mm_loadu_pd(o.add(c + s - 1))));
                num = _mm_add_pd(num, _mm_mul_pd(gx, _mm_loadu_pd(o.add(c + s))));
                num = _mm_add_pd(num, _mm_mul_pd(gy, _mm_loadu_pd(o.add(c - r.stride))));
                num = _mm_add_pd(num, _mm_mul_pd(gy, _mm_loadu_pd(o.add(c + r.stride))));
                num = _mm_add_pd(num, _mm_mul_pd(gd, _mm_loadu_pd(o.add(c - r.plane))));
                num = _mm_add_pd(num, _mm_mul_pd(gu, _mm_loadu_pd(o.add(c + r.plane))));
                num = _mm_add_pd(num, amb);
                let old = _mm_loadu_pd(cp.add(c));
                let rel = _mm_sub_pd(_mm_mul_pd(num, _mm_loadu_pd(ip.add(c))), old);
                let new = _mm_add_pd(old, _mm_mul_pd(omega, rel));
                _mm_storeu_pd(cp.add(c), new);
                _mm_andnot_pd(sign, _mm_sub_pd(new, old))
            };
            let mut k = 0;
            while k + 2 <= cells {
                // MAXPD returns its second operand when either is NaN, so a
                // NaN update is dropped exactly as `d > max_delta` drops it.
                acc = _mm_max_pd(step(row + k), acc);
                k += 2;
            }
            if k < cells {
                let d = relax_cell(cur, other, p, inv, row + k, s, r);
                if d > max_delta {
                    max_delta = d;
                }
            }
        }
        let mut lanes = [0.0f64; 2];
        _mm_storeu_pd(lanes.as_mut_ptr(), acc);
        for d in lanes {
            if d > max_delta {
                max_delta = d;
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    for j in 0..r.rows {
        let s = (r.s0 + j) & 1;
        let row = r.at + j * r.stride;
        for k in 0..(r.nx + 1 - s) / 2 {
            let d = relax_cell(cur, other, p, inv, row + k, s, r);
            if d > max_delta {
                max_delta = d;
            }
        }
    }
    max_delta
}

/// Exact-match cache key: every float bit pattern and name that went into
/// assembly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ModelKey {
    words: Vec<u64>,
    names: String,
}

impl ModelKey {
    fn build(stack: &LayerStack, floorplans: &[Floorplan], cfg: &ThermalConfig) -> Self {
        let mut words = Vec::new();
        let mut names = String::new();
        for l in &stack.layers {
            words.push(l.thickness_m.to_bits());
            words.push(l.conductivity_w_mk.to_bits());
            words.push(u64::from(l.is_device_layer));
            names.push_str(l.name);
            names.push('\u{1f}');
        }
        words.push(0xFFFF_FFFF_FFFF_FFFF); // stack/floorplan separator
        for fp in floorplans {
            words.push(fp.width_m.to_bits());
            words.push(fp.height_m.to_bits());
            for b in &fp.blocks {
                words.push(b.x_m.to_bits());
                words.push(b.y_m.to_bits());
                words.push(b.w_m.to_bits());
                words.push(b.h_m.to_bits());
                names.push_str(&b.name);
                names.push('\u{1f}');
            }
            names.push('\u{1e}');
        }
        words.push(cfg.nx as u64);
        words.push(cfg.ny as u64);
        words.push(cfg.ambient_c.to_bits());
        words.push(cfg.convection_k_per_w.to_bits());
        words.push(cfg.sor_omega.to_bits());
        words.push(cfg.tolerance_k.to_bits());
        words.push(cfg.max_iters as u64);
        Self { words, names }
    }
}

/// Cache of assembled models keyed by (stack, floorplans, config).
///
/// Repeated [`get_or_build`](ModelCache::get_or_build) calls for the same
/// design return the same [`Arc`]d model and skip assembly entirely — this
/// is what lets the experiment drivers call the thermal solver per
/// application without re-rasterising floorplans every time.
#[derive(Debug, Default)]
pub struct ModelCache {
    inner: Mutex<CacheState>,
}

/// The cached models and the hit/miss tallies, updated under one lock.
#[derive(Debug, Default)]
struct CacheState {
    models: HashMap<ModelKey, Arc<ThermalModel>>,
    hits: u64,
    misses: u64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the model for a design, assembling it on first use.
    /// The boolean is `true` on a cache hit.
    pub fn get_or_build(
        &self,
        stack: &LayerStack,
        floorplans: &[Floorplan],
        cfg: &ThermalConfig,
    ) -> Result<(Arc<ThermalModel>, bool), ThermalError> {
        let key = ModelKey::build(stack, floorplans, cfg);
        let mut state = self.state();
        if let Some(model) = state.models.get(&key) {
            let model = Arc::clone(model);
            state.hits += 1;
            m3d_obs::add("thermal.model_cache.hits", 1);
            return Ok((model, true));
        }
        let model = {
            let _span = m3d_obs::span("thermal", "assemble_model");
            Arc::new(ThermalModel::new(stack, floorplans, cfg)?)
        };
        state.models.insert(key, Arc::clone(&model));
        state.misses += 1;
        m3d_obs::add("thermal.model_cache.misses", 1);
        Ok((model, false))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.state().hits
    }

    /// Cache misses (i.e. assemblies) so far.
    pub fn misses(&self) -> u64 {
        self.state().misses
    }

    /// Distinct designs currently cached.
    pub fn len(&self) -> usize {
        self.state().models.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn state(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.inner.lock().expect("thermal model cache poisoned")
    }
}

/// The process-wide model cache, shared by every study that solves the
/// same designs.
pub fn shared_cache() -> &'static ModelCache {
    static CACHE: OnceLock<ModelCache> = OnceLock::new();
    CACHE.get_or_init(ModelCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ThermalConfig {
        ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        }
    }

    fn planar_model(cfg: &ThermalConfig) -> (ThermalModel, Vec<Vec<f64>>) {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let power = fp.uniform_power(6.4);
        let model = ThermalModel::new(&LayerStack::planar_2d(), &[fp], cfg).expect("valid model");
        (model, vec![power])
    }

    /// The scalar red–black sweep the split kernel replaced, kept as the
    /// reference: a flat layer-major field, boundary tests per cell, one
    /// colour over every row, then the other.
    fn reference_sweep(m: &ThermalModel, t: &mut [f64], power: &[f64]) -> (usize, f64, bool) {
        let (nx, ny, nl) = (m.nx, m.ny, m.nl);
        let n_cells = nx * ny;
        let inv_den = m.join(&m.inv_den);
        let sweep_rows = |t: &mut [f64], color: usize| {
            let mut max_delta = 0.0f64;
            for r in 0..nl * ny {
                let (l, j) = (r / ny, r % ny);
                let base = l * n_cells + j * nx;
                let (lgx, lgy) = (m.lat_gx[l], m.lat_gy[l]);
                let mut i = (color + l + j) & 1;
                while i < nx {
                    let c = base + i;
                    let mut num = power[c];
                    if i > 0 {
                        num += lgx * t[c - 1];
                    }
                    if i + 1 < nx {
                        num += lgx * t[c + 1];
                    }
                    if j > 0 {
                        num += lgy * t[c - nx];
                    }
                    if j + 1 < ny {
                        num += lgy * t[c + nx];
                    }
                    if l > 0 {
                        num += m.vert_g[l - 1] * t[c - n_cells];
                    }
                    if l + 1 < nl {
                        num += m.vert_g[l] * t[c + n_cells];
                    }
                    if l == 0 {
                        num += m.g_amb * m.ambient_c;
                    }
                    let old = t[c];
                    let new = old + m.sor_omega * (num * inv_den[c] - old);
                    let d = (new - old).abs();
                    if d > max_delta {
                        max_delta = d;
                    }
                    t[c] = new;
                    i += 2;
                }
            }
            max_delta
        };
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        for _ in 0..m.max_iters {
            iterations += 1;
            let d_red = sweep_rows(t, 0);
            let d_black = sweep_rows(t, 1);
            residual = d_red.max(d_black);
            if residual < m.tolerance_k {
                return (iterations, residual, true);
            }
        }
        (iterations, residual, false)
    }

    /// Solve with the split kernel and with [`reference_sweep`] from the
    /// same start; fields, sweep counts and residuals must match bit for
    /// bit.
    fn assert_matches_reference(m: &ThermalModel, powers: &[Vec<f64>], warm: Option<&Solution>) {
        let (sol, stats) = m.solve_from(powers, warm).expect("solve");
        let mut t: Vec<f64> = match warm {
            Some(w) => w.layer_temps_c.concat(),
            None => vec![m.ambient_c; m.nl * m.n_cells()],
        };
        let power = m.assemble_power(powers).expect("power");
        let (iterations, residual, converged) = reference_sweep(m, &mut t, &power);
        assert_eq!(stats.iterations, iterations, "sweep count");
        assert_eq!(stats.residual_k.to_bits(), residual.to_bits(), "residual");
        assert_eq!(stats.converged, converged);
        let got = sol.layer_temps_c.concat();
        assert_eq!(got.len(), t.len());
        for (c, (a, b)) in got.iter().zip(&t).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {c}: {a} vs {b}");
        }
    }

    /// A stack of `(thickness, conductivity, device)` layers; the last
    /// layer is always a device layer.
    fn random_stack(layers: &[(f64, f64, bool)]) -> LayerStack {
        let last = layers.len() - 1;
        LayerStack {
            kind: LayerStack::planar_2d().kind,
            layers: layers
                .iter()
                .enumerate()
                .map(|(i, &(t, k, dev))| m3d_tech::layers::MaterialLayer {
                    name: "L",
                    thickness_m: t,
                    conductivity_w_mk: k,
                    is_device_layer: dev || i == last,
                })
                .collect(),
        }
    }

    #[test]
    fn split_kernel_matches_scalar_reference_on_odd_grid() {
        // 17 × 13 gives rows of both colours with odd and even cell counts.
        let fp = Floorplan::ryzen_like(4.5e-6);
        let cfg = ThermalConfig {
            nx: 17,
            ny: 13,
            ..ThermalConfig::default()
        };
        let model =
            ThermalModel::new(&LayerStack::m3d(), &[fp.clone(), fp.clone()], &cfg).expect("model");
        let cold = vec![fp.uniform_power(3.5), fp.power_from_named(&[("IQ", 2.0)])];
        assert_matches_reference(&model, &cold, None);
        let (first, _) = model.solve(&cold).expect("first");
        let bumped = vec![fp.uniform_power(4.0), fp.uniform_power(1.0)];
        assert_matches_reference(&model, &bumped, Some(&first));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        #[test]
        fn split_kernel_matches_scalar_reference(
            layers in proptest::collection::vec(
                (1.0e-7f64..2.0e-4, 0.5f64..400.0, proptest::arbitrary::any::<bool>()),
                1..5,
            ),
            nx in 2usize..20,
            ny in 2usize..20,
            two_layers in proptest::arbitrary::any::<bool>(),
            watts in 0.5f64..12.0,
            bump in 0.5f64..1.5,
            omega in 1.0f64..1.9,
            max_iters in 50usize..4000,
        ) {
            let stack = random_stack(&layers);
            let powered = if two_layers { stack.device_layer_indices().len().min(2) } else { 1 };
            let fp = Floorplan::ryzen_like(9.0e-6 / powered as f64);
            let fps = vec![fp.clone(); powered];
            let cfg = ThermalConfig { nx, ny, sor_omega: omega, max_iters, ..ThermalConfig::default() };
            let model = ThermalModel::new(&stack, &fps, &cfg).expect("valid random model");
            let powers: Vec<Vec<f64>> = (0..powered)
                .map(|i| fp.uniform_power(watts / (i + 1) as f64))
                .collect();
            assert_matches_reference(&model, &powers, None);
            let (first, _) = model.solve(&powers).expect("cold");
            let warm_powers: Vec<Vec<f64>> =
                powers.iter().map(|p| p.iter().map(|w| w * bump).collect()).collect();
            assert_matches_reference(&model, &warm_powers, Some(&first));
        }
    }

    #[test]
    fn warm_start_reaches_the_same_field_faster() {
        let (model, powers) = planar_model(&cfg());
        let (cold, cold_stats) = model.solve(&powers).expect("cold");
        // Perturb the power slightly and re-solve warm vs cold.
        let bumped: Vec<Vec<f64>> = vec![powers[0].iter().map(|w| w * 1.05).collect::<Vec<_>>()];
        let (from_cold, s_cold) = model.solve(&bumped).expect("cold re-solve");
        let (from_warm, s_warm) = model
            .solve_from(&bumped, Some(&cold))
            .expect("warm re-solve");
        assert!(s_warm.warm_start && !s_cold.warm_start);
        assert!(
            s_warm.iterations < s_cold.iterations,
            "warm {} vs cold {} iterations",
            s_warm.iterations,
            s_cold.iterations
        );
        assert!(
            (from_warm.peak_c - from_cold.peak_c).abs() < 10.0 * cfg().tolerance_k,
            "warm {} vs cold {}",
            from_warm.peak_c,
            from_cold.peak_c
        );
        assert!(cold_stats.converged && s_warm.converged && s_cold.converged);
    }

    #[test]
    fn mismatched_warm_start_falls_back_to_ambient() {
        let (model, powers) = planar_model(&cfg());
        let small_cfg = ThermalConfig {
            nx: 8,
            ny: 8,
            ..ThermalConfig::default()
        };
        let (small_model, small_powers) = planar_model(&small_cfg);
        let (small_sol, _) = small_model.solve(&small_powers).expect("small");
        let (sol, stats) = model
            .solve_from(&powers, Some(&small_sol))
            .expect("fallback");
        assert!(
            !stats.warm_start,
            "shape-mismatched warm start must be ignored"
        );
        assert!(sol.peak_c > 48.0);
    }

    #[test]
    fn power_is_conserved_into_the_sink() {
        // Steady state: all injected power must leave through the
        // convection boundary. Σ g_amb (T_sink_cell − T_amb) ≈ Σ P.
        let (model, powers) = planar_model(&cfg());
        let (sol, _) = model.solve(&powers).expect("solve");
        let total_w: f64 = powers[0].iter().sum();
        let out_w: f64 = sol.layer_temps_c[0]
            .iter()
            .map(|t| model.g_amb * (t - 45.0))
            .sum();
        assert!(
            (out_w - total_w).abs() / total_w < 0.02,
            "in {total_w} W vs out {out_w} W"
        );
    }

    #[test]
    fn cache_hits_on_identical_design_and_misses_on_changes() {
        let cache = ModelCache::new();
        let fp = Floorplan::ryzen_like(9.0e-6);
        let stack = LayerStack::planar_2d();
        let c = cfg();
        let fps = std::slice::from_ref(&fp);
        let (_, hit0) = cache.get_or_build(&stack, fps, &c).expect("build");
        let (_, hit1) = cache.get_or_build(&stack, fps, &c).expect("reuse");
        assert!(!hit0 && hit1);
        let (_, hit2) = cache
            .get_or_build(&LayerStack::m3d(), &[fp.scaled(0.5), fp.scaled(0.5)], &c)
            .expect("other design");
        assert!(!hit2);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn rejects_invalid_configs() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let stack = LayerStack::planar_2d();
        for bad in [
            ThermalConfig {
                sor_omega: 2.5,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                sor_omega: 0.0,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                tolerance_k: -1.0,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                nx: 0,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                max_iters: 0,
                ..ThermalConfig::default()
            },
            ThermalConfig {
                convection_k_per_w: 0.0,
                ..ThermalConfig::default()
            },
        ] {
            assert!(
                matches!(
                    ThermalModel::new(&stack, std::slice::from_ref(&fp), &bad),
                    Err(ThermalError::InvalidConfig(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_power_shape_mismatches() {
        let (model, _) = planar_model(&cfg());
        assert_eq!(model.solve(&[]), Err(ThermalError::NoPoweredLayers));
        let bad = vec![vec![1.0; 3]];
        assert!(matches!(
            model.solve(&bad),
            Err(ThermalError::PowerMismatch {
                expected: 9,
                got: 3,
                ..
            })
        ));
        let too_many = vec![vec![0.0; 9], vec![0.0; 9]];
        assert!(matches!(
            model.solve(&too_many),
            Err(ThermalError::TooManyLayers { .. })
        ));
    }

    /// Peak of the planar 2D core at `total_w` spread uniformly, and the
    /// solve's stats.
    fn planar_at(total_w: f64) -> (Solution, SolveStats) {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let model = ThermalModel::new(&LayerStack::planar_2d(), std::slice::from_ref(&fp), &cfg())
            .expect("model");
        model.solve(&[fp.uniform_power(total_w)]).expect("solve")
    }

    /// Solve a two-tier stack with the folded floorplan and the given
    /// per-layer powers (near-sink layer first).
    fn two_tier(stack: &LayerStack, near: Vec<f64>, far: Vec<f64>) -> Solution {
        let folded = Floorplan::ryzen_like(4.5e-6);
        let model = ThermalModel::new(stack, &[folded.clone(), folded], &cfg()).expect("model");
        model.solve(&[near, far]).expect("solve").0
    }

    #[test]
    fn planar_core_reaches_plausible_temperature() {
        // 6.4 W core (the paper's measured average) should sit well below
        // Tjmax but clearly above ambient.
        let (s, _) = planar_at(6.4);
        assert!(s.peak_c > 48.0 && s.peak_c < 100.0, "peak {}", s.peak_c);
    }

    #[test]
    fn temperature_monotonic_in_power() {
        let lo = planar_at(3.0).0.peak_c;
        let hi = planar_at(10.0).0.peak_c;
        assert!(hi > lo + 2.0, "lo {lo} hi {hi}");
    }

    #[test]
    fn solve_converges() {
        let (_, stats) = planar_at(6.4);
        assert!(stats.converged && stats.iterations < cfg().max_iters);
        assert!(stats.residual_k < cfg().tolerance_k);
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let (s, _) = planar_at(0.0);
        assert!((s.peak_c - cfg().ambient_c).abs() < 0.01);
    }

    #[test]
    fn hot_block_is_hottest() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.power_from_named(&[("IQ", 4.0), ("FPU", 0.5)]);
        let model = ThermalModel::new(&LayerStack::planar_2d(), std::slice::from_ref(&fp), &cfg())
            .expect("model");
        let (s, _) = model.solve(&[p]).expect("solve");
        let (name, _) = s.hottest_block().expect("blocks exist");
        assert_eq!(name, "IQ");
    }

    #[test]
    fn tsv3d_far_layer_runs_hotter_than_m3d() {
        // The paper's headline thermal result: same split power, the TSV3D
        // stack's far-from-sink layer gets much hotter than M3D's.
        let per_layer = Floorplan::ryzen_like(4.5e-6).uniform_power(3.2);
        let m3d = two_tier(&LayerStack::m3d(), per_layer.clone(), per_layer.clone());
        let tsv = two_tier(&LayerStack::tsv3d(), per_layer.clone(), per_layer);
        assert!(
            tsv.peak_c > m3d.peak_c + 3.0,
            "tsv {} vs m3d {}",
            tsv.peak_c,
            m3d.peak_c
        );
    }

    #[test]
    fn m3d_layers_are_thermally_coupled() {
        // Power only the far (top-fabricated) layer: in M3D the near layer
        // tracks it closely because the ILD is 100 nm thin.
        let folded = Floorplan::ryzen_like(4.5e-6);
        let cold = vec![0.0; folded.blocks.len()];
        let s = two_tier(&LayerStack::m3d(), cold, folded.uniform_power(6.4));
        let dev = LayerStack::m3d().device_layer_indices();
        let layer_max = |l: usize| s.layer_temps_c[l].iter().copied().fold(f64::MIN, f64::max);
        let (near_max, far_max) = (layer_max(dev[0]), layer_max(dev[1]));
        assert!(
            (far_max - near_max) < 2.0,
            "near {near_max} vs far {far_max}"
        );
    }

    #[test]
    fn rejects_floorplan_count_mismatches() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let stack = LayerStack::planar_2d();
        assert_eq!(
            ThermalModel::new(&stack, &[], &cfg()).err(),
            Some(ThermalError::NoPoweredLayers)
        );
        assert_eq!(
            ThermalModel::new(&stack, &[fp.clone(), fp], &cfg()).err(),
            Some(ThermalError::TooManyLayers {
                supplied: 2,
                device_layers: 1
            })
        );
    }
}
