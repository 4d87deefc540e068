//! Reusable thermal model: assemble once, solve many times.
//!
//! [`ThermalModel`] separates the two phases the one-shot
//! [`solve`](crate::solver::solve) entry point fuses:
//!
//! 1. **Assembly** (per chip design): discretise the
//!    [`LayerStack`] over an `nx × ny` grid, derive lateral / vertical /
//!    sink conductances, and rasterise each powered floorplan into a
//!    cell → block map. This depends only on the stack, the floorplans and
//!    the [`ThermalConfig`] — not on the power numbers.
//! 2. **Solve** (per power vector): inject per-block watts through the
//!    prebuilt maps and run a red–black Gauss–Seidel/SOR sweep to the steady
//!    state, optionally warm-starting from a previous [`Solution`].
//!
//! Experiments that evaluate dozens of power vectors against the same design
//! (the Figure 8 thermal sweep, DVFS searches, the planner's feasibility
//! check) build the model once — or fetch it from a [`ModelCache`] — and pay
//! only the sweep cost per evaluation.
//!
//! # Red–black ordering and parallelism
//!
//! Cells are two-coloured by the parity of `i + j + l` (grid coordinates
//! plus layer). Every neighbour of a red cell is black and vice versa, so
//! all cells of one colour update independently and the sweep parallelises
//! across grid rows with `std::thread::scope` — no dependencies inside a
//! half-sweep. The parallel and serial schedules perform bit-identical
//! arithmetic per cell, so results do not depend on the thread count.

use crate::floorplan::Floorplan;
use crate::solver::{Solution, ThermalConfig};
use m3d_tech::layers::LayerStack;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

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

/// How to schedule the red–black sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Pick serial or parallel from the grid size and available cores.
    #[default]
    Auto,
    /// Single-threaded sweep.
    Serial,
    /// Multi-threaded sweep (even when the grid is small).
    Parallel,
}

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
    /// Worker threads used by the sweep (1 = serial).
    pub threads: usize,
    /// Whether the model came out of a [`ModelCache`] (set by the cache /
    /// the `solve()` wrapper; `false` for directly-built models).
    pub assembly_cache_hit: bool,
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
    /// Solves whose model came from a cache.
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
        self.cache_hits += usize::from(s.assembly_cache_hit);
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
    /// Per-cell reciprocal of the conductance sum (power-independent).
    inv_den: Vec<f64>,
    dev: Vec<usize>,
    layer_maps: Vec<LayerMap>,
}

/// Minimum grid cells before the sweep spawns worker threads: below this,
/// barrier synchronisation costs more than it saves.
const PARALLEL_MIN_CELLS: usize = 6_000;
/// Cap on sweep worker threads.
const MAX_SWEEP_THREADS: usize = 8;

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

        Ok(Self {
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
            inv_den,
            dev,
            layer_maps,
        })
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

    /// Cold-start solve with auto scheduling.
    pub fn solve(&self, block_powers: &[Vec<f64>]) -> Result<(Solution, SolveStats), ThermalError> {
        self.solve_with(block_powers, None, SweepMode::Auto)
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
        self.solve_with(block_powers, warm, SweepMode::Auto)
    }

    /// Solve with an explicit sweep schedule (used by correctness tests to
    /// pin the serial or parallel path).
    pub fn solve_with(
        &self,
        block_powers: &[Vec<f64>],
        warm: Option<&Solution>,
        mode: SweepMode,
    ) -> Result<(Solution, SolveStats), ThermalError> {
        let _span = m3d_obs::span("thermal", "solve");
        let t0 = Instant::now();
        let power = self.assemble_power(block_powers)?;
        let n_cells = self.n_cells();

        let warm_ok = warm.is_some_and(|s| {
            s.layer_temps_c.len() == self.nl
                && s.layer_temps_c.iter().all(|l| l.len() == n_cells)
        });
        let mut t: Vec<f64> = if warm_ok {
            warm.expect("checked above")
                .layer_temps_c
                .iter()
                .flat_map(|l| l.iter().copied())
                .collect()
        } else {
            vec![self.ambient_c; self.nl * n_cells]
        };

        let threads = match mode {
            SweepMode::Serial => 1,
            SweepMode::Parallel => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, MAX_SWEEP_THREADS),
            SweepMode::Auto => {
                if self.nl * n_cells < PARALLEL_MIN_CELLS {
                    1
                } else {
                    std::thread::available_parallelism()
                        .map(|n| n.get().min(MAX_SWEEP_THREADS))
                        .unwrap_or(1)
                }
            }
        };
        let threads = threads.min(self.nl * self.ny).max(1);

        let (iterations, residual, converged) = if threads == 1 {
            self.sweep_serial(&mut t, &power)
        } else {
            self.sweep_parallel(&mut t, &power, threads)
        };

        let solution = self.finish_solution(t, iterations);
        let stats = SolveStats {
            iterations,
            residual_k: residual,
            converged,
            warm_start: warm_ok,
            threads,
            assembly_cache_hit: false,
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

    /// One red–black half-sweep (cells with `(i + j + l) % 2 == color`) over
    /// a contiguous range of grid rows. Returns the max update magnitude.
    ///
    /// Temperatures live in `AtomicU64` bit-casts so the parallel schedule
    /// can share the buffer safely; relaxed ordering suffices because
    /// within a colour no updated cell is read, and the scheduler places a
    /// barrier between colours.
    fn sweep_rows(&self, t: &[AtomicU64], power: &[f64], rows: std::ops::Range<usize>, color: usize) -> f64 {
        let (nx, ny, nl) = (self.nx, self.ny, self.nl);
        let n_cells = nx * ny;
        let load = |c: usize| f64::from_bits(t[c].load(Ordering::Relaxed));
        let mut max_delta = 0.0f64;
        for r in rows {
            let l = r / ny;
            let j = r % ny;
            let base = l * n_cells + j * nx;
            let (lgx, lgy) = (self.lat_gx[l], self.lat_gy[l]);
            let mut i = (color + l + j) & 1;
            while i < nx {
                let c = base + i;
                let mut num = power[c];
                if i > 0 {
                    num += lgx * load(c - 1);
                }
                if i + 1 < nx {
                    num += lgx * load(c + 1);
                }
                if j > 0 {
                    num += lgy * load(c - nx);
                }
                if j + 1 < ny {
                    num += lgy * load(c + nx);
                }
                if l > 0 {
                    num += self.vert_g[l - 1] * load(c - n_cells);
                }
                if l + 1 < nl {
                    num += self.vert_g[l] * load(c + n_cells);
                }
                if l == 0 {
                    num += self.g_amb * self.ambient_c;
                }
                let old = load(c);
                let new = old + self.sor_omega * (num * self.inv_den[c] - old);
                let d = (new - old).abs();
                if d > max_delta {
                    max_delta = d;
                }
                t[c].store(new.to_bits(), Ordering::Relaxed);
                i += 2;
            }
        }
        max_delta
    }

    fn into_atomic(t: &[f64]) -> Vec<AtomicU64> {
        t.iter().map(|v| AtomicU64::new(v.to_bits())).collect()
    }

    fn from_atomic(t: &[AtomicU64]) -> Vec<f64> {
        t.iter()
            .map(|v| f64::from_bits(v.load(Ordering::Relaxed)))
            .collect()
    }

    fn sweep_serial(&self, t: &mut Vec<f64>, power: &[f64]) -> (usize, f64, bool) {
        let ta = Self::into_atomic(t);
        let rows = self.nl * self.ny;
        let mut iterations = 0;
        let mut residual = f64::INFINITY;
        let mut converged = false;
        for _ in 0..self.max_iters {
            iterations += 1;
            let d_red = self.sweep_rows(&ta, power, 0..rows, 0);
            let d_black = self.sweep_rows(&ta, power, 0..rows, 1);
            residual = d_red.max(d_black);
            if residual < self.tolerance_k {
                converged = true;
                break;
            }
        }
        *t = Self::from_atomic(&ta);
        (iterations, residual, converged)
    }

    fn sweep_parallel(
        &self,
        t: &mut Vec<f64>,
        power: &[f64],
        threads: usize,
    ) -> (usize, f64, bool) {
        let ta = Self::into_atomic(t);
        let rows = self.nl * self.ny;
        // Contiguous row ranges per worker, remainder spread over the first.
        let chunks: Vec<std::ops::Range<usize>> = (0..threads)
            .map(|w| (w * rows / threads)..((w + 1) * rows / threads))
            .collect();
        let barrier = Barrier::new(threads);
        let deltas: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let mut outcome = (0usize, f64::INFINITY, false);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for chunk in chunks {
                let (ta, deltas, barrier, power) = (&ta, &deltas, &barrier, power);
                let me = handles.len();
                handles.push(scope.spawn(move || {
                    let mut result = (0usize, f64::INFINITY, false);
                    for it in 0..self.max_iters {
                        let d0 = self.sweep_rows(ta, power, chunk.clone(), 0);
                        barrier.wait();
                        let d1 = self.sweep_rows(ta, power, chunk.clone(), 1);
                        deltas[me].store(d0.max(d1).to_bits(), Ordering::Relaxed);
                        barrier.wait();
                        // Every worker reduces the same values and takes the
                        // same branch, so they all stop on the same sweep.
                        let global = deltas
                            .iter()
                            .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
                            .fold(0.0f64, f64::max);
                        result = (it + 1, global, global < self.tolerance_k);
                        if result.2 {
                            break;
                        }
                    }
                    result
                }));
            }
            for h in handles {
                outcome = h.join().expect("sweep worker panicked");
            }
        });
        *t = Self::from_atomic(&ta);
        outcome
    }

    /// Peaks + packaging, identical to the historical one-shot solver.
    fn finish_solution(&self, t: Vec<f64>, iterations: usize) -> Solution {
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
            iterations,
        }
    }
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
    inner: Mutex<HashMap<ModelKey, Arc<ThermalModel>>>,
    hits: AtomicU64,
    misses: AtomicU64,
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
        let mut map = self.inner.lock().expect("thermal model cache poisoned");
        if let Some(model) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            m3d_obs::add("thermal.model_cache.hits", 1);
            return Ok((Arc::clone(model), true));
        }
        let model = {
            let _span = m3d_obs::span("thermal", "assemble_model");
            Arc::new(ThermalModel::new(stack, floorplans, cfg)?)
        };
        map.insert(key, Arc::clone(&model));
        self.misses.fetch_add(1, Ordering::Relaxed);
        m3d_obs::add("thermal.model_cache.misses", 1);
        Ok((model, false))
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. assemblies) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct designs currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("thermal model cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide cache used by [`crate::solver::solve`].
pub fn shared_cache() -> &'static ModelCache {
    static CACHE: OnceLock<ModelCache> = OnceLock::new();
    CACHE.get_or_init(ModelCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::LayerPower;

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
        let model =
            ThermalModel::new(&LayerStack::planar_2d(), &[fp], cfg).expect("valid model");
        (model, vec![power])
    }

    #[test]
    fn serial_and_parallel_sweeps_are_bit_identical() {
        let cfg = ThermalConfig {
            nx: 20,
            ny: 20,
            ..ThermalConfig::default()
        };
        let (model, powers) = planar_model(&cfg);
        let (a, sa) = model
            .solve_with(&powers, None, SweepMode::Serial)
            .expect("serial");
        let (b, sb) = model
            .solve_with(&powers, None, SweepMode::Parallel)
            .expect("parallel");
        assert_eq!(sa.iterations, sb.iterations);
        assert!(sb.threads >= 2, "parallel mode must use threads");
        for (la, lb) in a.layer_temps_c.iter().zip(&b.layer_temps_c) {
            for (x, y) in la.iter().zip(lb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn warm_start_reaches_the_same_field_faster() {
        let (model, powers) = planar_model(&cfg());
        let (cold, cold_stats) = model.solve(&powers).expect("cold");
        // Perturb the power slightly and re-solve warm vs cold.
        let bumped: Vec<Vec<f64>> =
            vec![powers[0].iter().map(|w| w * 1.05).collect::<Vec<_>>()];
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
        assert!(!stats.warm_start, "shape-mismatched warm start must be ignored");
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
            Err(ThermalError::PowerMismatch { expected: 9, got: 3, .. })
        ));
        let too_many = vec![vec![0.0; 9], vec![0.0; 9]];
        assert!(matches!(
            model.solve(&too_many),
            Err(ThermalError::TooManyLayers { .. })
        ));
    }

    #[test]
    fn matches_one_shot_solver_wrapper() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let power = fp.uniform_power(6.4);
        let via_wrapper = crate::solver::solve(
            &LayerStack::planar_2d(),
            &[LayerPower {
                floorplan: fp.clone(),
                power_w: power.clone(),
            }],
            &cfg(),
        );
        let model =
            ThermalModel::new(&LayerStack::planar_2d(), &[fp], &cfg()).expect("model");
        let (direct, _) = model.solve(&[power]).expect("solve");
        assert!((via_wrapper.peak_c - direct.peak_c).abs() < 1e-9);
    }
}
