//! One-shot steady-state entry point (the HotSpot grid model).
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
//! Power is injected in device-layer cells from the floorplan power maps.
//! The steady state is found by red–black successive over-relaxation,
//! iterating `T += ω·((Σ g·T_neighbour + P) / Σ g − T)`.
//!
//! [`solve`] is a convenience wrapper over [`crate::model::ThermalModel`]:
//! it fetches the assembled model from the process-wide
//! [`crate::model::shared_cache`] (so repeat calls for the same design skip
//! assembly) and runs one cold-start solve. Callers that solve many power
//! vectors against one design, need warm starts, or want
//! [`crate::model::SolveStats`] should hold a `ThermalModel` directly.

use crate::floorplan::Floorplan;
use crate::model::{shared_cache, SolveStats, ThermalError};
use m3d_tech::layers::{LayerStack, HEAT_SINK_TO_AMBIENT_K_PER_W};

/// Power injected into one device layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPower {
    /// The layer's floorplan (sets the chip footprint for that layer).
    pub floorplan: Floorplan,
    /// Per-block power, watts, aligned with `floorplan.blocks`.
    pub power_w: Vec<f64>,
}

impl LayerPower {
    /// Total power of this layer, watts.
    pub fn total_w(&self) -> f64 {
        self.power_w.iter().sum()
    }
}

/// Solver configuration.
///
/// All fields have physically meaningful ranges, checked by [`validate`]
/// (strict, used by [`crate::model::ThermalModel::new`]) or coerced by
/// [`sanitized`] (clamping, used by the panic-free paths). In particular
/// `sor_omega` outside `(0, 2)` makes SOR diverge and `tolerance_k ≤ 0`
/// never converges — neither failure mode is silent any more.
///
/// [`validate`]: ThermalConfig::validate
/// [`sanitized`]: ThermalConfig::sanitized
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
    /// field. [`crate::model::ThermalModel::new`] calls this, so invalid
    /// configurations fail fast instead of silently diverging.
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

    /// A copy with every out-of-range field clamped into its valid range
    /// (defaults are used where no meaningful clamp exists, e.g. a
    /// non-finite `ambient_c`). Used by the panic-free [`solve`] path so
    /// historical callers with sloppy configs degrade gracefully instead
    /// of looping forever.
    pub fn sanitized(&self) -> Self {
        let d = Self::default();
        Self {
            nx: self.nx.max(2),
            ny: self.ny.max(2),
            ambient_c: if self.ambient_c.is_finite() {
                self.ambient_c
            } else {
                d.ambient_c
            },
            convection_k_per_w: if self.convection_k_per_w.is_finite()
                && self.convection_k_per_w > 0.0
            {
                self.convection_k_per_w
            } else {
                d.convection_k_per_w
            },
            sor_omega: if self.sor_omega > 0.0 && self.sor_omega < 2.0 {
                self.sor_omega
            } else {
                self.sor_omega.clamp(0.1, 1.95)
            },
            tolerance_k: if self.tolerance_k.is_finite() && self.tolerance_k > 0.0 {
                self.tolerance_k
            } else {
                d.tolerance_k
            },
            max_iters: self.max_iters.max(1),
        }
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
    /// Iterations used.
    pub iterations: usize,
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

/// Solve the steady-state temperature field.
///
/// `layer_powers` are assigned to the stack's device layers in stack order
/// (sink-first); extra device layers (if any) receive no power.
///
/// This is a thin wrapper over [`crate::model::ThermalModel`]: the
/// assembled model comes from the process-wide shared cache, the config is
/// [`ThermalConfig::sanitized`], and the solve starts cold. Use the model
/// API directly for warm starts and [`SolveStats`].
///
/// # Panics
///
/// Panics if `layer_powers` is empty or exceeds the number of device layers,
/// or if a power map length mismatches its floorplan.
pub fn solve(stack: &LayerStack, layer_powers: &[LayerPower], cfg: &ThermalConfig) -> Solution {
    solve_with_stats(stack, layer_powers, cfg).0
}

/// Like [`solve`] but also returns the per-solve [`SolveStats`]
/// (iterations, residual, cache hit, wall time).
///
/// # Panics
///
/// Same conditions as [`solve`].
pub fn solve_with_stats(
    stack: &LayerStack,
    layer_powers: &[LayerPower],
    cfg: &ThermalConfig,
) -> (Solution, SolveStats) {
    assert!(!layer_powers.is_empty(), "need at least one powered layer");
    let dev = stack.device_layer_indices();
    assert!(
        layer_powers.len() <= dev.len(),
        "more power maps ({}) than device layers ({})",
        layer_powers.len(),
        dev.len()
    );
    for lp in layer_powers {
        assert_eq!(
            lp.power_w.len(),
            lp.floorplan.blocks.len(),
            "power map must align with floorplan blocks"
        );
    }

    let floorplans: Vec<Floorplan> = layer_powers.iter().map(|l| l.floorplan.clone()).collect();
    let powers: Vec<Vec<f64>> = layer_powers.iter().map(|l| l.power_w.clone()).collect();
    let cfg = cfg.sanitized();
    let (model, cache_hit) = shared_cache()
        .get_or_build(stack, &floorplans, &cfg)
        .expect("sanitized config and validated inputs must assemble");
    let (solution, mut stats) = model
        .solve(&powers)
        .expect("power vectors validated against floorplans above");
    stats.assembly_cache_hit = cache_hit;
    (solution, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;

    fn cfg() -> ThermalConfig {
        ThermalConfig {
            nx: 16,
            ny: 16,
            ..ThermalConfig::default()
        }
    }

    fn planar_at(total_w: f64) -> Solution {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.uniform_power(total_w);
        solve(
            &LayerStack::planar_2d(),
            &[LayerPower {
                floorplan: fp,
                power_w: p,
            }],
            &cfg(),
        )
    }

    #[test]
    fn planar_core_reaches_plausible_temperature() {
        // 6.4 W core (the paper's measured average) should sit well below
        // Tjmax but clearly above ambient.
        let s = planar_at(6.4);
        assert!(s.peak_c > 48.0 && s.peak_c < 100.0, "peak {}", s.peak_c);
    }

    #[test]
    fn temperature_monotonic_in_power() {
        let lo = planar_at(3.0).peak_c;
        let hi = planar_at(10.0).peak_c;
        assert!(hi > lo + 2.0, "lo {lo} hi {hi}");
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = vec![0.0; fp.blocks.len()];
        let s = solve(
            &LayerStack::planar_2d(),
            &[LayerPower {
                floorplan: fp,
                power_w: p,
            }],
            &cfg(),
        );
        assert!((s.peak_c - cfg().ambient_c).abs() < 0.01);
    }

    #[test]
    fn hot_block_is_hottest() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.power_from_named(&[("IQ", 4.0), ("FPU", 0.5)]);
        let s = solve(
            &LayerStack::planar_2d(),
            &[LayerPower {
                floorplan: fp,
                power_w: p,
            }],
            &cfg(),
        );
        let (name, _) = s.hottest_block().expect("blocks exist");
        assert_eq!(name, "IQ");
    }

    #[test]
    fn tsv3d_far_layer_runs_hotter_than_m3d() {
        // The paper's headline thermal result: same split power, the TSV3D
        // stack's far-from-sink layer gets much hotter than M3D's.
        let full = Floorplan::ryzen_like(9.0e-6);
        let folded = full.scaled(0.5);
        let per_layer = folded.uniform_power(3.2);
        let layers = [
            LayerPower {
                floorplan: folded.clone(),
                power_w: per_layer.clone(),
            },
            LayerPower {
                floorplan: folded.clone(),
                power_w: per_layer.clone(),
            },
        ];
        let m3d = solve(&LayerStack::m3d(), &layers, &cfg());
        let tsv = solve(&LayerStack::tsv3d(), &layers, &cfg());
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
        let hot = folded.uniform_power(6.4);
        let cold = vec![0.0; folded.blocks.len()];
        let layers = [
            LayerPower {
                floorplan: folded.clone(),
                power_w: cold,
            },
            LayerPower {
                floorplan: folded.clone(),
                power_w: hot,
            },
        ];
        let s = solve(&LayerStack::m3d(), &layers, &cfg());
        let dev = LayerStack::m3d().device_layer_indices();
        let near_max = s.layer_temps_c[dev[0]]
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        let far_max = s.layer_temps_c[dev[1]]
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        assert!(
            (far_max - near_max) < 2.0,
            "near {near_max} vs far {far_max}"
        );
    }

    #[test]
    fn solver_converges() {
        let s = planar_at(6.4);
        assert!(s.iterations < cfg().max_iters, "did not converge");
    }

    #[test]
    fn repeat_solves_hit_the_model_cache() {
        let cache = crate::model::shared_cache();
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.uniform_power(5.0);
        let lp = [LayerPower {
            floorplan: fp,
            power_w: p,
        }];
        // Unusual grid so no other test shares the cache entry.
        let cfg = ThermalConfig {
            nx: 17,
            ny: 13,
            ..ThermalConfig::default()
        };
        let (_, first) = solve_with_stats(&LayerStack::planar_2d(), &lp, &cfg);
        let before = cache.hits();
        let (_, second) = solve_with_stats(&LayerStack::planar_2d(), &lp, &cfg);
        assert!(!first.assembly_cache_hit || before > 0);
        assert!(
            second.assembly_cache_hit,
            "second solve must reuse the model"
        );
        assert!(cache.hits() > before);
    }

    #[test]
    fn sanitized_clamps_bad_fields_and_keeps_good_ones() {
        let bad = ThermalConfig {
            nx: 0,
            ny: 1,
            ambient_c: f64::NAN,
            convection_k_per_w: -2.0,
            sor_omega: 3.7,
            tolerance_k: 0.0,
            max_iters: 0,
        };
        let s = bad.sanitized();
        assert!(s.validate().is_ok(), "sanitized must validate: {s:?}");
        let good = cfg();
        assert_eq!(
            good.sanitized(),
            good,
            "valid configs pass through unchanged"
        );
    }

    #[test]
    fn wrapper_survives_divergent_omega() {
        // Historical callers could pass sor_omega >= 2 and silently diverge;
        // the wrapper now clamps and still produces a finite field.
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.uniform_power(6.4);
        let s = solve(
            &LayerStack::planar_2d(),
            &[LayerPower {
                floorplan: fp,
                power_w: p,
            }],
            &ThermalConfig {
                sor_omega: 2.8,
                ..cfg()
            },
        );
        assert!(s.peak_c.is_finite() && s.peak_c > 45.0 && s.peak_c < 150.0);
    }

    #[test]
    #[should_panic(expected = "need at least one powered layer")]
    fn rejects_empty_power() {
        let _ = solve(&LayerStack::planar_2d(), &[], &cfg());
    }

    #[test]
    #[should_panic(expected = "more power maps")]
    fn rejects_too_many_layers() {
        let fp = Floorplan::ryzen_like(9.0e-6);
        let p = fp.uniform_power(1.0);
        let lp = LayerPower {
            floorplan: fp,
            power_w: p,
        };
        let _ = solve(&LayerStack::planar_2d(), &[lp.clone(), lp], &cfg());
    }
}
