//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * forcing BP instead of the selected PP on multiported structures;
//! * the hetero bottom-share fraction sweep;
//! * the top-layer access-transistor upsize sweep;
//! * TSV diameter sensitivity;
//! * shared-L2 pairing on/off in the multicore M3D design, plus a
//!   measure-window sweep, both run through the cycle-level batch engine.

use crate::configs::MulticoreDesign;
use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::experiments::RunScale;
use crate::report::{pct, Json, Table};
use m3d_uarch::{BatchStats, SimBatch, SimError, SimInterval, SimPoint};
use m3d_workloads::parallel::splash_parsec;
use m3d_sram::model2d::{analyze_2d, analyze_with_org};
use m3d_sram::partition3d::{partition, partition_with_via, port_partition_plans, Strategy};
use m3d_sram::structures::StructureId;
use m3d_tech::process::{LayerProcesses, ProcessCorner};
use m3d_tech::via::Via;
use m3d_tech::{TechnologyNode, ViaKind};

/// Ablation 1: strategy forced per multiported structure (latency reduction
/// % for PP, BP, WP).
pub fn strategy_ablation() -> Vec<(StructureId, f64, f64, f64)> {
    let node = TechnologyNode::n22();
    [StructureId::Rf, StructureId::Iq, StructureId::Rat]
        .into_iter()
        .map(|id| {
            let spec = id.spec();
            let base = analyze_2d(&spec, &node, ProcessCorner::bulk_hp());
            let lat = |s: Strategy| {
                partition(&spec, &node, s, ViaKind::Miv)
                    .metrics
                    .reduction_vs(&base.metrics)
                    .latency_pct
            };
            (id, lat(Strategy::Port), lat(Strategy::Bit), lat(Strategy::Word))
        })
        .collect()
}

/// Ablation 2+3: hetero RF access latency across (bottom ports, upsize).
/// Returns `(bottom_ports, upsize, access_s)` triples.
pub fn hetero_rf_sweep() -> Vec<(usize, f64, f64)> {
    let node = TechnologyNode::n22();
    let rf = StructureId::Rf.spec();
    let procs = LayerProcesses::hetero();
    let via = Via::miv(&node);
    let org = analyze_2d(&rf, &node, procs.bottom).organization;
    let mut out = Vec::new();
    for p_b in 9..=13 {
        for &u in &[1.0, 1.5, 2.0, 3.0] {
            let (bottom, top, _) =
                port_partition_plans(&rf, &node, procs, &via, p_b, 18 - p_b, u);
            let ab = analyze_with_org(&node, &bottom, org);
            let at = analyze_with_org(&node, &top, org);
            out.push((p_b, u, ab.metrics.access_s.max(at.metrics.access_s)));
        }
    }
    out
}

/// Ablation 4: TSV diameter sweep (bit partitioning of the RF). Returns
/// `(diameter_um, latency_reduction_pct)`.
pub fn tsv_diameter_sweep() -> Vec<(f64, f64)> {
    let node = TechnologyNode::n22();
    let rf = StructureId::Rf.spec();
    let base = analyze_2d(&rf, &node, ProcessCorner::bulk_hp());
    [0.5, 1.0, 1.3, 2.0, 3.0, 5.0]
        .into_iter()
        .map(|d| {
            let mut via = Via::tsv_aggressive();
            via.diameter_um = d;
            via.capacitance_f = 2.5e-15 * d / 1.3;
            let r = partition_with_via(&rf, &node, Strategy::Bit, &via)
                .metrics
                .reduction_vs(&base.metrics);
            (d, r.latency_pct)
        })
        .collect()
}

/// Seed for the cycle-level ablation traces, distinct from the fig6/7 and
/// fig9/10 seeds so the process-wide batch memo cache cannot couple this
/// experiment's counters to the gated studies.
const UARCH_SEED: u64 = 0xAB1;

/// Applications used by the cycle-level ablation (a subset keeps the
/// otherwise-analytical experiment fast).
const UARCH_APPS: usize = 3;

/// One row of the cycle-level (batch-engine) ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchAblationRow {
    /// Application name.
    pub app: String,
    /// Shared-L2 pairing: "on" or "off".
    pub pairing: &'static str,
    /// Measured instructions per core.
    pub measure: u64,
    /// Aggregate IPC over the measured interval.
    pub ipc: f64,
}

/// Ablation 5: shared-L2 pairing on/off plus a measure-window sweep on the
/// four-core M3D-Het design, run through the batch engine. The three
/// windows of the paired configuration share one warm-up per application,
/// so the returned [`BatchStats`] records `2 × apps` checkpoint reuses.
///
/// The batch's process-wide memo cache is bypassed: this experiment
/// renders its batch statistics, and only a cache-free run keeps them (and
/// hence the rendered text) a pure function of the point list no matter
/// what ran earlier in the process.
pub fn uarch_ablation(
    scale: RunScale,
    jobs: usize,
) -> Result<(Vec<UarchAblationRow>, BatchStats), SimError> {
    let design = MulticoreDesign::M3dHet4;
    let paired = design.core_config();
    let mut unpaired = paired.clone();
    unpaired.shared_l2_pairs = false;
    let apps: Vec<_> = splash_parsec().into_iter().take(UARCH_APPS).collect();
    let windows = [scale.measure / 2, scale.measure, scale.measure * 2];
    let interval = |measure| SimInterval {
        warmup: scale.warmup,
        measure,
    };
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for app in &apps {
        for &m in &windows {
            points.push(SimPoint::multi(
                paired.clone(),
                app.clone(),
                UARCH_SEED,
                design.n_cores(),
                interval(m),
            ));
            labels.push((app.name.clone(), "on", m));
        }
        points.push(SimPoint::multi(
            unpaired.clone(),
            app.clone(),
            UARCH_SEED,
            design.n_cores(),
            interval(scale.measure),
        ));
        labels.push((app.name.clone(), "off", scale.measure));
    }
    let (outcomes, stats) = SimBatch::new(jobs).without_cache().run_with_stats(&points);
    let mut rows = Vec::with_capacity(labels.len());
    for ((app, pairing, measure), outcome) in labels.into_iter().zip(outcomes) {
        let r = outcome?;
        rows.push(UarchAblationRow {
            app,
            pairing,
            measure,
            ipc: r.ipc(),
        });
    }
    Ok((rows, stats))
}

/// Render the cycle-level ablation rows.
pub fn uarch_ablation_text(rows: &[UarchAblationRow], stats: &BatchStats) -> String {
    let mut t = Table::new(["App", "L2 pairing", "Window", "IPC"]);
    for r in rows {
        t.row([
            r.app.clone(),
            r.pairing.to_owned(),
            r.measure.to_string(),
            format!("{:.3}", r.ipc),
        ]);
    }
    format!(
        "5. Shared-L2 pairing + measure-window sweep (M3D-Het, 4 cores):\n{}\
         [batch] points {}, cache hits {}, checkpoint reuses {}\n",
        t.render(),
        stats.points,
        stats.cache_hits,
        stats.checkpoint_reuses
    )
}

/// Render the ablations from precomputed sweeps.
pub fn ablations_text_from(
    strategy: &[(StructureId, f64, f64, f64)],
    sweep: &[(usize, f64, f64)],
    tsv: &[(f64, f64)],
) -> String {
    let mut out = String::from("Ablations over the design choices\n\n");

    let mut t = Table::new(["Structure", "PP", "BP", "WP"]);
    for (id, pp, bp, wp) in strategy {
        t.row([id.label().to_owned(), pct(*pp), pct(*bp), pct(*wp)]);
    }
    out.push_str("1. Forced-strategy latency reductions (multiported):\n");
    out.push_str(&t.render());

    out.push_str("\n2+3. Hetero RF access (ps) vs bottom ports x upsize:\n");
    let mut t = Table::new(["b\\u", "1.0x", "1.5x", "2.0x", "3.0x"]);
    for p_b in 9..=13 {
        let row: Vec<String> = std::iter::once(p_b.to_string())
            .chain(sweep.iter().filter(|(b, _, _)| *b == p_b).map(|(_, _, a)| {
                format!("{:.0}", a * 1e12)
            }))
            .collect();
        t.row(row);
    }
    out.push_str(&t.render());

    out.push_str("\n4. TSV diameter vs RF bit-partitioning latency gain:\n");
    let mut t = Table::new(["Diameter", "Latency reduction"]);
    for (d, lat) in tsv {
        t.row([format!("{d:.1} um"), pct(*lat)]);
    }
    out.push_str(&t.render());
    out
}

/// Registry entry point for the ablation studies.
pub fn report(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let strategy = strategy_ablation();
    let t_strategy = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let sweep = hetero_rf_sweep();
    let t_sweep = t1.elapsed().as_secs_f64();
    let t2 = std::time::Instant::now();
    let tsv = tsv_diameter_sweep();
    let t_tsv = t2.elapsed().as_secs_f64();
    let t3 = std::time::Instant::now();
    let (uarch, batch) =
        uarch_ablation(ctx.scale(), ctx.jobs())?;
    let t_uarch = t3.elapsed().as_secs_f64();
    let scale = ctx.scale();
    // Per app: two warm-ups actually run (paired group + unpaired) and
    // measure windows of m/2 + m + 2m + m = 9m/2 instructions per core.
    let uops = UARCH_APPS as u64
        * MulticoreDesign::M3dHet4.n_cores() as u64
        * (2 * scale.warmup + 9 * scale.measure / 2);
    Ok(ExperimentReport {
        sections: vec![
            Section::always(ablations_text_from(&strategy, &sweep, &tsv)),
            Section::always(uarch_ablation_text(&uarch, &batch)),
        ],
        rows: Json::obj([
            (
                "forced_strategy_latency_pct",
                Json::arr(strategy.iter().map(|(id, pp, bp, wp)| {
                    Json::obj([
                        ("structure", Json::from(id.label())),
                        ("pp", Json::from(*pp)),
                        ("bp", Json::from(*bp)),
                        ("wp", Json::from(*wp)),
                    ])
                })),
            ),
            (
                "hetero_rf_access_s",
                Json::arr(sweep.iter().map(|(b, u, a)| {
                    Json::obj([
                        ("bottom_ports", Json::from(*b)),
                        ("upsize", Json::from(*u)),
                        ("access_s", Json::from(*a)),
                    ])
                })),
            ),
            (
                "tsv_diameter_latency_pct",
                Json::arr(tsv.iter().map(|(d, lat)| {
                    Json::obj([
                        ("diameter_um", Json::from(*d)),
                        ("latency_reduction_pct", Json::from(*lat)),
                    ])
                })),
            ),
            (
                "uarch_shared_l2",
                Json::arr(uarch.iter().map(|r| {
                    Json::obj([
                        ("app", Json::from(r.app.clone())),
                        ("pairing", Json::from(r.pairing)),
                        ("measure", Json::from(r.measure)),
                        ("ipc", Json::from(r.ipc)),
                    ])
                })),
            ),
        ]),
        meta: Json::obj([
            ("node_nm", Json::from(22i64)),
            ("batch_points", Json::from(batch.points)),
            ("batch_cache_hits", Json::from(batch.cache_hits)),
            ("batch_checkpoint_reuses", Json::from(batch.checkpoint_reuses)),
        ]),
        phases: vec![
            ("forced_strategy", t_strategy),
            ("hetero_rf_sweep", t_sweep),
            ("tsv_diameter_sweep", t_tsv),
            ("uarch_ablation", t_uarch),
        ],
        uops,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pp_wins_or_ties_for_rf() {
        let rows = strategy_ablation();
        let (_, pp, bp, wp) = rows[0];
        assert!(pp >= bp - 1.0 && pp >= wp - 1.0, "pp {pp} bp {bp} wp {wp}");
    }

    #[test]
    fn hetero_sweep_has_an_interior_upsize_optimum() {
        // At the chosen port split, some upsize > 1.0 beats no upsizing —
        // the paper's "double-width transistors" rationale.
        let sweep = hetero_rf_sweep();
        let at = |b: usize, u: f64| {
            sweep
                .iter()
                .find(|(bb, uu, _)| *bb == b && (*uu - u).abs() < 1e-9)
                .map(|(_, _, a)| *a)
                .expect("point exists")
        };
        assert!(at(9, 1.5) < at(9, 1.0), "upsizing must help at b=9");
        assert!(at(9, 3.0) > at(9, 1.5), "over-upsizing must hurt");
    }

    #[test]
    fn tsv_gains_decay_with_diameter() {
        let sweep = tsv_diameter_sweep();
        for w in sweep.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 0.5,
                "gain must not grow with diameter: {w:?}"
            );
        }
        assert!(sweep[0].1 > sweep.last().expect("non-empty").1 + 3.0);
    }

    #[test]
    fn renders() {
        let text =
            ablations_text_from(&strategy_ablation(), &hetero_rf_sweep(), &tsv_diameter_sweep());
        assert!(text.contains("Ablations"));
    }

    #[test]
    fn uarch_ablation_reuses_checkpoints_and_varies_pairing() {
        // A scale no other caller uses, so the process-wide memo cache is
        // cold and the counters are exact.
        let scale = RunScale {
            warmup: 4_000,
            measure: 2_000,
        };
        let (rows, stats) = uarch_ablation(scale, 2).expect("paper config is valid");
        assert_eq!(rows.len(), 4 * UARCH_APPS);
        assert_eq!(stats.points, 4 * UARCH_APPS as u64);
        assert_eq!(stats.cache_hits, 0);
        // The three windows of the paired config share one warm-up per app.
        assert_eq!(stats.checkpoint_reuses, 2 * UARCH_APPS as u64);
        for r in &rows {
            assert!(r.ipc.is_finite() && r.ipc > 0.0, "{}: ipc {}", r.app, r.ipc);
        }
    }
}
