//! The experiment registry and parallel orchestrator behind `repro`.
//!
//! Every table/figure driver exposes a uniform `report(&Ctx) ->
//! ExperimentReport` entry point; this module registers them all in
//! [`REGISTRY`] with their declared dependencies (the shared
//! [`DesignSpace`] prerequisite, the thermal model cache, the entries they
//! start after) and a scheduling weight, and runs a selection of them
//! across a `std::thread::scope` worker pool.
//!
//! Determinism contract: experiments are *executed* heaviest-first across
//! workers, but their rendered text is *emitted* in registry order, and all
//! structured rows are independent of the worker count — `--jobs 1` and
//! `--jobs N` produce the same report contents (only wall-clock fields
//! differ).

use crate::experiments::{
    ablations, fig5_logic, fig6_fig7_single_core, fig8_thermal, fig9_fig10_multicore, frontier,
    section5_alternatives, table11_configs, table1_table2_fig2_vias, table3_4_5_partitioning,
    table6_best, table7_techniques, table8_hetero, RunScale,
};
use crate::planner::DesignSpace;
use crate::report::Json;
use m3d_thermal::model::SolveStatsSummary;
use m3d_thermal::solver::ThermalConfig;
use m3d_uarch::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on the worker-lane count a [`Ctx`] accepts. The registry
/// holds 17 experiments and the batch engine shards within one machine, so
/// lane counts beyond this are a typo, not a machine.
pub const MAX_JOBS: usize = 64;

/// Why an experiment driver failed.
///
/// Every registry driver returns this typed error instead of a bare
/// `String`, so downstream consumers (the `repro` stderr report, the JSON
/// artifacts, the `m3d-serve` wire protocol) can switch on the failure
/// class without string matching. The [`std::fmt::Display`] form of each
/// variant is byte-identical to the string the pre-typed drivers produced,
/// which keeps rendered `repro` stderr stable.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// An experiment input — a hand-built configuration, a simulation
    /// point, a core count — was rejected by the simulator's validation.
    Invalid(SimError),
    /// A driver running in strict mode refused to report results because
    /// measured intervals were truncated by the livelock cap.
    CapExhausted {
        /// Registry id of the affected experiment (or `"sim"` for ad-hoc
        /// batch queries).
        experiment: String,
        /// Number of truncated simulation points.
        points: u64,
    },
    /// The driver panicked; the payload message was captured by the
    /// orchestrator's `catch_unwind`.
    Panic(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Render exactly like the old stringly errors did: the inner
            // message alone, no variant prefix.
            ExperimentError::Invalid(e) => write!(f, "{e}"),
            ExperimentError::Panic(msg) => write!(f, "{msg}"),
            ExperimentError::CapExhausted { experiment, points } => write!(
                f,
                "{experiment}: {points} simulation point(s) hit the livelock \
                 cap; refusing to report truncated intervals"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ExperimentError {
    fn from(e: SimError) -> Self {
        ExperimentError::Invalid(e)
    }
}

/// Why a [`CtxBuilder`] rejected its configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtxError {
    /// The requested worker-lane count is outside `1..=`[`MAX_JOBS`].
    JobsOutOfRange {
        /// The rejected value.
        jobs: usize,
    },
}

impl std::fmt::Display for CtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtxError::JobsOutOfRange { jobs } => {
                write!(f, "jobs must be between 1 and {MAX_JOBS}, got {jobs}")
            }
        }
    }
}

impl std::error::Error for CtxError {}

/// Shared execution context handed to every experiment driver.
///
/// The expensive prerequisites are computed once and shared: the
/// [`DesignSpace`] lives behind a [`OnceLock`] (the first experiment that
/// needs it computes it; concurrent callers block on the same
/// initialisation), and the three per-design thermal models can be
/// pre-warmed into the process-wide model cache so that cache-hit
/// statistics do not depend on which thermal experiment happens to run
/// first under a parallel schedule.
#[derive(Debug)]
pub struct Ctx {
    scale: RunScale,
    quick: bool,
    jobs: usize,
    space: OnceLock<DesignSpace>,
}

/// Builder for [`Ctx`], the only construction path that sets a worker-lane
/// count.
///
/// Validation happens once at [`CtxBuilder::build`] — the `repro` CLI, the
/// `serve` daemon, and tests all share the same `1..=`[`MAX_JOBS`] jobs
/// check instead of each caller re-implementing it.
///
/// ```
/// use m3d_core::experiments::registry::Ctx;
/// use m3d_core::experiments::RunScale;
/// let ctx = Ctx::builder()
///     .scale(RunScale::quick())
///     .quick(true)
///     .jobs(4)
///     .build()
///     .expect("4 lanes are within range");
/// assert_eq!(ctx.jobs(), 4);
/// assert!(Ctx::builder().jobs(0).build().is_err());
/// assert!(Ctx::builder().jobs(65).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CtxBuilder {
    scale: RunScale,
    quick: bool,
    jobs: usize,
}

impl CtxBuilder {
    /// Simulation window sizes (defaults to [`RunScale::full`]).
    pub fn scale(mut self, scale: RunScale) -> Self {
        self.scale = scale;
        self
    }

    /// Whether this is a `--quick` run (defaults to `false`).
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Worker lanes the uarch batch engine may use inside a single
    /// experiment (defaults to 1). Results are identical for every value in
    /// `1..=`[`MAX_JOBS`]; only wall time changes.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Validate and build the context.
    pub fn build(self) -> Result<Ctx, CtxError> {
        if !(1..=MAX_JOBS).contains(&self.jobs) {
            return Err(CtxError::JobsOutOfRange { jobs: self.jobs });
        }
        Ok(Ctx {
            scale: self.scale,
            quick: self.quick,
            jobs: self.jobs,
            space: OnceLock::new(),
        })
    }
}

impl Ctx {
    /// Start building a context (full scale, not quick, one worker lane).
    pub fn builder() -> CtxBuilder {
        CtxBuilder {
            scale: RunScale::full(),
            quick: false,
            jobs: 1,
        }
    }

    /// Create a single-lane context: shorthand for
    /// `Ctx::builder().scale(scale).quick(quick).build()`.
    pub fn new(scale: RunScale, quick: bool) -> Self {
        Ctx::builder()
            .scale(scale)
            .quick(quick)
            .build()
            .expect("one worker lane is always valid")
    }

    /// Worker lanes available to in-experiment batch simulation.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The simulation window sizes for this run.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// Whether this is a `--quick` run (smaller thermal app subsets).
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The shared design space, computed on first use (once per context).
    pub fn space(&self) -> &DesignSpace {
        self.space.get_or_init(|| {
            eprintln!("[repro] computing design space (planner over 12 structures)...");
            DesignSpace::compute()
        })
    }

    /// Assemble the three per-design thermal models into the process-wide
    /// cache so every thermal experiment observes the same (warm) cache
    /// state regardless of scheduling order.
    pub fn prewarm_thermal_models(&self) {
        let _ = fig8_thermal::DesignModels::build(&ThermalConfig::default());
    }
}

/// One block of rendered text inside a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// When `Some(name)`, the block is printed only if `name` was requested
    /// (several paper figures share one simulation run); `None` blocks print
    /// whenever the owning experiment is selected.
    pub only_for: Option<&'static str>,
    /// The text, byte-identical to what the pre-orchestrator serial `repro`
    /// passed to `println!` for this block.
    pub text: String,
}

impl Section {
    /// A block printed whenever the experiment is selected.
    pub fn always(text: String) -> Self {
        Self {
            only_for: None,
            text,
        }
    }

    /// A block printed only when `name` was explicitly or implicitly wanted.
    pub fn named(name: &'static str, text: String) -> Self {
        Self {
            only_for: Some(name),
            text,
        }
    }
}

/// The uniform result of one experiment driver: rendered text plus
/// machine-readable rows and run metadata for the JSON artifacts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentReport {
    /// Rendered text blocks in print order.
    pub sections: Vec<Section>,
    /// Structured result rows (the artifact payload).
    pub rows: Json,
    /// Experiment-specific metadata (design labels, sweep parameters, ...).
    pub meta: Json,
    /// Per-phase wall time, seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// Accumulated thermal-solver statistics, when the experiment solves.
    pub thermal: Option<SolveStatsSummary>,
    /// Nominal µops simulated (warm-up + measured, summed over cores), for
    /// the manifest's throughput figure; zero for analytical experiments.
    pub uops: u64,
}

/// One registry entry: an experiment with its names and dependencies.
#[derive(Debug)]
pub struct ExperimentSpec {
    /// Registry id; also the artifact file stem (`<name>.json`).
    pub name: &'static str,
    /// Human-readable title (manifest and progress output).
    pub title: &'static str,
    /// The `repro` CLI names that select this entry (a shared simulation
    /// run serves several paper figures).
    pub cli_names: &'static [&'static str],
    /// Whether the driver consumes the shared [`DesignSpace`].
    pub needs_space: bool,
    /// Whether the driver runs the thermal solver (and therefore touches
    /// the process-wide model cache).
    pub needs_thermal: bool,
    /// Scheduling weight: heavier experiments are started first so the
    /// total wall time is bounded by the slowest experiment, not the sum.
    pub weight: u32,
    /// Registry ids of the entries this one starts after, when they are
    /// selected too: fig8 reads the simulations of `fig6_fig7` from the
    /// memo cache. An entry that is not selected does not hold it back.
    /// Only earlier registry entries may be named, so no selection can
    /// deadlock.
    pub after: &'static [&'static str],
    /// The driver entry point. Typed failures (e.g. an invalid simulation
    /// point) return `Err` and are reported like caught panics, without
    /// tearing down the run.
    pub run: fn(&Ctx) -> Result<ExperimentReport, ExperimentError>,
}

impl ExperimentSpec {
    /// Declared dependencies as stable names: `"space"` when the driver
    /// consumes the shared [`DesignSpace`], `"thermal"` when it runs the
    /// thermal solver, then the ids of the entries it runs
    /// [`after`](ExperimentSpec::after). `repro --list` prints them.
    pub fn deps(&self) -> Vec<&'static str> {
        let mut d = Vec::new();
        if self.needs_space {
            d.push("space");
        }
        if self.needs_thermal {
            d.push("thermal");
        }
        d.extend(self.after);
        d
    }
}

/// All experiments, in the deterministic output order of `repro all`
/// (identical to the historical serial print order).
pub static REGISTRY: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "table1",
        title: "Table 1: via area overhead",
        cli_names: &["table1"],
        needs_space: false,
        needs_thermal: false,
        weight: 1,
        after: &[],
        run: table1_table2_fig2_vias::report_table1,
    },
    ExperimentSpec {
        name: "table2",
        title: "Table 2: via electrical characteristics",
        cli_names: &["table2"],
        needs_space: false,
        needs_thermal: false,
        weight: 1,
        after: &[],
        run: table1_table2_fig2_vias::report_table2,
    },
    ExperimentSpec {
        name: "fig2",
        title: "Figure 2: relative areas",
        cli_names: &["fig2"],
        needs_space: false,
        needs_thermal: false,
        weight: 1,
        after: &[],
        run: table1_table2_fig2_vias::report_fig2,
    },
    ExperimentSpec {
        name: "table3",
        title: "Table 3: bit partitioning",
        cli_names: &["table3"],
        needs_space: false,
        needs_thermal: false,
        weight: 5,
        after: &[],
        run: table3_4_5_partitioning::report_table3,
    },
    ExperimentSpec {
        name: "table4",
        title: "Table 4: word partitioning",
        cli_names: &["table4"],
        needs_space: false,
        needs_thermal: false,
        weight: 5,
        after: &[],
        run: table3_4_5_partitioning::report_table4,
    },
    ExperimentSpec {
        name: "table5",
        title: "Table 5: port partitioning",
        cli_names: &["table5"],
        needs_space: false,
        needs_thermal: false,
        weight: 5,
        after: &[],
        run: table3_4_5_partitioning::report_table5,
    },
    ExperimentSpec {
        name: "fig5",
        title: "Figure 5 / Section 3.1: logic-stage partitioning",
        cli_names: &["fig5"],
        needs_space: false,
        needs_thermal: false,
        weight: 3,
        after: &[],
        run: fig5_logic::report,
    },
    ExperimentSpec {
        name: "table7",
        title: "Table 7: hetero-layer techniques",
        cli_names: &["table7"],
        needs_space: false,
        needs_thermal: false,
        weight: 1,
        after: &[],
        run: table7_techniques::report,
    },
    ExperimentSpec {
        name: "ablations",
        title: "Ablations over the design choices",
        cli_names: &["ablations"],
        needs_space: false,
        needs_thermal: false,
        weight: 10,
        after: &[],
        run: ablations::report,
    },
    ExperimentSpec {
        name: "section5",
        title: "Section 5 / 7.1.2: alternatives and thermal headroom",
        cli_names: &["section5"],
        needs_space: false,
        needs_thermal: true,
        weight: 30,
        after: &[],
        run: section5_alternatives::report,
    },
    ExperimentSpec {
        name: "table6",
        title: "Table 6: best iso-layer partition per structure",
        cli_names: &["table6"],
        needs_space: true,
        needs_thermal: false,
        weight: 20,
        after: &[],
        run: table6_best::report,
    },
    ExperimentSpec {
        name: "table8",
        title: "Table 8: best hetero-layer partitioning",
        cli_names: &["table8"],
        needs_space: true,
        needs_thermal: false,
        weight: 20,
        after: &[],
        run: table8_hetero::report,
    },
    ExperimentSpec {
        name: "table11",
        title: "Table 11: configurations and thermal feasibility",
        cli_names: &["table11"],
        needs_space: true,
        needs_thermal: true,
        weight: 25,
        after: &[],
        run: table11_configs::report,
    },
    ExperimentSpec {
        name: "fig6_fig7",
        title: "Figures 6-7: single-core speed-up and energy",
        cli_names: &["fig6", "fig7"],
        needs_space: true,
        needs_thermal: false,
        weight: 100,
        after: &[],
        run: fig6_fig7_single_core::report,
    },
    ExperimentSpec {
        name: "fig8",
        title: "Figure 8: peak temperature per design",
        cli_names: &["fig8"],
        needs_space: true,
        needs_thermal: true,
        weight: 60,
        after: &["fig6_fig7"],
        run: fig8_thermal::report,
    },
    ExperimentSpec {
        name: "fig9_fig10",
        title: "Figures 9-10: multicore speed-up, energy, and thermal check",
        cli_names: &["fig9", "fig10"],
        needs_space: true,
        needs_thermal: true,
        weight: 90,
        after: &[],
        run: fig9_fig10_multicore::report,
    },
    ExperimentSpec {
        name: "frontier",
        title: "Design-space search: Pareto frontier over designs x DVFS",
        cli_names: &["frontier"],
        needs_space: true,
        needs_thermal: true,
        weight: 80,
        after: &[],
        run: frontier::report,
    },
];

/// Look up a registry entry by its id or any of its CLI names.
///
/// The single lookup path shared by `repro`, the artifact tests, and the
/// `m3d-serve` `experiment` method.
pub fn find(name: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY
        .iter()
        .find(|s| s.name == name || s.cli_names.contains(&name))
}

/// Iterate over every registry entry as `(name, deps, weight)`, in registry
/// order. `repro --list` and the `m3d-serve` `list` method render this one
/// enumeration instead of owning private copies of the registry layout.
pub fn entries() -> impl Iterator<Item = (&'static str, Vec<&'static str>, u32)> {
    REGISTRY.iter().map(|s| (s.name, s.deps(), s.weight))
}

/// Resolve a `repro` experiment selection to registry entries, preserving
/// registry order.
///
/// An empty list or the name `all` selects everything; an entry is selected
/// when its id or any of its CLI names is wanted. Unknown names are an
/// error listing the valid ones.
pub fn select(wanted: &[&str]) -> Result<Vec<&'static ExperimentSpec>, String> {
    let all = wanted.is_empty() || wanted.contains(&"all");
    for w in wanted {
        let known = *w == "all"
            || REGISTRY
                .iter()
                .any(|s| s.name == *w || s.cli_names.contains(w));
        if !known {
            let mut valid: Vec<&str> = REGISTRY
                .iter()
                .flat_map(|s| s.cli_names.iter().copied())
                .collect();
            valid.push("all");
            return Err(format!(
                "unknown experiment `{w}`; valid names: {}",
                valid.join(" ")
            ));
        }
    }
    Ok(REGISTRY
        .iter()
        .filter(|s| {
            all || wanted
                .iter()
                .any(|w| s.name == *w || s.cli_names.contains(w))
        })
        .collect())
}

/// The outcome of one scheduled experiment.
#[derive(Debug)]
pub struct Outcome {
    /// The registry entry that ran.
    pub spec: &'static ExperimentSpec,
    /// The report, or the typed failure (a caught panic becomes
    /// [`ExperimentError::Panic`]).
    pub report: Result<ExperimentReport, ExperimentError>,
    /// Start offset from the beginning of the run, seconds.
    pub start_s: f64,
    /// Wall time of this experiment, seconds.
    pub wall_s: f64,
    /// Counters and histograms attributed to this experiment, when
    /// instrumentation was enabled for the run (`None` otherwise).
    pub metrics: Option<m3d_obs::MetricsSnapshot>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> ExperimentError {
    ExperimentError::Panic(if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked".to_owned()
    })
}

/// What the worker lanes of [`run_experiments`] share.
struct Schedule {
    /// Unclaimed entries, heaviest first.
    queue: Vec<usize>,
    /// Entries whose driver has returned (`Ok`, `Err` or panic).
    finished: Vec<bool>,
    /// Outcomes not yet emitted.
    slots: Vec<Option<Outcome>>,
}

/// Run `selected` experiments on up to `jobs` worker threads.
///
/// Execution order is heaviest-first (by [`ExperimentSpec::weight`]) so the
/// run is bounded by the slowest experiment, except that an entry starts
/// only once every selected entry it runs [`after`](ExperimentSpec::after)
/// has finished, whether it succeeded, failed or panicked; a free lane
/// meanwhile takes the heaviest entry it may start. `emit` is nevertheless
/// called exactly once per experiment **in registry order**, as soon as
/// each result and all its predecessors are available, so output streams
/// deterministically. Panicking drivers are caught and surfaced as `Err`
/// outcomes instead of tearing down the run.
///
/// When at least two selected experiments touch the thermal solver, the
/// per-design models are pre-assembled into the shared cache first so that
/// cache-hit statistics are identical for every `jobs` value.
pub fn run_experiments(
    ctx: &Ctx,
    selected: &[&'static ExperimentSpec],
    jobs: usize,
    mut emit: impl FnMut(&Outcome),
) -> Vec<Outcome> {
    let n = selected.len();
    if n == 0 {
        return Vec::new();
    }
    if selected.iter().filter(|s| s.needs_thermal).count() >= 2 {
        ctx.prewarm_thermal_models();
    }
    let jobs = jobs.clamp(1, n);

    // Schedule heaviest-first; the sort is stable, so equal weights keep
    // registry order.
    let mut queue: Vec<usize> = (0..n).collect();
    queue.sort_by_key(|&i| std::cmp::Reverse(selected[i].weight));
    // The selected entries each entry waits for.
    let waits_for: Vec<Vec<usize>> = selected
        .iter()
        .map(|s| {
            (0..n)
                .filter(|&j| s.after.contains(&selected[j].name))
                .collect()
        })
        .collect();

    let state = Mutex::new(Schedule {
        queue,
        finished: vec![false; n],
        slots: (0..n).map(|_| None).collect(),
    });
    let changed = Condvar::new();
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for lane in 0..jobs {
            let (state, changed, waits_for) = (&state, &changed, &waits_for);
            scope.spawn(move || {
                m3d_obs::label_thread(format!("repro-worker-{lane}"));
                let mut guard = state.lock().expect("orchestrator state poisoned");
                loop {
                    let startable = guard
                        .queue
                        .iter()
                        .position(|&i| waits_for[i].iter().all(|&j| guard.finished[j]));
                    let Some(k) = startable else {
                        if guard.queue.is_empty() {
                            break;
                        }
                        guard = changed.wait(guard).expect("orchestrator state poisoned");
                        continue;
                    };
                    let i = guard.queue.remove(k);
                    drop(guard);
                    let spec = selected[i];
                    // All counters emitted while this driver runs (on this
                    // thread or any worker that re-enters the task) are
                    // attributed to this experiment.
                    let task = m3d_obs::TaskMetrics::new(spec.name);
                    let started = Instant::now();
                    let start_s = started.duration_since(t0).as_secs_f64();
                    let report = {
                        let _task = task.enter();
                        let _span = m3d_obs::span("registry", spec.name);
                        let report = catch_unwind(AssertUnwindSafe(|| (spec.run)(ctx)))
                            .map_err(panic_message)
                            .and_then(|r| r);
                        if let Ok(r) = &report {
                            m3d_obs::add("core.uops", r.uops);
                        }
                        report
                    };
                    let outcome = Outcome {
                        spec,
                        report,
                        start_s,
                        wall_s: started.elapsed().as_secs_f64(),
                        metrics: m3d_obs::is_enabled().then(|| task.snapshot()),
                    };
                    guard = state.lock().expect("orchestrator state poisoned");
                    guard.finished[i] = true;
                    guard.slots[i] = Some(outcome);
                    changed.notify_all();
                }
            });
        }

        // The caller's thread drains results in registry order.
        let mut out: Vec<Outcome> = Vec::with_capacity(n);
        let mut guard = state.lock().expect("orchestrator state poisoned");
        for i in 0..n {
            while guard.slots[i].is_none() {
                guard = changed.wait(guard).expect("orchestrator state poisoned");
            }
            let outcome = guard.slots[i].take().expect("slot just checked");
            drop(guard);
            emit(&outcome);
            out.push(outcome);
            guard = state.lock().expect("orchestrator state poisoned");
        }
        drop(guard);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_and_cli_names_are_unique() {
        let mut ids: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len());
        let mut names: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|s| s.cli_names.iter().copied())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate CLI name");
        assert!(!names.contains(&"all"), "`all` is reserved");
    }

    #[test]
    fn selection_resolves_aliases_and_rejects_unknowns() {
        assert_eq!(select(&[]).expect("all").len(), REGISTRY.len());
        assert_eq!(select(&["all"]).expect("all").len(), REGISTRY.len());
        let s = select(&["fig6"]).expect("alias");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "fig6_fig7");
        // Selection keeps registry order regardless of argument order.
        let s = select(&["fig5", "table1"]).expect("two");
        assert_eq!(s[0].name, "table1");
        assert_eq!(s[1].name, "fig5");
        assert!(select(&["nope"]).is_err());
    }

    fn ok_spec(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        let _ = ctx.quick();
        Ok(ExperimentReport {
            sections: vec![Section::always("ok".to_owned())],
            rows: Json::from(1i64),
            ..Default::default()
        })
    }

    fn panicking_spec(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        panic!("boom");
    }

    static FAKE: [ExperimentSpec; 2] = [
        ExperimentSpec {
            name: "a",
            title: "a",
            cli_names: &["a"],
            needs_space: false,
            needs_thermal: false,
            weight: 1,
            after: &[],
            run: ok_spec,
        },
        ExperimentSpec {
            name: "b",
            title: "b",
            cli_names: &["b"],
            needs_space: false,
            needs_thermal: false,
            weight: 100,
            after: &[],
            run: panicking_spec,
        },
    ];

    #[test]
    fn emits_in_input_order_and_captures_panics() {
        let ctx = Ctx::new(RunScale::quick(), true);
        let selected: Vec<&'static ExperimentSpec> = FAKE.iter().collect();
        let mut seen = Vec::new();
        let outcomes = run_experiments(&ctx, &selected, 2, |o| seen.push(o.spec.name));
        // `b` is heavier and scheduled first, but emit order follows the
        // input (registry) order.
        assert_eq!(seen, vec!["a", "b"]);
        assert!(outcomes[0].report.is_ok());
        let err = outcomes[1].report.as_ref().expect_err("panicked");
        assert!(matches!(err, ExperimentError::Panic(_)), "{err}");
        assert!(err.to_string().contains("boom"), "{err}");
        assert!(outcomes.iter().all(|o| o.wall_s >= 0.0));
    }

    #[test]
    fn after_names_an_earlier_registry_entry() {
        // Entries only wait for earlier ones, so no selection can deadlock.
        for (i, spec) in REGISTRY.iter().enumerate() {
            for target in spec.after {
                let j = REGISTRY.iter().position(|s| s.name == *target);
                assert!(
                    j.is_some_and(|j| j < i),
                    "{} runs after `{target}`, which is not an earlier entry",
                    spec.name
                );
            }
        }
        let fig8 = find("fig8").expect("registered");
        assert_eq!(fig8.after, ["fig6_fig7"]);
        assert_eq!(fig8.deps(), ["space", "thermal", "fig6_fig7"]);
    }

    /// Start and finish events of the [`SCHED`] drivers, in order.
    static EVENTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// A driver that logs its start, runs `body` for its result, and
    /// logs its finish (also when `body` panics).
    fn logged(
        name: &str,
        body: impl FnOnce() -> Result<ExperimentReport, ExperimentError>,
    ) -> Result<ExperimentReport, ExperimentError> {
        struct Finish<'a>(&'a str);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                let mut events = EVENTS.lock().unwrap_or_else(|e| e.into_inner());
                events.push(format!("finish {}", self.0));
            }
        }
        EVENTS.lock().expect("events").push(format!("start {name}"));
        let _finish = Finish(name);
        body()
    }

    fn sched_ok(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("ok", || Ok(ExperimentReport::default()))
    }
    fn sched_err(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("err", || {
            Err(ExperimentError::CapExhausted {
                experiment: "err".to_owned(),
                points: 1,
            })
        })
    }
    fn sched_panic(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("panic", || panic!("scheduled panic"))
    }
    fn sched_after_ok(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("after_ok", || Ok(ExperimentReport::default()))
    }
    fn sched_after_err(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("after_err", || Ok(ExperimentReport::default()))
    }
    fn sched_after_panic(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("after_panic", || Ok(ExperimentReport::default()))
    }
    fn sched_after_unselected(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("after_unselected", || Ok(ExperimentReport::default()))
    }
    fn sched_unselected(_: &Ctx) -> Result<ExperimentReport, ExperimentError> {
        logged("unselected", || Ok(ExperimentReport::default()))
    }

    macro_rules! sched_spec {
        ($name:literal, $weight:literal, $after:expr, $run:path) => {
            ExperimentSpec {
                name: $name,
                title: $name,
                cli_names: &[$name],
                needs_space: false,
                needs_thermal: false,
                weight: $weight,
                after: $after,
                run: $run,
            }
        };
    }

    /// Each dependant outweighs its target, so heaviest-first alone would
    /// start it first.
    static SCHED: [ExperimentSpec; 8] = [
        sched_spec!("after_ok", 90, &["ok"], sched_after_ok),
        sched_spec!("after_err", 80, &["err"], sched_after_err),
        sched_spec!("after_panic", 70, &["panic"], sched_after_panic),
        sched_spec!(
            "after_unselected",
            60,
            &["unselected"],
            sched_after_unselected
        ),
        sched_spec!("ok", 3, &[], sched_ok),
        sched_spec!("err", 2, &[], sched_err),
        sched_spec!("panic", 1, &[], sched_panic),
        sched_spec!("unselected", 1, &[], sched_unselected),
    ];

    #[test]
    fn entries_start_after_their_selected_targets_finish() {
        let selected: Vec<&'static ExperimentSpec> =
            SCHED.iter().filter(|s| s.name != "unselected").collect();
        for jobs in [1, 2, 4] {
            EVENTS.lock().expect("events").clear();
            // A blocked entry would hang the run: fail after a deadline
            // instead.
            let (tx, rx) = std::sync::mpsc::channel();
            let run = selected.clone();
            let runner = std::thread::spawn(move || {
                let ctx = Ctx::new(RunScale::quick(), true);
                let mut emitted = Vec::new();
                let outcomes = run_experiments(&ctx, &run, jobs, |o| emitted.push(o.spec.name));
                let ok: Vec<(&str, bool)> = outcomes
                    .iter()
                    .map(|o| (o.spec.name, o.report.is_ok()))
                    .collect();
                tx.send((emitted, ok)).ok();
            });
            let (emitted, ok) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("jobs {jobs}: the run did not finish"));
            runner.join().expect("the runner sent its result");
            let names: Vec<&str> = selected.iter().map(|s| s.name).collect();
            assert_eq!(emitted, names, "jobs {jobs}: emit follows registry order");
            let expected: Vec<(&str, bool)> = names
                .iter()
                .map(|&n| (n, n != "err" && n != "panic"))
                .collect();
            assert_eq!(ok, expected, "jobs {jobs}");
            let events = EVENTS.lock().expect("events").clone();
            let at = |e: &str| {
                events
                    .iter()
                    .position(|x| x == e)
                    .unwrap_or_else(|| panic!("jobs {jobs}: no `{e}` in {events:?}"))
            };
            for (dependant, target) in [
                ("after_ok", "ok"),
                ("after_err", "err"),
                ("after_panic", "panic"),
            ] {
                assert!(
                    at(&format!("start {dependant}")) > at(&format!("finish {target}")),
                    "jobs {jobs}: {dependant} started before {target} finished: {events:?}"
                );
            }
            // Waiting on an unselected entry is no wait: it is the
            // heaviest entry free to start, so it starts first.
            assert!(!events.iter().any(|e| e.ends_with(" unselected")));
            assert_eq!(events[0], "start after_unselected", "jobs {jobs}");
        }
    }

    #[test]
    fn jobs_are_clamped() {
        let ctx = Ctx::new(RunScale::quick(), true);
        let selected: Vec<&'static ExperimentSpec> = FAKE[..1].iter().collect();
        let outcomes = run_experiments(&ctx, &selected, 0, |_| {});
        assert_eq!(outcomes.len(), 1);
        assert!(run_experiments(&ctx, &[], 4, |_| {}).is_empty());
    }
}
