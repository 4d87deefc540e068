//! Design-space exploration: Pareto frontiers over the paper's design axes.
//!
//! The planner (Sections 3–4) fixes the best partition per structure and the
//! frequency each design can sign off at; this module explores the space
//! *around* those points. A [`SearchSpace`] enumerates candidates over
//!
//! * **design** — a Table 11 [`DesignPoint`], which bundles the partition
//!   strategy (iso vs hetero vs TSV) with its layer stack and rated
//!   frequency;
//! * **issue width** — the core-config axis (M3D-Het-W widens to 8);
//! * **core count** — 1 drives SPEC profiles, >1 drives the parallel suite
//!   with shared L2 pairs, as in Figures 9–10;
//! * **application**;
//! * **DVFS point** — a supply voltage; the candidate's frequency follows
//!   the alpha-power [`VfCurve`] anchored at the design's rated point and
//!   is clamped at the rated frequency (the array timing signoff does not
//!   move with supply, so over-volting buys nothing).
//!
//! Candidates are evaluated through the memoized [`SimBatch`] engine, the
//! [`CorePowerModel`], and a linearised per-stack thermal response (one cold
//! solve per layer stack, cached process-wide), and the non-dominated set
//! under *(interval time, processor energy, peak temperature)* — all
//! minimised — is extracted incrementally in fixed-size chunks.
//!
//! # Pruning
//!
//! Two dominance rules run *before* simulation. Both are exact: a pruned
//! candidate provably cannot enter the frontier, so the pruned run's
//! frontier is byte-identical to brute force (see SEARCH.md for the safety
//! argument of each bound, and the property test at the bottom of this
//! file for the mechanised check).
//!
//! 1. **Equal-frequency dominance.** Supply voltage is invisible to the
//!    simulator (it is carried in the config hash but never read by the
//!    cycle loop), so two candidates differing only in Vdd at the *same*
//!    clamped frequency produce identical simulations and identical
//!    interval times — while dynamic energy scales with `(V/V_nom)²` and
//!    leakage with `V/V_nom`, both strictly increasing. The lowest voltage
//!    reaching a given frequency therefore dominates every higher one.
//! 2. **Floor-bound dominance.** Before simulating, each candidate gets
//!    optimistic floors: time at IPC = commit width, energy and power at
//!    the activity-independent clock + leakage terms. If some already
//!    evaluated frontier member beats all three floors *strictly*, the
//!    candidate's actual objectives are strictly dominated no matter how
//!    the simulation turns out.
//!
//! # Determinism
//!
//! The outcome is a pure function of the spec: enumeration order is fixed,
//! chunk boundaries are spec-defined (never timing-defined), and the batch
//! engine is jobs-independent — so the frontier and every partial chunk are
//! byte-identical at any `jobs` and across the serve and repro paths.

use crate::configs::DesignPoint;
use crate::planner::{stack_thermal, DesignSpace};
use crate::report::Json;
use m3d_power::dvfs::VfCurve;
use m3d_power::model::{
    CorePowerModel, PowerConfig, CLOCK_TREE_W_NOMINAL, FREQ_NOMINAL_GHZ, LEAKAGE_W_NOMINAL,
    VDD_NOMINAL,
};
use m3d_uarch::batch::{SimBatch, SimInterval, SimPoint};
use m3d_uarch::config::CoreConfig;
use m3d_uarch::stats::PerfResult;
use m3d_uarch::SimError;
use m3d_workloads::parallel::parallel_by_name;
use m3d_workloads::spec::spec_by_name;
use m3d_workloads::WorkloadProfile;
use std::time::Instant;

/// Most candidates a single spec may enumerate.
pub const MAX_CANDIDATES: usize = 4096;
/// Most µops (warmup + measure, per core) a candidate interval may cover —
/// mirrors the serve protocol's per-point cap.
pub const MAX_CANDIDATE_UOPS: u64 = 5_000_000;
/// Accepted supply range, volts. The lower end stays safely above the
/// alpha-power threshold voltage; the upper end is the curve's stated
/// validity limit.
pub const VDD_RANGE: (f64, f64) = (0.45, 1.1);
/// Per-axis entry caps (designs, apps, voltages, core counts, widths).
const MAX_AXIS: usize = 32;
/// Chunk-size bounds for incremental frontier emission.
const CHUNK_RANGE: (usize, usize) = (1, 1024);
/// Relative slack applied to the rule-2 floors so floating-point rounding
/// in the bound computation can never make a floor overshoot the true
/// mathematical bound.
const BOUND_SLACK: f64 = 1.0 - 1e-9;

/// Why a spec was rejected or a run aborted.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The spec failed validation; the message names the offending field.
    Spec(String),
    /// The caller's deadline expired before the run finished. Chunks
    /// emitted so far form a deterministic prefix of the full run.
    Deadline,
    /// The simulator rejected a candidate configuration at run time (spec
    /// validation makes this unreachable for specs built through
    /// [`SearchSpace::from_json`] or [`SearchSpaceBuilder::build`]).
    Sim(SimError),
    /// The `on_chunk` callback returned `false`: the caller no longer
    /// wants the result (e.g. the client hung up), so the run stopped at
    /// the chunk boundary. Chunks emitted so far form a deterministic
    /// prefix of the full run, exactly like [`SearchError::Deadline`].
    Aborted,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Spec(msg) => write!(f, "invalid search spec: {msg}"),
            SearchError::Deadline => write!(f, "deadline expired during the search"),
            SearchError::Sim(e) => write!(f, "simulation failed: {e}"),
            SearchError::Aborted => write!(f, "search aborted by the caller"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Raw, unvalidated search-space fields; [`SearchSpaceBuilder::build`]
/// turns them into a [`SearchSpace`]. Empty vectors select the default for
/// their axis.
#[derive(Debug, Clone, Default)]
pub struct SearchSpaceBuilder {
    /// Design labels (Table 11 names); empty selects all six.
    pub designs: Vec<String>,
    /// Application names; must be non-empty.
    pub apps: Vec<String>,
    /// Supply voltages, volts; must be non-empty.
    pub vdds: Vec<f64>,
    /// Core counts; empty selects `[1]`.
    pub core_counts: Vec<usize>,
    /// Issue widths; empty selects `[4]`.
    pub issue_widths: Vec<usize>,
    /// Trace seed (default 0).
    pub seed: u64,
    /// Warm-up µops per core (default 2000).
    pub warmup: Option<u64>,
    /// Measured µops per core (default 4000).
    pub measure: Option<u64>,
    /// Candidates per incremental chunk (default 64).
    pub chunk: Option<usize>,
}

impl SearchSpaceBuilder {
    /// Validate every axis and assemble the typed space.
    pub fn build(self) -> Result<SearchSpace, SearchError> {
        let fail = |msg: String| Err(SearchError::Spec(msg));

        let designs: Vec<DesignPoint> = if self.designs.is_empty() {
            DesignPoint::ALL.to_vec()
        } else {
            if self.designs.len() > MAX_AXIS {
                return fail(format!(
                    "at most {MAX_AXIS} designs, got {}",
                    self.designs.len()
                ));
            }
            self.designs
                .iter()
                .map(|label| {
                    DesignPoint::ALL
                        .into_iter()
                        .find(|d| d.label() == label)
                        .ok_or_else(|| SearchError::Spec(format!("unknown design `{label}`")))
                })
                .collect::<Result<_, _>>()?
        };
        if has_duplicates(&designs) {
            return fail("duplicate design".to_owned());
        }

        if self.apps.is_empty() {
            return fail("`apps` must not be empty".to_owned());
        }
        if self.apps.len() > MAX_AXIS {
            return fail(format!("at most {MAX_AXIS} apps, got {}", self.apps.len()));
        }
        if has_duplicates(&self.apps) {
            return fail("duplicate app".to_owned());
        }

        let core_counts = if self.core_counts.is_empty() {
            vec![1]
        } else {
            self.core_counts
        };
        if core_counts.len() > MAX_AXIS || has_duplicates(&core_counts) {
            return fail("core counts must be unique (at most 32 entries)".to_owned());
        }
        for &n in &core_counts {
            if !(1..=16).contains(&n) {
                return fail(format!("core count {n} outside 1..=16"));
            }
        }
        // Every app must resolve in the suite each core count draws from.
        for app in &self.apps {
            for &n in &core_counts {
                let known = if n == 1 {
                    spec_by_name(app).is_some()
                } else {
                    parallel_by_name(app).is_some()
                };
                if !known {
                    let suite = if n == 1 { "single-core" } else { "parallel" };
                    return fail(format!("unknown {suite} app `{app}` (for {n} cores)"));
                }
            }
        }

        if self.vdds.is_empty() {
            return fail("`vdds` must not be empty".to_owned());
        }
        if self.vdds.len() > MAX_AXIS {
            return fail(format!(
                "at most {MAX_AXIS} voltages, got {}",
                self.vdds.len()
            ));
        }
        let mut vdds = self.vdds;
        vdds.sort_by(|a, b| a.partial_cmp(b).expect("voltages are finite"));
        for &v in &vdds {
            if !v.is_finite() || v < VDD_RANGE.0 || v > VDD_RANGE.1 {
                return fail(format!(
                    "vdd {v} outside the supported {}..={} V range",
                    VDD_RANGE.0, VDD_RANGE.1
                ));
            }
        }
        if vdds.windows(2).any(|w| w[0] == w[1]) {
            return fail("duplicate vdd".to_owned());
        }

        let issue_widths = if self.issue_widths.is_empty() {
            vec![4]
        } else {
            self.issue_widths
        };
        if issue_widths.len() > MAX_AXIS || has_duplicates(&issue_widths) {
            return fail("issue widths must be unique (at most 32 entries)".to_owned());
        }

        let warmup = self.warmup.unwrap_or(2000);
        let measure = self.measure.unwrap_or(4000);
        if measure == 0 {
            return fail("`measure` must be positive".to_owned());
        }
        if warmup + measure > MAX_CANDIDATE_UOPS {
            return fail(format!(
                "warmup + measure exceeds the {MAX_CANDIDATE_UOPS} µop per-candidate cap"
            ));
        }
        let chunk = self.chunk.unwrap_or(64);
        if !(CHUNK_RANGE.0..=CHUNK_RANGE.1).contains(&chunk) {
            return fail(format!(
                "chunk {chunk} outside {}..={}",
                CHUNK_RANGE.0, CHUNK_RANGE.1
            ));
        }

        let total =
            designs.len() * issue_widths.len() * core_counts.len() * self.apps.len() * vdds.len();
        if total > MAX_CANDIDATES {
            return fail(format!(
                "spec enumerates {total} candidates, above the {MAX_CANDIDATES} cap"
            ));
        }

        // Reject configurations the simulator would refuse, so the run
        // itself cannot fail on a validation error.
        for &d in &designs {
            for &iw in &issue_widths {
                for &n in &core_counts {
                    candidate_core_config(d, iw, n, d.paper_frequency_ghz())
                        .validate()
                        .map_err(|e| {
                            SearchError::Spec(format!(
                                "design {} at issue width {iw}: {e}",
                                d.label()
                            ))
                        })?;
                }
            }
        }

        Ok(SearchSpace {
            designs,
            apps: self.apps,
            vdds,
            core_counts,
            issue_widths,
            seed: self.seed,
            interval: SimInterval { warmup, measure },
            chunk,
        })
    }
}

fn has_duplicates<T: PartialEq>(items: &[T]) -> bool {
    items
        .iter()
        .enumerate()
        .any(|(i, a)| items[..i].contains(a))
}

/// A validated search space. Construct through [`SearchSpaceBuilder`] or
/// [`SearchSpace::from_json`]; every accessor reflects post-validation
/// state (voltages sorted ascending, defaults filled in).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    designs: Vec<DesignPoint>,
    apps: Vec<String>,
    vdds: Vec<f64>,
    core_counts: Vec<usize>,
    issue_widths: Vec<usize>,
    seed: u64,
    interval: SimInterval,
    chunk: usize,
}

impl SearchSpace {
    /// Parse and validate a spec from its wire/JSON form (the grammar is
    /// documented in SEARCH.md). Unknown fields are rejected so a typo'd
    /// axis cannot silently select a default.
    pub fn from_json(spec: &Json) -> Result<SearchSpace, SearchError> {
        let Json::Obj(fields) = spec else {
            return Err(SearchError::Spec("spec must be an object".to_owned()));
        };
        const KNOWN: [&str; 9] = [
            "designs",
            "apps",
            "vdds",
            "core_counts",
            "issue_widths",
            "seed",
            "warmup",
            "measure",
            "chunk",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(SearchError::Spec(format!("unknown spec field `{k}`")));
            }
        }
        let strings = |key: &str| -> Result<Vec<String>, SearchError> {
            match spec.get(key) {
                None | Some(Json::Null) => Ok(Vec::new()),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|j| match j {
                        Json::Str(s) => Ok(s.clone()),
                        _ => Err(SearchError::Spec(format!(
                            "`{key}` entries must be strings"
                        ))),
                    })
                    .collect(),
                Some(_) => Err(SearchError::Spec(format!("`{key}` must be an array"))),
            }
        };
        let numbers = |key: &str| -> Result<Vec<f64>, SearchError> {
            match spec.get(key) {
                None | Some(Json::Null) => Ok(Vec::new()),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|j| match j {
                        Json::Num(v) => Ok(*v),
                        Json::Int(i) => Ok(*i as f64),
                        _ => Err(SearchError::Spec(format!(
                            "`{key}` entries must be numbers"
                        ))),
                    })
                    .collect(),
                Some(_) => Err(SearchError::Spec(format!("`{key}` must be an array"))),
            }
        };
        let uints = |key: &str| -> Result<Vec<usize>, SearchError> {
            match spec.get(key) {
                None | Some(Json::Null) => Ok(Vec::new()),
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|j| match j {
                        Json::Int(i) if *i >= 0 => Ok(*i as usize),
                        _ => Err(SearchError::Spec(format!(
                            "`{key}` entries must be non-negative integers"
                        ))),
                    })
                    .collect(),
                Some(_) => Err(SearchError::Spec(format!("`{key}` must be an array"))),
            }
        };
        let scalar = |key: &str| -> Result<Option<u64>, SearchError> {
            match spec.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
                Some(_) => Err(SearchError::Spec(format!(
                    "`{key}` must be a non-negative integer"
                ))),
            }
        };
        SearchSpaceBuilder {
            designs: strings("designs")?,
            apps: strings("apps")?,
            vdds: numbers("vdds")?,
            core_counts: uints("core_counts")?,
            issue_widths: uints("issue_widths")?,
            seed: scalar("seed")?.unwrap_or(0),
            warmup: scalar("warmup")?,
            measure: scalar("measure")?,
            chunk: scalar("chunk")?.map(|c| c as usize),
        }
        .build()
    }

    /// The spec in its canonical JSON form (voltages sorted, defaults
    /// explicit) — echoing this back through [`SearchSpace::from_json`]
    /// reproduces the space exactly.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "designs",
                Json::arr(self.designs.iter().map(|d| Json::from(d.label()))),
            ),
            (
                "apps",
                Json::arr(self.apps.iter().map(|a| Json::from(a.as_str()))),
            ),
            ("vdds", Json::arr(self.vdds.iter().map(|&v| Json::from(v)))),
            (
                "core_counts",
                Json::arr(self.core_counts.iter().map(|&n| Json::from(n))),
            ),
            (
                "issue_widths",
                Json::arr(self.issue_widths.iter().map(|&w| Json::from(w))),
            ),
            ("seed", Json::from(self.seed)),
            ("warmup", Json::from(self.interval.warmup)),
            ("measure", Json::from(self.interval.measure)),
            ("chunk", Json::from(self.chunk)),
        ])
    }

    /// Total candidates the space enumerates.
    pub fn n_candidates(&self) -> usize {
        self.designs.len()
            * self.issue_widths.len()
            * self.core_counts.len()
            * self.apps.len()
            * self.vdds.len()
    }

    /// Candidates per incremental chunk.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The simulated interval of every candidate.
    pub fn interval(&self) -> SimInterval {
        self.interval
    }
}

/// The frequency a design reaches at supply `vdd`: the alpha-power curve
/// anchored at the design's rated (Table 11) point, clamped at the rated
/// frequency — the array access-time signoff does not scale with supply,
/// so voltages above nominal cannot raise the clock.
pub fn dvfs_frequency_ghz(design: DesignPoint, vdd: f64) -> f64 {
    let rated = design.paper_frequency_ghz();
    VfCurve::n22(rated).frequency_at(vdd).min(rated)
}

/// The simulator configuration of one candidate.
fn candidate_core_config(
    design: DesignPoint,
    issue_width: usize,
    n_cores: usize,
    freq_ghz: f64,
) -> CoreConfig {
    // Vdd is deliberately left at the config default: the cycle loop never
    // reads it, and keeping it out of the simulated config lets candidates
    // that differ only in supply share one memo-cache entry.
    let mut cfg = design.core_config().with_frequency(freq_ghz);
    if issue_width != cfg.issue_width {
        cfg = cfg.with_issue_width(issue_width);
    }
    if n_cores > 1 {
        cfg = cfg.with_shared_l2();
    }
    cfg
}

/// One enumerated candidate (identity only; objectives live in
/// [`FrontierPoint`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Position in the spec's canonical enumeration order.
    pub index: usize,
    /// The design point.
    pub design: DesignPoint,
    /// Issue width.
    pub issue_width: usize,
    /// Core count.
    pub n_cores: usize,
    /// Application name.
    pub app: String,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Clamped DVFS frequency, GHz.
    pub freq_ghz: f64,
}

/// Why a candidate was pruned before simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prune {
    /// Rule 1: a lower supply in the same group reaches the same clamped
    /// frequency.
    EqualFreq,
    /// Rule 2: a frontier member strictly beats the candidate's floors.
    Bounded,
}

/// Internal per-candidate state carried through the run.
struct Cand {
    meta: Candidate,
    profile: WorkloadProfile,
    config: CoreConfig,
    power: PowerConfig,
    prune: Option<Prune>,
}

/// One frontier member: the candidate plus its evaluated objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The candidate.
    pub candidate: Candidate,
    /// Measured-interval wall time, seconds (minimised).
    pub time_s: f64,
    /// Processor energy over the interval, joules (minimised).
    pub energy_j: f64,
    /// Linearised peak die temperature, °C (minimised).
    pub peak_c: f64,
    /// Instructions per cycle (reported, not an objective).
    pub ipc: f64,
    /// Whether the simulated interval hit the livelock cap.
    pub capped: bool,
}

impl FrontierPoint {
    fn objectives(&self) -> [f64; 3] {
        [self.time_s, self.energy_j, self.peak_c]
    }

    /// JSON form (one frontier row).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("design", Json::from(self.candidate.design.label())),
            ("app", Json::from(self.candidate.app.clone())),
            ("n_cores", Json::from(self.candidate.n_cores)),
            ("issue_width", Json::from(self.candidate.issue_width)),
            ("vdd", Json::from(self.candidate.vdd)),
            ("freq_ghz", Json::from(self.candidate.freq_ghz)),
            ("ipc", Json::from(self.ipc)),
            ("time_s", Json::from(self.time_s)),
            ("energy_j", Json::from(self.energy_j)),
            ("peak_c", Json::from(self.peak_c)),
            ("capped", Json::from(self.capped)),
        ])
    }
}

/// `a` Pareto-dominates `b`: no worse on every objective, strictly better
/// on at least one (all minimised).
fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Deterministic run statistics (every field is a pure function of the
/// spec; wall time is deliberately absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidates enumerated from the spec.
    pub candidates: u64,
    /// Pruned by rule 1 (equal-frequency dominance).
    pub pruned_dominated: u64,
    /// Pruned by rule 2 (floor bounds vs the frontier so far).
    pub pruned_bounded: u64,
    /// Candidates evaluated through the batch engine.
    pub simulated: u64,
    /// Final frontier size.
    pub frontier: u64,
    /// Evaluated candidates whose interval hit the livelock cap.
    pub capped: u64,
}

impl SearchStats {
    /// Total pruned before simulation.
    pub fn pruned(&self) -> u64 {
        self.pruned_dominated + self.pruned_bounded
    }
}

/// One incremental update, handed to the chunk callback after each chunk.
#[derive(Debug)]
pub struct ChunkUpdate<'a> {
    /// Zero-based chunk index.
    pub chunk: usize,
    /// Candidates processed so far (pruned ones included).
    pub done: usize,
    /// Total candidates in the spec.
    pub total: usize,
    /// The frontier over every candidate processed so far, in enumeration
    /// order.
    pub frontier: &'a [FrontierPoint],
    /// Statistics so far (`frontier` holds the current size).
    pub stats: SearchStats,
}

/// JSON form of one incremental chunk (the serve `plan` partial payload).
pub fn chunk_json(u: &ChunkUpdate<'_>) -> Json {
    Json::obj([
        ("chunk", Json::from(u.chunk)),
        ("done", Json::from(u.done)),
        ("total", Json::from(u.total)),
        ("frontier_size", Json::from(u.frontier.len())),
        (
            "frontier",
            Json::arr(u.frontier.iter().map(FrontierPoint::to_json)),
        ),
    ])
}

/// The completed run: the frontier plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Non-dominated candidates in enumeration order.
    pub frontier: Vec<FrontierPoint>,
    /// Run statistics.
    pub stats: SearchStats,
}

/// JSON form of a frontier alone (no run statistics) — what "byte-identical
/// across pruning, jobs and transports" is asserted over.
pub fn frontier_json(frontier: &[FrontierPoint]) -> Json {
    Json::arr(frontier.iter().map(FrontierPoint::to_json))
}

/// JSON form of a completed run (the serve `plan` final payload and the
/// frontier experiment's artifact rows).
pub fn outcome_json(o: &SearchOutcome) -> Json {
    Json::obj([
        ("candidates", Json::from(o.stats.candidates)),
        ("pruned", Json::from(o.stats.pruned())),
        ("pruned_dominated", Json::from(o.stats.pruned_dominated)),
        ("pruned_bounded", Json::from(o.stats.pruned_bounded)),
        ("simulated", Json::from(o.stats.simulated)),
        ("capped", Json::from(o.stats.capped)),
        ("frontier_size", Json::from(o.frontier.len())),
        (
            "frontier",
            Json::arr(o.frontier.iter().map(FrontierPoint::to_json)),
        ),
    ])
}

/// Execution knobs orthogonal to the spec: none of them may change the
/// result, only how (or whether) it is computed.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Batch-engine worker lanes (results are identical for every value).
    pub jobs: usize,
    /// Disable to brute-force every candidate (the reference the property
    /// tests compare the pruned frontier against).
    pub prune: bool,
    /// Abort with [`SearchError::Deadline`] once this instant passes
    /// (checked at chunk boundaries).
    pub deadline: Option<Instant>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            prune: true,
            deadline: None,
        }
    }
}

/// Run the search: enumerate, prune, simulate chunk by chunk, and extract
/// the Pareto frontier incrementally. `on_chunk` fires once per chunk with
/// the frontier-so-far and returns whether the caller still wants the run:
/// `false` stops the search at that chunk boundary with
/// [`SearchError::Aborted`] (the serve daemon uses this when the client
/// hangs up mid-stream). The `search.*` obs counters are recorded when the
/// run completes.
pub fn run_search(
    space: &DesignSpace,
    spec: &SearchSpace,
    opts: &SearchOptions,
    mut on_chunk: impl FnMut(&ChunkUpdate<'_>) -> bool,
) -> Result<SearchOutcome, SearchError> {
    let _span = m3d_obs::span("search", "run");
    let mut cands = enumerate(space, spec, opts.prune);
    let total = cands.len();
    let mut stats = SearchStats {
        candidates: total as u64,
        pruned_dominated: cands
            .iter()
            .filter(|c| c.prune == Some(Prune::EqualFreq))
            .count() as u64,
        ..SearchStats::default()
    };

    let model = CorePowerModel::new_22nm();
    let thermal = stack_thermal();
    let mut frontier: Vec<FrontierPoint> = Vec::new();
    let mut done = 0usize;

    for (chunk_idx, chunk) in cands.chunks_mut(spec.chunk).enumerate() {
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(SearchError::Deadline);
        }

        // Rule 2: floor-bound pruning against the frontier so far.
        if opts.prune {
            for c in chunk.iter_mut().filter(|c| c.prune.is_none()) {
                let floors = floor_bounds(c, spec.interval.measure, thermal);
                if frontier
                    .iter()
                    .any(|r| r.objectives().iter().zip(&floors).all(|(x, y)| x < y))
                {
                    c.prune = Some(Prune::Bounded);
                    stats.pruned_bounded += 1;
                }
            }
        }

        let survivors: Vec<&Cand> = chunk.iter().filter(|c| c.prune.is_none()).collect();
        let points: Vec<SimPoint> = survivors
            .iter()
            .map(|c| {
                SimPoint::multi(
                    c.config.clone(),
                    c.profile.clone(),
                    spec.seed,
                    c.meta.n_cores,
                    spec.interval,
                )
            })
            .collect();
        let results = SimBatch::new(opts.jobs).run(&points);

        for (c, result) in survivors.iter().zip(results) {
            let r = result.map_err(SearchError::Sim)?;
            stats.simulated += 1;
            if r.cap_exhausted {
                stats.capped += 1;
            }
            let point = score(c, &r, &model, thermal);
            insert(&mut frontier, point);
        }

        done += chunk.len();
        stats.frontier = frontier.len() as u64;
        let keep_going = on_chunk(&ChunkUpdate {
            chunk: chunk_idx,
            done,
            total,
            frontier: &frontier,
            stats,
        });
        if !keep_going {
            return Err(SearchError::Aborted);
        }
    }

    stats.frontier = frontier.len() as u64;
    m3d_obs::add("search.candidates", stats.candidates);
    m3d_obs::add("search.pruned", stats.pruned());
    m3d_obs::add("search.simulated", stats.simulated);
    m3d_obs::add("search.frontier", stats.frontier);
    Ok(SearchOutcome { frontier, stats })
}

/// Enumerate every candidate in canonical order, applying rule 1 when
/// pruning is on.
fn enumerate(space: &DesignSpace, spec: &SearchSpace, prune: bool) -> Vec<Cand> {
    let mut out = Vec::with_capacity(spec.n_candidates());
    let mut index = 0usize;
    for &design in &spec.designs {
        for &iw in &spec.issue_widths {
            for &n in &spec.core_counts {
                for app in &spec.apps {
                    let profile = if n == 1 {
                        spec_by_name(app).expect("validated at build")
                    } else {
                        parallel_by_name(app).expect("validated at build")
                    };
                    // Voltages ascend, so within a (design, width, cores,
                    // app) group equal clamped frequencies are contiguous
                    // and the first (lowest-Vdd) one is the group's keeper.
                    let mut kept: Option<(f64, f64)> = None; // (freq, vdd)
                    for &vdd in &spec.vdds {
                        let freq_ghz = dvfs_frequency_ghz(design, vdd);
                        let dominated =
                            kept.is_some_and(|(f, v)| f == freq_ghz && v2_scale(v) < v2_scale(vdd));
                        if !dominated {
                            kept = Some((freq_ghz, vdd));
                        }
                        let power = {
                            let mut p = design.power_config(space).with_vdd(vdd).with_cores(n);
                            p.freq_ghz = freq_ghz;
                            p
                        };
                        out.push(Cand {
                            meta: Candidate {
                                index,
                                design,
                                issue_width: iw,
                                n_cores: n,
                                app: app.clone(),
                                vdd,
                                freq_ghz,
                            },
                            profile: profile.clone(),
                            config: candidate_core_config(design, iw, n, freq_ghz),
                            power,
                            prune: (prune && dominated).then_some(Prune::EqualFreq),
                        });
                        index += 1;
                    }
                }
            }
        }
    }
    out
}

fn v2_scale(vdd: f64) -> f64 {
    (vdd / VDD_NOMINAL).powi(2)
}

/// Optimistic floors on (time, energy, peak temp): the candidate's actual
/// objectives can never fall below these. The measured window is per core
/// and `PerfResult::cycles` is the slowest core's cycle count, which
/// commits at most `commit_width` µops per cycle, so cycles ≥
/// measure/commit_width. Full derivation and safety argument in SEARCH.md;
/// the `BOUND_SLACK` factor absorbs floating-point rounding.
fn floor_bounds(c: &Cand, measure: u64, thermal: &crate::planner::StackThermal) -> [f64; 3] {
    let t_floor =
        measure as f64 / (c.config.commit_width as f64 * c.power.freq_ghz * 1e9) * BOUND_SLACK;
    // Activity-independent per-core power: clock tree + leakage.
    let clock_w = CLOCK_TREE_W_NOMINAL
        * c.power.clock_scale
        * (c.power.freq_ghz / FREQ_NOMINAL_GHZ)
        * v2_scale(c.power.vdd);
    let leak_w = LEAKAGE_W_NOMINAL * c.power.leakage_scale * (c.power.vdd / VDD_NOMINAL);
    let core_floor_w = (clock_w + leak_w) * BOUND_SLACK;
    let e_floor = core_floor_w * c.meta.n_cores as f64 * t_floor;
    let p_floor = thermal.ambient_c
        + thermal.k_c_per_w[c.meta.design.stack_slot()] * core_floor_w * BOUND_SLACK;
    [t_floor, e_floor, p_floor]
}

/// Evaluate one simulated candidate into its frontier point.
fn score(
    c: &Cand,
    r: &PerfResult,
    model: &CorePowerModel,
    thermal: &crate::planner::StackThermal,
) -> FrontierPoint {
    let energy = model.energy(r, &c.power);
    let per_core_w = energy.average_power_w() / c.meta.n_cores as f64;
    let peak_c = thermal.ambient_c + thermal.k_c_per_w[c.meta.design.stack_slot()] * per_core_w;
    FrontierPoint {
        candidate: c.meta.clone(),
        time_s: r.time_s(),
        energy_j: energy.total_j(),
        peak_c,
        ipc: r.ipc(),
        capped: r.cap_exhausted,
    }
}

/// Insert a point into the frontier, evicting anything it dominates.
/// Points arrive in enumeration order, so appending keeps the frontier
/// sorted by candidate index.
fn insert(frontier: &mut Vec<FrontierPoint>, p: FrontierPoint) {
    let objs = p.objectives();
    if frontier.iter().any(|q| dominates(&q.objectives(), &objs)) {
        return;
    }
    frontier.retain(|q| !dominates(&objs, &q.objectives()));
    frontier.push(p);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn space() -> &'static DesignSpace {
        static SPACE: OnceLock<DesignSpace> = OnceLock::new();
        SPACE.get_or_init(DesignSpace::compute)
    }

    fn small_builder() -> SearchSpaceBuilder {
        SearchSpaceBuilder {
            designs: vec!["Base".into(), "M3D-Het".into()],
            apps: vec!["Gcc".into()],
            vdds: vec![0.7, 0.8, 0.9],
            warmup: Some(200),
            measure: Some(300),
            chunk: Some(2),
            ..SearchSpaceBuilder::default()
        }
    }

    fn run(spec: &SearchSpace, opts: &SearchOptions) -> SearchOutcome {
        run_search(space(), spec, opts, |_| true).expect("search runs")
    }

    #[test]
    fn rejects_malformed_specs() {
        let cases: Vec<(SearchSpaceBuilder, &str)> = vec![
            (
                SearchSpaceBuilder {
                    apps: vec![],
                    ..small_builder()
                },
                "apps",
            ),
            (
                SearchSpaceBuilder {
                    designs: vec!["Warp9".into()],
                    ..small_builder()
                },
                "design",
            ),
            (
                SearchSpaceBuilder {
                    apps: vec!["NotAnApp".into()],
                    ..small_builder()
                },
                "app",
            ),
            (
                SearchSpaceBuilder {
                    vdds: vec![0.2],
                    ..small_builder()
                },
                "vdd",
            ),
            (
                SearchSpaceBuilder {
                    vdds: vec![0.8, 0.8],
                    ..small_builder()
                },
                "duplicate vdd",
            ),
            (
                SearchSpaceBuilder {
                    measure: Some(0),
                    ..small_builder()
                },
                "measure",
            ),
            (
                SearchSpaceBuilder {
                    warmup: Some(MAX_CANDIDATE_UOPS),
                    ..small_builder()
                },
                "cap",
            ),
            (
                SearchSpaceBuilder {
                    chunk: Some(0),
                    ..small_builder()
                },
                "chunk",
            ),
            (
                SearchSpaceBuilder {
                    core_counts: vec![0],
                    ..small_builder()
                },
                "core count",
            ),
        ];
        for (b, what) in cases {
            let err = b.build().expect_err(what);
            assert!(matches!(err, SearchError::Spec(_)), "{what}: {err}");
            assert!(
                err.to_string().contains(what),
                "{what} not named in `{err}`"
            );
        }
    }

    #[test]
    fn candidate_cap_is_enforced() {
        // 6 designs x 32 apps x 32 vdds would blow the cap well before app
        // validation can object, so use a synthetic within-axis-limits spec.
        let b = SearchSpaceBuilder {
            designs: vec![],
            apps: (0..22).map(|i| format!("app{i}")).collect(),
            vdds: (0..32).map(|i| 0.5 + 0.01 * i as f64).collect(),
            ..small_builder()
        };
        let err = b.build().expect_err("over the cap");
        // App names are bogus, but the cap fires first only if checked
        // earlier; accept either rejection as long as it is a Spec error.
        assert!(matches!(err, SearchError::Spec(_)));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = small_builder().build().expect("valid");
        let back = SearchSpace::from_json(&spec.to_json()).expect("parses back");
        assert_eq!(spec, back);
        assert_eq!(spec.n_candidates(), 6);
    }

    #[test]
    fn from_json_rejects_unknown_fields_and_bad_types() {
        let bad = Json::obj([("apps", Json::from(3.0))]);
        assert!(SearchSpace::from_json(&bad).is_err());
        let unknown = Json::obj([
            ("apps", Json::arr([Json::from("Gcc")])),
            ("vdds", Json::arr([Json::from(0.8)])),
            ("turbo", Json::from(true)),
        ]);
        let err = SearchSpace::from_json(&unknown).expect_err("unknown field");
        assert!(err.to_string().contains("turbo"));
        assert!(SearchSpace::from_json(&Json::from("spec")).is_err());
    }

    #[test]
    fn dvfs_frequency_clamps_at_rated() {
        for d in DesignPoint::ALL {
            let rated = d.paper_frequency_ghz();
            assert_eq!(dvfs_frequency_ghz(d, VDD_NOMINAL), rated);
            assert_eq!(dvfs_frequency_ghz(d, 0.95), rated, "{}", d.label());
            assert!(dvfs_frequency_ghz(d, 0.6) < rated, "{}", d.label());
        }
        // Below nominal the curve is strictly increasing.
        let f1 = dvfs_frequency_ghz(DesignPoint::Base, 0.6);
        let f2 = dvfs_frequency_ghz(DesignPoint::Base, 0.7);
        assert!(f1 < f2);
    }

    #[test]
    fn over_volt_candidates_are_pruned_without_changing_the_frontier() {
        let spec = SearchSpaceBuilder {
            vdds: vec![0.7, 0.8, 0.9, 1.0],
            ..small_builder()
        }
        .build()
        .expect("valid");
        let pruned = run(&spec, &SearchOptions::default());
        let brute = run(
            &spec,
            &SearchOptions {
                prune: false,
                ..SearchOptions::default()
            },
        );
        // 0.9 and 1.0 V clamp to the rated frequency for both designs.
        assert_eq!(pruned.stats.pruned_dominated, 4);
        assert!(pruned.stats.simulated < brute.stats.simulated);
        assert_eq!(brute.stats.pruned(), 0);
        assert_eq!(pruned.frontier, brute.frontier);
        assert_eq!(
            frontier_json(&pruned.frontier).render(),
            frontier_json(&brute.frontier).render()
        );
    }

    #[test]
    fn results_are_jobs_independent() {
        let spec = small_builder().build().expect("valid");
        let a = run(&spec, &SearchOptions::default());
        let b = run(
            &spec,
            &SearchOptions {
                jobs: 4,
                ..SearchOptions::default()
            },
        );
        assert_eq!(outcome_json(&a).render(), outcome_json(&b).render());
    }

    #[test]
    fn chunks_stream_deterministically() {
        let spec = small_builder().build().expect("valid");
        let mut seen = Vec::new();
        let out = run_search(space(), &spec, &SearchOptions::default(), |u| {
            seen.push((u.chunk, u.done, chunk_json(u).render_compact()));
            true
        })
        .expect("search runs");
        assert_eq!(seen.len(), spec.n_candidates().div_ceil(spec.chunk()));
        assert!(seen.windows(2).all(|w| w[0].1 < w[1].1));
        let mut again = Vec::new();
        run_search(
            space(),
            &spec,
            &SearchOptions {
                jobs: 3,
                ..SearchOptions::default()
            },
            |u| {
                again.push((u.chunk, u.done, chunk_json(u).render_compact()));
                true
            },
        )
        .expect("search runs");
        assert_eq!(seen, again);
        // The last chunk's frontier is the final frontier.
        let last = &seen.last().expect("chunks emitted").2;
        assert!(last.contains(&format!("\"frontier_size\":{}", out.frontier.len())));
    }

    #[test]
    fn expired_deadline_aborts() {
        let spec = small_builder().build().expect("valid");
        let err = run_search(
            space(),
            &spec,
            &SearchOptions {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..SearchOptions::default()
            },
            |_| true,
        )
        .expect_err("deadline already passed");
        assert_eq!(err, SearchError::Deadline);
    }

    #[test]
    fn callback_returning_false_aborts_at_the_chunk_boundary() {
        let spec = small_builder().build().expect("valid");
        let total_chunks = spec.n_candidates().div_ceil(spec.chunk());
        assert!(total_chunks > 1, "spec must span several chunks");
        let mut seen = 0usize;
        let err = run_search(space(), &spec, &SearchOptions::default(), |_| {
            seen += 1;
            false
        })
        .expect_err("caller asked to stop");
        assert_eq!(err, SearchError::Aborted);
        assert_eq!(seen, 1, "no chunk runs after the abort");
    }

    #[test]
    fn frontier_members_are_mutually_non_dominated() {
        let spec = SearchSpaceBuilder {
            designs: vec![],
            vdds: vec![0.6, 0.7, 0.8],
            ..small_builder()
        }
        .build()
        .expect("valid");
        let out = run(&spec, &SearchOptions::default());
        assert!(!out.frontier.is_empty());
        assert_eq!(out.stats.frontier, out.frontier.len() as u64);
        for (i, a) in out.frontier.iter().enumerate() {
            for (j, b) in out.frontier.iter().enumerate() {
                if i != j {
                    assert!(
                        !dominates(&a.objectives(), &b.objectives()),
                        "{i} dominates {j}"
                    );
                }
            }
        }
        // Enumeration order is preserved.
        assert!(out
            .frontier
            .windows(2)
            .all(|w| w[0].candidate.index < w[1].candidate.index));
    }

    #[test]
    fn search_counters_are_recorded() {
        m3d_obs::enable();
        let spec = small_builder().build().expect("valid");
        let before: u64 = counter("search.candidates");
        let out = run(&spec, &SearchOptions::default());
        assert_eq!(counter("search.candidates") - before, out.stats.candidates);
        assert!(counter("search.frontier") > 0);
    }

    fn counter(name: &str) -> u64 {
        m3d_obs::snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The pruned incremental frontier equals brute force on randomly
        /// drawn small spaces — the mechanised check behind the safety
        /// arguments in SEARCH.md.
        #[test]
        fn pruned_frontier_equals_brute_force(
            design_mask in 1usize..64,
            apps_pick in any::<u32>(),
            v_lo in 0.55f64..0.75,
            v_step in 0.02f64..0.08,
            n_vdds in 2usize..6,
            measure in 150u64..500,
        ) {
            let designs: Vec<String> = DesignPoint::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| design_mask & (1 << i) != 0)
                .map(|(_, d)| d.label().to_owned())
                .collect();
            let pool = ["Gcc", "Mcf", "Namd", "Bzip2"];
            let mut apps: Vec<String> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| apps_pick & (1 << i) != 0)
                .map(|(_, a)| (*a).to_owned())
                .collect();
            if apps.is_empty() {
                apps.push("Gcc".to_owned());
            }
            let vdds: Vec<f64> = (0..n_vdds).map(|i| v_lo + v_step * i as f64).collect();
            let spec = SearchSpaceBuilder {
                designs,
                apps,
                vdds,
                warmup: Some(100),
                measure: Some(measure),
                chunk: Some(3),
                ..SearchSpaceBuilder::default()
            }
            .build()
            .expect("drawn specs are valid");
            let pruned = run(&spec, &SearchOptions::default());
            let brute = run(
                &spec,
                &SearchOptions { prune: false, ..SearchOptions::default() },
            );
            prop_assert_eq!(brute.stats.pruned(), 0);
            prop_assert_eq!(
                frontier_json(&pruned.frontier).render(),
                frontier_json(&brute.frontier).render()
            );
        }
    }
}
