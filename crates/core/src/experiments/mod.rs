//! One driver per table/figure of the paper's evaluation.
//!
//! Every driver returns typed rows plus a rendered text table so that the
//! `repro` binary, the `perf_baseline` probes, and the integration tests all
//! consume the same code path. Each driver additionally exposes a uniform
//! `report(&registry::Ctx) -> registry::ExperimentReport` entry point; the
//! [`registry`] module collects these into a declarative experiment
//! registry and schedules them across a worker pool for the `repro`
//! orchestrator.

pub mod ablations;
pub mod fig5_logic;
pub mod fig6_fig7_single_core;
pub mod fig8_thermal;
pub mod fig9_fig10_multicore;
pub mod frontier;
pub mod registry;
pub mod section5_alternatives;
pub mod table11_configs;
pub mod table1_table2_fig2_vias;
pub mod table3_4_5_partitioning;
pub mod table6_best;
pub mod table7_techniques;
pub mod table8_hetero;

/// Simulation window sizes shared by the performance experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Warm-up µops per core (caches/predictors, not measured).
    pub warmup: u64,
    /// Measured µops per core.
    pub measure: u64,
}

impl RunScale {
    /// Full-size runs used by the `repro` binary and EXPERIMENTS.md.
    pub fn full() -> Self {
        Self {
            warmup: 250_000,
            measure: 150_000,
        }
    }

    /// Small runs for tests and quick benches.
    pub fn quick() -> Self {
        Self {
            warmup: 50_000,
            measure: 60_000,
        }
    }
}

impl Default for RunScale {
    fn default() -> Self {
        Self::full()
    }
}

/// Worker-thread cap of [`par_map_with`].
const MAX_THREADS: usize = 8;

/// Map `f` over `items` on up to [`MAX_THREADS`] scoped worker threads,
/// preserving input order.
///
/// Items are dealt to workers in contiguous chunks, and each worker carries
/// a private state value (`init()`) across its chunk — the thermal
/// experiments use this to warm-start each solve from the previous
/// application's temperature field. `f` receives `(&mut state, index,
/// item)`. With one item (or one core) this degrades to a plain serial map
/// with no threads spawned.
pub(crate) fn par_map_with<T, R, S>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
        .min(items.len())
        .max(1);
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let n = items.len();
    // Fan-out keeps attributing counters to the experiment that called us.
    let task = m3d_obs::current_task();
    let mut out: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let range = (w * n / threads)..((w + 1) * n / threads);
                let (f, init, task) = (&f, &init, &task);
                scope.spawn(move || {
                    let _task = task.as_ref().map(|t| t.enter());
                    let mut state = init();
                    let chunk: Vec<R> =
                        range.clone().map(|i| f(&mut state, i, &items[i])).collect();
                    (range.start, chunk)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    out.sort_by_key(|(start, _)| *start);
    out.into_iter().flat_map(|(_, chunk)| chunk).collect()
}

#[cfg(test)]
mod par_tests {
    use super::par_map_with;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..37).collect();
        let doubled = par_map_with(
            &items,
            || (),
            |_, i, &x| {
                assert_eq!(i, x);
                x * 2
            },
        );
        assert_eq!(doubled, (0..37).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches() {
        // One item never spawns a worker.
        assert_eq!(par_map_with(&[1], || (), |_, _, &x| x + 1), vec![2]);
    }

    #[test]
    fn worker_state_persists_within_a_chunk() {
        // Each worker's state counts the items it saw; the total over all
        // workers must equal the item count.
        let items: Vec<usize> = (0..24).collect();
        let counts = par_map_with(
            &items,
            || 0usize,
            |seen, _, _| {
                *seen += 1;
                *seen
            },
        );
        // Counts restart at 1 at each chunk boundary and are contiguous
        // within a chunk.
        assert!(counts.iter().filter(|&&c| c == 1).count() >= 1);
        assert_eq!(counts.len(), 24);
    }
}
