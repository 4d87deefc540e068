//! Unit tests for the harness's pure parts.

use m3d_perfbench::sched::{poisson_times, Rng};
use m3d_perfbench::spans::{layer_ms, self_times, Span};
use m3d_perfbench::stats::{beyond, median, percentile, tail_percentile};
use m3d_perfbench::text::{fnv1a_hex, mask_wall_clock};

#[test]
fn percentile_uses_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 90.0), 90.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert!(percentile(&[], 50.0).is_nan());
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(999, 99.0), 9);
    // 1000 samples: p99 leaves exactly ten beyond it.
    assert_eq!(tail_percentile(1000, 99.0), 99.0);
    // 999 samples: p99 leaves nine, so p97 (29 beyond) is the tail.
    assert_eq!(tail_percentile(999, 99.0), 97.0);
    // 300 samples: p97 leaves 9, p95 leaves 15.
    assert_eq!(tail_percentile(300, 97.0), 95.0);
    // A workload that asked for p90 never reports a higher percentile.
    assert_eq!(tail_percentile(100_000, 90.0), 90.0);
    // 100 samples: p95 leaves 5, p90 leaves 10.
    assert_eq!(tail_percentile(100, 99.0), 90.0);
    // Too few samples for any tail: the median.
    assert_eq!(tail_percentile(12, 99.0), 50.0);
    assert_eq!(tail_percentile(1, 99.0), 50.0);
}

#[test]
fn masking_hides_wall_clock_figures_only() {
    let text = "[fig8] thermal solver: 18 solves, 36007 sweeps, 0 non-converged, 2470.4 ms\n\
                [fig8] experiment wall time: 3.28 s\n\
                Gcc 1.05 ipc, 12 msec, 3 solves, x2.5 s\n";
    let masked = mask_wall_clock(text);
    assert_eq!(
        masked,
        "[fig8] thermal solver: 18 solves, 36007 sweeps, 0 non-converged, # ms\n\
         [fig8] experiment wall time: # s\n\
         Gcc 1.05 ipc, 12 msec, 3 solves, x2.5 s\n"
    );
    // Two runs differing only in timings hash the same once masked.
    let a = mask_wall_clock("total 10.5 ms, 3 solves");
    let b = mask_wall_clock("total 9.75 ms, 3 solves");
    assert_eq!(fnv1a_hex(a.as_bytes()), fnv1a_hex(b.as_bytes()));
    assert_ne!(
        fnv1a_hex(mask_wall_clock("3 solves").as_bytes()),
        fnv1a_hex(mask_wall_clock("4 solves").as_bytes())
    );
    assert_eq!(mask_wall_clock("µ 5 s é"), "µ # s é");
}

#[test]
fn poisson_schedule_is_fixed_by_the_seed() {
    let a = poisson_times(&mut Rng::new(7, 1), 1000, 5.0);
    let b = poisson_times(&mut Rng::new(7, 1), 1000, 5.0);
    let c = poisson_times(&mut Rng::new(8, 1), 1000, 5.0);
    let d = poisson_times(&mut Rng::new(7, 2), 1000, 5.0);
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_ne!(a, d);
    assert_eq!(a.len(), 1000);
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
    // Exponential gaps: mean 5 ms, and about 1/e of them above it.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let long = gaps.iter().filter(|&&g| g > 0.005).count();
    assert!((300..440).contains(&long), "{long}");
}

#[test]
fn rng_shuffle_is_a_permutation() {
    let mut v: Vec<usize> = (0..50).collect();
    Rng::new(3, 0).shuffle(&mut v);
    let mut sorted = v.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    assert_ne!(v, sorted);
}

fn span(cat: &str, tid: u64, start: f64, dur: f64) -> Span {
    Span {
        cat: cat.to_owned(),
        name: String::new(),
        tid,
        start_us: start,
        dur_us: dur,
    }
}

#[test]
fn self_time_subtracts_direct_children_per_thread() {
    let spans = vec![
        span("registry", 1, 0.0, 100.0),
        span("batch", 1, 10.0, 30.0),
        span("thermal", 1, 15.0, 5.0), // grandchild: only batch loses it
        span("batch", 1, 50.0, 20.0),
        span("batch", 2, 0.0, 100.0), // another thread: not a child
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs, vec![50.0, 25.0, 5.0, 20.0, 100.0]);
    assert!((layer_ms(&spans, &selfs, "batch", None) - 0.145).abs() < 1e-12);
    assert!((layer_ms(&spans, &selfs, "registry", Some("")) - 0.05).abs() < 1e-12);
    assert_eq!(layer_ms(&spans, &selfs, "registry", Some("fig8")), 0.0);
}

#[test]
fn self_time_handles_equal_starts_and_unsorted_input() {
    // A child that starts with its parent, given before it.
    let spans = vec![
        span("child", 1, 0.0, 4.0),
        span("parent", 1, 0.0, 10.0),
        span("sibling", 1, 4.0, 6.0),
    ];
    assert_eq!(self_times(&spans), vec![4.0, 0.0, 6.0]);
}
