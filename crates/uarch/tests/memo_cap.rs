//! The process-wide memo cache at its cap. This file is its own test
//! process, so filling the cache disturbs no other test.

use m3d_uarch::batch::{result_cache_len, RESULT_CACHE_CAP};
use m3d_uarch::{CoreConfig, SimBatch, SimInterval, SimPoint};
use m3d_workloads::spec::spec_by_name;

/// `n` distinct one-µop points, told apart by their seeds.
fn tiny_points(seeds: std::ops::Range<u64>) -> Vec<SimPoint> {
    let profile = spec_by_name("Hmmer").expect("profile");
    seeds
        .map(|seed| {
            SimPoint::single(
                CoreConfig::base_2d(),
                profile.clone(),
                seed,
                SimInterval {
                    warmup: 0,
                    measure: 1,
                },
            )
        })
        .collect()
}

#[test]
fn inserts_past_the_cap_are_refused_and_counted() {
    m3d_obs::enable();
    let cap = RESULT_CACHE_CAP as u64;
    let batch = SimBatch::new(2);
    let filled = batch.run(&tiny_points(0..cap));
    assert!(filled.iter().all(Result::is_ok));
    assert_eq!(result_cache_len(), RESULT_CACHE_CAP);
    let counted = |name| m3d_obs::snapshot().counter(name);
    assert_eq!(counted("uarch.batch.cache_full"), None, "no refusal yet");

    // Five more points still simulate, but find the cache full.
    let extra = tiny_points(cap..cap + 5);
    let (results, stats) = batch.run_with_stats(&extra);
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(result_cache_len(), RESULT_CACHE_CAP);
    assert_eq!(counted("uarch.batch.cache_full"), Some(5));
    assert_eq!(
        batch.run_cached(&extra),
        None,
        "refused results are not memoized"
    );
    assert!(
        batch.run_cached(&tiny_points(0..3)).is_some(),
        "earlier results still hit"
    );
}
