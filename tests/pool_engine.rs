//! Differential tests of the event-driven pool engine against the
//! reference engine in `tests/naive_pool/`: stats and the full traced
//! `PoolEvent` stream must be byte-identical on random bursty workloads,
//! on a large fixed burst (with and without mostly unused provisioned
//! instances), on ties at `free_at` 0.0 and at a zero execution time, and
//! at the exclusive keep-alive expiry boundary. (The golden-fixture differential lives in
//! `tests/trace_replay.rs`, the wider random sweep in
//! `tests/property_tests.rs`.)

mod naive_pool;

use lambda_sim::{simulate_pool, AppProfile, Platform, PoolOptions, PoolStats, StartMode};
use naive_pool::simulate_naive;
use trim_rng::Rng;

/// Run both engines on one input and require identical stats and events.
fn assert_engines_agree(
    platform: &Platform,
    app: &AppProfile,
    arrivals: &[f64],
    options: &PoolOptions,
    case: &str,
) -> PoolStats {
    let mut naive_events = Vec::new();
    let naive = simulate_naive(platform, app, arrivals, options, |e| naive_events.push(e));
    let mut event_events = Vec::new();
    let event = simulate_pool(platform, app, arrivals.iter().copied(), options, |e| {
        event_events.push(e)
    })
    .expect("sorted arrivals");
    assert_eq!(naive, event, "{case}: stats diverged");
    assert_eq!(naive_events, event_events, "{case}: events diverged");
    event
}

/// Random sorted arrivals with bursts, plus random pool options; then one
/// fixed burst-heavy input: 50 bursts of 80 simultaneous requests, 30 s
/// apart, against a 120 s handler with a 2 h keep-alive, so the live pool
/// holds hundreds of instances.
#[test]
fn event_engine_matches_naive_engine_on_random_workloads() {
    let platform = Platform::default();
    let mut rng = Rng::seed_from_u64(0xE7E27);
    for case in 0..40 {
        let n = rng.usize_inclusive(0, 90);
        let mut arrivals = Vec::with_capacity(n);
        let mut t = 0.0;
        while arrivals.len() < n {
            t += rng.f64() * 30.0;
            let burst = if rng.usize_inclusive(0, 2) == 0 {
                rng.usize_inclusive(2, 10)
            } else {
                1
            };
            for _ in 0..burst.min(n - arrivals.len()) {
                arrivals.push(t);
            }
        }
        let a = AppProfile::new(
            "diff",
            rng.f64() * 400.0,
            rng.f64() * 2.0,
            0.01 + rng.f64() * 20.0,
            64.0 + rng.f64() * 512.0,
        );
        let options = PoolOptions {
            keep_alive_secs: if rng.bool() { 0.0 } else { rng.f64() * 600.0 },
            mode: if rng.bool() {
                StartMode::Standard
            } else {
                StartMode::Restore
            },
            provisioned: rng.usize_inclusive(0, 3),
            max_concurrency: if rng.bool() {
                Some(rng.usize_inclusive(0, 5))
            } else {
                None
            },
            ..PoolOptions::default()
        };
        assert_engines_agree(&platform, &a, &arrivals, &options, &format!("case {case}"));
    }

    let (bursts, burst_size, gap_secs, exec_secs) = (50, 80, 30.0, 120.0);
    let arrivals: Vec<f64> = (0..bursts)
        .flat_map(|b| std::iter::repeat_n(b as f64 * gap_secs, burst_size))
        .collect();
    let app = AppProfile::new("burst", 64.0, 0.5, exec_secs, 512.0);
    let options = PoolOptions {
        keep_alive_secs: 7_200.0,
        window_secs: bursts as f64 * gap_secs + exec_secs + 7_200.0,
        ..PoolOptions::default()
    };
    let stats = assert_engines_agree(&platform, &app, &arrivals, &options, "burst 50x80");
    assert_eq!(stats.invocations(), 4_000);

    // Provisioned instances against the same burst, which keeps up to
    // 4 × 80 requests running: 200 of them run out of fresh instances in
    // the third burst, and of 1,000 most are never used and stay in the
    // engine's count of fresh instances.
    for provisioned in [200, 1_000] {
        let options = PoolOptions {
            provisioned,
            ..options.clone()
        };
        let case = format!("burst 50x80, {provisioned} provisioned");
        let stats = assert_engines_agree(&platform, &app, &arrivals, &options, &case);
        assert_eq!(stats.cold_starts == 0, provisioned > 320, "{case}");
    }

    // Arrivals at exactly 0.0 with keep-alive 0: fresh provisioned
    // instances tie at `free_at` 0.0 with the arrivals' clock.
    let at_zero = PoolOptions {
        keep_alive_secs: 0.0,
        provisioned: 3,
        ..PoolOptions::default()
    };
    let demo = AppProfile::new("demo", 100.0, 1.0, 0.2, 512.0);
    let case = "arrivals at 0.0, 3 provisioned, keep-alive 0";
    let stats = assert_engines_agree(&platform, &demo, &[0.0; 5], &at_zero, case);
    assert_eq!((stats.cold_starts, stats.warm_starts), (2, 3), "{case}");

    // A zero execution time makes a warm finish equal its start, so
    // instances settle into the idle sets with equal keys.
    let instant = AppProfile::new("instant", 0.0, 0.0, 0.0, 128.0);
    let arrivals = [0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 2.5, 4.0];
    for (keep_alive_secs, provisioned, max_concurrency) in [
        (0.0, 0, None),
        (0.0, 2, None),
        (1.0, 1, Some(1)),
        (60.0, 0, Some(2)),
    ] {
        let options = PoolOptions {
            keep_alive_secs,
            provisioned,
            max_concurrency,
            ..PoolOptions::default()
        };
        let case = format!("exec 0, keep-alive {keep_alive_secs}, {provisioned} provisioned, cap {max_concurrency:?}");
        assert_engines_agree(&platform, &instant, &arrivals, &options, &case);
    }
}

#[test]
fn expiry_boundary_is_exclusive_on_both_engines() {
    // The pinned boundary: an idle instance whose keep-alive runs out at
    // *exactly* the arrival instant (`expires_at == now`) is still warm;
    // one that expired any earlier (`expires_at < now`) is reaped. With
    // keep_alive 0, an instance freeing at time `f` expires at `f` too,
    // so an arrival at exactly `f` reuses it and an arrival at
    // `f + ε` cold-starts.
    let platform = Platform::default();
    let a = AppProfile::new("demo", 100.0, 1.0, 0.2, 512.0);
    let cold_e2e = platform.cold_invocation(&a, StartMode::Standard).e2e_secs();
    let options = PoolOptions {
        keep_alive_secs: 0.0,
        ..PoolOptions::default()
    };
    for (arrivals, expect_warm) in [
        (vec![0.0, cold_e2e], 1u64),        // expires_at == now: kept
        (vec![0.0, cold_e2e + 1e-9], 0u64), // expires_at < now: reaped
    ] {
        let case = format!("{arrivals:?}");
        let stats = assert_engines_agree(&platform, &a, &arrivals, &options, &case);
        assert_eq!(stats.warm_starts, expect_warm, "{case}");
    }
}
