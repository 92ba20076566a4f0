//! Golden-fixture trace-replay test (tier-1): parses the checked-in
//! Azure-schema CSV sample, replays it through the keep-alive pool across
//! all StartMode x keep-alive variants, and pins down determinism — the
//! rendered metrics must be byte-identical across repeated runs and
//! across worker counts.
//!
//! Also pins the rendered metrics of both replay sources (the fixtures
//! and synthetic configs, materialized and streamed) against
//! `tests/golden/replay_metrics.txt`, the event-driven pool engine
//! byte-identical (stats + traced events) to the reference engine in
//! `tests/naive_pool/` across the fixture, the streaming synthetic
//! generator byte-identical to the materialized path (including
//! diurnal/weekend thinning and the timer exemption), and the streamed
//! fleet replay deterministic across `--jobs` ∈ {1, 2, 8}.
//!
//! Regenerate the metrics golden (only when a change is meant to move
//! replay numbers) with:
//!
//! ```text
//! LT_UPDATE_GOLDEN=1 cargo test --test trace_replay
//! ```

mod naive_pool;

use lambda_sim::{
    generate_trace, load_trace_csv, render_metrics_json, replay_fleet, replay_trace, simulate_pool,
    synthesize_function, AppProfile, ArrivalClass, DiurnalProfile, Platform, PoolOptions,
    ReplayOptions, ReplayReport, StartMode, TraceConfig, TraceSource,
};
use naive_pool::simulate_naive;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/azure_trace_sample.csv"
);
/// A fixture whose every function has all-zero minute counts — the
/// all-filtered / zero-arrival shape that must replay to explicit
/// zero-stat slots instead of NaN percentiles.
const ZERO_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/azure_trace_zero_sample.csv"
);
const SEED: u64 = 0xA57AC3;
const METRICS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/replay_metrics.txt"
);

/// The rendered metrics of every replay the golden pins, one section each.
fn capture_replay_metrics() -> String {
    let platform = Platform::default();
    let fixture = load_trace_csv(FIXTURE, SEED).expect("fixture parses");
    let zero = load_trace_csv(ZERO_FIXTURE, SEED).expect("zero fixture parses");
    let diurnal = TraceConfig {
        functions: 40,
        window_secs: 6.0 * 3600.0,
        seed: 19,
        diurnal: Some(DiurnalProfile::default()),
    };
    let flat = TraceConfig {
        diurnal: None,
        ..diurnal.clone()
    };
    let defaults = ReplayOptions::default();
    let capped = ReplayOptions {
        jobs: 2,
        max_concurrency: Some(3),
        provisioned: 1,
        ..ReplayOptions::default()
    };
    let sweep = ReplayOptions {
        modes: vec![StartMode::Restore, StartMode::Standard],
        keep_alive_secs: vec![0.0, 60.0, 3600.0],
        ..ReplayOptions::default()
    };
    let trace = |t, o| render_metrics_json(&replay_trace(&platform, t, o));
    let fleet = |c, o| render_metrics_json(&replay_fleet(&platform, c, o).expect("valid config"));
    let sections = [
        ("fixture, default options", trace(&fixture, &defaults)),
        (
            "fixture, jobs 2, max_concurrency 3, provisioned 1",
            trace(&fixture, &capped),
        ),
        ("zero fixture, default options", trace(&zero, &defaults)),
        (
            "diurnal synthetic, materialized",
            trace(&generate_trace(&diurnal), &defaults),
        ),
        ("diurnal synthetic, streamed", fleet(&diurnal, &defaults)),
        (
            "flat synthetic, modes restore+standard, keep-alive 0/60/3600, materialized",
            trace(&generate_trace(&flat), &sweep),
        ),
        (
            "flat synthetic, modes restore+standard, keep-alive 0/60/3600, streamed",
            fleet(&flat, &sweep),
        ),
    ];
    sections
        .iter()
        .map(|(name, json)| format!("== {name}\n{json}\n"))
        .collect()
}

#[test]
fn replay_metrics_match_golden() {
    let actual = capture_replay_metrics();
    if std::env::var("LT_UPDATE_GOLDEN").is_ok() {
        std::fs::write(METRICS_GOLDEN, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(METRICS_GOLDEN)
        .expect("golden exists; regenerate with LT_UPDATE_GOLDEN=1");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "replay metrics diverged at golden line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "replay metrics length changed"
    );
}

#[test]
fn golden_fixture_parses_with_expected_shape() {
    let trace = load_trace_csv(FIXTURE, SEED).expect("fixture parses");
    assert_eq!(trace.functions.len(), 24, "24 functions in the fixture");
    assert_eq!(trace.window_secs, 120.0 * 60.0, "120 minute columns");
    assert_eq!(trace.source, TraceSource::Loaded { seed: SEED });
    assert!(trace.invocations() > 0);
    // The trigger mix covers every arrival class.
    for class in [
        ArrivalClass::Periodic,
        ArrivalClass::Poisson,
        ArrivalClass::Bursty,
        ArrivalClass::Rare,
    ] {
        assert!(
            trace.functions.iter().any(|f| f.class == class),
            "fixture should contain a {class:?} function"
        );
    }
    // Arrival reconstruction respects the window and ordering.
    for f in &trace.functions {
        assert!(f.arrivals.windows(2).all(|w| w[0] <= w[1]), "{}", f.name);
        assert!(
            f.arrivals
                .iter()
                .all(|&t| (0.0..trace.window_secs).contains(&t)),
            "{}: arrivals must lie in [0, window)",
            f.name
        );
    }
}

#[test]
fn golden_fixture_replay_is_deterministic_across_runs_and_jobs() {
    let platform = Platform::default();
    let trace = load_trace_csv(FIXTURE, SEED).expect("fixture parses");

    let run = |jobs: usize| {
        let report = replay_trace(
            &platform,
            &trace,
            &ReplayOptions {
                jobs,
                ..ReplayOptions::default()
            },
        );
        render_metrics_json(&report)
    };

    let sequential = run(1);
    assert_eq!(sequential, run(1), "repeated runs must be byte-identical");
    assert_eq!(
        sequential,
        run(8),
        "worker count must not change the metrics"
    );

    // Reloading the CSV from scratch reproduces the same metrics too
    // (loader + reconstruction are deterministic end to end).
    let reloaded = load_trace_csv(FIXTURE, SEED).expect("fixture parses");
    let report = replay_trace(&platform, &reloaded, &ReplayOptions::default());
    assert_eq!(sequential, render_metrics_json(&report));
}

#[test]
fn event_engine_matches_naive_oracle_on_golden_fixture() {
    // The event-driven engine must be byte-identical — PoolStats and the
    // full PoolEvent stream — to the reference engine on every fixture
    // function, under uncapped, capped, and provisioned pools.
    let platform = Platform::default();
    let trace = load_trace_csv(FIXTURE, SEED).expect("fixture parses");
    for function in &trace.functions {
        let app = AppProfile::new(
            function.name.clone(),
            64.0,
            0.5,
            function.duration_ms / 1000.0,
            function.mem_mb,
        );
        for (max_concurrency, provisioned, keep_alive_secs) in [
            (None, 0, 900.0),
            (None, 0, 0.0),
            (Some(2), 0, 60.0),
            (Some(2), 0, 900.0),
            (Some(4), 2, 900.0),
        ] {
            let pool = PoolOptions {
                keep_alive_secs,
                max_concurrency,
                provisioned,
                window_secs: trace.window_secs,
                ..PoolOptions::default()
            };
            let mut naive_events = Vec::new();
            let naive = simulate_naive(&platform, &app, &function.arrivals, &pool, |e| {
                naive_events.push(e)
            });
            let mut event_events = Vec::new();
            let event = simulate_pool(
                &platform,
                &app,
                function.arrivals.iter().copied(),
                &pool,
                |e| event_events.push(e),
            )
            .expect("fixture arrivals are sorted");
            assert_eq!(naive, event, "{}: stats diverged", function.name);
            assert_eq!(
                naive_events, event_events,
                "{}: traced events diverged",
                function.name
            );
        }
    }
}

#[test]
fn streaming_synthetic_arrivals_match_materialized_path() {
    // Satellite: iterator-based arrivals byte-identical to the materialized
    // Vec<f64> path for fixed seeds — flat, diurnal-thinned over a
    // multi-day window (exercising weekend thinning), and the timer
    // exemption (Periodic functions identical with and without diurnal).
    for (seed, window_secs, diurnal) in [
        (SEED, 24.0 * 3600.0, None),
        (SEED, 7.0 * 24.0 * 3600.0, Some(DiurnalProfile::default())),
        (
            77,
            7.0 * 24.0 * 3600.0,
            Some(DiurnalProfile {
                weekend_factor: 0.3,
                ..DiurnalProfile::default()
            }),
        ),
    ] {
        let config = TraceConfig {
            functions: 80,
            window_secs,
            seed,
            diurnal,
        };
        let trace = generate_trace(&config);
        for (id, f) in trace.functions.iter().enumerate() {
            let synth = synthesize_function(&config, id);
            let streamed: Vec<f64> = synth.arrivals().collect();
            assert_eq!(
                f.arrivals, streamed,
                "seed {seed} fn{id}: streamed arrivals != materialized"
            );
        }
        if config.diurnal.is_some() {
            // Timer exemption: Periodic streams ignore the diurnal profile.
            let flat = TraceConfig {
                diurnal: None,
                ..config.clone()
            };
            for id in 0..config.functions {
                let modulated = synthesize_function(&config, id);
                let unmodulated = synthesize_function(&flat, id);
                if modulated.class == ArrivalClass::Periodic {
                    let a: Vec<f64> = modulated.arrivals().collect();
                    let b: Vec<f64> = unmodulated.arrivals().collect();
                    assert_eq!(a, b, "fn{id}: timers must not be thinned");
                }
            }
        }
    }
}

#[test]
fn streamed_fleet_replay_is_deterministic_across_jobs() {
    // The fleet path holds no trace in memory, so determinism must come
    // from slotted aggregation — pin byte-identity at jobs ∈ {1, 2, 8}.
    let platform = Platform::default();
    let config = TraceConfig {
        functions: 120,
        window_secs: 6.0 * 3600.0,
        seed: SEED,
        diurnal: Some(DiurnalProfile::default()),
    };
    let renders: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|jobs| {
            let options = ReplayOptions {
                jobs,
                ..ReplayOptions::default()
            };
            render_metrics_json(
                &replay_fleet(&platform, &config, &options).expect("valid fleet config"),
            )
        })
        .collect();
    assert_eq!(renders[0], renders[1], "jobs=1 vs jobs=2");
    assert_eq!(renders[0], renders[2], "jobs=1 vs jobs=8");
}

#[test]
fn streamed_fleet_counts_match_materialized_replay() {
    // The streamed fleet and the materialized replay must agree exactly on
    // every rendered field but the E2E percentiles, which the fleet path
    // estimates from a histogram (their accuracy is checked in-crate).
    let platform = Platform::default();
    let config = TraceConfig {
        functions: 60,
        window_secs: 4.0 * 3600.0,
        seed: 7,
        diurnal: Some(DiurnalProfile::default()),
    };
    let options = ReplayOptions::default();
    let without_percentiles = |mut report: ReplayReport| {
        for v in &mut report.variants {
            (v.e2e_p50_secs, v.e2e_p95_secs, v.e2e_p99_secs) = (0.0, 0.0, 0.0);
        }
        render_metrics_json(&report)
    };
    let fleet = replay_fleet(&platform, &config, &options).expect("valid fleet config");
    let replay = replay_trace(&platform, &generate_trace(&config), &options);
    assert!(fleet.invocations > 0);
    assert_eq!(without_percentiles(fleet), without_percentiles(replay));
}

#[test]
fn zero_arrival_fixture_replays_to_explicit_zero_stats() {
    let platform = Platform::default();
    let trace = load_trace_csv(ZERO_FIXTURE, SEED).expect("zero fixture parses");
    assert_eq!(trace.functions.len(), 3);
    assert_eq!(trace.invocations(), 0, "every minute column is zero");

    let report = replay_trace(&platform, &trace, &ReplayOptions::default());
    assert_eq!((report.functions, report.invocations), (3, 0));
    for v in &report.variants {
        assert_eq!(v.invocations, 0);
        assert_eq!(v.cold_ratio(), 0.0);
        assert_eq!(
            (v.e2e_p50_secs, v.e2e_p95_secs, v.e2e_p99_secs),
            (0.0, 0.0, 0.0),
            "empty percentile inputs must yield explicit zeros"
        );
        assert_eq!(v.cold_ratio_deciles, [0.0; 10]);
        // Restore mode still bills the snapshot cache storage for the
        // window, so the share can be 1.0 — but never NaN.
        assert!((0.0..=1.0).contains(&v.snapstart_share));
        assert_eq!(v.invocation_cost, 0.0);
        for &(_, cost) in &v.provider_costs {
            assert_eq!(cost, 0.0, "no invocations, no per-invocation bill");
        }
    }
    let json = render_metrics_json(&report);
    assert!(!json.contains("NaN"), "{json}");
    assert!(!json.contains("inf"), "{json}");
}

#[test]
fn golden_fixture_replay_metrics_are_sane() {
    let platform = Platform::default();
    let trace = load_trace_csv(FIXTURE, SEED).expect("fixture parses");
    let report = replay_trace(&platform, &trace, &ReplayOptions::default());

    assert_eq!(report.window_secs, trace.window_secs);
    assert_eq!(report.functions, trace.functions.len());
    assert_eq!(report.invocations, trace.invocations() as u64);
    assert_eq!(report.variants.len(), 4, "2 modes x 2 keep-alive settings");
    for v in &report.variants {
        assert_eq!(v.invocations, trace.invocations() as u64);
        assert_eq!(v.cold_starts + v.warm_starts, v.invocations);
        assert!(v.cold_starts > 0, "a fresh pool always cold-starts");
        assert!(v.e2e_p50_secs <= v.e2e_p95_secs);
        assert!(v.e2e_p95_secs <= v.e2e_p99_secs);
        assert!(v.total_cost() > 0.0);
        assert!(!v.provider_costs.is_empty());
    }
}
