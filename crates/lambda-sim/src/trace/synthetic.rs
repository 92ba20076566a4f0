//! Synthetic Azure-Functions-style trace generation (§8.6, Figures 13–14).
//!
//! The trace Microsoft published is per-minute counts; the raw arrival
//! process is proprietary. This generator synthesizes arrival processes
//! with the published *shape*:
//!
//! * invocation rates are extremely heavy-tailed — most functions fire a few
//!   times a day, a small minority fire many times a minute;
//! * many functions are timer-driven (near-periodic), the rest bursty or
//!   Poisson-like;
//! * per-function memory and duration distributions are broad and skewed;
//! * demand-driven traffic follows a diurnal + day-of-week cycle
//!   (see [`DiurnalProfile`]); timers do not.
//!
//! Generation is fully seeded and deterministic, and every arrival lies in
//! `[0, window_secs)`.
//!
//! # Streaming
//!
//! Every function draws from its own RNG stream, seeded from
//! `config.seed ^ fnv1a64(name)` — so [`synthesize_function`] can produce
//! function `i` without generating functions `0..i`, any subset of the
//! fleet can be generated on any worker in any order, and arrivals come out
//! of [`SyntheticFunction::arrivals`] as a sorted iterator. The replay
//! core collects one function's arrivals at a time into a buffer each
//! worker reuses, so a 40k-function fleet with 10⁸ invocations replays in
//! memory bounded by its largest function (see [`super::replay_fleet`]).
//! [`generate_trace`] is a thin wrapper that collects every stream into
//! [`FunctionTrace`]s, so the materialized trace [`super::replay_trace`]
//! reads and the stream [`super::replay_fleet`] reads are byte-identical by
//! construction (and pinned by tests).

use super::reconstruct::fnv1a64;
use super::{
    validate_window, ArrivalClass, DiurnalProfile, FunctionTrace, TraceError, TraceSet, TraceSource,
};
use trim_rng::Rng;

/// Domain-separation constant for the per-function profile/arrival stream,
/// keeping it independent of the diurnal-thinning stream that shares the
/// `seed ^ fnv1a64(name)` derivation.
const PROFILE_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for the trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of functions to synthesize.
    pub functions: usize,
    /// Window length in seconds (the paper simulates 24 h).
    pub window_secs: f64,
    /// RNG seed.
    pub seed: u64,
    /// Diurnal/day-of-week modulation of demand-driven classes
    /// (`None` = flat rates, the pre-modulation behavior).
    pub diurnal: Option<DiurnalProfile>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            functions: 400,
            window_secs: 24.0 * 3600.0,
            seed: 0xA57AC3,
            diurnal: None,
        }
    }
}

impl TraceConfig {
    /// Validate the configuration: the window must be finite and strictly
    /// positive, and any diurnal profile must be in range.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidWindow`] or [`TraceError::InvalidDiurnal`].
    pub fn validate(&self) -> Result<(), TraceError> {
        validate_window(self.window_secs)?;
        if let Some(diurnal) = &self.diurnal {
            diurnal.validate()?;
        }
        Ok(())
    }
}

/// One synthesized function's profile, with its arrival process still
/// *latent*: [`SyntheticFunction::arrivals`] streams the (sorted, seeded)
/// arrival sequence on demand, any number of times, without materializing
/// it. Produced by [`synthesize_function`].
#[derive(Debug, Clone)]
pub struct SyntheticFunction {
    /// Function id (index into the fleet).
    pub id: u32,
    /// Function name (`fn{id}`), the per-function stream-seed input.
    pub name: String,
    /// Arrival-process class.
    pub class: ArrivalClass,
    /// Allocated memory in MB (log-uniform 64–2048).
    pub mem_mb: f64,
    /// Mean execution duration in ms (log-uniform 5–20000).
    pub duration_ms: f64,
    window_secs: f64,
    diurnal: Option<DiurnalProfile>,
    /// Profile stream positioned after the class/memory/duration draws;
    /// each `arrivals()` call resumes from here.
    arrival_rng: Rng,
    thin_seed: u64,
}

impl SyntheticFunction {
    /// Stream this function's arrival sequence: sorted ascending, every
    /// arrival in `[0, window_secs)`, deterministic for a fixed config.
    /// Demand-driven classes are thinned by the diurnal profile (timers
    /// are exempt), exactly as the materialized path does.
    pub fn arrivals(&self) -> ArrivalStream {
        let mut rng = self.arrival_rng.clone();
        let window = self.window_secs;
        let inner = match self.class {
            ArrivalClass::Periodic => {
                // Periods from 1 minute to 4 hours, log-uniform.
                let period = log_uniform(&mut rng, 60.0, 4.0 * 3600.0);
                let phase = rng.f64() * period;
                StreamKind::Periodic {
                    rng,
                    period,
                    t: phase,
                }
            }
            ArrivalClass::Poisson => {
                // Rates log-uniform from one per 2 h to one per 5 s.
                let rate = log_uniform(&mut rng, 1.0 / 7200.0, 0.2);
                StreamKind::Poisson {
                    rng,
                    rate,
                    t: 0.0,
                    yielded: 0,
                    done: false,
                }
            }
            ArrivalClass::Bursty => StreamKind::Bursty {
                rng,
                bt: 0.0,
                remaining: 0,
                done: false,
            },
            ArrivalClass::Rare => {
                let n = rng.usize_inclusive(1, 8);
                let mut out: Vec<f64> = (0..n).map(|_| rng.f64() * window).collect();
                out.sort_by(f64::total_cmp);
                StreamKind::Rare {
                    buf: out.into_iter(),
                }
            }
        };
        // Timers fire on schedule whatever the hour; human-driven traffic
        // is thinned by the time-of-day acceptance probability. Thinning
        // draws from a dedicated per-function stream so the underlying
        // arrival skeleton (and every other function) is identical with
        // and without modulation.
        let thin = match (&self.diurnal, self.class == ArrivalClass::Periodic) {
            (Some(diurnal), false) => Some((Rng::seed_from_u64(self.thin_seed), *diurnal)),
            _ => None,
        };
        ArrivalStream {
            window,
            inner,
            thin,
        }
    }

    /// Collect the stream into a [`FunctionTrace`] (the materialized
    /// representation [`generate_trace`] returns).
    pub fn materialize(&self) -> FunctionTrace {
        FunctionTrace {
            id: self.id,
            name: self.name.clone(),
            class: self.class,
            mem_mb: self.mem_mb,
            // The dataset's percentile columns, approximated with fixed
            // skew factors for synthetic functions.
            p99_mem_mb: self.mem_mb * 1.3,
            duration_ms: self.duration_ms,
            p50_duration_ms: self.duration_ms * 0.75,
            p99_duration_ms: self.duration_ms * 2.5,
            arrivals: self.arrivals().collect(),
        }
    }
}

/// Synthesize function `id` of the fleet described by `config`, without
/// touching any other function: the profile draws from an RNG seeded on
/// `config.seed ^ fnv1a64("fn{id}") ^ PROFILE_STREAM`, so generation is
/// row-order independent and shardable across workers.
///
/// The configuration is assumed valid ([`TraceConfig::validate`]); entry
/// points validate once per fleet, not once per function.
pub fn synthesize_function(config: &TraceConfig, id: usize) -> SyntheticFunction {
    let name = format!("fn{id}");
    let stream_seed = config.seed ^ fnv1a64(name.as_bytes());
    let mut rng = Rng::seed_from_u64(stream_seed ^ PROFILE_STREAM);
    let class_roll: f64 = rng.f64();
    // Rough class mix per Shahrad et al.: ~29% timers, plus a long tail
    // of rare functions and a small hot set.
    let class = if class_roll < 0.30 {
        ArrivalClass::Periodic
    } else if class_roll < 0.55 {
        ArrivalClass::Rare
    } else if class_roll < 0.85 {
        ArrivalClass::Poisson
    } else {
        ArrivalClass::Bursty
    };
    // Heavy-tailed resource profile: log-uniform memory and duration.
    let mem_mb = log_uniform(&mut rng, 64.0, 2048.0);
    let duration_ms = log_uniform(&mut rng, 5.0, 20_000.0);
    SyntheticFunction {
        id: id as u32,
        name,
        class,
        mem_mb,
        duration_ms,
        window_secs: config.window_secs,
        diurnal: config.diurnal,
        arrival_rng: rng,
        thin_seed: stream_seed,
    }
}

/// Generate a synthetic Azure-style trace by materializing every
/// function's arrival stream (see [`synthesize_function`] for the
/// streaming source [`super::replay_fleet`] uses instead).
///
/// # Panics
///
/// Panics on an invalid configuration (degenerate window or out-of-range
/// diurnal profile) — call [`TraceConfig::validate`] first to surface the
/// error gracefully.
pub fn generate_trace(config: &TraceConfig) -> TraceSet {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid TraceConfig: {e}"));
    let functions = (0..config.functions)
        .map(|id| synthesize_function(config, id).materialize())
        .collect();
    TraceSet {
        window_secs: config.window_secs,
        functions,
        source: TraceSource::Synthetic { seed: config.seed },
    }
}

/// Streaming arrival iterator for one synthetic function: sorted
/// ascending, every item in `[0, window)`. Obtained from
/// [`SyntheticFunction::arrivals`].
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    window: f64,
    inner: StreamKind,
    thin: Option<(Rng, DiurnalProfile)>,
}

#[derive(Debug, Clone)]
enum StreamKind {
    /// Near-periodic timer ticks with ±2% jitter. The jitter bound keeps
    /// consecutive ticks ≥ 0.96 periods apart, so emission order is
    /// already sorted.
    Periodic { rng: Rng, period: f64, t: f64 },
    /// Homogeneous Poisson process via exponential gaps, capped at
    /// ~2M arrivals as a runaway guard.
    Poisson {
        rng: Rng,
        rate: f64,
        t: f64,
        yielded: usize,
        done: bool,
    },
    /// Quiet gaps (10 min – 6 h) separating bursts of 3–60 requests
    /// spaced 0.05–2 s apart. `remaining` counts arrivals left in the
    /// current burst; `bt` is the running clock.
    Bursty {
        rng: Rng,
        bt: f64,
        remaining: usize,
        done: bool,
    },
    /// 1–8 arrivals uniform over the window, pre-sorted at construction
    /// (bounded, so buffering stays O(1)-ish).
    Rare { buf: std::vec::IntoIter<f64> },
}

impl ArrivalStream {
    fn next_unthinned(&mut self) -> Option<f64> {
        let window = self.window;
        match &mut self.inner {
            StreamKind::Periodic { rng, period, t } => loop {
                if *t >= window {
                    return None;
                }
                // Small jitter (±2% of period). Jitter may push a tick
                // below zero (clamped) or past the window end (dropped):
                // arrivals must lie in [0, window).
                let jitter = (rng.f64() - 0.5) * 0.04 * *period;
                let ts = (*t + jitter).max(0.0);
                *t += *period;
                if ts < window {
                    return Some(ts);
                }
            },
            StreamKind::Poisson {
                rng,
                rate,
                t,
                yielded,
                done,
            } => {
                if *done {
                    return None;
                }
                let u: f64 = rng.f64().max(1e-12);
                *t += -u.ln() / *rate;
                if *t >= window || *yielded > 2_000_000 {
                    *done = true;
                    return None;
                }
                *yielded += 1;
                Some(*t)
            }
            StreamKind::Bursty {
                rng,
                bt,
                remaining,
                done,
            } => {
                if *done {
                    return None;
                }
                loop {
                    if *remaining > 0 {
                        *remaining -= 1;
                        *bt += log_uniform(rng, 0.05, 2.0);
                        if *bt >= window {
                            // Mirror the materialized path's inner break:
                            // the rest of the burst's gaps are never drawn.
                            *done = true;
                            return None;
                        }
                        return Some(*bt);
                    }
                    if *bt >= window {
                        *done = true;
                        return None;
                    }
                    *bt += log_uniform(rng, 600.0, 6.0 * 3600.0);
                    if *bt >= window {
                        *done = true;
                        return None;
                    }
                    *remaining = rng.usize_inclusive(3, 60);
                }
            }
            StreamKind::Rare { buf } => buf.next(),
        }
    }
}

impl Iterator for ArrivalStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        match &mut self.thin {
            None => self.next_unthinned(),
            Some(_) => loop {
                let t = self.next_unthinned()?;
                let (thin_rng, diurnal) = self.thin.as_mut().expect("checked above");
                if thin_rng.f64() < diurnal.rate_multiplier(t) {
                    return Some(t);
                }
            },
        }
    }
}

fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    let u: f64 = rng.f64();
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> TraceConfig {
        TraceConfig {
            functions: 60,
            window_secs: 24.0 * 3600.0,
            seed,
            diurnal: None,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_trace(&small_config(7));
        let b = generate_trace(&small_config(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_trace(&small_config(1));
        let b = generate_trace(&small_config(2));
        assert_ne!(a, b);
    }

    #[test]
    fn streaming_matches_materialized_exactly() {
        for seed in [3, 17, 0xA57AC3] {
            let config = TraceConfig {
                diurnal: if seed == 17 {
                    Some(DiurnalProfile::default())
                } else {
                    None
                },
                ..small_config(seed)
            };
            let trace = generate_trace(&config);
            for (id, f) in trace.functions.iter().enumerate() {
                let synth = synthesize_function(&config, id);
                let streamed: Vec<f64> = synth.arrivals().collect();
                assert_eq!(
                    f.arrivals, streamed,
                    "seed {seed} fn{id}: stream != materialized"
                );
                assert_eq!(synth.materialize(), *f);
            }
        }
    }

    #[test]
    fn synthesis_is_row_order_independent() {
        // Function i's profile and arrivals do not depend on how many
        // functions the fleet has or which are generated around it.
        let small = small_config(41);
        let large = TraceConfig {
            functions: 500,
            ..small.clone()
        };
        for id in [0, 7, 59] {
            let a = synthesize_function(&small, id);
            let b = synthesize_function(&large, id);
            assert_eq!(a.materialize(), b.materialize());
        }
    }

    #[test]
    fn arrival_streams_are_restartable() {
        let config = small_config(13);
        for id in 0..20 {
            let synth = synthesize_function(&config, id);
            let first: Vec<f64> = synth.arrivals().collect();
            let second: Vec<f64> = synth.arrivals().collect();
            assert_eq!(first, second, "fn{id}: arrivals() must be replayable");
        }
    }

    #[test]
    fn arrivals_are_sorted_and_strictly_inside_window() {
        // Many seeds so the periodic boundary case (jitter past the window
        // end) is actually exercised.
        for seed in 0..20 {
            let trace = generate_trace(&small_config(seed));
            for f in &trace.functions {
                for w in f.arrivals.windows(2) {
                    assert!(w[0] <= w[1], "arrivals must be sorted");
                }
                for &t in &f.arrivals {
                    assert!(
                        (0.0..24.0 * 3600.0).contains(&t),
                        "seed {seed} fn{}: {t} outside [0, window)",
                        f.id
                    );
                }
            }
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_windows() {
        for bad in [0.0, -60.0, f64::NAN, f64::INFINITY] {
            let config = TraceConfig {
                window_secs: bad,
                ..small_config(1)
            };
            assert!(config.validate().is_err(), "window {bad} must be rejected");
        }
        assert!(small_config(1).validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid TraceConfig")]
    fn generate_panics_on_degenerate_window() {
        generate_trace(&TraceConfig {
            window_secs: 0.0,
            ..small_config(1)
        });
    }

    #[test]
    fn rate_distribution_is_heavy_tailed() {
        let trace = generate_trace(&TraceConfig {
            functions: 400,
            ..small_config(11)
        });
        let mut counts: Vec<usize> = trace.functions.iter().map(|f| f.invocations()).collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let max = *counts.last().unwrap();
        assert!(
            max > median.max(1) * 20,
            "hot functions should dwarf the median (median={median}, max={max})"
        );
    }

    #[test]
    fn all_classes_appear() {
        let trace = generate_trace(&TraceConfig {
            functions: 300,
            ..small_config(5)
        });
        for class in [
            ArrivalClass::Periodic,
            ArrivalClass::Poisson,
            ArrivalClass::Bursty,
            ArrivalClass::Rare,
        ] {
            assert!(
                trace.functions.iter().any(|f| f.class == class),
                "missing class {class:?}"
            );
        }
    }

    /// Bucket total demand-driven arrivals by hour-of-day over a week.
    fn hourly_mass(trace: &TraceSet, classes: &[ArrivalClass]) -> Vec<usize> {
        let mut buckets = vec![0usize; 24];
        for f in &trace.functions {
            if !classes.contains(&f.class) {
                continue;
            }
            for &t in &f.arrivals {
                buckets[((t / 3600.0) % 24.0) as usize] += 1;
            }
        }
        buckets
    }

    #[test]
    fn diurnal_modulation_shifts_mass_to_peak_hours() {
        let week = TraceConfig {
            functions: 300,
            window_secs: 7.0 * 24.0 * 3600.0,
            seed: 23,
            diurnal: Some(DiurnalProfile {
                amplitude: 0.9,
                ..DiurnalProfile::default()
            }),
        };
        let trace = generate_trace(&week);
        let demand = [
            ArrivalClass::Poisson,
            ArrivalClass::Bursty,
            ArrivalClass::Rare,
        ];
        let buckets = hourly_mass(&trace, &demand);
        let peak = buckets[14]; // default peak_hour
        let trough = buckets[2]; // peak + 12, on the trough
        assert!(
            peak > trough * 2,
            "peak-hour mass {peak} should dwarf trough-hour mass {trough}"
        );
        // Timers are untouched by modulation: identical to the flat run.
        let flat = generate_trace(&TraceConfig {
            diurnal: None,
            ..week.clone()
        });
        for (a, b) in trace.functions.iter().zip(&flat.functions) {
            if a.class == ArrivalClass::Periodic {
                assert_eq!(a.arrivals, b.arrivals, "timers must not be thinned");
            }
        }
    }

    #[test]
    fn weekend_days_carry_less_demand_traffic() {
        let trace = generate_trace(&TraceConfig {
            functions: 300,
            window_secs: 7.0 * 24.0 * 3600.0,
            seed: 29,
            diurnal: Some(DiurnalProfile {
                weekend_factor: 0.4,
                ..DiurnalProfile::default()
            }),
        });
        let mut per_day = [0usize; 7];
        for f in &trace.functions {
            if f.class == ArrivalClass::Periodic {
                continue;
            }
            for &t in &f.arrivals {
                per_day[(t / 86_400.0) as usize] += 1;
            }
        }
        let weekday_mean = per_day[..5].iter().sum::<usize>() as f64 / 5.0;
        let weekend_mean = per_day[5..].iter().sum::<usize>() as f64 / 2.0;
        assert!(
            weekend_mean < weekday_mean * 0.8,
            "weekend {weekend_mean} vs weekday {weekday_mean}"
        );
    }
}
