//! Trace replay: every function of a trace through the keep-alive pool,
//! across start modes and keep-alive settings, in one pass.
//!
//! This is the paper's §8.6 methodology generalized: instead of replaying a
//! single app against one matched trace function, the core replays the
//! *whole* trace — each function becomes an [`AppProfile`] (its dataset
//! memory/duration columns plus configurable image/init constants) and is
//! driven through [`simulate_pool`] once per (StartMode × keep-alive)
//! variant.
//!
//! One core serves two entry points, which differ in two type parameters:
//!
//! * the **arrival source** — [`replay_trace`] borrows each function's
//!   arrival slice from a materialized [`TraceSet`]; [`replay_fleet`]
//!   synthesizes function `i` of a [`TraceConfig`] on the worker that
//!   replays it ([`synthesize_function`] is row-order independent) and
//!   collects its arrivals into that worker's one reusable buffer. Either
//!   way a function's arrivals are produced once and every variant's pool
//!   reads the same slice, and the fleet sweep holds at most one
//!   function's arrivals per worker: memory is bounded by fleet size and
//!   the largest function, not by invocation count;
//! * the **latency summary** — [`replay_trace`] keeps every E2E sample
//!   for exact percentiles; [`replay_fleet`] fills a 600-bin log-scale
//!   histogram (60 bins per decade over 10⁻⁴–10⁶ s), whose percentile
//!   estimates are within one bin (≈ 4% relative) of the exact value.
//!
//! Both are generic, so the per-event path pays no dynamic dispatch.
//! Counts, costs and cold-ratio deciles do not depend on either parameter:
//! on a synthetic config the two entry points report them bit-identically.
//!
//! Functions are independent, so the replay fans out over a worker pool
//! (`jobs` threads) with the same slotted-results idiom as the corpus
//! trimmer: workers pull function indices from an atomic counter and write
//! each function's pool stats into its slot, and aggregation walks the
//! slots in function order, so every f64 sum sees one fixed order. Latency
//! summaries are worker-local and merged at the end; both merges commute
//! (sample multisets, u64 bin counts). Results are therefore
//! **byte-identical whatever the worker count** — the acceptance bar for
//! `BENCH_replay.json`.

use super::synthetic::{synthesize_function, SyntheticFunction, TraceConfig};
use super::{FunctionTrace, TraceError, TraceSet};
use crate::metrics::percentile_sorted;
use crate::platform::{AppProfile, Platform, StartMode};
use crate::pool::{simulate_pool, PoolOptions, PoolStats};
use crate::pricing::SnapStartPricing;
use crate::providers::providers;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Options for [`replay_trace`] and [`replay_fleet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOptions {
    /// Start modes to replay (one full pass per mode × keep-alive).
    pub modes: Vec<StartMode>,
    /// Keep-alive settings to replay, seconds.
    pub keep_alive_secs: Vec<f64>,
    /// Worker threads for the per-function fan-out (clamped to ≥ 1).
    pub jobs: usize,
    /// Per-function concurrency cap (`None` = unlimited).
    pub max_concurrency: Option<usize>,
    /// Provisioned instances per function.
    pub provisioned: usize,
    /// Deployment image size assumed for every function, MB (the dataset
    /// has no image column).
    pub image_mb: f64,
    /// Function-initialization time assumed for every function, seconds
    /// (the dataset has no init column; λ-trim's whole point is shrinking
    /// this, so the knob is explicit).
    pub init_secs: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            modes: vec![StartMode::Standard, StartMode::Restore],
            keep_alive_secs: vec![60.0, 900.0],
            jobs: 1,
            max_concurrency: None,
            provisioned: 0,
            image_mb: 64.0,
            init_secs: 0.5,
        }
    }
}

/// Aggregate results for one (mode, keep-alive) variant across the whole
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantReport {
    /// Start mode of this variant.
    pub mode: StartMode,
    /// Keep-alive of this variant, seconds.
    pub keep_alive_secs: f64,
    /// Total invocations.
    pub invocations: u64,
    /// Total cold starts.
    pub cold_starts: u64,
    /// Total warm starts.
    pub warm_starts: u64,
    /// Total queued requests.
    pub queued_requests: u64,
    /// Sum of Equation-1 invocation costs, dollars (AWS pricing).
    pub invocation_cost: f64,
    /// Reserved provisioned capacity cost, dollars.
    pub provisioned_cost: f64,
    /// SnapStart snapshot cache + restore cost, dollars (Restore mode
    /// only; 0 under Standard).
    pub snapstart_cost: f64,
    /// SnapStart cost share of the total bill, in `[0, 1]`.
    pub snapstart_share: f64,
    /// p50 of per-invocation E2E latency, seconds (0 with no invocations).
    pub e2e_p50_secs: f64,
    /// p95 of per-invocation E2E latency, seconds (0 with no invocations).
    pub e2e_p95_secs: f64,
    /// p99 of per-invocation E2E latency, seconds (0 with no invocations).
    pub e2e_p99_secs: f64,
    /// Deciles (10th..100th percentile) of the per-function cold-start
    /// ratio distribution (functions with ≥ 1 invocation; all 0 when there
    /// are none). Exact on both entry points.
    pub cold_ratio_deciles: [f64; 10],
    /// Total window bill under each provider's billing rules (invocation
    /// costs recomputed analytically from the cold/warm split; provisioned
    /// and SnapStart charges use AWS rates).
    pub provider_costs: Vec<(&'static str, f64)>,
}

impl VariantReport {
    /// Cold-start ratio across the whole trace.
    pub fn cold_ratio(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.invocations as f64
        }
    }

    /// Total dollars: invocations + provisioned capacity + SnapStart.
    pub fn total_cost(&self) -> f64 {
        self.invocation_cost + self.provisioned_cost + self.snapstart_cost
    }
}

/// The result of a replay: per-variant aggregates over every function.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Window length replayed, seconds.
    pub window_secs: f64,
    /// Functions replayed.
    pub functions: usize,
    /// Invocations per variant (every variant replays the same arrivals;
    /// 0 when there is no variant).
    pub invocations: u64,
    /// Per-variant aggregates, ordered `modes × keep_alive_secs`.
    pub variants: Vec<VariantReport>,
}

/// The report of [`replay_fleet`]: the same shape as every replay's.
pub type FleetReport = ReplayReport;

/// One function the core replays: the dataset columns its pool profile is
/// built from, and its arrivals, sorted ascending.
trait ReplayFunction {
    /// `(name, mem_mb, duration_ms)`.
    fn profile(&self) -> (&str, f64, f64);
    /// The function's arrivals: borrowed, or collected into `buf` (which
    /// the caller reuses across functions).
    fn arrivals<'a>(&'a self, buf: &'a mut Vec<f64>) -> &'a [f64];
}

impl ReplayFunction for &FunctionTrace {
    fn profile(&self) -> (&str, f64, f64) {
        (&self.name, self.mem_mb, self.duration_ms)
    }

    fn arrivals<'a>(&'a self, _buf: &'a mut Vec<f64>) -> &'a [f64] {
        &self.arrivals
    }
}

impl ReplayFunction for SyntheticFunction {
    fn profile(&self) -> (&str, f64, f64) {
        (&self.name, self.mem_mb, self.duration_ms)
    }

    fn arrivals<'a>(&'a self, buf: &'a mut Vec<f64>) -> &'a [f64] {
        buf.clear();
        buf.extend(SyntheticFunction::arrivals(self));
        buf
    }
}

/// The E2E latency percentiles every variant reports: p50, p95 and p99.
const E2E_PERCENTILES: [f64; 3] = [50.0, 95.0, 99.0];

/// Per-variant E2E latency summary: filled by one worker, merged across
/// workers (in any order), then asked for percentiles.
trait LatencySummary: Default + Send {
    fn record(&mut self, e2e_secs: f64);
    fn merge(&mut self, other: Self);
    /// The [`E2E_PERCENTILES`], or zeros when nothing was recorded.
    fn percentiles(&mut self) -> [f64; 3];
}

/// Every sample: exact, interpolated order statistics.
#[derive(Default)]
struct Samples(Vec<f64>);

impl LatencySummary for Samples {
    fn record(&mut self, e2e_secs: f64) {
        self.0.push(e2e_secs);
    }

    fn merge(&mut self, other: Self) {
        self.0.extend(other.0);
    }

    /// Sorts the samples in place, once for all three percentiles.
    fn percentiles(&mut self) -> [f64; 3] {
        self.0
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in latency samples"));
        E2E_PERCENTILES.map(|p| percentile_sorted(&self.0, p))
    }
}

/// Number of E2E histogram bins: 60 per decade across 10 decades.
const HIST_BINS: usize = 600;
/// Lower edge of the histogram, log10 seconds.
const HIST_LOG_MIN: f64 = -4.0;
/// Upper edge of the histogram, log10 seconds.
const HIST_LOG_MAX: f64 = 6.0;

/// Log-scale histogram of samples: fixed size however many are recorded.
struct LogHistogram {
    /// Samples per bin.
    counts: Vec<u64>,
    /// The last sample recorded and its bin. Most samples repeat the one
    /// before (uncapped warm and cold E2E are constant per function and
    /// variant), and the same sample always lands in the same bin, so
    /// this skips the `log10` exactly.
    last: (f64, usize),
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; HIST_BINS],
            // NaN equals nothing, so the first sample computes its bin.
            last: (f64::NAN, 0),
        }
    }
}

impl LatencySummary for LogHistogram {
    fn record(&mut self, e2e_secs: f64) {
        if e2e_secs != self.last.0 {
            let log = e2e_secs.max(1e-300).log10();
            let pos = (log - HIST_LOG_MIN) / (HIST_LOG_MAX - HIST_LOG_MIN) * HIST_BINS as f64;
            self.last = (
                e2e_secs,
                (pos as isize).clamp(0, HIST_BINS as isize - 1) as usize,
            );
        }
        self.counts[self.last.1] += 1;
    }

    fn merge(&mut self, other: Self) {
        for (bin, count) in self.counts.iter_mut().zip(other.counts) {
            *bin += count;
        }
    }

    fn percentiles(&mut self) -> [f64; 3] {
        E2E_PERCENTILES.map(|p| self.percentile(p))
    }
}

impl LogHistogram {
    /// The `p`-th percentile, or 0 when nothing was recorded: the
    /// geometric midpoint of the first bin whose cumulative count reaches
    /// the rank.
    fn percentile(&self, p: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (bin, &count) in self.counts.iter().enumerate() {
            cum += count;
            if cum >= rank {
                let width = (HIST_LOG_MAX - HIST_LOG_MIN) / HIST_BINS as f64;
                let mid = HIST_LOG_MIN + (bin as f64 + 0.5) * width;
                return 10f64.powf(mid);
            }
        }
        10f64.powf(HIST_LOG_MAX)
    }
}

/// One function's replay: the profile that prices it and its pool stats
/// per variant.
type FunctionResult = (AppProfile, Vec<PoolStats>);

/// The replay core: replay functions `0..functions` (each built by
/// `function(i)`) under every variant of `options`, summarizing latency
/// with `S`.
fn replay<F: ReplayFunction, S: LatencySummary>(
    platform: &Platform,
    functions: usize,
    window_secs: f64,
    options: &ReplayOptions,
    function: impl Fn(usize) -> F + Sync,
) -> ReplayReport {
    let pools: Vec<PoolOptions> = options
        .modes
        .iter()
        .flat_map(|&mode| {
            options
                .keep_alive_secs
                .iter()
                .map(move |&keep_alive_secs| PoolOptions {
                    keep_alive_secs,
                    mode,
                    provisioned: options.provisioned,
                    max_concurrency: options.max_concurrency,
                    window_secs,
                })
        })
        .collect();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<FunctionResult>> = Vec::new();
    slots.resize_with(functions, || None);
    let slots = Mutex::new(slots);
    let worker = || {
        let mut summaries: Vec<S> = pools.iter().map(|_| S::default()).collect();
        let mut buf = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= functions {
                return summaries;
            }
            let f = function(i);
            let (name, mem_mb, duration_ms) = f.profile();
            let app = AppProfile::new(
                name,
                options.image_mb,
                options.init_secs,
                duration_ms / 1000.0,
                mem_mb,
            );
            // One arrival pass per function, read by every variant.
            let arrivals = f.arrivals(&mut buf);
            let stats = pools
                .iter()
                .zip(&mut summaries)
                .map(|(pool, summary)| {
                    simulate_pool(platform, &app, arrivals.iter().copied(), pool, |e| {
                        summary.record(e.finish - e.arrival)
                    })
                    .unwrap_or_else(|e| panic!("replaying {}: {e}", app.name))
                })
                .collect();
            slots.lock().expect("replay slots poisoned")[i] = Some((app, stats));
        }
    };
    let threads = options.jobs.max(1).min(functions.max(1));
    let mut summaries = if threads <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .reduce(|mut all, local| {
                    for (a, l) in all.iter_mut().zip(local) {
                        a.merge(l);
                    }
                    all
                })
                .expect("at least one worker")
        })
    };

    // Aggregate in function order (never worker-finish order), so the f64
    // sums are bit-identical across worker counts.
    let snap_pricing = SnapStartPricing::default();
    let provider_models = providers();
    let checkpoint = &platform.config.checkpoint;
    let mut variants: Vec<VariantReport> = pools
        .iter()
        .map(|pool| VariantReport {
            mode: pool.mode,
            keep_alive_secs: pool.keep_alive_secs,
            invocations: 0,
            cold_starts: 0,
            warm_starts: 0,
            queued_requests: 0,
            invocation_cost: 0.0,
            provisioned_cost: 0.0,
            snapstart_cost: 0.0,
            snapstart_share: 0.0,
            e2e_p50_secs: 0.0,
            e2e_p95_secs: 0.0,
            e2e_p99_secs: 0.0,
            cold_ratio_deciles: [0.0; 10],
            provider_costs: provider_models.iter().map(|p| (p.name, 0.0)).collect(),
        })
        .collect();
    let mut cold_ratios: Vec<Vec<f64>> = vec![Vec::new(); pools.len()];
    let slots = slots.into_inner().expect("replay slots poisoned");
    for (app, per_variant) in slots
        .into_iter()
        .map(|slot| slot.expect("every function produced a result"))
    {
        for ((stats, report), ratios) in per_variant
            .iter()
            .zip(variants.iter_mut())
            .zip(cold_ratios.iter_mut())
        {
            report.invocations += stats.invocations();
            report.cold_starts += stats.cold_starts;
            report.warm_starts += stats.warm_starts;
            report.queued_requests += stats.queued_requests;
            report.invocation_cost += stats.invocation_cost;
            report.provisioned_cost += stats.provisioned_cost;
            if stats.invocations() > 0 {
                ratios.push(stats.cold_starts as f64 / stats.invocations() as f64);
            }
            let cold_billable_ms = match report.mode {
                StartMode::Standard => app.cold_billable_ms(),
                StartMode::Restore => {
                    report.snapstart_cost += snap_pricing.window_cost(
                        checkpoint.snapshot_mb(app.mem_mb),
                        window_secs,
                        stats.cold_starts,
                    );
                    (checkpoint.cr_init_secs(app.mem_mb) + app.exec_secs) * 1000.0
                }
            };
            // Pool dynamics (who is cold, who queues) are pricing-agnostic,
            // so each provider's bill follows analytically from the
            // cold/warm split under its own rounding and memory rules.
            for (provider, total) in provider_models.iter().zip(report.provider_costs.iter_mut()) {
                total.1 += provider.pricing.cost_for_invocations(
                    app.mem_mb,
                    cold_billable_ms,
                    stats.cold_starts,
                ) + provider.pricing.cost_for_invocations(
                    app.mem_mb,
                    app.warm_billable_ms(),
                    stats.warm_starts,
                );
            }
        }
    }
    for ((report, summary), ratios) in variants
        .iter_mut()
        .zip(&mut summaries)
        .zip(&mut cold_ratios)
    {
        [
            report.e2e_p50_secs,
            report.e2e_p95_secs,
            report.e2e_p99_secs,
        ] = summary.percentiles();
        ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in cold ratios"));
        for (d, decile) in report.cold_ratio_deciles.iter_mut().enumerate() {
            *decile = percentile_sorted(ratios, (d + 1) as f64 * 10.0);
        }
        let total = report.total_cost();
        report.snapstart_share = if total > 0.0 {
            report.snapstart_cost / total
        } else {
            0.0
        };
    }
    ReplayReport {
        window_secs,
        functions,
        invocations: variants.first().map_or(0, |v| v.invocations),
        variants,
    }
}

/// Replay every function of `trace` under every (mode × keep-alive)
/// variant of `options`, fanning the per-function work out over
/// `options.jobs` threads. E2E percentiles are exact. Deterministic: the
/// report is identical whatever the worker count.
///
/// # Panics
///
/// Panics if a function's arrivals are unsorted or contain NaN (the
/// loader and the generator never produce such a trace).
pub fn replay_trace(
    platform: &Platform,
    trace: &TraceSet,
    options: &ReplayOptions,
) -> ReplayReport {
    replay::<_, Samples>(
        platform,
        trace.functions.len(),
        trace.window_secs,
        options,
        |i| &trace.functions[i],
    )
}

/// Stream-replay the synthetic fleet described by `config` under every
/// (mode × keep-alive) variant of `options`, fanning function indices out
/// over `options.jobs` workers. Each worker synthesizes a function's
/// arrivals once, into one buffer it reuses, and every variant replays
/// that buffer; memory stays bounded by fleet size and the largest
/// function, not invocation count. E2E
/// percentiles are histogram estimates; everything else equals
/// [`replay_trace`] on `generate_trace(config)`. The report is
/// byte-identical whatever the worker count.
///
/// # Errors
///
/// [`TraceError::InvalidWindow`] / [`TraceError::InvalidDiurnal`] if
/// `config` is degenerate.
pub fn replay_fleet(
    platform: &Platform,
    config: &TraceConfig,
    options: &ReplayOptions,
) -> Result<FleetReport, TraceError> {
    config.validate()?;
    Ok(replay::<_, LogHistogram>(
        platform,
        config.functions,
        config.window_secs,
        options,
        |i| synthesize_function(config, i),
    ))
}

/// Render the deterministic metrics block of a replay as a JSON string —
/// shared by `simulate --out`, `experiments -- replay` (which embeds it in
/// `BENCH_replay.json`) and the tier-1 golden test. Only replay-derived
/// numbers appear here; harness-variable fields (throughput, host) live
/// outside this block.
pub fn render_metrics_json(report: &ReplayReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"window_secs\": {},\n  \"functions\": {},\n  \"invocations\": {},\n",
        report.window_secs, report.functions, report.invocations
    ));
    out.push_str("  \"variants\": [\n");
    for (i, v) in report.variants.iter().enumerate() {
        let deciles: Vec<String> = v
            .cold_ratio_deciles
            .iter()
            .map(|d| format!("{d}"))
            .collect();
        let provider_costs: Vec<String> = v
            .provider_costs
            .iter()
            .map(|(name, cost)| format!("\"{name}\": {cost}"))
            .collect();
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"keep_alive_secs\": {}, \"invocations\": {}, \
             \"cold_starts\": {}, \"warm_starts\": {}, \"queued_requests\": {}, \
             \"cold_ratio\": {}, \"invocation_cost_usd\": {}, \"provisioned_cost_usd\": {}, \
             \"snapstart_cost_usd\": {}, \"snapstart_share\": {}, \"total_cost_usd\": {}, \
             \"e2e_p50_s\": {}, \"e2e_p95_s\": {}, \"e2e_p99_s\": {}, \
             \"cold_ratio_deciles\": [{}], \"provider_cost_usd\": {{{}}}}}{}\n",
            mode_name(v.mode),
            v.keep_alive_secs,
            v.invocations,
            v.cold_starts,
            v.warm_starts,
            v.queued_requests,
            v.cold_ratio(),
            v.invocation_cost,
            v.provisioned_cost,
            v.snapstart_cost,
            v.snapstart_share,
            v.total_cost(),
            v.e2e_p50_secs,
            v.e2e_p95_secs,
            v.e2e_p99_secs,
            deciles.join(", "),
            provider_costs.join(", "),
            if i + 1 < report.variants.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}");
    out
}

fn mode_name(mode: StartMode) -> &'static str {
    match mode {
        StartMode::Standard => "standard",
        StartMode::Restore => "restore",
    }
}

#[cfg(test)]
mod tests {
    use super::super::synthetic::generate_trace;
    use super::*;

    fn small_config() -> TraceConfig {
        TraceConfig {
            functions: 24,
            window_secs: 4.0 * 3600.0,
            seed: 99,
            diurnal: None,
        }
    }

    fn small_trace() -> TraceSet {
        generate_trace(&small_config())
    }

    #[test]
    fn replay_covers_every_function_and_variant() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        assert_eq!(report.functions, 24);
        assert_eq!(report.variants.len(), 4); // 2 modes × 2 keep-alives
        assert_eq!(report.invocations as usize, trace.invocations());
        for v in &report.variants {
            assert_eq!(v.invocations as usize, trace.invocations());
            assert_eq!(v.cold_starts + v.warm_starts, v.invocations);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let trace = small_trace();
        let platform = Platform::default();
        let config = small_config();
        for jobs in [2, 8] {
            let options = ReplayOptions {
                jobs,
                ..ReplayOptions::default()
            };
            let sequential = ReplayOptions::default();
            assert_eq!(
                replay_trace(&platform, &trace, &sequential),
                replay_trace(&platform, &trace, &options),
                "replay must be deterministic across --jobs"
            );
            assert_eq!(
                replay_fleet(&platform, &config, &sequential),
                replay_fleet(&platform, &config, &options),
                "fleet replay must be deterministic across --jobs"
            );
        }
    }

    #[test]
    fn fleet_matches_materialized_replay_except_latency_estimates() {
        let config = small_config();
        let platform = Platform::default();
        let options = ReplayOptions::default();
        let mut fleet = replay_fleet(&platform, &config, &options).expect("valid config");
        let mut replay = replay_trace(&platform, &generate_trace(&config), &options);
        for (fv, rv) in fleet.variants.iter_mut().zip(replay.variants.iter_mut()) {
            // Histogram percentiles are estimates: within one log-bin
            // (≈ 4%) of the exact order statistic.
            for (est, exact) in [
                (&mut fv.e2e_p50_secs, &mut rv.e2e_p50_secs),
                (&mut fv.e2e_p95_secs, &mut rv.e2e_p95_secs),
                (&mut fv.e2e_p99_secs, &mut rv.e2e_p99_secs),
            ] {
                assert!(
                    *est / *exact > 0.95 && *est / *exact < 1.05,
                    "histogram percentile {est} too far from exact {exact}"
                );
                *est = *exact;
            }
        }
        // Same stats summed in the same (function) order: bit-identical.
        assert_eq!(fleet, replay);
    }

    #[test]
    fn longer_keep_alive_reduces_cold_ratio() {
        let trace = small_trace();
        let report = replay_trace(
            &Platform::default(),
            &trace,
            &ReplayOptions {
                modes: vec![StartMode::Standard],
                keep_alive_secs: vec![60.0, 3600.0],
                ..ReplayOptions::default()
            },
        );
        let short = &report.variants[0];
        let long = &report.variants[1];
        assert!(short.cold_ratio() > long.cold_ratio());
    }

    #[test]
    fn snapstart_costs_appear_only_in_restore_mode() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        for v in &report.variants {
            match v.mode {
                StartMode::Standard => {
                    assert_eq!(v.snapstart_cost, 0.0);
                    assert_eq!(v.snapstart_share, 0.0);
                }
                StartMode::Restore => {
                    assert!(v.snapstart_cost > 0.0);
                    assert!(v.snapstart_share > 0.0 && v.snapstart_share < 1.0);
                }
            }
            assert!(v.total_cost() > 0.0);
            assert_eq!(v.provider_costs.len(), 3);
            for &(_, cost) in &v.provider_costs {
                assert!(cost > 0.0);
            }
            // Coarser rounding never bills less than AWS's 1 ms rounding.
            let aws = v.provider_costs[0].1;
            assert!(v.provider_costs.iter().all(|&(_, c)| c >= aws * 0.999));
        }
    }

    #[test]
    fn percentiles_and_deciles_are_ordered() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        for v in &report.variants {
            assert!(v.e2e_p50_secs <= v.e2e_p95_secs);
            assert!(v.e2e_p95_secs <= v.e2e_p99_secs);
            assert!(v.cold_ratio_deciles.windows(2).all(|w| w[0] <= w[1]));
            assert!(v.cold_ratio_deciles[9] > 0.0 && v.cold_ratio_deciles[9] <= 1.0);
        }
    }

    #[test]
    fn rendered_metrics_are_valid_shape() {
        let trace = small_trace();
        let report = replay_trace(&Platform::default(), &trace, &ReplayOptions::default());
        let json = render_metrics_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"mode\"").count(), 4);
        assert!(json.contains("\"AWS Lambda\""));
        assert!(json.contains("\"cold_ratio_deciles\""));
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_trace_and_fleet_replay_to_zeroes() {
        let trace = TraceSet {
            window_secs: 60.0,
            functions: vec![],
            source: super::super::TraceSource::Synthetic { seed: 0 },
        };
        let platform = Platform::default();
        let options = ReplayOptions::default();
        let fleet = TraceConfig {
            functions: 0,
            ..small_config()
        };
        for report in [
            replay_trace(&platform, &trace, &options),
            replay_fleet(&platform, &fleet, &options).expect("valid"),
        ] {
            assert_eq!(report.functions, 0);
            assert_eq!(report.invocations, 0);
            for v in &report.variants {
                assert_eq!(v.invocations, 0);
                assert_eq!(v.total_cost(), 0.0);
                assert_eq!(v.cold_ratio(), 0.0);
            }
        }
    }

    #[test]
    fn degenerate_fleet_config_is_a_typed_error() {
        let config = TraceConfig {
            window_secs: 0.0,
            ..small_config()
        };
        assert!(replay_fleet(&Platform::default(), &config, &ReplayOptions::default()).is_err());
    }

    #[test]
    fn histogram_percentiles_are_monotone() {
        let mut hist = LogHistogram::default();
        hist.counts[100] = 50;
        hist.counts[200] = 40;
        hist.counts[300] = 10;
        let p50 = hist.percentile(50.0);
        let p95 = hist.percentile(95.0);
        let p99 = hist.percentile(99.0);
        assert!(0.0 < p50 && p50 <= p95 && p95 <= p99);
        assert_eq!(LogHistogram::default().percentile(50.0), 0.0);
    }

    #[test]
    fn histogram_bin_memo_matches_fresh_binning() {
        // The remembered (sample, bin) pair must never put a sample in a
        // different bin than a fresh histogram would.
        let samples = [0.25, 0.25, 3.0, 0.25, 0.0, -0.0, 0.0, 1e9, 1e9, 3.0, 1e-7];
        let mut memo = LogHistogram::default();
        let mut fresh_counts = vec![0u64; HIST_BINS];
        for &x in &samples {
            memo.record(x);
            let mut fresh = LogHistogram::default();
            fresh.record(x);
            for (total, count) in fresh_counts.iter_mut().zip(&fresh.counts) {
                *total += count;
            }
        }
        assert_eq!(memo.counts, fresh_counts);
    }

    #[test]
    fn zero_arrival_fleet_reports_zero_stat_slots() {
        // A window short enough that every synthetic function's first
        // arrival falls outside it: the empty histograms must surface as
        // explicit zero slots, and the render must carry no NaN.
        let config = TraceConfig {
            functions: 3,
            window_secs: 1e-6,
            seed: 5,
            diurnal: None,
        };
        let report =
            replay_fleet(&Platform::default(), &config, &ReplayOptions::default()).expect("valid");
        assert_eq!(report.invocations, 0);
        for v in &report.variants {
            assert_eq!(v.invocations, 0);
            assert_eq!(v.cold_ratio(), 0.0);
            assert_eq!(
                (v.e2e_p50_secs, v.e2e_p95_secs, v.e2e_p99_secs),
                (0.0, 0.0, 0.0)
            );
            assert_eq!(v.cold_ratio_deciles, [0.0; 10]);
        }
        let json = render_metrics_json(&report);
        assert!(!json.contains("NaN"), "{json}");
    }
}
