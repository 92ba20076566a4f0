//! Shared experiment harness: measure corpus apps, trim them, and derive
//! the platform-level quantities every table/figure consumes.

use lambda_sim::{
    simulate_pool, AppProfile, CheckpointModel, Platform, PricingModel, SnapStartPricing, StartMode,
};
use trim_apps::BenchApp;
use trim_core::{trim_app, trim_corpus_parallel, CorpusJob, DebloatOptions, Execution, TrimReport};
use trim_profiler::ScoringMethod;

/// Number of invocations the paper prices cold starts for (Figure 2).
pub const PRICED_INVOCATIONS: u64 = 100_000;

/// One fully measured + trimmed benchmark application.
pub struct AppResult {
    /// The generated benchmark app.
    pub bench: BenchApp,
    /// The trim pipeline report (holds before/after executions).
    pub report: TrimReport,
}

impl AppResult {
    /// Measure + trim one app with the given options.
    pub fn compute(bench: BenchApp, options: &DebloatOptions) -> AppResult {
        let report = trim_app(&bench.registry, &bench.app_source, &bench.spec, options)
            .unwrap_or_else(|e| panic!("trimming {} failed: {e}", bench.name));
        AppResult { bench, report }
    }

    /// Measure + trim with the paper's defaults (K = 20, combined scoring).
    pub fn compute_default(bench: BenchApp) -> AppResult {
        Self::compute(bench, &DebloatOptions::default())
    }

    /// Platform profile of the original application.
    pub fn profile_before(&self) -> AppProfile {
        profile_from_execution(&self.bench.name, self.bench.image_mb, &self.report.before)
    }

    /// Platform profile of the trimmed application. The deployment image
    /// size is unchanged: DD rewrites `__init__` sources, but the binary
    /// wheels that dominate package size stay in the image.
    pub fn profile_after(&self) -> AppProfile {
        profile_from_execution(&self.bench.name, self.bench.image_mb, &self.report.after)
    }
}

/// Trim a whole corpus with the paper's defaults, fanning the independent
/// apps out over `jobs` worker threads (`jobs <= 1` runs sequentially).
/// Results are in corpus order and byte-identical to a sequential run.
pub fn compute_corpus(
    benches: Vec<BenchApp>,
    options: &DebloatOptions,
    jobs: usize,
) -> Vec<AppResult> {
    let corpus: Vec<CorpusJob> = benches
        .iter()
        .map(|bench| CorpusJob {
            name: bench.name.clone(),
            registry: bench.registry.clone(),
            app_source: bench.app_source.clone(),
            spec: bench.spec.clone(),
        })
        .collect();
    let reports = trim_corpus_parallel(&corpus, options, jobs);
    benches
        .into_iter()
        .zip(reports)
        .map(|(bench, report)| AppResult {
            report: report.unwrap_or_else(|e| panic!("trimming {} failed: {e}", bench.name)),
            bench,
        })
        .collect()
}

/// Build a platform [`AppProfile`] from a measured execution.
pub fn profile_from_execution(name: &str, image_mb: f64, exec: &Execution) -> AppProfile {
    AppProfile::new(name, image_mb, exec.init_secs, exec.exec_secs, exec.mem_mb)
}

/// Cold-start cost in dollars of one invocation under the default platform.
pub fn cold_cost(platform: &Platform, profile: &AppProfile) -> f64 {
    platform.cold_invocation(profile, StartMode::Standard).cost
}

/// The three improvement axes of Figures 8–10, in percent (positive =
/// better after trimming).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Improvements {
    /// End-to-end cold-start latency improvement (%).
    pub e2e_pct: f64,
    /// Memory footprint improvement (%).
    pub mem_pct: f64,
    /// Cold invocation cost improvement (%).
    pub cost_pct: f64,
    /// Function Initialization improvement (%).
    pub import_pct: f64,
}

/// Compute the improvement axes for one app result.
pub fn improvements(platform: &Platform, r: &AppResult) -> Improvements {
    let before = r.profile_before();
    let after = r.profile_after();
    let e2e_b = platform
        .cold_invocation(&before, StartMode::Standard)
        .e2e_secs();
    let e2e_a = platform
        .cold_invocation(&after, StartMode::Standard)
        .e2e_secs();
    let cost_b = cold_cost(platform, &before);
    let cost_a = cold_cost(platform, &after);
    Improvements {
        e2e_pct: pct(e2e_b, e2e_a),
        mem_pct: pct(before.mem_mb, after.mem_mb),
        cost_pct: pct(cost_b, cost_a),
        import_pct: pct(before.init_secs, after.init_secs),
    }
}

/// Relative improvement in percent.
pub fn pct(before: f64, after: f64) -> f64 {
    if before <= 0.0 {
        0.0
    } else {
        (before - after) / before * 100.0
    }
}

/// Trim one app with a particular scoring method (Figure 9).
pub fn result_with_scoring(bench: BenchApp, scoring: ScoringMethod) -> AppResult {
    AppResult::compute(
        bench,
        &DebloatOptions {
            scoring,
            ..DebloatOptions::default()
        },
    )
}

/// Trim one app with a particular K (Figure 10).
pub fn result_with_k(bench: BenchApp, k: usize) -> AppResult {
    AppResult::compute(
        bench,
        &DebloatOptions {
            k,
            ..DebloatOptions::default()
        },
    )
}

/// Simulated SnapStart accounting for one profile over a trace window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SnapStartAccount {
    /// Sum of per-invocation billed costs ($).
    pub invocation_cost: f64,
    /// Snapshot cache + restore cost ($).
    pub snapstart_cost: f64,
    /// Number of cold starts in the window.
    pub cold_starts: u64,
    /// Number of invocations.
    pub invocations: u64,
}

impl SnapStartAccount {
    /// SnapStart share of the total bill.
    pub fn snapstart_share(&self) -> f64 {
        let total = self.invocation_cost + self.snapstart_cost;
        if total <= 0.0 {
            0.0
        } else {
            self.snapstart_cost / total
        }
    }
}

/// Simulate a profile over an arrival process with SnapStart enabled
/// (restore-mode cold starts, cache billed for the whole window).
pub fn snapstart_account(
    platform: &Platform,
    pricing: &SnapStartPricing,
    checkpoint: &CheckpointModel,
    profile: &AppProfile,
    arrivals: &[f64],
    keep_alive_secs: f64,
    window_secs: f64,
) -> SnapStartAccount {
    let stats = simulate_pool(
        platform,
        profile,
        arrivals,
        keep_alive_secs,
        StartMode::Restore,
    );
    let snapshot_mb = checkpoint.snapshot_mb(profile.mem_mb);
    SnapStartAccount {
        invocation_cost: stats.total_cost,
        snapstart_cost: pricing.window_cost(snapshot_mb, window_secs, stats.cold_starts),
        cold_starts: stats.cold_starts,
        invocations: stats.invocations(),
    }
}

/// Default platform used across experiments.
pub fn default_platform() -> Platform {
    Platform::default()
}

/// Default AWS pricing used across experiments.
pub fn default_pricing() -> PricingModel {
    PricingModel::aws()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvements_are_positive_for_trimmable_app() {
        let bench = trim_apps::app("markdown").unwrap();
        let r = AppResult::compute_default(bench);
        let imp = improvements(&default_platform(), &r);
        assert!(imp.import_pct > 0.0);
        assert!(imp.mem_pct >= 0.0);
        assert!(imp.cost_pct > 0.0);
    }

    #[test]
    fn trimmed_image_is_not_larger() {
        let bench = trim_apps::app("igraph").unwrap();
        let r = AppResult::compute_default(bench);
        assert!(r.profile_after().image_mb <= r.profile_before().image_mb);
    }

    #[test]
    fn pct_helper() {
        assert_eq!(pct(10.0, 5.0), 50.0);
        assert_eq!(pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn snapstart_share_bounds() {
        let a = SnapStartAccount {
            invocation_cost: 1.0,
            snapstart_cost: 3.0,
            cold_starts: 2,
            invocations: 10,
        };
        assert!((a.snapstart_share() - 0.75).abs() < 1e-12);
        assert_eq!(SnapStartAccount::default().snapstart_share(), 0.0);
    }
}
