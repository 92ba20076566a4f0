//! The serverless execution model: cold/warm starts and their lifecycle
//! phases (§2.1, Figure 1 of the paper). The keep-alive instance pool that
//! decides which starts are cold lives in [`crate::pool`].
//!
//! An invocation's lifecycle is:
//!
//! ```text
//! |-- instance init --|-- image transmission --|-- function init --|-- exec --|
//!         not billed            not billed            billed          billed
//! ```
//!
//! Warm starts skip everything but exec. Checkpoint/restore modes replace
//! the function-init phase with a snapshot restore.

use crate::pricing::PricingModel;
use crate::snapshot::CheckpointModel;

/// Measured profile of a serverless application — the four quantities every
/// experiment consumes. Produced by running the app's pylite code under the
/// metered interpreter, or taken from the paper's Table 1 for calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name.
    pub name: String,
    /// Deployment image size in MB (code + dependencies).
    pub image_mb: f64,
    /// Function Initialization (import) time in seconds.
    pub init_secs: f64,
    /// Function Execution (handler) time in seconds.
    pub exec_secs: f64,
    /// Peak runtime memory footprint in MB.
    pub mem_mb: f64,
}

impl AppProfile {
    /// Construct a profile.
    pub fn new(
        name: impl Into<String>,
        image_mb: f64,
        init_secs: f64,
        exec_secs: f64,
        mem_mb: f64,
    ) -> Self {
        AppProfile {
            name: name.into(),
            image_mb,
            init_secs,
            exec_secs,
            mem_mb,
        }
    }

    /// Billable duration of a cold start in milliseconds (init + exec).
    pub fn cold_billable_ms(&self) -> f64 {
        (self.init_secs + self.exec_secs) * 1000.0
    }

    /// Billable duration of a warm start in milliseconds (exec only).
    pub fn warm_billable_ms(&self) -> f64 {
        self.exec_secs * 1000.0
    }
}

/// Whether an invocation found a warm instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StartKind {
    /// A new instance had to be initialized on the critical path.
    Cold,
    /// A previously initialized instance was reused.
    Warm,
}

/// How cold starts initialize function state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StartMode {
    /// Run the Function Initialization code (the default).
    Standard,
    /// Restore interpreter state from a checkpoint (CRIU / SnapStart style).
    Restore,
}

/// Latency breakdown of one invocation, in seconds per phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// VM/runtime setup (not billed).
    pub instance_init_secs: f64,
    /// Container image download (not billed).
    pub image_tx_secs: f64,
    /// Function Initialization — imports, environment setup (billed).
    pub function_init_secs: f64,
    /// Function Execution — the handler (billed).
    pub exec_secs: f64,
}

impl PhaseBreakdown {
    /// End-to-end latency: the sum of all phases.
    pub fn e2e_secs(&self) -> f64 {
        self.instance_init_secs + self.image_tx_secs + self.function_init_secs + self.exec_secs
    }

    /// Billed duration in milliseconds (function init + exec).
    pub fn billable_ms(&self) -> f64 {
        (self.function_init_secs + self.exec_secs) * 1000.0
    }
}

/// The outcome of one simulated invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Cold or warm.
    pub start: StartKind,
    /// Phase latencies.
    pub phases: PhaseBreakdown,
    /// Billed duration after rounding, in milliseconds.
    pub billed_ms: f64,
    /// Cost in dollars (Equation 1).
    pub cost: f64,
}

impl Invocation {
    /// End-to-end latency in seconds.
    pub fn e2e_secs(&self) -> f64 {
        self.phases.e2e_secs()
    }
}

/// Platform-level constants for the phases the provider controls.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformConfig {
    /// Fixed VM/runtime setup time in seconds (not billed).
    pub instance_init_secs: f64,
    /// Image download bandwidth in MB/s (not billed).
    pub image_bandwidth_mb_s: f64,
    /// Pricing model.
    pub pricing: PricingModel,
    /// Checkpoint/restore model (used in [`StartMode::Restore`]).
    pub checkpoint: CheckpointModel,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            instance_init_secs: 0.9,
            image_bandwidth_mb_s: 170.0,
            pricing: PricingModel::aws(),
            checkpoint: CheckpointModel::default(),
        }
    }
}

/// A serverless platform simulator bound to a configuration.
#[derive(Debug, Clone, Default)]
pub struct Platform {
    /// Platform constants.
    pub config: PlatformConfig,
}

impl Platform {
    /// Create a platform with the given configuration.
    pub fn new(config: PlatformConfig) -> Self {
        Platform { config }
    }

    /// Simulate one cold start of `app`.
    pub fn cold_invocation(&self, app: &AppProfile, mode: StartMode) -> Invocation {
        let function_init_secs = match mode {
            StartMode::Standard => app.init_secs,
            StartMode::Restore => {
                let size = self.config.checkpoint.snapshot_mb(app.mem_mb);
                self.config.checkpoint.restore_secs(size)
            }
        };
        let phases = PhaseBreakdown {
            instance_init_secs: self.config.instance_init_secs,
            image_tx_secs: app.image_mb / self.config.image_bandwidth_mb_s,
            function_init_secs,
            exec_secs: app.exec_secs,
        };
        self.finish(app, StartKind::Cold, phases)
    }

    /// Simulate one warm start of `app` (exec only).
    pub fn warm_invocation(&self, app: &AppProfile) -> Invocation {
        let phases = PhaseBreakdown {
            exec_secs: app.exec_secs,
            ..PhaseBreakdown::default()
        };
        self.finish(app, StartKind::Warm, phases)
    }

    fn finish(&self, app: &AppProfile, start: StartKind, phases: PhaseBreakdown) -> Invocation {
        let billed_ms = self.config.pricing.billed_duration_ms(phases.billable_ms());
        let cost = self
            .config
            .pricing
            .invocation_cost(app.mem_mb, phases.billable_ms());
        Invocation {
            start,
            phases,
            billed_ms,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet() -> AppProfile {
        // Table 1: resnet — 742.56 MB image, 6.30 s import, 5.30 s exec.
        AppProfile::new("resnet", 742.56, 6.30, 5.30, 820.0)
    }

    #[test]
    fn cold_start_includes_all_phases() {
        let p = Platform::default();
        let inv = p.cold_invocation(&resnet(), StartMode::Standard);
        assert_eq!(inv.start, StartKind::Cold);
        assert!(inv.phases.instance_init_secs > 0.0);
        assert!(inv.phases.image_tx_secs > 1.0);
        assert!((inv.phases.function_init_secs - 6.30).abs() < 1e-9);
        assert!(inv.e2e_secs() > 11.0);
    }

    #[test]
    fn warm_start_is_exec_only() {
        let p = Platform::default();
        let inv = p.warm_invocation(&resnet());
        assert_eq!(inv.start, StartKind::Warm);
        assert!((inv.e2e_secs() - 5.30).abs() < 1e-9);
        assert!((inv.billed_ms - 5300.0).abs() < 1.0);
    }

    #[test]
    fn only_init_and_exec_are_billed() {
        let p = Platform::default();
        let inv = p.cold_invocation(&resnet(), StartMode::Standard);
        let billed_secs = inv.billed_ms / 1000.0;
        assert!(
            (billed_secs - (6.30 + 5.30)).abs() < 0.01,
            "platform-side phases are free"
        );
        assert!(inv.e2e_secs() > billed_secs);
    }

    #[test]
    fn restore_mode_replaces_init_for_large_apps() {
        let p = Platform::default();
        let std = p.cold_invocation(&resnet(), StartMode::Standard);
        let cr = p.cold_invocation(&resnet(), StartMode::Restore);
        assert!(
            cr.phases.function_init_secs < std.phases.function_init_secs,
            "restore beats a 6.3 s import"
        );
    }

    #[test]
    fn restore_mode_hurts_tiny_apps() {
        // §8.6: CRIU's ~0.1 s process-recreation overhead makes C/R slower
        // than just running a sub-0.05 s import.
        let p = Platform::default();
        let tiny = AppProfile::new("markdown", 32.0, 0.04, 0.03, 40.0);
        let std = p.cold_invocation(&tiny, StartMode::Standard);
        let cr = p.cold_invocation(&tiny, StartMode::Restore);
        assert!(cr.phases.function_init_secs > std.phases.function_init_secs);
    }

    #[test]
    fn trimmed_profile_costs_less() {
        let p = Platform::default();
        let original = resnet();
        let trimmed = AppProfile::new("resnet-trim", 700.0, 3.1, 5.30, 650.0);
        let c_orig = p.cold_invocation(&original, StartMode::Standard).cost;
        let c_trim = p.cold_invocation(&trimmed, StartMode::Standard).cost;
        assert!(c_trim < c_orig);
    }
}
