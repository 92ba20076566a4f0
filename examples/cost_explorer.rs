//! Cost-model exploration: pricing rules, keep-alive sensitivity, and the
//! SnapStart checkpoint/restore trade-off (§2.1 and §8.6 of the paper).
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use lambda_sim::{
    generate_trace, simulate_pool, AppProfile, CheckpointModel, Platform, PoolOptions, PoolStats,
    PricingModel, SnapStartPricing, StartMode, TraceConfig,
};

fn main() {
    // -- Equation (1): pricing anatomy -----------------------------------
    let aws = PricingModel::aws();
    println!("Equation (1): C = ConfiguredMemory x BilledDuration x UnitPrice");
    for (mem_mb, dur_ms) in [(64.0, 80.0), (512.0, 1_234.5), (3_000.0, 10_500.0)] {
        println!(
            "  footprint {:>6.0} MB, duration {:>8.1} ms -> configured {:>5} MB, billed {:>8.0} ms, ${:.8}",
            mem_mb,
            dur_ms,
            aws.configured_memory_mb(mem_mb),
            aws.billed_duration_ms(dur_ms),
            aws.invocation_cost(mem_mb, dur_ms)
        );
    }
    println!(
        "  note the 128 MB minimum: a 30 MB function bills like a 128 MB one\n   (this hides trim's memory benefit for tiny apps, §8.1)"
    );

    // -- Rounding granularities across providers -------------------------
    println!("\nBilling granularity (150 ms of work):");
    for (name, model) in [
        ("AWS (1 ms)", PricingModel::aws()),
        ("GCP (100 ms)", PricingModel::gcp()),
        ("Azure (1 s)", PricingModel::azure()),
    ] {
        println!(
            "  {name:<14} bills {:>6.0} ms",
            model.billed_duration_ms(150.0)
        );
    }

    // -- Keep-alive sensitivity over a bursty trace ----------------------
    let platform = Platform::default();
    let app = AppProfile::new("demo", 120.0, 1.2, 0.3, 512.0);
    let trace = generate_trace(&TraceConfig {
        functions: 1,
        window_secs: 24.0 * 3600.0,
        seed: 42,
        diurnal: None,
    });
    let arrivals = &trace.functions[0].arrivals;
    let pool = |keep_alive_secs: f64, mode: StartMode| -> PoolStats {
        let options = PoolOptions {
            keep_alive_secs,
            mode,
            ..PoolOptions::default()
        };
        simulate_pool(&platform, &app, arrivals.iter().copied(), &options, |_| {})
            .expect("generated arrivals are sorted")
    };
    println!(
        "\nKeep-alive sensitivity ({} arrivals over 24 h, class {:?}):",
        arrivals.len(),
        trace.functions[0].class
    );
    println!("  keep-alive   cold starts   cold %   total cost $");
    for (label, ka) in [("1 min", 60.0), ("15 min", 900.0), ("60 min", 3600.0)] {
        let stats = pool(ka, StartMode::Standard);
        println!(
            "  {:<11} {:>11} {:>7.1}% {:>14.6}",
            label,
            stats.cold_starts,
            stats.cold_fraction() * 100.0,
            stats.invocation_cost
        );
    }

    // -- The SnapStart trade-off (§8.6) -----------------------------------
    let ckpt = CheckpointModel::default();
    let snap = SnapStartPricing::default();
    println!("\nSnapStart trade-off for the same function, 15 min keep-alive:");
    let stats = pool(900.0, StartMode::Restore);
    let snapshot_mb = ckpt.snapshot_mb(app.mem_mb);
    let cache = snap.cache_cost(snapshot_mb, 24.0 * 3600.0);
    let restores = snap.restore_cost(snapshot_mb) * stats.cold_starts as f64;
    println!(
        "  snapshot {snapshot_mb:.0} MB | invocation cost ${:.6} | cache ${cache:.6} | restores ${restores:.6}",
        stats.invocation_cost
    );
    let share = (cache + restores) / (stats.invocation_cost + cache + restores) * 100.0;
    println!(
        "  SnapStart overhead = {share:.0}% of the total bill — the paper's Figure 13 point: \
         \n  C/R support often costs more than running the function."
    );
    println!(
        "  restore beats re-running init when init > {:.2} s (this app inits in {:.2} s)",
        ckpt.restore_secs(snapshot_mb),
        app.init_secs
    );
}
