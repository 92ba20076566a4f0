//! The three workloads, their correctness checks and what they measure.
//!
//! Every workload is a closed loop with one client and one worker thread:
//! the next operation starts when the previous one returns. A run repeats
//! *passes* over the workload's operations ([`pass_count`]); every pass
//! first does its own untimed set-up.

use crate::expected::{replay_value, trim_value, Expected};
use crate::mem;
use lambda_sim::trace::reconstruct::fnv1a64;
use lambda_sim::{
    generate_trace, replay_fleet, replay_trace, synthesize_function, AppProfile, DiurnalProfile,
    FleetReport, Platform, ReplayOptions, ReplayReport, StartMode, TraceConfig,
};
use pylite::{Registry, SnapshotStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trim_analysis::summary::SummaryCache;
use trim_apps::BenchApp;
use trim_core::{
    retrim_with_log, run_app, trim_app, DebloatOptions, Execution, IncrementalReport, OracleSpec,
    ProbeCache, TrimLog, TrimReport,
};
use trim_rng::Rng;

/// Passes every run makes whatever `--seconds` says: two consecutive
/// passes feed the cold-cache self-check and the retained-memory slope,
/// and three give a median.
pub const MIN_PASSES: usize = 3;

/// Wall time of one pass of each workload when the benchmark was added
/// (2-core host), which turns `--seconds` into a pass count.
pub const TRIM_COLD_PASS_S: f64 = 5.0;
/// See [`TRIM_COLD_PASS_S`]; a traced pass also times its spans, and the
/// first one runs untraced `trim_app` as well.
pub const TRACED_TRIM_PASS_S: f64 = 7.0;
/// See [`TRIM_COLD_PASS_S`].
pub const RETRIM_UPDATE_PASS_S: f64 = 7.5;
/// See [`TRIM_COLD_PASS_S`].
pub const FLEET_REPLAY_PASS_S: f64 = 3.1;

/// Passes a run makes: `seconds` over the workload's nominal pass time, at
/// least [`MIN_PASSES`]. The count, not the elapsed time, ends a run, so a
/// faster program does the same work and leaks the same memory per run.
pub fn pass_count(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).round() as usize).max(MIN_PASSES)
}

/// How many seeded updates `retrim-update` can apply to one app: update 0
/// adds the rare case to the oracle, updates 1.. make the handler read one
/// attribute the cold trim removed.
pub const UPDATE_KINDS: usize = 4;

/// The `simulate` default trace seed. Fleets drawn at other trace seeds
/// differ in invocation count by about ±6% (4,000 functions) and ±18%
/// (400 functions), more than the benchmark's bounds; the workload seed
/// moves the diurnal peak hour instead, which shifts every demand-driven
/// arrival and keeps the invocation count within 0.2%.
const TRACE_SEED: u64 = 0xA57AC3;

/// Peak hours a fleet can have: the workload seed picks one.
pub const PEAK_HOURS: u64 = 24;

/// The line every generated handler starts with.
const HANDLER: &str = "def handler(event, context):\n";

/// Input sizes: the full corpus and fleet, or the fast mode the benchmark's
/// own tests run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The apps to trim.
    pub apps: fn() -> Vec<BenchApp>,
    /// Functions in the streamed fleet (`replay_fleet`).
    pub fleet_functions: usize,
    /// Functions in the materialized trace (`generate_trace` + `replay_trace`).
    pub trace_functions: usize,
}

/// The benchmark proper: 21 apps, ~4,000 streamed and 400 materialized
/// functions over a diurnal 24 h window.
pub const FULL: Scale = Scale {
    apps: trim_apps::corpus,
    fleet_functions: 4000,
    trace_functions: 400,
};

/// Three apps and small fleets, for the benchmark's own tests.
pub const FAST: Scale = Scale {
    apps: trim_apps::mini_corpus,
    fleet_functions: 200,
    trace_functions: 40,
};

/// One run's settings.
pub struct Run<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Run length, seconds; sets the pass count ([`pass_count`]).
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// The correctness gate.
    pub expected: &'a Expected,
}

/// Counters read at the layer boundaries for one operation. Two
/// consecutive passes must read the same values for the same app.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// `SnapshotStore::stats()` (delta over the operation).
    pub snapshots: SnapshotStats,
    /// Oracle runs the operation reported.
    pub probes: u64,
    /// DD probes (oracle runs inside `ddmin_with`).
    pub dd_probes: u64,
    /// DD probes whose candidate passed the oracle (traced trims only).
    pub dd_passes: u64,
    /// DD subsets answered from DD's own cache.
    pub dd_cache_hits: u64,
    /// Oracle runs of the init slicer.
    pub slicer_probes: u64,
    /// `SummaryCache` hits, cold misses and incremental runs.
    pub summary: [u64; 3],
    /// `ProbeCache` hits and misses.
    pub probe_cache: [u64; 2],
    /// Retrim modules whose logged kept set seeded DD / needed a cold search.
    pub seeded_modules: u64,
    /// See [`Counters::seeded_modules`].
    pub cold_modules: u64,
}

impl Counters {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counters) {
        let s = &mut self.snapshots;
        s.hits += o.snapshots.hits;
        s.misses += o.snapshots.misses;
        s.captures += o.snapshots.captures;
        s.poisons += o.snapshots.poisons;
        s.ineligible += o.snapshots.ineligible;
        self.probes += o.probes;
        self.dd_probes += o.dd_probes;
        self.dd_passes += o.dd_passes;
        self.dd_cache_hits += o.dd_cache_hits;
        self.slicer_probes += o.slicer_probes;
        for i in 0..3 {
            self.summary[i] += o.summary[i];
        }
        for i in 0..2 {
            self.probe_cache[i] += o.probe_cache[i];
        }
        self.seeded_modules += o.seeded_modules;
        self.cold_modules += o.cold_modules;
    }

    /// The sum over a pass's operations.
    pub fn total<'a>(all: impl IntoIterator<Item = &'a Counters>) -> Counters {
        all.into_iter().fold(Counters::default(), |mut sum, c| {
            sum.add(c);
            sum
        })
    }

    /// What a finished trim reports.
    pub fn of_trim(report: &TrimReport, snapshots: SnapshotStats) -> Counters {
        Counters {
            snapshots,
            probes: report.oracle_invocations,
            dd_probes: report
                .modules
                .iter()
                .map(|m| m.dd_stats.oracle_invocations)
                .sum(),
            dd_cache_hits: report.modules.iter().map(|m| m.dd_stats.cache_hits).sum(),
            slicer_probes: report.slices.iter().map(|s| s.oracle_invocations).sum(),
            ..Counters::default()
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up time of each pass, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each operation, per pass, seconds.
    pub op_s: BTreeMap<String, Vec<f64>>,
    /// Pool invocations one operation replays (fleet operations only).
    pub op_invocations: BTreeMap<String, u64>,
    /// Per-pass totals of each traced layer, seconds.
    pub layer_s: BTreeMap<&'static str, Vec<f64>>,
    /// Counters summed over the last pass's operations.
    pub counters: Counters,
    /// Largest rise in resident memory during one operation, MB.
    pub peak_rise_mb: f64,
    /// Resident memory after each pass, its results dropped, MB.
    pub rss_after_pass_mb: Vec<f64>,
    /// Lowest share of an app's traced trim covered by top-level spans.
    pub span_coverage: Option<f64>,
    /// Traced minus untraced trim wall time, % of untraced.
    pub overhead_pct: Option<f64>,
    /// Operations attempted and failed (any check failing fails the operation).
    pub attempted: u64,
    /// See [`Measured::attempted`].
    pub failed: u64,
}

impl Measured {
    /// Run `pass` `count` times, reading resident memory after each.
    pub fn passes(&mut self, count: usize, mut pass: impl FnMut(&mut Measured, usize)) {
        for n in 0..count {
            pass(self, n);
            self.rss_after_pass_mb.push(mem::rss_mb());
        }
    }

    /// Time one operation and track the rise in resident memory it causes.
    pub fn timed<T>(&mut self, op: &str, f: impl FnOnce() -> T) -> T {
        mem::reset_peak();
        let before = mem::rss_mb();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.peak_rise_mb = self.peak_rise_mb.max(mem::peak_mb() - before);
        self.op_s.entry(op.to_owned()).or_default().push(secs);
        out
    }

    /// Count one operation, failed unless every check passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Add one pass's total of a traced layer.
    pub fn layer(&mut self, name: &'static str, secs: f64) {
        self.layer_s.entry(name).or_default().push(secs);
    }
}

/// The cold-cache self-check: an app's counters must repeat pass to pass.
pub fn repeats(prev: &BTreeMap<String, Counters>, app: &str, now: &Counters) -> bool {
    match prev.get(app) {
        Some(p) if p != now => {
            eprintln!("SELF-CHECK {app}: counters changed between passes\n  {p:?}\n  {now:?}");
            false
        }
        _ => true,
    }
}

/// The apps in the seed's order.
pub fn app_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize_inclusive(0, i));
    }
    order
}

/// The output of a trim or retrim, as `expected.txt` records it.
fn outcome(
    bench: &BenchApp,
    trimmed: &Registry,
    attrs: usize,
    stmts: usize,
    after: &Execution,
) -> String {
    let profile = AppProfile::new(
        bench.name.clone(),
        bench.image_mb,
        after.init_secs,
        after.exec_secs,
        after.mem_mb,
    );
    let cold_cost = Platform::default()
        .cold_invocation(&profile, StartMode::Standard)
        .cost;
    trim_value(
        trimmed.fingerprint(),
        attrs,
        stmts,
        after.init_secs,
        after.mem_mb,
        cold_cost,
    )
}

/// The trim outcome of a [`TrimReport`].
pub fn trim_outcome(bench: &BenchApp, r: &TrimReport) -> String {
    outcome(
        bench,
        &r.trimmed,
        r.attrs_removed(),
        r.init_stmts_removed(),
        &r.after,
    )
}

/// The retrim outcome of an [`IncrementalReport`].
pub fn retrim_outcome(bench: &BenchApp, r: &IncrementalReport) -> String {
    let attrs = r.modules.iter().map(|m| m.removed.len()).sum();
    let stmts = r.slices.iter().map(|s| s.stmts_removed()).sum();
    outcome(bench, &r.trimmed, attrs, stmts, &r.after)
}

/// A registry holding `r`'s sources and nothing it shares: no parse or
/// bytecode slots, no interner, no init snapshots.
fn fresh(r: &Registry) -> Registry {
    let mut out = Registry::new();
    for name in r.module_names() {
        out.set_module(name.clone(), r.source(&name).expect("listed module"));
    }
    out
}

/// Run the untrimmed and the trimmed app, each in a fresh interpreter over
/// a fresh registry, and require the same behavior.
pub fn behaves_fresh(
    original: &Registry,
    trimmed: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    what: &str,
) -> bool {
    let baseline = run_app(&fresh(original), app_source, spec);
    let after = run_app(&fresh(trimmed), app_source, spec);
    let ok = matches!((&baseline, &after), (Ok(b), Ok(a)) if a.behavior_eq(b));
    if !ok {
        eprintln!("FRESH-RUN {what}: trimmed app does not behave like the original");
    }
    ok
}

/// `trim-cold`: cold-trim every app with default options, each on a
/// freshly generated registry.
pub fn trim_cold(run: &Run) -> Measured {
    let mut m = Measured::default();
    let n_apps = (run.scale.apps)().len();
    let order = app_order(run.seed, n_apps);
    let mut prev: BTreeMap<String, Counters> = BTreeMap::new();
    m.passes(pass_count(run.seconds, TRIM_COLD_PASS_S), |m, pass| {
        let start = Instant::now();
        let apps = (run.scale.apps)();
        m.setup_s.push(start.elapsed().as_secs_f64());
        let mut now = BTreeMap::new();
        for &i in &order {
            let bench = &apps[i];
            let report = m.timed(&bench.name, || {
                trim_app(
                    &bench.registry,
                    &bench.app_source,
                    &bench.spec,
                    &DebloatOptions::default(),
                )
            });
            let ok = match report {
                Ok(report) => {
                    let c = Counters::of_trim(&report, bench.registry.snapshot_store().stats());
                    let mut ok = run.expected.check(
                        &format!("trim {}", bench.name),
                        &trim_outcome(bench, &report),
                    );
                    if pass == 0 {
                        ok &= behaves_fresh(
                            &bench.registry,
                            &report.trimmed,
                            &bench.app_source,
                            &bench.spec,
                            &bench.name,
                        );
                    }
                    ok &= repeats(&prev, &bench.name, &c);
                    now.insert(bench.name.clone(), c);
                    ok
                }
                Err(e) => {
                    eprintln!("FAILED trim {}: {e}", bench.name);
                    false
                }
            };
            m.record(ok);
        }
        m.counters = Counters::total(now.values());
        prev = now;
    });
    m
}

/// The seeded update `retrim-update` applies to an app.
pub fn update_kind(seed: u64, app: &str) -> usize {
    let draw = Rng::seed_from_u64(seed ^ fnv1a64(app.as_bytes())).next_u64();
    (draw % UPDATE_KINDS as u64) as usize
}

/// An app after its update, with the log its retrim starts from.
pub struct Update {
    /// The updated handler source.
    pub app_source: String,
    /// The updated oracle.
    pub spec: OracleSpec,
    /// The cold trim's log, plus what the update requires.
    pub log: TrimLog,
}

/// Apply update `kind` to `bench`, whose cold trim is `cold`: either the
/// rare case joins the oracle and the log requires the rare attribute, or
/// the handler starts reading an attribute of the app's main library that
/// the cold trim removed.
pub fn apply_update(bench: &BenchApp, cold: &TrimReport, kind: usize) -> Update {
    let mut log = TrimLog::from_report(cold);
    let (lib, rare) = &bench.rare;
    let removed = cold
        .modules
        .iter()
        .find(|m| &m.module == lib)
        .map_or(&[][..], |m| &m.removed[..]);
    if kind == 0 || removed.is_empty() {
        let mut spec = bench.spec.clone();
        spec.cases.push(bench.rare_case());
        log.require(lib, rare);
        return Update {
            app_source: bench.app_source.clone(),
            spec,
            log,
        };
    }
    let attr = &removed[(kind - 1) * removed.len() / (UPDATE_KINDS - 1)];
    assert!(
        bench.app_source.contains(HANDLER),
        "{}: no handler",
        bench.name
    );
    Update {
        app_source: bench.app_source.replacen(
            HANDLER,
            &format!("{HANDLER}    _update = {lib}.{attr}\n"),
            1,
        ),
        spec: bench.spec.clone(),
        log,
    }
}

/// One app ready for its retrim: its registry, warm caches and update.
pub struct Seeded {
    /// The app; its registry is the one the cold trim ran on.
    pub bench: BenchApp,
    /// Default options with the app's caches attached.
    pub options: DebloatOptions,
    /// The probe cache the cold trim filled.
    pub probe_cache: Arc<ProbeCache>,
    /// The summary cache the cold trim filled.
    pub summaries: Arc<SummaryCache>,
    /// Which update was applied.
    pub kind: usize,
    /// The update.
    pub update: Update,
}

/// The `retrim-update` set-up for one app: cold-trim it with fresh caches
/// attached and apply its seeded update. `None` if the cold trim fails or
/// does not match `expected.txt`.
pub fn seed_app(bench: BenchApp, kind: usize, expected: &Expected) -> Option<Seeded> {
    let probe_cache = ProbeCache::shared();
    let summaries = SummaryCache::shared();
    let options = DebloatOptions {
        probe_cache: Some(probe_cache.clone()),
        summary_cache: Some(summaries.clone()),
        ..DebloatOptions::default()
    };
    let cold = match trim_app(&bench.registry, &bench.app_source, &bench.spec, &options) {
        Ok(cold) => cold,
        Err(e) => {
            eprintln!("FAILED seeding trim {}: {e}", bench.name);
            return None;
        }
    };
    if !expected.check(
        &format!("trim {}", bench.name),
        &trim_outcome(&bench, &cold),
    ) {
        return None;
    }
    let update = apply_update(&bench, &cold, kind);
    Some(Seeded {
        bench,
        options,
        probe_cache,
        summaries,
        kind,
        update,
    })
}

fn cache_counters(s: &Seeded) -> Counters {
    Counters {
        snapshots: s.bench.registry.snapshot_store().stats(),
        summary: [
            s.summaries.hits(),
            s.summaries.misses(),
            s.summaries.incremental_runs(),
        ],
        probe_cache: [s.probe_cache.hits(), s.probe_cache.misses()],
        ..Counters::default()
    }
}

fn delta(before: &Counters, after: &Counters) -> Counters {
    let (b, a) = (&before.snapshots, &after.snapshots);
    Counters {
        snapshots: SnapshotStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            captures: a.captures - b.captures,
            poisons: a.poisons - b.poisons,
            ineligible: a.ineligible - b.ineligible,
        },
        summary: [0, 1, 2].map(|i| after.summary[i] - before.summary[i]),
        probe_cache: [0, 1].map(|i| after.probe_cache[i] - before.probe_cache[i]),
        ..Counters::default()
    }
}

/// Run one retrim of a seeded app; returns whether every check passed.
pub fn retrim_one(
    m: &mut Measured,
    s: &Seeded,
    expected: &Expected,
    fresh_check: bool,
    counters: &mut Counters,
) -> bool {
    let before = cache_counters(s);
    let u = &s.update;
    let report = m.timed(&s.bench.name, || {
        retrim_with_log(
            &s.bench.registry,
            &u.app_source,
            &u.spec,
            &u.log,
            &s.options,
        )
    });
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAILED retrim {}: {e}", s.bench.name);
            return false;
        }
    };
    *counters = Counters {
        probes: report.oracle_invocations,
        dd_probes: report
            .modules
            .iter()
            .map(|m| m.dd_stats.oracle_invocations)
            .sum(),
        dd_cache_hits: report.modules.iter().map(|m| m.dd_stats.cache_hits).sum(),
        slicer_probes: report.slices.iter().map(|s| s.oracle_invocations).sum(),
        seeded_modules: report.seeded_modules as u64,
        cold_modules: report.cold_modules as u64,
        ..delta(&before, &cache_counters(s))
    };
    let key = format!("retrim {} {}", s.bench.name, s.kind);
    let mut ok = expected.check(&key, &retrim_outcome(&s.bench, &report));
    if fresh_check {
        ok &= behaves_fresh(
            &s.bench.registry,
            &report.trimmed,
            &u.app_source,
            &u.spec,
            &key,
        );
    }
    ok
}

/// `retrim-update`: per pass, set-up cold-trims every app with fresh
/// caches and applies one seeded update per app; the timed operation is
/// `retrim_with_log` on each app.
pub fn retrim_update(run: &Run) -> Measured {
    let mut m = Measured::default();
    let n_apps = (run.scale.apps)().len();
    let order = app_order(run.seed, n_apps);
    let mut prev: BTreeMap<String, Counters> = BTreeMap::new();
    m.passes(pass_count(run.seconds, RETRIM_UPDATE_PASS_S), |m, pass| {
        let start = Instant::now();
        let seeded: Vec<Option<Seeded>> = (run.scale.apps)()
            .into_iter()
            .map(|bench| {
                let kind = update_kind(run.seed, &bench.name);
                seed_app(bench, kind, run.expected)
            })
            .collect();
        m.setup_s.push(start.elapsed().as_secs_f64());
        let mut now = BTreeMap::new();
        for &i in &order {
            let Some(s) = &seeded[i] else {
                m.record(false);
                continue;
            };
            let mut c = Counters::default();
            let mut ok = retrim_one(m, s, run.expected, pass == 0, &mut c);
            ok &= repeats(&prev, &s.bench.name, &c);
            now.insert(s.bench.name.clone(), c);
            m.record(ok);
        }
        let total = order
            .iter()
            .filter_map(|&i| seeded[i].as_ref())
            .filter_map(|s| m.op_s.get(&s.bench.name)?.get(pass))
            .sum();
        m.layer("retrim", total);
        m.counters = Counters::total(now.values());
        prev = now;
    });
    m
}

/// A synthetic trace of `functions` functions over a 24 h window whose
/// demand peaks at `peak_hour`, at the `simulate` default seed.
pub fn trace_config(functions: usize, peak_hour: u64) -> TraceConfig {
    TraceConfig {
        functions,
        window_secs: 24.0 * 3600.0,
        seed: TRACE_SEED,
        diurnal: Some(DiurnalProfile {
            peak_hour: peak_hour as f64,
            ..DiurnalProfile::default()
        }),
    }
}

/// `expected.txt` keys and values of one replay, per pool variant
/// `(mode, keep-alive, invocations, cold starts, total cost)`.
fn replay_entries(
    path: &str,
    config: &TraceConfig,
    variants: impl Iterator<Item = (StartMode, f64, u64, u64, f64)>,
) -> Vec<(String, String)> {
    let hour = config.diurnal.map_or(0.0, |d| d.peak_hour);
    variants
        .map(|(mode, keep_alive, invocations, cold_starts, cost)| {
            let mode = match mode {
                StartMode::Standard => "standard",
                StartMode::Restore => "restore",
            };
            (
                format!("{path} {} {hour} {mode} {keep_alive:.0}", config.functions),
                replay_value(invocations, cold_starts, cost),
            )
        })
        .collect()
}

/// `expected.txt` entries of a streamed fleet replay.
pub fn stream_outcomes(config: &TraceConfig, r: &FleetReport) -> Vec<(String, String)> {
    let variants = r.variants.iter();
    replay_entries(
        "stream",
        config,
        variants.map(|v| {
            (
                v.mode,
                v.keep_alive_secs,
                v.invocations,
                v.cold_starts,
                v.total_cost(),
            )
        }),
    )
}

/// `expected.txt` entries of a materialized trace replay.
pub fn replay_outcomes(config: &TraceConfig, r: &ReplayReport) -> Vec<(String, String)> {
    let variants = r.variants.iter();
    replay_entries(
        "replay",
        config,
        variants.map(|v| {
            (
                v.mode,
                v.keep_alive_secs,
                v.invocations,
                v.cold_starts,
                v.total_cost(),
            )
        }),
    )
}

/// The streamed sweep: `replay_fleet` over the whole fleet.
fn stream_op(m: &mut Measured, run: &Run, fleet: &TraceConfig, arrivals: u64) -> bool {
    let report = m.timed(STREAM, || {
        replay_fleet(&Platform::default(), fleet, &ReplayOptions::default())
    });
    m.layer("replay_fleet", *m.op_s[STREAM].last().expect("timed above"));
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAILED replay_fleet: {e}");
            return false;
        }
    };
    m.op_invocations.insert(
        STREAM.to_owned(),
        report.invocations * report.variants.len() as u64,
    );
    let mut ok = report.invocations == arrivals;
    if !ok {
        eprintln!(
            "MISMATCH stream: replayed {} of {arrivals} arrivals",
            report.invocations
        );
    }
    for (key, value) in stream_outcomes(fleet, &report) {
        ok &= run.expected.check(&key, &value);
    }
    ok
}

/// The materialized replay: `generate_trace` then `replay_trace`.
fn replay_op(m: &mut Measured, run: &Run, small: &TraceConfig) -> bool {
    let mut generate_s = 0.0;
    let report = m.timed(REPLAY, || {
        let start = Instant::now();
        let trace = generate_trace(small);
        generate_s = start.elapsed().as_secs_f64();
        replay_trace(&Platform::default(), &trace, &ReplayOptions::default())
    });
    let total = *m.op_s[REPLAY].last().expect("timed above");
    m.layer("generate_trace", generate_s);
    m.layer("replay_trace", total - generate_s);
    let pool = report.variants.iter().map(|v| v.invocations).sum();
    m.op_invocations.insert(REPLAY.to_owned(), pool);
    replay_outcomes(small, &report)
        .iter()
        .fold(true, |ok, (key, value)| run.expected.check(key, value) & ok)
}

/// Operation names of `fleet-replay`.
pub const STREAM: &str = "replay_fleet";
/// See [`STREAM`].
pub const REPLAY: &str = "generate_trace+replay_trace";

/// `fleet-replay`: per pass, set-up synthesizes the fleet and drains every
/// function's arrival stream (the invocation count the sweep must
/// reproduce); the timed operations are one `replay_fleet` sweep of that
/// fleet and one `generate_trace` + `replay_trace` of a smaller trace. The
/// seed picks the hour at which both traces peak.
pub fn fleet_replay(run: &Run) -> Measured {
    let mut m = Measured::default();
    let hour = run.seed % PEAK_HOURS;
    let fleet = trace_config(run.scale.fleet_functions, hour);
    let small = trace_config(run.scale.trace_functions, hour);
    m.passes(pass_count(run.seconds, FLEET_REPLAY_PASS_S), |m, _| {
        let start = Instant::now();
        let arrivals: u64 = (0..fleet.functions)
            .map(|id| synthesize_function(&fleet, id).arrivals().count() as u64)
            .sum();
        let setup = start.elapsed().as_secs_f64();
        m.setup_s.push(setup);
        m.layer("synth", setup);
        let ok = stream_op(m, run, &fleet, arrivals);
        m.record(ok);
        let ok = replay_op(m, run, &small);
        m.record(ok);
    });
    m
}
