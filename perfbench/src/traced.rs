//! The traced run of `trim-cold`: `trim_app` recomposed from its public
//! calls with a span around each one.
//!
//! [`traced_trim`] follows `trim_core::pipeline::trim_app` and
//! `trim_core::debloater::debloat_module` under `DebloatOptions::default()`
//! (one DD thread, ddmin, no probe cache) step by step, so that the time
//! inside each layer can be read off its spans. The DD oracle adds one
//! call the pipeline makes implicitly: `Registry::compile_module` on the
//! candidate before the run, which splits candidate materialization from
//! execution. Every traced report must equal `trim_app`'s report for the
//! same app; [`trim_cold_traced`] checks that.

use crate::workloads::{
    app_order, behaves_fresh, pass_count, repeats, trim_outcome, Counters, Measured, Run,
    TRACED_TRIM_PASS_S,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use trim_analysis::summary::SummaryCache;
use trim_analysis::{analyze_full, AnalysisOptions};
use trim_apps::BenchApp;
use trim_core::{
    module_attributes, rewrite_module, run_app_measured_opts, run_app_opts, slice_modules,
    trim_app, DebloatOptions, ModuleReport, TrimError, TrimReport,
};
use trim_dd::{ddmin_with, DdError, DdStats};
use trim_profiler::{profile_app, top_k};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// The trace (one app's trim) the span belongs to.
    pub trace: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An in-memory span recorder. Spans nest: a span begun while another is
/// open is its child.
pub struct Tracer {
    origin: Instant,
    trace: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start a new trace; later spans carry its identifier.
    pub fn next_trace(&mut self) -> u32 {
        self.trace += 1;
        self.trace
    }

    /// Open a span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end = self.origin.elapsed();
    }

    /// Wrap `f` in a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Per-name totals of `spans`: wall seconds and self seconds (wall minus
/// the time direct children cover).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.secs();
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_s) {
        let e = out.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += s.secs() - child;
    }
    out
}

/// What the spans of one traced trim add up to.
pub struct TracedTrim {
    /// The recomposed pipeline's report.
    pub report: TrimReport,
    /// Wall time of the whole traced trim, seconds.
    pub wall_s: f64,
    /// Counters read during the trim.
    pub counters: Counters,
}

/// `trim_app(registry, app, spec, &DebloatOptions::default())`, recomposed
/// from its public calls with a span around each.
pub fn traced_trim(bench: &BenchApp, tr: &mut Tracer) -> Result<TracedTrim, TrimError> {
    let start = Instant::now();
    let options = DebloatOptions::default();
    let (registry, app_source, spec) = (&bench.registry, bench.app_source.as_str(), &bench.spec);
    let (engine, snapshots) = (options.engine, options.init_snapshots);
    let mut dd_passes = 0u64;

    // 1. Baseline.
    let before = tr
        .span("baseline", || {
            run_app_opts(registry, app_source, spec, engine, snapshots)
        })
        .map_err(TrimError::Baseline)?;

    // 2. Whole-program analysis, sharing one summary cache with every
    //    must-keep recomputation below, as trim_app does.
    let summaries = SummaryCache::shared();
    let analysis_options = AnalysisOptions {
        mode: options.analysis,
        entry: None,
        jobs: options.jobs,
        summary_cache: Some(summaries.clone()),
    };
    let (program, full) = tr.span("analysis.initial", || {
        let program = pylite::parse(app_source).map_err(TrimError::Parse)?;
        let full = analyze_full(&program, registry, &analysis_options);
        for module in full.hazard_attrs.keys() {
            registry.snapshot_store().deny(module);
        }
        Ok::<_, TrimError>((program, full))
    })?;

    // 3. Profile and rank.
    let targets: Vec<String> = tr.span("profile", || {
        let profile = profile_app(app_source, registry).map_err(TrimError::Baseline)?;
        Ok::<_, TrimError>(
            top_k(&profile, options.scoring, options.k)
                .into_iter()
                .filter(|m| registry.contains(m))
                .collect(),
        )
    })?;

    // 4. Per module: must-keep re-analysis, DD, commit + verify.
    let mut work = registry.clone();
    let mut modules = Vec::with_capacity(targets.len());
    let mut fallback_modules = Vec::new();
    let mut pinned_hazard_attrs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for module in &targets {
        let pinned = match full.hazard_attrs.get(module).map(|b| b.attrs()) {
            None => None,
            Some(Some(attrs)) => Some(attrs.clone()),
            Some(None) => {
                fallback_modules.push(module.clone());
                continue;
            }
        };
        let mut must_keep = tr.span("analysis.must_keep", || {
            analyze_full(&program, &work, &analysis_options)
                .analysis
                .accessed_attrs(module)
        });
        if let Some(attrs) = pinned {
            must_keep.extend(attrs.iter().cloned());
            pinned_hazard_attrs.insert(module.clone(), attrs);
        }

        let dd = tr.begin("dd");
        let module_program = work.parse_module(module).map_err(TrimError::Parse)?;
        let attrs = module_attributes(&module_program);
        let (fixed, candidates): (Vec<String>, Vec<String>) =
            attrs.iter().cloned().partition(|a| must_keep.contains(a));
        let mut spent_nanos = 0u64;
        let dd_result = ddmin_with(
            &candidates,
            &mut |subset: &[String]| {
                let keep: BTreeSet<String> = fixed.iter().chain(subset.iter()).cloned().collect();
                let probe = tr.begin("probe");
                let rewritten = tr.span("probe.rewrite", || rewrite_module(&module_program, &keep));
                let source = tr.span("probe.unparse", || pylite::unparse(&rewritten));
                let candidate = tr.span("probe.overlay", || work.with_module(module, source));
                // A parse error surfaces again, as a failing run, below.
                let _ = tr.span("probe.compile", || candidate.compile_module(module));
                let (result, secs) = tr.span("probe.run", || {
                    run_app_measured_opts(&candidate, app_source, spec, engine, snapshots)
                });
                spent_nanos += (secs * 1e9) as u64;
                let verdict = tr.span(
                    "probe.compare",
                    || matches!(&result, Ok(actual) if actual.behavior_eq(&before)),
                );
                dd_passes += u64::from(verdict);
                tr.end(probe);
                verdict
            },
            options.dd,
        );
        tr.end(dd);
        let debloat_secs = spent_nanos as f64 / 1e9;

        let report = tr.span("commit", || match dd_result {
            Ok(result) => {
                let keep: BTreeSet<String> = fixed
                    .iter()
                    .chain(result.minimized.iter())
                    .cloned()
                    .collect();
                let original = work.source(module).expect("module has source").to_owned();
                work.set_module(
                    module,
                    pylite::unparse(&rewrite_module(&module_program, &keep)),
                );
                let (verify, verify_secs) =
                    run_app_measured_opts(&work, app_source, spec, engine, snapshots);
                let (kept, removed): (Vec<String>, Vec<String>) =
                    attrs.iter().cloned().partition(|a| keep.contains(a));
                let committed = matches!(&verify, Ok(actual) if actual.behavior_eq(&before));
                if !committed {
                    work.set_module(module, original);
                }
                ModuleReport {
                    module: module.clone(),
                    attrs_before: attrs.len(),
                    attrs_after: if committed { kept.len() } else { attrs.len() },
                    removed: if committed { removed } else { Vec::new() },
                    kept: if committed { kept } else { attrs.clone() },
                    dd_stats: result.stats,
                    debloat_secs: debloat_secs + verify_secs,
                }
            }
            Err(DdError::OracleRejectsWhole) => ModuleReport {
                module: module.clone(),
                attrs_before: attrs.len(),
                attrs_after: attrs.len(),
                removed: Vec::new(),
                kept: attrs.clone(),
                dd_stats: DdStats::default(),
                debloat_secs,
            },
        });
        modules.push(report);
    }

    // 5. Selective-init slicing.
    let slices = tr.span("slicer", || {
        let candidates: Vec<String> = modules.iter().map(|m| m.module.clone()).collect();
        let hazards: BTreeSet<String> = full.hazard_attrs.keys().cloned().collect();
        slice_modules(
            &mut work,
            app_source,
            spec,
            &before,
            &candidates,
            &hazards,
            &options,
        )
    })?;

    // 6. Final run.
    let after = tr
        .span("final", || {
            run_app_opts(&work, app_source, spec, engine, snapshots)
        })
        .map_err(TrimError::Baseline)?;

    let debloat_secs = modules.iter().map(|m| m.debloat_secs).sum::<f64>()
        + slices.iter().map(|s| s.slice_secs).sum::<f64>();
    let oracle_invocations = modules
        .iter()
        .map(|m| m.dd_stats.oracle_invocations)
        .sum::<u64>()
        + slices.iter().map(|s| s.oracle_invocations).sum::<u64>();
    let report = TrimReport {
        modules,
        before,
        after,
        trimmed: work,
        debloat_secs,
        oracle_invocations,
        lints: full.lints,
        fallback_modules,
        pinned_hazard_attrs,
        slices,
    };
    let counters = Counters {
        dd_passes,
        summary: [
            summaries.hits(),
            summaries.misses(),
            summaries.incremental_runs(),
        ],
        ..Counters::of_trim(&report, registry.snapshot_store().stats())
    };
    Ok(TracedTrim {
        report,
        wall_s: start.elapsed().as_secs_f64(),
        counters,
    })
}

/// Span names whose per-pass totals become per-layer metrics; `dd` is
/// reported as self time (DD minus its probes).
const LAYERS: [&str; 13] = [
    "baseline",
    "analysis.initial",
    "profile",
    "analysis.must_keep",
    "dd",
    "probe.rewrite",
    "probe.unparse",
    "probe.overlay",
    "probe.compile",
    "probe.run",
    "commit",
    "slicer",
    "final",
];

/// The traced run of `trim-cold`. Every pass traces a cold trim of each
/// app on a fresh registry; the first pass also runs untraced `trim_app`
/// on another fresh registry, requires an identical report, and compares
/// the wall times (tracing overhead). Later passes trace only, so the
/// retained-memory slope measures traced trims alone.
pub fn trim_cold_traced(run: &Run) -> Measured {
    let mut m = Measured::default();
    let n_apps = (run.scale.apps)().len();
    let order = app_order(run.seed, n_apps);
    let mut prev: BTreeMap<String, Counters> = BTreeMap::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    m.passes(pass_count(run.seconds, TRACED_TRIM_PASS_S), |m, pass| {
        let start = Instant::now();
        let apps = (run.scale.apps)();
        let twins = if pass == 0 {
            (run.scale.apps)()
        } else {
            Vec::new()
        };
        m.setup_s.push(start.elapsed().as_secs_f64());
        let mut tracer = Tracer::new();
        let mut now = BTreeMap::new();
        let mut coverage: Vec<(String, f64)> = Vec::new();
        for &i in &order {
            let bench = &apps[i];
            let untraced = twins.get(i).map(|twin| {
                let start = Instant::now();
                let report = trim_app(
                    &twin.registry,
                    &twin.app_source,
                    &twin.spec,
                    &DebloatOptions::default(),
                );
                (report, start.elapsed().as_secs_f64())
            });
            let trace = tracer.next_trace();
            let traced = match traced_trim(bench, &mut tracer) {
                Ok(traced) => traced,
                Err(e) => {
                    eprintln!("FAILED traced trim {}: {e}", bench.name);
                    m.record(false);
                    continue;
                }
            };
            let top: f64 = tracer
                .spans()
                .iter()
                .filter(|s| s.trace == trace && s.parent.is_none())
                .map(Span::secs)
                .sum();
            coverage.push((bench.name.clone(), top / traced.wall_s));
            let mut ok = run.expected.check(
                &format!("trim {}", bench.name),
                &trim_outcome(bench, &traced.report),
            );
            if let Some((untraced, secs)) = untraced {
                let same = matches!(&untraced, Ok(u) if *u == traced.report);
                if !same {
                    eprintln!(
                        "FIDELITY {}: traced report differs from trim_app's",
                        bench.name
                    );
                }
                ok &= same;
                ok &= behaves_fresh(
                    &bench.registry,
                    &traced.report.trimmed,
                    &bench.app_source,
                    &bench.spec,
                    &bench.name,
                );
                traced_s += traced.wall_s;
                untraced_s += secs;
            }
            m.op_s
                .entry(bench.name.clone())
                .or_default()
                .push(traced.wall_s);
            ok &= repeats(&prev, &bench.name, &traced.counters);
            now.insert(bench.name.clone(), traced.counters);
            m.record(ok);
        }
        let totals = totals(tracer.spans());
        for name in LAYERS {
            let (wall, own) = totals.get(name).copied().unwrap_or_default();
            m.layer(name, if name == "dd" { own } else { wall });
        }
        m.layer("trim", m.op_s.values().filter_map(|v| v.get(pass)).sum());
        if pass == 0 {
            println!("# span coverage per app (top-level spans / traced wall time):");
            for (app, c) in &coverage {
                println!("#   {app:<20} {:.4}", c);
            }
        }
        if let Some(lowest) = coverage.iter().map(|c| c.1).reduce(f64::min) {
            m.span_coverage = Some(m.span_coverage.map_or(lowest, |c| c.min(lowest)));
        }
        m.counters = Counters::total(now.values());
        prev = now;
    });
    if untraced_s > 0.0 {
        m.overhead_pct = Some((traced_s - untraced_s) / untraced_s * 100.0);
    }
    m
}
