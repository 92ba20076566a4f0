//! Differential test pinning statement-level selective-init slicing to
//! unsliced execution.
//!
//! Slicing (`DebloatOptions::slice_init`, default on) drops init
//! statements that feed nothing a kept module's attribute surface needs.
//! The contract: slicing is unobservable except in init cost — handler
//! results, stdout, external calls, and the values of every kept
//! attribute must be byte-identical, and trim decisions (kept/removed
//! attribute sets) must not depend on whether slicing runs. This test
//! slices every module of the full 21-app corpus, runs mini-corpus trims
//! across `--jobs` ∈ {1, 2, 8}, and property-tests the static slice on
//! randomized init bodies.

use lambda_trim::pylite::{py_repr, Interpreter, Registry};
use lambda_trim::trim_core::oracle::{parse_literal, run_app};
use lambda_trim::trim_core::{module_attributes, slice_modules};
use lambda_trim::DebloatOptions;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Render an app's observable surface plus the values of every attribute
/// the registry's modules currently define. Unlike the memo differential,
/// whole-namespace comparison would be wrong here: a dropped `for` loop
/// legitimately removes its (non-attribute) loop variable from the module
/// namespace, so only kept-attribute bindings are compared.
fn capture_surface(registry: &Registry, app: &lambda_trim::trim_apps::BenchApp) -> String {
    let mut out = String::new();
    let mut it = Interpreter::new(registry.clone());
    let mut error: Option<String> = None;
    match it.exec_main(&app.app_source) {
        Ok(_) => {
            for case in &app.spec.cases {
                let event = parse_literal(&case.event).expect("literal event");
                let context = parse_literal(&case.context).expect("literal context");
                match it.call_handler(&app.spec.handler, event, context) {
                    Ok(v) => writeln!(out, "res| {}", py_repr(&v)).unwrap(),
                    Err(e) => {
                        error = Some(format!("{}: {}", e.kind.class_name(), e.message));
                        break;
                    }
                }
            }
            let interner = registry.interner().clone();
            for name in it.loaded_modules() {
                let Ok(program) = registry.parse_module(&name) else {
                    continue;
                };
                let module = it.module(&name).expect("loaded module");
                for attr in module_attributes(&program) {
                    let key = interner.intern(&attr);
                    let value = module
                        .ns
                        .get(key)
                        .map_or_else(|| "<unbound>".to_owned(), |v| py_repr(&v));
                    writeln!(out, "lib| {name}.{attr} = {value}").unwrap();
                }
            }
        }
        Err(e) => error = Some(format!("{}: {}", e.kind.class_name(), e.message)),
    }
    for line in &it.stdout {
        writeln!(out, "out| {line}").unwrap();
    }
    for call in &it.extcalls {
        writeln!(out, "ext| {call}").unwrap();
    }
    if let Some(e) = error {
        writeln!(out, "err| {e}").unwrap();
    }
    out
}

#[test]
fn sliced_modules_match_unsliced_on_full_corpus() {
    let mut total_removed = 0usize;
    for app in lambda_trim::trim_apps::corpus() {
        let expected = match run_app(&app.registry, &app.app_source, &app.spec) {
            Ok(e) => e,
            // Apps whose baseline errors have nothing to slice against.
            Err(_) => continue,
        };
        let unsliced = capture_surface(&app.registry, &app);
        let mut work = app.registry.clone();
        let candidates = work.module_names();
        let reports = slice_modules(
            &mut work,
            &app.app_source,
            &app.spec,
            &expected,
            &candidates,
            &BTreeSet::new(),
            &DebloatOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        total_removed += reports.iter().map(|r| r.stmts_removed()).sum::<usize>();
        for r in &reports {
            assert!(
                r.stmts_after <= r.stmts_before,
                "{}/{}: slice grew",
                app.name,
                r.module
            );
        }
        let sliced = capture_surface(&work, &app);
        assert_eq!(
            sliced, unsliced,
            "{}: slicing changed the observable surface",
            app.name
        );
    }
    assert!(
        total_removed > 0,
        "the corpus must exercise actual statement removal"
    );
}

/// Render a trim's DD outcome (jobs/slice-invariant) and its slice
/// outcome (identical across the slice-on grid).
fn capture_trim(
    app: &lambda_trim::trim_apps::BenchApp,
    jobs: usize,
    slice_init: bool,
) -> (String, String, f64) {
    let options = DebloatOptions {
        jobs,
        slice_init,
        ..DebloatOptions::default()
    };
    let report = lambda_trim::trim_app(&app.registry, &app.app_source, &app.spec, &options)
        .expect("trim succeeds");
    let mut dd = String::new();
    for m in &report.modules {
        writeln!(
            dd,
            "mod| {} kept=[{}] removed=[{}] probes={}",
            m.module,
            m.kept.join(","),
            m.removed.join(","),
            m.dd_stats.oracle_invocations
        )
        .unwrap();
    }
    for f in &report.fallback_modules {
        writeln!(dd, "fb | {f}").unwrap();
    }
    let mut slice = String::new();
    for s in &report.slices {
        writeln!(
            slice,
            "slc| {} kept={}/{} pinned={} refined={} fallback={}",
            s.module, s.stmts_after, s.stmts_before, s.pinned, s.refined, s.fell_back
        )
        .unwrap();
    }
    writeln!(
        slice,
        "sum| init {:.9}s mem {:.6}MB",
        report.after.init_secs, report.after.mem_mb
    )
    .unwrap();
    (dd, slice, report.after.init_secs)
}

#[test]
fn slice_on_trims_match_slice_off_dd_results_across_engines_and_jobs() {
    for app in lambda_trim::trim_apps::mini_corpus() {
        let (dd_off, _, init_off) = capture_trim(&app, 1, false);
        let mut slice_grid: Option<String> = None;
        for jobs in [1usize, 2, 8] {
            let (dd_on, slice_on, init_on) = capture_trim(&app, jobs, true);
            assert_eq!(
                dd_on, dd_off,
                "{} (jobs={jobs}): slicing changed DD results",
                app.name
            );
            assert!(
                init_on <= init_off,
                "{} (jobs={jobs}): slicing must never cost init time \
                 ({init_on} vs {init_off})",
                app.name
            );
            match &slice_grid {
                None => slice_grid = Some(slice_on),
                Some(first) => assert_eq!(
                    &slice_on, first,
                    "{} (jobs={jobs}): slice outcome varies across the grid",
                    app.name
                ),
            }
        }
    }
}

/// Randomized property: for straight-line-ish init bodies drawn from a
/// small grammar, the *static* slice (no oracle involved) already
/// preserves every seed attribute's value, stdout, and external calls —
/// i.e. slicing never drops a statement the oracle needs. The grammar
/// stays inside what the def-use analysis models exactly; the oracle
/// fallback in `slice_modules` covers everything beyond it.
#[cfg(feature = "property-tests")]
#[test]
fn random_init_bodies_slice_soundly() {
    use lambda_trim::trim_analysis::slice::{slice_init, sliced_program};
    use lambda_trim::trim_core::{OracleSpec, TestCase};
    use trim_rng::Rng;

    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let mut rng = Rng::seed_from_u64(0x51C3);
    let mut total_dropped = 0usize;
    for round in 0..150 {
        // Generate a module body where every name is defined before use.
        let mut defined: Vec<&str> = Vec::new();
        let mut src = String::new();
        let operand = |rng: &mut Rng, defined: &[&str]| -> String {
            if defined.is_empty() || rng.bool() {
                format!("{}", rng.usize_inclusive(0, 9))
            } else {
                defined[rng.usize_inclusive(0, defined.len() - 1)].to_owned()
            }
        };
        for i in 0..rng.usize_inclusive(4, 14) {
            match rng.usize_inclusive(0, 6) {
                0 | 1 => {
                    let target = NAMES[rng.usize_inclusive(0, NAMES.len() - 1)];
                    let lhs = operand(&mut rng, &defined);
                    let rhs = operand(&mut rng, &defined);
                    let op = if rng.bool() { "+" } else { "*" };
                    let _ = writeln!(src, "{target} = {lhs} {op} {rhs}");
                    if !defined.contains(&target) {
                        defined.push(target);
                    }
                }
                2 if !defined.is_empty() => {
                    let target = defined[rng.usize_inclusive(0, defined.len() - 1)];
                    let rhs = operand(&mut rng, &defined);
                    let _ = writeln!(src, "{target} += {rhs}");
                }
                3 if !defined.is_empty() => {
                    let x = defined[rng.usize_inclusive(0, defined.len() - 1)];
                    let _ = writeln!(src, "print({x})");
                }
                4 => {
                    let _ = writeln!(src, "__lt_work__({})", rng.usize_inclusive(1, 40));
                }
                5 if !defined.is_empty() => {
                    // A bounded loop rebinding an existing name; range is
                    // non-empty so the iteration variable always binds.
                    let target = defined[rng.usize_inclusive(0, defined.len() - 1)];
                    let _ = writeln!(
                        src,
                        "for it{i} in range({}):\n    {target} = {target} + it{i}",
                        rng.usize_inclusive(1, 3)
                    );
                }
                _ => {
                    let _ = writeln!(src, "__lt_extcall__(\"svc{}\")", rng.usize_inclusive(0, 3));
                }
            }
        }
        if defined.is_empty() {
            continue;
        }
        // Seed: a random subset of the defined names (possibly empty).
        let seed: BTreeSet<String> = defined
            .iter()
            .filter(|_| rng.bool())
            .map(|n| (*n).to_owned())
            .collect();
        let program = lambda_trim::pylite::parse(&src).expect("generated source parses");
        let slice = slice_init(&program, &seed, false);
        total_dropped += slice.total - slice.kept.len();
        let sliced_src = lambda_trim::pylite::unparse(&sliced_program(&program, &slice.kept));

        let reads = if seed.is_empty() {
            "0".to_owned()
        } else {
            format!(
                "[{}]",
                seed.iter()
                    .map(|n| format!("m.{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let app = format!("import m\ndef handler(event, context):\n    return {reads}\n");
        let spec = OracleSpec::new(vec![TestCase::event("{}")]);
        let mut live_reg = Registry::new();
        live_reg.set_module("m", src.clone());
        let mut sliced_reg = Registry::new();
        sliced_reg.set_module("m", sliced_src.clone());
        let live = run_app(&live_reg, &app, &spec)
            .unwrap_or_else(|e| panic!("round {round}: live run failed: {e:?}\n{src}"));
        let sliced = run_app(&sliced_reg, &app, &spec).unwrap_or_else(|e| {
            panic!("round {round}: sliced run failed: {e:?}\n{src}--\n{sliced_src}")
        });
        assert!(
            sliced.behavior_eq(&live),
            "round {round}: slice changed behavior\nseed: {seed:?}\n{src}--\n{sliced_src}"
        );
        assert!(
            sliced.init_secs <= live.init_secs,
            "round {round}: slice made init slower"
        );
    }
    assert!(total_dropped > 0, "the grammar must exercise real drops");
}
