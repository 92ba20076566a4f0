//! The oracle: run an application against its test cases and compare
//! observable behavior (§5.3).
//!
//! A λ-trim oracle specification is a set of inputs (each an `event` plus a
//! `context`) for which the debloated program must produce the same output
//! as the original. "Output" is the captured standard output, the handler's
//! return values, and the log of external-service calls — the serverless
//! side-effect surface §5.3 identifies (local side effects are ignorable
//! because instances are stateless).

use pylite::ast::Expr;
use pylite::{parse_expr, py_repr, Engine, ExcKind, Interpreter, PyErr, ReadSet, Registry, Value};
use std::sync::Arc;

/// One oracle test case: the JSON-like event and the invocation context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCase {
    /// pylite literal source for the `event` argument, e.g. `{"n": 3}`.
    pub event: String,
    /// pylite literal source for the `context` argument (default `None`).
    pub context: String,
}

impl TestCase {
    /// A test case with the given event literal and a `None` context.
    pub fn event(event: impl Into<String>) -> Self {
        TestCase {
            event: event.into(),
            context: "None".into(),
        }
    }
}

/// The oracle specification: handler name plus test cases (§5, "each test
/// must contain an event and a context").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleSpec {
    /// Name of the lambda handler bound at module top level.
    pub handler: String,
    /// The input test cases (the paper uses 1–3 per application).
    pub cases: Vec<TestCase>,
}

impl OracleSpec {
    /// Spec with the conventional handler name `handler`.
    pub fn new(cases: Vec<TestCase>) -> Self {
        OracleSpec {
            handler: "handler".into(),
            cases,
        }
    }
}

/// The observable behavior of one application run over all test cases,
/// plus the measurements every experiment consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Captured stdout lines (initialization + all handler calls).
    pub stdout: Vec<String>,
    /// External-service call log.
    pub extcalls: Vec<String>,
    /// `repr` of each handler return value, in case order.
    pub results: Vec<String>,
    /// Function Initialization time in virtual seconds.
    pub init_secs: f64,
    /// Mean handler execution time per case in virtual seconds.
    pub exec_secs: f64,
    /// Peak simulated memory in MB.
    pub mem_mb: f64,
}

impl Execution {
    /// Behavioral equivalence: same stdout, external calls and results.
    /// Timings and memory are *not* compared — they are what trimming is
    /// supposed to change.
    pub fn behavior_eq(&self, other: &Execution) -> bool {
        self.stdout == other.stdout
            && self.extcalls == other.extcalls
            && self.results == other.results
    }
}

/// Evaluate a literal expression (possibly nested containers) to a [`Value`].
///
/// # Errors
///
/// `TypeError` if the expression contains anything but literals.
pub fn eval_literal(e: &Expr) -> Result<Value, PyErr> {
    match e {
        Expr::None => Ok(Value::None),
        Expr::True => Ok(Value::Bool(true)),
        Expr::False => Ok(Value::Bool(false)),
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Float(v) => Ok(Value::Float(*v)),
        Expr::Str(s) => Ok(Value::str(s)),
        Expr::List(items) => Ok(Value::list(
            items.iter().map(eval_literal).collect::<Result<_, _>>()?,
        )),
        Expr::Tuple(items) => Ok(Value::tuple(
            items.iter().map(eval_literal).collect::<Result<_, _>>()?,
        )),
        Expr::Dict(pairs) => {
            let mut out = Vec::with_capacity(pairs.len());
            for (k, v) in pairs {
                out.push((eval_literal(k)?, eval_literal(v)?));
            }
            Ok(Value::dict(out))
        }
        Expr::Unary {
            op: pylite::ast::UnaryOp::Neg,
            operand,
        } => match eval_literal(operand)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(PyErr::type_error(format!(
                "cannot negate literal of type {}",
                other.type_name()
            ))),
        },
        _ => Err(PyErr::type_error(
            "oracle events must be literal expressions",
        )),
    }
}

/// Parse a literal source string to a [`Value`].
///
/// # Errors
///
/// `ValueError` on parse failure, `TypeError` on non-literal content.
pub fn parse_literal(source: &str) -> Result<Value, PyErr> {
    let e = parse_expr(source)
        .map_err(|err| PyErr::new(ExcKind::ValueError, format!("bad literal: {err}")))?;
    eval_literal(&e)
}

/// Run the application (initialization + every oracle case) in a fresh,
/// isolated interpreter and capture its observable behavior.
///
/// # Errors
///
/// Any pylite exception raised during initialization or by the handler.
pub fn run_app(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
) -> Result<Execution, PyErr> {
    run_app_measured(registry, app_source, spec).0
}

/// [`run_app`]. `engine` and `init_snapshots` are ignored: nothing reads
/// them; they stay until the benchmark change that deletes `Engine`
/// (ROADMAP direction 7) removes them.
///
/// # Errors
///
/// Any pylite exception raised during initialization or by the handler.
pub fn run_app_opts(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    _engine: Engine,
    _init_snapshots: bool,
) -> Result<Execution, PyErr> {
    run_app(registry, app_source, spec)
}

/// Like [`run_app`], but also returns the virtual time the probe consumed
/// regardless of success — the quantity the debloater accumulates into the
/// per-application "debloating time" of Table 3.
pub fn run_app_measured(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
) -> (Result<Execution, PyErr>, f64) {
    let run = run_oracle(registry, app_source, spec);
    (run.result, run.secs)
}

/// [`run_app_measured`]. `engine` and `init_snapshots` are ignored:
/// nothing reads them; they stay until the benchmark change that deletes
/// `Engine` (ROADMAP direction 7) removes them.
pub fn run_app_measured_opts(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    _engine: Engine,
    _init_snapshots: bool,
) -> (Result<Execution, PyErr>, f64) {
    run_app_measured(registry, app_source, spec)
}

/// One finished oracle run: its outcome, the virtual seconds it took
/// regardless of success, and the registry modules it read
/// ([`Interpreter::read_set`]).
pub(crate) struct OracleRun {
    pub(crate) result: Result<Execution, PyErr>,
    pub(crate) secs: f64,
    pub(crate) reads: ReadSet,
}

/// [`run_app_measured`] that also reports what the run read: the one
/// function every oracle run goes through, and the one [`oracle_runs`]
/// counts.
pub(crate) fn run_oracle(registry: &Registry, app_source: &str, spec: &OracleSpec) -> OracleRun {
    #[cfg(debug_assertions)]
    ORACLE_RUNS.with(|runs| runs.set(runs.get() + 1));
    fresh_run(registry, app_source, spec)
}

fn fresh_run(registry: &Registry, app_source: &str, spec: &OracleSpec) -> OracleRun {
    let mut interp = Interpreter::new(registry.clone());
    let result = run_app_inner(&mut interp, app_source, spec);
    OracleRun {
        result,
        secs: interp.meter.clock_secs(),
        reads: interp.read_set().clone(),
    }
}

#[cfg(debug_assertions)]
thread_local! {
    static ORACLE_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static ANSWERS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The number of oracle runs started on the calling thread (debug builds
/// only): every `run_app*` call and every baseline, probe, verify and
/// final run of a trim. Runs a run record answers (DESIGN.md §18) start
/// no interpreter and are not counted. A trim makes all its oracle runs on the calling
/// thread, so tests read the count around whole pipeline calls.
#[cfg(debug_assertions)]
pub fn oracle_runs() -> u64 {
    ORACLE_RUNS.with(std::cell::Cell::get)
}

/// The last passing oracle run over a registry: the registry it ran on,
/// its virtual seconds and the modules it read.
///
/// A run's outcome depends on the registry only through the contents of
/// the modules it read and through which names the registry holds. So a
/// record answers, with a pass and its own seconds, a run over any
/// registry that has its fingerprint, or that holds the same names and
/// differs from its registry only in one module the run never read
/// ([`RunRecord::answers`]).
#[derive(Debug, Clone)]
pub(crate) struct RunRecord {
    registry: Registry,
    secs: f64,
    reads: Arc<ReadSet>,
}

impl RunRecord {
    /// The record of a passing run over `registry`.
    pub(crate) fn new(registry: Registry, secs: f64, reads: ReadSet) -> RunRecord {
        RunRecord {
            registry,
            secs,
            reads: Arc::new(reads),
        }
    }

    /// The virtual seconds the run took.
    pub(crate) fn secs(&self) -> f64 {
        self.secs
    }

    /// Whether this run answers every run over `base` with `module`
    /// replaced: the run never read `module`, and its registry and `base`
    /// both hold `module` and agree on every other module.
    pub(crate) fn answers_probes(&self, base: &Registry, module: &str) -> bool {
        let read = self
            .registry
            .interner()
            .lookup(module)
            .is_some_and(|name| self.reads.contains(&name));
        let rest = without(&self.registry, module);
        !read && rest.is_some() && rest == without(base, module)
    }

    /// Whether this run answers a run over `registry`, which differs from
    /// the record's registry at most in `module`: the two have the same
    /// fingerprint, or [`answers_probes`](RunRecord::answers_probes) holds.
    pub(crate) fn answers(&self, registry: &Registry, module: &str) -> bool {
        self.registry.fingerprint() == registry.fingerprint()
            || self.answers_probes(registry, module)
    }

    /// This record as the record of the run over `registry`, which it
    /// [answers](RunRecord::answers).
    pub(crate) fn moved_to(self, registry: &Registry) -> RunRecord {
        RunRecord {
            registry: registry.clone(),
            ..self
        }
    }
}

/// `registry`'s fingerprint with `module`'s hash taken out, if it holds
/// `module` (the fingerprint is a wrapping sum of per-module hashes).
fn without(registry: &Registry, module: &str) -> Option<u64> {
    let hash = registry.module_fingerprint(module)?;
    Some(registry.fingerprint().wrapping_sub(hash))
}

/// Debug builds re-run every eighth answered run fresh on the calling
/// thread and assert that it passes in exactly the answered seconds.
/// `registry` builds the registry the answered run stood for; it is only
/// called for the sampled answers. Sampled runs are not counted in
/// [`oracle_runs`].
#[cfg(debug_assertions)]
pub(crate) fn check_answer(
    registry: impl FnOnce() -> Registry,
    app_source: &str,
    spec: &OracleSpec,
    expected: &Execution,
    secs: f64,
) {
    let answers = ANSWERS.with(|n| n.replace(n.get() + 1));
    if !answers.is_multiple_of(8) {
        return;
    }
    let run = fresh_run(&registry(), app_source, spec);
    let passes = matches!(&run.result, Ok(actual) if actual.behavior_eq(expected));
    assert!(
        passes && run.secs.to_bits() == secs.to_bits(),
        "an answered run must equal a fresh one: fresh run passes={passes} in {}s, answered {secs}s",
        run.secs
    );
}

fn run_app_inner(
    interp: &mut Interpreter,
    app_source: &str,
    spec: &OracleSpec,
) -> Result<Execution, PyErr> {
    interp.exec_main(app_source)?;
    let init_secs = interp.meter.clock_secs();
    let mut results = Vec::with_capacity(spec.cases.len());
    let exec_start = interp.meter.clock_secs();
    for case in &spec.cases {
        let event = parse_literal(&case.event)?;
        let context = parse_literal(&case.context)?;
        let out = interp.call_handler(&spec.handler, event, context)?;
        results.push(py_repr(&out));
    }
    let exec_total = interp.meter.clock_secs() - exec_start;
    let exec_secs = if spec.cases.is_empty() {
        0.0
    } else {
        exec_total / spec.cases.len() as f64
    };
    Ok(Execution {
        stdout: interp.stdout.clone(),
        extcalls: interp.extcalls.clone(),
        results,
        init_secs,
        exec_secs,
        mem_mb: interp.meter.mem_mb(),
    })
}

/// An oracle closure over (registry, app, spec, expected behavior): returns
/// `true` iff the app still runs and behaves identically.
pub fn oracle_passes(
    registry: &Registry,
    app_source: &str,
    spec: &OracleSpec,
    expected: &Execution,
) -> bool {
    match run_app(registry, app_source, spec) {
        Ok(actual) => actual.behavior_eq(expected),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        let mut r = Registry::new();
        r.set_module(
            "mathlib",
            "def double(x):\n    return x * 2\ndef unused():\n    return 999\n",
        );
        r
    }

    const APP: &str =
        "import mathlib\ndef handler(event, context):\n    return mathlib.double(event[\"n\"])\n";

    fn spec() -> OracleSpec {
        OracleSpec::new(vec![
            TestCase::event("{\"n\": 3}"),
            TestCase::event("{\"n\": -5}"),
        ])
    }

    #[test]
    fn run_app_captures_results_and_timing() {
        let e = run_app(&registry(), APP, &spec()).unwrap();
        assert_eq!(e.results, vec!["6", "-10"]);
        assert!(e.init_secs > 0.0);
        assert!(e.exec_secs > 0.0);
        assert!(e.mem_mb > 0.0);
    }

    #[test]
    fn behavior_eq_ignores_timing() {
        let a = run_app(&registry(), APP, &spec()).unwrap();
        let mut b = a.clone();
        b.init_secs = 999.0;
        b.mem_mb = 999.0;
        assert!(a.behavior_eq(&b));
    }

    #[test]
    fn behavior_eq_detects_result_changes() {
        let a = run_app(&registry(), APP, &spec()).unwrap();
        let mut b = a.clone();
        b.results[0] = "7".into();
        assert!(!a.behavior_eq(&b));
    }

    #[test]
    fn oracle_passes_on_equivalent_rewrite() {
        let expected = run_app(&registry(), APP, &spec()).unwrap();
        let mut trimmed = registry();
        trimmed.set_module("mathlib", "def double(x):\n    return x * 2\n");
        assert!(oracle_passes(&trimmed, APP, &spec(), &expected));
    }

    #[test]
    fn oracle_fails_on_behavior_change() {
        let expected = run_app(&registry(), APP, &spec()).unwrap();
        let mut broken = registry();
        broken.set_module("mathlib", "def double(x):\n    return x * 3\n");
        assert!(!oracle_passes(&broken, APP, &spec(), &expected));
    }

    #[test]
    fn oracle_fails_on_crash() {
        let expected = run_app(&registry(), APP, &spec()).unwrap();
        let mut broken = registry();
        broken.set_module("mathlib", "pass\n");
        assert!(!oracle_passes(&broken, APP, &spec(), &expected));
    }

    #[test]
    fn extcalls_are_part_of_behavior() {
        let mut r = Registry::new();
        r.set_module(
            "svc",
            "def put(x):\n    __lt_extcall__(\"s3\", \"put\", x)\n",
        );
        let app = "import svc\ndef handler(event, context):\n    svc.put(event)\n    return None\n";
        let spec = OracleSpec::new(vec![TestCase::event("\"payload\"")]);
        let expected = run_app(&r, app, &spec).unwrap();
        assert_eq!(expected.extcalls, vec!["s3:put:payload"]);
        let mut silent = r.clone();
        silent.set_module("svc", "def put(x):\n    pass\n");
        assert!(
            !oracle_passes(&silent, app, &spec, &expected),
            "dropping the external call must fail the oracle"
        );
    }

    #[test]
    fn literal_parsing_covers_containers() {
        let v = parse_literal("{\"a\": [1, 2.5, None], \"b\": (True, -3)}").unwrap();
        assert_eq!(py_repr(&v), "{\"a\": [1, 2.5, None], \"b\": (True, -3)}");
    }

    #[test]
    fn literal_rejects_calls() {
        assert!(parse_literal("f(1)").is_err());
        assert!(parse_literal("not a literal ][").is_err());
    }

    #[test]
    fn module_isolation_prevents_cache_pollution() {
        // §7 "Module isolation": measurements must come from a fresh
        // interpreter. A shared interpreter's sys.modules cache makes the
        // second run's import time collapse to ~zero — the exact bug the
        // paper's per-phase process spawning avoids.
        let r = registry();
        let a = run_app(&r, APP, &spec()).unwrap();
        let b = run_app(&r, APP, &spec()).unwrap();
        assert_eq!(a.init_secs, b.init_secs, "fresh runs measure identically");
        let mut shared = pylite::Interpreter::new(r.clone());
        shared.exec_main(APP).unwrap();
        let first = shared.meter.clock_secs();
        // Re-importing inside the same interpreter hits the module cache.
        let before = shared.meter.clock_secs();
        shared.import_module("mathlib").unwrap();
        let cached_cost = shared.meter.clock_secs() - before;
        assert!(
            cached_cost < first / 10.0,
            "cached import is nearly free — shared-interpreter profiling would be wrong"
        );
    }

    #[test]
    fn empty_case_list_is_valid() {
        let spec = OracleSpec::new(vec![]);
        let e = run_app(&registry(), APP, &spec).unwrap();
        assert!(e.results.is_empty());
        assert_eq!(e.exec_secs, 0.0);
    }
}
