//! # trim-analysis — static analysis for pylite serverless applications
//!
//! The first stage of the λ-trim pipeline (§5.1): a PyCG-style
//! interprocedural, flow-insensitive analysis that computes which module
//! attributes an application **definitely accesses**. Those attributes are
//! excluded from Delta Debugging — they must be kept anyway, so not probing
//! them shrinks the search space (§6.3).
//!
//! The engine (`engine`) propagates *origin sets* (powerset lattice over
//! modules, module attributes, functions and container-literal sites, see
//! [`origin`]) through assignments, aliases, tuple/list/dict elements,
//! conditional joins, function returns and call-site parameters, to a
//! fixpoint:
//!
//! ```text
//! import torch.nn as nn         # nn ↦ {Module("torch.nn")}
//! from torch.optim import SGD   # SGD ↦ {Attr("torch.optim", "SGD")}
//! x = nn.Linear(2, 1)           # records torch.nn.Linear as accessed
//! opt = SGD(x)                  # records torch.optim.SGD as accessed
//! def pick(m):
//!     return m.zeros            # records numpy.zeros once pick(numpy) seen
//! pick(numpy)
//! ```
//!
//! In [`AnalysisMode::Interprocedural`] (the default) the top-level bodies
//! of imported registry modules are analyzed too — they execute at import
//! time — so re-export chains (`pkg/__init__` style `from pkg.core import
//! fast_path`) contribute **transitive** definitely-accessed attributes on
//! the submodules. [`AnalysisMode::AppOnly`] reproduces the seed analyzer's
//! scope (application code only) for comparison.
//!
//! [`analyze_full`] additionally returns the interprocedural
//! [`CallGraph`] and the debloat-soundness
//! [`lints`] (dynamic attribute access, star imports, module
//! rebinding, …) whose [`Hazard`](lints::Severity::Hazard) findings the
//! pipeline uses to route modules to the conservative fallback deployment
//! instead of DD-trimming them.

#![warn(missing_docs)]

pub mod callgraph;
mod engine;
pub mod lints;
pub mod origin;
pub mod slice;
pub mod spans;
pub mod summary;

use pylite::ast::Program;
use pylite::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use callgraph::CallGraph;
use lints::{HazardSet, Lint};

/// Which code the static analysis covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnalysisMode {
    /// Application code only (the seed analyzer's scope). Library modules
    /// are opaque: every `m.attr` read resolves to an unknown attribute.
    AppOnly,
    /// Application code plus the top-level bodies of every transitively
    /// imported registry module and the bodies of library functions that
    /// are possibly called. This is the default.
    #[default]
    Interprocedural,
}

/// Options for [`analyze_full`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Coverage mode.
    pub mode: AnalysisMode,
    /// Name of the application entry-point function (e.g. `"handler"`).
    /// Only affects [`CallGraph::reachable`]: when set, reachability is
    /// computed from the top-level plus this function; when `None`, every
    /// application function is a root.
    pub entry: Option<String>,
    /// Number of worker threads for the sharded fixpoint. `1` (the
    /// default) runs serially; any value produces bit-identical results.
    pub jobs: usize,
    /// Optional cross-run summary cache: identical `(app, registry)` runs
    /// are answered from cache, and registry edits trigger incremental
    /// re-analysis of the changed modules (plus any reader of a key they
    /// lost).
    pub summary_cache: Option<Arc<summary::SummaryCache>>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            mode: AnalysisMode::default(),
            entry: None,
            jobs: 1,
            summary_cache: None,
        }
    }
}

/// The result of statically analyzing an application.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Analysis {
    /// Every module the application imports, directly or via dotted paths
    /// (importing `torch.nn` contributes both `torch` and `torch.nn`).
    /// Interprocedural mode also includes modules imported by library code
    /// that runs at import time.
    pub imported_modules: BTreeSet<String>,
    /// Modules imported *directly by an import statement in the program*
    /// (the candidates handed to the profiler).
    pub direct_imports: BTreeSet<String>,
    /// Per-module set of attributes definitely accessed when the
    /// application loads and runs. These are excluded from the DD search
    /// (§5.1).
    pub accessed: BTreeMap<String, BTreeSet<String>>,
}

impl Analysis {
    /// Attributes definitely accessed on `module` (empty set if none).
    pub fn accessed_attrs(&self, module: &str) -> BTreeSet<String> {
        self.accessed.get(module).cloned().unwrap_or_default()
    }
}

/// The full output of the interprocedural analysis: the seed-compatible
/// [`Analysis`] plus the call graph and the lint findings.
#[derive(Debug, Clone, Default)]
pub struct FullAnalysis {
    /// Imports and definitely-accessed attributes.
    pub analysis: Analysis,
    /// The subset of [`Analysis::accessed`] recorded in code that runs at
    /// load time (application top-level and module top-levels). Handler-only
    /// accesses are excluded. This is the sound lower bound for comparing
    /// against a dynamic import-time profile.
    pub load_time_accessed: BTreeMap<String, BTreeSet<String>>,
    /// Top-level names bound by each analyzed registry module (its
    /// statically-known attribute surface).
    pub module_bindings: BTreeMap<String, BTreeSet<String>>,
    /// Lint findings, deduplicated and ordered.
    pub lints: Vec<Lint>,
    /// Registry modules implicated by a [`lints::Severity::Hazard`] finding.
    /// Equals the key set of [`FullAnalysis::hazard_attrs`]; kept for
    /// callers that only need the module-level view.
    pub hazard_modules: BTreeSet<String>,
    /// Per-module hazard bounds: for each hazardous module, the attribute
    /// names its hazard lints could dynamically touch
    /// ([`lints::HazardAttrs::Attrs`]) or ⊤ when unbounded within the
    /// module. The pipeline pins bounded attrs into DD's must-keep seed and
    /// only routes ⊤ modules to the conservative fallback deployment.
    pub hazard_attrs: HazardSet,
    /// The interprocedural call graph.
    pub call_graph: CallGraph,
    /// Display names of every function whose body the engine analyzed
    /// (app functions always; library functions only when possibly called).
    pub reached_functions: BTreeSet<String>,
}

/// Analyze an application program against the registry it will run in,
/// interprocedurally (library module top-levels and possibly-called library
/// functions included).
///
/// The registry is needed to distinguish `m.sub` (a submodule) from `m.attr`
/// (a plain attribute) when resolving dotted chains, and to obtain library
/// module sources.
pub fn analyze(program: &Program, registry: &Registry) -> Analysis {
    engine::run(program, registry, AnalysisMode::Interprocedural, None).analysis
}

/// Analyze application code only (the seed analyzer's scope). Used as the
/// baseline in probe-count comparisons and by third-party-tool baselines.
pub fn analyze_app_only(program: &Program, registry: &Registry) -> Analysis {
    engine::run(program, registry, AnalysisMode::AppOnly, None).analysis
}

/// Run the full analysis: accesses, call graph, lints and hazard routing.
pub fn analyze_full(
    program: &Program,
    registry: &Registry,
    options: &AnalysisOptions,
) -> FullAnalysis {
    Analyzer::new(program, options).full(registry)
}

/// One application analyzed against a changing registry, as the trim
/// loops do: the program is fingerprinted once for the summary cache, and
/// [`Analyzer::accessed_attrs`] answers the per-module must-keep question
/// without the whole-program merge.
#[derive(Debug)]
pub struct Analyzer<'a> {
    program: &'a Program,
    options: &'a AnalysisOptions,
    /// The summary-cache key (present iff the options carry a cache).
    key: Option<summary::SummaryKey>,
}

impl<'a> Analyzer<'a> {
    /// Prepare `program` for analysis under `options`.
    pub fn new(program: &'a Program, options: &'a AnalysisOptions) -> Analyzer<'a> {
        let key = options.summary_cache.as_ref().map(|_| summary::SummaryKey {
            app_fp: summary::app_fingerprint(program),
            mode: options.mode,
            entry: options.entry.clone(),
        });
        Analyzer {
            program,
            options,
            key,
        }
    }

    fn cache(&self) -> Option<(&summary::SummaryCache, &summary::SummaryKey)> {
        self.options.summary_cache.as_deref().zip(self.key.as_ref())
    }

    /// The full analysis against `registry` (what [`analyze_full`]
    /// returns).
    pub fn full(&self, registry: &Registry) -> FullAnalysis {
        let out = engine::run_with(
            self.program,
            registry,
            self.options.mode,
            self.options.entry.as_deref(),
            self.options.jobs,
            self.cache(),
        );
        FullAnalysis {
            analysis: out.analysis,
            load_time_accessed: out.load_time_accessed,
            module_bindings: out.module_bindings,
            lints: out.lints,
            hazard_modules: out.hazard_modules,
            hazard_attrs: out.hazard_attrs,
            call_graph: out.call_graph,
            reached_functions: out.reached_functions,
        }
    }

    /// Attributes of `module` the application definitely accesses against
    /// `registry`: equal to `self.full(registry).analysis.accessed_attrs(module)`,
    /// but read straight off the converged shards. Through a summary cache
    /// it shares cached runs with [`Analyzer::full`] and skips the
    /// whole-program merge (lints, hazard sets, call graph).
    pub fn accessed_attrs(&self, registry: &Registry, module: &str) -> BTreeSet<String> {
        engine::accessed_attrs(
            self.program,
            registry,
            self.options.mode,
            self.options.jobs,
            self.cache(),
            module,
        )
    }
}

/// Convenience: collect just the imported module names of a program
/// (the "single pass over the AST" of §5.1), including nested imports
/// inside functions and classes. The registry is consulted to resolve
/// `from pkg import sub` submodule imports, exactly like [`analyze`].
pub fn imported_modules(program: &Program, registry: &Registry) -> BTreeSet<String> {
    analyze_app_only(program, registry).imported_modules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CgNode;
    use crate::lints::{HazardAttrs, LintKind, Severity};
    use pylite::parse;

    fn registry_with(mods: &[&str]) -> Registry {
        let mut r = Registry::new();
        for m in mods {
            r.set_module(*m, "");
        }
        r
    }

    fn registry_src(mods: &[(&str, &str)]) -> Registry {
        let mut r = Registry::new();
        for (m, src) in mods {
            r.set_module(*m, *src);
        }
        r
    }

    fn full(app: &str, registry: &Registry) -> FullAnalysis {
        let p = parse(app).unwrap();
        analyze_full(&p, registry, &AnalysisOptions::default())
    }

    // -- seed behavior (must keep passing) -------------------------------

    #[test]
    fn collects_direct_and_transitive_imports() {
        let p = parse("import torch.nn\nimport numpy as np\nfrom boto3 import client\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch", "torch.nn", "numpy", "boto3"]));
        for m in ["torch", "torch.nn", "numpy", "boto3"] {
            assert!(a.imported_modules.contains(m), "missing {m}");
        }
        assert!(a.direct_imports.contains("torch.nn"));
        assert!(a.direct_imports.contains("numpy"));
    }

    #[test]
    fn records_attribute_accesses_on_modules() {
        let p = parse("import torch\nx = torch.tensor([1.0])\nz = torch.view(x, 2, 1)\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch"]));
        let attrs = a.accessed_attrs("torch");
        assert!(attrs.contains("tensor"));
        assert!(attrs.contains("view"));
        assert!(!attrs.contains("nn"));
    }

    #[test]
    fn resolves_dotted_submodule_chains() {
        let p = parse("import torch\nmodel = torch.nn.Linear(2, 1)\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch", "torch.nn"]));
        assert!(a.accessed_attrs("torch").contains("nn"));
        assert!(a.accessed_attrs("torch.nn").contains("Linear"));
    }

    #[test]
    fn tracks_import_aliases() {
        let p = parse("import torch.nn as nn\nlayer = nn.Linear(2, 1)\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch", "torch.nn"]));
        assert!(a.accessed_attrs("torch.nn").contains("Linear"));
    }

    #[test]
    fn from_import_unused_is_not_accessed() {
        // §6.2: `from torch.nn import Linear, MSELoss` where MSELoss is never
        // used — DD must be allowed to remove it, so it must NOT be marked
        // definitely-accessed. (This lazy rule applies to *application*
        // scope; inside library modules the import executes at load time,
        // see `library_from_imports_are_eager`.)
        let p = parse("from torch.nn import Linear, MSELoss\nx = Linear(2, 1)\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch", "torch.nn"]));
        let attrs = a.accessed_attrs("torch.nn");
        assert!(attrs.contains("Linear"));
        assert!(!attrs.contains("MSELoss"));
    }

    #[test]
    fn assignment_propagates_module_origin() {
        let p = parse("import numpy\nnp2 = numpy\ny = np2.zeros(4)\n").unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        assert!(a.accessed_attrs("numpy").contains("zeros"));
    }

    #[test]
    fn function_bodies_are_analyzed() {
        let p = parse(
            "import boto3\ndef handler(event, context):\n    c = boto3.client(\"s3\")\n    return c\n",
        )
        .unwrap();
        let a = analyze(&p, &registry_with(&["boto3"]));
        assert!(a.accessed_attrs("boto3").contains("client"));
    }

    #[test]
    fn nested_imports_inside_functions_are_found() {
        let p =
            parse("def handler(event, context):\n    import lazy_lib\n    return lazy_lib.go()\n")
                .unwrap();
        let a = analyze(&p, &registry_with(&["lazy_lib"]));
        assert!(a.imported_modules.contains("lazy_lib"));
        assert!(a.accessed_attrs("lazy_lib").contains("go"));
    }

    #[test]
    fn parameters_shadow_outer_bindings() {
        let p = parse(
            "import numpy\ndef f(numpy):\n    return numpy.inner_attr\ny = numpy.outer_attr\n",
        )
        .unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        let attrs = a.accessed_attrs("numpy");
        assert!(attrs.contains("outer_attr"));
        assert!(
            !attrs.contains("inner_attr"),
            "parameter shadows the module binding"
        );
    }

    #[test]
    fn from_import_of_submodule_binds_module_origin() {
        let p = parse("from torch import nn\nlayer = nn.Linear(2, 1)\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch", "torch.nn"]));
        assert!(a.imported_modules.contains("torch.nn"));
        assert!(a.accessed_attrs("torch.nn").contains("Linear"));
    }

    #[test]
    fn attribute_writes_count_as_access() {
        let p = parse("import cfg\ncfg.flag = 1\n").unwrap();
        let a = analyze(&p, &registry_with(&["cfg"]));
        assert!(a.accessed_attrs("cfg").contains("flag"));
    }

    #[test]
    fn imported_modules_helper() {
        let p = parse("import a, b.c\n").unwrap();
        let mods = imported_modules(&p, &Registry::new());
        assert!(mods.contains("a"));
        assert!(mods.contains("b"));
        assert!(mods.contains("b.c"));
    }

    #[test]
    fn imported_modules_helper_resolves_submodules_via_registry() {
        // The seed version of this helper consulted an *empty* registry, so
        // `from pkg import sub` never registered `pkg.sub` as imported.
        let p = parse("from pkg import sub\n").unwrap();
        let mods = imported_modules(&p, &registry_with(&["pkg", "pkg.sub"]));
        assert!(mods.contains("pkg.sub"));
    }

    // -- interprocedural engine ------------------------------------------

    #[test]
    fn return_values_propagate_module_origins() {
        let r = registry_src(&[
            (
                "toolbox",
                "import engine\ndef get_engine():\n    return engine\n",
            ),
            ("engine", ""),
        ]);
        let p = parse("import toolbox\ne = toolbox.get_engine()\nx = e.run()\n").unwrap();
        let a = analyze(&p, &r);
        assert!(a.accessed_attrs("toolbox").contains("get_engine"));
        assert!(
            a.accessed_attrs("engine").contains("run"),
            "module origin must flow through the library function's return"
        );
    }

    #[test]
    fn arguments_propagate_to_parameters() {
        let p = parse("import numpy\ndef use(m):\n    return m.zeros\nuse(numpy)\n").unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        assert!(
            a.accessed_attrs("numpy").contains("zeros"),
            "call-site argument must flow into the parameter"
        );
    }

    #[test]
    fn keyword_arguments_propagate_to_parameters() {
        let p = parse("import numpy\ndef use(m):\n    return m.ones\nuse(m=numpy)\n").unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        assert!(a.accessed_attrs("numpy").contains("ones"));
    }

    #[test]
    fn library_from_imports_are_eager() {
        // Figure 7's re-export pattern: pkg/__init__ does
        // `from pkg.core import fast_path`, which *executes* whenever pkg is
        // imported — fast_path is definitely accessed even if the app never
        // touches it.
        let r = registry_src(&[
            ("pkg", "from pkg.core import fast_path\n"),
            (
                "pkg.core",
                "def fast_path():\n    return 1\ndef slow_path():\n    return 2\n",
            ),
        ]);
        let p = parse("import pkg\n").unwrap();
        let a = analyze(&p, &r);
        let attrs = a.accessed_attrs("pkg.core");
        assert!(attrs.contains("fast_path"));
        assert!(!attrs.contains("slow_path"));
        // The seed-scope analysis sees none of this.
        let p2 = parse("import pkg\n").unwrap();
        let app_only = analyze_app_only(&p2, &r);
        assert!(app_only.accessed_attrs("pkg.core").is_empty());
    }

    #[test]
    fn reexport_reads_through_to_source_module() {
        let r = registry_src(&[
            ("pkg", "from pkg.core import fast_path\n"),
            ("pkg.core", "def fast_path():\n    return 1\n"),
        ]);
        let p = parse("import pkg\ny = pkg.fast_path()\n").unwrap();
        let a = analyze(&p, &r);
        assert!(a.accessed_attrs("pkg").contains("fast_path"));
        assert!(a.accessed_attrs("pkg.core").contains("fast_path"));
    }

    #[test]
    fn uncalled_library_function_bodies_stay_unanalyzed() {
        // Library code that never runs must not contribute accesses: marking
        // its dense self-references as definitely-accessed would force-keep
        // attributes DD could otherwise trim.
        let r = registry_src(&[
            (
                "libx",
                "import helper\ndef used():\n    return 1\ndef unused():\n    return helper.secret\n",
            ),
            ("helper", ""),
        ]);
        let p = parse("import libx\nv = libx.used()\n").unwrap();
        let a = analyze(&p, &r);
        assert!(
            !a.accessed_attrs("helper").contains("secret"),
            "body of a never-called library function must not be analyzed"
        );
        assert!(a.accessed_attrs("libx").contains("used"));
    }

    #[test]
    fn called_library_function_bodies_are_analyzed() {
        let r = registry_src(&[
            (
                "libx",
                "import helper\ndef go():\n    return helper.work()\n",
            ),
            ("helper", "def work():\n    return 3\n"),
        ]);
        let p = parse("import libx\nv = libx.go()\n").unwrap();
        let a = analyze(&p, &r);
        assert!(a.accessed_attrs("helper").contains("work"));
    }

    #[test]
    fn tuple_elements_propagate() {
        let p = parse(
            "import numpy\nimport jsonish\npair = (numpy, jsonish)\na, b = pair\nx = a.zeros\ny = b.dumps\n",
        )
        .unwrap();
        let a = analyze(&p, &registry_with(&["numpy", "jsonish"]));
        assert!(a.accessed_attrs("numpy").contains("zeros"));
        assert!(a.accessed_attrs("jsonish").contains("dumps"));
        assert!(!a.accessed_attrs("numpy").contains("dumps"));
    }

    #[test]
    fn list_indexing_propagates() {
        let p = parse("import numpy\nmods = [numpy]\nx = mods[0].ones\n").unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        assert!(a.accessed_attrs("numpy").contains("ones"));
    }

    #[test]
    fn dict_values_propagate_by_literal_key() {
        let p = parse(
            "import numpy\nimport jsonish\nd = {\"np\": numpy, \"js\": jsonish}\nx = d[\"np\"].zeros\n",
        )
        .unwrap();
        let a = analyze(&p, &registry_with(&["numpy", "jsonish"]));
        assert!(a.accessed_attrs("numpy").contains("zeros"));
        assert!(
            !a.accessed_attrs("jsonish").contains("zeros"),
            "a literal key selects only its own value"
        );
    }

    #[test]
    fn conditional_joins_both_branches() {
        let p = parse("import numpy\nimport jsonish\nm = numpy if flag else jsonish\nx = m.load\n")
            .unwrap();
        let a = analyze(&p, &registry_with(&["numpy", "jsonish"]));
        assert!(a.accessed_attrs("numpy").contains("load"));
        assert!(a.accessed_attrs("jsonish").contains("load"));
    }

    #[test]
    fn for_loop_elements_propagate() {
        let p = parse("import numpy\nfor m in [numpy]:\n    x = m.arange\n").unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        assert!(a.accessed_attrs("numpy").contains("arange"));
    }

    #[test]
    fn dotted_class_bases_are_resolved() {
        // Seed bug: `class Net(nn.Module)` looked up the literal name
        // "nn.Module" and never recorded the access.
        let p = parse("import torch.nn as nn\nclass Net(nn.Module):\n    pass\n").unwrap();
        let a = analyze(&p, &registry_with(&["torch", "torch.nn"]));
        assert!(a.accessed_attrs("torch.nn").contains("Module"));
    }

    // -- instance tracking ------------------------------------------------

    #[test]
    fn instance_method_calls_bind_arguments() {
        // Class → Instance → Method chain: `t.go(numpy)` must flow numpy
        // into the method's first non-self parameter.
        let p = parse(
            "import numpy\nclass T:\n    def go(self, m):\n        return m.zeros\nt = T()\nx = t.go(numpy)\n",
        )
        .unwrap();
        let a = analyze(&p, &registry_with(&["numpy"]));
        assert!(
            a.accessed_attrs("numpy").contains("zeros"),
            "argument must bind past the implicit self"
        );
    }

    #[test]
    fn library_class_methods_participate_in_reachability() {
        let r = registry_src(&[
            (
                "mlkit",
                "import helper\nclass Net:\n    def __init__(self, n):\n        self.n = n\n    def run(self, x):\n        return helper.work(x)\n",
            ),
            ("helper", "def work(x):\n    return x\n"),
        ]);
        let p = parse("import mlkit\nnet = mlkit.Net(3)\ny = net.run(2)\n").unwrap();
        let fa = analyze_full(&p, &r, &AnalysisOptions::default());
        assert!(
            fa.reached_functions.contains("mlkit::Net.run"),
            "called method bodies must be analyzed: {:?}",
            fa.reached_functions
        );
        assert!(
            fa.analysis.accessed_attrs("helper").contains("work"),
            "accesses inside a reached method must be recorded"
        );
    }

    #[test]
    fn uncalled_methods_stay_unanalyzed() {
        let r = registry_src(&[
            (
                "mlkit",
                "import helper\nclass Net:\n    def used(self):\n        return 1\n    def unused(self):\n        return helper.secret\n",
            ),
            ("helper", ""),
        ]);
        let p = parse("import mlkit\nnet = mlkit.Net()\ny = net.used()\n").unwrap();
        let a = analyze(&p, &r);
        assert!(
            !a.accessed_attrs("helper").contains("secret"),
            "body of a never-called method must not contribute accesses"
        );
    }

    #[test]
    fn interprocedural_accesses_superset_of_app_only() {
        let r = registry_src(&[
            ("pkg", "from pkg.core import fast_path\nimport pkg.util\n"),
            ("pkg.core", "def fast_path():\n    return 1\n"),
            ("pkg.util", "LIMIT = 10\n"),
        ]);
        let src = "import pkg\ndef handler(event, context):\n    return pkg.fast_path()\n";
        let inter = analyze(&parse(src).unwrap(), &r);
        let app = analyze_app_only(&parse(src).unwrap(), &r);
        for (m, attrs) in &app.accessed {
            for attr in attrs {
                assert!(
                    inter.accessed_attrs(m).contains(attr),
                    "interprocedural must subsume app-only ({m}.{attr})"
                );
            }
        }
    }

    // -- call graph -------------------------------------------------------

    #[test]
    fn call_graph_tracks_reachability() {
        let r = registry_src(&[("libx", "def go():\n    return 1\n")]);
        let p = parse(
            "import libx\ndef helper():\n    return libx.go()\ndef handler(event, context):\n    return helper()\n",
        )
        .unwrap();
        let fa = analyze_full(
            &p,
            &r,
            &AnalysisOptions {
                entry: Some("handler".to_owned()),
                ..AnalysisOptions::default()
            },
        );
        let cg = &fa.call_graph;
        assert!(cg.reachable.contains(&CgNode::AppFunc("handler".into())));
        assert!(cg.reachable.contains(&CgNode::AppFunc("helper".into())));
        assert!(cg
            .reachable
            .contains(&CgNode::LibFunc("libx".into(), "go".into())));
        assert!(cg.reachable.contains(&CgNode::ModuleTop("libx".into())));
        assert!(fa.reached_functions.contains("libx::go"));
    }

    #[test]
    fn import_edges_point_at_module_tops() {
        let r = registry_src(&[("pkg", "import pkg.core\n"), ("pkg.core", "")]);
        let fa = full("import pkg\n", &r);
        assert!(fa
            .call_graph
            .edges
            .contains(&(CgNode::AppTop, CgNode::ModuleTop("pkg".into()))));
        assert!(fa.call_graph.edges.contains(&(
            CgNode::ModuleTop("pkg".into()),
            CgNode::ModuleTop("pkg.core".into())
        )));
        // `pkg` importing its own submodule does not import `pkg` again.
        assert!(
            fa.call_graph.edges.iter().all(|(from, to)| from != to),
            "self-edge in {:?}",
            fa.call_graph.edges
        );
    }

    // -- lints ------------------------------------------------------------

    #[test]
    fn lints_unused_import() {
        let r = registry_with(&["numpy", "jsonish"]);
        let fa = full("import numpy\nimport jsonish\nx = numpy.zeros\n", &r);
        assert!(fa.lints.iter().any(|l| l.kind
            == LintKind::UnusedImport {
                module: "jsonish".into()
            }));
        assert!(!fa.lints.iter().any(|l| l.kind
            == LintKind::UnusedImport {
                module: "numpy".into()
            }));
    }

    #[test]
    fn lints_nonexistent_attribute() {
        let r = registry_src(&[("m", "alpha = 1\n")]);
        let fa = full("import m\nx = m.alpha\ny = m.beta\nm.gamma = 2\n", &r);
        assert!(fa.lints.iter().any(|l| l.kind
            == LintKind::NonexistentAttr {
                module: "m".into(),
                attr: "beta".into()
            }));
        // Writes define the attribute; reads of bound names are fine.
        for attr in ["alpha", "gamma"] {
            assert!(
                !fa.lints.iter().any(|l| l.kind
                    == LintKind::NonexistentAttr {
                        module: "m".into(),
                        attr: attr.into()
                    }),
                "{attr} must not be flagged"
            );
        }
    }

    #[test]
    fn literal_getattr_is_info_and_not_recorded() {
        let r = registry_src(&[("m", "alpha = 1\nrare = 2\n")]);
        let fa = full("import m\nx = m.alpha\nt = getattr(m, \"rare\")\n", &r);
        let lint = fa
            .lints
            .iter()
            .find(|l| {
                l.kind
                    == LintKind::DynamicAttrAccess {
                        module: Some("m".into()),
                        attr: "rare".into(),
                    }
            })
            .expect("literal getattr must be reported");
        assert_eq!(lint.severity, Severity::Info);
        // Deliberately not recorded: the runtime fallback serves it, and
        // resolving it would defeat rarely-used-attribute trimming.
        assert!(!fa.analysis.accessed_attrs("m").contains("rare"));
        assert!(fa.hazard_modules.is_empty());
    }

    #[test]
    fn opaque_getattr_is_a_hazard() {
        let r = registry_src(&[("m", "alpha = 1\n")]);
        let fa = full(
            "import m\ndef handler(event, context):\n    return getattr(m, event)\n",
            &r,
        );
        assert!(fa.lints.iter().any(|l| l.severity == Severity::Hazard
            && l.kind
                == LintKind::OpaqueAttrAccess {
                    module: Some("m".into()),
                    attrs: None,
                }));
        assert!(fa.hazard_modules.contains("m"));
        // A parameter-derived name is unbounded: the hazard is ⊤.
        assert!(fa.hazard_attrs.get("m").is_some_and(HazardAttrs::is_top));
    }

    #[test]
    fn bounded_getattr_pins_attrs_instead_of_top() {
        let r = registry_src(&[("m", "alpha = 1\nbeta = 2\ngamma = 3\n")]);
        let fa = full(
            "import m\ndef handler(event, context):\n    key = \"alpha\" if event else \"beta\"\n    return getattr(m, key)\n",
            &r,
        );
        let expected: BTreeSet<String> = ["alpha".to_owned(), "beta".to_owned()].into();
        assert!(fa.lints.iter().any(|l| l.severity == Severity::Hazard
            && l.kind
                == LintKind::OpaqueAttrAccess {
                    module: Some("m".into()),
                    attrs: Some(expected.clone()),
                }));
        assert_eq!(
            fa.hazard_attrs.get("m"),
            Some(&HazardAttrs::Attrs(expected)),
            "string-value analysis must bound the conditional to its two arms"
        );
    }

    #[test]
    fn loop_carried_getattr_names_are_bounded() {
        // The binding that feeds the getattr happens on the *previous* loop
        // iteration: a single in-order pass would miss "late"; the loop-body
        // fixpoint must not.
        let r = registry_src(&[("m", "early = 1\nlate = 2\n")]);
        let fa = full(
            "import m\ndef handler(event, context):\n    key = \"early\"\n    out = None\n    for i in [1, 2]:\n        out = getattr(m, key)\n        key = \"late\"\n    return out\n",
            &r,
        );
        let expected: BTreeSet<String> = ["early".to_owned(), "late".to_owned()].into();
        assert_eq!(
            fa.hazard_attrs.get("m"),
            Some(&HazardAttrs::Attrs(expected))
        );
    }

    #[test]
    fn star_import_is_a_hazard_and_binds_public_names() {
        let r = registry_src(&[("m", "alpha = 1\n_hidden = 2\n")]);
        let fa = full("from m import *\nx = alpha\n", &r);
        assert!(fa.lints.iter().any(|l| l.severity == Severity::Hazard
            && l.kind == LintKind::StarImport { module: "m".into() }));
        assert!(fa.hazard_modules.contains("m"));
        let attrs = fa.analysis.accessed_attrs("m");
        assert!(attrs.contains("alpha"));
        assert!(!attrs.contains("_hidden"));
        // The ⊤ bound of a star import narrows to the module's *public*
        // binding surface when it is known.
        assert_eq!(
            fa.hazard_attrs.get("m"),
            Some(&HazardAttrs::Attrs(["alpha".to_owned()].into()))
        );
    }

    #[test]
    fn module_rebinding_is_a_hazard() {
        let r = registry_with(&["m", "k"]);
        let fa = full("import m\nimport k\nm = k\nx = m.attr\n", &r);
        assert!(fa.lints.iter().any(|l| l.severity == Severity::Hazard
            && l.kind
                == LintKind::ModuleRebinding {
                    name: "m".into(),
                    module: "m".into(),
                    attrs: ["attr".to_owned()].into(),
                }));
        // The hazard is bounded to the attributes reachable post-rebind.
        assert_eq!(
            fa.hazard_attrs.get("m"),
            Some(&HazardAttrs::Attrs(["attr".to_owned()].into()))
        );
        // A plain alias is not a rebinding.
        let fa2 = full("import m\nm2 = m\nx = m2.attr\n", &r);
        assert!(!fa2
            .lints
            .iter()
            .any(|l| matches!(l.kind, LintKind::ModuleRebinding { .. })));
    }

    // -- load-time view ---------------------------------------------------

    #[test]
    fn load_time_accessed_excludes_handler_only_accesses() {
        let r = registry_with(&["numpy"]);
        let fa = full(
            "import numpy\nx = numpy.zeros\ndef handler(event, context):\n    return numpy.ones\n",
            &r,
        );
        let lt = fa
            .load_time_accessed
            .get("numpy")
            .cloned()
            .unwrap_or_default();
        assert!(lt.contains("zeros"));
        assert!(!lt.contains("ones"));
        assert!(fa.analysis.accessed_attrs("numpy").contains("ones"));
    }

    #[test]
    fn module_bindings_expose_attribute_surface() {
        let r = registry_src(&[("m", "alpha = 1\ndef go():\n    return 2\n")]);
        let fa = full("import m\n", &r);
        let b = fa.module_bindings.get("m").cloned().unwrap_or_default();
        assert!(b.contains("alpha"));
        assert!(b.contains("go"));
    }

    // -- sharded fixpoint: parallelism, caching, incrementality -----------

    fn chain_registry() -> Registry {
        registry_src(&[
            (
                "pkg",
                "from pkg.core import fast_path\nfrom pkg.extras import rare\nname = \"pkg\"\n",
            ),
            (
                "pkg.core",
                "import pkg.util\ndef fast_path(x):\n    return pkg.util.double(x)\ndef cold():\n    return 0\n",
            ),
            ("pkg.util", "def double(x):\n    return x * 2\n"),
            ("pkg.extras", "def rare():\n    return 1\n"),
            ("lone", "standalone = 7\n"),
        ])
    }

    const CHAIN_APP: &str =
        "import pkg\nimport lone\ndef handler(event, context):\n    return pkg.fast_path(event)\n";

    fn assert_same_full(a: &FullAnalysis, b: &FullAnalysis) {
        assert_eq!(a.analysis, b.analysis);
        assert_eq!(a.load_time_accessed, b.load_time_accessed);
        assert_eq!(a.module_bindings, b.module_bindings);
        assert_eq!(a.lints, b.lints);
        assert_eq!(a.hazard_modules, b.hazard_modules);
        assert_eq!(a.hazard_attrs, b.hazard_attrs);
        assert_eq!(a.call_graph, b.call_graph);
        assert_eq!(a.reached_functions, b.reached_functions);
    }

    #[test]
    fn parallel_jobs_are_bit_identical_to_serial() {
        let r = chain_registry();
        let p = parse(CHAIN_APP).unwrap();
        let run = |jobs| {
            analyze_full(
                &p,
                &r,
                &AnalysisOptions {
                    jobs,
                    ..AnalysisOptions::default()
                },
            )
        };
        let serial = run(1);
        for jobs in [2, 8] {
            assert_same_full(&serial, &run(jobs));
        }
    }

    #[test]
    fn summary_cache_answers_identical_rerun_without_refixpoint() {
        let r = chain_registry();
        let p = parse(CHAIN_APP).unwrap();
        let cache = summary::SummaryCache::shared();
        let opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        let first = analyze_full(&p, &r, &opts);
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        let second = analyze_full(&p, &r, &opts);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_same_full(&first, &second);
        // An unrelated-clone registry with identical content still hits:
        // the fingerprint and the interner family are what matter.
        let third = analyze_full(&p, &r.clone(), &opts);
        assert_eq!(cache.hits(), 2);
        assert_same_full(&first, &third);
    }

    #[test]
    fn incremental_reanalysis_matches_from_scratch_after_edit() {
        let p = parse(CHAIN_APP).unwrap();
        let cache = summary::SummaryCache::shared();
        let opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        let mut r = chain_registry();
        analyze_full(&p, &r, &opts); // prime the cache
                                     // Edit a leaf module: it re-runs, and readers only if they must.
        r.set_module("pkg.util", "def double(x):\n    return x + x\ntriple = 3\n");
        let incremental = analyze_full(&p, &r, &opts);
        assert_eq!(cache.incremental_runs(), 1);
        let scratch = analyze_full(&p, &r, &AnalysisOptions::default());
        assert_same_full(&scratch, &incremental);
    }

    #[test]
    fn incremental_rewalks_only_the_committed_module_when_read_keys_survive() {
        // A DD commit shrinks `m`'s surface, but the app reads only `m.a`,
        // which survives: the app shard stays clean and is not re-walked.
        let p = parse("import m\nx = m.a\n").unwrap();
        let cache = summary::SummaryCache::shared();
        let opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        let mut r = registry_src(&[("m", "a = 1\nb = 2\n")]);
        analyze_full(&p, &r, &opts);
        r.set_module("m", "a = 1\n");
        spans::enable();
        let incremental = analyze_full(&p, &r, &opts);
        let trace = spans::take();
        assert_eq!(cache.incremental_runs(), 1);
        let walked: Vec<Option<String>> = trace
            .iter()
            .filter(|s| s.phase == spans::Phase::Walk)
            .map(|s| s.shard.clone())
            .collect();
        assert!(!walked.is_empty());
        assert!(
            walked.iter().all(|s| s.as_deref() == Some("m")),
            "walked {walked:?}"
        );
        let scratch = analyze_full(&p, &r, &AnalysisOptions::default());
        assert_same_full(&scratch, &incremental);
        // The query answers from the same cached run, no merge needed.
        let query = Analyzer::new(&p, &opts);
        assert_eq!(
            query.accessed_attrs(&r, "m"),
            scratch.analysis.accessed_attrs("m")
        );
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn incremental_reanalysis_matches_from_scratch_after_remove() {
        let p = parse(CHAIN_APP).unwrap();
        let cache = summary::SummaryCache::shared();
        let opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        let mut r = chain_registry();
        analyze_full(&p, &r, &opts);
        r.remove_module("pkg.extras");
        let incremental = analyze_full(&p, &r, &opts);
        assert_eq!(cache.incremental_runs(), 1);
        let scratch = analyze_full(&p, &r, &AnalysisOptions::default());
        assert_same_full(&scratch, &incremental);
    }

    #[test]
    fn incremental_reanalysis_matches_from_scratch_after_add() {
        // The app star-imports nothing, but a new module can still matter:
        // `from m import sub` flips from attribute to submodule when
        // `m.sub` appears in the registry.
        let app = "from pkg import core\ndef handler(event, context):\n    return core\n";
        let p = parse(app).unwrap();
        let cache = summary::SummaryCache::shared();
        let opts = AnalysisOptions {
            summary_cache: Some(cache.clone()),
            ..AnalysisOptions::default()
        };
        let mut r = registry_src(&[("pkg", "core = 1\n")]);
        let before = analyze_full(&p, &r, &opts);
        assert!(!before.analysis.imported_modules.contains("pkg.core"));
        r.set_module("pkg.core", "ready = 1\n");
        let incremental = analyze_full(&p, &r, &opts);
        assert_eq!(cache.incremental_runs(), 1);
        assert!(incremental.analysis.imported_modules.contains("pkg.core"));
        let scratch = analyze_full(&p, &r, &AnalysisOptions::default());
        assert_same_full(&scratch, &incremental);
    }

    #[test]
    fn modules_nested_to_the_parser_limit_analyze_on_a_test_thread() {
        // pylite refuses nesting past a fixed depth. Whatever it accepts
        // must analyze, as an app and as a library module, on a 2 MB
        // stack: a debug test thread's.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let around = |n: usize, open: &str, close: &str| {
                    format!("x = {}1{}\n", open.repeat(n), close.repeat(n))
                };
                let n = (1..1000)
                    .take_while(|&n| parse(&around(n, "(", ")")).is_ok())
                    .last()
                    .unwrap();
                assert!(n < 999, "pylite has no nesting limit");
                for src in [
                    around(n, "(", ")"),
                    around(n, "[", "]"),
                    around(n, "{1: ", "}"),
                    "def f(a):\n    return a\n".to_owned() + &around(n, "f(", ")"),
                    around(n, "- ", ""),
                ] {
                    let registry = registry_src(&[("deep", &src)]);
                    let a = full(&format!("import deep\n{src}"), &registry);
                    assert!(a.analysis.imported_modules.contains("deep"));
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
