//! The 21 benchmark applications of Table 1.
//!
//! Each application is generated from an `AppDef`: which libraries it
//! imports, how many of each library's attributes it actually touches
//! (calibrated to Table 3's removed/kept counts), its handler work
//! (Table 1's `Exec` column) and external-service calls. Every app also
//! carries the paper's reported numbers so harnesses can print
//! paper-vs-measured side by side.

use crate::libgen::{attr_is_function, attr_name, generate_library};
use crate::specs::library_spec;
use pylite::Registry;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use trim_core::oracle::{OracleSpec, TestCase};

/// The paper's reported measurements for an application (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Deployment size in MB.
    pub size_mb: f64,
    /// Function Initialization (Import) time in seconds.
    pub import_s: f64,
    /// Function Execution time in seconds.
    pub exec_s: f64,
    /// End-to-end cold-start latency in seconds.
    pub e2e_s: f64,
}

/// How an application uses one library.
#[derive(Debug, Clone, Copy)]
struct LibUse {
    /// Library name.
    lib: &'static str,
    /// Reached through an attribute of another imported library instead of
    /// a direct `import` (e.g. numpy via `squiggle.numpy`).
    via: Option<&'static str>,
    /// Number of `__init__` attributes referenced.
    used: usize,
    /// `(submodule, referenced attr count)` pairs, accessed as
    /// `lib.sub.attr` chains.
    sub_used: &'static [(&'static str, usize)],
}

/// Definition of one benchmark application.
struct AppDef {
    name: &'static str,
    libs: Vec<LibUse>,
    /// Handler execution work in milliseconds (Table 1 Exec).
    exec_ms: f64,
    /// External calls the handler makes, as `(service, operation)`.
    extcalls: &'static [(&'static str, &'static str)],
    paper: PaperRow,
    /// The Table 3 example module for this app.
    example_module: &'static str,
}

/// A fully generated benchmark application.
#[derive(Debug, Clone)]
pub struct BenchApp {
    /// Application name (Table 1).
    pub name: String,
    /// Virtual site-packages with every library the app (transitively) needs.
    pub registry: Registry,
    /// The application (handler) source.
    pub app_source: String,
    /// Oracle specification (1–3 cases, per §8's methodology).
    pub spec: OracleSpec,
    /// The paper's reported numbers.
    pub paper: PaperRow,
    /// The Table 3 example module.
    pub example_module: String,
    /// Deployment image size in MB (drives image-transmission latency).
    pub image_mb: f64,
    /// A `(library, attribute)` pair that exists in the original library,
    /// is reachable only through `getattr` on a rare input, and is expected
    /// to be trimmed — the Table 4 fallback trigger.
    pub rare: (String, String),
    /// The `(library, [attr_a, attr_b])` of the bounded dynamic-access path:
    /// the handler's `probe` op computes a *non-literal* getattr name that
    /// string-value analysis bounds to exactly these two attributes. Under
    /// blanket hazard routing the whole library falls back; per-attribute
    /// routing pins just these two and still trims the rest.
    pub probe: (String, [String; 2]),
}

impl BenchApp {
    /// The oracle test case that exercises the rare (fallback) path.
    pub fn rare_case(&self) -> TestCase {
        TestCase::event("{\"op\": \"diag\", \"n\": 1}")
    }

    /// A test case that exercises the bounded dynamic-access (`probe`) path.
    /// `deep` selects between the two statically-bounded attribute names.
    pub fn probe_case(&self, deep: bool) -> TestCase {
        if deep {
            TestCase::event("{\"op\": \"probe\", \"deep\": True, \"n\": 2}")
        } else {
            TestCase::event("{\"op\": \"probe\", \"n\": 2}")
        }
    }
}

fn used_indices(total: usize, count: usize) -> Vec<usize> {
    let count = count.min(total);
    if count == 0 {
        return Vec::new();
    }
    let mut out = BTreeSet::new();
    for j in 0..count {
        out.insert((j * total / count).min(total - 1));
    }
    // Fill forward if integer division collapsed any indices.
    let mut i = 0;
    while out.len() < count && i < total {
        out.insert(i);
        i += 1;
    }
    out.into_iter().collect()
}

fn lib_expr(u: &LibUse) -> String {
    match u.via {
        Some(parent) => format!("{parent}.{}", u.lib),
        None => u.lib.to_owned(),
    }
}

fn generate_app(def: &AppDef) -> BenchApp {
    // Build the registry: every used library plus its transitive deps.
    let mut registry = Registry::new();
    let mut pending: Vec<&'static str> = def.libs.iter().map(|u| u.lib).collect();
    let mut done: BTreeSet<&'static str> = BTreeSet::new();
    while let Some(lib) = pending.pop() {
        if !done.insert(lib) {
            continue;
        }
        let spec = library_spec(lib)
            .unwrap_or_else(|| panic!("app {} uses unknown library {lib}", def.name));
        pending.extend(spec.deps.iter().copied());
        generate_library(&spec, &mut registry);
    }

    let mut src = String::new();
    // Runtime baseline: interpreter + handler shim footprint (untouchable).
    let _ = writeln!(src, "__lt_work__(12)");
    let _ = writeln!(src, "__lt_alloc__(34)");
    for u in &def.libs {
        if u.via.is_none() {
            let _ = writeln!(src, "import {}", u.lib);
        }
    }
    // Initialization-time usage bindings: each referenced attribute is read
    // once at module top level (and therefore covered by the oracle).
    let mut result_call: Option<String> = None;
    for u in &def.libs {
        let spec = library_spec(u.lib).expect("spec exists");
        let expr = lib_expr(u);
        for (k, i) in used_indices(spec.init_attrs, u.used)
            .into_iter()
            .enumerate()
        {
            let attr = attr_name(spec.prefix, i);
            let _ = writeln!(src, "_u_{}_{k} = {expr}.{attr}", spec.prefix);
            if result_call.is_none() && attr_is_function(i) {
                result_call = Some(format!("{expr}.{attr}(n)"));
            }
        }
        for (sub_name, count) in u.sub_used {
            let sub = spec
                .subs
                .iter()
                .find(|s| s.name == *sub_name)
                .unwrap_or_else(|| panic!("{} has no submodule {sub_name}", u.lib));
            let sub_prefix = format!("{}_{}", spec.prefix, sub_name);
            for (k, i) in used_indices(sub.attrs, *count).into_iter().enumerate() {
                let attr = attr_name(&sub_prefix, i);
                let _ = writeln!(src, "_s_{sub_prefix}_{k} = {expr}.{sub_name}.{attr}");
            }
        }
    }

    // The rare (fallback) attribute: a function of the main library that is
    // referenced only through getattr on an input the oracle set does not
    // contain — static analysis cannot see it and DD will trim it (§5.4).
    let main_use = def
        .libs
        .iter()
        .find(|u| u.via.is_none())
        .expect("every app imports at least one library directly");
    let main_spec = library_spec(main_use.lib).expect("spec exists");
    let used: BTreeSet<usize> = used_indices(main_spec.init_attrs, main_use.used)
        .into_iter()
        .collect();
    // Prefer a callable (function or class); otherwise any unused attribute
    // works — the rare path returns it without calling.
    let rare_idx = (0..main_spec.init_attrs)
        .rev()
        .find(|i| i % 5 <= 1 && !used.contains(i))
        .or_else(|| (0..main_spec.init_attrs).rev().find(|i| !used.contains(i)))
        .unwrap_or_else(|| panic!("{}: every attribute of {} is used", def.name, main_use.lib));
    let rare_attr = attr_name(main_spec.prefix, rare_idx);
    let rare_is_callable = rare_idx % 5 <= 1;

    // The bounded dynamic-access pair: two function attributes reached only
    // through a *non-literal* getattr whose name the string-value analysis
    // bounds to exactly these two. Prefer attributes the oracle does not
    // otherwise use (so per-attribute hazard routing visibly pins them);
    // fall back to used ones for apps that touch nearly everything.
    let mut probe_candidates: Vec<String> = (0..main_spec.init_attrs)
        .filter(|i| i % 5 == 0 && *i != rare_idx && !used.contains(i))
        .map(|i| attr_name(main_spec.prefix, i))
        .collect();
    // Re-exported submodule functions are top-level bindings of the package
    // too — they carry thin libraries (e.g. skimage's 2 own attributes)
    // past the two-candidate requirement.
    for sub in &main_spec.subs {
        for i in (0..sub.reexports.min(sub.attrs)).filter(|i| i % 5 == 0) {
            probe_candidates.push(attr_name(&format!("{}_{}", main_spec.prefix, sub.name), i));
        }
    }
    probe_candidates.extend(
        (0..main_spec.init_attrs)
            .filter(|i| i % 5 == 0 && *i != rare_idx && used.contains(i))
            .map(|i| attr_name(main_spec.prefix, i)),
    );
    assert!(
        probe_candidates.len() >= 2,
        "{}: {} has no two probe functions",
        def.name,
        main_use.lib
    );
    let [probe_a, probe_b] = &probe_candidates[..2] else {
        unreachable!()
    };
    let probe_a = probe_a.clone();
    let probe_b = probe_b.clone();

    let _ = writeln!(src, "def handler(event, context):");
    let _ = writeln!(src, "    op = event.get(\"op\", \"run\")");
    let _ = writeln!(src, "    if op == \"diag\":");
    let _ = writeln!(
        src,
        "        tool = getattr({}, \"{rare_attr}\")",
        main_use.lib
    );
    if rare_is_callable {
        let _ = writeln!(src, "        return tool(event.get(\"n\", 1))");
    } else {
        let _ = writeln!(src, "        return tool");
    }
    let _ = writeln!(src, "    if op == \"probe\":");
    let _ = writeln!(
        src,
        "        key = \"{probe_a}\" if event.get(\"deep\") else \"{probe_b}\""
    );
    let _ = writeln!(src, "        fn = getattr({}, key)", main_use.lib);
    let _ = writeln!(src, "        return fn(event.get(\"n\", 1))");
    let _ = writeln!(src, "    __lt_work__({:.3})", def.exec_ms);
    for (service, op) in def.extcalls {
        let _ = writeln!(src, "    __lt_extcall__(\"{service}\", \"{op}\")");
    }
    let _ = writeln!(src, "    n = event.get(\"n\", 1)");
    match &result_call {
        Some(call) => {
            let _ = writeln!(src, "    return {call}");
        }
        None => {
            let _ = writeln!(src, "    return n");
        }
    }

    let spec = OracleSpec::new(vec![
        TestCase::event("{\"n\": 3}"),
        TestCase::event("{\"n\": 11}"),
    ]);
    BenchApp {
        name: def.name.to_owned(),
        registry,
        app_source: src,
        spec,
        paper: def.paper,
        example_module: def.example_module.to_owned(),
        image_mb: def.paper.size_mb,
        rare: (main_use.lib.to_owned(), rare_attr),
        probe: (main_use.lib.to_owned(), [probe_a, probe_b]),
    }
}

fn defs() -> Vec<AppDef> {
    let row = |size_mb, import_s, exec_s, e2e_s| PaperRow {
        size_mb,
        import_s,
        exec_s,
        e2e_s,
    };
    vec![
        // ---- From FaaSLight ------------------------------------------
        AppDef {
            name: "huggingface",
            libs: vec![
                LibUse {
                    lib: "transformers",
                    via: None,
                    used: 6,
                    sub_used: &[("models", 3)],
                },
                // transformers needs nearly all of torch at import time, so
                // the app's effective torch usage is close to total — this is
                // why huggingface's import only improves ~10% (Table 2) while
                // resnet's torch trims down to 108 attributes (Table 3).
                LibUse {
                    lib: "torch",
                    via: None,
                    used: 1250,
                    sub_used: &[
                        ("nn", 60),
                        ("optim", 20),
                        ("cuda", 12),
                        ("autograd", 15),
                        ("jit", 10),
                        ("utils", 15),
                    ],
                },
            ],
            exec_ms: 860.0,
            extcalls: &[],
            paper: row(799.38, 5.52, 0.86, 10.12),
            example_module: "transformers",
        },
        AppDef {
            name: "image-resize",
            libs: vec![
                // Thin wrappers around ImageMagick + the AWS SDK: nearly all
                // of both libraries is exercised, so trimming buys almost
                // nothing (Fig. 8 shows ~no benefit for this app).
                LibUse {
                    lib: "wand",
                    via: None,
                    used: 36,
                    sub_used: &[("image", 60), ("api", 10)],
                },
                LibUse {
                    lib: "boto3",
                    via: None,
                    used: 60,
                    sub_used: &[("client", 25), ("session", 10)],
                },
            ],
            exec_ms: 950.0,
            extcalls: &[
                ("s3", "get_object"),
                ("imagemagick", "resize"),
                ("s3", "put_object"),
            ],
            paper: row(102.05, 0.42, 0.95, 1.88),
            example_module: "wand.image",
        },
        AppDef {
            name: "lightgbm",
            libs: vec![
                LibUse {
                    lib: "lightgbm",
                    via: None,
                    used: 8,
                    sub_used: &[("basic", 3)],
                },
                LibUse {
                    lib: "numpy",
                    via: None,
                    used: 35,
                    sub_used: &[],
                },
            ],
            exec_ms: 40.0,
            extcalls: &[],
            paper: row(120.22, 0.57, 0.04, 1.14),
            example_module: "lightgbm",
        },
        AppDef {
            name: "lxml",
            libs: vec![
                LibUse {
                    lib: "requests",
                    via: None,
                    used: 12,
                    sub_used: &[("models", 2)],
                },
                LibUse {
                    lib: "lxml",
                    via: None,
                    used: 20,
                    sub_used: &[("html", 25)],
                },
            ],
            exec_ms: 390.0,
            extcalls: &[("http", "get")],
            paper: row(58.01, 0.24, 0.39, 1.12),
            example_module: "lxml.html",
        },
        AppDef {
            name: "scikit",
            libs: vec![
                LibUse {
                    lib: "sklearn",
                    via: None,
                    used: 120,
                    sub_used: &[("linear_model", 30), ("metrics", 20)],
                },
                LibUse {
                    lib: "joblib",
                    via: Some("sklearn"),
                    used: 15,
                    sub_used: &[],
                },
            ],
            exec_ms: 10.0,
            extcalls: &[],
            paper: row(177.01, 0.30, 0.01, 1.93),
            example_module: "joblib",
        },
        AppDef {
            name: "skimage",
            libs: vec![LibUse {
                lib: "skimage",
                via: None,
                used: 1,
                sub_used: &[
                    ("filters", 30),
                    ("color", 20),
                    ("transform", 25),
                    ("io", 10),
                ],
            }],
            exec_ms: 100.0,
            extcalls: &[],
            paper: row(155.37, 1.87, 0.10, 2.76),
            example_module: "skimage",
        },
        AppDef {
            name: "tensorflow",
            libs: vec![
                LibUse {
                    lib: "tensorflow",
                    via: None,
                    used: 35,
                    sub_used: &[("keras", 30), ("ops", 25), ("data", 10), ("io", 8)],
                },
                LibUse {
                    lib: "numpy",
                    via: None,
                    used: 20,
                    sub_used: &[],
                },
            ],
            exec_ms: 40.0,
            extcalls: &[],
            paper: row(586.13, 4.53, 0.04, 5.33),
            example_module: "tensorflow",
        },
        AppDef {
            name: "wine",
            libs: vec![
                LibUse {
                    lib: "numpy",
                    via: None,
                    used: 450,
                    sub_used: &[("linalg", 30), ("random", 20)],
                },
                LibUse {
                    lib: "pandas",
                    via: None,
                    used: 40,
                    sub_used: &[("core", 8)],
                },
                LibUse {
                    lib: "sklearn",
                    via: None,
                    used: 30,
                    sub_used: &[("ensemble", 6)],
                },
                LibUse {
                    lib: "boto3",
                    via: None,
                    used: 10,
                    sub_used: &[("client", 2)],
                },
            ],
            exec_ms: 290.0,
            extcalls: &[("s3", "put_object")],
            paper: row(271.01, 1.96, 0.29, 2.81),
            example_module: "numpy",
        },
        // ---- From RainbowCake ----------------------------------------
        AppDef {
            name: "dna-visualization",
            libs: vec![
                LibUse {
                    lib: "squiggle",
                    via: None,
                    used: 10,
                    sub_used: &[("plot", 4)],
                },
                LibUse {
                    lib: "numpy",
                    via: Some("squiggle"),
                    used: 30,
                    sub_used: &[],
                },
            ],
            exec_ms: 20.0,
            extcalls: &[],
            paper: row(57.01, 0.18, 0.02, 0.72),
            example_module: "numpy",
        },
        AppDef {
            name: "ffmpeg",
            libs: vec![LibUse {
                lib: "ffmpeg",
                via: None,
                used: 8,
                sub_used: &[("probe", 2)],
            }],
            exec_ms: 2500.0,
            extcalls: &[("ffmpeg", "transcode")],
            paper: row(297.00, 0.06, 2.50, 3.07),
            example_module: "ffmpeg",
        },
        AppDef {
            name: "igraph",
            libs: vec![LibUse {
                lib: "igraph",
                via: None,
                used: 40,
                sub_used: &[("drawing", 5)],
            }],
            exec_ms: 10.0,
            extcalls: &[],
            paper: row(40.00, 0.09, 0.01, 0.59),
            example_module: "igraph",
        },
        AppDef {
            name: "markdown",
            libs: vec![LibUse {
                lib: "markdown",
                via: None,
                used: 10,
                sub_used: &[],
            }],
            exec_ms: 30.0,
            extcalls: &[],
            paper: row(32.21, 0.04, 0.03, 0.54),
            example_module: "markdown",
        },
        AppDef {
            name: "resnet",
            libs: vec![
                LibUse {
                    lib: "torch",
                    via: None,
                    used: 70,
                    sub_used: &[("nn", 20), ("utils", 5)],
                },
                LibUse {
                    lib: "numpy",
                    via: None,
                    used: 40,
                    sub_used: &[],
                },
                LibUse {
                    lib: "PIL",
                    via: None,
                    used: 10,
                    sub_used: &[("image", 8)],
                },
            ],
            exec_ms: 5300.0,
            extcalls: &[],
            paper: row(742.56, 6.30, 5.30, 11.71),
            example_module: "torch",
        },
        AppDef {
            name: "textblob",
            libs: vec![
                LibUse {
                    lib: "textblob",
                    via: None,
                    used: 25,
                    sub_used: &[("en", 5)],
                },
                LibUse {
                    lib: "nltk",
                    via: Some("textblob"),
                    used: 6,
                    sub_used: &[],
                },
            ],
            exec_ms: 380.0,
            extcalls: &[],
            paper: row(104.00, 0.42, 0.38, 1.28),
            example_module: "nltk",
        },
        // ---- New applications ----------------------------------------
        AppDef {
            name: "chdb-olap",
            libs: vec![LibUse {
                lib: "chdb",
                via: None,
                used: 15,
                sub_used: &[("engine", 4), ("session", 2)],
            }],
            exec_ms: 80.0,
            extcalls: &[],
            paper: row(293.64, 1.01, 0.08, 1.77),
            example_module: "chdb",
        },
        AppDef {
            name: "epub-pdf",
            libs: vec![
                LibUse {
                    lib: "reportlab",
                    via: None,
                    used: 20,
                    sub_used: &[("pdfgen", 5)],
                },
                LibUse {
                    lib: "pptx",
                    via: None,
                    used: 12,
                    sub_used: &[("util", 3)],
                },
                LibUse {
                    lib: "docx",
                    via: None,
                    used: 10,
                    sub_used: &[("oxml", 3)],
                },
                LibUse {
                    lib: "boto3",
                    via: None,
                    used: 8,
                    sub_used: &[("client", 2)],
                },
            ],
            exec_ms: 1430.0,
            extcalls: &[("s3", "get_object"), ("s3", "put_object")],
            paper: row(143.68, 0.62, 1.43, 2.54),
            example_module: "pptx",
        },
        AppDef {
            name: "jsym",
            libs: vec![LibUse {
                lib: "sympy",
                via: None,
                used: 18,
                sub_used: &[("core", 4)],
            }],
            exec_ms: 310.0,
            extcalls: &[],
            paper: row(83.01, 0.56, 0.31, 1.36),
            example_module: "sympy",
        },
        AppDef {
            name: "pandas",
            libs: vec![
                LibUse {
                    lib: "numpy",
                    via: None,
                    used: 30,
                    sub_used: &[],
                },
                LibUse {
                    lib: "pandas",
                    via: None,
                    used: 10,
                    sub_used: &[("core", 3)],
                },
            ],
            exec_ms: 10.0,
            extcalls: &[],
            paper: row(114.27, 0.67, 0.01, 1.19),
            example_module: "pandas",
        },
        AppDef {
            name: "qiskit-nature",
            libs: vec![
                LibUse {
                    lib: "qiskit_nature",
                    via: None,
                    used: 15,
                    sub_used: &[("drivers", 3)],
                },
                LibUse {
                    lib: "qiskit",
                    via: Some("qiskit_nature"),
                    used: 8,
                    sub_used: &[],
                },
            ],
            exec_ms: 490.0,
            extcalls: &[],
            paper: row(281.15, 1.96, 0.49, 3.05),
            example_module: "qiskit",
        },
        AppDef {
            name: "shapely-numpy",
            libs: vec![
                LibUse {
                    lib: "numpy",
                    via: None,
                    used: 25,
                    sub_used: &[],
                },
                LibUse {
                    lib: "shapely",
                    via: None,
                    used: 10,
                    sub_used: &[("geometry", 3)],
                },
            ],
            exec_ms: 10.0,
            extcalls: &[],
            paper: row(58.42, 0.20, 0.01, 0.71),
            example_module: "shapely",
        },
        AppDef {
            name: "spacy",
            libs: vec![
                LibUse {
                    lib: "spacy",
                    via: None,
                    used: 15,
                    sub_used: &[("lang", 4), ("tokens", 3)],
                },
                LibUse {
                    lib: "boto3",
                    via: None,
                    used: 8,
                    sub_used: &[("client", 2)],
                },
            ],
            exec_ms: 20.0,
            extcalls: &[("s3", "get_object")],
            paper: row(202.00, 2.06, 0.02, 2.60),
            example_module: "spacy",
        },
    ]
}

/// Generate the full 21-application corpus (Table 1 order).
pub fn corpus() -> Vec<BenchApp> {
    defs().iter().map(generate_app).collect()
}

/// Generate a single application by name.
pub fn app(name: &str) -> Option<BenchApp> {
    defs().iter().find(|d| d.name == name).map(generate_app)
}

/// Names of all corpus applications (Table 1 order).
pub fn app_names() -> Vec<String> {
    defs().iter().map(|d| d.name.to_owned()).collect()
}

/// A small three-app slice (fast enough for debug-mode tests):
/// markdown, igraph and dna-visualization.
pub fn mini_corpus() -> Vec<BenchApp> {
    ["markdown", "igraph", "dna-visualization"]
        .iter()
        .map(|n| app(n).expect("mini corpus app exists"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trim_core::oracle::run_app;

    #[test]
    fn corpus_has_21_apps() {
        assert_eq!(corpus().len(), 21);
        assert_eq!(app_names().len(), 21);
    }

    #[test]
    fn every_app_runs_and_passes_its_oracle() {
        for bench in corpus() {
            let result = run_app(&bench.registry, &bench.app_source, &bench.spec);
            let exec = result.unwrap_or_else(|e| panic!("{} failed: {e}", bench.name));
            assert_eq!(exec.results.len(), 2, "{}: two oracle cases", bench.name);
        }
    }

    #[test]
    fn measured_import_time_tracks_table1() {
        // Shape check: measured init within a factor of 2 of the paper's
        // Import column (exact matching is impossible with shared library
        // specs; EXPERIMENTS.md records the deltas).
        for bench in corpus() {
            let exec = run_app(&bench.registry, &bench.app_source, &bench.spec).unwrap();
            let paper = bench.paper.import_s;
            let measured = exec.init_secs;
            // scikit is the one structural outlier: the paper reports
            // 0.30 s for sklearn alone but 1.96 s for wine's sklearn+numpy+
            // pandas+boto3 — mutually inconsistent with shared library
            // costs. A factor-3 band accommodates it.
            assert!(
                measured > paper / 3.0 && measured < paper * 3.0,
                "{}: measured import {measured:.2}s vs paper {paper:.2}s",
                bench.name
            );
        }
    }

    #[test]
    fn import_order_shape_matches_paper() {
        // The heavy ML apps must dwarf the tiny ones.
        let get = |name: &str| {
            let b = app(name).unwrap();
            run_app(&b.registry, &b.app_source, &b.spec)
                .unwrap()
                .init_secs
        };
        let resnet = get("resnet");
        let markdown = get("markdown");
        let igraph = get("igraph");
        assert!(resnet > 20.0 * markdown);
        assert!(resnet > 10.0 * igraph);
    }

    #[test]
    fn rare_attribute_exists_and_is_unused_by_oracle() {
        for bench in mini_corpus() {
            let (lib, attr) = &bench.rare;
            let program = bench.registry.parse_module(lib).unwrap();
            let attrs = trim_core::module_attributes(&program);
            assert!(
                attrs.contains(attr),
                "{}: rare attr {attr} must exist in {lib}",
                bench.name
            );
            // The rare path is reachable: invoking with op=diag works on the
            // ORIGINAL app (nothing trimmed yet).
            let mut spec = bench.spec.clone();
            spec.cases = vec![bench.rare_case()];
            let exec = run_app(&bench.registry, &bench.app_source, &spec).unwrap();
            assert_eq!(exec.results.len(), 1);
        }
    }

    #[test]
    fn probe_attributes_exist_and_both_arms_run() {
        for bench in mini_corpus() {
            let (lib, [a, b]) = &bench.probe;
            let program = bench.registry.parse_module(lib).unwrap();
            let attrs = trim_core::module_attributes(&program);
            for attr in [a, b] {
                assert!(
                    attrs.contains(attr),
                    "{}: probe attr {attr} must exist in {lib}",
                    bench.name
                );
            }
            assert_ne!(
                &bench.rare.1, a,
                "{}: probe must not alias rare",
                bench.name
            );
            assert_ne!(
                &bench.rare.1, b,
                "{}: probe must not alias rare",
                bench.name
            );
            // Both statically-bounded arms execute on the original app.
            let mut spec = bench.spec.clone();
            spec.cases = vec![bench.probe_case(false), bench.probe_case(true)];
            let exec = run_app(&bench.registry, &bench.app_source, &spec).unwrap();
            assert_eq!(exec.results.len(), 2, "{}", bench.name);
        }
    }

    #[test]
    fn extcall_apps_log_external_calls() {
        let b = app("image-resize").unwrap();
        let exec = run_app(&b.registry, &b.app_source, &b.spec).unwrap();
        assert!(exec.extcalls.iter().any(|c| c.starts_with("s3:")));
    }

    #[test]
    fn used_indices_are_unique_sorted_and_bounded() {
        for (total, count) in [(10, 3), (537, 450), (5, 10), (100, 0), (1, 1)] {
            let idx = used_indices(total, count);
            assert_eq!(idx.len(), count.min(total));
            for w in idx.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(idx.iter().all(|i| *i < total.max(1)));
        }
    }

    #[test]
    fn registries_contain_transitive_deps() {
        let b = app("wine").unwrap();
        for lib in ["numpy", "pandas", "sklearn", "boto3", "joblib"] {
            assert!(b.registry.contains(lib), "wine needs {lib}");
        }
    }

    #[test]
    fn mini_corpus_is_fast_subset() {
        let mini = mini_corpus();
        assert_eq!(mini.len(), 3);
        for b in &mini {
            let exec = run_app(&b.registry, &b.app_source, &b.spec).unwrap();
            assert!(exec.init_secs < 1.0, "{} is supposed to be small", b.name);
        }
    }
}
