//! Filesystem-facing helpers for the `lambda-trim` command-line tool:
//! loading a module registry from a directory of `.py` files, parsing
//! oracle-specification files, and writing a trimmed registry back out.
//!
//! Layout conventions mirror site-packages:
//!
//! ```text
//! packages/
//!   utils.py              -> module `utils`
//!   torch/__init__.py     -> module `torch`
//!   torch/nn.py           -> module `torch.nn`
//!   torch/nn/__init__.py  -> module `torch.nn` (directory package form)
//! ```

use pylite::Registry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use trim_core::{OracleSpec, TestCase};

/// Load every `.py` file under `dir` into a [`Registry`], mapping paths to
/// dotted module names.
///
/// # Errors
///
/// I/O errors reading the tree, or `InvalidData` for non-UTF-8 sources.
pub fn load_registry(dir: &Path) -> io::Result<Registry> {
    let mut registry = Registry::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in fs::read_dir(&current)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("py") {
                let module = module_name_for(dir, &path).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("cannot derive module name for {}", path.display()),
                    )
                })?;
                let source = fs::read_to_string(&path)?;
                registry.set_module(module, source);
            }
        }
    }
    Ok(registry)
}

/// Derive the dotted module name of `file` relative to `root`.
pub fn module_name_for(root: &Path, file: &Path) -> Option<String> {
    let rel = file.strip_prefix(root).ok()?;
    let mut parts: Vec<String> = Vec::new();
    for component in rel.components() {
        parts.push(component.as_os_str().to_str()?.to_owned());
    }
    let last = parts.pop()?;
    let stem = last.strip_suffix(".py")?;
    if stem != "__init__" {
        parts.push(stem.to_owned());
    }
    if parts.is_empty() {
        return None;
    }
    Some(parts.join("."))
}

/// Write a registry back to disk under `dir`, packages as directories with
/// `__init__.py`, plain modules as `<name>.py`.
///
/// # Errors
///
/// Any I/O error creating directories or writing files.
pub fn write_registry(registry: &Registry, dir: &Path) -> io::Result<()> {
    for module in registry.module_names() {
        let source = registry.source(&module).expect("listed module has source");
        let path = module_path(registry, dir, &module);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, source)?;
    }
    Ok(())
}

fn module_path(registry: &Registry, dir: &Path, module: &str) -> PathBuf {
    let is_package = !registry.submodules(module).is_empty();
    let mut path = dir.to_path_buf();
    let parts: Vec<&str> = module.split('.').collect();
    for p in &parts[..parts.len() - 1] {
        path.push(p);
    }
    let leaf = parts[parts.len() - 1];
    if is_package {
        path.push(leaf);
        path.push("__init__.py");
    } else {
        path.push(format!("{leaf}.py"));
    }
    path
}

/// Parse an oracle-specification file: one test case per non-empty,
/// non-comment line, either `EVENT` or `EVENT || CONTEXT` (pylite
/// literals).
///
/// ```text
/// # events the trimmed function must answer identically
/// {"n": 3}
/// {"n": -1} || {"request_id": "abc"}
/// ```
///
/// # Errors
///
/// `InvalidData` when a line is not a valid pylite literal.
pub fn parse_oracle_file(content: &str, handler: &str) -> io::Result<OracleSpec> {
    let mut cases = Vec::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (event, context) = match line.split_once("||") {
            Some((e, c)) => (e.trim().to_owned(), c.trim().to_owned()),
            None => (line.to_owned(), "None".to_owned()),
        };
        // Validate both literals eagerly so errors carry line numbers.
        for (what, lit) in [("event", &event), ("context", &context)] {
            trim_core::oracle::parse_literal(lit).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("oracle line {}: bad {what} literal: {e}", lineno + 1),
                )
            })?;
        }
        cases.push(TestCase { event, context });
    }
    if cases.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oracle file contains no test cases",
        ));
    }
    Ok(OracleSpec {
        handler: handler.to_owned(),
        cases,
    })
}

/// Minimal flag parser: `--key value` pairs plus positional words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: Vec<(String, String)>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of raw arguments (excluding argv[0]).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = iter.next().expect("peeked");
                        out.options.push((key.to_owned(), v));
                    }
                    _ => out.flags.push(key.to_owned()),
                }
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// The value of option `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the bare flag `key` was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Required option, with a readable error.
    ///
    /// # Errors
    ///
    /// A message naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Check the command line against what a command reads: `values` are
    /// its `--key value` options, `switches` its bare `--flag`s. Commands
    /// call this before any work, so a misspelled option fails instead of
    /// silently running with defaults.
    ///
    /// # Errors
    ///
    /// A message naming an option the command does not take, a value
    /// option given without a value, or a switch given one.
    pub fn check_options(&self, values: &[&str], switches: &[&str]) -> Result<(), String> {
        for (key, value) in &self.options {
            if switches.contains(&key.as_str()) {
                return Err(format!("--{key} takes no value (got `{value}`)"));
            }
            if !values.contains(&key.as_str()) {
                return Err(format!("unknown option --{key}"));
            }
        }
        for flag in &self.flags {
            if values.contains(&flag.as_str()) {
                return Err(format!("option --{flag} needs a value"));
            }
            if !switches.contains(&flag.as_str()) {
                return Err(format!("unknown option --{flag}"));
            }
        }
        Ok(())
    }
}

/// Check that the application binds `handler` at its top level: a `def`,
/// `class`, assignment, import or `for` target directly in the module body
/// or inside a top-level `if`/`for`/`while`/`try` block. A star import may
/// bind any name and passes.
///
/// # Errors
///
/// A message naming the handler and `app_path`, or the app's parse error.
pub fn check_handler(app_path: &str, app_source: &str, handler: &str) -> Result<(), String> {
    let program = pylite::parse(app_source).map_err(|e| format!("{app_path}: {e}"))?;
    if binds_at_top_level(&program.body, handler) {
        Ok(())
    } else {
        Err(format!(
            "handler `{handler}` is not defined at the top level of {app_path} (pass --handler <NAME>)"
        ))
    }
}

fn binds_at_top_level(body: &[pylite::Stmt], name: &str) -> bool {
    use pylite::ast::Expr;
    fn target_binds(target: &Expr, name: &str) -> bool {
        match target {
            Expr::Name(n) => n == name,
            Expr::Tuple(items) | Expr::List(items) => items.iter().any(|t| target_binds(t, name)),
            _ => false,
        }
    }
    body.iter().any(|stmt| match stmt {
        pylite::Stmt::FuncDef(f) => f.name == name,
        pylite::Stmt::ClassDef(c) => c.name == name,
        pylite::Stmt::Assign { targets, .. } => targets.iter().any(|t| target_binds(t, name)),
        pylite::Stmt::Import { items } => items.iter().any(|i| i.bound_name() == name),
        pylite::Stmt::FromImport { names, .. } => names
            .iter()
            .any(|(n, alias)| n == "*" || alias.as_deref().unwrap_or(n) == name),
        pylite::Stmt::For { targets, body, .. } => {
            targets.iter().any(|t| t == name) || binds_at_top_level(body, name)
        }
        pylite::Stmt::While { body, .. } => binds_at_top_level(body, name),
        pylite::Stmt::If { branches, orelse } => {
            branches.iter().any(|(_, b)| binds_at_top_level(b, name))
                || binds_at_top_level(orelse, name)
        }
        pylite::Stmt::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            binds_at_top_level(body, name)
                || handlers.iter().any(|h| binds_at_top_level(&h.body, name))
                || binds_at_top_level(orelse, name)
                || binds_at_top_level(finalbody, name)
        }
        _ => false,
    })
}

/// Resolve a `--scoring` string to a [`trim_profiler::ScoringMethod`].
///
/// # Errors
///
/// A message listing the valid values.
pub fn parse_scoring(s: &str) -> Result<trim_profiler::ScoringMethod, String> {
    match s {
        "combined" => Ok(trim_profiler::ScoringMethod::Combined),
        "time" => Ok(trim_profiler::ScoringMethod::Time),
        "memory" => Ok(trim_profiler::ScoringMethod::Memory),
        "random" => Ok(trim_profiler::ScoringMethod::Random { seed: 7 }),
        other => Err(format!(
            "unknown scoring method `{other}` (expected combined|time|memory|random)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lambda-trim-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn module_names_from_paths() {
        let root = Path::new("/pkgs");
        let name = |p: &str| module_name_for(root, Path::new(p));
        assert_eq!(name("/pkgs/utils.py"), Some("utils".into()));
        assert_eq!(name("/pkgs/torch/__init__.py"), Some("torch".into()));
        assert_eq!(name("/pkgs/torch/nn.py"), Some("torch.nn".into()));
        assert_eq!(name("/pkgs/torch/nn/__init__.py"), Some("torch.nn".into()));
        assert_eq!(name("/pkgs/__init__.py"), None, "root init has no name");
        assert_eq!(name("/elsewhere/x.py"), None);
    }

    #[test]
    fn registry_roundtrip_through_filesystem() {
        let dir = tempdir("roundtrip");
        let mut registry = Registry::new();
        registry.set_module("utils", "def f(x):\n    return x\n");
        registry.set_module("pkg", "from pkg.sub import a\n");
        registry.set_module("pkg.sub", "a = 1\n");
        write_registry(&registry, &dir).unwrap();
        assert!(dir.join("utils.py").exists());
        assert!(dir.join("pkg/__init__.py").exists());
        assert!(dir.join("pkg/sub.py").exists());
        let loaded = load_registry(&dir).unwrap();
        assert_eq!(loaded, registry);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_file_parsing() {
        let spec = parse_oracle_file(
            "# comment\n{\"n\": 1}\n\n{\"n\": 2} || {\"id\": \"x\"}\n",
            "handler",
        )
        .unwrap();
        assert_eq!(spec.cases.len(), 2);
        assert_eq!(spec.cases[1].context, "{\"id\": \"x\"}");
        assert!(parse_oracle_file("", "handler").is_err());
        assert!(parse_oracle_file("not a literal ][", "handler").is_err());
    }

    #[test]
    fn args_parsing() {
        let args = Args::parse(
            ["trim", "--app", "a.py", "--wrap", "--k", "5"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(args.positional, vec!["trim"]);
        assert_eq!(args.get("app"), Some("a.py"));
        assert_eq!(args.get("k"), Some("5"));
        assert!(args.has_flag("wrap"));
        assert!(args.require("missing").is_err());
    }

    #[test]
    fn option_check_names_what_the_command_does_not_take() {
        let check = |raw: &[&str]| {
            Args::parse(raw.iter().map(|s| (*s).to_owned())).check_options(&["k", "app"], &["wrap"])
        };
        assert_eq!(
            check(&["trim", "--app", "a.py", "--k", "5", "--wrap"]),
            Ok(())
        );
        assert_eq!(check(&["trim"]), Ok(()));
        assert_eq!(
            check(&["trim", "--thread", "2"]).unwrap_err(),
            "unknown option --thread"
        );
        assert_eq!(
            check(&["trim", "--wrpa"]).unwrap_err(),
            "unknown option --wrpa"
        );
        assert_eq!(
            check(&["trim", "--k", "--wrap"]).unwrap_err(),
            "option --k needs a value"
        );
        assert_eq!(
            check(&["trim", "--app"]).unwrap_err(),
            "option --app needs a value"
        );
        assert_eq!(
            check(&["trim", "--wrap", "yes"]).unwrap_err(),
            "--wrap takes no value (got `yes`)"
        );
    }

    #[test]
    fn handler_must_be_bound_at_top_level() {
        let ok = [
            "def handler(event, context):\n    return 1\n",
            "from impl import run as handler\n",
            "from impl import *\n",
            "if True:\n    def handler(e, c):\n        return 1\nelse:\n    handler = None\n",
            "try:\n    import handler\nexcept ImportError:\n    pass\n",
            "handler, other = (None, None)\n",
        ];
        for app in ok {
            assert_eq!(check_handler("app.py", app, "handler"), Ok(()), "{app}");
        }
        let missing = [
            "def main(event, context):\n    return 1\n",
            "def outer():\n    def handler(e, c):\n        return 1\n",
            "class C:\n    handler = 1\n",
        ];
        for app in missing {
            let err = check_handler("app.py", app, "handler").unwrap_err();
            assert!(
                err.contains("handler `handler`") && err.contains("app.py"),
                "{err}"
            );
        }
        assert!(check_handler("app.py", "def broken(:\n", "handler")
            .unwrap_err()
            .starts_with("app.py: "));
    }

    #[test]
    fn scoring_parsing() {
        assert!(parse_scoring("combined").is_ok());
        assert!(parse_scoring("time").is_ok());
        assert!(parse_scoring("bogus").is_err());
    }
}
