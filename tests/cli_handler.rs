//! The `lambda-trim` commands that start from the handler — `analyze`,
//! `trim` and `run` — refuse a `--handler` the app does not bind at its
//! top level, instead of analyzing an empty call graph or failing deep in
//! the baseline run. And `run` ends every handler in a result or a typed
//! error, never in a panic or an aborted allocation.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A temporary fixture: one package, an app with a `handler`, an oracle.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lambda-trim-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("packages")).unwrap();
    fs::write(
        dir.join("packages/util.py"),
        "def double(x):\n    return x * 2\ndef unused():\n    return 0\n",
    )
    .unwrap();
    fs::write(
        dir.join("app.py"),
        "import util\ndef handler(event, context):\n    return util.double(event[\"n\"])\n",
    )
    .unwrap();
    fs::write(dir.join("oracle.txt"), "{\"n\": 3}\n").unwrap();
    dir
}

fn lambda_trim(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lambda-trim"))
        .current_dir(dir)
        .args(args)
        .args(["--app", "app.py", "--packages", "packages"])
        .output()
        .expect("lambda-trim runs")
}

#[test]
fn missing_handler_fails_analyze_trim_and_run() {
    let dir = fixture("missing");
    for command in [
        &["analyze"][..],
        &["trim", "--oracle", "oracle.txt", "--out", "out"],
        &["run", "--event", "{\"n\": 3}"],
    ] {
        let out = lambda_trim(&dir, &[command, &["--handler", "main"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{command:?} accepted a missing handler"
        );
        assert!(
            stderr.contains("handler `main` is not defined at the top level of app.py"),
            "{command:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command:?} did work first");
    }
    assert!(!dir.join("out").exists(), "trim wrote nothing");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bound_handler_is_accepted() {
    let dir = fixture("bound");
    for command in [
        &["analyze"][..],
        &["trim", "--oracle", "oracle.txt", "--out", "out"],
        &["run", "--event", "{\"n\": 3}"],
    ] {
        let out = lambda_trim(&dir, command);
        assert!(
            out.status.success(),
            "{command:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn integer_and_repetition_edge_cases_end_in_a_result_or_a_typed_error() {
    let dir = fixture("edges");
    // (handler expression, what `run` prints: the result or the error)
    let cases = [
        ("(-9223372036854775807 - 1) // -1", "=> -9223372036854775808"),
        ("(-9223372036854775807 - 1) % -1", "=> 0"),
        ("3 ** 50", "=> 6048575297968530377"),
        ("7 // -2", "=> -4"),
        ("7 % -2", "=> -1"),
        ("-7 // -3", "=> 2"),
        ("-7 % -3", "=> -1"),
        ("7.5 % -2", "=> -0.5"),
        ("1 // 0.1", "=> 9.0"),
        ("-0.0 % 5", "=> 0.0"),
        ("6.0 % -3", "=> -0.0"),
        ("2 ** -3000000000", "=> 0.0"),
        (
            "0 ** -1",
            "ZeroDivisionError: 0.0 cannot be raised to a negative power",
        ),
        ("2 ** 64", "=> 0"),
        ("3 ** 64", "=> 8733086111712066817"),
        ("-(-9223372036854775807 - 1)", "=> -9223372036854775808"),
        ("abs(-9223372036854775807 - 1)", "=> -9223372036854775808"),
        (
            "range(9223372036854775800, 9223372036854775807, 2)",
            "=> [9223372036854775800, 9223372036854775802, 9223372036854775804, 9223372036854775806]",
        ),
        ("[0] * 9223372036854775807", "ResourceExhausted"),
        ("'ab' * 4611686018427387904", "ResourceExhausted"),
        ("[0] * 100000000000", "ResourceExhausted"),
        ("'ab' * 1000000000000", "ResourceExhausted"),
        ("range(100000000000)", "ResourceExhausted"),
        (
            "range(-9223372036854775807 - 1, 9223372036854775807)",
            "ResourceExhausted",
        ),
        ("int(1e300)", "=> 0"),
        ("int(9.3e18)", "=> -9146744073709551616"),
        ("int(-1e19)", "=> 8446744073709551616"),
        ("int(-2.9)", "=> -2"),
        (
            "int(float(\"inf\"))",
            "ValueError: cannot convert float infinity to integer",
        ),
        (
            "int(float(\"-inf\"))",
            "ValueError: cannot convert float infinity to integer",
        ),
        (
            "int(float(\"nan\"))",
            "ValueError: cannot convert float NaN to integer",
        ),
        ("2 ** 1000.0", "=> 1.0715086071862673e+301"),
        ("1e16", "=> 1e+16"),
        ("1e-07", "=> 1e-07"),
        ("1.5e-5", "=> 1.5e-05"),
        ("float(\"nan\")", "=> nan"),
        ("1e15", "=> 1000000000000000.0"),
        ("0.0001", "=> 0.0001"),
        (
            "10.0 ** 400",
            "OverflowError: (34, 'Numerical result out of range')",
        ),
        (
            "(-8.0) ** 0.5",
            "ValueError: negative number cannot be raised to a fractional power",
        ),
    ];
    for (expr, expected) in cases {
        fs::write(
            dir.join("app.py"),
            format!("def handler(event, context):\n    return {expr}\n"),
        )
        .unwrap();
        let out = lambda_trim(&dir, &["run", "--event", "None"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if expected.starts_with("=>") {
            assert_eq!(out.status.code(), Some(0), "{expr}: {stderr}");
            assert_eq!(stdout.trim_end(), expected, "{expr}");
        } else {
            assert_eq!(out.status.code(), Some(1), "{expr}: {stderr}");
            assert!(stderr.contains(expected), "{expr}: {stderr}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn keyword_arguments_no_callee_binds_raise_a_type_error() {
    let dir = fixture("kwargs");
    for (expr, error) in [
        (
            "sorted([3, 1, 2], reverse=True)",
            "sorted() takes no keyword arguments",
        ),
        (
            "print(1, 2, sep=\"-\", end=\"!\")",
            "print() takes no keyword arguments",
        ),
        (
            "\"a b\".split(sep=\",\")",
            "str.split() takes no keyword arguments",
        ),
        ("len([1], x=2)", "len() takes no keyword arguments"),
        ("A(1, x=2)", "A() takes no arguments"),
        (
            "ValueError(\"m\", code=3)",
            "ValueError() takes no keyword arguments",
        ),
    ] {
        fs::write(
            dir.join("app.py"),
            format!("class A:\n    pass\n\ndef handler(event, context):\n    return {expr}\n"),
        )
        .unwrap();
        let out = lambda_trim(&dir, &["run", "--event", "None"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{expr}: {stderr}");
        assert!(
            stderr.contains(&format!("TypeError: {error}")),
            "{expr}: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn del_of_a_subscript_removes_the_item_or_raises_a_typed_error() {
    let dir = fixture("del");
    // (handler body, what `run` prints: the result or the error)
    let cases = [
        (
            "d = {\"a\": 1, \"b\": 2}\n    del d[\"a\"]\n    return d",
            "=> {\"b\": 2}",
        ),
        ("xs = [1, 2, 3]\n    del xs[-1]\n    return xs", "=> [1, 2]"),
        ("d = {}\n    del d[\"a\"]\n    return d", "KeyError"),
        ("xs = [1]\n    del xs[1]\n    return xs", "IndexError"),
        (
            "t = (1, 2)\n    del t[0]\n    return t",
            "TypeError: 'tuple' object doesn't support item deletion",
        ),
        (
            "xs = [1, 2]\n    del xs[0:1]\n    return xs",
            "TypeError: unsupported del target",
        ),
    ];
    for (body, expected) in cases {
        fs::write(
            dir.join("app.py"),
            format!("def handler(event, context):\n    {body}\n"),
        )
        .unwrap();
        let out = lambda_trim(&dir, &["run", "--event", "None"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if expected.starts_with("=>") {
            assert_eq!(out.status.code(), Some(0), "{body}: {stderr}");
            assert_eq!(stdout.trim_end(), expected, "{body}");
        } else {
            assert_eq!(out.status.code(), Some(1), "{body}: {stderr}");
            assert!(stderr.contains(expected), "{body}: {stderr}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Trim an app whose handler reads `util.<attr>`, with `line` added to
/// the package: the trim must succeed, and the kept package text is
/// returned, with what `run` prints for the trimmed app.
fn trim_with_package_line(tag: &str, line: &str, attr: &str) -> (String, String) {
    let dir = fixture(tag);
    fs::write(
        dir.join("packages/util.py"),
        format!("{line}\ndef double(x):\n    return x * 2\ndef unused():\n    return 0\n"),
    )
    .unwrap();
    fs::write(
        dir.join("app.py"),
        format!("import util\ndef handler(event, context):\n    v = util.{attr}\n    return [len(str(v)), v]\n"),
    )
    .unwrap();
    let out = lambda_trim(&dir, &["trim", "--oracle", "oracle.txt", "--out", "out"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{line}: {stderr}");
    let kept = fs::read_to_string(dir.join("out/util.py")).expect("trim wrote the package");
    let run = Command::new(env!("CARGO_BIN_EXE_lambda-trim"))
        .current_dir(&dir)
        .args([
            "run",
            "--app",
            "out/app.py",
            "--packages",
            "out",
            "--event",
            "{\"n\": 3}",
        ])
        .output()
        .expect("lambda-trim runs");
    assert_eq!(
        run.status.code(),
        Some(0),
        "{line}: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let _ = fs::remove_dir_all(&dir);
    (
        kept,
        String::from_utf8_lossy(&run.stdout).trim_end().to_owned(),
    )
}

#[test]
fn a_package_binding_an_infinite_float_trims() {
    let (kept, run) = trim_with_package_line("inf", "BIG = 1e400", "BIG");
    assert_eq!(kept, "BIG = 1e999\n");
    assert_eq!(run, "=> [3, inf]");
}

#[test]
fn a_package_binding_a_non_ascii_string_trims() {
    let (kept, run) = trim_with_package_line("utf8", "NAME = \"café\"", "NAME");
    assert_eq!(kept, "NAME = \"café\"\n");
    assert_eq!(run, "=> [4, \"café\"]");
}
