//! End-to-end test of the `whale` command-line driver.

use std::process::Command;

const DEMO: &str = r#"
class A extends Object { }
class B extends Object { }
class Id extends Object {
  static method id(p: Object): Object { return p; }
}
class Main extends Object {
  entry static method main() {
    var a: A;
    var b: B;
    var ra: Object;
    var rb: Object;
    a = new A;
    b = new B;
    ra = Id::id(a);
    rb = Id::id(b);
  }
}
"#;

fn whale() -> Command {
    Command::new(env!("CARGO_BIN_EXE_whale"))
}

fn demo_file(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("whale_cli_{tag}_{}.whale", std::process::id()));
    std::fs::write(&path, DEMO).unwrap();
    path
}

#[test]
fn number_reports_clone_counts() {
    let path = demo_file("number");
    let out = whale().arg("number").arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max 2 per method"), "{stdout}");
    assert!(stdout.contains("Id.id"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_cs_prints_contextful_tuples() {
    let path = demo_file("cs");
    let out = whale()
        .args(["analyze"])
        .arg(&path)
        .args(["--cs", "--print", "vPC"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The polyvariance is visible in the printed relation: context 1 sees
    // the A object, context 2 the B object.
    assert!(
        stdout.contains("(1, Id.id::p#1, A@Main.main:0)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("(2, Id.id::p#1, B@Main.main:1)"),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_factor_runs() {
    let path = demo_file("factor");
    let out = whale()
        .args(["analyze"])
        .arg(&path)
        .args(["--factor", "--otf"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("vP:"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn analyze_taint_prints_witness_paths() {
    let program = r#"
class Api extends Object {
  static method secret(): Object {
    var s: Object;
    s = new Object;
    return s;
  }
}
class Db extends Object {
  static method exec(q: Object) { }
}
class Main extends Object {
  entry static method main() {
    var x: Object;
    x = Api::secret();
    Db::exec(x);
  }
}
"#;
    let pid = std::process::id();
    let prog_path = std::env::temp_dir().join(format!("whale_cli_taint_{pid}.whale"));
    let spec_path = std::env::temp_dir().join(format!("whale_cli_taint_{pid}.spec"));
    std::fs::write(&prog_path, program).unwrap();
    std::fs::write(
        &spec_path,
        "source method Api.secret\nsink method Db.exec 0\n",
    )
    .unwrap();
    let out = whale()
        .args(["analyze"])
        .arg(&prog_path)
        .arg("--taint")
        .arg(&spec_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 tainted flow(s) reach a sink"),
        "{stdout}"
    );
    assert!(stdout.contains("Db.exec in Main.main"), "{stdout}");
    assert!(stdout.contains("source  Api.secret::"), "{stdout}");
    assert!(stdout.contains("return  Main.main::x"), "{stdout}");
    std::fs::remove_file(&prog_path).ok();
    std::fs::remove_file(&spec_path).ok();
}

#[test]
fn bad_input_reports_error() {
    let out = whale()
        .args(["analyze", "/definitely/not/here.whale"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("whale:"));
}

#[test]
fn analyze_query_and_lint_flags() {
    let path = demo_file("query");
    let out = whale()
        .args(["analyze"])
        .arg(&path)
        .args(["--cs", "--lint", "--query", "vPC(1, v, h)"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The lint pass reports a count (the CS program declares a few
    // relations only other analyses use).
    assert!(stdout.contains("datalog warning"), "{stdout}");
    // The answer is restricted to context 1 and decoded through the name
    // maps, exactly like --print output.
    assert!(stdout.contains("query vPC:"), "{stdout}");
    assert!(
        stdout.contains("(1, Id.id::p#1, A@Main.main:0)"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("(2, Id.id::p#1, B@Main.main:1)"),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

/// Usage errors (bad flags or combinations) exit 2 with a `--help`
/// pointer; runtime failures keep exit 1. Each case here used to either
/// panic, silently misparse, or blur into the generic failure exit.
#[test]
fn usage_errors_exit_2() {
    let path = demo_file("usage");
    let cases: Vec<(Vec<&str>, &str)> = vec![
        // `--taint` without its spec file was an `.expect` panic.
        (
            vec!["analyze", path.to_str().unwrap(), "--taint"],
            "--taint",
        ),
        // `--print` without a value used to swallow the next token.
        (
            vec!["analyze", path.to_str().unwrap(), "--print"],
            "--print",
        ),
        // A bare token after the program file was silently treated as a
        // `--print` operand.
        (
            vec!["analyze", path.to_str().unwrap(), "vPC"],
            "unknown option",
        ),
        (
            vec!["analyze", path.to_str().unwrap(), "--deny-warnings"],
            "require --lint",
        ),
        (
            vec!["analyze", path.to_str().unwrap(), "--format", "json"],
            "require --lint",
        ),
        (vec!["bogus"], "unknown command"),
        (vec!["analyze"], "missing program file"),
        (
            vec!["serve", path.to_str().unwrap(), "--escape"],
            "serve supports",
        ),
        (
            vec!["analyze", "--cs", path.to_str().unwrap()],
            "expected a program file",
        ),
    ];
    for (args, needle) in cases {
        let out = whale().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "args {args:?}: {stderr}");
        assert!(stderr.contains("--help"), "args {args:?}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// Runtime failures (here: an unreadable program file) are exit 1, so
/// scripts can tell "you called it wrong" from "it could not run".
#[test]
fn runtime_errors_exit_1() {
    let out = whale()
        .args(["analyze", "/definitely/not/here.whale"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("--help"), "{stderr}");
}

/// `--print` consumes its operand: printing a relation works when the
/// value is attached, and two prints in a row both resolve.
#[test]
fn print_flag_consumes_its_value() {
    let path = demo_file("print2");
    let out = whale()
        .args(["analyze"])
        .arg(&path)
        .args(["--ci", "--print", "vP", "--print", "hP"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\nvP:"), "{stdout}");
    assert!(stdout.contains("\nhP:"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

/// The solver is single-threaded: `--jobs` is an unknown option on both
/// `analyze` and `serve`, a usage error like any other.
#[test]
fn jobs_option_is_rejected() {
    let path = demo_file("jobs");
    for command in ["analyze", "serve"] {
        let out = whale()
            .arg(command)
            .arg(&path)
            .args(["--jobs", "2"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option `--jobs`"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// `--stats` prints the stratum summary on stdout, next to the kernel's
/// node-table, op-cache and unique-table counters.
#[test]
fn stats_flag_prints_strata() {
    let path = demo_file("stats");
    let out = whale()
        .args(["analyze"])
        .arg(&path)
        .args(["--cs", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("strata: ")),
        "{stdout}"
    );
    assert!(stdout.contains("op caches:"), "{stdout}");
    assert!(stdout.contains(", unique table: "), "{stdout}");
    std::fs::remove_file(&path).ok();
}
