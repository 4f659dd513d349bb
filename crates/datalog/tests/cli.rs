//! End-to-end test of the `bddbddb` command-line driver: program file,
//! tuple files in, tuple files out, `.bdd` caching.

use std::process::Command;

fn bddbddb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bddbddb"))
}

#[test]
fn solves_from_files_and_caches_bdds() {
    let dir = std::env::temp_dir().join(format!("whale_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("tc.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 64\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n",
    )
    .unwrap();
    std::fs::write(dir.join("edge.tuples"), "0 1\n1 2\n# comment\n2 3\n").unwrap();

    let out = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .args(["--bdd-cache", dir.join("cache").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("path: 6 tuples"), "{stdout}");

    // Output tuples are correct and sorted-parsable.
    let tuples = std::fs::read_to_string(dir.join("path.tuples")).unwrap();
    let mut rows: Vec<Vec<u64>> = tuples
        .lines()
        .map(|l| l.split_whitespace().map(|t| t.parse().unwrap()).collect())
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![0, 1],
            vec![0, 2],
            vec![0, 3],
            vec![1, 2],
            vec![1, 3],
            vec![2, 3]
        ]
    );
    assert!(dir.join("cache/path.bdd").exists());

    // Second run loads nothing new and reproduces the result; seed the
    // cache as an input by renaming the saved output relation.
    std::fs::copy(dir.join("cache/path.bdd"), dir.join("cache/edge.bdd")).unwrap();
    let out2 = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .args(["--bdd-cache", dir.join("cache").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out2.status.success());
    let stderr = String::from_utf8_lossy(&out2.stderr);
    assert!(
        stderr.contains("loaded edge from"),
        "cache should take precedence: {stderr}"
    );
    // edge := old path (already transitive), so path = edge = 6 tuples.
    assert!(String::from_utf8_lossy(&out2.stdout).contains("path: 6 tuples"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_errors_cleanly() {
    let out = bddbddb().arg("/nonexistent.datalog").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bddbddb:"));

    let dir = std::env::temp_dir().join(format!("whale_cli_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.datalog");
    std::fs::write(&bad, "DOMAINS\nV 8\nRULES\np(x) :- q(x).").unwrap();
    let out = bddbddb().arg(&bad).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown relation"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn naive_flag_matches_default() {
    let dir = std::env::temp_dir().join(format!("whale_cli_naive_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("tc.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 32\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n",
    )
    .unwrap();
    std::fs::write(dir.join("edge.tuples"), "0 1\n1 2\n2 0\n3 4\n").unwrap();
    let mut results = Vec::new();
    for extra in [None, Some("--naive")] {
        let mut cmd = bddbddb();
        cmd.arg(&program)
            .args(["--facts", dir.to_str().unwrap()])
            .args(["--out", dir.to_str().unwrap()]);
        if let Some(flag) = extra {
            cmd.arg(flag);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success());
        let mut rows: Vec<String> = std::fs::read_to_string(dir.join("path.tuples"))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        rows.sort();
        results.push(rows);
    }
    assert_eq!(results[0], results[1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_warnings_reach_stderr() {
    let dir = std::env::temp_dir().join(format!("whale_cli_lint_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("lint.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 8\nRELATIONS\ninput edge (s : V, d : V)\ninput ghost (s : V)\ndead (s : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\ndead(x) :- edge(x,_).\n",
    )
    .unwrap();
    let out = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: relation `ghost` is declared but used by no rule"),
        "{stderr}"
    );
    assert!(
        stderr.contains("warning: dead rule `dead(x) :- edge(x,_).` (line 10)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn singleton_variable_warning_reaches_stderr() {
    let dir = std::env::temp_dir().join(format!("whale_cli_singleton_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("singleton.datalog");
    // `d` in the second rule binds nothing downstream — the lint should
    // name the variable, the rule and its source line.
    std::fs::write(
        &program,
        "DOMAINS\nV 8\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\noutput node (s : V)\nRULES\npath(x,y) :- edge(x,y).\nnode(x) :- edge(x,d).\n",
    )
    .unwrap();
    let out = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr
            .contains("warning: variable `d` occurs only once in `node(x) :- edge(x,d).` (line 9)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_fact_file_names_file_line_and_token() {
    let dir = std::env::temp_dir().join(format!("whale_cli_badfact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("tc.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 8\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("edge.tuples"),
        "0 1\n1 2\n2 oops  # not a number\n",
    )
    .unwrap();
    let out = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The diagnostic pinpoints the file, the 1-based line, and the token.
    assert!(stderr.contains("edge.tuples:3"), "{stderr}");
    assert!(stderr.contains("bad value `oops`"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_flag_reports_strata() {
    let dir = std::env::temp_dir().join(format!("whale_cli_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("tc.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 32\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n",
    )
    .unwrap();
    std::fs::write(dir.join("edge.tuples"), "0 1\n1 2\n2 0\n3 4\n").unwrap();
    let out = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .arg("--stats")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.lines().any(|l| l.starts_with("strata: ")),
        "{stderr}"
    );
    let mut rows: Vec<String> = std::fs::read_to_string(dir.join("path.tuples"))
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    rows.sort();
    let mut want: Vec<String> = [
        "0 0", "0 1", "0 2", "1 0", "1 1", "1 2", "2 0", "2 1", "2 2", "3 4",
    ]
    .iter()
    .map(|r| r.to_string())
    .collect();
    want.sort();
    assert_eq!(rows, want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_flag_answers_without_writing_outputs() {
    let dir = std::env::temp_dir().join(format!("whale_cli_query_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("tc.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 64\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n",
    )
    .unwrap();
    std::fs::write(dir.join("edge.tuples"), "0 1\n1 2\n2 3\n5 6\n").unwrap();

    let out = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .args(["--query", "path(0, y)"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("path: 3 tuples"), "{stdout}");
    assert!(stdout.contains("0 1"), "{stdout}");
    assert!(stdout.contains("0 2"), "{stdout}");
    assert!(stdout.contains("0 3"), "{stdout}");
    assert!(!stdout.contains("0 4"), "{stdout}");
    assert!(stderr.contains("query solved in"), "{stderr}");
    // Query mode writes no output files.
    assert!(!dir.join("path.tuples").exists());

    // A typo'd relation produces the suggestion-carrying error.
    let bad = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--query", "pth(0, y)"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("unknown relation `pth` (did you mean `path`?)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

const LINTY: &str = "DOMAINS\nV 8\nRELATIONS\ninput edge (s : V, d : V)\ninput ghost (s : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\n";

#[test]
fn check_mode_analyzes_without_solving() {
    let dir = std::env::temp_dir().join(format!("whale_cli_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("linty.datalog");
    std::fs::write(&program, LINTY).unwrap();

    // Warnings alone keep the exit code zero, and no solve happens (no
    // output files, no fact loading).
    let out = bddbddb().arg("--check").arg(&program).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[W001]"), "{stdout}");
    assert!(
        stdout.contains("relation `ghost` is declared but used by no rule"),
        "{stdout}"
    );
    // Caret rendering points at the declaration.
    assert!(stdout.contains("--> "), "{stdout}");
    assert!(stdout.contains("^"), "{stdout}");
    assert!(stdout.contains("0 error(s), 1 warning(s)"), "{stdout}");
    assert!(stdout.contains("rule cost estimates"), "{stdout}");
    assert!(!dir.join("path.tuples").exists());

    // --deny-warnings turns the same report into a failing exit.
    let denied = bddbddb()
        .args(["--check", "--deny-warnings"])
        .arg(&program)
        .output()
        .unwrap();
    assert!(!denied.status.success());

    // Errors fail even without --deny-warnings, with a stable code.
    let broken = dir.join("broken.datalog");
    std::fs::write(
        &broken,
        "DOMAINS\nV 8\nRELATIONS\noutput p (s : V)\nRULES\np(x) :- q(x).\n",
    )
    .unwrap();
    let err = bddbddb().arg("--check").arg(&broken).output().unwrap();
    assert!(!err.status.success());
    let stdout = String::from_utf8_lossy(&err.stdout);
    assert!(stdout.contains("error[E003]"), "{stdout}");
    assert!(stdout.contains("unknown relation `q`"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_format_json_emits_one_document() {
    let dir = std::env::temp_dir().join(format!("whale_cli_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("linty.datalog");
    std::fs::write(&program, LINTY).unwrap();
    let out = bddbddb()
        .args(["--check", "--format", "json"])
        .arg(&program)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"file\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"W001\""), "{stdout}");
    assert!(stdout.contains("\"severity\":\"warning\""), "{stdout}");
    assert!(stdout.contains("\"rule_costs\":["), "{stdout}");
    // `--format json` outside --check is rejected rather than ignored.
    let bad = bddbddb()
        .args(["--format", "json"])
        .arg(&program)
        .output()
        .unwrap();
    assert!(!bad.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deny_warnings_gates_solve_mode() {
    let dir = std::env::temp_dir().join(format!("whale_cli_deny_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("linty.datalog");
    std::fs::write(&program, LINTY).unwrap();
    std::fs::write(dir.join("edge.tuples"), "0 1\n").unwrap();

    // Without the flag the warning is advisory and the solve proceeds.
    let ok = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ok.status.success());

    // With the flag the same program is refused before solving.
    let denied = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert!(!denied.status.success());
    let stderr = String::from_utf8_lossy(&denied.stderr);
    assert!(stderr.contains("--deny-warnings"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Usage errors (bad flags, missing operands, `--format json` outside
/// `--check`) exit 2 and point at `--help`; runtime failures stay 1 so
/// CI gates like `--deny-warnings` keep their meaning.
#[test]
fn usage_errors_exit_2() {
    let dir = std::env::temp_dir().join(format!("whale_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("linty.datalog");
    std::fs::write(&program, LINTY).unwrap();
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--bogus", program.to_str().unwrap()], "unknown option"),
        (
            vec!["--format", "json", program.to_str().unwrap()],
            "--format json only applies to --check",
        ),
        (
            vec![program.to_str().unwrap(), "--jobs", "2"],
            "unknown option",
        ),
        // There is no dynamic reordering to switch on.
        (
            vec![program.to_str().unwrap(), "--reorder"],
            "unknown option `--reorder`",
        ),
        (vec![], "missing program file"),
        (
            vec![program.to_str().unwrap(), "extra.datalog"],
            "unexpected argument",
        ),
    ];
    for (args, needle) in cases {
        let out = bddbddb().args(&args).output().unwrap();
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

    // The CI gate paths stay exit 1: a denied warning is a *run*
    // failure, not a usage error.
    std::fs::write(dir.join("edge.tuples"), "0 1\n").unwrap();
    let denied = bddbddb()
        .arg(&program)
        .args(["--facts", dir.to_str().unwrap()])
        .args(["--out", dir.to_str().unwrap()])
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert_eq!(denied.status.code(), Some(1));
    let checked = bddbddb()
        .args(["--check", "--deny-warnings"])
        .arg(&program)
        .output()
        .unwrap();
    assert_eq!(checked.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A `.bdd` cache file whose BDD spans variables outside its relation's
/// attribute domains (a two-column `path` dump offered as the one-column
/// `a`, under a program with the same variable count) is a bad fact:
/// exit 1 with the error on stderr, not a decode panic.
#[test]
fn mismatched_bdd_cache_is_a_bad_fact_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("whale_cli_badbdd_{}", std::process::id()));
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let program = dir.join("p.datalog");
    std::fs::write(
        &program,
        "DOMAINS\nV 64\nRELATIONS\ninput a (x : V)\noutput b (x : V)\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\nb(x) :- a(x).\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n",
    )
    .unwrap();
    std::fs::write(dir.join("edge.tuples"), "0 1\n1 2\n").unwrap();
    let run = || {
        bddbddb()
            .arg(&program)
            .args(["--facts", dir.to_str().unwrap()])
            .args(["--out", dir.to_str().unwrap()])
            .args(["--bdd-cache", cache.to_str().unwrap()])
            .output()
            .unwrap()
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    std::fs::copy(cache.join("path.bdd"), cache.join("a.bdd")).unwrap();
    let second = run();
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert_eq!(second.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error[E014]: bad fact"), "{stderr}");
    assert!(stderr.contains("`a`"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `.bdd` cache written under one program and loaded under a wider one
/// (more bits per domain, so more variables) is refused with a typed BDD
/// error: exit 1, diagnostic code E016, the file's path, both variable
/// counts and the advice to delete it.
#[test]
fn stale_bdd_cache_from_a_narrower_program_is_a_coded_error() {
    let dir = std::env::temp_dir().join(format!("whale_cli_stale_{}", std::process::id()));
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let tc = |size: u32| {
        format!(
            "DOMAINS\nV {size}\nRELATIONS\ninput edge (s : V, d : V)\noutput path (s : V, d : V)\nRULES\npath(x,y) :- edge(x,y).\npath(x,z) :- path(x,y), edge(y,z).\n"
        )
    };
    let run = |size: u32| {
        let program = dir.join(format!("tc{size}.datalog"));
        std::fs::write(&program, tc(size)).unwrap();
        bddbddb()
            .arg(&program)
            .args(["--facts", dir.to_str().unwrap()])
            .args(["--out", dir.to_str().unwrap()])
            .args(["--bdd-cache", cache.to_str().unwrap()])
            .output()
            .unwrap()
    };
    std::fs::write(dir.join("edge.tuples"), "0 1\n1 2\n").unwrap();
    // Three instances of a 6-bit `V`: 18 variables.
    let narrow = run(64);
    assert!(
        narrow.status.success(),
        "{}",
        String::from_utf8_lossy(&narrow.stderr)
    );
    std::fs::copy(cache.join("path.bdd"), cache.join("edge.bdd")).unwrap();
    // Three instances of an 8-bit `V`: 24 variables.
    let wide = run(256);
    let stderr = String::from_utf8_lossy(&wide.stderr);
    assert_eq!(wide.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error[E016]"), "{stderr}");
    assert!(stderr.contains("edge.bdd"), "{stderr}");
    assert!(
        stderr.contains("has 18 variables but this manager has 24"),
        "{stderr}"
    );
    assert!(stderr.contains("another domain layout"), "{stderr}");
    assert!(stderr.contains("deleted"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
