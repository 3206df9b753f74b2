//! Fixture-driven tests for the rule engine.
//!
//! Each file under `tests/fixtures/` is linted (never compiled) with a
//! config that scopes the rule family under test to the fixture, and its
//! expected findings are encoded inline as `//~ <rule>` markers: the
//! lint report must match the markers exactly — same lines, same rules,
//! same multiplicity. Known-good fixtures simply carry no markers.

use ct_lint::{Config, Finding, Linter};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(line, rule)` pairs declared by `//~` markers, sorted.
fn expected(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                out.push((i as u32 + 1, rule.to_string()));
            }
        }
    }
    out.sort();
    out
}

/// Scopes the rule family under test to the fixture path.
fn config_for(stem: &str, path: &str) -> Config {
    let fix = vec!["fix/".to_string()];
    let mut cfg = Config {
        heavy_calls: vec!["plan".to_string(), "commit".to_string(), "run_item".to_string()],
        ..Config::default()
    };
    match stem {
        "nondet_bad" | "nondet_good" => cfg.nondet_paths = fix,
        "wallclock_bad" => {} // empty allowlist: the rule applies everywhere
        "panic_bad" | "suppressed" | "bad_allow" => cfg.panic_paths = fix,
        "lock_bad" | "lock_good" => cfg.lock_paths = fix,
        "unsafe_bad" => cfg.forbid_unsafe_libs = vec![path.to_string()],
        "dead_pub" => {} // applies to every linted file outside `bin/`
        other => panic!("fixture {other} has no config mapping"),
    }
    cfg
}

/// Lints `tests/fixtures/<stem>.rs` and compares against its markers.
fn check(stem: &str) {
    check_with_callers(stem, &[]);
}

/// [`check`], with `callers` (fixture file names) read as caller-only
/// files, the way `ctlint` reads benches, examples and perfbench.
fn check_with_callers(stem: &str, callers: &[&str]) {
    let src = fixture(&format!("{stem}.rs"));
    let path = format!("fix/{stem}.rs");
    let mut linter = Linter::new(config_for(stem, &path));
    linter.check_file(&path, &src);
    for name in callers {
        linter.read_caller(&format!("benches/{name}"), &fixture(name));
    }
    let findings: Vec<Finding> = linter.finish();
    let mut got: Vec<(u32, String)> =
        findings.iter().map(|f| (f.line, f.rule.to_string())).collect();
    got.sort();
    let want = expected(&src);
    assert_eq!(
        got,
        want,
        "fixture {stem}: findings (left) do not match //~ markers (right);\nreport:\n{}",
        findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn nondet_bad_flags_each_site() {
    check("nondet_bad");
}

#[test]
fn nondet_good_is_clean() {
    check("nondet_good");
}

#[test]
fn wallclock_bad_flags_both_clocks() {
    check("wallclock_bad");
}

#[test]
fn panic_bad_flags_and_silent_shapes_pass() {
    check("panic_bad");
}

#[test]
fn lock_bad_flags_nesting_ordering_and_heavy_calls() {
    check("lock_bad");
}

#[test]
fn lock_good_is_clean() {
    check("lock_good");
}

#[test]
fn suppression_silences_exactly_one_finding() {
    check("suppressed");
}

#[test]
fn bad_and_stale_allows_are_findings() {
    check("bad_allow");
}

#[test]
fn unsafe_audit_flags_missing_attr_and_usage() {
    check("unsafe_bad");
}

#[test]
fn dead_pub_flags_fns_without_a_non_test_caller() {
    check_with_callers("dead_pub", &["dead_pub_caller.rs"]);
}

#[test]
fn dead_pub_counts_callers_only_in_caller_files() {
    // Without the caller file the bench-only fn is dead too, and the
    // allow over the called fn now silences a real finding.
    let src = fixture("dead_pub.rs");
    let mut linter = Linter::new(config_for("dead_pub", "fix/dead_pub.rs"));
    linter.check_file("fix/dead_pub.rs", &src);
    let dead: Vec<u32> = linter
        .finish()
        .iter()
        .inspect(|f| assert_eq!(f.rule, "dead-pub", "{f}"))
        .map(|f| f.line)
        .collect();
    let line_of = |name: &str| {
        src.lines().position(|l| l.contains(&format!("pub fn {name}("))).unwrap() as u32 + 1
    };
    let want: Vec<u32> = [
        "never_called",
        "called_from_a_bench",
        "imported_but_never_called",
        "only_calls_itself",
        "level",
    ]
    .into_iter()
    .map(line_of)
    .collect();
    assert_eq!(dead, want);
}

#[test]
fn lock_ordering_conflicts_resolve_across_files() {
    let cfg = Config { lock_paths: vec!["fix/".to_string()], ..Config::default() };
    let one = "fn f(s: &S) -> u32 {\n    let g = s.a.lock().unwrap();\n    let h = s.b.lock().unwrap();\n    *g + *h\n}\n";
    let two = "fn g(s: &S) -> u32 {\n    let g = s.b.lock().unwrap();\n    let h = s.a.lock().unwrap();\n    *g + *h\n}\n";
    let mut linter = Linter::new(cfg.clone());
    linter.check_file("fix/one.rs", one);
    linter.check_file("fix/two.rs", two);
    let findings = linter.finish();
    assert_eq!(findings.len(), 2, "one conflict finding per site: {findings:?}");
    assert!(findings.iter().any(|f| f.path == "fix/one.rs" && f.message.contains("fix/two.rs")));
    assert!(findings.iter().any(|f| f.path == "fix/two.rs" && f.message.contains("fix/one.rs")));

    // The same two files with a consistent order are clean.
    let mut linter = Linter::new(cfg);
    linter.check_file("fix/one.rs", one);
    linter.check_file("fix/three.rs", one);
    assert!(linter.finish().is_empty());
}
