//! The workspace itself must lint clean — this makes `cargo test` a
//! determinism/panic-freedom/lock-discipline/dead-API gate even without
//! the CI `ctlint` step. It runs the same entry point as `ctlint`.

use ct_lint::{lint_workspace, Config, CALLER_TREES, LINT_TREES};

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_sources_have_no_unsuppressed_findings() {
    let report = lint_workspace(&workspace_root(), &Config::workspace(), &CALLER_TREES)
        .expect("read sources");
    assert!(report.checked > 50, "expected the full workspace, found {} files", report.checked);
    assert!(
        report.findings.is_empty(),
        "ctlint findings in the workspace:\n{}",
        report.findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

/// `dead-pub` is only as good as its caller set: an API that only
/// perfbench or a bench reaches must turn into a finding when that tree is
/// not read, or the tree has silently dropped out of the set.
#[test]
fn bench_and_perfbench_trees_are_callers() {
    let root = workspace_root();
    for (dropped, only_there) in [
        (&["perfbench/src", "crates/*/benches"][..], "compute_deltas_with_threads"),
        (&["perfbench/src"][..], "block_krylov_topk_warm"),
        (&["crates/*/benches"][..], "rescan_bound"),
    ] {
        for tree in dropped {
            assert!(CALLER_TREES.contains(tree), "{tree} is not a caller tree");
        }
        let callers: Vec<&str> =
            CALLER_TREES.into_iter().filter(|t| !dropped.contains(t)).collect();
        let dead: Vec<String> = lint_workspace(&root, &Config::workspace(), &callers)
            .expect("read sources")
            .findings
            .into_iter()
            .filter(|f| f.rule == "dead-pub")
            .map(|f| f.message)
            .collect();
        assert!(
            dead.iter().any(|m| m.contains(&format!("`pub fn {only_there}`"))),
            "without {dropped:?}, {only_there} should be dead; dead-pub findings: {dead:?}"
        );
    }
}

/// A `heavy_calls` name that no function carries watches nothing: a
/// rename or a deleted entry point would take the lock-discipline rule off
/// that work without any finding.
#[test]
fn every_heavy_call_names_a_workspace_fn() {
    let mut defined = std::collections::BTreeSet::new();
    for file in ct_lint::workspace_sources(&workspace_root(), &LINT_TREES).expect("read") {
        let code: Vec<_> =
            ct_lint::tokenize(&file.text).into_iter().filter(|t| !t.is_comment()).collect();
        for pair in code.windows(2) {
            if pair[0].is_ident("fn") && pair[1].kind == ct_lint::TokKind::Ident {
                defined.insert(pair[1].text.to_string());
            }
        }
    }
    let missing: Vec<_> =
        Config::workspace().heavy_calls.into_iter().filter(|c| !defined.contains(c)).collect();
    assert!(missing.is_empty(), "heavy_calls names no fn in the workspace: {missing:?}");
}
