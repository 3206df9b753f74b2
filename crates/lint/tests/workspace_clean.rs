//! The workspace itself must lint clean — this makes `cargo test` a
//! determinism/panic-freedom/lock-discipline gate even without the CI
//! `ctlint` step.

use ct_lint::{Config, Linter};

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_sources_have_no_unsuppressed_findings() {
    let root = workspace_root();
    let files = ct_lint::workspace_files(&root).expect("enumerate workspace sources");
    assert!(files.len() > 50, "expected the full workspace, found {} files", files.len());
    let mut linter = Linter::new(Config::workspace());
    for path in &files {
        let rel: String = path
            .strip_prefix(&root)
            .expect("workspace file under root")
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(path).expect("read workspace source");
        linter.check_file(&rel, &src);
    }
    let findings = linter.finish();
    assert!(
        findings.is_empty(),
        "ctlint findings in the workspace:\n{}",
        findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

/// A `heavy_calls` name that no function carries watches nothing: a
/// rename or a deleted entry point would take the lock-discipline rule off
/// that work without any finding.
#[test]
fn every_heavy_call_names_a_workspace_fn() {
    let root = workspace_root();
    let mut defined = std::collections::BTreeSet::new();
    for path in ct_lint::workspace_files(&root).expect("enumerate workspace sources") {
        let src = std::fs::read_to_string(&path).expect("read workspace source");
        let code: Vec<_> =
            ct_lint::tokenize(&src).into_iter().filter(|t| !t.is_comment()).collect();
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
