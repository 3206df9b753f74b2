//! `ctlint` — the workspace lint gate.
//!
//! Usage: `ctlint [--root <path>] [--list-rules]`
//!
//! Lints every `.rs` file under `<root>/src` and `<root>/crates/*/src`
//! with the workspace policy ([`ct_lint::Config::workspace`]), reading
//! examples, benches and perfbench as `dead-pub` callers, and exits
//! nonzero when any unsuppressed finding remains. With no `--root`, the
//! workspace root is found by walking up from the current directory to
//! the first `Cargo.toml` containing `[workspace]`.

use std::path::PathBuf;
use std::process::ExitCode;

use ct_lint::{rule, Config, CALLER_TREES};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("ctlint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in rule::SUPPRESSIBLE {
                    println!("{r}");
                }
                println!("{}", rule::BAD_ALLOW);
                println!("{}", rule::UNUSED_ALLOW);
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ctlint: unknown argument `{other}` (usage: ctlint [--root <path>] [--list-rules])");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("ctlint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let report = match ct_lint::lint_workspace(&root, &Config::workspace(), &CALLER_TREES) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ctlint: cannot read sources under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    if report.findings.is_empty() {
        println!("ctlint: {} files clean", report.checked);
        ExitCode::SUCCESS
    } else {
        println!("ctlint: {} finding(s) in {} files", report.findings.len(), report.checked);
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to a `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
