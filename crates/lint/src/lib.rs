//! `ct_lint`: workspace-native static analysis for the CT-Bus
//! reproduction.
//!
//! The reproduction rests on contracts no compiler checks: bit-identity
//! of planner output under any thread count, panic-freedom on the serve
//! commit path, and deadlock-freedom of the single-writer commit queue.
//! This crate tokenizes the workspace sources with a small hand-rolled
//! lexer (dependency-free by design — the linter is a CI gate and must
//! never be the thing that breaks the build) and enforces five rule
//! families over the token streams:
//!
//! * `nondet-iter` — iteration over `HashMap`/`HashSet` in the
//!   algorithm crates, where order leaks into bit-contracted output;
//! * `wall-clock` — `Instant::now`/`SystemTime::now` outside the
//!   allowlisted timing modules;
//! * `panic-path` — `unwrap`/`expect`/`panic!`/`unreachable!`/bare
//!   indexing on the panic-free serve path;
//! * `lock-discipline` — nested lock acquisitions with inconsistent
//!   ordering, and guards held across planner/apply calls;
//! * `dead-pub` — library `pub fn`s that no non-test code names
//!   (examples, benches and perfbench count as callers);
//!
//! plus an `unsafe` audit (`forbid-unsafe`). Every rule honours
//! `// ctlint::allow(<rule>): <reason>` suppressions with a mandatory
//! justification; stale or malformed suppressions are findings
//! themselves. See `docs/LINTS.md` for the full policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod lexer;
mod rules;

pub use engine::{
    lint_workspace, rule, workspace_sources, Config, Finding, Linter, Report, Source, CALLER_TREES,
    LINT_TREES,
};
pub use lexer::{is_keyword, tokenize, Tok, TokKind};
