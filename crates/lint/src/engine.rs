//! The rule engine: file context, suppression comments, the cross-file
//! [`Linter`], and the [`lint_workspace`] entry point.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok};
use crate::rules::{self, LockEdge, PubFn};

/// Rule identifiers (the names `ctlint::allow(...)` accepts).
pub mod rule {
    /// Iteration over `HashMap`/`HashSet` in deterministic algorithm code.
    pub const NONDET_ITER: &str = "nondet-iter";
    /// `Instant::now`/`SystemTime::now` outside timing-accounting modules.
    pub const WALL_CLOCK: &str = "wall-clock";
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/bare indexing on the
    /// panic-free serve path.
    pub const PANIC_PATH: &str = "panic-path";
    /// Inconsistent lock ordering, self-nesting, or a guard held across
    /// planner/apply work.
    pub const LOCK_DISCIPLINE: &str = "lock-discipline";
    /// Missing `#![forbid(unsafe_code)]` on a crate root, or `unsafe`
    /// appearing anywhere in workspace code.
    pub const FORBID_UNSAFE: &str = "forbid-unsafe";
    /// A library `pub fn` that no non-test code names.
    pub const DEAD_PUB: &str = "dead-pub";
    /// Malformed suppression: unknown rule name or missing justification.
    pub const BAD_ALLOW: &str = "bad-allow";
    /// A suppression comment that silenced nothing.
    pub const UNUSED_ALLOW: &str = "unused-allow";

    /// Every rule a suppression comment may name.
    pub const SUPPRESSIBLE: [&str; 6] =
        [NONDET_ITER, WALL_CLOCK, PANIC_PATH, LOCK_DISCIPLINE, FORBID_UNSAFE, DEAD_PUB];
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (see [`rule`]).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Workspace-specific configuration: which rule applies where.
///
/// All path fields hold workspace-relative prefixes with forward slashes;
/// a file is in scope when its path starts with any listed prefix (so
/// `crates/core/src/` scopes a directory and `crates/core/src/serve.rs` a
/// single file).
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files the nondeterministic-iteration rule applies to (the
    /// algorithm crates whose output is bit-identity-contracted).
    pub nondet_paths: Vec<String>,
    /// Files **exempt** from the wall-clock rule (benchmarks, latency
    /// accounting); the rule applies everywhere else.
    pub wallclock_allowed_paths: Vec<String>,
    /// Files the panic-freedom rule applies to (the serve path).
    pub panic_paths: Vec<String>,
    /// Files the lock-discipline rule applies to.
    pub lock_paths: Vec<String>,
    /// Function names considered "planner/apply work": calling one while
    /// holding a lock guard is a lock-discipline finding.
    pub heavy_calls: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub forbid_unsafe_libs: Vec<String>,
}

/// Directories whose `.rs` files [`lint_workspace`] checks with every rule.
/// A `*` segment stands for each member directory.
pub const LINT_TREES: [&str; 2] = ["src", "crates/*/src"];

/// Directories `ctlint` reads only as callers for `dead-pub`: examples,
/// benches and the repository benchmark reach library API without being
/// library code themselves, so no rule runs on them.
pub const CALLER_TREES: [&str; 3] = ["examples", "crates/*/benches", "perfbench/src"];

impl Config {
    /// The CT-Bus workspace policy (what `ctlint` and CI enforce).
    pub fn workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect();
        Config {
            // Determinism contracts: planner output is bit-identical under
            // any thread count; these crates are the proof obligation.
            nondet_paths: s(&[
                "crates/core/src/",
                "crates/linalg/src/",
                "crates/graph/src/",
                "crates/data/src/ingest.rs",
            ]),
            // Timing accounting is legitimate in benchmarks, the CLI
            // driver, serve-path latency tracking, and plan metrics.
            wallclock_allowed_paths: s(&[
                "crates/bench/src/",
                "crates/core/src/serve.rs",
                "crates/core/src/metrics.rs",
                "src/",
            ]),
            // The serve commit path must never panic (PR 7 contract).
            panic_paths: s(&["crates/core/src/serve.rs", "crates/core/src/fault.rs"]),
            // Everything that touches the commit queue or shared caches.
            lock_paths: s(&["crates/core/src/", "crates/data/src/"]),
            heavy_calls: s(&[
                "plan",
                "plan_with_threads",
                "execute_plan",
                "apply_plan",
                "build_with",
                "assemble",
                "sweep_deltas",
                "spectrum_head",
                "block_krylov_head",
                "shortest_paths_batch",
                "realize",
                "import",
                "import_dir",
                "commit",
                "apply_and_publish",
                "run_item",
            ]),
            forbid_unsafe_libs: s(&[
                "crates/bench/src/lib.rs",
                "crates/core/src/lib.rs",
                "crates/data/src/lib.rs",
                "crates/graph/src/lib.rs",
                "crates/lint/src/lib.rs",
                "crates/linalg/src/lib.rs",
                "crates/match/src/lib.rs",
                "crates/spatial/src/lib.rs",
                "src/lib.rs",
            ]),
        }
    }

    pub(crate) fn in_scope(paths: &[String], file: &str) -> bool {
        paths.iter().any(|p| file.starts_with(p.as_str()))
    }
}

/// Lexed file plus the structural facts every rule needs.
pub(crate) struct FileCtx<'a> {
    pub path: String,
    /// All tokens, comments included.
    pub toks: Vec<Tok<'a>>,
    /// Indices into `toks` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Per **code index**: true iff the token sits inside a
    /// `#[cfg(test)]` item or a `#[test]` function (rules skip those).
    pub excluded: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: &str, src: &'a str) -> FileCtx<'a> {
        let toks = lexer::tokenize(src);
        let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut ctx = FileCtx { path: path.to_string(), toks, code, excluded: Vec::new() };
        ctx.excluded = ctx.compute_excluded();
        ctx
    }

    /// The code token at code index `ci`.
    pub fn ct(&self, ci: usize) -> &Tok<'a> {
        &self.toks[self.code[ci]]
    }

    /// Number of code tokens.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Code token at `ci` if in range.
    pub fn get(&self, ci: usize) -> Option<&Tok<'a>> {
        self.code.get(ci).map(|&i| &self.toks[i])
    }

    /// Marks every code token inside `#[cfg(test)]` items and `#[test]`
    /// functions: test code may unwrap, time, and iterate freely.
    fn compute_excluded(&self) -> Vec<bool> {
        let mut excluded = vec![false; self.code.len()];
        let mut ci = 0;
        while ci < self.len() {
            if self.ct(ci).is_punct('#') && self.get(ci + 1).is_some_and(|t| t.is_punct('[')) {
                let close = self.matching(ci + 1, '[', ']');
                // `#[cfg(test)]` (with any extra predicates) or a bare `#[test]`.
                let is_cfg_test = (ci + 2..close).any(|j| self.ct(j).is_ident("cfg"))
                    && (ci + 2..close).any(|j| self.ct(j).is_ident("test"));
                let is_test_attr =
                    is_cfg_test || (close == ci + 3 && self.ct(ci + 2).is_ident("test"));
                if is_test_attr {
                    // Skip any further attributes, then the item.
                    let mut j = close + 1;
                    while self.get(j).is_some_and(|t| t.is_punct('#'))
                        && self.get(j + 1).is_some_and(|t| t.is_punct('['))
                    {
                        j = self.matching(j + 1, '[', ']') + 1;
                    }
                    let end = self.item_end(j);
                    for slot in excluded.iter_mut().take(end.min(self.len())).skip(ci) {
                        *slot = true;
                    }
                    ci = end;
                    continue;
                }
                ci = close + 1;
                continue;
            }
            ci += 1;
        }
        excluded
    }

    /// Code index just past the item starting at `ci`: through the
    /// matching `}` of its body, or past a terminating `;`.
    pub fn item_end(&self, ci: usize) -> usize {
        let mut j = ci;
        let mut paren = 0i32;
        while let Some(t) = self.get(j) {
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct(';') && paren == 0 {
                return j + 1;
            } else if t.is_punct('{') && paren == 0 {
                return self.matching(j, '{', '}') + 1;
            }
            j += 1;
        }
        self.len()
    }

    /// Code index of the closer matching the opener at code index `open`.
    /// Returns the last index when unbalanced (EOF recovery).
    pub fn matching(&self, open: usize, op: char, cl: char) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while let Some(t) = self.get(j) {
            if t.is_punct(op) {
                depth += 1;
            } else if t.is_punct(cl) {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            j += 1;
        }
        self.len().saturating_sub(1)
    }
}

/// A parsed `// ctlint::allow(rule): reason` comment.
#[derive(Debug)]
struct Suppression {
    rule: String,
    /// Line the comment is on. A trailing comment silences findings on
    /// its own line; a comment alone on its line silences the next line.
    line: u32,
    /// True when no code precedes the comment on its line.
    own_line: bool,
    used: bool,
}

/// Parses suppression comments out of a token stream. Returns
/// `(suppressions, malformed)` where malformed entries are `bad-allow`
/// findings-to-be.
fn parse_suppressions(path: &str, toks: &[Tok<'_>]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut out = Vec::new();
    let mut bad = Vec::new();
    let mut last_code_line = 0u32;
    for t in toks {
        if !t.is_comment() {
            last_code_line = t.line;
            continue;
        }
        let own_line = t.line != last_code_line;
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = body.strip_prefix("ctlint::allow") else { continue };
        let mut emit_bad = |why: &str| {
            bad.push(Finding {
                rule: rule::BAD_ALLOW,
                path: path.to_string(),
                line: t.line,
                message: why.to_string(),
            });
        };
        let Some(rest) = rest.trim_start().strip_prefix('(') else {
            emit_bad("malformed suppression: expected `ctlint::allow(<rule>): <reason>`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            emit_bad("malformed suppression: missing `)` after rule name");
            continue;
        };
        let name = rest[..close].trim();
        if !rule::SUPPRESSIBLE.contains(&name) {
            emit_bad(&format!(
                "unknown rule `{name}` in suppression (known: {})",
                rule::SUPPRESSIBLE.join(", ")
            ));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            emit_bad(&format!(
                "suppression of `{name}` has no justification: write \
                 `ctlint::allow({name}): <why this is sound>`"
            ));
            continue;
        }
        out.push(Suppression { rule: name.to_string(), line: t.line, own_line, used: false });
    }
    (out, bad)
}

/// The cross-file lint driver: feed it files, then [`Linter::finish`].
///
/// ```
/// use ct_lint::{Config, Linter};
/// let cfg = Config { panic_paths: vec!["src/".into()], ..Config::default() };
/// let mut linter = Linter::new(cfg);
/// linter.check_file("src/a.rs", "fn f(v: &[u32]) -> u32 { v[0] }");
/// let findings = linter.finish();
/// assert_eq!(findings.len(), 1);
/// assert_eq!(findings[0].rule, "panic-path");
/// ```
pub struct Linter {
    cfg: Config,
    findings: Vec<Finding>,
    suppressions: Vec<(String, Vec<Suppression>)>,
    lock_edges: Vec<LockEdge>,
    /// `pub fn` definitions awaiting the caller count.
    pub_fns: Vec<PubFn>,
    /// Non-test identifier tokens outside `use` declarations, by name.
    idents: BTreeMap<String, usize>,
}

impl Linter {
    /// A linter enforcing `cfg`.
    pub fn new(cfg: Config) -> Linter {
        Linter {
            cfg,
            findings: Vec::new(),
            suppressions: Vec::new(),
            lock_edges: Vec::new(),
            pub_fns: Vec::new(),
            idents: BTreeMap::new(),
        }
    }

    /// Lints one file. `path` must be workspace-relative with forward
    /// slashes — rule scoping and reports both key on it.
    pub fn check_file(&mut self, path: &str, src: &str) {
        let ctx = FileCtx::new(path, src);
        let (sup, bad) = parse_suppressions(path, &ctx.toks);
        self.findings.extend(bad);

        let mut raw = Vec::new();
        if Config::in_scope(&self.cfg.nondet_paths, path) {
            rules::nondet_iter(&ctx, &mut raw);
        }
        if !Config::in_scope(&self.cfg.wallclock_allowed_paths, path) {
            rules::wall_clock(&ctx, &mut raw);
        }
        if Config::in_scope(&self.cfg.panic_paths, path) {
            rules::panic_path(&ctx, &mut raw);
        }
        if Config::in_scope(&self.cfg.lock_paths, path) {
            rules::lock_discipline(&ctx, &self.cfg, &mut raw, &mut self.lock_edges);
        }
        rules::forbid_unsafe(&ctx, &self.cfg, &mut raw);
        // A binary's `pub fn`s are unreachable from outside it anyway.
        let defines_api = !path.split('/').any(|dir| dir == "bin");
        rules::count_idents(&ctx, &mut self.idents, defines_api.then_some(&mut self.pub_fns));

        let mut sup = sup;
        raw.retain(|f| !suppress(&mut sup, f));
        self.findings.extend(raw);
        self.suppressions.push((path.to_string(), sup));
    }

    /// Reads a file only as a caller: its non-test identifiers keep
    /// `pub fn`s alive for `dead-pub`, and no rule runs on it.
    pub fn read_caller(&mut self, path: &str, src: &str) {
        rules::count_idents(&FileCtx::new(path, src), &mut self.idents, None);
    }

    /// Finalizes: resolves the cross-file rules (lock-ordering conflicts
    /// and `dead-pub`), reports unused suppressions, and returns all
    /// findings sorted by `(path, line, rule)`.
    pub fn finish(mut self) -> Vec<Finding> {
        let mut cross_file = rules::ordering_conflicts(&self.lock_edges);
        cross_file.extend(rules::dead_pub(&self.pub_fns, &self.idents));
        // Cross-file findings may still be suppressed at their sites.
        for (path, sup) in &mut self.suppressions {
            cross_file.retain(|f| f.path != *path || !suppress(sup, f));
        }
        self.findings.extend(cross_file);
        for (path, sup) in &self.suppressions {
            for s in sup.iter().filter(|s| !s.used) {
                self.findings.push(Finding {
                    rule: rule::UNUSED_ALLOW,
                    path: path.clone(),
                    line: s.line,
                    message: format!(
                        "suppression of `{}` matches no finding on this or the next line; \
                         remove it (stale allows hide future regressions)",
                        s.rule
                    ),
                });
            }
        }
        self.findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        self.findings
    }
}

/// True iff `f` is silenced by a suppression on its own line or the line
/// above (marking that suppression used).
fn suppress(sup: &mut [Suppression], f: &Finding) -> bool {
    for s in sup.iter_mut() {
        if s.rule == f.rule && (s.line == f.line || (s.own_line && s.line + 1 == f.line)) {
            s.used = true;
            return true;
        }
    }
    false
}

/// One source file read by [`workspace_sources`].
#[derive(Debug, Clone)]
pub struct Source {
    /// Workspace-relative path with forward slashes (rule scoping and
    /// reports key on it).
    pub path: String,
    /// File contents.
    pub text: String,
}

/// Every `.rs` file under `trees` (workspace-relative directories; a `*`
/// segment stands for each member directory), sorted by path. Trees that
/// do not exist contribute nothing.
pub fn workspace_sources(root: &Path, trees: &[&str]) -> std::io::Result<Vec<Source>> {
    let mut files = Vec::new();
    for tree in trees {
        let dirs = match tree.split_once("/*/") {
            None => vec![root.join(tree)],
            Some((parent, rest)) if root.join(parent).is_dir() => {
                std::fs::read_dir(root.join(parent))?
                    .filter_map(|e| e.ok().map(|e| e.path().join(rest)))
                    .collect()
            }
            Some(_) => Vec::new(),
        };
        for dir in dirs.into_iter().filter(|d| d.is_dir()) {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    files
        .into_iter()
        .map(|file| {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            let path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = std::fs::read_to_string(&file)
                .map_err(|e| std::io::Error::new(e.kind(), format!("{path}: {e}")))?;
            Ok(Source { path, text })
        })
        .collect()
}

/// The outcome of [`lint_workspace`].
#[derive(Debug)]
pub struct Report {
    /// Number of files checked (caller-only files not counted).
    pub checked: usize,
    /// Unsuppressed findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
}

/// Lints the workspace at `root`: every file under [`LINT_TREES`] is
/// checked, and every file under `caller_trees` (`ctlint` passes
/// [`CALLER_TREES`]) is read as a caller for `dead-pub`. This is the
/// entry point `ctlint` and the workspace gate test share.
pub fn lint_workspace(root: &Path, cfg: &Config, caller_trees: &[&str]) -> std::io::Result<Report> {
    let mut linter = Linter::new(cfg.clone());
    let checked = workspace_sources(root, &LINT_TREES)?;
    for file in &checked {
        linter.check_file(&file.path, &file.text);
    }
    for file in workspace_sources(root, caller_trees)? {
        linter.read_caller(&file.path, &file.text);
    }
    Ok(Report { checked: checked.len(), findings: linter.finish() })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
