//! The rule families.
//!
//! Each rule is a pure function over a [`FileCtx`] token stream. They are
//! deliberately heuristic — token-level pattern matching, not type
//! inference — tuned so that every miss is a false *negative* a human
//! review can still catch, while false positives stay rare enough that a
//! justified `ctlint::allow` is a reasonable ask.

use crate::engine::{rule, Config, FileCtx, Finding};
use crate::lexer::is_keyword;
use std::collections::{BTreeMap, BTreeSet};

/// Iterator-producing methods whose order is arbitrary on hash containers.
const ITER_FNS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
];

/// Chain adapters that keep a lock-guard expression "still the guard"
/// (poison handling and friends), for deciding `let g = x.lock()...;`.
const GUARD_ADAPTERS: [&str; 5] = ["unwrap", "expect", "unwrap_or_else", "map_err", "into_inner"];

/// Consumers that make iteration order irrelevant (or explicitly restore
/// order) when they appear later in the same statement.
fn order_normalizing(text: &str) -> bool {
    text.starts_with("sort")
        || text.starts_with("BTree")
        || text.starts_with("min")
        || text.starts_with("max")
        || matches!(text, "count" | "len" | "all" | "any" | "sum" | "contains")
}

fn finding(ctx: &FileCtx, rule: &'static str, line: u32, message: String) -> Finding {
    Finding { rule, path: ctx.path.clone(), line, message }
}

/// Walks back from code index `j` over `ident`, `ident.ident`, and
/// trailing `[...]` index groups to the base identifier of a receiver
/// expression. Returns the dotted path (`self.writer`, `shared.batch`)
/// and the code index of its first token.
fn receiver(ctx: &FileCtx, mut j: usize) -> Option<(String, usize)> {
    let mut parts: Vec<&str> = Vec::new();
    loop {
        // Skip a trailing index group: `adj[v as usize]` → `adj`.
        while ctx.get(j).is_some_and(|t| t.is_punct(']')) {
            let mut depth = 0i32;
            loop {
                let t = ctx.get(j)?;
                if t.is_punct(']') {
                    depth += 1;
                } else if t.is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j = j.checked_sub(1)?;
            }
            j = j.checked_sub(1)?;
        }
        let t = ctx.get(j)?;
        if t.kind != crate::lexer::TokKind::Ident || (is_keyword(t.text) && t.text != "self") {
            return None;
        }
        parts.push(t.text);
        if j >= 2 && ctx.ct(j - 1).is_punct('.') {
            j -= 2;
        } else {
            break;
        }
    }
    parts.reverse();
    Some((parts.join("."), j))
}

/// Rule 1: nondeterministic iteration over `HashMap`/`HashSet`.
pub(crate) fn nondet_iter(ctx: &FileCtx, out: &mut Vec<Finding>) {
    // Pass A: names whose declared type or initializer mentions a hash
    // container — `let`/field/param declarations with `: …HashMap…`,
    // untyped `let name = …HashMap::…` initializers, and `let name =
    // f(…)` bindings where `f` is a same-file function whose declared
    // return type mentions one (Pass A0 below).
    let mut hashy: BTreeSet<&str> = BTreeSet::new();
    let is_hash =
        |ci: usize| ctx.get(ci).is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));

    // Pass A0: functions declared `fn name(…) -> …HashMap…`. Calling one
    // in a `let` initializer (free or as a method, `recv.name(…)`) makes
    // the binding hashy even though no hash type appears at the call site.
    let mut hash_fns: BTreeSet<&str> = BTreeSet::new();
    for ci in 0..ctx.len() {
        if ctx.excluded[ci] || !ctx.ct(ci).is_ident("fn") {
            continue;
        }
        let Some(name) = ctx
            .get(ci + 1)
            .filter(|n| n.kind == crate::lexer::TokKind::Ident && !is_keyword(n.text))
        else {
            continue;
        };
        // Parameter list (first `(` past any generics), then `-> Type`.
        let mut open = ci + 2;
        while ctx.get(open).is_some_and(|n| !n.is_punct('(')) && open <= ci + 64 {
            open += 1;
        }
        if !ctx.get(open).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let close = ctx.matching(open, '(', ')');
        if !(ctx.get(close + 1).is_some_and(|n| n.is_punct('-'))
            && ctx.get(close + 2).is_some_and(|n| n.is_punct('>')))
        {
            continue;
        }
        let mut j = close + 3;
        while let Some(n) = ctx.get(j) {
            if n.is_punct('{') || n.is_punct(';') || n.is_ident("where") || j > close + 48 {
                break;
            }
            if is_hash(j) {
                hash_fns.insert(name.text);
                break;
            }
            j += 1;
        }
    }

    for ci in 0..ctx.len() {
        if ctx.excluded[ci] {
            continue;
        }
        let t = ctx.ct(ci);
        // `name : Type` where the colon is single (not a `::` path).
        if t.kind == crate::lexer::TokKind::Ident
            && !is_keyword(t.text)
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct(':'))
            && !ctx.get(ci + 2).is_some_and(|n| n.is_punct(':'))
            && !(ci > 0 && ctx.ct(ci - 1).is_punct(':'))
        {
            let mut j = ci + 2;
            while let Some(n) = ctx.get(j) {
                if n.is_punct(',')
                    || n.is_punct(';')
                    || n.is_punct('=')
                    || n.is_punct(')')
                    || n.is_punct('{')
                    || n.is_punct('}')
                    || j > ci + 48
                {
                    break;
                }
                if is_hash(j) {
                    hashy.insert(t.text);
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = <init containing HashMap/HashSet>`.
        if t.is_ident("let") {
            let mut k = ci + 1;
            if ctx.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            let named = ctx
                .get(k)
                .filter(|n| n.kind == crate::lexer::TokKind::Ident && !is_keyword(n.text));
            if let Some(name) = named {
                if ctx.get(k + 1).is_some_and(|n| n.is_punct('=')) {
                    let mut j = k + 2;
                    let mut depth = 0i32;
                    while let Some(n) = ctx.get(j) {
                        if n.is_punct('(') || n.is_punct('[') || n.is_punct('{') {
                            depth += 1;
                        } else if n.is_punct(')') || n.is_punct(']') || n.is_punct('}') {
                            depth -= 1;
                        } else if n.is_punct(';') && depth <= 0 {
                            break;
                        }
                        // A hash type in the initializer, or a call to a
                        // function known (Pass A0) to return one.
                        let calls_hash_fn = n.kind == crate::lexer::TokKind::Ident
                            && hash_fns.contains(n.text)
                            && ctx.get(j + 1).is_some_and(|p| p.is_punct('('));
                        if is_hash(j) || calls_hash_fn {
                            hashy.insert(name.text);
                            break;
                        }
                        j += 1;
                    }
                }
            }
        }
    }

    // Pass B: flag iterations over tracked names.
    for ci in 0..ctx.len() {
        if ctx.excluded[ci] {
            continue;
        }
        let t = ctx.ct(ci);
        // `name.iter()` / `self.field.keys()` / `adj[i].values()` chains.
        if t.kind == crate::lexer::TokKind::Ident
            && ITER_FNS.contains(&t.text)
            && ci >= 2
            && ctx.ct(ci - 1).is_punct('.')
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some((name, _)) = receiver(ctx, ci - 2) {
                let base = name.rsplit('.').next().unwrap_or(&name);
                if hashy.contains(base) && !normalized_later(ctx, ci) {
                    out.push(finding(
                        ctx,
                        rule::NONDET_ITER,
                        t.line,
                        format!(
                            "`.{}()` on hash container `{name}` iterates in nondeterministic \
                             order; use a BTreeMap/BTreeSet, sort the results, or justify with \
                             `ctlint::allow(nondet-iter)`",
                            t.text
                        ),
                    ));
                }
            }
        }
        // `for pat in [&]name…` loops.
        if t.is_ident("for") {
            if let Some(f) = for_loop_over_hash(ctx, ci, &hashy) {
                out.push(f);
            }
        }
    }
}

/// Checks whether the `for` loop at code index `ci` iterates a tracked
/// hash container directly (`for x in &map`, `for (k, v) in &adj[i]`).
fn for_loop_over_hash(ctx: &FileCtx, ci: usize, hashy: &BTreeSet<&str>) -> Option<Finding> {
    // Find the `in` at bracket depth 0 (patterns may contain `(k, v)`).
    let mut j = ci + 1;
    let mut depth = 0i32;
    let in_at = loop {
        let t = ctx.get(j)?;
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') || t.is_punct(';') {
            return None; // not a for-loop header after all
        } else if t.is_ident("in") && depth == 0 {
            break j;
        }
        j += 1;
    };
    // Iterable: [&] [mut] name [.name]* [\[…\]] followed directly by `{`.
    let mut j = in_at + 1;
    while ctx.get(j).is_some_and(|t| t.is_punct('&') || t.is_ident("mut")) {
        j += 1;
    }
    let start = j;
    let base = ctx.get(j).filter(|t| {
        t.kind == crate::lexer::TokKind::Ident && (!is_keyword(t.text) || t.text == "self")
    })?;
    let mut name = String::from(base.text);
    j += 1;
    while ctx.get(j).is_some_and(|t| t.is_punct('.'))
        && ctx.get(j + 1).is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
    {
        name.push('.');
        name.push_str(ctx.ct(j + 1).text);
        j += 2;
    }
    if ctx.get(j).is_some_and(|t| t.is_punct('[')) {
        j = ctx.matching(j, '[', ']') + 1;
    }
    if !ctx.get(j).is_some_and(|t| t.is_punct('{')) {
        return None; // a method chain follows; the chain pattern handles it
    }
    let last = name.rsplit('.').next().unwrap_or(&name);
    if hashy.contains(last) {
        return Some(finding(
            ctx,
            rule::NONDET_ITER,
            ctx.ct(start).line,
            format!(
                "`for` loop over hash container `{name}` visits entries in nondeterministic \
                 order; use a BTreeMap/BTreeSet, sort first, or justify with \
                 `ctlint::allow(nondet-iter)`"
            ),
        ));
    }
    None
}

/// True if the rest of the statement consumes the iterator in an
/// order-insensitive way (`.count()`, `.sum()`, `collect::<BTreeMap…>`,
/// a `sort*` call, …).
fn normalized_later(ctx: &FileCtx, from: usize) -> bool {
    let mut depth = 0i32;
    for j in from..(from + 64).min(ctx.len()) {
        let t = ctx.ct(j);
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return false;
            }
        } else if t.is_punct(';') && depth <= 0 {
            return false;
        } else if t.kind == crate::lexer::TokKind::Ident && order_normalizing(t.text) {
            return true;
        }
    }
    false
}

/// Rule 2: wall-clock reads (`Instant::now`, `SystemTime::now`).
pub(crate) fn wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for ci in 0..ctx.len() {
        if ctx.excluded[ci] {
            continue;
        }
        let t = ctx.ct(ci);
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct(':'))
            && ctx.get(ci + 2).is_some_and(|n| n.is_punct(':'))
            && ctx.get(ci + 3).is_some_and(|n| n.is_ident("now"))
        {
            out.push(finding(
                ctx,
                rule::WALL_CLOCK,
                t.line,
                format!(
                    "`{}::now()` in a deterministic module: wall-clock reads belong in \
                     benchmarks/metrics/latency accounting, not kernels; move the timing out \
                     or justify with `ctlint::allow(wall-clock)`",
                    t.text
                ),
            ));
        }
    }
}

/// Rule 3: panic sources on the panic-free serve path.
pub(crate) fn panic_path(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for ci in 0..ctx.len() {
        if ctx.excluded[ci] {
            continue;
        }
        let t = ctx.ct(ci);
        // `.unwrap()` / `.expect(…)`.
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && ci >= 1
            && ctx.ct(ci - 1).is_punct('.')
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(finding(
                ctx,
                rule::PANIC_PATH,
                t.line,
                format!(
                    "`.{}()` on the panic-free serve path; handle the error or justify with \
                     `ctlint::allow(panic-path)`",
                    t.text
                ),
            ));
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if (t.is_ident("panic")
            || t.is_ident("unreachable")
            || t.is_ident("todo")
            || t.is_ident("unimplemented"))
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(finding(
                ctx,
                rule::PANIC_PATH,
                t.line,
                format!(
                    "`{}!` on the panic-free serve path; return an error or justify with \
                     `ctlint::allow(panic-path)`",
                    t.text
                ),
            ));
        }
        // Bare indexing `expr[…]`: a `[` whose previous token ends an
        // expression. Keyword predecessors (`in [a, b]`), attributes
        // (`#[…]`), macros (`vec![…]`), types, and slice patterns all
        // have non-expression predecessors and stay silent.
        if t.is_punct('[') && ci >= 1 {
            let p = ctx.ct(ci - 1);
            let indexes_expr = (p.kind == crate::lexer::TokKind::Ident && !is_keyword(p.text))
                || p.is_punct(')')
                || p.is_punct(']');
            let full_range = ctx.get(ci + 1).is_some_and(|a| a.is_punct('.'))
                && ctx.get(ci + 2).is_some_and(|a| a.is_punct('.'))
                && ctx.get(ci + 3).is_some_and(|a| a.is_punct(']'));
            if indexes_expr && !full_range {
                out.push(finding(
                    ctx,
                    rule::PANIC_PATH,
                    t.line,
                    "bare indexing can panic on out-of-range input; use `.get()` and handle \
                     `None`, or justify with `ctlint::allow(panic-path)`"
                        .to_string(),
                ));
            }
        }
    }
}

/// Rule: `unsafe` audit. Crate roots listed in the config must carry
/// `#![forbid(unsafe_code)]`; any `unsafe` token anywhere is flagged.
pub(crate) fn forbid_unsafe(ctx: &FileCtx, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.forbid_unsafe_libs.iter().any(|p| p == &ctx.path) {
        let has_attr = (0..ctx.len()).any(|ci| {
            ctx.ct(ci).is_punct('#')
                && ctx.get(ci + 1).is_some_and(|t| t.is_punct('!'))
                && ctx.get(ci + 2).is_some_and(|t| t.is_punct('['))
                && ctx.get(ci + 3).is_some_and(|t| t.is_ident("forbid"))
                && ctx.get(ci + 4).is_some_and(|t| t.is_punct('('))
                && ctx.get(ci + 5).is_some_and(|t| t.is_ident("unsafe_code"))
        });
        if !has_attr {
            out.push(finding(
                ctx,
                rule::FORBID_UNSAFE,
                1,
                "crate root is missing `#![forbid(unsafe_code)]`; every workspace crate \
                 forbids unsafe (vendored-stub interop exceptions need a justified allow)"
                    .to_string(),
            ));
        }
    }
    for ci in 0..ctx.len() {
        if !ctx.excluded[ci] && ctx.ct(ci).is_ident("unsafe") {
            out.push(finding(
                ctx,
                rule::FORBID_UNSAFE,
                ctx.ct(ci).line,
                "`unsafe` in a forbid(unsafe_code) workspace; remove it or justify with \
                 `ctlint::allow(forbid-unsafe)`"
                    .to_string(),
            ));
        }
    }
}

/// One observed "guard on `first` was live when `second` was acquired"
/// event, collected across files and resolved in
/// [`ordering_conflicts`].
#[derive(Debug, Clone)]
pub(crate) struct LockEdge {
    pub first: String,
    pub second: String,
    pub path: String,
    pub line: u32,
}

/// A live lock guard inside one function body.
struct Guard {
    name: Option<String>,
    recv: String,
    line: u32,
    /// Brace depth the guard's binding lives at; popped when the scope
    /// closes (or, for statement temporaries, at the next `;`).
    depth: i32,
    temp: bool,
}

/// An in-progress `let [mut] name = …;` whose initializer we are inside.
struct LetCtx {
    name: String,
    depth: i32,
    /// First initializer token is `loop`/`match` — the try-lock-loop
    /// idiom, where the guard escapes via `break`.
    init_kw: bool,
    bound: bool,
}

/// Rule 4: lock discipline. Tracks guard bindings per function; flags
/// same-receiver nesting and guards held across planner/apply calls;
/// records acquisition-order edges for cross-file conflict resolution.
pub(crate) fn lock_discipline(
    ctx: &FileCtx,
    cfg: &Config,
    out: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let mut ci = 0;
    while ci < ctx.len() {
        if !ctx.excluded[ci]
            && ctx.ct(ci).is_ident("fn")
            && ctx.get(ci + 1).is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
        {
            // Find the body `{` (first one at paren depth 0) or a `;`.
            let mut j = ci + 2;
            let mut paren = 0i32;
            let body = loop {
                match ctx.get(j) {
                    None => break None,
                    Some(t) if t.is_punct('(') => paren += 1,
                    Some(t) if t.is_punct(')') => paren -= 1,
                    Some(t) if t.is_punct(';') && paren == 0 => break None,
                    Some(t) if t.is_punct('{') && paren == 0 => break Some(j),
                    _ => {}
                }
                j += 1;
            };
            if let Some(open) = body {
                let close = ctx.matching(open, '{', '}');
                scan_fn_body(ctx, cfg, open, close, out, edges);
                ci = close + 1;
                continue;
            }
            ci = j + 1;
            continue;
        }
        ci += 1;
    }
}

/// True iff the lock call whose closing `)` is at code index `close_at`
/// is the final value of its statement (modulo poison-handling
/// adapters): `let g = x.lock().unwrap();` but not
/// `let n = x.lock().unwrap().paths.len();`.
fn chain_final(ctx: &FileCtx, close_at: usize) -> bool {
    let mut j = close_at + 1;
    loop {
        match ctx.get(j) {
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('.') => {
                let adapter = ctx.get(j + 1).is_some_and(|n| GUARD_ADAPTERS.contains(&n.text))
                    && ctx.get(j + 2).is_some_and(|n| n.is_punct('('));
                if !adapter {
                    return false;
                }
                j = ctx.matching(j + 2, '(', ')') + 1;
            }
            _ => return false,
        }
    }
}

fn scan_fn_body(
    ctx: &FileCtx,
    cfg: &Config,
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
    edges: &mut Vec<LockEdge>,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut lets: Vec<LetCtx> = Vec::new();
    let mut depth = 1i32;
    let mut ci = open + 1;
    while ci < close {
        let t = ctx.ct(ci);
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if t.is_punct(';') {
            guards.retain(|g| !(g.temp && g.depth >= depth));
            lets.retain(|l| l.depth < depth);
        } else if t.is_ident("let") {
            let mut k = ci + 1;
            if ctx.get(k).is_some_and(|n| n.is_ident("mut")) {
                k += 1;
            }
            let name = ctx
                .get(k)
                .filter(|n| n.kind == crate::lexer::TokKind::Ident && !is_keyword(n.text));
            if let Some(name) = name {
                // Skip an optional `: Type` annotation to the `=`.
                let mut e = k + 1;
                while ctx
                    .get(e)
                    .is_some_and(|n| !n.is_punct('=') && !n.is_punct(';') && !n.is_punct('{'))
                {
                    e += 1;
                }
                if ctx.get(e).is_some_and(|n| n.is_punct('=')) {
                    let init_kw =
                        ctx.get(e + 1).is_some_and(|n| n.is_ident("loop") || n.is_ident("match"));
                    lets.push(LetCtx { name: name.text.to_string(), depth, init_kw, bound: false });
                }
            }
        } else if t.is_ident("drop")
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct('('))
            && ctx.get(ci + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(dropped) = ctx.get(ci + 2) {
                guards.retain(|g| g.name.as_deref() != Some(dropped.text));
            }
        } else if matches!(t.text, "lock" | "try_lock" | "read" | "write")
            && t.kind == crate::lexer::TokKind::Ident
            && ci >= 2
            && ctx.ct(ci - 1).is_punct('.')
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct('('))
            && ctx.get(ci + 2).is_some_and(|n| n.is_punct(')'))
        {
            let recv = receiver(ctx, ci - 2).map(|(r, _)| r).unwrap_or_else(|| "<expr>".into());
            for g in &guards {
                if g.recv == recv {
                    out.push(finding(
                        ctx,
                        rule::LOCK_DISCIPLINE,
                        t.line,
                        format!(
                            "nested acquisition of `{recv}` while a guard on it from line {} \
                             is still live (self-deadlock risk)",
                            g.line
                        ),
                    ));
                } else {
                    edges.push(LockEdge {
                        first: g.recv.clone(),
                        second: recv.clone(),
                        path: ctx.path.clone(),
                        line: t.line,
                    });
                }
            }
            // Bind to the innermost unbound `let` (plain guard chain or
            // the `let g = loop { … try_lock … }` idiom); else it is a
            // statement temporary.
            let bindable = lets.last_mut().filter(|l| !l.bound);
            let guard = match bindable {
                Some(l) if l.init_kw || chain_final(ctx, ci + 2) => {
                    l.bound = true;
                    Guard {
                        name: Some(l.name.clone()),
                        recv,
                        line: t.line,
                        depth: l.depth,
                        temp: false,
                    }
                }
                _ => Guard { name: None, recv, line: t.line, depth, temp: true },
            };
            guards.push(guard);
        } else if t.kind == crate::lexer::TokKind::Ident
            && cfg.heavy_calls.iter().any(|h| h == t.text)
            && ctx.get(ci + 1).is_some_and(|n| n.is_punct('('))
            && !(ci > 0 && ctx.ct(ci - 1).is_ident("fn"))
            && !guards.is_empty()
        {
            let held: Vec<String> =
                guards.iter().map(|g| format!("`{}` (line {})", g.recv, g.line)).collect();
            out.push(finding(
                ctx,
                rule::LOCK_DISCIPLINE,
                t.line,
                format!(
                    "call to `{}()` while holding lock guard(s) on {}: planner/apply work \
                     under a lock stalls the commit queue; drop the guard first or justify \
                     with `ctlint::allow(lock-discipline)`",
                    t.text,
                    held.join(", ")
                ),
            ));
        }
        ci += 1;
    }
}

/// Resolves collected acquisition-order edges: if both `A → B` and
/// `B → A` exist anywhere in the workspace, every site of the pair is a
/// potential deadlock and gets a finding.
pub(crate) fn ordering_conflicts(edges: &[LockEdge]) -> Vec<Finding> {
    let mut directions: BTreeMap<(String, String), Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        directions.entry((e.first.clone(), e.second.clone())).or_default().push(e);
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for ((a, b), sites) in &directions {
        let reverse = directions.get(&(b.clone(), a.clone()));
        let Some(reverse) = reverse else { continue };
        for e in sites {
            if !seen.insert((e.path.clone(), e.line)) {
                continue;
            }
            let r = reverse[0];
            out.push(Finding {
                rule: rule::LOCK_DISCIPLINE,
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "lock order conflict: `{a}` is held while acquiring `{b}` here, but \
                     {}:{} acquires them in the opposite order (deadlock risk); pick one \
                     global order or justify with `ctlint::allow(lock-discipline)`",
                    r.path, r.line
                ),
            });
        }
    }
    out
}

/// A `pub fn` definition awaiting the workspace-wide caller count.
#[derive(Debug)]
pub(crate) struct PubFn {
    name: String,
    path: String,
    line: u32,
    /// Identifier tokens carrying the name inside the item itself (its
    /// own name and any recursive calls), subtracted from the count.
    own: usize,
}

/// Counts `ctx`'s non-test identifier tokens outside `use` declarations,
/// field names excluded (see [`names_a_field`]), into `idents`, and,
/// when `defs` is given, records each `pub fn` the file defines for
/// [`dead_pub`]. `pub(crate)`/`pub(super)`/`pub(in …)` fns are not API
/// and are skipped.
pub(crate) fn count_idents(
    ctx: &FileCtx,
    idents: &mut BTreeMap<String, usize>,
    defs: Option<&mut Vec<PubFn>>,
) {
    let mut counted = vec![false; ctx.len()];
    let mut ci = 0;
    while ci < ctx.len() {
        let t = ctx.ct(ci);
        if t.is_ident("use") && !ctx.excluded[ci] {
            // `use a::{b, c};` names nothing it calls.
            while ctx.get(ci).is_some_and(|t| !t.is_punct(';')) {
                ci += 1;
            }
            continue;
        }
        if t.kind == crate::lexer::TokKind::Ident
            && !is_keyword(t.text)
            && !ctx.excluded[ci]
            && !names_a_field(ctx, ci)
        {
            counted[ci] = true;
            *idents.entry(t.text.to_string()).or_default() += 1;
        }
        ci += 1;
    }
    let Some(defs) = defs else { return };
    for ci in 0..ctx.len() {
        if ctx.excluded[ci] || !ctx.ct(ci).is_ident("pub") {
            continue;
        }
        let mut j = ci + 1;
        while ctx.get(j).is_some_and(|t| {
            t.is_ident("const")
                || t.is_ident("async")
                || t.is_ident("unsafe")
                || t.is_ident("extern")
                || t.kind == crate::lexer::TokKind::Str
        }) {
            j += 1;
        }
        if !ctx.get(j).is_some_and(|t| t.is_ident("fn")) {
            continue;
        }
        let Some(name) = ctx.get(j + 1).filter(|t| t.kind == crate::lexer::TokKind::Ident) else {
            continue;
        };
        let end = ctx.item_end(j);
        let own = (j..end).filter(|&k| counted[k] && ctx.ct(k).text == name.text).count();
        defs.push(PubFn {
            name: name.text.to_string(),
            path: ctx.path.clone(),
            line: name.line,
            own,
        });
    }
}

/// Whether the identifier at `ci` names a field rather than a fn: a
/// `.name` access not followed by `(` or `::` (`self.len`, not
/// `self.len()`), or a `name:` before a single colon (a field's
/// declaration, initializer or pattern).
fn names_a_field(ctx: &FileCtx, ci: usize) -> bool {
    let colon = |j: usize| ctx.get(j).is_some_and(|t| t.is_punct(':'));
    let after_dot =
        ci >= 1 && ctx.ct(ci - 1).is_punct('.') && !(ci >= 2 && ctx.ct(ci - 2).is_punct('.'));
    let called =
        ctx.get(ci + 1).is_some_and(|t| t.is_punct('(')) || (colon(ci + 1) && colon(ci + 2));
    (after_dot && !called) || (colon(ci + 1) && !colon(ci + 2))
}

/// Rule: `dead-pub`. A recorded `pub fn` whose name no counted
/// identifier carries outside its own item has no non-test caller.
/// Resolved after every file is read, since callers live anywhere.
pub(crate) fn dead_pub(defs: &[PubFn], idents: &BTreeMap<String, usize>) -> Vec<Finding> {
    defs.iter()
        .filter(|d| idents.get(&d.name).copied().unwrap_or(0) <= d.own)
        .map(|d| Finding {
            rule: rule::DEAD_PUB,
            path: d.path.clone(),
            line: d.line,
            message: format!(
                "`pub fn {}` has no caller outside tests: no library, binary, bench, example \
                 or perfbench code names it; delete it, move it into test scope, or justify \
                 with `ctlint::allow(dead-pub): <outside caller or documented contract>`",
                d.name
            ),
        })
        .collect()
}
