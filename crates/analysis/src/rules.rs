//! The project-invariant rules: the [`Rule`] catalogue, the [`Finding`]
//! they produce, the intra-function rules evaluated over one scanned
//! [`FileModel`], and the site detectors shared with the call-graph rules in
//! [`crate::callgraph`].
//!
//! | rule | key | scope |
//! |------|-----|-------|
//! | hot-path allocation | `hot_path_alloc` | hot-path roots and everything they reach (callgraph) |
//! | blocking in hot path | `blocking_in_hot_path` | hot-path roots and everything they reach (callgraph) |
//! | lock order | `lock_order` | the workspace lock graph (lockgraph) |
//! | atomic-ordering audit | `atomic_ordering` | everywhere (incl. tests) |
//! | panic surface | `panic_surface` | library code outside tests |
//! | RNG seed policy | `seed_policy` | library code outside tests |
//! | unsafe scope | `unsafe_scope` | library code outside tests |
//!
//! Every rule but `lock_order` honours an inline
//! `// analysis: allow(<key>, reason = "…")` grant on the offending line (or
//! the line directly above it). For the two hot-path rules an allow on a
//! *call site* also prunes propagation through that edge.

use crate::lexer::{Token, TokenKind};
use crate::manifest::{SeedManifest, UnsafeManifest};
use crate::scanner::{FileContext, FileModel};
use std::fmt;

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Allocation in a `// analysis: hot_path` function or anything it
    /// reaches through the call graph; findings carry the call-chain witness.
    HotPathAlloc,
    /// Lock/condvar/channel blocking, sleeps, or file/stdio I/O in a hot-path
    /// root or anything it reaches.
    BlockingInHotPath,
    /// A lock-graph edge that closes a cycle, contradicts the ranks declared
    /// in `analysis/locks.toml`, or touches an undeclared lock class.
    LockOrder,
    /// `Ordering::…` without an `// ordering:` justification.
    AtomicOrdering,
    /// `unwrap`/`expect`/`panic!` in non-test library code.
    PanicSurface,
    /// RNG seeding/drawing outside the versioned seed-policy helpers.
    SeedPolicy,
    /// `unsafe` code outside the audited scopes in `analysis/unsafe.toml`.
    UnsafeScope,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::HotPathAlloc,
        Rule::BlockingInHotPath,
        Rule::LockOrder,
        Rule::AtomicOrdering,
        Rule::PanicSurface,
        Rule::SeedPolicy,
        Rule::UnsafeScope,
    ];

    /// The stable snake_case key used in reports.
    pub fn key(self) -> &'static str {
        match self {
            Rule::HotPathAlloc => "hot_path_alloc",
            Rule::BlockingInHotPath => "blocking_in_hot_path",
            Rule::LockOrder => "lock_order",
            Rule::AtomicOrdering => "atomic_ordering",
            Rule::PanicSurface => "panic_surface",
            Rule::SeedPolicy => "seed_policy",
            Rule::UnsafeScope => "unsafe_scope",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name (empty at item level).
    pub function: String,
    /// Short token-level detail (`"`.clone()`"`, `"Ordering::SeqCst"`).
    pub detail: String,
    /// Human-readable message.
    pub message: String,
}

/// Evaluates the intra-function rules over one file.
pub(crate) fn apply_all(
    model: &FileModel,
    seeds: &SeedManifest,
    unsafes: &UnsafeManifest,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if model.context == FileContext::Library {
        panic_surface(model, &mut findings);
        seed_policy(model, seeds, &mut findings);
        unsafe_scope(model, unsafes, &mut findings);
    }
    atomic_ordering(model, &mut findings);
    findings
}

pub(crate) fn is_punct(tok: Option<&Token>, c: char) -> bool {
    matches!(tok.map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
}

pub(crate) fn ident_text(tok: Option<&Token>) -> Option<&str> {
    match tok {
        Some(t) if t.kind == TokenKind::Ident => Some(t.text.as_str()),
        _ => None,
    }
}

/// Skips a `::<…>` turbofish directly after a method/function name; returns
/// the index where the argument list's `(` would sit (i.e. `after_name` when
/// there is no turbofish). Handles nested generics (`::<Vec<Vec<f32>>>`) and
/// `->` inside `Fn(…) -> T` bounds.
pub(crate) fn skip_turbofish(toks: &[Token], after_name: usize) -> usize {
    if !(is_punct(toks.get(after_name), ':')
        && is_punct(toks.get(after_name + 1), ':')
        && is_punct(toks.get(after_name + 2), '<'))
    {
        return after_name;
    }
    let mut depth = 0isize;
    let mut j = after_name + 2;
    while let Some(tok) = toks.get(j) {
        match &tok.kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                let arrow = is_punct(toks.get(j.wrapping_sub(1)), '-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    after_name
}

/// One detector hit inside a token range.
#[derive(Debug, Clone)]
pub(crate) struct Site {
    /// 1-based source line.
    pub line: u32,
    /// Line-number-free description (`".clone()"`, `"Vec::new"`).
    pub detail: String,
}

// ---------------------------------------------------------------------------
// Hot-path site detectors
// ---------------------------------------------------------------------------

/// Methods that allocate (called as `.name(…)`).
const ALLOC_METHODS: [&str; 7] = [
    "clone",
    "to_vec",
    "collect",
    "to_string",
    "to_owned",
    "into_boxed_slice",
    "into_vec",
];
/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
/// Types whose `new` / `with_capacity` / `from` constructors allocate.
const ALLOC_TYPES: [&str; 12] = [
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Rc", "Arc",
    "Bytes", "BytesMut",
];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// The allocating constructor in a `::new(` / `::with_capacity(` /
/// `::from(` call starting at `at` (just after the type name and any
/// turbofish on it).
fn alloc_ctor(toks: &[Token], at: usize) -> Option<&str> {
    let ctor = ident_text(toks.get(at + 2)).filter(|c| ALLOC_CTORS.contains(c))?;
    (is_punct(toks.get(at), ':')
        && is_punct(toks.get(at + 1), ':')
        && is_punct(toks.get(skip_turbofish(toks, at + 3)), '('))
    .then_some(ctor)
}

/// Every allocation-pattern hit inside `range` (allow grants NOT applied —
/// the caller filters them).
pub(crate) fn alloc_sites(model: &FileModel, range: std::ops::Range<usize>) -> Vec<Site> {
    let toks = &model.tokens;
    let mut out = Vec::new();
    for i in range {
        let tok = &toks[i];
        let detail = if is_punct(Some(tok), '.') {
            match ident_text(toks.get(i + 1)) {
                Some(m)
                    if ALLOC_METHODS.contains(&m)
                        && is_punct(toks.get(skip_turbofish(toks, i + 2)), '(') =>
                {
                    Some(format!(".{m}()"))
                }
                _ => None,
            }
        } else if ident_text(Some(tok)).is_some_and(|t| ALLOC_MACROS.contains(&t))
            && is_punct(toks.get(i + 1), '!')
        {
            Some(format!("{}!", tok.text))
        } else {
            // `Vec::new(…)` and `Vec::<u8>::new(…)` alike.
            ident_text(Some(tok))
                .filter(|t| ALLOC_TYPES.contains(t))
                .and_then(|_| alloc_ctor(toks, skip_turbofish(toks, i + 1)))
                .map(|ctor| format!("{}::{ctor}", tok.text))
        };
        if let Some(detail) = detail {
            out.push(Site {
                line: tok.line,
                detail,
            });
        }
    }
    out
}

/// Methods that block the calling thread when invoked with no arguments
/// (lock acquisition, thread join, blocking channel receive).
const BLOCKING_METHODS_NULLARY: [&str; 5] = ["lock", "read", "write", "join", "recv"];
/// Methods that block regardless of arguments (condvar waits, timed channel
/// ops, bounded-channel sends, thread parking).
const BLOCKING_METHODS_ANY: [&str; 9] = [
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "wait_until",
    "recv_timeout",
    "recv_many",
    "send",
    "park",
];
/// Free/path functions that block or do file I/O.
const BLOCKING_FREE_FNS: [&str; 4] = ["sleep", "sleep_ms", "yield_now", "read_to_string"];
/// Stdio macros: line-buffered writes behind a global lock.
const BLOCKING_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

/// Every blocking-pattern hit inside `range` (allow grants NOT applied).
pub(crate) fn blocking_sites(model: &FileModel, range: std::ops::Range<usize>) -> Vec<Site> {
    let toks = &model.tokens;
    let mut out = Vec::new();
    for i in range {
        let tok = &toks[i];
        let detail = if is_punct(Some(tok), '.') {
            match ident_text(toks.get(i + 1)) {
                Some(m) if BLOCKING_METHODS_NULLARY.contains(&m) => {
                    let open = skip_turbofish(toks, i + 2);
                    (is_punct(toks.get(open), '(') && is_punct(toks.get(open + 1), ')'))
                        .then(|| format!(".{m}()"))
                }
                Some(m) if BLOCKING_METHODS_ANY.contains(&m) => {
                    is_punct(toks.get(skip_turbofish(toks, i + 2)), '(').then(|| format!(".{m}(…)"))
                }
                _ => None,
            }
        } else if tok.kind == TokenKind::Ident {
            let next = skip_turbofish(toks, i + 1);
            if is_punct(toks.get(i + 1), '!') && BLOCKING_MACROS.contains(&tok.text.as_str()) {
                Some(format!("{}!", tok.text))
            } else if is_punct(toks.get(next), '(')
                && BLOCKING_FREE_FNS.contains(&tok.text.as_str())
                && !is_punct(toks.get(i.wrapping_sub(1)), '.')
            {
                Some(format!("{}()", tok.text))
            } else if is_punct(toks.get(next), '(')
                && i >= 2
                && is_punct(toks.get(i - 1), ':')
                && is_punct(toks.get(i - 2), ':')
                && ident_text(toks.get(i.wrapping_sub(3))).is_some_and(|t| t == "File" || t == "fs")
                && matches!(
                    tok.text.as_str(),
                    "open" | "create" | "read" | "write" | "read_to_string" | "remove_file"
                )
            {
                Some(format!("{}::{}", toks[i - 3].text, tok.text))
            } else {
                None
            }
        } else {
            None
        };
        if let Some(detail) = detail {
            out.push(Site {
                line: tok.line,
                detail,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lock-graph site helpers
// ---------------------------------------------------------------------------

/// Walks back from the `.` token `dot` over its receiver chain — idents
/// joined by `.`, with `[…]` index suffixes — without passing `lo`. Returns
/// the index of the chain's first token and its segments, last first.
fn walk_receiver(toks: &[Token], dot: usize, lo: usize) -> (usize, Vec<String>) {
    let mut parts = Vec::new();
    let mut j = dot;
    while j > lo {
        match &toks[j - 1].kind {
            TokenKind::Ident => {
                parts.push(toks[j - 1].text.clone());
                j -= 1;
                if j > lo && is_punct(toks.get(j - 1), '.') {
                    j -= 1;
                } else {
                    break;
                }
            }
            TokenKind::Punct(']') => {
                // Skip the index expression back to its `[`.
                let mut depth = 0isize;
                let mut k = j - 1;
                loop {
                    match &toks[k].kind {
                        TokenKind::Punct(']') => depth += 1,
                        TokenKind::Punct('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                parts.push("[_]".to_string());
                j = k;
            }
            _ => break,
        }
    }
    (j, parts)
}

/// Renders the receiver chain ending at the `.` token `dot`: `self.draw`,
/// `self.shards[_]`, `slot`. Returns `"<expr>"` when the receiver is not a
/// simple field/index chain.
pub(crate) fn receiver_chain(toks: &[Token], dot: usize) -> String {
    let (_, parts) = walk_receiver(toks, dot, 0);
    if parts.is_empty() {
        return "<expr>".to_string();
    }
    let mut out = String::new();
    for part in parts.iter().rev() {
        if part != "[_]" && !out.is_empty() {
            out.push('.');
        }
        out.push_str(part);
    }
    out
}

/// If the statement containing the acquisition at `dot` is a
/// `let [mut] name = <receiver>…` binding, returns the bound name.
pub(crate) fn let_binding_name(toks: &[Token], dot: usize, lo: usize) -> Option<String> {
    let_bound_name(toks, walk_receiver(toks, dot, lo).0, lo)
}

/// The `name` of a `let [mut] name =` that ends right before token `start`.
pub(crate) fn let_bound_name(toks: &[Token], start: usize, lo: usize) -> Option<String> {
    if start <= lo || !is_punct(toks.get(start - 1), '=') {
        return None;
    }
    let mut k = start.checked_sub(2)?;
    let name = ident_text(toks.get(k))?;
    if k > lo && ident_text(toks.get(k - 1)) == Some("mut") {
        k -= 1;
    }
    (k > lo && ident_text(toks.get(k - 1)) == Some("let")).then(|| name.to_string())
}

// ---------------------------------------------------------------------------
// Rule: atomic-ordering audit
// ---------------------------------------------------------------------------

const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn atomic_ordering(model: &FileModel, findings: &mut Vec<Finding>) {
    // All `Ordering::<atomic variant>` site lines first, so one justification
    // comment can cover a contiguous run of sites.
    let mut sites: Vec<(usize, u32, String)> = Vec::new();
    for i in 0..model.tokens.len() {
        if ident_text(model.tokens.get(i)) == Some("Ordering")
            && is_punct(model.tokens.get(i + 1), ':')
            && is_punct(model.tokens.get(i + 2), ':')
        {
            if let Some(variant) = ident_text(model.tokens.get(i + 3)) {
                if ATOMIC_VARIANTS.contains(&variant) {
                    sites.push((i, model.tokens[i + 3].line, format!("Ordering::{variant}")));
                }
            }
        }
    }
    let site_lines: Vec<u32> = sites.iter().map(|&(_, l, _)| l).collect();
    let comment_only_lines: Vec<u32> = comment_only_lines(model);
    for (i, line, detail) in sites {
        if ordering_covered(model, line, &site_lines, &comment_only_lines) {
            continue;
        }
        if model.allow_for(line, "ordering").is_some() {
            continue;
        }
        findings.push(Finding {
            rule: Rule::AtomicOrdering,
            file: model.rel_path.clone(),
            line,
            function: model
                .enclosing_fn(i)
                .map(|f| f.name.clone())
                .unwrap_or_default(),
            detail: detail.clone(),
            message: format!(
                "`{detail}` lacks an `// ordering:` justification on this line or directly above"
            ),
        });
    }
}

/// Lines that contain a comment and no code token.
fn comment_only_lines(model: &FileModel) -> Vec<u32> {
    let mut code: Vec<u32> = model.tokens.iter().map(|t| t.line).collect();
    code.dedup();
    let mut out = Vec::new();
    for c in &model.comments {
        for l in c.line..=c.end_line {
            if code.binary_search(&l).is_err() {
                out.push(l);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A site at `line` is covered by a justification on the same line, or by one
/// above the contiguous run of sites/comment-only lines containing it.
fn ordering_covered(
    model: &FileModel,
    line: u32,
    site_lines: &[u32],
    comment_lines: &[u32],
) -> bool {
    let has_directive = |l: u32| model.directives.ordering_lines.contains(&l);
    if has_directive(line) {
        return true;
    }
    // Walk up through the run: prior lines that are themselves sites or
    // comment-only lines stay in the run.
    let mut l = line;
    while l > 1 {
        let prev = l - 1;
        if has_directive(prev) {
            return true;
        }
        if site_lines.contains(&prev) || comment_lines.binary_search(&prev).is_ok() {
            l = prev;
        } else {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: panic surface
// ---------------------------------------------------------------------------

const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn panic_surface(model: &FileModel, findings: &mut Vec<Finding>) {
    for i in 0..model.tokens.len() {
        if model.in_test_range(i) {
            continue;
        }
        let tok = &model.tokens[i];
        let detail = if is_punct(Some(tok), '.') {
            match ident_text(model.tokens.get(i + 1)) {
                Some(m) if PANIC_METHODS.contains(&m) && is_punct(model.tokens.get(i + 2), '(') => {
                    Some((format!(".{m}()"), model.tokens[i + 1].line))
                }
                _ => None,
            }
        } else if ident_text(Some(tok)).is_some_and(|t| PANIC_MACROS.contains(&t))
            && !tok.raw
            && is_punct(model.tokens.get(i + 1), '!')
        {
            Some((format!("{}!", tok.text), tok.line))
        } else {
            None
        };
        let Some((detail, line)) = detail else {
            continue;
        };
        if model.allow_for(line, "panic").is_some() {
            continue;
        }
        let function = model
            .enclosing_fn(i)
            .map(|f| f.name.clone())
            .unwrap_or_default();
        findings.push(Finding {
            rule: Rule::PanicSurface,
            file: model.rel_path.clone(),
            line,
            function: function.clone(),
            detail: detail.clone(),
            message: format!(
                "`{detail}` in library code{} — return a typed error or add `// analysis: allow(panic, reason = …)`",
                if function.is_empty() {
                    String::new()
                } else {
                    format!(" (fn `{function}`)")
                }
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: RNG seed policy
// ---------------------------------------------------------------------------

const SEED_FNS: [&str; 3] = ["seed_from_u64", "from_entropy", "from_seed"];

fn seed_policy(model: &FileModel, manifest: &SeedManifest, findings: &mut Vec<Finding>) {
    let mut seen_lines: Vec<(u32, String)> = Vec::new();
    for i in 0..model.tokens.len() {
        if model.in_test_range(i) {
            continue;
        }
        let tok = &model.tokens[i];
        let hit = if ident_text(Some(tok)) == Some("ChaCha8Rng")
            && is_punct(model.tokens.get(i + 1), ':')
            && is_punct(model.tokens.get(i + 2), ':')
        {
            Some(("ChaCha8Rng::".to_string(), tok.line))
        } else if ident_text(Some(tok)).is_some_and(|t| SEED_FNS.contains(&t))
            && is_punct(model.tokens.get(i + 1), '(')
        {
            Some((format!("{}()", tok.text), tok.line))
        } else if is_punct(Some(tok), '.')
            && ident_text(model.tokens.get(i + 1)) == Some("gen_range")
            && is_punct(model.tokens.get(i + 2), '(')
        {
            Some((".gen_range()".to_string(), model.tokens[i + 1].line))
        } else {
            None
        };
        let Some((detail, line)) = hit else { continue };
        if seen_lines.iter().any(|(l, _)| *l == line) {
            continue; // `ChaCha8Rng::seed_from_u64(…)` must count once, not per pattern
        }
        seen_lines.push((line, detail.clone()));
        let function = model
            .enclosing_fn(i)
            .map(|f| f.name.clone())
            .unwrap_or_default();
        if manifest.allows(&model.rel_path, &function) {
            continue;
        }
        if model.allow_for(line, "seed").is_some() {
            continue;
        }
        findings.push(Finding {
            rule: Rule::SeedPolicy,
            file: model.rel_path.clone(),
            line,
            function: function.clone(),
            detail: detail.clone(),
            message: format!(
                "RNG policy site `{detail}`{} is outside the versioned seed-policy helpers (declare it in analysis/seed_policy.toml or add `// analysis: allow(seed, reason = …)`)",
                if function.is_empty() {
                    String::new()
                } else {
                    format!(" in fn `{function}`")
                }
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule: unsafe scope
// ---------------------------------------------------------------------------

fn unsafe_scope(model: &FileModel, manifest: &UnsafeManifest, findings: &mut Vec<Finding>) {
    if manifest.allows(&model.rel_path) {
        return; // the whole file lies inside an audited scope
    }
    for i in 0..model.tokens.len() {
        if model.in_test_range(i) {
            continue;
        }
        let tok = &model.tokens[i];
        if tok.kind != TokenKind::Ident || tok.text != "unsafe" || tok.raw {
            continue;
        }
        // Classify the construct for the finding detail.
        let detail = match ident_text(model.tokens.get(i + 1)) {
            Some("fn") => "unsafe fn",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            _ if is_punct(model.tokens.get(i + 1), '{') => "unsafe {…}",
            _ => "unsafe",
        };
        if model.allow_for(tok.line, "unsafe").is_some() {
            continue;
        }
        let function = model
            .enclosing_fn(i)
            .map(|f| f.name.clone())
            .unwrap_or_default();
        findings.push(Finding {
            rule: Rule::UnsafeScope,
            file: model.rel_path.clone(),
            line: tok.line,
            function: function.clone(),
            detail: detail.to_string(),
            message: format!(
                "`{detail}`{} is outside the audited unsafe scopes (move it under a prefix declared in analysis/unsafe.toml or add `// analysis: allow(unsafe, reason = …)`)",
                if function.is_empty() {
                    String::new()
                } else {
                    format!(" in fn `{function}`")
                }
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_workspace;
    use crate::manifest::LockManifest;
    use crate::symbols::Workspace;

    /// Every rule over `src` as a one-file workspace at `rel`.
    fn analyze_one(
        rel: &str,
        src: &str,
        locks: &LockManifest,
        seeds: &SeedManifest,
        unsafes: &UnsafeManifest,
    ) -> Vec<Finding> {
        let ws = Workspace::from_models(vec![FileModel::scan(rel, src)]);
        analyze_workspace(&ws, locks, seeds, unsafes).findings
    }

    fn check(src: &str) -> Vec<Finding> {
        analyze_one(
            "crates/x/src/lib.rs",
            src,
            &LockManifest::default(),
            &SeedManifest::default(),
            &UnsafeManifest::default(),
        )
    }

    fn of_rule(findings: &[Finding], rule: Rule) -> Vec<&Finding> {
        findings.iter().filter(|f| f.rule == rule).collect()
    }

    #[test]
    fn hot_path_allocs_are_flagged_and_allows_honoured() {
        let src = "\
// analysis: hot_path
fn hot(xs: &[u32]) -> usize {
    let v = Vec::with_capacity(4);
    let c = xs.to_vec();
    let ok = xs.clone(); // analysis: allow(alloc, reason = \"documented\")
    let t = Vec::<u8>::with_capacity(1);
    v.len() + c.len() + ok.len() + t.len()
}
fn cold(xs: &[u32]) -> Vec<u32> { xs.to_vec() }
";
        let findings = check(src);
        let alloc = of_rule(&findings, Rule::HotPathAlloc);
        let details: Vec<&str> = alloc.iter().map(|f| f.detail.as_str()).collect();
        assert_eq!(
            details,
            ["Vec::with_capacity", ".to_vec()", "Vec::with_capacity"]
        );
        assert_eq!(alloc[2].line, 6, "the turbofish form is a site too");
        assert!(alloc.iter().all(|f| f.function == "hot"));
    }

    #[test]
    fn ordering_requires_justification_with_run_coverage() {
        let src = "\
use std::sync::atomic::Ordering;
fn f(a: &std::sync::atomic::AtomicUsize) {
    a.load(Ordering::SeqCst);
    // ordering: Relaxed counters, read-only snapshot
    a.load(Ordering::Relaxed);
    a.load(Ordering::Relaxed);
    a.store(1, Ordering::Release); // ordering: publishes the snapshot
}
";
        let findings = check(src);
        let ordering = of_rule(&findings, Rule::AtomicOrdering);
        assert_eq!(ordering.len(), 1, "{ordering:?}");
        assert_eq!(ordering[0].line, 3);
        assert_eq!(ordering[0].detail, "Ordering::SeqCst");
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let findings = check("fn f(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b).then(std::cmp::Ordering::Less) }");
        assert!(findings.iter().all(|f| f.rule != Rule::AtomicOrdering));
    }

    #[test]
    fn panic_surface_skips_tests_and_allows() {
        let src = "\
fn lib(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    // analysis: allow(panic, reason = \"infallible by construction\")
    let b = v.expect(\"fine\");
    if a + b > 3 { panic!(\"boom\") }
    a
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { None::<u32>.unwrap(); panic!(\"test-only\"); }
}
";
        let findings = check(src);
        let panics = of_rule(&findings, Rule::PanicSurface);
        assert_eq!(panics.len(), 2, "{panics:?}");
        assert_eq!(panics[0].detail, ".unwrap()");
        assert_eq!(panics[1].detail, "panic!");
    }

    #[test]
    fn seed_policy_respects_manifest_and_test_scope() {
        let src = "\
use rand_chacha::ChaCha8Rng;
fn blessed(seed: u64) -> ChaCha8Rng { ChaCha8Rng::seed_from_u64(seed) }
fn rogue(seed: u64) -> ChaCha8Rng { ChaCha8Rng::seed_from_u64(seed) }
fn draw(rng: &mut ChaCha8Rng) -> u32 { rng.gen_range(0..4) }
";
        let seeds = SeedManifest::from_entries(vec![(
            "crates/x/src/lib.rs".to_string(),
            vec!["blessed".to_string()],
        )]);
        let findings = analyze_one(
            "crates/x/src/lib.rs",
            src,
            &LockManifest::default(),
            &seeds,
            &UnsafeManifest::default(),
        );
        let seeds = of_rule(&findings, Rule::SeedPolicy);
        assert_eq!(seeds.len(), 2, "{seeds:?}");
        assert_eq!(seeds[0].function, "rogue");
        assert_eq!(seeds[1].function, "draw");
    }

    #[test]
    fn second_lock_while_guard_live_is_flagged_without_manifest() {
        let src = "\
fn f(&self) {
    let guard = self.draw.lock();
    let second = self.wait.lock();
    drop(second);
    drop(guard);
    let fine = self.wait.lock();
    drop(fine);
}
";
        let findings = check(src);
        let locks = of_rule(&findings, Rule::LockOrder);
        assert_eq!(locks.len(), 1, "{locks:?}");
        assert_eq!(locks[0].line, 3);
        assert!(
            locks[0]
                .message
                .contains("not declared in analysis/locks.toml"),
            "{locks:?}"
        );
    }

    #[test]
    fn declared_lock_order_permits_inner_after_outer() {
        let src = "\
fn f(&self) {
    let guard = self.draw.lock();
    let inner = self.wait.lock();
    drop(inner);
    drop(guard);
}
fn g(&self) {
    let guard = self.wait.lock();
    let outer = self.draw.lock();
}
";
        let locks = LockManifest::from_entries(vec![
            ("crates/x/src/lib.rs".into(), "self.draw".into(), 10),
            ("crates/x/src/lib.rs".into(), "self.wait".into(), 20),
        ]);
        let findings = analyze_one(
            "crates/x/src/lib.rs",
            src,
            &locks,
            &SeedManifest::default(),
            &UnsafeManifest::default(),
        );
        let lock_findings = of_rule(&findings, Rule::LockOrder);
        // One finding, on g's inversion, which also closes the cycle.
        assert_eq!(lock_findings.len(), 1, "{lock_findings:?}");
        assert_eq!(lock_findings[0].line, 9);
        assert!(
            lock_findings[0].message.contains("cycle"),
            "{lock_findings:?}"
        );
    }

    #[test]
    fn scope_exit_releases_guards() {
        let src = "\
fn f(&self) {
    {
        let guard = self.a.lock();
    }
    let other = self.b.lock();
}
";
        let findings = check(src);
        assert!(findings.iter().all(|f| f.rule != Rule::LockOrder));
    }

    #[test]
    fn unsafe_outside_audited_scopes_is_flagged_with_construct_detail() {
        let src = "\
unsafe fn raw(p: *const f32) -> f32 { *p }
pub fn wrap(p: *const f32) -> f32 {
    unsafe { raw(p) }
}
unsafe impl Send for Holder {}
fn blessed(p: *const f32) -> f32 {
    // analysis: allow(unsafe, reason = \"bounds checked by caller contract\")
    unsafe { raw(p) }
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { unsafe { std::hint::unreachable_unchecked() } }
}
";
        let findings = check(src);
        let unsafes = of_rule(&findings, Rule::UnsafeScope);
        assert_eq!(unsafes.len(), 3, "{unsafes:?}");
        assert_eq!(unsafes[0].detail, "unsafe fn");
        assert_eq!(unsafes[1].detail, "unsafe {…}");
        assert_eq!(unsafes[1].function, "wrap");
        assert_eq!(unsafes[2].detail, "unsafe impl");
    }

    #[test]
    fn audited_prefix_silences_the_unsafe_rule_for_the_whole_file() {
        let src = "unsafe fn kernel(p: *const f32) -> f32 { unsafe { *p } }";
        let unsafes = UnsafeManifest::from_prefixes(vec!["crates/nn/src/simd/".to_string()]);
        let run = |rel: &str| {
            analyze_one(
                rel,
                src,
                &LockManifest::default(),
                &SeedManifest::default(),
                &unsafes,
            )
        };
        let findings = run("crates/nn/src/simd/avx2.rs");
        assert!(findings.is_empty(), "{findings:?}");
        // The same source outside the prefix is flagged, and the prefix,
        // now covering no file, is a stale manifest entry.
        let rogue: Vec<(String, u32)> = of_rule(&run("crates/nn/src/mlp.rs"), Rule::UnsafeScope)
            .into_iter()
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            rogue,
            [
                ("analysis/unsafe.toml".to_string(), 0),
                ("crates/nn/src/mlp.rs".to_string(), 1),
                ("crates/nn/src/mlp.rs".to_string(), 1),
            ]
        );
    }

    #[test]
    fn manifest_entries_matching_nothing_are_findings() {
        let src = "\
fn f(&self) -> u64 {
    let guard = self.draw.lock();
    seed
}
";
        let locks = LockManifest::from_entries(vec![
            ("crates/x/src/lib.rs".into(), "self.draw".into(), 10),
            ("crates/x/src/lib.rs".into(), "self.gone".into(), 20),
        ]);
        let seeds = SeedManifest::from_entries(vec![(
            "crates/x/src/lib.rs".to_string(),
            vec!["f".to_string(), "renamed_away".to_string()],
        )]);
        let findings = analyze_one(
            "crates/x/src/lib.rs",
            src,
            &locks,
            &seeds,
            &UnsafeManifest::default(),
        );
        let stale: Vec<(Rule, &str, &str)> = findings
            .iter()
            .map(|f| (f.rule, f.file.as_str(), f.detail.as_str()))
            .collect();
        assert_eq!(
            stale,
            [
                (Rule::LockOrder, "analysis/locks.toml", "self.gone"),
                (
                    Rule::SeedPolicy,
                    "analysis/seed_policy.toml",
                    "renamed_away"
                ),
            ]
        );
    }

    #[test]
    fn indexed_receivers_render_with_index_placeholder() {
        let src = "\
fn f(&self, shard: usize) {
    let guard = self.shards[shard].lock();
    let second = self.shards[shard + 1].lock();
}
";
        let findings = check(src);
        let locks = of_rule(&findings, Rule::LockOrder);
        assert_eq!(locks.len(), 1);
        assert_eq!(
            locks[0].detail,
            "crates/x/src/lib.rs::self.shards[_] → crates/x/src/lib.rs::self.shards[_]"
        );
    }
}
