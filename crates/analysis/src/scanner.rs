//! The brace-scoped scanner: turns a lexed file into the model the rules
//! consume — function spans, `#[cfg(test)]` regions, and the parsed
//! `// analysis:` / `// ordering:` directive comments.

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

/// Which kind of compilation context a file belongs to; decides which rules
/// apply (e.g. the panic-surface rule covers only [`FileContext::Library`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileContext {
    /// Regular library code under some crate's `src/`.
    Library,
    /// Integration tests (`tests/`), unit-test files, fixtures.
    Test,
    /// Benchmarks (`benches/`, and everything in the bench-harness crate).
    Bench,
    /// Example binaries under `examples/`.
    Example,
}

impl FileContext {
    /// Classifies a workspace-relative path.
    pub fn classify(rel_path: &str) -> FileContext {
        let p = rel_path.replace('\\', "/");
        if p.starts_with("tests/") || p.contains("/tests/") {
            FileContext::Test
        } else if p.starts_with("examples/") || p.contains("/examples/") {
            FileContext::Example
        } else if p.contains("/benches/") || p.starts_with("crates/bench/") {
            FileContext::Bench
        } else {
            FileContext::Library
        }
    }
}

/// An inline `// analysis: allow(<rule>, reason = "…")` grant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule key being allowed (`alloc`, `blocking`, `ordering`,
    /// `panic`, `seed`, `unsafe`).
    pub rule: String,
    /// The mandatory human justification.
    pub reason: String,
    /// Line of the directive comment.
    pub line: u32,
}

/// All directives mined from one file's comments.
#[derive(Debug, Default)]
pub struct Directives {
    /// Lines holding a `// analysis: hot_path` marker.
    pub hot_path_lines: Vec<u32>,
    /// Allow grants, keyed by the line of code they cover (the directive's
    /// own line for trailing comments, the next code line otherwise).
    pub allows: BTreeMap<u32, Vec<Allow>>,
    /// Lines carrying a non-empty `// ordering:` justification.
    pub ordering_lines: Vec<u32>,
    /// Malformed directives: `(line, problem)`. Reported as hard errors so a
    /// typo can never silently disable a lint.
    pub malformed: Vec<(u32, String)>,
}

/// One `fn` item found by the scanner.
#[derive(Debug)]
pub struct FnSpan {
    /// The function's (raw-normalised) name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, **excluding** the outer braces; empty
    /// for bodyless trait-method declarations.
    pub body: Range<usize>,
    /// True when the `fn` has a braced body at all — distinguishes an empty
    /// `fn f() {}` (has one) from a bodyless trait declaration `fn f();`.
    pub has_body: bool,
    /// True when the function carries a `// analysis: hot_path` marker.
    pub hot_path: bool,
    /// True inside `#[cfg(test)]` regions or for `#[test]`/`#[bench]` fns.
    pub is_test: bool,
    /// The type this function is a method of (`impl Type` / `impl Tr for
    /// Type` → `Type`), or the trait name for default methods declared in a
    /// `trait` block; `None` for free functions.
    pub owner: Option<String>,
    /// True when [`FnSpan::owner`] names a `trait` block (a provided default
    /// method) rather than an `impl` block.
    pub owner_is_trait: bool,
}

/// The scanned model of one source file.
pub struct FileModel {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Compilation context, decided from the path.
    pub context: FileContext,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// The comment side-channel.
    pub comments: Vec<Comment>,
    /// Parsed directives.
    pub directives: Directives,
    /// Every function item, in source order (outer functions only; nested
    /// `fn` items inside bodies are attributed to their enclosing span).
    pub functions: Vec<FnSpan>,
    /// Token-index ranges that are test-only (`#[cfg(test)]` mod bodies and
    /// `#[test]` function bodies).
    pub test_ranges: Vec<Range<usize>>,
    /// `(trait, type)` pairs from `impl Trait for Type` blocks, in source
    /// order — the raw material for trait-dispatch call resolution.
    pub trait_impls: Vec<(String, String)>,
}

impl FileModel {
    /// Lexes and scans `source` as `rel_path`.
    pub fn scan(rel_path: &str, source: &str) -> FileModel {
        let Lexed { tokens, comments } = lex(source);
        let directives = parse_directives(&comments, &tokens);
        let mut model = FileModel {
            rel_path: rel_path.to_string(),
            context: FileContext::classify(rel_path),
            tokens,
            comments,
            directives,
            functions: Vec::new(),
            test_ranges: Vec::new(),
            trait_impls: Vec::new(),
        };
        let mut hot_lines: Vec<u32> = model.directives.hot_path_lines.clone();
        scan_items(&mut model, &mut hot_lines, 0, usize::MAX, false, None);
        model
    }

    /// Reads and scans a file on disk (`rel_path` is what findings report).
    pub fn scan_path(root: &Path, rel_path: &str) -> std::io::Result<FileModel> {
        let source = std::fs::read_to_string(root.join(rel_path))?;
        Ok(FileModel::scan(rel_path, &source))
    }

    /// True when token index `i` lies in a test-only range.
    pub fn in_test_range(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&i))
    }

    /// The innermost function span containing token index `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.functions
            .iter()
            .filter(|f| f.body.contains(&i))
            .min_by_key(|f| f.body.len())
    }

    /// The allow grants covering source line `line` for `rule`.
    pub fn allow_for(&self, line: u32, rule: &str) -> Option<&Allow> {
        self.directives
            .allows
            .get(&line)
            .and_then(|grants| grants.iter().find(|a| a.rule == rule))
    }
}

/// Parses the directive comments. Lines are mapped to the code they cover:
/// a trailing directive (code precedes it on the same line) covers its own
/// line; a directive on its own line covers the **next** line that holds a
/// code token.
fn parse_directives(comments: &[Comment], tokens: &[Token]) -> Directives {
    let mut directives = Directives::default();
    // Lines that contain at least one code token, for trailing detection and
    // next-code-line resolution.
    let code_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
    let has_code_on = |line: u32| code_lines.binary_search(&line).is_ok();
    let next_code_line = |line: u32| -> u32 {
        match code_lines.binary_search(&(line + 1)) {
            Ok(_) => line + 1,
            Err(i) => code_lines.get(i).copied().unwrap_or(line + 1),
        }
    };

    for comment in comments.iter().filter(|c| !c.block) {
        let text = comment.text.trim();
        if let Some(rest) = text.strip_prefix("analysis:") {
            let rest = rest.trim();
            if rest == "hot_path" {
                directives.hot_path_lines.push(comment.line);
            } else if let Some(body) = rest
                .strip_prefix("allow(")
                .and_then(|r| r.strip_suffix(')'))
            {
                match parse_allow(body, comment.line) {
                    Ok(allow) => {
                        let covered = if has_code_on(comment.line) {
                            comment.line
                        } else {
                            next_code_line(comment.line)
                        };
                        directives.allows.entry(covered).or_default().push(allow);
                    }
                    Err(problem) => directives.malformed.push((comment.line, problem)),
                }
            } else {
                directives.malformed.push((
                    comment.line,
                    format!("unknown `analysis:` directive `{rest}`"),
                ));
            }
        } else if let Some(rest) = text.strip_prefix("ordering:") {
            if rest.trim().is_empty() {
                directives
                    .malformed
                    .push((comment.line, "empty `ordering:` justification".into()));
            } else {
                directives.ordering_lines.push(comment.line);
            }
        }
    }
    directives
}

/// Parses `alloc, reason = "why"` (the inside of an `allow(…)`).
fn parse_allow(body: &str, line: u32) -> Result<Allow, String> {
    let (rule, rest) = body
        .split_once(',')
        .ok_or_else(|| "allow() needs `allow(<rule>, reason = \"…\")`".to_string())?;
    let rule = rule.trim().to_string();
    const RULES: [&str; 6] = ["alloc", "blocking", "ordering", "panic", "seed", "unsafe"];
    if !RULES.contains(&rule.as_str()) {
        return Err(format!(
            "unknown allow rule `{rule}` (expected one of {RULES:?})"
        ));
    }
    let rest = rest.trim();
    let reason = rest
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim().trim_matches('"').trim())
        .unwrap_or("");
    if reason.is_empty() {
        return Err("allow() requires a non-empty reason".to_string());
    }
    Ok(Allow {
        rule,
        reason: reason.to_string(),
        line,
    })
}

/// The owner context `scan_items` threads through `impl`/`trait` blocks.
#[derive(Clone, Copy)]
struct Owner<'a> {
    name: &'a str,
    is_trait: bool,
}

/// Recursive item walk from token index `from` up to `until` (exclusive).
/// Collects `fn` spans and test ranges; `in_test` propagates through
/// `#[cfg(test)]` modules, `owner` through `impl`/`trait` block bodies.
fn scan_items(
    model: &mut FileModel,
    hot_lines: &mut Vec<u32>,
    from: usize,
    until: usize,
    in_test: bool,
    owner: Option<Owner<'_>>,
) {
    let mut i = from;
    let mut pending_test = false;
    while i < model.tokens.len() && i < until {
        let tok = &model.tokens[i];
        match &tok.kind {
            TokenKind::Punct('#') if matches_attr_open(model, i) => {
                let (end, is_test_attr) = consume_attr(model, i);
                pending_test |= is_test_attr;
                i = end;
            }
            TokenKind::Ident if tok.text == "fn" && !tok.raw => {
                let line = tok.line;
                let name = model
                    .tokens
                    .get(i + 1)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                let (body, has_body) = fn_body_range(model, i + 1);
                let hot_path = take_hot_marker(hot_lines, line);
                let is_test = in_test || pending_test;
                if is_test && !body.is_empty() && !in_test {
                    model.test_ranges.push(body.clone());
                }
                let next = body.end.max(i + 1);
                model.functions.push(FnSpan {
                    name,
                    line,
                    body: body.clone(),
                    has_body,
                    hot_path,
                    is_test,
                    owner: owner.map(|o| o.name.to_string()),
                    owner_is_trait: owner.map(|o| o.is_trait).unwrap_or(false),
                });
                if !body.is_empty() {
                    // Recurse so nested items (e.g. local fns) are seen, but
                    // nested spans are only *added*, not replacing this one.
                    // Items nested in a body are free-standing again.
                    scan_items(model, hot_lines, body.start, body.end, is_test, None);
                }
                pending_test = false;
                i = next;
            }
            TokenKind::Ident if tok.text == "mod" && !tok.raw => {
                // `mod name { … }` or `mod name;`
                let body = brace_body_after(model, i + 1);
                let is_test = in_test || pending_test;
                if let Some(body) = body {
                    if is_test && !in_test {
                        model.test_ranges.push(body.clone());
                    }
                    scan_items(model, hot_lines, body.start, body.end, is_test, None);
                    i = body.end + 1;
                } else {
                    i += 1;
                }
                pending_test = false;
            }
            TokenKind::Ident if (tok.text == "impl" || tok.text == "trait") && !tok.raw => {
                let is_trait_block = tok.text == "trait";
                let header = parse_owner_header(model, i + 1, is_trait_block);
                let is_test = in_test || pending_test;
                match header {
                    Some(header) => {
                        if is_test && !in_test {
                            model.test_ranges.push(header.body.clone());
                        }
                        if let (Some(tr), Some(ty)) = (&header.trait_name, &header.type_name) {
                            model.trait_impls.push((tr.clone(), ty.clone()));
                        }
                        let next = header.body.end + 1;
                        let owner_name = header.type_name;
                        scan_items(
                            model,
                            hot_lines,
                            header.body.start,
                            header.body.end,
                            is_test,
                            owner_name.as_deref().map(|name| Owner {
                                name,
                                is_trait: is_trait_block,
                            }),
                        );
                        i = next;
                    }
                    None => i += 1,
                }
                pending_test = false;
            }
            TokenKind::Punct('{') => {
                // An extern block or similar: recurse transparently.
                i += 1;
                pending_test = false;
            }
            TokenKind::Punct(';') | TokenKind::Punct('}') => {
                pending_test = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
}

/// The parsed header of an `impl`/`trait` block.
struct OwnerHeader {
    /// `impl Type` / `impl Tr for Type` → `Type`; `trait Tr` → `Tr`.
    type_name: Option<String>,
    /// The trait in `impl Tr for Type` headers.
    trait_name: Option<String>,
    /// Inner token range of the block body.
    body: Range<usize>,
}

/// Parses an `impl [<…>] [Trait for] Type [where …] { … }` or
/// `trait Name[<…>][: Bounds] { … }` header starting just past the keyword.
/// A path's last segment at angle-depth 0 is taken as the name, so
/// `impl<T: Send> fmt::Display for Shard<T>` yields trait `Display`, type
/// `Shard`. Returns `None` when no body brace is found (e.g. `impl Trait` in
/// return position won't reach here, but stay defensive).
fn parse_owner_header(model: &FileModel, from: usize, is_trait_block: bool) -> Option<OwnerHeader> {
    let mut angle = 0isize;
    let mut candidate: Option<String> = None;
    let mut trait_name: Option<String> = None;
    let mut frozen = false; // set at `where`: the name is decided
    let mut j = from;
    const SKIP: [&str; 8] = [
        "dyn", "mut", "unsafe", "const", "pub", "crate", "async", "ref",
    ];
    while let Some(tok) = model.tokens.get(j) {
        match &tok.kind {
            TokenKind::Punct('{') => {
                let close = matching_brace(model, j);
                return Some(OwnerHeader {
                    type_name: candidate,
                    trait_name,
                    body: j + 1..close,
                });
            }
            TokenKind::Punct(';') if angle == 0 => return None,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => {
                // `->` in e.g. `impl<F: Fn() -> usize>` is not a closer.
                let arrow = j > 0 && model.tokens[j - 1].kind == TokenKind::Punct('-');
                if !arrow {
                    angle -= 1;
                }
            }
            TokenKind::Ident if angle == 0 && !frozen => {
                match tok.text.as_str() {
                    "where" => frozen = true,
                    "for" => {
                        // What we read so far was the trait; the type follows.
                        trait_name = candidate.take();
                    }
                    t if SKIP.contains(&t) => {}
                    _ => candidate = Some(tok.text.clone()),
                }
                // A trait's name is the first ident after the keyword; bounds
                // after `:` must not overwrite it.
                if is_trait_block && candidate.is_some() {
                    frozen = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Claims a `// analysis: hot_path` marker for a `fn` at `fn_line`: the
/// nearest unconsumed marker within the 8 lines above (room for attributes
/// and doc comments between marker and item).
fn take_hot_marker(hot_lines: &mut Vec<u32>, fn_line: u32) -> bool {
    let found = hot_lines
        .iter()
        .position(|&l| l < fn_line && fn_line - l <= 8);
    if let Some(pos) = found {
        hot_lines.remove(pos);
        true
    } else {
        false
    }
}

fn matches_attr_open(model: &FileModel, i: usize) -> bool {
    matches!(
        model.tokens.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct('[')) | Some(TokenKind::Punct('!'))
    )
}

/// Consumes an attribute starting at `#`; returns the index past it and
/// whether it marks test-only code (`#[test]`, `#[bench]`, `#[cfg(test)]`).
fn consume_attr(model: &FileModel, i: usize) -> (usize, bool) {
    let mut j = i + 1;
    if matches!(
        model.tokens.get(j).map(|t| &t.kind),
        Some(TokenKind::Punct('!'))
    ) {
        j += 1; // inner attribute `#![…]`
    }
    if !matches!(
        model.tokens.get(j).map(|t| &t.kind),
        Some(TokenKind::Punct('['))
    ) {
        return (i + 1, false);
    }
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg = false;
    while let Some(tok) = model.tokens.get(j) {
        match &tok.kind {
            TokenKind::Punct('[') | TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, is_test);
                }
            }
            TokenKind::Ident if tok.text == "cfg" => saw_cfg = true,
            TokenKind::Ident if tok.text == "test" => {
                // `#[test]` directly, or `test` appearing inside `#[cfg(…)]`.
                is_test |= depth == 1 || saw_cfg;
            }
            TokenKind::Ident if tok.text == "bench" && depth == 1 => is_test = true,
            _ => {}
        }
        j += 1;
    }
    (j, is_test)
}

/// From just past the `fn` keyword, finds the body braces: scans to the first
/// `{` at balanced delimiter depth, or a `;` (bodyless declaration). Returns
/// the token range strictly inside the braces (empty range at the `;` for
/// bodyless forms).
fn fn_body_range(model: &FileModel, from: usize) -> (Range<usize>, bool) {
    let mut depth = 0isize;
    let mut j = from;
    while let Some(tok) = model.tokens.get(j) {
        match &tok.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct(';') if depth == 0 => return (j..j, false),
            TokenKind::Punct('{') if depth == 0 => {
                let close = matching_brace(model, j);
                return (j + 1..close, true);
            }
            _ => {}
        }
        j += 1;
    }
    (model.tokens.len()..model.tokens.len(), false)
}

/// Finds `{ … }` directly after an item keyword (for `mod`): returns the
/// inner range, or `None` for the `;` form.
fn brace_body_after(model: &FileModel, from: usize) -> Option<Range<usize>> {
    let mut j = from;
    while let Some(tok) = model.tokens.get(j) {
        match &tok.kind {
            TokenKind::Punct(';') => return None,
            TokenKind::Punct('{') => {
                let close = matching_brace(model, j);
                return Some(j + 1..close);
            }
            _ => j += 1,
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or end of stream when
/// unbalanced).
fn matching_brace(model: &FileModel, open: usize) -> usize {
    let mut depth = 0isize;
    let mut j = open;
    while let Some(tok) = model.tokens.get(j) {
        match &tok.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    model.tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_functions_and_bodies() {
        let model = FileModel::scan(
            "crates/x/src/lib.rs",
            "pub fn alpha(a: usize) -> usize { a + 1 }\nfn beta();\nfn gamma() { if true { () } }",
        );
        let names: Vec<&str> = model.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        assert!(model.functions[1].body.is_empty());
        assert!(!model.functions[2].body.is_empty());
    }

    #[test]
    fn hot_path_marker_attaches_to_the_next_fn() {
        let model = FileModel::scan(
            "crates/x/src/lib.rs",
            "// analysis: hot_path\n#[inline]\npub fn hot() {}\n\npub fn cold() {}",
        );
        assert!(model.functions[0].hot_path, "marker skips attributes");
        assert!(!model.functions[1].hot_path);
    }

    #[test]
    fn cfg_test_modules_and_test_fns_become_test_ranges() {
        let src = "pub fn lib_code() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { y.unwrap(); }\n}\n\
                   #[test]\nfn stray() { z.unwrap(); }";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        assert_eq!(model.test_ranges.len(), 2, "the mod body and the stray fn");
        let lib_fn = &model.functions[0];
        assert!(!lib_fn.is_test);
        assert!(model.functions.iter().any(|f| f.name == "t" && f.is_test));
        assert!(model
            .functions
            .iter()
            .any(|f| f.name == "stray" && f.is_test));
    }

    #[test]
    fn allow_directives_map_to_covered_lines() {
        let src = "fn f() {\n    x.clone(); // analysis: allow(alloc, reason = \"trailing\")\n    // analysis: allow(panic, reason = \"next line\")\n    y.unwrap();\n}";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        assert_eq!(model.allow_for(2, "alloc").unwrap().reason, "trailing");
        assert_eq!(model.allow_for(4, "panic").unwrap().reason, "next line");
        assert!(model.allow_for(4, "alloc").is_none());
    }

    #[test]
    fn malformed_directives_are_reported() {
        let src = "// analysis: allow(alloc)\n// analysis: allow(bogus, reason = \"x\")\n// ordering:\n// analysis: hot_pth\nfn f() {}";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        assert_eq!(model.directives.malformed.len(), 4);
    }

    #[test]
    fn ordering_lines_are_collected() {
        let src =
            "// ordering: Relaxed is enough, counter only\nlet x = a.load(Ordering::Relaxed);";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        assert_eq!(model.directives.ordering_lines, [1]);
    }

    #[test]
    fn context_classification() {
        assert_eq!(
            FileContext::classify("crates/nn/src/mlp.rs"),
            FileContext::Library
        );
        assert_eq!(
            FileContext::classify("crates/nn/tests/props.rs"),
            FileContext::Test
        );
        assert_eq!(
            FileContext::classify("crates/bench/src/lib.rs"),
            FileContext::Bench
        );
        assert_eq!(
            FileContext::classify("crates/nn/benches/gemm.rs"),
            FileContext::Bench
        );
        assert_eq!(
            FileContext::classify("examples/quickstart.rs"),
            FileContext::Example
        );
        assert_eq!(FileContext::classify("tests/smoke.rs"), FileContext::Test);
    }

    #[test]
    fn impl_blocks_attach_owners() {
        let src = "struct Buf;\n\
                   impl Buf {\n    fn put(&self) {}\n}\n\
                   impl<T: Send> std::fmt::Display for Buf {\n    fn fmt(&self) {}\n}\n\
                   fn free() {}";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        let owner_of = |name: &str| {
            model
                .functions
                .iter()
                .find(|f| f.name == name)
                .unwrap()
                .owner
                .clone()
        };
        assert_eq!(owner_of("put").as_deref(), Some("Buf"));
        assert_eq!(owner_of("fmt").as_deref(), Some("Buf"));
        assert_eq!(owner_of("free"), None);
        assert_eq!(
            model.trait_impls,
            vec![("Display".to_string(), "Buf".to_string())]
        );
    }

    #[test]
    fn trait_blocks_own_default_methods() {
        let src = "trait Policy: Send {\n    fn len(&self) -> usize;\n    fn is_empty(&self) -> bool { self.len() == 0 }\n}\n\
                   impl<F: Fn(usize) -> usize> Policy for Wrapper<F> {\n    fn len(&self) -> usize { 0 }\n}";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        let is_empty = model
            .functions
            .iter()
            .find(|f| f.name == "is_empty")
            .unwrap();
        assert_eq!(is_empty.owner.as_deref(), Some("Policy"));
        assert!(is_empty.owner_is_trait);
        // The `->` inside the impl generics must not unbalance the header.
        let len_impl = model
            .functions
            .iter()
            .find(|f| f.name == "len" && !f.body.is_empty())
            .unwrap();
        assert_eq!(len_impl.owner.as_deref(), Some("Wrapper"));
        assert!(!len_impl.owner_is_trait);
        assert_eq!(
            model.trait_impls,
            vec![("Policy".to_string(), "Wrapper".to_string())]
        );
    }

    #[test]
    fn enclosing_fn_prefers_the_innermost_span() {
        let src = "fn outer() {\n    fn inner() { body(); }\n    tail();\n}";
        let model = FileModel::scan("crates/x/src/lib.rs", src);
        let body_idx = model.tokens.iter().position(|t| t.text == "body").unwrap();
        assert_eq!(model.enclosing_fn(body_idx).unwrap().name, "inner");
        let tail_idx = model.tokens.iter().position(|t| t.text == "tail").unwrap();
        assert_eq!(model.enclosing_fn(tail_idx).unwrap().name, "outer");
    }
}
