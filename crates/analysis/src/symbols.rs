//! Workspace loading and the symbol table: every scanned file retained in
//! memory, every `fn` indexed by name and owner, plus the type-level facts
//! (struct fields, trait impls) the call-graph resolver leans on.

use crate::lexer::{Token, TokenKind};
use crate::rules::{ident_text, is_punct};
use crate::scanner::{FileContext, FileModel};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Directories walked under the workspace root.
pub const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];
/// Path components that end a walk: build output, vendored third-party
/// stand-ins (not this project's code), and the analyzer's own deliberately
/// violating fixture files.
pub const SKIP_COMPONENTS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// The scanned workspace: every Rust file under the scan roots, in sorted
/// path order, with its full [`FileModel`] retained for interprocedural
/// passes.
pub struct Workspace {
    /// One model per file, sorted by `rel_path`.
    pub files: Vec<FileModel>,
}

impl Workspace {
    /// Walks and scans the workspace rooted at `root`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        for dir in SCAN_ROOTS {
            collect_rust_files(&root.join(dir), &mut paths);
        }
        paths.sort();
        let mut files = Vec::new();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let model =
                FileModel::scan_path(root, &rel).map_err(|e| format!("reading {rel}: {e}"))?;
            files.push(model);
        }
        Ok(Workspace { files })
    }

    /// Builds a synthetic workspace from pre-scanned models (tests).
    pub fn from_models(mut files: Vec<FileModel>) -> Workspace {
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace { files }
    }
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if SKIP_COMPONENTS.contains(&name.as_str()) {
            continue;
        }
        if path.is_dir() {
            collect_rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Index of a function in [`SymbolTable::fns`].
pub type FnId = usize;

/// One function symbol, denormalised from its [`crate::scanner::FnSpan`].
#[derive(Debug)]
pub struct FnSym {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `functions`.
    pub span: usize,
    /// Plain function name.
    pub name: String,
    /// Owning type/trait, if any.
    pub owner: Option<String>,
    /// True for a `trait` block's provided default method.
    pub owner_is_trait: bool,
    /// True for `#[cfg(test)]`/`#[test]` fns **or** any fn in a `tests/`
    /// file — the hot-path rules check a marked test fn itself but never
    /// propagate into test code, and the lock graph skips it.
    pub is_test: bool,
    /// Carries a `// analysis: hot_path` marker.
    pub hot: bool,
    /// Has a real body (false for bodyless trait-method declarations).
    pub has_body: bool,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Crate the file belongs to (`crates/<name>/…` → `<name>`).
    pub crate_name: String,
    /// Workspace-relative path of the defining file.
    pub rel_path: String,
}

impl FnSym {
    /// `Owner::name` for methods, plain `name` otherwise.
    pub fn display_name(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace-wide symbol table.
pub struct SymbolTable {
    /// Every function, in (file, span) order — so `FnId`s are deterministic.
    pub fns: Vec<FnSym>,
    /// Functions by plain name.
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// Workspace `struct`/`enum` names and `impl` owners.
    pub type_names: BTreeSet<String>,
    /// Workspace `trait` names.
    pub trait_names: BTreeSet<String>,
    /// `(trait, type)` pairs from `impl Trait for Type`.
    pub trait_impls: BTreeSet<(String, String)>,
    /// `owner → field → candidate type names` mined from struct definitions;
    /// feeds `self.field.method()` receiver typing.
    pub struct_fields: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl SymbolTable {
    /// Builds the table over a scanned workspace.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable {
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            type_names: BTreeSet::new(),
            trait_names: BTreeSet::new(),
            trait_impls: BTreeSet::new(),
            struct_fields: BTreeMap::new(),
        };
        for (file_idx, model) in ws.files.iter().enumerate() {
            let crate_name = crate_of(&model.rel_path);
            let file_is_test = model.context == FileContext::Test;
            for (span_idx, span) in model.functions.iter().enumerate() {
                if span.name.is_empty() {
                    continue;
                }
                let id = table.fns.len();
                table.fns.push(FnSym {
                    file: file_idx,
                    span: span_idx,
                    name: span.name.clone(),
                    owner: span.owner.clone(),
                    owner_is_trait: span.owner_is_trait,
                    is_test: span.is_test || file_is_test,
                    hot: span.hot_path,
                    has_body: span.has_body,
                    line: span.line,
                    crate_name: crate_name.clone(),
                    rel_path: model.rel_path.clone(),
                });
                table.by_name.entry(span.name.clone()).or_default().push(id);
                if let Some(owner) = &span.owner {
                    if span.owner_is_trait {
                        table.trait_names.insert(owner.clone());
                    } else {
                        table.type_names.insert(owner.clone());
                    }
                }
            }
            for (tr, ty) in &model.trait_impls {
                table.trait_names.insert(tr.clone());
                table.type_names.insert(ty.clone());
                table.trait_impls.insert((tr.clone(), ty.clone()));
            }
            collect_type_defs(model, &mut table);
        }
        table
    }

    /// All `fn`s named `name` with owner `owner` that have bodies.
    pub fn owner_methods(&self, owner: &str, name: &str) -> Vec<FnId> {
        self.by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        self.fns[id].has_body && self.fns[id].owner.as_deref() == Some(owner)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolves method `name` on a value of type-or-trait `target`:
    /// direct impl methods first; for traits, every implementing type's
    /// method plus the trait's own default. `exclude_owner` suppresses one
    /// implementing type (used to keep `self.field`-driven dyn dispatch from
    /// claiming the enclosing type contains itself).
    pub fn dispatch(&self, target: &str, name: &str, exclude_owner: Option<&str>) -> Vec<FnId> {
        let direct = self.owner_methods(target, name);
        if !direct.is_empty() && !self.trait_names.contains(target) {
            return direct;
        }
        if self.trait_names.contains(target) {
            // `direct` here is the trait's provided default. It only applies
            // to implementing types that do NOT override the method — a
            // default shadowed by every impl must not leak its own `self.…`
            // fan-out into dispatch.
            let mut out = Vec::new();
            let mut any_impl = false;
            for (tr, ty) in &self.trait_impls {
                if tr == target && exclude_owner != Some(ty.as_str()) {
                    any_impl = true;
                    let overrides = self.owner_methods(ty, name);
                    if overrides.is_empty() {
                        out.extend(direct.iter().copied());
                    } else {
                        out.extend(overrides);
                    }
                }
            }
            if !any_impl {
                out.extend(direct);
            }
            out.sort_unstable();
            out.dedup();
            return out;
        }
        // A type without a direct method: maybe a default from a trait it
        // implements.
        let mut out = Vec::new();
        for (tr, ty) in &self.trait_impls {
            if ty == target {
                out.extend(
                    self.owner_methods(tr, name)
                        .into_iter()
                        .filter(|&id| self.fns[id].owner_is_trait),
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// `crates/<name>/…` → `<name>`; otherwise the first path component.
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("crates").to_string(),
        Some(first) => first.to_string(),
        None => String::new(),
    }
}

/// Mines `struct`/`enum` names and struct field types from one file's token
/// stream.
fn collect_type_defs(model: &FileModel, table: &mut SymbolTable) {
    let toks = &model.tokens;
    let mut i = 0;
    while i < toks.len() {
        let tok = &toks[i];
        if tok.kind != TokenKind::Ident || tok.raw {
            i += 1;
            continue;
        }
        match tok.text.as_str() {
            "struct" | "enum" | "union" => {
                if let Some(name) = ident_text(toks.get(i + 1)) {
                    table.type_names.insert(name.to_string());
                    if tok.text == "struct" {
                        if let Some(next) = collect_struct_fields(toks, i + 2, name, table) {
                            i = next;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            "trait" => {
                if let Some(name) = ident_text(toks.get(i + 1)) {
                    table.trait_names.insert(name.to_string());
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// From just past a struct's name, finds `{ field: Type, … }` and records
/// each field's candidate type names (capitalised idents in the type
/// position). Returns the token index past the body, or `None` for tuple /
/// unit structs (or an expression context that only looked like one).
fn collect_struct_fields(
    toks: &[Token],
    from: usize,
    owner: &str,
    table: &mut SymbolTable,
) -> Option<usize> {
    // Skip generics / where clause to the body opener.
    let mut angle = 0isize;
    let mut j = from;
    let open = loop {
        let tok = toks.get(j)?;
        match &tok.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') if !is_punct(toks.get(j.wrapping_sub(1)), '-') => angle -= 1,
            TokenKind::Punct('{') if angle == 0 => break j,
            TokenKind::Punct('(') | TokenKind::Punct(';') if angle == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    let mut depth = 0isize;
    let mut j = open;
    let mut field: Option<String> = None;
    let mut in_type = false;
    while let Some(tok) = toks.get(j) {
        match &tok.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            TokenKind::Punct(':')
                if depth == 1 && !is_punct(toks.get(j + 1), ':')
                // `field:` — but not the `::` of a path.
                && !is_punct(toks.get(j.wrapping_sub(1)), ':') =>
            {
                field = ident_text(toks.get(j.wrapping_sub(1))).map(str::to_string);
                in_type = field.is_some();
                j += 1;
                continue;
            }
            TokenKind::Punct(',') if depth == 1 => {
                field = None;
                in_type = false;
            }
            TokenKind::Ident if in_type && depth == 1 => {
                let starts_upper = tok.text.chars().next().is_some_and(char::is_uppercase);
                if starts_upper {
                    if let Some(field) = &field {
                        table
                            .struct_fields
                            .entry(owner.to_string())
                            .or_default()
                            .entry(field.clone())
                            .or_default()
                            .push(tok.text.clone());
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some(toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_models(
            files
                .iter()
                .map(|(rel, src)| FileModel::scan(rel, src))
                .collect(),
        )
    }

    #[test]
    fn table_indexes_fns_types_and_fields() {
        let ws = ws(&[(
            "crates/buf/src/lib.rs",
            "pub trait Policy { fn put(&self); }\n\
             pub struct Fifo { inner: Mutex<Inner>, shards: Vec<Box<dyn Policy>> }\n\
             impl Policy for Fifo { fn put(&self) {} }\n\
             impl Fifo { fn helper(&self) {} }\n\
             fn free() {}",
        )]);
        let table = SymbolTable::build(&ws);
        assert!(table.type_names.contains("Fifo"));
        assert!(table.trait_names.contains("Policy"));
        assert!(table
            .trait_impls
            .contains(&("Policy".to_string(), "Fifo".to_string())));
        let fields = &table.struct_fields["Fifo"];
        assert_eq!(fields["inner"], vec!["Mutex", "Inner"]);
        assert_eq!(fields["shards"], vec!["Vec", "Box", "Policy"]);
        assert_eq!(table.owner_methods("Fifo", "helper").len(), 1);
        // Trait dispatch finds the impl; bodyless trait decl is not a target.
        let put = table.dispatch("Policy", "put", None);
        assert_eq!(put.len(), 1);
        assert_eq!(table.fns[put[0]].owner.as_deref(), Some("Fifo"));
        assert!(table.dispatch("Policy", "put", Some("Fifo")).is_empty());
    }

    #[test]
    fn crate_names_come_from_the_path() {
        let ws = ws(&[
            ("crates/nn/src/mlp.rs", "fn a() {}"),
            ("src/main.rs", "fn b() {}"),
            ("tests/smoke.rs", "fn c() {}"),
        ]);
        let table = SymbolTable::build(&ws);
        let by = |name: &str| {
            let id = table.by_name[name][0];
            (table.fns[id].crate_name.clone(), table.fns[id].is_test)
        };
        assert_eq!(by("a"), ("nn".to_string(), false));
        assert_eq!(by("b"), ("src".to_string(), false));
        assert_eq!(by("c"), ("tests".to_string(), true));
    }
}
