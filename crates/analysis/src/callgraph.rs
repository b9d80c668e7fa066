//! The workspace call graph: call sites resolved against the symbol table by
//! receiver-type heuristics, hot-path constraint propagation with chain
//! witnesses, and the two hot-path rules (`hot_path_alloc`,
//! `blocking_in_hot_path`), which cover every marked root and everything it
//! reaches.
//!
//! Resolution is deliberately heuristic — there is no type inference — but
//! every shortcut errs toward *explicit accounting* rather than silent
//! drops:
//!
//! * `self.method()` resolves through the enclosing `impl` block's owner;
//! * `Type::method()` / `Self::method()` resolve by owner, with trait names
//!   fanning out to every implementation (plus provided defaults);
//! * `self.field.method()` resolves through the field's declared type,
//!   including `dyn Trait` fields (the enclosing type itself is excluded
//!   from that fan-out: a container is assumed not to contain itself);
//! * a method on an unknown receiver resolves only when exactly one
//!   workspace fn bears the name and the name is not a common std method;
//!   otherwise it is recorded in [`CallGraph::ambiguous`] (several
//!   candidates) or [`CallGraph::externals`] (none) and contributes no edge;
//! * free calls prefer same-file, then same-crate, then workspace-unique
//!   free fns; `Type::method` references passed as values (no call parens)
//!   still produce edges when the target exists.

use crate::rules::{
    alloc_sites, blocking_sites, ident_text, is_punct, receiver_chain, skip_turbofish, Finding,
    Rule, Site,
};
use crate::scanner::FileModel;
use crate::symbols::{FnId, SymbolTable, Workspace};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct ResolvedSite {
    /// Token index the call anchors to (the method/function name).
    pub token: usize,
    /// Token index of the argument list's `(`, when the site is an actual
    /// call (`None` for `Type::method` value references).
    pub arg_open: Option<usize>,
    /// 1-based source line.
    pub line: u32,
    /// Every candidate callee.
    pub callees: Vec<FnId>,
}

/// A call that resolved to nothing inside the workspace.
#[derive(Debug, Clone)]
pub struct ExternalSite {
    /// Token index of the called name.
    pub token: usize,
    /// 1-based source line.
    pub line: u32,
    /// Rendered name (`".collect()"`, `"std::fs::read_to_string"`).
    pub name: String,
    /// True for a bare lowercase single-segment call — the shape a closure
    /// or fn-parameter invocation takes (`emit(item)`).
    pub bare: bool,
}

/// One deduplicated caller→callee edge.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// The callee.
    pub to: FnId,
    /// Line of the (first) call site producing this edge.
    pub line: u32,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// Deduplicated edges per caller (indexed by `FnId`).
    pub edges: Vec<Vec<CallEdge>>,
    /// Every resolved call site per caller, in token order (the lock-graph
    /// walk needs positions, not just edges).
    pub sites: Vec<Vec<ResolvedSite>>,
    /// Unresolved call sites per caller.
    pub external_sites: Vec<Vec<ExternalSite>>,
    /// Workspace-wide tally of unresolved names.
    pub externals: BTreeMap<String, usize>,
    /// Workspace-wide tally of ambiguous names (several candidates, no
    /// receiver type to pick one — explicitly *not* edges).
    pub ambiguous: BTreeMap<String, usize>,
}

/// Methods whose names are overwhelmingly std-library calls; the
/// unique-name fallback must never bind them to a workspace fn that happens
/// to share the name. (Receiver-typed resolution is unaffected: a
/// `self.shards[_].len()` with a known field type still resolves.)
const COMMON_STD_METHODS: &[&str] = &[
    "push",
    "push_str",
    "pop",
    "insert",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "cloned",
    "copied",
    "extend",
    "extend_from_slice",
    "remove",
    "contains",
    "contains_key",
    "sort",
    "sort_by",
    "sort_unstable",
    "clear",
    "take",
    "set",
    "replace",
    "min",
    "max",
    "abs",
    "sqrt",
    "exp",
    "ln",
    "floor",
    "ceil",
    "round",
    "powi",
    "to_string",
    "to_vec",
    "to_owned",
    "drain",
    "split",
    "splitn",
    "join",
    "fill",
    "swap",
    "swap_remove",
    "last",
    "first",
    "find",
    "position",
    "resize",
    "truncate",
    "retain",
    "map",
    "filter",
    "fold",
    "flat_map",
    "any",
    "all",
    "sum",
    "product",
    "count",
    "zip",
    "rev",
    "chain",
    "chunks",
    "windows",
    "enumerate",
    "collect",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "entry",
    "or_default",
    "or_insert",
    "keys",
    "values",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "chars",
    "bytes",
    "copy_from_slice",
    "store",
    "load",
    "fetch_add",
    "fetch_sub",
    "compare_exchange",
    "min_by_key",
    "max_by_key",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "checked_sub",
    "rem_euclid",
    "to_le_bytes",
    "from_le_bytes",
];

/// Not callables even when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "ref", "else", "let",
    "mut", "pub", "use", "where", "unsafe", "dyn", "break", "continue", "struct", "enum", "trait",
    "mod", "const", "static", "fn", "impl",
];

/// First path segments that always mean "outside the workspace".
const EXTERNAL_PATH_ROOTS: &[&str] = &[
    "std",
    "core",
    "alloc",
    "parking_lot",
    "crossbeam",
    "crossbeam_utils",
    "rand",
    "rand_chacha",
    "rayon",
    "libc",
    "serde",
];

enum Resolution {
    Edges(Vec<FnId>),
    External(String),
    Ambiguous(String),
    Ignore,
}

impl CallGraph {
    /// Resolves every call site in the workspace.
    pub fn build(ws: &Workspace, table: &SymbolTable) -> CallGraph {
        let mut graph = CallGraph {
            edges: vec![Vec::new(); table.fns.len()],
            sites: vec![Vec::new(); table.fns.len()],
            external_sites: vec![Vec::new(); table.fns.len()],
            externals: BTreeMap::new(),
            ambiguous: BTreeMap::new(),
        };
        for id in 0..table.fns.len() {
            if table.fns[id].has_body {
                graph.resolve_fn(ws, table, id);
            }
        }
        graph
    }

    fn resolve_fn(&mut self, ws: &Workspace, table: &SymbolTable, id: FnId) {
        let sym = &table.fns[id];
        let model = &ws.files[sym.file];
        let span = &model.functions[sym.span];
        let toks = &model.tokens;
        let mut i = span.body.start;
        while i < span.body.end {
            // `.method(…)` — possibly with a turbofish.
            if is_punct(toks.get(i), '.') {
                if let Some(m) = ident_text(toks.get(i + 1)) {
                    let open = skip_turbofish(toks, i + 2);
                    if is_punct(toks.get(open), '(') {
                        let line = toks[i + 1].line;
                        let res = self.resolve_method(table, id, model, i, m);
                        self.record(id, i + 1, Some(open), line, res);
                        i = open + 1;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            let Some(name) = ident_text(toks.get(i)) else {
                i += 1;
                continue;
            };
            if toks[i].raw || CALL_KEYWORDS.contains(&name) {
                i += 1;
                continue;
            }
            // `Type::method` used as a value (no call parens): still an edge
            // when it names a real workspace method.
            let path_head = is_punct(toks.get(i + 1), ':')
                && is_punct(toks.get(i + 2), ':')
                && !is_punct(toks.get(i.wrapping_sub(1)), ':');
            if path_head {
                if let Some(target) = ident_text(toks.get(i + 3)) {
                    let after = skip_turbofish(toks, i + 4);
                    let named_owner = table.type_names.contains(name)
                        || table.trait_names.contains(name)
                        || name == "Self";
                    if !is_punct(toks.get(after), '(') && named_owner && !toks[i + 3].raw {
                        let owner = if name == "Self" {
                            sym.owner.clone()
                        } else {
                            Some(name.to_string())
                        };
                        if let Some(owner) = &owner {
                            let callees =
                                filter_candidates(table, id, table.dispatch(owner, target, None));
                            if !callees.is_empty() {
                                let line = toks[i + 3].line;
                                self.record(id, i + 3, None, line, Resolution::Edges(callees));
                                i += 4;
                                continue;
                            }
                        }
                    }
                }
                i += 1;
                continue;
            }
            // Free or path call: `name(…)` where `name` may end a `a::b::name`
            // path. Skip macro bangs and `fn name(` definitions.
            let open = skip_turbofish(toks, i + 1);
            if !is_punct(toks.get(open), '(')
                || is_punct(toks.get(i + 1), '!')
                || ident_text(toks.get(i.wrapping_sub(1))) == Some("fn")
            {
                i += 1;
                continue;
            }
            let mut segments = vec![name.to_string()];
            let mut j = i;
            while j >= 3
                && is_punct(toks.get(j - 1), ':')
                && is_punct(toks.get(j - 2), ':')
                && ident_text(toks.get(j - 3)).is_some()
            {
                segments.insert(0, toks[j - 3].text.clone());
                j -= 3;
            }
            let line = toks[i].line;
            let res = self.resolve_path(table, id, &segments);
            self.record(id, i, Some(open), line, res);
            i = open + 1;
        }
        // Deduplicate edges per callee, keeping the first witness line.
        let mut seen: BTreeMap<FnId, u32> = BTreeMap::new();
        for site in &self.sites[id] {
            for &callee in &site.callees {
                seen.entry(callee).or_insert(site.line);
            }
        }
        self.edges[id] = seen
            .into_iter()
            .map(|(to, line)| CallEdge { to, line })
            .collect();
    }

    fn record(
        &mut self,
        id: FnId,
        token: usize,
        arg_open: Option<usize>,
        line: u32,
        res: Resolution,
    ) {
        match res {
            Resolution::Edges(callees) => self.sites[id].push(ResolvedSite {
                token,
                arg_open,
                line,
                callees,
            }),
            Resolution::External(name) => {
                let bare = !name.contains("::") && !name.starts_with('.');
                *self.externals.entry(name.clone()).or_insert(0) += 1;
                self.external_sites[id].push(ExternalSite {
                    token,
                    line,
                    name,
                    bare,
                });
            }
            Resolution::Ambiguous(name) => {
                *self.ambiguous.entry(name).or_insert(0) += 1;
            }
            Resolution::Ignore => {}
        }
    }

    fn resolve_method(
        &self,
        table: &SymbolTable,
        id: FnId,
        model: &FileModel,
        dot: usize,
        m: &str,
    ) -> Resolution {
        let sym = &table.fns[id];
        let recv = receiver_chain(&model.tokens, dot);
        if recv == "self" {
            if let Some(owner) = &sym.owner {
                let callees = filter_candidates(table, id, table.dispatch(owner, m, None));
                if !callees.is_empty() {
                    return Resolution::Edges(callees);
                }
            }
        } else if let Some(rest) = recv.strip_prefix("self.") {
            // First field segment, `[_]` index suffixes stripped.
            let field = rest
                .split(['.', '['])
                .next()
                .unwrap_or(rest)
                .trim_end_matches("[_]");
            if let Some(owner) = &sym.owner {
                if let Some(types) = table
                    .struct_fields
                    .get(owner)
                    .and_then(|fields| fields.get(field))
                {
                    let mut callees = Vec::new();
                    for k in types {
                        if table.type_names.contains(k) || table.trait_names.contains(k) {
                            let exclude = table.trait_names.contains(k).then_some(owner.as_str());
                            callees.extend(table.dispatch(k, m, exclude));
                        }
                    }
                    callees.sort_unstable();
                    callees.dedup();
                    let callees = filter_candidates(table, id, callees);
                    if !callees.is_empty() {
                        return Resolution::Edges(callees);
                    }
                }
            }
        }
        // Unknown receiver: unique-name fallback, std names excluded.
        let rendered = format!(".{m}()");
        if COMMON_STD_METHODS.contains(&m) {
            return Resolution::External(rendered);
        }
        let all = filter_candidates(table, id, table.by_name.get(m).cloned().unwrap_or_default());
        match all.len() {
            0 => Resolution::External(rendered),
            1 => Resolution::Edges(all),
            _ => Resolution::Ambiguous(rendered),
        }
    }

    fn resolve_path(&self, table: &SymbolTable, id: FnId, segments: &[String]) -> Resolution {
        let sym = &table.fns[id];
        let Some(name) = segments.last().map(String::as_str) else {
            return Resolution::Ignore;
        };
        if segments.len() == 1 {
            if name.chars().next().is_some_and(char::is_uppercase) {
                // Tuple-struct / enum-variant constructor, not a call.
                return Resolution::Ignore;
            }
            let frees: Vec<FnId> = filter_candidates(
                table,
                id,
                table.by_name.get(name).cloned().unwrap_or_default(),
            )
            .into_iter()
            .filter(|&c| table.fns[c].owner.is_none())
            .collect();
            let same_file: Vec<FnId> = frees
                .iter()
                .copied()
                .filter(|&c| table.fns[c].file == sym.file)
                .collect();
            if !same_file.is_empty() {
                return Resolution::Edges(same_file);
            }
            let same_crate: Vec<FnId> = frees
                .iter()
                .copied()
                .filter(|&c| table.fns[c].crate_name == sym.crate_name)
                .collect();
            return match (same_crate.len(), frees.len()) {
                (1, _) => Resolution::Edges(same_crate),
                (0, 0) => Resolution::External(name.to_string()),
                (0, 1) => Resolution::Edges(frees),
                _ => Resolution::Ambiguous(name.to_string()),
            };
        }
        if EXTERNAL_PATH_ROOTS.contains(&segments[0].as_str()) {
            return Resolution::External(segments.join("::"));
        }
        let head = segments[segments.len() - 2].as_str();
        let owner = if head == "Self" || head == "self" {
            sym.owner.clone()
        } else if table.type_names.contains(head) || table.trait_names.contains(head) {
            Some(head.to_string())
        } else {
            // `module::free_fn(…)` — a lowercase head that is no known type:
            // match free fns living in a file/dir named after the module,
            // same-crate first.
            let frees: Vec<FnId> = filter_candidates(
                table,
                id,
                table.by_name.get(name).cloned().unwrap_or_default(),
            )
            .into_iter()
            .filter(|&c| {
                let f = &table.fns[c];
                f.owner.is_none()
                    && (f.rel_path.ends_with(&format!("/{head}.rs"))
                        || f.rel_path.contains(&format!("/{head}/")))
            })
            .collect();
            let same_crate: Vec<FnId> = frees
                .iter()
                .copied()
                .filter(|&c| table.fns[c].crate_name == sym.crate_name)
                .collect();
            return if !same_crate.is_empty() {
                Resolution::Edges(same_crate)
            } else if frees.len() == 1 {
                Resolution::Edges(frees)
            } else {
                Resolution::External(segments.join("::"))
            };
        };
        match owner {
            Some(owner) => {
                let callees = filter_candidates(table, id, table.dispatch(&owner, name, None));
                if callees.is_empty() {
                    Resolution::External(format!("{owner}::{name}"))
                } else {
                    Resolution::Edges(callees)
                }
            }
            None => Resolution::External(segments.join("::")),
        }
    }
}

/// Drops bodyless decls, the caller itself (direct recursion is not an
/// edge worth propagating through), and test fns when the caller is not a
/// test.
fn filter_candidates(table: &SymbolTable, caller: FnId, mut ids: Vec<FnId>) -> Vec<FnId> {
    let caller_is_test = table.fns[caller].is_test;
    ids.retain(|&c| {
        c != caller && table.fns[c].has_body && (caller_is_test || !table.fns[c].is_test)
    });
    ids
}

/// The result of a hot-path reachability pass.
pub struct Propagation {
    /// BFS tree parent (caller) and the call-site line for every reached fn.
    pub parent: Vec<Option<(FnId, u32)>>,
    /// Reached set (roots included).
    pub reached: Vec<bool>,
}

/// BFS from every `hot_path` root. An `// analysis: allow(<allow_key>, …)`
/// grant on a call-site line prunes propagation through that edge —
/// blessing a call blesses everything behind it.
pub fn propagate(
    ws: &Workspace,
    table: &SymbolTable,
    graph: &CallGraph,
    allow_key: &str,
) -> Propagation {
    let mut prop = Propagation {
        parent: vec![None; table.fns.len()],
        reached: table.fns.iter().map(|f| f.hot).collect(),
    };
    let mut queue: VecDeque<FnId> = (0..table.fns.len())
        .filter(|&id| prop.reached[id])
        .collect();
    while let Some(f) = queue.pop_front() {
        let model = &ws.files[table.fns[f].file];
        for edge in &graph.edges[f] {
            if prop.reached[edge.to]
                || table.fns[edge.to].is_test
                || model.allow_for(edge.line, allow_key).is_some()
            {
                continue;
            }
            prop.reached[edge.to] = true;
            prop.parent[edge.to] = Some((f, edge.line));
            queue.push_back(edge.to);
        }
    }
    prop
}

impl Propagation {
    /// The BFS witness chain ending at `f`: `root → g → f`.
    pub fn chain(&self, table: &SymbolTable, f: FnId) -> String {
        let mut names = vec![table.fns[f].display_name()];
        let mut cur = f;
        while let Some((parent, _)) = self.parent[cur] {
            names.push(table.fns[parent].display_name());
            cur = parent;
        }
        names.reverse();
        names.join(" → ")
    }
}

/// Evaluates the two hot-path rules over the resolved graph: every site in a
/// marked root or in a fn it reaches is a finding, unless an allow grant
/// covers the site or prunes a call on the way.
pub(crate) fn hot_path_findings(
    ws: &Workspace,
    table: &SymbolTable,
    graph: &CallGraph,
) -> Vec<Finding> {
    type Detector = fn(&FileModel, std::ops::Range<usize>) -> Vec<Site>;
    let rules: [(Rule, &str, &str, Detector); 2] = [
        (Rule::HotPathAlloc, "alloc", "allocating call", alloc_sites),
        (
            Rule::BlockingInHotPath,
            "blocking",
            "blocking operation",
            blocking_sites,
        ),
    ];
    let mut findings = Vec::new();
    for (rule, key, what, sites) in rules {
        let reach = propagate(ws, table, graph, key);
        for (id, sym) in table.fns.iter().enumerate() {
            if !reach.reached[id] {
                continue;
            }
            let model = &ws.files[sym.file];
            let chain = reach.chain(table, id);
            for site in sites(model, model.functions[sym.span].body.clone()) {
                if model.allow_for(site.line, key).is_some() {
                    continue;
                }
                let detail = site.detail;
                findings.push(Finding {
                    rule,
                    file: model.rel_path.clone(),
                    line: site.line,
                    function: sym.display_name(),
                    message: format!(
                        "{what} `{detail}` on the hot path `{chain}` (allow({key}) at the site, or at a call site along the chain to bless the whole subtree)"
                    ),
                    detail,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileModel;

    fn build(files: &[(&str, &str)]) -> (Workspace, SymbolTable, CallGraph) {
        let ws = Workspace::from_models(
            files
                .iter()
                .map(|(rel, src)| FileModel::scan(rel, src))
                .collect(),
        );
        let table = SymbolTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        (ws, table, graph)
    }

    fn id(table: &SymbolTable, display: &str) -> FnId {
        (0..table.fns.len())
            .find(|&i| table.fns[i].display_name() == display)
            .unwrap_or_else(|| panic!("no fn {display}"))
    }

    fn callees(table: &SymbolTable, graph: &CallGraph, from: &str) -> Vec<String> {
        let mut out: Vec<String> = graph.edges[id(table, from)]
            .iter()
            .map(|e| table.fns[e.to].display_name())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn self_and_type_qualified_calls_resolve_to_owners() {
        let (_ws, table, graph) = build(&[(
            "crates/a/src/lib.rs",
            "struct Codec;\n\
             impl Codec {\n\
                 fn encode(&self) { self.header(); Codec::checksum(); Self::checksum(); }\n\
                 fn header(&self) {}\n\
                 fn checksum() {}\n\
             }",
        )]);
        assert_eq!(
            callees(&table, &graph, "Codec::encode"),
            ["Codec::checksum", "Codec::header"]
        );
    }

    #[test]
    fn field_typed_receivers_and_dyn_trait_fields_fan_out() {
        let (_ws, table, graph) = build(&[(
            "crates/buf/src/lib.rs",
            "trait Policy { fn put(&self); }\n\
             struct Fifo;\n\
             impl Policy for Fifo { fn put(&self) {} }\n\
             struct Firo;\n\
             impl Policy for Firo { fn put(&self) {} }\n\
             struct Facade { shards: Vec<Box<dyn Policy>>, one: Fifo }\n\
             impl Policy for Facade { fn put(&self) { self.shards[0].put(); } }\n\
             impl Facade { fn direct(&self) { self.one.put(); } }",
        )]);
        // dyn-dispatch fans out to both impls; Facade itself is excluded
        // (a container does not contain itself).
        assert_eq!(
            callees(&table, &graph, "Facade::put"),
            ["Fifo::put", "Firo::put"]
        );
        assert_eq!(callees(&table, &graph, "Facade::direct"), ["Fifo::put"]);
    }

    #[test]
    fn unknown_receivers_are_ambiguous_not_edges() {
        let (_ws, table, graph) = build(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn serve(&self) {} }\n\
             impl B { fn serve(&self) {} }\n\
             fn caller(x: &A) { x.serve(); }",
        )]);
        assert!(callees(&table, &graph, "caller").is_empty());
        assert_eq!(graph.ambiguous.get(".serve()"), Some(&1));
    }

    #[test]
    fn externals_are_recorded_with_counts() {
        let (_ws, table, graph) = build(&[(
            "crates/a/src/lib.rs",
            "fn caller(emit: impl Fn(u32)) { emit(1); emit(2); std::fs::read_to_string(\"x\"); v.collect::<Vec<_>>(); }",
        )]);
        assert_eq!(graph.externals.get("emit"), Some(&2));
        assert_eq!(graph.externals.get("std::fs::read_to_string"), Some(&1));
        // `.collect()` is a common std method: external, never an edge.
        assert_eq!(graph.externals.get(".collect()"), Some(&1));
        let caller = id(&table, "caller");
        assert!(graph.external_sites[caller]
            .iter()
            .any(|e| e.bare && e.name == "emit"));
    }

    #[test]
    fn free_calls_prefer_same_file_then_crate() {
        let (_ws, table, graph) = build(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn caller() { helper(); }",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let caller = id(&table, "caller");
        assert_eq!(graph.edges[caller].len(), 1);
        let to = graph.edges[caller][0].to;
        assert_eq!(table.fns[to].crate_name, "a");
    }

    #[test]
    fn method_references_without_parens_still_edge() {
        let (_ws, table, graph) = build(&[(
            "crates/a/src/lib.rs",
            "struct Msg;\n\
             impl Msg { fn wire_bytes(&self) -> usize { 0 } }\n\
             fn total(msgs: &[Msg]) -> usize { msgs.iter().map(Msg::wire_bytes).sum::<usize>() }",
        )]);
        assert_eq!(callees(&table, &graph, "total"), ["Msg::wire_bytes"]);
    }

    #[test]
    fn propagation_carries_chain_witnesses_and_allow_prunes() {
        let src = "\
// analysis: hot_path
fn root() { middle(); }
fn middle() { leaf(); blessed(); }
fn leaf() { let v = Vec::new(); v.len(); }
// analysis: allow(alloc, reason = \"one-time setup behind a flag\")
fn unreached() {}
fn blessed() { let v = Vec::new(); v.len(); }
";
        // `blessed()` is called on a line covered by an allow in `middle`:
        let src = src.replace(
            "fn middle() { leaf(); blessed(); }",
            "fn middle() {\n    leaf();\n    // analysis: allow(alloc, reason = \"cold slow-path refill\")\n    blessed();\n}",
        );
        let (ws, table, graph) = build(&[("crates/a/src/lib.rs", &src)]);
        let findings = hot_path_findings(&ws, &table, &graph);
        let alloc: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::HotPathAlloc)
            .collect();
        assert_eq!(alloc.len(), 1, "{alloc:?}");
        assert_eq!(alloc[0].function, "leaf");
        assert!(
            alloc[0].message.contains("root → middle → leaf"),
            "chain witness missing: {}",
            alloc[0].message
        );
        // The blessed subtree contributed nothing.
        assert!(!findings.iter().any(|f| f.function == "blessed"));
    }

    #[test]
    fn blocking_rule_covers_roots_and_reached_fns() {
        let (ws, table, graph) = build(&[(
            "crates/a/src/lib.rs",
            "// analysis: hot_path\n\
             fn root(&self) { self.inner.lock(); helper(); }\n\
             fn helper() { std::thread::sleep(d); }\n\
             fn cold() { other.lock(); }",
        )]);
        let findings = hot_path_findings(&ws, &table, &graph);
        let blocking: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::BlockingInHotPath)
            .collect();
        let details: Vec<&str> = blocking.iter().map(|f| f.detail.as_str()).collect();
        assert_eq!(details, [".lock()", "sleep()"], "{blocking:?}");
        assert!(blocking[1].message.contains("root → helper"));
    }
}
