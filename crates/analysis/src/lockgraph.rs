//! The workspace lock graph: every "lock B acquired while lock A is held"
//! edge, collected across function boundaries, and the `lock_order` rule
//! read off it: an edge is a finding when it closes a cycle, contradicts the
//! ranks declared in `analysis/locks.toml`, or has an endpoint no class
//! there declares.
//!
//! Edges come from three walks, all witness-carrying (`file:line`):
//!
//! 1. **Intra-function**: a direct `.lock()`/`.read()`/`.write()` while a
//!    let-bound guard is live.
//! 2. **Cross-function**: a resolved call while guards are live contributes
//!    edges from every held class to every class in the callee's *transitive
//!    lock summary* (a fixpoint over the call graph).
//! 3. **Closures**: for `f(|x| …)` where the callee invokes its parameter
//!    while holding locks (detected as guards live at a bare unresolved call
//!    inside the callee), edges run from those locks to everything the
//!    closure body acquires. This is what catches the classic
//!    facade-holds-lock-then-calls-back-into-policy deadlock shape.
//!
//! Guard heuristics: a let-bound call to a workspace fn whose name starts
//! with `lock` is treated as binding a guard that holds the callee's summary
//! (the `lock_inner()` helper convention); everything else holding locks
//! only transiently contributes call-site edges but no live guard.

use crate::callgraph::CallGraph;
use crate::lexer::TokenKind;
use crate::manifest::LockManifest;
use crate::rules::{
    ident_text, is_punct, let_binding_name, let_bound_name, receiver_chain, Finding, Rule,
};
use crate::symbols::{FnId, SymbolTable, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// One lock class in the inferred graph.
#[derive(Debug)]
pub struct LockNode {
    /// The declared class name, or `file::receiver` for undeclared locks.
    pub key: String,
    /// Declared rank, when `analysis/locks.toml` covers the class.
    pub rank: Option<i64>,
}

/// One held→acquired edge with its witness.
#[derive(Debug)]
pub struct LockEdge {
    /// Held class (index into [`LockGraph::nodes`]).
    pub from: usize,
    /// Acquired class.
    pub to: usize,
    /// Witness file.
    pub file: String,
    /// Witness line (the acquisition or the call site that leads to it).
    pub line: u32,
    /// How the edge arises (empty for a direct nested acquisition, else the
    /// callee or closure description).
    pub via: String,
}

/// The inferred workspace lock graph.
pub struct LockGraph {
    /// Interned lock classes.
    pub nodes: Vec<LockNode>,
    /// Deduplicated edges (first witness kept).
    pub edges: Vec<LockEdge>,
}

/// A cycle through the inferred graph: edge indices, in order.
#[derive(Debug)]
pub struct Cycle {
    /// Indices into [`LockGraph::edges`], from each node to the next.
    pub edges: Vec<usize>,
}

const ACQUIRERS: [&str; 3] = ["lock", "read", "write"];

struct Builder<'a> {
    ws: &'a Workspace,
    table: &'a SymbolTable,
    graph: &'a CallGraph,
    manifest: &'a LockManifest,
    nodes: Vec<LockNode>,
    node_index: BTreeMap<String, usize>,
    /// Per-fn direct acquisitions: `(token, node, line)`.
    direct: Vec<Vec<(usize, usize, u32)>>,
    /// Per-fn transitive lock summary.
    summary: Vec<BTreeSet<usize>>,
    /// Per-fn classes held while the fn invokes a bare unresolved callable
    /// (the closure-parameter shape).
    callback_held: Vec<BTreeSet<usize>>,
    edges: Vec<LockEdge>,
    edge_index: BTreeSet<(usize, usize)>,
}

impl LockGraph {
    /// Builds the graph over the resolved workspace.
    pub fn build(
        ws: &Workspace,
        table: &SymbolTable,
        graph: &CallGraph,
        manifest: &LockManifest,
    ) -> LockGraph {
        let n = table.fns.len();
        let mut b = Builder {
            ws,
            table,
            graph,
            manifest,
            nodes: Vec::new(),
            node_index: BTreeMap::new(),
            direct: vec![Vec::new(); n],
            summary: vec![BTreeSet::new(); n],
            callback_held: vec![BTreeSet::new(); n],
            edges: Vec::new(),
            edge_index: BTreeSet::new(),
        };
        for id in 0..n {
            b.collect_direct(id);
        }
        b.fixpoint_summaries();
        for id in 0..n {
            b.walk(id, false); // callback_held
        }
        for id in 0..n {
            b.walk(id, true); // edges
        }
        LockGraph {
            nodes: b.nodes,
            edges: b.edges,
        }
    }

    /// Every elementary cycle found by DFS (one per back edge; a self-loop
    /// counts). An empty result means the lock order is deadlock-free as
    /// far as the graph sees.
    pub fn cycles(&self) -> Vec<Cycle> {
        let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (idx, e) in self.edges.iter().enumerate() {
            adj.entry(e.from).or_default().push(idx);
        }
        let mut state = vec![0u8; self.nodes.len()]; // 0 new, 1 on-stack, 2 done
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, via edge)
        let mut cycles = Vec::new();
        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        for start in 0..self.nodes.len() {
            if state[start] != 0 {
                continue;
            }
            self.dfs(start, &adj, &mut state, &mut stack, &mut cycles, &mut seen);
        }
        cycles
    }

    fn dfs(
        &self,
        node: usize,
        adj: &BTreeMap<usize, Vec<usize>>,
        state: &mut Vec<u8>,
        stack: &mut Vec<(usize, usize)>,
        cycles: &mut Vec<Cycle>,
        seen: &mut BTreeSet<Vec<usize>>,
    ) {
        state[node] = 1;
        for &edge_idx in adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]) {
            let to = self.edges[edge_idx].to;
            if state[to] == 1 || to == node {
                // Back edge: the cycle is the stack from `to` down, plus this
                // edge.
                let mut edges: Vec<usize> = Vec::new();
                if to != node {
                    // `to` is either on the stack or the DFS root (roots are
                    // never pushed): take the path edges from `to` onwards.
                    let from_idx = stack
                        .iter()
                        .position(|&(n, _)| n == to)
                        .map(|p| p + 1)
                        .unwrap_or(0);
                    for &(_, via) in &stack[from_idx..] {
                        edges.push(via);
                    }
                }
                edges.push(edge_idx);
                let mut key: Vec<usize> = edges.clone();
                key.sort_unstable();
                if seen.insert(key) {
                    cycles.push(Cycle { edges });
                }
            } else if state[to] == 0 {
                stack.push((to, edge_idx));
                self.dfs(to, adj, state, stack, cycles, seen);
                stack.pop();
            }
        }
        state[node] = 2;
    }

    /// Edges that contradict the declared ranks: an acquisition whose rank
    /// is not strictly greater than the held class's rank. Empty means the
    /// declared ranks are a valid topological order of the inferred graph.
    pub fn rank_violations(&self) -> Vec<&LockEdge> {
        self.edges
            .iter()
            .filter(|e| self.contradicts_ranks(e))
            .collect()
    }

    fn contradicts_ranks(&self, e: &LockEdge) -> bool {
        match (self.nodes[e.from].rank, self.nodes[e.to].rank) {
            (Some(held), Some(acq)) => acq <= held,
            _ => false,
        }
    }

    /// Renders one cycle as a human-readable witness trail.
    pub fn describe_cycle(&self, cycle: &Cycle) -> String {
        let mut parts = Vec::new();
        for &idx in &cycle.edges {
            let e = &self.edges[idx];
            let via = if e.via.is_empty() {
                String::new()
            } else {
                format!(" via {}", e.via)
            };
            parts.push(format!(
                "{} → {} ({}:{}{via})",
                self.nodes[e.from].key, self.nodes[e.to].key, e.file, e.line
            ));
        }
        parts.join(", ")
    }

    /// The `lock_order` findings: one per offending edge, at its witness.
    /// An edge offends when it contradicts the declared ranks or touches an
    /// undeclared class. Every cycle contains such an edge (ranks strictly
    /// rise along the others); the cycle is reported on the first one, or on
    /// its first edge should none offend.
    pub(crate) fn findings(&self) -> Vec<Finding> {
        let mut reasons: Vec<Vec<String>> = vec![Vec::new(); self.edges.len()];
        for (e, why) in self.edges.iter().zip(&mut reasons) {
            let (held, acquired) = (&self.nodes[e.from], &self.nodes[e.to]);
            if self.contradicts_ranks(e) {
                why.push(format!(
                    "rank {} is not above the held rank {} declared in analysis/locks.toml",
                    acquired.rank.unwrap_or(0),
                    held.rank.unwrap_or(0)
                ));
            }
            let ends = if e.from == e.to { 1 } else { 2 };
            for node in [held, acquired].into_iter().take(ends) {
                if node.rank.is_none() {
                    why.push(format!(
                        "`{}` is not declared in analysis/locks.toml",
                        node.key
                    ));
                }
            }
        }
        for cycle in self.cycles() {
            let at = cycle
                .edges
                .iter()
                .copied()
                .find(|&i| !reasons[i].is_empty())
                .unwrap_or(cycle.edges[0]);
            reasons[at].push(format!("closes the cycle {}", self.describe_cycle(&cycle)));
        }
        self.edges
            .iter()
            .zip(reasons)
            .filter(|(_, why)| !why.is_empty())
            .map(|(e, why)| {
                let (held, acquired) = (&self.nodes[e.from].key, &self.nodes[e.to].key);
                let via = if e.via.is_empty() {
                    String::new()
                } else {
                    format!(" via {}", e.via)
                };
                Finding {
                    rule: Rule::LockOrder,
                    file: e.file.clone(),
                    line: e.line,
                    function: String::new(),
                    detail: format!("{held} → {acquired}"),
                    message: format!(
                        "`{acquired}` acquired while `{held}` is held{via}: {}",
                        why.join("; ")
                    ),
                }
            })
            .collect()
    }
}

impl<'a> Builder<'a> {
    fn intern(&mut self, file: &str, receiver: &str) -> usize {
        let (key, rank) = match self.manifest.class_of(file, receiver) {
            Some(class) => (class.name.clone(), Some(class.rank)),
            None => (format!("{file}::{receiver}"), None),
        };
        if let Some(&idx) = self.node_index.get(&key) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(LockNode {
            key: key.clone(),
            rank,
        });
        self.node_index.insert(key, idx);
        idx
    }

    /// Records every `.lock()`/`.read()`/`.write()` (empty parens) in `id`'s
    /// body.
    fn collect_direct(&mut self, id: FnId) {
        let sym = &self.table.fns[id];
        if !sym.has_body || sym.is_test {
            return;
        }
        let model = &self.ws.files[sym.file];
        let body = model.functions[sym.span].body.clone();
        let rel = model.rel_path.clone();
        let toks = &model.tokens;
        let mut found = Vec::new();
        for i in body {
            if is_punct(toks.get(i), '.')
                && ident_text(toks.get(i + 1)).is_some_and(|m| ACQUIRERS.contains(&m))
                && is_punct(toks.get(i + 2), '(')
                && is_punct(toks.get(i + 3), ')')
            {
                let receiver = receiver_chain(toks, i);
                found.push((i, receiver, toks[i + 1].line));
            }
        }
        for (token, receiver, line) in found {
            let node = self.intern(&rel, &receiver);
            self.direct[id].push((token, node, line));
            self.summary[id].insert(node);
        }
    }

    /// Transitive lock summaries: `summary(f) = direct(f) ∪ ⋃ summary(g)`
    /// over every resolved callee `g`.
    fn fixpoint_summaries(&mut self) {
        loop {
            let mut changed = false;
            for id in 0..self.table.fns.len() {
                let mut add: Vec<usize> = Vec::new();
                for site in &self.graph.sites[id] {
                    for &callee in &site.callees {
                        for &node in &self.summary[callee] {
                            if !self.summary[id].contains(&node) {
                                add.push(node);
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    self.summary[id].extend(add);
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, file: &str, line: u32, via: &str) {
        if self.edge_index.insert((from, to)) {
            self.edges.push(LockEdge {
                from,
                to,
                file: file.to_string(),
                line,
                via: via.to_string(),
            });
        }
    }

    /// The guard-tracking walk over one body. With `emit` false it only
    /// records `callback_held`; with `emit` true it produces edges.
    fn walk(&mut self, id: FnId, emit: bool) {
        let sym = &self.table.fns[id];
        if !sym.has_body || sym.is_test {
            return;
        }
        let model = &self.ws.files[sym.file];
        let body = model.functions[sym.span].body.clone();
        let rel = model.rel_path.clone();
        let lo = body.start;

        // (guard name, brace depth, classes held, line)
        let mut live: Vec<(String, isize, Vec<usize>, u32)> = Vec::new();
        let mut depth = 0isize;
        let mut direct_iter = 0usize;
        let mut site_iter = 0usize;
        let mut ext_iter = 0usize;

        let mut i = body.start;
        while i < body.end {
            let toks = &self.ws.files[self.table.fns[id].file].tokens;
            match &toks[i].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    live.retain(|g| g.1 <= depth);
                }
                TokenKind::Ident if toks[i].text == "drop" && is_punct(toks.get(i + 1), '(') => {
                    if let Some(name) = ident_text(toks.get(i + 2)) {
                        if is_punct(toks.get(i + 3), ')') {
                            live.retain(|g| g.0 != name);
                        }
                    }
                }
                _ => {}
            }
            // Direct acquisition at this token?
            while direct_iter < self.direct[id].len() && self.direct[id][direct_iter].0 < i {
                direct_iter += 1;
            }
            if direct_iter < self.direct[id].len() && self.direct[id][direct_iter].0 == i {
                let (_, node, line) = self.direct[id][direct_iter];
                if emit {
                    let held: Vec<usize> = live.iter().flat_map(|g| g.2.clone()).collect();
                    for from in held {
                        self.add_edge(from, node, &rel, line, "");
                    }
                }
                let toks = &self.ws.files[self.table.fns[id].file].tokens;
                if let Some(name) = let_binding_name(toks, i, lo) {
                    if is_punct(toks.get(i + 4), ';') {
                        live.retain(|g| g.0 != name);
                        live.push((name, depth, vec![node], line));
                    }
                }
            }
            // Resolved call site anchored at this token?
            while site_iter < self.graph.sites[id].len()
                && self.graph.sites[id][site_iter].token < i
            {
                site_iter += 1;
            }
            if site_iter < self.graph.sites[id].len() && self.graph.sites[id][site_iter].token == i
            {
                let site = &self.graph.sites[id][site_iter];
                let line = site.line;
                let arg_open = site.arg_open;
                let callees: Vec<FnId> = site.callees.clone();
                let mut trans: BTreeSet<usize> = BTreeSet::new();
                for &c in &callees {
                    trans.extend(self.summary[c].iter().copied());
                }
                if emit && !trans.is_empty() {
                    let held: Vec<usize> = live.iter().flat_map(|g| g.2.clone()).collect();
                    let via = callees
                        .iter()
                        .map(|&c| self.table.fns[c].display_name())
                        .collect::<Vec<_>>()
                        .join("|");
                    for from in held {
                        for &to in &trans {
                            self.add_edge(from, to, &rel, line, &via);
                        }
                    }
                }
                if emit {
                    if let Some(open) = arg_open {
                        self.closure_edges(id, &callees, open, &rel, line);
                    }
                }
                // The `lock_*()` helper convention: a let-bound call to a
                // lock-named fn binds its summary as a live guard.
                let toks = &self.ws.files[self.table.fns[id].file].tokens;
                let lock_named = callees
                    .iter()
                    .any(|&c| self.table.fns[c].name.starts_with("lock"));
                if lock_named && !trans.is_empty() {
                    if let Some(name) = binding_for_call(toks, i, lo) {
                        live.retain(|g| g.0 != name);
                        live.push((name, depth, trans.iter().copied().collect(), line));
                    }
                }
            }
            // Bare unresolved call (closure-parameter shape)?
            while ext_iter < self.graph.external_sites[id].len()
                && self.graph.external_sites[id][ext_iter].token < i
            {
                ext_iter += 1;
            }
            if !emit
                && ext_iter < self.graph.external_sites[id].len()
                && self.graph.external_sites[id][ext_iter].token == i
                && self.graph.external_sites[id][ext_iter].bare
            {
                let held: Vec<usize> = live.iter().flat_map(|g| g.2.clone()).collect();
                self.callback_held[id].extend(held);
            }
            i += 1;
        }
    }

    /// For a call site passing a closure literal: everything the closure
    /// acquires (directly or through calls it makes) is reachable while the
    /// callee holds its `callback_held` classes.
    fn closure_edges(&mut self, id: FnId, callees: &[FnId], open: usize, rel: &str, line: u32) {
        let model = &self.ws.files[self.table.fns[id].file];
        let toks = &model.tokens;
        // Find the matching `)` and check for a top-level closure pipe.
        let mut depth = 0isize;
        let mut close = open;
        let mut has_closure = false;
        while let Some(tok) = toks.get(close) {
            match &tok.kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct('|') if depth == 1 => has_closure = true,
                _ => {}
            }
            close += 1;
        }
        if !has_closure {
            return;
        }
        let mut closure_locks: BTreeSet<usize> = BTreeSet::new();
        for &(token, node, _) in &self.direct[id] {
            if token > open && token < close {
                closure_locks.insert(node);
            }
        }
        for site in &self.graph.sites[id] {
            if site.token > open && site.token < close {
                for &c in &site.callees {
                    closure_locks.extend(self.summary[c].iter().copied());
                }
            }
        }
        if closure_locks.is_empty() {
            return;
        }
        let mut pairs: Vec<(usize, usize, String)> = Vec::new();
        for &callee in callees {
            let name = self.table.fns[callee].display_name();
            for &from in &self.callback_held[callee] {
                for &to in &closure_locks {
                    pairs.push((from, to, format!("closure passed to {name}")));
                }
            }
        }
        for (from, to, via) in pairs {
            self.add_edge(from, to, rel, line, &via);
        }
    }
}

/// The `let [mut] name = ` binding for a call anchored at `site_token`
/// (method name or path-final segment), if any.
fn binding_for_call(toks: &[crate::lexer::Token], site_token: usize, lo: usize) -> Option<String> {
    if site_token > 0 && is_punct(toks.get(site_token - 1), '.') {
        return let_binding_name(toks, site_token - 1, lo);
    }
    // Walk back over `a::b::` path segments.
    let mut j = site_token;
    while j >= 3
        && is_punct(toks.get(j - 1), ':')
        && is_punct(toks.get(j - 2), ':')
        && ident_text(toks.get(j - 3)).is_some()
    {
        j -= 3;
    }
    let_bound_name(toks, j, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scanner::FileModel;
    use crate::symbols::Workspace;

    fn build(files: &[(&str, &str)], manifest: &LockManifest) -> (LockGraph, Vec<String>) {
        let ws = Workspace::from_models(
            files
                .iter()
                .map(|(rel, src)| FileModel::scan(rel, src))
                .collect(),
        );
        let table = SymbolTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let lg = LockGraph::build(&ws, &table, &graph, manifest);
        let rendered: Vec<String> = lg
            .edges
            .iter()
            .map(|e| format!("{}->{}", lg.nodes[e.from].key, lg.nodes[e.to].key))
            .collect();
        (lg, rendered)
    }

    #[test]
    fn intra_function_nesting_produces_an_edge() {
        let manifest = LockManifest::from_entries(vec![
            ("crates/a/src/lib.rs".into(), "self.a".into(), 10),
            ("crates/a/src/lib.rs".into(), "self.b".into(), 20),
        ]);
        let (lg, edges) = build(
            &[(
                "crates/a/src/lib.rs",
                "impl S { fn f(&self) {\n    let g = self.a.lock();\n    let h = self.b.lock();\n} }",
            )],
            &manifest,
        );
        assert_eq!(edges, ["self.a->self.b"]);
        assert!(lg.cycles().is_empty());
        assert!(lg.rank_violations().is_empty());
    }

    #[test]
    fn cross_function_summaries_carry_edges_and_cycles_are_found() {
        let manifest = LockManifest::from_entries(vec![
            ("crates/a/src/lib.rs".into(), "self.a".into(), 10),
            ("crates/a/src/lib.rs".into(), "self.b".into(), 20),
        ]);
        // f holds a and calls g (which takes b); h holds b and calls k
        // (which takes a): a→b and b→a — a cycle across four functions.
        let src = "impl S {\n\
             fn f(&self) { let g = self.a.lock(); self.g(); }\n\
             fn g(&self) { let x = self.b.lock(); }\n\
             fn h(&self) { let g = self.b.lock(); self.k(); }\n\
             fn k(&self) { let x = self.a.lock(); }\n\
        }";
        let (lg, edges) = build(&[("crates/a/src/lib.rs", src)], &manifest);
        assert!(edges.contains(&"self.a->self.b".to_string()), "{edges:?}");
        assert!(edges.contains(&"self.b->self.a".to_string()), "{edges:?}");
        let cycles = lg.cycles();
        assert_eq!(cycles.len(), 1, "{:?}", cycles);
        let described = lg.describe_cycle(&cycles[0]);
        assert!(described.contains("self.a → self.b"), "{described}");
        assert!(described.contains("crates/a/src/lib.rs:"), "{described}");
        // b→a contradicts the declared ranks.
        assert_eq!(lg.rank_violations().len(), 1);
    }

    #[test]
    fn closure_callback_edges_catch_facade_reentry() {
        let manifest = LockManifest::from_entries(vec![
            ("crates/a/src/lib.rs".into(), "self.draw".into(), 10),
            ("crates/a/src/lib.rs".into(), "self.inner".into(), 30),
        ]);
        // serve() invokes its closure parameter while holding draw;
        // get() passes a closure that locks inner (via a helper call).
        let src = "impl S {\n\
             fn serve(&self, mut emit: impl FnMut(usize)) {\n\
                 let g = self.draw.lock();\n\
                 emit(1);\n\
             }\n\
             fn take(&self) { let x = self.inner.lock(); }\n\
             fn get(&self) { self.serve(|i| self.take()); }\n\
        }";
        let (lg, edges) = build(&[("crates/a/src/lib.rs", src)], &manifest);
        assert!(
            edges.contains(&"self.draw->self.inner".to_string()),
            "{edges:?}"
        );
        assert!(lg.rank_violations().is_empty());
        assert!(lg.cycles().is_empty());
    }

    #[test]
    fn lock_named_helper_binds_a_guard() {
        let manifest = LockManifest::from_entries(vec![
            ("crates/a/src/lib.rs".into(), "self.inner".into(), 30),
            ("crates/a/src/lib.rs".into(), "self.stats".into(), 40),
        ]);
        let src = "impl S {\n\
             fn lock_inner(&self) -> Guard { self.inner.lock() }\n\
             fn busy(&self) {\n\
                 let inner = self.lock_inner();\n\
                 let s = self.stats.lock();\n\
             }\n\
        }";
        let (_lg, edges) = build(&[("crates/a/src/lib.rs", src)], &manifest);
        assert!(
            edges.contains(&"self.inner->self.stats".to_string()),
            "{edges:?}"
        );
    }

    #[test]
    fn undeclared_locks_get_file_scoped_keys() {
        let (lg, edges) = build(
            &[(
                "crates/a/src/lib.rs",
                "impl S { fn f(&self) { let g = self.x.lock(); let h = self.y.lock(); } }",
            )],
            &LockManifest::default(),
        );
        assert_eq!(
            edges,
            ["crates/a/src/lib.rs::self.x->crates/a/src/lib.rs::self.y"]
        );
        assert_eq!(lg.nodes.iter().filter(|n| n.rank.is_none()).count(), 2);
        assert!(
            lg.rank_violations().is_empty(),
            "undeclared ranks can't violate"
        );
    }
}
