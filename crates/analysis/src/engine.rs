//! The analysis engine: loads the workspace and its manifests once, applies
//! the intra-function rules per file, resolves the call graph and the lock
//! graph for the hot-path and lock-order rules, flags manifest entries that
//! match nothing, and renders the report `check` prints.

use crate::callgraph::{hot_path_findings, CallGraph};
use crate::lockgraph::LockGraph;
use crate::manifest::{LockManifest, SeedManifest, UnsafeManifest};
use crate::rules::{apply_all, Finding, Rule};
use crate::symbols::{SymbolTable, Workspace};
use std::path::Path;

/// Everything one analysis run produced.
pub struct Analysis {
    /// All findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Malformed-directive hard errors: `(file, line, problem)`.
    pub directive_errors: Vec<(String, u32, String)>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Symbol table the call graph was resolved over.
    pub table: SymbolTable,
    /// Resolved call graph.
    pub calls: CallGraph,
    /// Inferred lock graph.
    pub locks: LockGraph,
}

/// Runs every rule over the workspace at `root` and its manifests under
/// `root/analysis/`.
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    let locks = LockManifest::load(root)?;
    let seeds = SeedManifest::load(root)?;
    let unsafes = UnsafeManifest::load(root)?;
    let ws = Workspace::load(root)?;
    Ok(analyze_workspace(&ws, &locks, &seeds, &unsafes))
}

/// Runs every rule over an already scanned workspace.
pub fn analyze_workspace(
    ws: &Workspace,
    locks: &LockManifest,
    seeds: &SeedManifest,
    unsafes: &UnsafeManifest,
) -> Analysis {
    let mut findings = Vec::new();
    let mut directive_errors = Vec::new();
    for model in &ws.files {
        for (line, problem) in &model.directives.malformed {
            directive_errors.push((model.rel_path.clone(), *line, problem.clone()));
        }
        findings.extend(apply_all(model, seeds, unsafes));
    }

    let table = SymbolTable::build(ws);
    let calls = CallGraph::build(ws, &table);
    let lock_graph = LockGraph::build(ws, &table, &calls, locks);
    findings.extend(hot_path_findings(ws, &table, &calls));
    findings.extend(lock_graph.findings());
    findings.extend(stale_entries(
        ws,
        &table,
        &lock_graph,
        locks,
        seeds,
        unsafes,
    ));

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Analysis {
        findings,
        directive_errors,
        files_scanned: ws.files.len(),
        table,
        calls,
        locks: lock_graph,
    }
}

/// Manifest entries that match nothing in the workspace, as findings of the
/// rule each manifest configures: a lock class no acquisition falls into, a
/// seed helper naming no fn of its file, an unsafe prefix no scanned file
/// lies under.
fn stale_entries(
    ws: &Workspace,
    table: &SymbolTable,
    lock_graph: &LockGraph,
    locks: &LockManifest,
    seeds: &SeedManifest,
    unsafes: &UnsafeManifest,
) -> Vec<Finding> {
    let stale = |rule, file: &str, line, detail: &str, what: String| Finding {
        rule,
        file: file.to_string(),
        line,
        function: String::new(),
        detail: detail.to_string(),
        message: format!("{what} matches nothing in the workspace; delete the entry"),
    };
    let mut out = Vec::new();
    for class in locks.classes() {
        if !lock_graph.nodes.iter().any(|n| n.key == class.name) {
            out.push(stale(
                Rule::LockOrder,
                "analysis/locks.toml",
                class.line,
                &class.name,
                format!(
                    "lock class `{}` (`{}` in {})",
                    class.name, class.receiver, class.file
                ),
            ));
        }
    }
    for helper in seeds.helpers() {
        for function in &helper.functions {
            if !table
                .fns
                .iter()
                .any(|f| f.rel_path == helper.file && &f.name == function)
            {
                out.push(stale(
                    Rule::SeedPolicy,
                    "analysis/seed_policy.toml",
                    helper.line,
                    function,
                    format!("seed helper `{function}` in {}", helper.file),
                ));
            }
        }
    }
    for scope in unsafes.scopes() {
        if !ws
            .files
            .iter()
            .any(|m| m.rel_path.starts_with(scope.prefix.as_str()))
        {
            out.push(stale(
                Rule::UnsafeScope,
                "analysis/unsafe.toml",
                scope.line,
                &scope.prefix,
                format!("unsafe scope prefix `{}`", scope.prefix),
            ));
        }
    }
    out
}

impl Analysis {
    /// True when the run found nothing: no finding, no malformed directive.
    pub fn passed(&self) -> bool {
        self.findings.is_empty() && self.directive_errors.is_empty()
    }

    /// The report `check` prints: malformed directives and findings, the
    /// per-rule counts, the call-graph tallies and the lock-graph edges.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (file, line, problem) in &self.directive_errors {
            out.push_str(&format!("[malformed directive] {file}:{line}: {problem}\n"));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "[{}] {}:{}: {}\n",
                f.rule, f.file, f.line, f.message
            ));
        }
        out.push_str(&format!(
            "scanned {} files: {} finding(s), {} malformed directive(s)\n",
            self.files_scanned,
            self.findings.len(),
            self.directive_errors.len(),
        ));
        for rule in Rule::ALL {
            let count = self.findings.iter().filter(|f| f.rule == rule).count();
            out.push_str(&format!("  {:<22} {count:>3}\n", rule.key()));
        }

        let edges: usize = self.calls.edges.iter().map(Vec::len).sum();
        let external_sites: usize = self.calls.externals.values().sum();
        let ambiguous_sites: usize = self.calls.ambiguous.values().sum();
        out.push_str(&format!(
            "call graph: {} fns, {edges} edges\n  unresolved: {} external name(s) ({external_sites} site(s)), {} ambiguous name(s) ({ambiguous_sites} site(s))\n",
            self.table.fns.len(),
            self.calls.externals.len(),
            self.calls.ambiguous.len(),
        ));

        out.push_str(&format!(
            "lock graph: {} class(es), {} edge(s)\n",
            self.locks.nodes.len(),
            self.locks.edges.len(),
        ));
        for edge in &self.locks.edges {
            let via = if edge.via.is_empty() {
                String::new()
            } else {
                format!(" via {}", edge.via)
            };
            out.push_str(&format!(
                "  {} → {} ({}:{}{via})\n",
                self.locks.nodes[edge.from].key,
                self.locks.nodes[edge.to].key,
                edge.file,
                edge.line,
            ));
        }
        if self.findings.iter().all(|f| f.rule != Rule::LockOrder) {
            out.push_str(
                "lock order: cycle-free, declared ranks form a topological order, every class declared and used\n",
            );
        }
        out.push_str(if self.passed() {
            "check: passed\n"
        } else {
            "check: FAILED\n"
        });
        out
    }
}
