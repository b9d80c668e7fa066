//! The analyzer's gate over the real repository: `analyze(root)` must find
//! nothing, and the lock graph behind the `lock_order` rule must be
//! cycle-free, consistent with the ranks declared in `analysis/locks.toml`,
//! and non-vacuous. `cargo test -q` runs this; no separate CI step does.

use melissa_analysis::engine::{analyze, Analysis};
use std::path::Path;

fn workspace_analysis() -> Analysis {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    analyze(Path::new(root)).expect("workspace scans cleanly")
}

#[test]
fn graph_report_over_the_workspace_passes_and_names_the_gates() {
    let analysis = workspace_analysis();
    let report = analysis.report();
    assert!(
        analysis.passed(),
        "melissa_analysis check would fail:\n{report}"
    );
    assert!(
        report.contains("cycle-free, declared ranks form a topological order"),
        "lock-order line missing from report:\n{report}"
    );
}

#[test]
fn workspace_lock_graph_is_cycle_free() {
    let locks = workspace_analysis().locks;
    let cycles = locks.cycles();
    assert!(
        cycles.is_empty(),
        "deadlock-capable lock cycle(s) in the workspace:\n{}",
        cycles
            .iter()
            .map(|c| locks.describe_cycle(c))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn declared_lock_ranks_are_a_topological_order_of_the_inferred_edges() {
    let locks = workspace_analysis().locks;
    let violations: Vec<String> = locks
        .rank_violations()
        .into_iter()
        .map(|e| {
            format!(
                "{} (rank {:?}) acquired while {} (rank {:?}) is held at {}:{}",
                locks.nodes[e.to].key,
                locks.nodes[e.to].rank,
                locks.nodes[e.from].key,
                locks.nodes[e.from].rank,
                e.file,
                e.line
            )
        })
        .collect();
    assert!(
        violations.is_empty(),
        "analysis/locks.toml ranks contradict the inferred lock graph:\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_facade_nesting_is_actually_inferred_not_vacuously_absent() {
    // An empty lock graph would make the gates above pass for the wrong
    // reason. The sharded facade's draw→wait nesting and its closure re-entry
    // into at least one policy's inner mutex must be visible.
    let locks = workspace_analysis().locks;
    let edge_keys: Vec<(String, String)> = locks
        .edges
        .iter()
        .map(|e| {
            (
                locks.nodes[e.from].key.clone(),
                locks.nodes[e.to].key.clone(),
            )
        })
        .collect();
    assert!(
        edge_keys
            .iter()
            .any(|(f, t)| f == "sharded-buffer.draw" && t == "sharded-buffer.wait-gate"),
        "draw→wait-gate edge missing; inferred edges: {edge_keys:?}"
    );
    assert!(
        edge_keys
            .iter()
            .any(|(f, t)| f == "sharded-buffer.draw" && t.ends_with(".inner")),
        "closure re-entry edge into a policy inner mutex missing; inferred edges: {edge_keys:?}"
    );
}
