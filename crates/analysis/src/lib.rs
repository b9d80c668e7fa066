//! `melissa_analysis` — a project-invariant lint engine for the Melissa
//! workspace, run as a tier-1 test.
//!
//! The data plane and the training step rest on invariants the compiler
//! cannot see: hot paths must not allocate or block, locks nest in one
//! declared order, every atomic ordering is deliberate, library code never
//! panics, every RNG stream flows through a versioned seed policy, and
//! `unsafe` stays in audited scopes. This crate checks them offline, with
//! zero external dependencies, one rule per invariant:
//!
//! * a hand-rolled [`lexer`] (nested block comments, raw strings with hash
//!   depth, `'a` vs `'x'`, raw identifiers) feeds
//! * a brace-scoped [`scanner`] (function spans, impl/trait owners,
//!   `#[cfg(test)]` regions, directive comments), over which
//! * the intra-function [`rules`] run, configured by the checked manifests in
//!   [`manifest`] (`analysis/seed_policy.toml`, `analysis/unsafe.toml`);
//! * a workspace-wide [`symbols`] table feeds the [`callgraph`] (call sites
//!   resolved by receiver-type heuristics, unresolved externals recorded),
//!   whose reachability from the marked roots carries the two hot-path
//!   rules, and the [`lockgraph`], whose cycles, rank contradictions
//!   against `analysis/locks.toml` and undeclared classes are the
//!   `lock_order` rule;
//! * the [`engine`] runs them all, flags manifest entries that match nothing
//!   in the workspace, and renders the report.
//!
//! There is no baseline: any finding fails. `cargo test -q` runs the gate
//! (`tests/workspace_graphs.rs` asserts that the workspace has no finding and
//! prints the report when it does); the same check runs by hand as
//!
//! ```text
//! cargo run -p melissa_analysis -- check [--root <path>]
//! ```
//!
//! which prints the report and exits non-zero on any finding.
//!
//! Annotations understood in source (line comments):
//!
//! * `// analysis: hot_path` — marks the next `fn` allocation-free and
//!   non-blocking, *including everything it transitively calls*;
//! * `// analysis: allow(<rule>, reason = "…")` — grants one line an
//!   exemption (`alloc`, `blocking`, `ordering`, `panic`, `seed`, `unsafe`),
//!   reason mandatory; on a call-site line it also stops hot-path
//!   propagation through that call. Lock order has no exemption: a
//!   deliberate inversion is a deadlock;
//! * `// ordering: <why>` — justifies `Ordering::…` on the same line, or a
//!   contiguous run of sites below it.

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod lockgraph;
pub mod manifest;
pub mod rules;
pub mod scanner;
pub mod symbols;
pub mod toml_lite;
