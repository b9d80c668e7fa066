//! Line-for-line assertions of every rule's findings over the deliberately
//! seeded violation fixtures in `tests/fixtures/` (which the engine's
//! workspace walk skips, so they never pollute the workspace check). Each
//! fixture is analysed as a one-file workspace, so the call-graph and
//! lock-graph rules run on it too.

use melissa_analysis::engine::{analyze_workspace, Analysis};
use melissa_analysis::manifest::{LockManifest, SeedManifest, UnsafeManifest};
use melissa_analysis::scanner::FileModel;
use melissa_analysis::symbols::Workspace;

/// Analyses `source` as the only file of a workspace, at `rel`.
fn analyze_one(
    rel: &str,
    source: &str,
    locks: &LockManifest,
    seeds: &SeedManifest,
    unsafes: &UnsafeManifest,
) -> Analysis {
    let ws = Workspace::from_models(vec![FileModel::scan(rel, source)]);
    analyze_workspace(&ws, locks, seeds, unsafes)
}

fn read_fixture(fixture: &str) -> String {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).expect("fixture readable")
}

/// Analyses one fixture under a synthetic library rel-path and returns its
/// findings as `(rule_key, line)` pairs, sorted.
fn findings_for(
    fixture: &str,
    locks: &LockManifest,
    seeds: &SeedManifest,
    unsafes: &UnsafeManifest,
) -> Vec<(String, u32)> {
    let rel = format!("crates/demo/src/{fixture}");
    let analysis = analyze_one(&rel, &read_fixture(fixture), locks, seeds, unsafes);
    assert!(
        analysis.directive_errors.is_empty(),
        "fixture {fixture} has malformed directives: {:?}",
        analysis.directive_errors
    );
    let mut out: Vec<(String, u32)> = analysis
        .findings
        .into_iter()
        .map(|f| (f.rule.key().to_string(), f.line))
        .collect();
    out.sort();
    out
}

fn expect(pairs: &[(&str, u32)]) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = pairs.iter().map(|(k, l)| (k.to_string(), *l)).collect();
    out.sort();
    out
}

fn empty_manifests() -> (LockManifest, SeedManifest, UnsafeManifest) {
    (
        LockManifest::from_entries(Vec::new()),
        SeedManifest::from_entries(Vec::new()),
        UnsafeManifest::from_prefixes(Vec::new()),
    )
}

#[test]
fn hot_path_fixture_findings_line_for_line() {
    let (locks, seeds, unsafes) = empty_manifests();
    assert_eq!(
        findings_for("hot_path.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("hot_path_alloc", 6),  // vec! macro
            ("hot_path_alloc", 7),  // .to_vec()
            ("hot_path_alloc", 8),  // Vec::new
            ("hot_path_alloc", 31), // hot_path marker applies inside #[cfg(test)] too
            ("hot_path_alloc", 37), // Vec::<u8>::with_capacity, turbofish on the type
        ])
    );
}

#[test]
fn lock_fixture_findings_line_for_line() {
    let locks = LockManifest::from_entries(vec![
        ("crates/demo/src/locks.rs".into(), "self.first".into(), 10),
        ("crates/demo/src/locks.rs".into(), "self.second".into(), 20),
    ]);
    let seeds = SeedManifest::from_entries(Vec::new());
    let unsafes = UnsafeManifest::from_prefixes(Vec::new());
    assert_eq!(
        findings_for("locks.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("lock_order", 20), // rank 10 acquired under rank 20, closing a cycle
            ("lock_order", 27), // undeclared receiver while a guard is held
        ])
    );
}

#[test]
fn ordering_fixture_findings_line_for_line() {
    let (locks, seeds, unsafes) = empty_manifests();
    assert_eq!(
        findings_for("ordering.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("atomic_ordering", 23), // no justification at all
            ("atomic_ordering", 31), // justified run interrupted by a non-site line
        ])
    );
}

#[test]
fn panic_fixture_findings_line_for_line() {
    let (locks, seeds, unsafes) = empty_manifests();
    assert_eq!(
        findings_for("panics.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("panic_surface", 4),  // .unwrap()
            ("panic_surface", 8),  // .expect()
            ("panic_surface", 12), // panic!
            ("panic_surface", 16), // todo!
        ])
    );
}

#[test]
fn panic_fixture_is_exempt_in_test_context() {
    let (locks, seeds, unsafes) = empty_manifests();
    // The same source under a tests/ rel-path: the panic rule stands down.
    let findings = analyze_one(
        "crates/demo/tests/panics.rs",
        &read_fixture("panics.rs"),
        &locks,
        &seeds,
        &unsafes,
    )
    .findings;
    assert!(
        findings.is_empty(),
        "test-context file should produce no findings, got {findings:?}"
    );
}

#[test]
fn seed_fixture_findings_line_for_line() {
    let locks = LockManifest::from_entries(Vec::new());
    let seeds = SeedManifest::from_entries(vec![(
        "crates/demo/src/seeds.rs".into(),
        vec!["blessed_helper".into()],
    )]);
    let unsafes = UnsafeManifest::from_prefixes(Vec::new());
    assert_eq!(
        findings_for("seeds.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("seed_policy", 11), // construction outside a blessed helper
            ("seed_policy", 17), // draw outside a blessed helper
        ])
    );
}

#[test]
fn unsafe_fixture_findings_line_for_line() {
    let (locks, seeds, unsafes) = empty_manifests();
    assert_eq!(
        findings_for("unsafes.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("unsafe_scope", 4),  // unsafe fn
            ("unsafe_scope", 9),  // unsafe {…} block
            ("unsafe_scope", 14), // unsafe impl Send
        ])
    );
}

#[test]
fn audited_prefix_exempts_the_unsafe_fixture() {
    let locks = LockManifest::from_entries(Vec::new());
    let seeds = SeedManifest::from_entries(Vec::new());
    let unsafes = UnsafeManifest::from_prefixes(vec!["crates/demo/src/".to_string()]);
    let findings = findings_for("unsafes.rs", &locks, &seeds, &unsafes);
    assert!(
        findings.iter().all(|(rule, _)| rule != "unsafe_scope"),
        "{findings:?}"
    );
}

#[test]
fn lexer_hardening_fixture_findings_line_for_line() {
    let (locks, seeds, unsafes) = empty_manifests();
    assert_eq!(
        findings_for("lexer_hardening.rs", &locks, &seeds, &unsafes),
        expect(&[
            ("hot_path_alloc", 20), // vec! — first site after the hostile block
            ("hot_path_alloc", 21), // inner .collect() inside the closure
            ("hot_path_alloc", 21), // .collect::<Vec<Vec<char>>>() behind nested turbofish
            ("hot_path_alloc", 22), // String::from — the tail must not be masked
        ])
    );
}
