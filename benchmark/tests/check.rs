//! `cargo test --manifest-path benchmark/Cargo.toml` runs the benchmark's
//! smoke mode: every workload at a twentieth of its size, one replicate, every
//! correctness check, the traced replay, and the metric names checked against
//! `BENCHMARK.json`.

use std::process::Command;

#[test]
fn check_mode_passes_on_every_workload() {
    let output = Command::new(env!("CARGO_BIN_EXE_pipeline-benchmark"))
        .arg("--check")
        .output()
        .expect("starting the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "--check failed\n--- stdout\n{stdout}\n--- stderr\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result: serde_json::Value = serde_json::from_str(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(|v| v.as_number()),
        Some("0"),
        "{last}"
    );
    // Four end-to-end metrics for each of the four workloads.
    let metrics = result
        .get("metrics")
        .and_then(|v| v.as_object())
        .expect("a metrics object");
    assert_eq!(metrics.len(), 16, "{last}");
}

#[test]
fn unknown_arguments_are_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_pipeline-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("starting the benchmark");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
