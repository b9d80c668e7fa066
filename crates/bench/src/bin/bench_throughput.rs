//! Training-throughput benchmark: measures train-step samples/s along two
//! axes and emits the result as JSON (`BENCH_pr10.json`).
//!
//! 1. The PR 3 axis — the allocation-free blocked workspace path against the
//!    retained naive reference path (the original `BENCH_pr3.json` baseline,
//!    re-measured every run so the trajectory stays comparable).
//! 2. The PR 10 axis — the *same* blocked workspace path with the kernels
//!    forced to the scalar reference against the runtime-dispatched SIMD
//!    micro-kernels, in the same process and build, so the speedup isolates
//!    the vector kernels from everything else.
//!
//! The JSON records the dispatch decision (requested/resolved ISA, lane
//! width, GEMM micro-kernel tile) and the toolchain (rustc, target triple),
//! so numbers from different machines or builds are never silently compared.
//! The measurement core lives in [`melissa_bench::train_step`] and is shared
//! with `bench_data_plane`.
//!
//! Usage:
//!   bench_throughput [--quick] [--isa auto|scalar|avx2|neon] [--out PATH]
//!                    [--batch N] [--min-seconds S]
//!
//! `--quick` shrinks the sizes and measurement time to a CI-smoke footprint.
//! Both paths of each axis are also trained side by side for a few steps and
//! the final parameters compared, so a speedup is only reported for a path
//! that provably computes the same model.

use melissa_bench::train_step::{
    cases_to_json, dispatch_json, geomean, geomean_speedup, run_case, run_simd_case,
    simd_cases_to_json, SimdStepCase, TrainStepCase,
};
use melissa_bench::{arg_f64, arg_usize, arg_value};
use surrogate_nn::KernelIsa;

fn to_json(
    batch: usize,
    quick: bool,
    isa: KernelIsa,
    results: &[TrainStepCase],
    simd_results: &[SimdStepCase],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"train_step_throughput\",\n");
    out.push_str("  \"pr\": \"pr10\",\n");
    out.push_str("  \"architecture\": \"6 -> 256 -> 256 -> output\",\n");
    out.push_str(&format!("  \"batch_size\": {batch},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str("  \"dispatch\": ");
    out.push_str(&dispatch_json(isa));
    out.push_str(",\n");
    out.push_str("  \"cases\": ");
    out.push_str(&cases_to_json(results));
    out.push_str(",\n");
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.3},\n",
        geomean_speedup(results)
    ));
    out.push_str("  \"simd_cases\": ");
    out.push_str(&simd_cases_to_json(simd_results));
    out.push_str(",\n");
    out.push_str(&format!(
        "  \"simd_geomean_speedup\": {:.3}\n",
        geomean(simd_results.iter().map(|r| r.speedup))
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let batch = arg_usize("--batch", 10);
    let min_seconds = arg_f64("--min-seconds", if quick { 0.05 } else { 2.0 });
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_pr10.json".to_string());
    let isa: KernelIsa = arg_value("--isa")
        .map(|name| name.parse().expect("valid --isa"))
        .unwrap_or(KernelIsa::Auto);
    // Paper-scale output layers: 24×24 (the scaled figure grid), 48×48 and
    // 80×80 nodes. Quick mode keeps one small case for CI smoke.
    let outputs: &[usize] = if quick { &[256] } else { &[576, 2304, 6400] };

    let mut results = Vec::new();
    println!("train-step throughput, batch {batch} (samples/s; higher is better)");
    println!("axis 1: naive reference vs blocked workspace (PR 3)");
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>9} {:>6}",
        "output", "params", "reference", "blocked", "speedup", "exact"
    );
    for &output in outputs {
        let r = run_case(batch, output, min_seconds);
        println!(
            "{:>12} {:>12} {:>14.1} {:>14.1} {:>8.2}x {:>6}",
            r.output_size,
            r.param_count,
            r.reference_samples_per_second,
            r.blocked_samples_per_second,
            r.speedup,
            r.bit_identical,
        );
        assert!(
            r.bit_identical,
            "workspace path diverged from the reference at output size {output}"
        );
        results.push(r);
    }

    let mut simd_results = Vec::new();
    println!(
        "axis 2: scalar kernels vs SIMD dispatch (PR 10, requested {isa}, resolved {})",
        isa.resolve()
    );
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>9} {:>6}",
        "output", "params", "scalar", "simd", "speedup", "exact"
    );
    for &output in outputs {
        let r = run_simd_case(batch, output, min_seconds, isa);
        println!(
            "{:>12} {:>12} {:>14.1} {:>14.1} {:>8.2}x {:>6}",
            r.output_size,
            r.param_count,
            r.scalar_samples_per_second,
            r.simd_samples_per_second,
            r.speedup,
            r.bit_identical,
        );
        assert!(
            r.bit_identical,
            "SIMD path diverged from the scalar kernels at output size {output}"
        );
        simd_results.push(r);
    }

    let json = to_json(batch, quick, isa, &results, &simd_results);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    print!("{json}");
    println!("wrote {out_path}");
}
