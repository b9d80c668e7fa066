//! The pipeline benchmark: four `OnlineExperiment` workloads, four end-to-end
//! metrics, and a per-layer budget from a traced replay. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--check] [--aa]
//! ```
//!
//! With `--workload` the last line of standard output is that workload's
//! result; without it every workload runs in turn. Each replicate runs in a
//! fresh child process of this executable (`--replicate`, internal), so that
//! `peak_rss_mb` is that of one experiment.

mod contract;
mod replay;
mod replicate;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use report::Measured;
use run::{RunOptions, WorkloadResult};
use serde_json::Value;
use std::process::ExitCode;
use workloads::WORKLOADS;

const USAGE: &str = "usage: pipeline-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--check] [--aa]";

#[derive(Clone)]
struct Options {
    workload: Option<String>,
    run: RunOptions,
    aa: bool,
    /// Internal: run one replicate of this size in this process.
    replicate: Option<workloads::Size>,
    durable_dir: std::path::PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        run: RunOptions {
            seed: 7,
            seconds: 30.0,
            trace: false,
            check: false,
        },
        aa: false,
        replicate: None,
        durable_dir: std::path::PathBuf::new(),
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?),
            "--seed" => {
                options.run.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.run.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            // A bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                options.run.trace = args
                    .next_if(|next| matches!(next.as_str(), "0" | "1"))
                    .is_none_or(|value| value == "1");
            }
            "--replicate" => {
                let size = value("a size")?;
                options.replicate =
                    Some(workloads::Size::parse(&size).ok_or(format!("unknown size {size}"))?);
            }
            "--durable-dir" => options.durable_dir = value("a directory")?.into(),
            "--check" => options.run.check = true,
            "--aa" => options.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &options.workload {
        if workloads::find(name).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {names:?}"));
        }
    }
    if options.replicate.is_some() && options.workload.is_none() {
        return Err("--replicate needs --workload".to_string());
    }
    if !(options.run.seconds.is_finite() && options.run.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &options.workload {
        Some(name) => {
            let workload = workloads::find(name).expect("validated above");
            match options.replicate {
                Some(size) => {
                    let replicate =
                        replicate::run(workload, options.run.seed, size, &options.durable_dir);
                    let line = serde_json::to_string(&replicate);
                    println!("{}", line.expect("a replicate always serialises"));
                    Ok(())
                }
                None => {
                    let result = run_workload(workload, &options);
                    let reported = match (&result.per_layer, options.run.trace) {
                        (Some(per_layer), true) => per_layer,
                        _ => &result.end_to_end,
                    };
                    print_result(&[&result], report::metrics_value(reported, "", false))
                }
            }
        }
        None if options.aa => run_aa(&options),
        None => run_every_workload(&options).map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark failed: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its summary line.
fn run_workload(workload: &'static workloads::Workload, options: &Options) -> WorkloadResult {
    let mut result = run::run(workload, &options.run);
    if options.run.check {
        if let Err(why) = check_against_contract() {
            println!("CHECK FAILED: {why}");
            result.failures.push(why);
        }
    }
    println!("{}", summary_line(&result));
    result
}

/// Prints the result line — the last line of standard output — for the
/// workloads that ran, and turns failed checks into the command's failure.
fn print_result(results: &[&WorkloadResult], metrics: Value) -> Result<(), String> {
    let correct = results.iter().all(|r| r.correct());
    println!(
        "{}",
        report::result_line(
            correct,
            results.iter().map(|r| r.ops_attempted).sum(),
            results.iter().map(|r| r.ops_failed).sum(),
            metrics,
        )
    );
    if correct {
        return Ok(());
    }
    let failed: Vec<_> = results
        .iter()
        .filter(|r| !r.correct())
        .map(|r| {
            format!(
                "{}: {} failed checks, {} failed operations",
                r.workload,
                r.failures.len(),
                r.ops_failed
            )
        })
        .collect();
    Err(failed.join("; "))
}

/// `BENCHMARK.json`, `contract.json` and the tables the benchmark reports
/// from must agree.
fn check_against_contract() -> Result<(), String> {
    contract::check(&contract::load_driver_contract()?, contract::contract())
}

/// Everything one workload measured, with the header fields, on one line.
fn summary_line(result: &WorkloadResult) -> String {
    let summary = report::object(vec![
        ("workload", report::string(result.workload)),
        ("env", result.environment.to_value()),
        ("replicates", report::whole(result.replicates as u64)),
        ("ops_attempted", report::whole(result.ops_attempted as u64)),
        ("ops_failed", report::whole(result.ops_failed as u64)),
        (
            "failures",
            Value::Array(result.failures.iter().map(report::string).collect()),
        ),
        (
            "end_to_end",
            report::metrics_value(&result.end_to_end, "", true),
        ),
        (
            "per_layer",
            result
                .per_layer
                .as_ref()
                .map_or(Value::Null, |m| report::metrics_value(m, "", true)),
        ),
    ]);
    let line = report::object(vec![("summary", summary)]);
    serde_json::to_string(&line).expect("a Value tree always serialises")
}

/// One set: every workload once. The result line carries the end-to-end
/// metrics of all of them as `<workload>.<metric>`.
fn run_every_workload(options: &Options) -> Result<Vec<WorkloadResult>, String> {
    let results: Vec<_> = WORKLOADS
        .iter()
        .map(|workload| run_workload(workload, options))
        .collect();
    let metrics = results
        .iter()
        .flat_map(|result| {
            let prefix = format!("{}.", result.workload);
            match report::metrics_value(&result.end_to_end, &prefix, false) {
                Value::Object(entries) => entries,
                _ => unreachable!("metrics_value builds an object"),
            }
        })
        .collect();
    print_result(&results.iter().collect::<Vec<_>>(), Value::Object(metrics))?;
    Ok(results)
}

/// A/A: the full set twice, back to back, on the same build. A pair of
/// medians must agree within the bound `contract.json` gives the metric on
/// that workload.
fn run_aa(options: &Options) -> Result<(), String> {
    let contract = contract::contract();
    let first = run_every_workload(options)?;
    let second = run_every_workload(options)?;

    println!();
    println!(
        "A/A: two sets of one run per workload, seed {}, {} s of replicates per run",
        options.run.seed, options.run.seconds
    );
    println!("| workload | metric | unit | set 1 | set 1 IQR | set 2 | set 2 IQR | set 2 worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut disagreements = Vec::new();
    for (first, second) in first.iter().zip(&second) {
        let workload = first.workload;
        let bounds = &contract.workload(workload).bounds;
        for ((spec, a), (_, b)) in first.end_to_end.iter().zip(&second.end_to_end) {
            let change = (b.value - a.value) / a.value;
            let worse_by = if spec.better == "higher" {
                -change
            } else {
                change
            };
            let differs = contract.differs(workload, spec.name, a.value, b.value);
            let iqr = |m: &Measured| m.iqr.map_or("n/a".to_string(), |iqr| format!("{iqr:.4}"));
            let floor = if spec.name == report::SETUP_S {
                format!(" or {} ms", contract.setup_floor_s * 1e3)
            } else {
                String::new()
            };
            println!(
                "| {workload} | {} | {} | {:.4} | {} | {:.4} | {} | {:+.2} % | {:.0} %{floor} | {} |",
                spec.name,
                spec.unit,
                a.value,
                iqr(a),
                b.value,
                iqr(b),
                worse_by * 100.0,
                bounds[spec.name].bound * 100.0,
                if differs { "DIFFERS" } else { "agrees" },
            );
            if differs {
                disagreements.push(format!("{workload} {}", spec.name));
            }
        }
    }
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "A/A sets differ by more than the bound on {disagreements:?}"
        ))
    }
}
