//! The benchmark's contract, in two files.
//!
//! `/BENCHMARK.json` is what the driver reads. Its keys are fixed, and it has
//! one bound per end-to-end metric. `benchmark/contract.json` carries what it
//! has no key for: the bound of every metric on every workload with the A/A
//! spread it was derived from, the absolute floor of `setup_s`, the MSE
//! ceiling of every workload, and, for every per-layer metric, the end-to-end
//! metric and workload it should move. `--check` holds the two files and the
//! metric tables in `report.rs` against each other; `--aa` and the MSE check
//! read their limits from `contract.json`.

use crate::report::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use serde::Deserialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The largest bound `/BENCHMARK.json` may give a metric.
const LARGEST_BOUND: f64 = 0.25;

#[derive(Debug, Deserialize)]
pub struct Contract {
    /// Two `setup_s` medians closer than this agree, whatever their ratio.
    pub setup_floor_s: f64,
    pub workloads: BTreeMap<String, WorkloadContract>,
    /// Per-layer metric → the end-to-end results a change of it should move;
    /// everywhere else the prediction is no change. Empty for metrics that
    /// are a check or context only.
    pub per_layer: BTreeMap<String, Vec<Moves>>,
}

#[derive(Debug, Deserialize)]
pub struct WorkloadContract {
    /// Ceiling on `final_validation_mse` of a full-size replicate.
    pub mse_ceiling: f64,
    pub bounds: BTreeMap<String, Bound>,
}

#[derive(Debug, Deserialize)]
pub struct Bound {
    /// Share of the first median by which the second may differ.
    pub bound: f64,
    /// Widest IQR / median over ten runs the baseline A/A measured.
    pub aa_spread: f64,
    /// Distance between the baseline A/A's two medians, as a share of the first.
    pub aa_shift: f64,
}

#[derive(Debug, Deserialize)]
pub struct Moves {
    pub metric: String,
    pub workload: String,
}

/// `benchmark/contract.json`, compiled in: replicate children need the MSE
/// ceiling and must not depend on where they were started.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        serde_json::from_str(include_str!("../contract.json"))
            .unwrap_or_else(|error| panic!("benchmark/contract.json: {error}"))
    })
}

impl Contract {
    pub fn workload(&self, name: &str) -> &WorkloadContract {
        self.workloads
            .get(name)
            .unwrap_or_else(|| panic!("benchmark/contract.json has no workload {name}"))
    }

    /// Whether two medians of `metric` on `workload` differ by more than the
    /// contract allows two sets of runs of the same code to differ.
    pub fn differs(&self, workload: &str, metric: &str, first: f64, second: f64) -> bool {
        let bound = self.workload(workload).bounds[metric].bound;
        let floor = if metric == report::SETUP_S {
            self.setup_floor_s
        } else {
            0.0
        };
        (second - first).abs() > (bound * first).max(floor)
    }
}

/// The parsed `/BENCHMARK.json`, beside `benchmark/`.
pub fn load_driver_contract() -> Result<Value, String> {
    let path = report::package_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn text<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: an entry lacks the string `{key}`"))
}

fn entries<'a>(driver: &'a Value, list: &str) -> Result<&'a [Value], String> {
    driver
        .get(list)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))
}

/// Checks that `list` of `BENCHMARK.json` names exactly the metrics of
/// `table`, in order, with the same unit and direction.
fn check_metric_list(driver: &Value, list: &str, table: &[MetricSpec]) -> Result<(), String> {
    let listed = entries(driver, list)?;
    if listed.len() != table.len() {
        return Err(format!(
            "BENCHMARK.json lists {} {list} metrics, the benchmark reports {}",
            listed.len(),
            table.len()
        ));
    }
    for (entry, spec) in listed.iter().zip(table) {
        let found = (
            text(entry, "name")?,
            text(entry, "unit")?,
            text(entry, "better")?,
        );
        if found != (spec.name, spec.unit, spec.better) {
            return Err(format!(
                "BENCHMARK.json {list} lists {found:?} where the benchmark reports {:?}",
                (spec.name, spec.unit, spec.better)
            ));
        }
    }
    Ok(())
}

/// The regression bound `BENCHMARK.json` gives an end-to-end metric.
fn driver_bound(driver: &Value, metric: &str) -> Result<f64, String> {
    entries(driver, "end_to_end")?
        .iter()
        .find(|entry| entry.get("name").and_then(Value::as_str) == Some(metric))
        .and_then(|entry| entry.get("bound"))
        .and_then(Value::as_number)
        .and_then(|bound| bound.parse().ok())
        .ok_or_else(|| format!("BENCHMARK.json gives no bound for {metric}"))
}

/// Holds `driver` (the parsed `/BENCHMARK.json`), `contract` and the metric
/// and workload tables the benchmark reports against each other.
pub fn check(driver: &Value, contract: &Contract) -> Result<(), String> {
    check_metric_list(driver, "end_to_end", &END_TO_END)?;
    check_metric_list(driver, "per_layer", &PER_LAYER)?;
    let run: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    let listed = entries(driver, "workloads")?
        .iter()
        .map(|entry| text(entry, "name"))
        .collect::<Result<Vec<_>, _>>()?;
    if listed != run {
        return Err(format!(
            "BENCHMARK.json lists workloads {listed:?}, the benchmark runs {run:?}"
        ));
    }
    if contract
        .workloads
        .keys()
        .map(String::as_str)
        .ne(sorted(&run))
    {
        return Err(format!(
            "contract.json has workloads {:?}, the benchmark runs {run:?}",
            contract.workloads.keys()
        ));
    }

    let end_to_end: Vec<_> = END_TO_END.iter().map(|spec| spec.name).collect();
    for (workload, expected) in &contract.workloads {
        if !(expected.mse_ceiling > 0.0 && expected.mse_ceiling.is_finite()) {
            return Err(format!("contract.json: {workload} has no MSE ceiling"));
        }
        if expected
            .bounds
            .keys()
            .map(String::as_str)
            .ne(sorted(&end_to_end))
        {
            return Err(format!(
                "contract.json: {workload} bounds {:?}, the end-to-end metrics are {end_to_end:?}",
                expected.bounds.keys()
            ));
        }
        for (metric, bound) in &expected.bounds {
            let measured = bound.aa_spread >= 0.0 && bound.aa_shift >= 0.0;
            if !(bound.bound > 0.0 && bound.bound <= LARGEST_BOUND && measured) {
                return Err(format!(
                    "contract.json: {workload} {metric}: bound {} is not within (0, {LARGEST_BOUND}] \
                     or lacks its A/A spread {} and shift {}",
                    bound.bound, bound.aa_spread, bound.aa_shift
                ));
            }
        }
    }
    // The driver knows one bound per metric: the widest any workload needs.
    // It knows no floor either, so `setup_s`, a few milliseconds on three
    // workloads, gets the largest bound there is.
    for metric in &end_to_end {
        let widest = if *metric == report::SETUP_S {
            LARGEST_BOUND
        } else {
            contract
                .workloads
                .values()
                .map(|expected| expected.bounds[*metric].bound)
                .fold(0.0, f64::max)
        };
        let listed = driver_bound(driver, metric)?;
        if (listed - widest).abs() > 1e-9 {
            return Err(format!(
                "BENCHMARK.json bounds {metric} by {listed}, the widest workload bound in \
                 contract.json is {widest}"
            ));
        }
    }

    let per_layer: Vec<_> = PER_LAYER.iter().map(|spec| spec.name).collect();
    if contract
        .per_layer
        .keys()
        .map(String::as_str)
        .ne(sorted(&per_layer))
    {
        return Err(format!(
            "contract.json per_layer names {:?}, the benchmark reports {per_layer:?}",
            contract.per_layer.keys()
        ));
    }
    for (layer_metric, moves) in &contract.per_layer {
        for moved in moves {
            if !end_to_end.contains(&moved.metric.as_str())
                || !run.contains(&moved.workload.as_str())
            {
                return Err(format!(
                    "contract.json: {layer_metric} should move {} on {}, which the benchmark \
                     does not report",
                    moved.metric, moved.workload
                ));
            }
        }
    }
    Ok(())
}

fn sorted<'a>(names: &[&'a str]) -> Vec<&'a str> {
    let mut names = names.to_vec();
    names.sort_unstable();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_contract_parses_and_matches_benchmark_json() {
        let driver = load_driver_contract().expect("BENCHMARK.json beside benchmark/");
        check(&driver, contract()).expect("the two contract files agree");
    }

    #[test]
    fn setup_medians_closer_than_the_floor_agree() {
        let contract = contract();
        let floor = contract.setup_floor_s;
        // 8 ms against 12 ms is 50 % apart but inside the floor …
        assert!(!contract.differs("stream_bound", report::SETUP_S, 0.008, 0.012));
        // … the same ratio is not for a throughput, in either direction …
        assert!(contract.differs("stream_bound", report::TRAIN_SAMPLES_PER_S, 8e4, 12e4));
        assert!(contract.differs("stream_bound", report::TRAIN_SAMPLES_PER_S, 12e4, 8e4));
        // … nor for a set-up beyond the floor.
        assert!(contract.differs("solver_bound", report::SETUP_S, 0.3, 0.3 + 10.0 * floor));
    }
}
