//! Runs every workload at the smoke size, untraced and traced, and checks
//! the result line against the contract in `BENCHMARK.json`: the exact key
//! set, every declared metric with its declared unit, and passing output
//! checks. A second seed must run unchanged.

use serde::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: &[&str] = &["solve-web", "ingest-drift", "serve-churn"];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let Some(Value::Array(metrics)) = benchmark_json().get(section).cloned() else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without a name and unit: {m:?}"),
        })
        .collect()
}

/// Runs one workload at the smoke size; returns the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{seed}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_mmd-e2ebench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    if trace {
        let spans = dir.join(format!(".bench_out/{workload}-seed{seed}.spans.jsonl"));
        assert!(
            spans.is_file(),
            "{workload}: no span file {}",
            spans.display()
        );
    }
    let last = stdout.lines().last().expect("at least one output line");
    serde_json::from_str(last)
        .unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e:?}"))
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Number(n)) => *n,
        other => panic!("expected a number, found {other:?}"),
    }
}

/// Checks the result keys, counts and metric names/units; returns the
/// metric values by name.
fn check_result(workload: &str, result: &Value, section: &str) -> Vec<(String, f64)> {
    let Value::Object(entries) = result else {
        panic!("{workload}: result is not an object");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert!(number(result.get("attempted")) >= 1.0, "{workload}");
    assert_eq!(number(result.get("failed")), 0.0, "{workload}");
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| match m.get("unit") {
            Some(Value::String(u)) => (name.clone(), u.clone()),
            _ => panic!("{workload}: metric {name} without a unit"),
        })
        .collect();
    assert_eq!(
        got,
        declared(section),
        "{workload}: {section} names and units"
    );
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), number(m.get("value"))))
        .collect()
}

#[test]
fn end_to_end_results_match_the_contract() {
    for &workload in WORKLOADS {
        for seed in [1, 2] {
            let result = run(workload, seed, false);
            for (name, value) in check_result(workload, &result, "end_to_end") {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{workload}: {name} = {value}"
                );
            }
        }
    }
}

#[test]
fn traced_results_report_every_layer() {
    for &workload in WORKLOADS {
        let result = run(workload, 3, true);
        let metrics = check_result(workload, &result, "per_layer");
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .expect("declared metric")
        };
        for (name, v) in &metrics {
            assert!(
                v.is_finite() && (*v >= 0.0 || name == "trace.overhead_pct"),
                "{workload}: {name} = {v}"
            );
        }
        // Every workload solves through the sharded layers.
        for name in [
            "shard.super_partition_ms",
            "shard.plan_ms",
            "batch.solve_batch_ms",
        ] {
            assert!(value(name) > 0.0, "{workload}: {name}");
        }
        assert!(value("par.solve_batch_speedup") > 0.0, "{workload}");
        let ingest = value("ingest.scratch_solve_ms") > 0.0;
        let serve = value("client.health_rtt_ms") > 0.0;
        match workload {
            "solve-web" => assert!(!ingest && !serve),
            "ingest-drift" => assert!(ingest && !serve),
            _ => assert!(ingest && serve && value("client.query_ms_p50") > 0.0),
        }
    }
}
