//! Smoke test at tiny sizes: every workload runs, passes its checks, and
//! emits exactly the metrics `BENCHMARK.json` names, each with its unit.

use perfbench::workloads::{Scale, Workload};
use perfbench::{run, Config};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn workloads_match_benchmark_json() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    let e2e: Vec<String> = listed(&bench, "end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, perfbench::END_TO_END);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let bench = benchmark_json();
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let cfg = Config { workload, seed: 3, seconds: 0.4, trace, scale: Scale::Tiny };
            let result = run(&cfg);
            let line = result.outcome.to_json();
            assert!(
                result.outcome.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                result.errors
            );
            let parsed: Value = serde_json::from_str(&line).expect("result line parses");
            let object = parsed.as_object().expect("result is an object");
            let mut keys: Vec<&str> = object.keys().map(String::as_str).collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(parsed.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);

            let metrics = parsed.get("metrics").and_then(Value::as_object).expect("metrics");
            let want = listed(&bench, key);
            assert_eq!(metrics.len(), want.len(), "{} {key}: metric count", workload.name());
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()), "{name}");
                let value = m.get("value").and_then(Value::as_f64);
                let value =
                    value.unwrap_or_else(|| panic!("{}: {name} has no number", workload.name()));
                if !trace {
                    assert!(value > 0.0, "{}: end-to-end {name} = {value}", workload.name());
                }
            }
        }
    }
}
