//! The benchmark's own contract: names, `BENCHMARK.json` agreement, and a
//! traced run that reports every layer metric.

use idse_eval::JobSpec;
use idse_perfbench::gate::Gate;
use idse_perfbench::ladder::{ladder, layer_metrics};
use idse_perfbench::END_TO_END;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn listed(json: &Value, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Value::as_array)
        .expect("metric lists are arrays")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_use_only_letters_digits_underscore_dot_and_dash() {
    let names = END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(layer_metrics().into_iter().map(|(n, _)| n));
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        assert!(valid_name(&name), "{name:?}");
        assert!(seen.insert(name.clone()), "{name:?} is listed twice");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_runs_report() {
    let json = benchmark_json();
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(listed(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        layer_metrics().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
    assert_eq!(listed(&json, "per_layer"), layers);
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_owned())
        .collect();
    let ours: Vec<String> =
        idse_perfbench::workloads::Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}

/// Run the ladder on a small spec and check it reports every layer metric,
/// finite, with every time, rate and count positive.
fn assert_full_ladder(spec: JobSpec) {
    let products =
        spec.resolve_products().expect("valid").iter().map(|p| p.id.name().to_owned()).collect();
    let report = ladder(&spec, Gate::first_job(products));
    assert_eq!(report.failed, 0, "{:?}", report.problems);
    assert_eq!(report.attempted, 2, "serial and parallel entry calls are both checked");
    for (name, unit) in layer_metrics() {
        let value = *report.metrics.get(&name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(value.is_finite(), "{name} = {value}");
        if unit != "share" {
            assert!(value > 0.0, "{name} = {value} {unit}");
        }
    }
    let unattributed = report.metrics["trace.unattributed_share"];
    assert!(unattributed.abs() <= 0.02, "layers cover the traced job: {unattributed}");
}

#[test]
fn traced_batch_run_reports_every_layer_metric() {
    assert_full_ladder(JobSpec {
        seed: Some(11),
        rate: Some(3.0),
        sweep: Some(3),
        ..JobSpec::evaluate()
    });
}

#[test]
fn traced_stream_run_reports_every_layer_metric() {
    assert_full_ladder(JobSpec {
        seed: Some(11),
        rate: Some(200.0),
        transactions: Some(2_000),
        shards: Some(2),
        ..JobSpec::stream()
    });
}
