//! `idse-perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! idse-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run repeats the workload's job, each in a fresh
//! child process, closed loop, for about `--seconds` seconds (at least two
//! jobs), and reports the end-to-end metrics as medians over the jobs.
//! With `--trace 1` it runs the per-layer ladder once in a child process
//! and reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A per-job summary with quartiles goes to standard error.

use std::process::{Command, Stdio};
use std::time::Instant;

use idse_perfbench::gate::Gate;
use idse_perfbench::job::{run_job, JobReport};
use idse_perfbench::ladder::{layer_metrics, run_ladder};
use idse_perfbench::stats::{median, quartiles};
use idse_perfbench::workloads::{Workload, DEFAULT_SEED};
use idse_perfbench::END_TO_END;
use serde_json::{json, Value};

/// Metric name → `{"value", "unit"}`, in report order.
type Metrics = Vec<(String, Value)>;

/// Every timed run measures at least this many jobs.
const MIN_JOBS: usize = 2;

const USAGE: &str = "usage: idse-perfbench --workload evaluate-cluster|stream-long|stream-train \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut role) =
        (None, DEFAULT_SEED, 10.0, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" | "--job" | "--ladder" => {
                let name = value();
                let w = Workload::parse(&name)
                    .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
                workload = Some(w);
                if flag != "--workload" {
                    role = Some(flag);
                }
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    match role.as_deref() {
        Some("--job") => println!("{}", run_job(workload, seed).to_json()),
        Some("--ladder") => {
            let report = run_ladder(workload, seed);
            for p in &report.problems {
                eprintln!("ladder: {p}");
            }
            let line = json!({
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": report.metrics,
            });
            println!("{}", serde_json::to_string(&line).expect("ladder reports serialize"));
        }
        _ if trace => traced_run(workload, seed),
        _ => timed_run(workload, seed, seconds),
    }
}

/// Run this binary as a child with `args`; its last stdout line, if it
/// exited cleanly.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().map(str::to_owned).ok_or_else(|| "child printed nothing".to_owned())
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: Metrics) {
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&result).expect("results serialize"));
}

fn timed_run(workload: Workload, seed: u64, seconds: f64) {
    let mut gate = Gate::new(workload, seed);
    let (seed_arg, name) = (seed.to_string(), workload.name());
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut jobs: Vec<JobReport> = Vec::new();
    loop {
        attempted += 1;
        let outcome = child(&["--job", name, "--seed", &seed_arg]).and_then(|line| {
            let report = JobReport::from_json(&line).ok_or("unreadable job report")?;
            if let Some(p) = report.problems.first() {
                return Err(p.clone());
            }
            gate.check(&report.hashes)?;
            Ok(report)
        });
        match outcome {
            Ok(report) => jobs.push(report),
            Err(e) => {
                failed += 1;
                eprintln!("job {attempted} failed: {e}");
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_job = elapsed / attempted as f64;
        if attempted as usize >= MIN_JOBS && elapsed + per_job > seconds {
            break;
        }
    }

    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let rates: Vec<f64> = jobs.iter().map(|j| j.records as f64 / j.wall_s).collect();
    let setups: Vec<f64> = jobs.iter().flat_map(|j| j.setup_s.iter().copied()).collect();
    let rss: Vec<f64> = jobs.iter().map(|j| j.peak_rss_kib as f64 / 1024.0).collect();
    let mut metrics = Metrics::new();
    for ((name, unit), samples) in END_TO_END.into_iter().zip([walls, rates, setups, rss]) {
        if samples.is_empty() {
            continue;
        }
        let (q1, q2, q3) = quartiles(&samples);
        eprintln!("{name}: median {q2} {unit} (q1 {q1}, q3 {q3}, n {})", samples.len());
        metrics.push((name.to_owned(), metric(median(&samples), unit)));
    }
    eprintln!(
        "{name} seed {seed}: {} job(s), {failed} failed, reference {}",
        attempted,
        if gate.is_recorded() { "recorded" } else { "first job" }
    );
    print_result(failed == 0 && !jobs.is_empty(), attempted, failed, metrics);
}

fn traced_run(workload: Workload, seed: u64) {
    let seed_arg = seed.to_string();
    let parsed = child(&["--ladder", workload.name(), "--seed", &seed_arg]).and_then(|line| {
        serde_json::from_str::<Value>(&line).map_err(|e| format!("unreadable ladder report: {e}"))
    });
    let report = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ladder failed: {e}");
            print_result(false, 1, 1, Metrics::new());
            return;
        }
    };
    let attempted = report.get("attempted").and_then(Value::as_u64).unwrap_or(0);
    let failed = report.get("failed").and_then(Value::as_u64).unwrap_or(1);
    let values = report.get("metrics").cloned().unwrap_or(Value::Null);
    let mut metrics = Metrics::new();
    let mut missing = Vec::new();
    for (name, unit) in layer_metrics() {
        match values.get(name.as_str()).and_then(Value::as_f64) {
            Some(v) if v.is_finite() => {
                eprintln!("{name}: {v} {unit}");
                metrics.push((name, metric(v, unit)));
            }
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        eprintln!("ladder did not report {missing:?}");
    }
    let correct = failed == 0 && attempted > 0 && missing.is_empty();
    print_result(correct, attempted.max(1), failed, metrics);
}
