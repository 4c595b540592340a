//! One timed job, run in a fresh process: set up, call the entry point,
//! hash the scorecards.

use std::time::Instant;

use idse_eval::feeds::TestFeed;
use idse_eval::{EvaluationRequest, JobKind, JobSpec};
use serde_json::{json, Value};

use crate::gate::{scorecard_hash, Hashes};
use crate::workloads::{nproc, Workload};

/// A set-up sample repeats set-up back to back for at least this long and
/// records the mean, so a microsecond set-up is not lost in timer jitter.
const SETUP_SAMPLE_SECONDS: f64 = 0.002;
/// Set-up samples per job: at least this many…
const SETUP_MIN_SAMPLES: usize = 5;
/// …and until this much time has been spent on set-up.
const SETUP_MIN_SECONDS: f64 = 0.2;

/// What one job measured.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Entry call to finished scorecards, seconds.
    pub wall_s: f64,
    /// Set-up samples: the mean of back-to-back repeats, seconds.
    pub setup_s: Vec<f64>,
    /// Test-feed records scored: feed records × products.
    pub records: u64,
    /// VmHWM of the job's process, KiB.
    pub peak_rss_kib: u64,
    /// Scorecard hash per product.
    pub hashes: Hashes,
    /// Structural problems found in the output.
    pub problems: Vec<String>,
}

impl JobReport {
    /// The one-line JSON form a job process prints.
    pub fn to_json(&self) -> String {
        let value = json!({
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "records": self.records,
            "peak_rss_kib": self.peak_rss_kib,
            "hashes": self.hashes,
            "problems": self.problems,
        });
        serde_json::to_string(&value).expect("job reports serialize")
    }

    /// Parse the line [`JobReport::to_json`] printed.
    pub fn from_json(line: &str) -> Option<JobReport> {
        let v: Value = serde_json::from_str(line).ok()?;
        let strings = |key: &str| -> Option<Vec<String>> {
            v.get(key)?.as_array()?.iter().map(|s| s.as_str().map(str::to_owned)).collect()
        };
        let Value::Object(hashes) = v.get("hashes")? else { return None };
        Some(JobReport {
            wall_s: v.get("wall_s")?.as_f64()?,
            setup_s: v
                .get("setup_s")?
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()?,
            records: v.get("records")?.as_u64()?,
            peak_rss_kib: v.get("peak_rss_kib")?.as_u64()?,
            hashes: hashes
                .iter()
                .map(|(k, h)| Some((k.clone(), h.as_str()?.to_owned())))
                .collect::<Option<_>>()?,
            problems: strings("problems")?,
        })
    }
}

/// Set-up: resolve the spec and, for batch jobs, materialise the feed —
/// what the `evaluate` and `stream` CLIs do before their entry call. A
/// stream job has no feed yet: it is generated lazily inside the job.
pub fn prepare(spec: &JobSpec) -> (EvaluationRequest, Option<TestFeed>) {
    let request = spec.to_request().expect("benchmark specs are valid");
    if spec.job_kind() == Ok(JobKind::Stream) {
        return (request, None);
    }
    let (profile, _) = spec.site().expect("benchmark specs are valid");
    let feed = TestFeed::build(profile, &request.feed);
    (request, Some(feed))
}

/// Run one job of `workload` at `seed` with `jobs = nproc`, telemetry off.
pub fn run_job(workload: Workload, seed: u64) -> JobReport {
    let spec = workload.spec(seed);
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_MIN_SAMPLES
        || setup_started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
    {
        let (t, mut reps) = (Instant::now(), 0u32);
        while reps == 0 || t.elapsed().as_secs_f64() < SETUP_SAMPLE_SECONDS {
            prepared = Some(std::hint::black_box(prepare(&spec)));
            reps += 1;
        }
        setup_s.push(t.elapsed().as_secs_f64() / f64::from(reps));
    }
    let products = spec.resolve_products().expect("workload specs name valid products");

    let mut hashes = Hashes::new();
    let mut problems = Vec::new();
    let (request, feed) = prepared.expect("set-up ran at least once");
    let request = request.with_jobs(nproc());
    let (wall_s, records) = match feed {
        Some(feed) => {
            let t = Instant::now();
            let evals = request.evaluate_products(&products, &feed);
            let wall_s = t.elapsed().as_secs_f64();
            for e in &evals {
                let bytes = serde_json::to_string(&e.scorecard).expect("scorecards serialize");
                hashes.insert(e.product.id.name().to_owned(), scorecard_hash(bytes.as_bytes()));
                let unscored = e.scorecard.unscored();
                if !unscored.is_empty() {
                    problems.push(format!("{} left {unscored:?} unscored", e.scorecard.system));
                }
            }
            (wall_s, feed.test.len() as u64 * evals.len() as u64)
        }
        None => {
            let t = Instant::now();
            let evals = request.evaluate_stream(&products, spec.resolved_sensitivity());
            let wall_s = t.elapsed().as_secs_f64();
            for e in &evals {
                let card = &e.scorecard;
                hashes.insert(card.product.clone(), scorecard_hash(card.to_json().as_bytes()));
                if card.records == 0 || card.records != evals[0].scorecard.records {
                    problems.push(format!("{} scored {} records", card.product, card.records));
                }
            }
            (wall_s, evals.iter().map(|e| e.scorecard.records).sum())
        }
    };
    JobReport {
        wall_s,
        setup_s,
        records,
        peak_rss_kib: peak_rss_kib().unwrap_or(0),
        hashes,
        problems,
    }
}

/// VmHWM of this process in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_reports_round_trip_through_their_line() {
        let report = JobReport {
            wall_s: 1.25,
            setup_s: vec![0.5, 0.25],
            records: 42,
            peak_rss_kib: 1024,
            hashes: [("FlowHunter".to_owned(), "00ff".to_owned())].into(),
            problems: vec!["x".to_owned()],
        };
        assert_eq!(JobReport::from_json(&report.to_json()), Some(report));
        assert_eq!(JobReport::from_json("not json"), None);
    }
}
