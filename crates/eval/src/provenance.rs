//! Shared run provenance and the one recording path into `idse-store`.
//!
//! Two consumers need the same provenance document: the `evaluate --json`
//! report manifest and the persisted run header in the store. This module
//! holds the one [`Provenance`] struct both serialize, so the two can
//! never drift.
//!
//! Every experiment records the same way: each row type lays out its own
//! [`Cell`]s next to its definition (`ProductEvaluation::cells`,
//! `FaultMatrixRow::cells`, …), and [`record_rows`] commits a context, a
//! [`Provenance`] and those cells as one run. [`record_evaluation`] is the
//! evaluation's thin caller of it.
//!
//! Everything here follows the harness's determinism contract: the worker
//! count is deliberately *absent* (results are byte-identical at any
//! `--jobs N`, attested by [`JOBS_INDEPENDENCE`]), wall time never
//! appears, and timestamps only ride along as an opaque caller-supplied
//! stamp that is excluded from run identity.

use crate::feeds::FeedConfig;
use crate::harness::{EvaluationRequest, ProductEvaluation};
use crate::sweep::SweepPlan;
use idse_faults::FaultPlan;
use idse_store::{fnv64, RunDraft, RunStore, StoreError, StoredRun};
use idse_telemetry::summary::summarize;
use idse_telemetry::Telemetry;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;

/// The jobs-independence attestation stamped into every run header: why
/// the worker count is not part of provenance.
pub const JOBS_INDEPENDENCE: &str = "scorecards, curves and telemetry are byte-identical at any \
                                     --jobs N; the worker count changes only wall time and is \
                                     deliberately excluded from provenance";

/// The timebase attestation: no measurement ever reads the wall clock.
pub const TIMEBASE: &str =
    "sim-time (deterministic virtual clock; wall time never enters a measurement)";

/// Feed parameters, flattened for the manifest.
#[derive(Debug, Clone, Serialize)]
pub struct FeedProvenance {
    /// Sessions per second of background traffic.
    pub session_rate: f64,
    /// Training span, seconds.
    pub training_span_s: f64,
    /// Test span, seconds.
    pub test_span_s: f64,
    /// Attack-campaign intensity.
    pub campaign_intensity: u32,
    /// Feed seed (the master seed of the run).
    pub seed: u64,
    /// Host-count override for scaled profiles (`None` = preset).
    pub hosts: Option<u32>,
    /// Stream chunk size. Pure batching — recorded for reproduction
    /// commands, but guaranteed not to affect any produced byte.
    pub chunk_records: usize,
    /// Flow-key shard count. Part of the experiment identity: a sharded
    /// pipeline sees only its shard's cross-flow context.
    pub shards: u32,
}

impl FeedProvenance {
    /// Capture a [`FeedConfig`].
    pub fn of(feed: &FeedConfig) -> Self {
        FeedProvenance {
            session_rate: feed.session_rate,
            training_span_s: feed.training_span.as_secs_f64(),
            test_span_s: feed.test_span.as_secs_f64(),
            campaign_intensity: feed.campaign_intensity,
            seed: feed.seed,
            hosts: feed.hosts,
            chunk_records: feed.chunk_records,
            shards: feed.shards,
        }
    }
}

/// How the operating sensitivity was chosen.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityPolicy {
    /// The selection rule, in words.
    pub rule: String,
    /// False-positive budget (budgeted sweeps only).
    pub fp_budget: Option<f64>,
    /// Sweep step count (budgeted sweeps only).
    pub sweep_steps: Option<usize>,
    /// Low end of the swept sensitivity range.
    pub sweep_low: Option<f64>,
    /// High end of the swept sensitivity range.
    pub sweep_high: Option<f64>,
    /// The pinned sensitivity (fixed-sensitivity experiments only).
    pub fixed_sensitivity: Option<f64>,
}

impl SensitivityPolicy {
    /// The harness's §3.3 policy: min false-negative ratio within the
    /// false-positive budget, over `plan`'s sweep ladder.
    pub fn budgeted(plan: &SweepPlan) -> Self {
        SensitivityPolicy {
            rule: "min false-negative ratio within the false-positive budget".to_owned(),
            fp_budget: Some(plan.fp_budget),
            sweep_steps: Some(plan.steps),
            sweep_low: Some(plan.sensitivity_range.0),
            sweep_high: Some(plan.sensitivity_range.1),
            fixed_sensitivity: None,
        }
    }

    /// A fixed operating sensitivity.
    pub fn fixed(sensitivity: f64) -> Self {
        SensitivityPolicy {
            fixed_sensitivity: Some(sensitivity),
            ..SensitivityPolicy::not_applicable("fixed operating sensitivity")
        }
    }

    /// No sensitivity in play (experiments that run no detector); `rule`
    /// says why.
    pub fn not_applicable(rule: &str) -> Self {
        SensitivityPolicy {
            rule: rule.to_owned(),
            fp_budget: None,
            sweep_steps: None,
            sweep_low: None,
            sweep_high: None,
            fixed_sensitivity: None,
        }
    }
}

/// Identity of one fault plan: label, event count, and a content hash so
/// two runs claiming the same plan can be checked without replaying it.
#[derive(Debug, Clone, Serialize)]
pub struct FaultPlanProvenance {
    /// The plan's label.
    pub label: String,
    /// Number of injected fault events.
    pub events: usize,
    /// FNV-1a over the plan's canonical JSON, 16 hex digits.
    pub hash: String,
}

impl FaultPlanProvenance {
    /// Capture one plan.
    pub fn of(plan: &FaultPlan) -> Self {
        let json = serde_json::to_string(plan).expect("a fault plan always serializes");
        FaultPlanProvenance {
            label: plan.label().to_owned(),
            events: plan.len(),
            hash: format!("{:016x}", fnv64(json.as_bytes())),
        }
    }
}

/// The provenance manifest: everything needed to reproduce a run, shared
/// verbatim between `evaluate --json` and the store's run headers.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// Workspace crate version.
    pub crate_version: &'static str,
    /// Master seed (equals the feed seed).
    pub seed: u64,
    /// Site profile name, when the caller selected one.
    pub profile: Option<String>,
    /// Weighting scheme name, when the caller selected one.
    pub weighting: Option<String>,
    /// Git revision of the working tree, when the caller passed one
    /// (never read from the environment — determinism).
    pub git_rev: Option<String>,
    /// Feed parameters.
    pub feed: FeedProvenance,
    /// Operating-sensitivity selection policy.
    pub sensitivity_policy: SensitivityPolicy,
    /// Every fault plan in play (empty for fault-free runs).
    pub fault_plans: Vec<FaultPlanProvenance>,
    /// Why the worker count is absent ([`JOBS_INDEPENDENCE`]).
    pub jobs_independence: &'static str,
    /// The timebase attestation ([`TIMEBASE`]).
    pub timebase: &'static str,
}

impl Provenance {
    /// The manifest of a run over `feed` (whose seed is the master seed)
    /// under `policy`, with no fault plans and no annotations.
    pub fn new(feed: &FeedConfig, policy: SensitivityPolicy) -> Self {
        Provenance {
            crate_version: env!("CARGO_PKG_VERSION"),
            seed: feed.seed,
            profile: None,
            weighting: None,
            git_rev: None,
            feed: FeedProvenance::of(feed),
            sensitivity_policy: policy,
            fault_plans: Vec::new(),
            jobs_independence: JOBS_INDEPENDENCE,
            timebase: TIMEBASE,
        }
    }

    /// Capture an [`EvaluationRequest`]'s reproducibility surface.
    pub fn for_request(request: &EvaluationRequest) -> Self {
        Provenance::new(&request.feed, SensitivityPolicy::budgeted(&request.sweep))
            .with_fault_plans(request.fault_plan.iter())
    }

    /// This manifest with every fault plan in play listed.
    pub fn with_fault_plans<'a>(mut self, plans: impl IntoIterator<Item = &'a FaultPlan>) -> Self {
        self.fault_plans = plans.into_iter().map(FaultPlanProvenance::of).collect();
        self
    }

    /// This manifest with a site-profile name attached.
    pub fn with_profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    /// This manifest with a weighting-scheme name attached.
    pub fn with_weighting(mut self, weighting: impl Into<String>) -> Self {
        self.weighting = Some(weighting.into());
        self
    }

    /// This manifest with a git revision attached (pass what your build
    /// system knows; nothing is read from the environment).
    pub fn with_git_rev(mut self, git_rev: Option<String>) -> Self {
        self.git_rev = git_rev;
        self
    }

    /// The manifest as a JSON value, field order fixed.
    pub fn to_value(&self) -> Value {
        serde_json::to_value(self).expect("provenance always serializes")
    }
}

/// Where (and how) a run should be recorded.
#[derive(Debug, Clone, Default)]
pub struct StoreSpec {
    /// The store directory (`runs/` by convention).
    pub dir: PathBuf,
    /// Opaque timestamp to annotate the run header with (excluded from
    /// run identity).
    pub stamp: Option<String>,
    /// Git revision to fold into provenance.
    pub git_rev: Option<String>,
    /// Site-profile name to fold into provenance.
    pub profile: Option<String>,
    /// Weighting-scheme name to fold into provenance.
    pub weighting: Option<String>,
}

impl StoreSpec {
    /// Record into `dir` with no annotations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreSpec { dir: dir.into(), ..StoreSpec::default() }
    }

    /// This spec with a stamp.
    pub fn with_stamp(mut self, stamp: Option<String>) -> Self {
        self.stamp = stamp;
        self
    }

    /// This spec with a git revision.
    pub fn with_git_rev(mut self, git_rev: Option<String>) -> Self {
        self.git_rev = git_rev;
        self
    }

    /// This spec with a site-profile name.
    pub fn with_profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    /// This spec with a weighting-scheme name.
    pub fn with_weighting(mut self, weighting: impl Into<String>) -> Self {
        self.weighting = Some(weighting.into());
        self
    }

    /// Apply this spec's annotations to a manifest.
    fn annotate(&self, mut provenance: Provenance) -> Provenance {
        if let Some(profile) = &self.profile {
            provenance = provenance.with_profile(profile.clone());
        }
        if let Some(weighting) = &self.weighting {
            provenance = provenance.with_weighting(weighting.clone());
        }
        provenance.with_git_rev(self.git_rev.clone())
    }
}

/// Fold a run's telemetry into the header annotation: sink-wide counts
/// plus one [`summarize`] report per product scope, keyed by product
/// name in sorted order. `None` when telemetry was disabled or streaming.
fn telemetry_annotation(telemetry: &Telemetry, products: &[&str]) -> Option<Value> {
    let mut events = telemetry.snapshot_events()?;
    events.sort_by_key(|e| e.scope);
    let dropped = telemetry.dropped_events();
    let mut sorted: Vec<&str> = products.to_vec();
    sorted.sort_unstable();
    let per_product: Vec<(String, Value)> = sorted
        .iter()
        .map(|name| {
            let scoped: Vec<idse_telemetry::Event> =
                events.iter().filter(|e| e.scope == *name).copied().collect();
            let mut summary = summarize(&scoped);
            // The ring buffer is shared across scopes: any eviction
            // anywhere truncates every per-product view.
            summary.dropped_events = dropped;
            let value =
                serde_json::to_value(&summary).expect("a telemetry summary always serializes");
            ((*name).to_owned(), value)
        })
        .collect();
    Some(Value::Object(vec![
        ("events_recorded".to_owned(), Value::U64(events.len() as u64)),
        ("events_dropped".to_owned(), Value::U64(dropped)),
        ("per_product".to_owned(), Value::Object(per_product)),
    ]))
}

/// One stored measurement: the cell key the record is filed under (a
/// product name, or `product@variant` for an experiment cell), a registry
/// metric key, the value, and an optional note. Each row type lays out its
/// own cells next to its definition; [`record_rows`] commits them.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The product key of the record.
    pub key: String,
    /// The registry metric key (a catalog id or a `measure.*` series).
    pub metric: String,
    /// The measured or scored value.
    pub value: f64,
    /// A free-form note stored with the record.
    pub note: Option<String>,
}

impl Cell {
    /// A cell without a note.
    pub fn new(key: impl Into<String>, metric: impl Into<String>, value: f64) -> Self {
        Cell { key: key.into(), metric: metric.into(), value, note: None }
    }

    /// This cell with a note attached.
    pub fn noted(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }
}

/// Commit one run to the store named by `spec`: `provenance` (annotated
/// with the spec's profile, weighting and git revision) under `context`,
/// every cell as one record, and an optional telemetry annotation. The
/// one place a run is drafted and committed — identical inputs commit to
/// the identical run id, so re-recording is a no-op.
pub fn record_rows(
    spec: &StoreSpec,
    context: &str,
    provenance: Provenance,
    telemetry: Option<Value>,
    cells: impl IntoIterator<Item = Cell>,
) -> Result<StoredRun, StoreError> {
    let provenance = spec.annotate(provenance);
    let mut draft = RunDraft::new(context, provenance.to_value()).with_stamp(spec.stamp.clone());
    if let Some(annotation) = telemetry {
        draft = draft.with_telemetry(annotation);
    }
    for cell in cells {
        match cell.note {
            Some(note) => draft.record_noted(&cell.key, &cell.metric, cell.value, note)?,
            None => draft.record(&cell.key, &cell.metric, cell.value)?,
        }
    }
    RunStore::open(&spec.dir)?.commit(draft)
}

/// Record one full evaluation (one record per product per metric: all 56
/// discrete scores with their notes, plus the continuous measurements)
/// into the store named by `spec`, with the request's telemetry folded
/// into the header annotation.
pub fn record_evaluation(
    spec: &StoreSpec,
    request: &EvaluationRequest,
    evals: &[ProductEvaluation],
) -> Result<StoredRun, StoreError> {
    let names: Vec<&str> = evals.iter().map(|e| e.scorecard.system.as_str()).collect();
    let telemetry = telemetry_annotation(&request.telemetry, &names);
    let cells = evals.iter().flat_map(ProductEvaluation::cells);
    record_rows(spec, "evaluate", Provenance::for_request(request), telemetry, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_sim::SimDuration;

    fn spec(name: &str) -> StoreSpec {
        let dir =
            std::env::temp_dir().join(format!("idse-eval-prov-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreSpec::new(dir)
    }

    fn quick_request() -> EvaluationRequest {
        EvaluationRequest::new()
            .with_feed(
                FeedConfig::builder()
                    .session_rate(15.0)
                    .training_span(SimDuration::from_secs(12))
                    .test_span(SimDuration::from_secs(25))
                    .campaign_intensity(1)
                    .seed(42)
                    .build(),
            )
            .with_sweep_steps(4)
            .with_max_throughput_factor(32.0)
            .with_fp_budget(0.2)
    }

    #[test]
    fn provenance_round_trips_with_annotations() {
        let p = Provenance::for_request(&quick_request())
            .with_profile("cluster")
            .with_weighting("realtime")
            .with_git_rev(Some("abc123".into()));
        let v = p.to_value();
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("profile").and_then(Value::as_str), Some("cluster"));
        assert_eq!(v.get("git_rev").and_then(Value::as_str), Some("abc123"));
        assert_eq!(
            v.get("jobs_independence").and_then(Value::as_str),
            Some(JOBS_INDEPENDENCE),
            "the attestation is part of the manifest"
        );
        let policy = v.get("sensitivity_policy").expect("policy present");
        assert_eq!(policy.get("sweep_steps").and_then(Value::as_u64), Some(4));
        // Serialization is deterministic.
        assert_eq!(
            serde_json::to_string(&v).expect("serializes"),
            serde_json::to_string(&p.to_value()).expect("serializes")
        );
    }

    #[test]
    fn recorded_evaluation_covers_all_metrics_and_is_idempotent() {
        use idse_ids::products::{IdsProduct, ProductId};
        let spec = spec("eval");
        let request = quick_request();
        let feed = request.build_feed();
        let evals = vec![request.evaluate(&IdsProduct::model(ProductId::GuardSecure), &feed)];
        let run = record_evaluation(&spec, &request, &evals).expect("run records");
        assert!(run.created);
        // 56 discrete + 9 measures (no fault plan, lethal dose may add one).
        assert!(run.header.records >= 56 + 9, "records: {}", run.header.records);
        assert_eq!(run.header.context, "evaluate");
        let again = record_evaluation(&spec, &request, &evals).expect("re-record");
        assert!(!again.created, "identical results dedupe to the same run");
        assert_eq!(again.header.run_id, run.header.run_id);
    }

    #[test]
    fn hybrid_taxonomy_records_one_product_per_mechanism() {
        use crate::experiments::HybridTaxonomyRow;
        let spec = spec("taxonomy");
        let request = quick_request();
        let rows = [
            HybridTaxonomyRow {
                mechanism: "signature-only".to_owned(),
                sensitivity: 0.8,
                detection_rate: 0.62,
                fp_ratio: 0.01,
                zero_loss_pps: 9000.0,
                alerts: 41,
            },
            HybridTaxonomyRow {
                mechanism: "hybrid (parallel)".to_owned(),
                sensitivity: 0.8,
                detection_rate: 0.91,
                fp_ratio: 0.03,
                zero_loss_pps: 5200.0,
                alerts: 77,
            },
        ];
        let record = || {
            let provenance = Provenance::new(&request.feed, SensitivityPolicy::fixed(0.8));
            let cells = rows.iter().flat_map(HybridTaxonomyRow::cells);
            record_rows(&spec, "hybrid-taxonomy", provenance, None, cells)
        };
        let run = record().expect("taxonomy records");
        assert_eq!(run.header.context, "hybrid-taxonomy");
        assert_eq!(run.header.run_id, "re03747852015de39", "the recorded bytes moved");
        assert_eq!(run.header.products, vec!["hybrid (parallel)", "signature-only"]);
        assert_eq!(run.header.records, 8, "four measures per mechanism");
        let noted = &rows[0].cells()[0];
        let stored = run.get(&noted.key, &noted.metric).expect("recorded");
        assert_eq!(stored.note.as_deref(), Some("41 alerts"));
        assert_eq!(
            run.header.provenance.get("seed").and_then(Value::as_u64),
            Some(42),
            "feed provenance rides along"
        );
        let again = record().expect("re-record");
        assert!(!again.created, "identical results dedupe to the same run");
    }

    #[test]
    fn experiment_recorders_commit_cell_keyed_runs() {
        use crate::experiments::{
            operating_point_feed_config, operating_point_plan, payload_realism_feed_config,
            site_profile_feed_config, OperatingPointReport, PayloadStatsRow, RealismRow,
            SiteProfileRow,
        };
        use crate::host_overhead::OverheadRow;
        use crate::operator::FatigueRow;
        use crate::sweep::{ErrorCurve, SweepPoint};

        let overhead = OverheadRow {
            load: 0.3,
            level: "nominal",
            audit_share: 0.04,
            with_agent_share: 0.06,
            production_events_per_sec: 28_000.0,
        };
        let overhead = record_rows(
            &spec("overhead"),
            "host-overhead",
            Provenance::new(
                &FeedConfig::builder().seed(42).build(),
                SensitivityPolicy::not_applicable(
                    "not applicable (synthetic host load, no detection sweep)",
                ),
            ),
            None,
            overhead.cells(),
        )
        .expect("overhead records");
        assert_eq!(overhead.header.context, "host-overhead");
        assert_eq!(overhead.header.run_id, "r618275554fa95d5a", "the recorded bytes moved");
        assert_eq!(overhead.header.products, vec!["nominal@load0.30"]);
        assert_eq!(overhead.header.records, 3);

        let report = OperatingPointReport {
            product: "GuardSecure GS-5".to_owned(),
            curve: ErrorCurve { product: "GuardSecure GS-5".to_owned(), points: Vec::new() },
            eer_point: Some((0.55, 0.08)),
            low_fn_point: Some(SweepPoint {
                sensitivity: 0.85,
                false_positive_ratio: 0.15,
                false_negative_ratio: 0.02,
                alerts: 120,
            }),
            trust_detection_at_eer: Some(0.5),
            trust_detection_at_low_fn: Some(0.9),
        };
        let op = record_rows(
            &spec("op-point"),
            "operating-point",
            Provenance::new(
                &operating_point_feed_config(42),
                SensitivityPolicy::budgeted(&operating_point_plan(0.2)),
            ),
            None,
            report.cells(),
        )
        .expect("operating point records");
        assert_eq!(op.header.context, "operating-point");
        assert_eq!(op.header.run_id, "re36102e3d20b56ff", "the recorded bytes moved");
        assert_eq!(op.header.products, vec!["GuardSecure GS-5@eer", "GuardSecure GS-5@low-fn"]);
        assert_eq!(op.header.records, 7);

        let fatigue = FatigueRow {
            operator: "single watchstander",
            sensitivity: 0.5,
            alerts: 80,
            triaged: 40,
            machine_detection: 0.8,
            effective_detection: 0.4,
        };
        let fatigue = record_rows(
            &spec("fatigue"),
            "operator-fatigue",
            Provenance::for_request(&quick_request()),
            None,
            fatigue.cells(),
        )
        .expect("fatigue records");
        assert_eq!(fatigue.header.run_id, "ra640d79f1857d1be", "the recorded bytes moved");
        assert_eq!(fatigue.header.products, vec!["single watchstander@s0.50"]);
        assert_eq!(fatigue.header.records, 4);

        let stats = PayloadStatsRow {
            load: "realistic".to_owned(),
            byte_entropy: 5.1,
            printable_fraction: 0.93,
            realism_score: 0.9,
        };
        let realism = RealismRow {
            product: "NidSentry NS-5".to_owned(),
            alerts_per_kpkt_realistic: 2.0,
            alerts_per_kpkt_random: 0.1,
            cost_realistic: 900.0,
            cost_random: 400.0,
        };
        let realism = record_rows(
            &spec("realism"),
            "payload-realism",
            Provenance::new(&payload_realism_feed_config(42), SensitivityPolicy::fixed(0.8)),
            None,
            stats.cells().into_iter().chain(realism.cells()),
        )
        .expect("realism records");
        assert_eq!(realism.header.context, "payload-realism");
        assert_eq!(realism.header.run_id, "re3d36ee3ff5afe15", "the recorded bytes moved");
        assert_eq!(realism.header.records, 3 + 4);
        assert!(realism.header.products.contains(&"payload:realistic".to_owned()));

        let site = SiteProfileRow {
            product: "FlowHunter FH-9".to_owned(),
            fp_matched: 0.01,
            fp_mismatched: 0.2,
            detection_matched: 0.8,
            detection_mismatched: 0.6,
        };
        let site = record_rows(
            &spec("site"),
            "site-profile",
            Provenance::new(&site_profile_feed_config(42), SensitivityPolicy::fixed(0.7)),
            None,
            site.cells(),
        )
        .expect("site profile records");
        assert_eq!(site.header.run_id, "r1a027b136cc3c8a6", "the recorded bytes moved");
        assert_eq!(site.header.products.len(), 2, "matched and mismatched cells");
        assert_eq!(site.header.records, 4);
    }

    #[test]
    fn fault_matrix_records_one_cell_per_row() {
        use crate::experiments::{fault_matrix_feed_config, FaultMatrixRow, FaultScenario};
        use idse_exec::Executor;
        use idse_ids::products::{IdsProduct, ProductId};
        let spec = spec("matrix");
        let products = [IdsProduct::model(ProductId::GuardSecure)];
        let scenarios: Vec<FaultScenario> =
            crate::experiments::fault_scenarios().into_iter().take(2).collect();
        let rows = crate::experiments::fault_matrix_experiment(
            &products,
            &scenarios,
            0.7,
            42,
            &Executor::new(2),
        );
        let provenance =
            Provenance::new(&fault_matrix_feed_config(42), SensitivityPolicy::fixed(0.7))
                .with_fault_plans(scenarios.iter().map(|s| &s.plan));
        let cells = rows.iter().flat_map(FaultMatrixRow::cells);
        let run =
            record_rows(&spec, "fault-matrix", provenance, None, cells).expect("matrix records");
        assert_eq!(run.header.context, "fault-matrix");
        assert_eq!(run.header.run_id, "r5ecafc919a39d3f2", "the recorded bytes moved");
        assert_eq!(run.header.products.len(), rows.len(), "one product key per cell");
        assert!(run.header.products[0].contains('@'));
        let plans = run
            .header
            .provenance
            .get("fault_plans")
            .and_then(Value::as_array)
            .expect("plans listed");
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].get("hash").and_then(Value::as_str).map(str::len), Some(16));
    }
}
