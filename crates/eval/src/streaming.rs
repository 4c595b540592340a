//! Constant-memory streaming evaluation: chunked feeds, flow-key shards.
//!
//! The classic harness materializes the whole test trace before anything
//! runs — fine at 60 s spans, hopeless at the ROADMAP's million-flow
//! scale. This module drives the Figure-1 pipeline directly from the
//! `idse-traffic` [`RecordStream`]:
//!
//! * the engine models train once per request, straight from the training
//!   stream's chunks, and every product's session deploys over the same
//!   `Arc`-shared [`TrainedModels`] — the training window is never
//!   materialized either;
//! * each shard consumes a lazily merged stream of its background chunk
//!   sequence and its slice of the (small, materialized) campaign, in the
//!   exact order `Trace::merge` would produce ([`ShardFeed`]);
//! * one job per shard runs on the [`idse_exec::Executor`]: it generates
//!   the shard's feed once and fans each chunk out, in slices of
//!   `ceil(chunk / products)` records, to one pipeline session per
//!   product, so every product sees the same records and the job's summed
//!   record window stays about one chunk;
//! * scoring happens incrementally through one product-independent
//!   [`StreamLedger`] per shard plus each pipeline's own `alert_truths` /
//!   [`idse_ids::Alert::flow`] channels, so no record index over the full
//!   trace ever exists;
//! * the shard outcomes merge in deterministic shard order — the resulting
//!   [`StreamScorecard`]s are byte-identical at any
//!   [`EvaluationRequest::jobs`] setting and any chunk size.
//!
//! Shard count *is* part of the experiment identity (a sharded pipeline
//! sees only its shard's cross-flow context), so it is recorded in the
//! scorecard and in feed provenance; byte-identity is guaranteed across
//! worker counts and chunk sizes, not across shard counts.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::confusion::{ConfusionCounts, StreamLedger};
use crate::feeds::{FeedConfig, TestFeed};
use crate::harness::EvaluationRequest;
use idse_exec::plan::DEFAULT_JOB_TELEMETRY_CAPACITY;
use idse_exec::{CancelToken, Cancelled, ExperimentPlan, JobKey};
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::{Sensitivity, TrainedModels, Trainer};
use idse_net::trace::TraceRecord;
use idse_net::FlowKey;
use idse_sim::SimTime;
use idse_traffic::{flow_shard, RecordStream};
use serde::{Deserialize, Serialize};

/// One shard's lazily merged feed: the background [`RecordStream`] for
/// shard `s` merged in time order with shard `s`'s slice of the campaign.
/// Ties resolve background-first, matching the stable sort in
/// `Trace::merge`, so shard 0 of 1 reproduces the materialized test trace
/// byte for byte.
pub struct ShardFeed {
    bg: RecordStream,
    bg_buf: VecDeque<TraceRecord>,
    bg_done: bool,
    campaign: VecDeque<TraceRecord>,
    chunk_records: usize,
}

impl ShardFeed {
    /// The feed for `shard` of `config.shards`, over `profile`.
    pub fn new(profile: &idse_traffic::SiteProfile, config: &FeedConfig, shard: u32) -> Self {
        let stream_cfg =
            TestFeed::background_stream(profile, config).with_shard(shard, config.shards);
        let bg = RecordStream::new(stream_cfg).expect("poisson arrivals always stream");
        let campaign: VecDeque<TraceRecord> = TestFeed::campaign_trace(profile, config)
            .records()
            .iter()
            .filter(|r| flow_shard(r.packet.ip.src, r.packet.ip.dst, config.shards) == shard)
            .cloned()
            .collect();
        Self {
            bg,
            bg_buf: VecDeque::new(),
            bg_done: false,
            campaign,
            chunk_records: config.chunk_records.max(1),
        }
    }

    fn refill(&mut self) {
        while self.bg_buf.is_empty() && !self.bg_done {
            match self.bg.next() {
                Some(chunk) => self.bg_buf.extend(chunk),
                None => self.bg_done = true,
            }
        }
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        self.refill();
        match (self.bg_buf.front(), self.campaign.front()) {
            (Some(b), Some(c)) if b.at <= c.at => self.bg_buf.pop_front(),
            (Some(_), Some(_)) | (None, Some(_)) => self.campaign.pop_front(),
            (Some(_), None) => self.bg_buf.pop_front(),
            (None, None) => None,
        }
    }
}

impl Iterator for ShardFeed {
    type Item = Vec<TraceRecord>;

    /// The next chunk of up to `chunk_records` merged records.
    fn next(&mut self) -> Option<Vec<TraceRecord>> {
        let mut chunk = Vec::with_capacity(self.chunk_records);
        while chunk.len() < self.chunk_records {
            match self.next_record() {
                Some(rec) => chunk.push(rec),
                None => break,
            }
        }
        if chunk.is_empty() {
            None
        } else {
            Some(chunk)
        }
    }
}

/// What one product's session produced over one shard.
#[derive(Debug, Default)]
struct SessionOutcome {
    /// Attack ids with at least one alert.
    detected: BTreeSet<u32>,
    /// Distinct benign canonical flows falsely flagged.
    flagged: BTreeSet<FlowKey>,
    /// Raw alert count.
    alerts: u64,
    /// Packets offered to the deployment.
    offered: u64,
    /// Packets inspected by at least one engine.
    monitored: u64,
    /// Packets lost before inspection.
    lost: u64,
    /// `(attack, benign)` packets suppressed by automated blocking.
    blocked: (u64, u64),
    /// Peak live records in the session's window (the bounded-RSS figure).
    window_peak: usize,
    /// Virtual time the session's run finished.
    finished_at: SimTime,
}

/// What one shard job produced: the shard's product-independent ledger,
/// observed once, and one [`SessionOutcome`] per requested product.
#[derive(Debug)]
struct ShardOutcome {
    /// Incremental transaction ledger over this shard's records.
    ledger: StreamLedger,
    /// Per-product results, in request order.
    sessions: Vec<SessionOutcome>,
}

/// Run one shard for every product: generate the shard's feed once and
/// fan each chunk out to one [`PipelineSession`] per product.
///
/// Each session carries fresh per-run engine state over `models`, trained
/// once for the whole request (see [`EvaluationRequest::evaluate_stream`]);
/// the shard trains nothing, and its test window is never materialized.
/// A chunk reaches the sessions in slices of `ceil(len / products)`
/// records: a session admits a whole pushed batch into its record window
/// before draining it, so slicing keeps the job's summed window at about
/// one chunk however many products share it. Chunking is pure batching,
/// so the slices never change a scorecard.
///
/// `cancel` is checked *between* chunks — never mid-chunk — so a
/// cancelled shard stops at a deterministic record boundary shared by all
/// its products: everything observed so far (including each product's
/// `stream.chunk.records` progress counters, recorded in `telemetry`
/// under the product's scope) is a pure function of the feed and the
/// checkpoint count, and the partial telemetry is flushed by the plan's
/// cancellable reduce.
///
/// [`PipelineSession`]: idse_ids::pipeline::PipelineSession
#[allow(clippy::too_many_arguments)]
fn run_shard(
    products: &[IdsProduct],
    profile: &idse_traffic::SiteProfile,
    config: &FeedConfig,
    models: &TrainedModels,
    sensitivity: f64,
    shard: u32,
    telemetry: &idse_telemetry::Telemetry,
    cancel: &CancelToken,
) -> Result<ShardOutcome, Cancelled> {
    let monitored_hosts = TestFeed::server_hosts(profile);
    let scoped: Vec<idse_telemetry::Telemetry> =
        products.iter().map(|p| telemetry.with_scope(p.id.name())).collect();
    let mut sessions: Vec<_> = products
        .iter()
        .zip(&scoped)
        .map(|(product, telemetry)| {
            let run_config = RunConfig {
                sensitivity: Sensitivity::new(sensitivity),
                monitored_hosts: monitored_hosts.clone(),
                auto_response: true,
                telemetry: telemetry.clone(),
                ..RunConfig::default()
            };
            let runner =
                PipelineRunner::new(product.clone(), run_config).with_models(models.clone());
            // idse-lint: allow(transitive-unordered-iteration-in-report, reason = "pipeline-internal membership sets: contains/insert only, order never observed; all reported counts come from the ordered ledger below")
            runner.session()
        })
        .collect();
    let mut ledger = StreamLedger::new();
    for chunk in ShardFeed::new(profile, config, shard) {
        cancel.guard()?;
        ledger.observe_chunk(&chunk);
        for slice in chunk.chunks(chunk.len().div_ceil(products.len())) {
            for session in &mut sessions {
                session.push_chunk(slice.iter().cloned());
            }
        }
        let progress_at = chunk.last().map(|r| r.at.as_nanos()).unwrap_or(0);
        for telemetry in &scoped {
            telemetry.counter(progress_at, "stream.chunk.records", chunk.len() as u64);
        }
    }

    let sessions = sessions
        .into_iter()
        .map(|session| {
            let outcome = session.finish();
            let mut detected = BTreeSet::new();
            let mut flagged = BTreeSet::new();
            for (alert, truth) in outcome.alerts.iter().zip(outcome.alert_truths.iter()) {
                match truth {
                    Some(g) => {
                        detected.insert(g.attack_id);
                    }
                    None => {
                        flagged.insert(alert.flow.canonical());
                    }
                }
            }
            SessionOutcome {
                detected,
                flagged,
                alerts: outcome.alerts.len() as u64,
                offered: outcome.offered,
                monitored: outcome.monitored,
                lost: outcome.missed,
                blocked: outcome.blocked,
                window_peak: outcome.window_peak,
                finished_at: outcome.finished_at,
            }
        })
        .collect();
    Ok(ShardOutcome { ledger, sessions })
}

/// The merged, serializable result of one product's streaming run.
///
/// Serialization is byte-stable: every map is ordered, every number is
/// reduced in deterministic shard order, so `to_json` is the artifact CI
/// diffs across `--jobs` settings and chunk sizes.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct StreamScorecard {
    /// Product name.
    pub product: String,
    /// Master feed seed.
    pub seed: u64,
    /// Flow-key shard count the run used (part of experiment identity).
    pub shards: u32,
    /// Records generated across all shards.
    pub records: u64,
    /// Transactions `|T|` (distinct benign flows + attack instances).
    pub transactions: u64,
    /// Actual intrusions `|A|`.
    pub actual_attacks: u64,
    /// Attack instances with at least one alert.
    pub detected_attacks: u64,
    /// Benign flows falsely flagged `|D − A|`.
    pub false_positives: u64,
    /// Attack instances missed `|A − D|`.
    pub missed_attacks: u64,
    /// The paper's FP ratio `|D − A| / |T|`.
    pub false_positive_ratio: f64,
    /// The paper's FN ratio `|A − D| / |T|`.
    pub false_negative_ratio: f64,
    /// Detection rate over attack instances.
    pub detection_rate: f64,
    /// Raw alert volume.
    pub alerts: u64,
    /// Packets offered to the deployment.
    pub offered: u64,
    /// Packets inspected by at least one engine.
    pub monitored: u64,
    /// Packets lost before inspection.
    pub lost: u64,
    /// Attack packets suppressed by automated blocking.
    pub blocked_attack: u64,
    /// Benign packets suppressed by automated blocking.
    pub blocked_benign: u64,
    /// Latest virtual finish time across shards, in nanoseconds.
    pub finished_at_ns: u64,
    /// Per-class `(detected, total)` attack-instance counts.
    pub per_class: BTreeMap<String, (u32, u32)>,
}

impl StreamScorecard {
    /// Compact, byte-stable JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scorecard serializes")
    }
}

/// One product's streaming evaluation: the scorecard plus the underlying
/// confusion counts.
#[derive(Debug)]
pub struct StreamEvaluation {
    /// The merged scorecard.
    pub scorecard: StreamScorecard,
    /// Figure 3 quantities backing it.
    pub confusion: ConfusionCounts,
    /// Max peak live records in this product's session across shards —
    /// the bounded-RSS figure. A shard job's sessions share one chunk in
    /// slices, so their peaks sum to about one chunk per job. Deliberately
    /// *not* part of the scorecard: it scales with the chunk size and the
    /// product count (pure batching), while the scorecard bytes must be
    /// identical at any chunk size.
    pub window_peak: usize,
}

impl EvaluationRequest {
    /// Evaluate products over the streamed real-time-cluster feed this
    /// request describes, at a fixed `sensitivity`.
    ///
    /// The models the products deploy train once, from the training
    /// stream's chunks; then one job per shard runs on the request's
    /// executor over those shared models. Each job generates its shard's
    /// feed and observes it into the shard ledger once, and fans every
    /// chunk out to one pipeline session per product, so all products see
    /// the same records and parallelism is over shards. Shard outcomes
    /// merge in shard order, so the returned scorecards (one per product,
    /// in request order) are byte-identical for any
    /// [`EvaluationRequest::jobs`] setting and any `chunk_records`.
    /// Neither window is materialized: memory stays O(chunk + in-flight
    /// sessions + distinct-flow hashes + trained models), plus the
    /// training-time DNS/ICMP payload sizes the anomaly model's two-pass
    /// statistics need (8 bytes per such record).
    pub fn evaluate_stream(
        &self,
        products: &[IdsProduct],
        sensitivity: f64,
    ) -> Vec<StreamEvaluation> {
        self.evaluate_stream_cancellable(products, sensitivity, &CancelToken::new())
            .expect("a fresh token never cancels")
    }

    /// [`EvaluationRequest::evaluate_stream`] with cooperative
    /// cancellation: the token is polled at every chunk boundary of every
    /// shard job and between job claims on the executor.
    ///
    /// On cancellation the partial telemetry of every job that ran —
    /// including the per-chunk `stream.chunk.records` progress counters of
    /// the job that observed the cancel — is flushed into the request's
    /// sink in canonical job order before `Err(Cancelled)` is returned.
    pub fn evaluate_stream_cancellable(
        &self,
        products: &[IdsProduct],
        sensitivity: f64,
        cancel: &CancelToken,
    ) -> Result<Vec<StreamEvaluation>, Cancelled> {
        if products.is_empty() {
            return Ok(Vec::new());
        }
        let exec = self.executor();
        let profile = TestFeed::realtime_cluster_profile(&self.feed);
        let mut trainer = Trainer::for_products(products, &TestFeed::server_hosts(&profile));
        if trainer.needs_records() {
            let training = RecordStream::new(TestFeed::training_stream(&profile, &self.feed))
                .expect("poisson arrivals always stream");
            for chunk in training {
                trainer.observe(&chunk);
            }
        }
        let models = trainer.finish();

        // One job buffers what `products.len()` single-product jobs would,
        // so fan-out never evicts an event.
        let mut plan: ExperimentPlan<u32> = ExperimentPlan::new(self.feed.seed)
            .with_job_telemetry_capacity(products.len() * DEFAULT_JOB_TELEMETRY_CAPACITY);
        for shard in 0..self.feed.shards {
            plan.push(JobKey::new("stream", "shard", shard), shard);
        }
        let shard_outcomes: Vec<ShardOutcome> = plan
            .run_cancellable(&exec, &self.telemetry, cancel, |ctx, &shard| {
                run_shard(
                    products,
                    &profile,
                    &self.feed,
                    &models,
                    sensitivity,
                    shard,
                    &ctx.telemetry,
                    cancel,
                )
            })?
            .into_iter()
            .map(|r| r.output)
            .collect();
        Ok(self.merge_shards(products, shard_outcomes))
    }

    /// Deterministic reduce: fold shard outcomes (in shard order) into one
    /// scorecard per product. Each shard's ledger is folded once and
    /// shared by every product's scorecard.
    fn merge_shards(
        &self,
        products: &[IdsProduct],
        shard_outcomes: Vec<ShardOutcome>,
    ) -> Vec<StreamEvaluation> {
        let mut ledger = StreamLedger::new();
        let mut merged: Vec<SessionOutcome> =
            products.iter().map(|_| SessionOutcome::default()).collect();
        for outcome in shard_outcomes {
            ledger.merge(outcome.ledger);
            for (m, o) in merged.iter_mut().zip(outcome.sessions) {
                m.detected.extend(o.detected);
                m.flagged.extend(o.flagged);
                m.alerts += o.alerts;
                m.offered += o.offered;
                m.monitored += o.monitored;
                m.lost += o.lost;
                m.blocked.0 += o.blocked.0;
                m.blocked.1 += o.blocked.1;
                m.window_peak = m.window_peak.max(o.window_peak);
                m.finished_at = m.finished_at.max(o.finished_at);
            }
        }
        let records = ledger.records();
        products
            .iter()
            .zip(merged)
            .map(|(product, m)| {
                let confusion = ledger.score(&m.detected, m.flagged.len(), m.alerts as usize);
                let per_class = confusion
                    .per_class
                    .iter()
                    .map(|(class, &counts)| (format!("{class:?}"), counts))
                    .collect();
                let scorecard = StreamScorecard {
                    product: product.id.name().to_owned(),
                    seed: self.feed.seed,
                    shards: self.feed.shards,
                    records,
                    transactions: confusion.transactions as u64,
                    actual_attacks: confusion.actual_attacks as u64,
                    detected_attacks: confusion.detected_attacks as u64,
                    false_positives: confusion.false_positives as u64,
                    missed_attacks: confusion.missed_attacks.len() as u64,
                    false_positive_ratio: confusion.false_positive_ratio(),
                    false_negative_ratio: confusion.false_negative_ratio(),
                    detection_rate: confusion.detection_rate(),
                    alerts: m.alerts,
                    offered: m.offered,
                    monitored: m.monitored,
                    lost: m.lost,
                    blocked_attack: m.blocked.0,
                    blocked_benign: m.blocked.1,
                    finished_at_ns: m.finished_at.as_nanos(),
                    per_class,
                };
                StreamEvaluation { scorecard, confusion, window_peak: m.window_peak }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confusion::TransactionLedger;
    use idse_ids::products::ProductId;
    use idse_sim::SimDuration;

    fn small_config(shards: u32, chunk: usize) -> FeedConfig {
        FeedConfig::builder()
            .session_rate(12.0)
            .training_span(SimDuration::from_secs(10))
            .test_span(SimDuration::from_secs(20))
            .campaign_intensity(1)
            .seed(0x57e4)
            .chunk_records(chunk)
            .shards(shards)
            .build()
    }

    #[test]
    fn shard_feed_of_one_reproduces_the_materialized_test_trace() {
        let cfg = small_config(1, 97);
        let feed = TestFeed::realtime_cluster(&cfg);
        let streamed: Vec<TraceRecord> = ShardFeed::new(&feed.profile, &cfg, 0).flatten().collect();
        assert_eq!(streamed.len(), feed.test.len());
        for (a, b) in streamed.iter().zip(feed.test.records().iter()) {
            assert_eq!(a.at, b.at);
            assert_eq!(&a.packet, &b.packet);
            assert_eq!(a.truth, b.truth);
        }
    }

    #[test]
    fn shard_feeds_partition_the_test_trace() {
        let cfg = small_config(3, 256);
        let feed = TestFeed::realtime_cluster(&cfg);
        let mut total = 0usize;
        for s in 0..3 {
            for chunk in ShardFeed::new(&feed.profile, &cfg, s) {
                for rec in &chunk {
                    assert_eq!(flow_shard(rec.packet.ip.src, rec.packet.ip.dst, 3), s);
                    total += 1;
                }
            }
        }
        assert_eq!(total, feed.test.len());
    }

    #[test]
    fn unsharded_stream_run_matches_the_materialized_run() {
        let cfg = small_config(1, 512);
        let request = EvaluationRequest::new().with_feed(cfg.clone());
        let product = IdsProduct::model(ProductId::NidSentry);
        let eval =
            request.evaluate_stream(std::slice::from_ref(&product), 0.7).pop().expect("one eval");

        // Reference: the classic materialized path at the same sensitivity.
        let feed = TestFeed::realtime_cluster(&cfg);
        let run_config = RunConfig {
            sensitivity: Sensitivity::new(0.7),
            monitored_hosts: feed.servers.clone(),
            auto_response: true,
            ..RunConfig::default()
        };
        let outcome =
            PipelineRunner::new(product, run_config).with_training(feed.training).run(&feed.test);
        let reference = TransactionLedger::of(&feed.test).score(&outcome.alerts);

        assert_eq!(eval.scorecard.alerts, outcome.alerts.len() as u64);
        assert_eq!(eval.scorecard.offered, outcome.offered);
        assert_eq!(eval.scorecard.monitored, outcome.monitored);
        assert_eq!(eval.scorecard.finished_at_ns, outcome.finished_at.as_nanos());
        assert_eq!(eval.scorecard.transactions, reference.transactions as u64);
        assert_eq!(eval.scorecard.actual_attacks, reference.actual_attacks as u64);
        assert_eq!(eval.scorecard.detected_attacks, reference.detected_attacks as u64);
        assert_eq!(eval.scorecard.false_positives, reference.false_positives as u64);
        assert_eq!(eval.scorecard.missed_attacks, reference.missed_attacks.len() as u64);
        assert_eq!(eval.confusion.per_class, reference.per_class);
    }

    #[test]
    fn jobs_and_chunk_size_never_change_the_scorecard_bytes() {
        let product = IdsProduct::model(ProductId::NidSentry);
        let render = |jobs: usize, chunk: usize| {
            EvaluationRequest::new()
                .with_feed(small_config(3, chunk))
                .with_jobs(jobs)
                .evaluate_stream(std::slice::from_ref(&product), 0.7)
                .pop()
                .expect("one eval")
                .scorecard
                .to_json()
        };
        let baseline = render(1, 512);
        assert_eq!(baseline, render(4, 512), "worker count changed the bytes");
        assert_eq!(baseline, render(2, 64), "chunk size changed the bytes");
        assert_eq!(baseline, render(8, 4096), "chunk size changed the bytes");
    }

    #[test]
    fn fan_out_scores_every_product_as_if_streamed_alone() {
        let products = IdsProduct::all_models();
        for shards in [1, 3] {
            for chunk in [64, 4096] {
                let request = EvaluationRequest::new().with_feed(small_config(shards, chunk));
                let alone: Vec<StreamEvaluation> = products
                    .iter()
                    .map(|p| {
                        request.evaluate_stream(std::slice::from_ref(p), 0.7).pop().expect("one")
                    })
                    .collect();
                for jobs in [1, 4] {
                    let together = request.clone().with_jobs(jobs).evaluate_stream(&products, 0.7);
                    assert_eq!(together.len(), products.len());
                    // Sliced pushes: the sessions sharing a job hold about
                    // one chunk between them, so each holds less than the
                    // product streamed alone.
                    let peak = |evals: &[StreamEvaluation]| {
                        evals.iter().map(|e| e.window_peak).max().expect("four products")
                    };
                    assert!(
                        peak(&together) < peak(&alone),
                        "shards {shards} chunk {chunk} jobs {jobs}: window peak {} vs alone {}",
                        peak(&together),
                        peak(&alone)
                    );
                    for (t, a) in together.iter().zip(&alone) {
                        let at = format!(
                            "{} at shards {shards} chunk {chunk} jobs {jobs}",
                            a.scorecard.product
                        );
                        assert_eq!(t.scorecard.to_json(), a.scorecard.to_json(), "{at}");
                        assert!(t.window_peak <= a.window_peak, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn fan_out_keeps_per_product_progress_and_every_event() {
        use idse_telemetry::{MemorySink, Telemetry};
        let products = IdsProduct::all_models();
        let run = |products: &[IdsProduct], jobs: usize| {
            let sink = MemorySink::new(1 << 22);
            let evals = EvaluationRequest::new()
                .with_feed(small_config(3, 128))
                .with_jobs(jobs)
                .with_telemetry(Telemetry::new(sink.clone()))
                .evaluate_stream(products, 0.7);
            (evals, sink.events())
        };
        let (evals, events) = run(&products, 1);
        let (_, wide) = run(&products, 4);
        let lines = |events: &[idse_telemetry::Event]| -> Vec<String> {
            events.iter().map(|e| e.to_jsonl()).collect()
        };
        assert_eq!(lines(&events), lines(&wide), "worker count changed the event stream");

        for (product, eval) in products.iter().zip(&evals) {
            let name = product.id.name();
            let progress: f64 = events
                .iter()
                .filter(|e| e.scope == name && e.name == "stream.chunk.records")
                .map(|e| e.value)
                .sum();
            assert_eq!(progress as u64, eval.scorecard.records, "{name} progress");
            let (_, alone) = run(std::slice::from_ref(product), 1);
            let count = |events: &[idse_telemetry::Event]| {
                events.iter().filter(|e| e.scope == name).count()
            };
            assert_eq!(count(&events), count(&alone), "{name} lost events to fan-out");
        }
    }

    #[test]
    fn cancellation_stops_at_a_chunk_boundary_with_partial_telemetry_flushed() {
        use idse_telemetry::{MemorySink, Telemetry};
        let product = IdsProduct::model(ProductId::NidSentry);
        let run_cancelled = || {
            let sink = MemorySink::new(1 << 14);
            let request = EvaluationRequest::new()
                .with_feed(small_config(1, 128))
                .with_telemetry(Telemetry::new(sink.clone()));
            // The fuse trips on the third chunk-boundary checkpoint: two
            // chunks are processed, the third is never pushed.
            let token = CancelToken::after_checkpoints(3);
            let outcome =
                request.evaluate_stream_cancellable(std::slice::from_ref(&product), 0.7, &token);
            assert!(outcome.is_err(), "the armed fuse cancels the run");
            sink.events().iter().map(|e| e.to_jsonl()).collect::<Vec<_>>()
        };
        let events = run_cancelled();
        let chunks: Vec<&String> =
            events.iter().filter(|l| l.contains("stream.chunk.records")).collect();
        assert_eq!(chunks.len(), 2, "exactly the pre-cancel chunk progress is flushed");
        assert!(!events.is_empty(), "partial telemetry reaches the sink on cancellation");
        assert_eq!(events, run_cancelled(), "a cancelled run is still deterministic");
    }

    #[test]
    fn cancellable_stream_with_fresh_token_matches_evaluate_stream() {
        let product = IdsProduct::model(ProductId::NidSentry);
        let request = EvaluationRequest::new().with_feed(small_config(2, 256));
        let direct = request
            .evaluate_stream(std::slice::from_ref(&product), 0.7)
            .pop()
            .expect("one eval")
            .scorecard
            .to_json();
        let cancellable = request
            .evaluate_stream_cancellable(std::slice::from_ref(&product), 0.7, &CancelToken::new())
            .expect("never cancelled")
            .pop()
            .expect("one eval")
            .scorecard
            .to_json();
        assert_eq!(direct, cancellable);
    }

    #[test]
    fn with_stream_configures_the_feed() {
        let request = EvaluationRequest::new().with_stream(1024, 8);
        assert_eq!(request.feed.chunk_records, 1024);
        assert_eq!(request.feed.shards, 8);
        // Clamped to sane minimums.
        let request = EvaluationRequest::new().with_stream(0, 0);
        assert_eq!(request.feed.chunk_records, 1);
        assert_eq!(request.feed.shards, 1);
    }
}
