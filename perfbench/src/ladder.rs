//! The traced run: the per-layer ladder, timed from outside.
//!
//! No timer lives inside the program. The ladder calls each layer's public
//! functions on the workload's own generated inputs and times the calls:
//!
//! 1. the job's entry point once serially (`jobs = 1`), untraced;
//! 2. the traced job: the same work replayed serially, one timed public
//!    call per layer boundary (sweep / operating run / throughput search
//!    per product for batch jobs; training clone, deployment, chunk
//!    generation, ledger and pipeline per `(product, shard)` for streams).
//!    The top-level calls must cover its wall (`trace.unattributed_share`)
//!    and its wall must match step 1's (`trace.overhead_share`);
//! 3. the entry point again at `jobs = nproc`, for CPU time and parallel
//!    efficiency;
//! 4. per-record probes of each layer on a sample of the same records.
//!
//! Every per-layer metric is measured on every workload. Where a workload's
//! job does not use a layer (no sweep or throughput search in a stream
//! job), the probe runs the layer's public function on a feed assembled
//! from that workload's own records; `NOTES.md` marks those figures.

use std::collections::BTreeMap;
use std::time::Instant;

use idse_eval::feeds::TestFeed;
use idse_eval::streaming::ShardFeed;
use idse_eval::sweep::{sweep, ErrorCurve, SweepPlan};
use idse_eval::throughput::throughput_search;
use idse_eval::{
    record_evaluation, EvaluationRequest, JobSpec, Provenance, StoreSpec, StreamLedger,
    TransactionLedger,
};
use idse_exec::Executor;
use idse_ids::aho::AhoCorasick;
use idse_ids::engine::anomaly::{AnomalyConfig, AnomalyEngine};
use idse_ids::engine::host_agent::{HostAgentConfig, HostAgentEngine};
use idse_ids::engine::signature::{standard_rule_db, SignatureConfig, SignatureEngine};
use idse_ids::engine::DetectionEngine;
use idse_ids::pipeline::{PipelineOutcome, RunConfig};
use idse_ids::{IdsProduct, PipelineRunner, Sensitivity};
use idse_net::trace::{Trace, TraceRecord};
use idse_store::{RunDraft, RunStore};
use idse_traffic::RecordStream;

use crate::gate::{scorecard_hash, Gate, Hashes};
use crate::job::prepare;
use crate::stats::median;
use crate::workloads::{nproc, Workload};

/// Records in a stream workload's probe sample (test, background and
/// training each).
const PROBE_RECORDS: usize = 20_000;
/// A per-record probe repeats until it has pushed this many records.
const PROBE_MIN_RECORDS: usize = 50_000;
/// Largest tiled replay the replay-build probe materialises.
const REPLAY_CAP: usize = 1_000_000;
/// The batch job's throughput-search ceiling (`JobSpec::to_request`).
const SEARCH_CEILING: f64 = 4096.0;
/// Throughput-search ceiling on a stream workload's probe feed (the batch
/// job's ceiling of 4096 would replay millions of records per probe).
const STREAM_PROBE_MAX_FACTOR: f64 = 8.0;

/// Product selector for metric names (`NidSentry`, `GuardSecure`, …).
pub fn product_key(product: &IdsProduct) -> String {
    format!("{:?}", product.id)
}

/// The per-layer metrics a traced run reports, with units, in report
/// order. Per-product metrics are listed for all four products.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("traffic.gen_s".into(), "s"),
        ("traffic.gen_ns_per_record".into(), "ns"),
        ("traffic.records_generated".into(), "count"),
        ("net.trace_clone_s".into(), "s"),
        ("net.replay_build_ns_per_record".into(), "ns"),
    ];
    let products: Vec<String> = IdsProduct::all_models().iter().map(product_key).collect();
    let per_product = |out: &mut Vec<(String, &'static str)>, stem: &str, unit: &'static str| {
        for p in &products {
            out.push((format!("{stem}.{p}"), unit));
        }
    };
    per_product(&mut out, "ids.deploy_s", "s");
    per_product(&mut out, "ids.pipeline_ns_per_record", "ns");
    per_product(&mut out, "ids.overload_ns_per_record", "ns");
    per_product(&mut out, "ids.pipeline_self_ns_per_record", "ns");
    for (name, unit) in [
        ("ids.signature_ns_per_record", "ns"),
        ("ids.aho_mib_per_s", "MiB/s"),
        ("ids.anomaly_ns_per_record", "ns"),
        ("ids.anomaly_train_s", "s"),
        ("ids.host_agent_ns_per_record", "ns"),
    ] {
        out.push((name.into(), unit));
    }
    per_product(&mut out, "eval.sweep_s", "s");
    per_product(&mut out, "eval.operate_s", "s");
    per_product(&mut out, "eval.throughput_search_s", "s");
    for (name, unit) in [
        ("eval.critical_unit_share", "share"),
        ("eval.ledger_ns_per_record", "ns"),
        ("exec.parallel_efficiency", "share"),
        ("exec.cpu_s", "s"),
        ("store.record_s", "s"),
        ("trace.job_wall_s", "s"),
        ("trace.layer_sum_s", "s"),
        ("trace.unattributed_share", "share"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_share", "share"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct LadderReport {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Entry calls whose scorecards were checked.
    pub attempted: u64,
    /// Entry calls whose scorecards failed the gate, and ladder replays
    /// that did not reproduce the job.
    pub failed: u64,
    /// Why each failure failed.
    pub problems: Vec<String>,
}

impl LadderReport {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn check(&mut self, gate: &mut Gate, hashes: &Hashes, what: &str) {
        self.attempted += 1;
        if let Err(e) = gate.check(hashes) {
            self.failed += 1;
            self.problems.push(format!("{what}: {e}"));
        }
    }

    fn problem(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// Seconds spent in `f`, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

/// User + system CPU seconds of this process, all threads.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100 on Linux).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Run the traced ladder for `workload` at `seed`.
pub fn run_ladder(workload: Workload, seed: u64) -> LadderReport {
    ladder(&workload.spec(seed), Gate::new(workload, seed))
}

/// Run the traced ladder for any valid spec, checking its entry calls
/// against `gate`.
pub fn ladder(spec: &JobSpec, mut gate: Gate) -> LadderReport {
    let products = spec.resolve_products().expect("benchmark specs name valid products");
    let mut report = LadderReport::default();
    let scratch = scratch_dir();
    match prepare(spec) {
        (request, Some(feed)) => {
            batch_ladder(&mut report, &mut gate, spec, request, feed, &products, &scratch)
        }
        (request, None) => stream_ladder(
            &mut report,
            &mut gate,
            request,
            &products,
            spec.resolved_sensitivity(),
            &scratch,
        ),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// A fresh directory for the store probe, beside the benchmark binary (so
/// inside the build directory of the checkout).
fn scratch_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let dir = exe
        .parent()
        .expect("the binary lives in a directory")
        .join(format!("perfbench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch_hashes(evals: &[idse_eval::ProductEvaluation]) -> Hashes {
    evals
        .iter()
        .map(|e| {
            let bytes = serde_json::to_string(&e.scorecard).expect("scorecards serialize");
            (e.product.id.name().to_owned(), scorecard_hash(bytes.as_bytes()))
        })
        .collect()
}

fn stream_hashes(evals: &[idse_eval::StreamEvaluation]) -> Hashes {
    evals
        .iter()
        .map(|e| (e.scorecard.product.clone(), scorecard_hash(e.scorecard.to_json().as_bytes())))
        .collect()
}

fn operating_sensitivity(curve: &ErrorCurve, plan: &SweepPlan) -> f64 {
    curve.operating_point(plan).map(|p| p.sensitivity).unwrap_or(0.5)
}

/// The operating-point run the batch harness makes for each product.
fn operate(product: &IdsProduct, feed: &TestFeed, sensitivity: f64) -> PipelineOutcome {
    let config = RunConfig {
        sensitivity: Sensitivity::new(sensitivity),
        monitored_hosts: feed.servers.clone(),
        auto_response: true,
        ..RunConfig::default()
    };
    PipelineRunner::new(product.clone(), config)
        .with_training(feed.training.clone())
        .run(&feed.test)
}

fn batch_ladder(
    report: &mut LadderReport,
    gate: &mut Gate,
    spec: &JobSpec,
    request: EvaluationRequest,
    feed: TestFeed,
    products: &[IdsProduct],
    scratch: &std::path::Path,
) {
    let (profile, _) = spec.site().expect("benchmark specs are valid");
    let (gen_s, _) = timed(|| TestFeed::build(profile, &request.feed));
    let generated = feed.training.len() + feed.background.len() + feed.test.len();
    report.set("traffic.gen_s", gen_s);
    report.set("traffic.gen_ns_per_record", gen_s * 1e9 / generated as f64);
    report.set("traffic.records_generated", generated as f64);

    // 1. The entry point, serially and untraced.
    let serial = request.clone().with_jobs(1);
    let (untraced_wall, serial_evals) = timed(|| serial.evaluate_products(products, &feed));
    report.check(gate, &batch_hashes(&serial_evals), "serial entry call");

    // 2. The traced job: the same work, one public call per layer boundary.
    let replay = Instant::now();
    let mut layer_sum = 0.0;
    let (ledger_s, ledger) = timed(|| TransactionLedger::of(&feed.test));
    layer_sum += ledger_s;
    let mut scoring_s = 0.0;
    let mut longest_search: f64 = 0.0;
    let serial_exec = Executor::serial();
    for (product, eval) in products.iter().zip(&serial_evals) {
        let key = product_key(product);
        let (sweep_s, curve) = timed(|| sweep(product, &feed, &request.sweep, &serial_exec));
        let s = operating_sensitivity(&curve, &request.sweep);
        let (operate_s, outcome) = timed(|| operate(product, &feed, s));
        let (score_s, _) = timed(|| ledger.score(&outcome.alerts));
        let (search_s, throughput) =
            timed(|| throughput_search(product, &feed, request.max_throughput_factor));
        report.set(format!("eval.sweep_s.{key}"), sweep_s);
        report.set(format!("eval.operate_s.{key}"), operate_s);
        report.set(format!("eval.throughput_search_s.{key}"), search_s);
        layer_sum += sweep_s + operate_s + score_s + search_s;
        scoring_s += score_s;
        longest_search = longest_search.max(search_s);
        // The replay must reproduce the job's own numbers bit for bit.
        if s.to_bits() != eval.operating_sensitivity.to_bits()
            || throughput.zero_loss_pps.to_bits() != eval.throughput.zero_loss_pps.to_bits()
        {
            report.problem(format!("{key}: the ladder replay diverged from the entry call"));
        }
    }
    finish_trace(report, replay.elapsed().as_secs_f64(), layer_sum, untraced_wall);
    report.set("eval.ledger_ns_per_record", (ledger_s + scoring_s) * 1e9 / feed.test.len() as f64);
    report.set("eval.critical_unit_share", longest_search / layer_sum);

    // 3. The entry point at full width.
    let parallel = request.clone().with_jobs(nproc());
    let cpu_before = cpu_seconds();
    let (wall, evals) = timed(|| parallel.evaluate_products(products, &feed));
    report.set("exec.cpu_s", cpu_seconds() - cpu_before);
    report.set("exec.parallel_efficiency", layer_sum / (nproc() as f64 * wall));
    report.check(gate, &batch_hashes(&evals), "parallel entry call");
    let (store_s, stored) =
        timed(|| record_evaluation(&StoreSpec::new(scratch), &parallel, &evals));
    if let Err(e) = stored {
        report.problem(format!("store probe: {e}"));
    }
    report.set("store.record_s", store_s);

    // 4. Per-record probes on the job's own feed.
    probes(report, products, &feed, &feed.training);
}

fn stream_ladder(
    report: &mut LadderReport,
    gate: &mut Gate,
    request: EvaluationRequest,
    products: &[IdsProduct],
    sensitivity: f64,
    scratch: &std::path::Path,
) {
    let config = request.feed.clone();
    let profile = TestFeed::realtime_cluster_profile(&config);

    // 1. The entry point, serially and untraced.
    let serial = request.clone().with_jobs(1);
    let (untraced_wall, serial_evals) = timed(|| serial.evaluate_stream(products, sensitivity));
    report.check(gate, &stream_hashes(&serial_evals), "serial entry call");

    // 2. The traced job: `evaluate_stream`'s training collect, then
    //    `run_shard`'s steps for every (product, shard).
    let replay = Instant::now();
    let (training_s, training) = timed(|| {
        RecordStream::new(TestFeed::training_stream(&profile, &config))
            .expect("poisson arrivals always stream")
            .collect_trace()
    });
    let mut gen_s = training_s;
    let mut generated = training.len();
    let (mut clone_s, mut deploy_s, mut ledger_s, mut pipeline_s) = (0.0, 0.0, 0.0, 0.0);
    let mut longest_unit: f64 = 0.0;
    for (product, eval) in products.iter().zip(&serial_evals) {
        let mut product_records = 0u64;
        for shard in 0..config.shards {
            let run_config = RunConfig {
                sensitivity: Sensitivity::new(sensitivity),
                monitored_hosts: TestFeed::server_hosts(&profile),
                auto_response: true,
                ..RunConfig::default()
            };
            let (c, copy) = timed(|| training.clone());
            let runner = PipelineRunner::new(product.clone(), run_config).with_training(copy);
            let (d, mut session) = timed(|| runner.session());
            let (mut g, mut feed) = timed(|| ShardFeed::new(&profile, &config, shard));
            let (mut l, mut p) = (0.0, 0.0);
            let mut ledger = StreamLedger::new();
            loop {
                let (dg, chunk) = timed(|| feed.next());
                g += dg;
                let Some(chunk) = chunk else { break };
                product_records += chunk.len() as u64;
                l += timed(|| ledger.observe_chunk(&chunk)).0;
                p += timed(|| session.push_chunk(chunk)).0;
            }
            p += timed(|| session.finish()).0;
            clone_s += c;
            deploy_s += d;
            gen_s += g;
            ledger_s += l;
            pipeline_s += p;
            longest_unit = longest_unit.max(c + d + g + l + p);
        }
        generated += product_records as usize;
        if product_records != eval.scorecard.records {
            report.problem(format!(
                "{}: the ladder replay generated {product_records} records, the job {}",
                eval.scorecard.product, eval.scorecard.records
            ));
        }
    }
    let layer_sum = gen_s + clone_s + deploy_s + ledger_s + pipeline_s;
    finish_trace(report, replay.elapsed().as_secs_f64(), layer_sum, untraced_wall);
    let streamed = (generated - training.len()) as f64;
    report.set("traffic.gen_s", gen_s);
    report.set("traffic.gen_ns_per_record", gen_s * 1e9 / generated as f64);
    report.set("traffic.records_generated", generated as f64);
    report.set("eval.ledger_ns_per_record", ledger_s * 1e9 / streamed);
    report.set("eval.critical_unit_share", longest_unit / layer_sum);

    // 3. The entry point at full width.
    let parallel = request.clone().with_jobs(nproc());
    let cpu_before = cpu_seconds();
    let (wall, evals) = timed(|| parallel.evaluate_stream(products, sensitivity));
    report.set("exec.cpu_s", cpu_seconds() - cpu_before);
    report.set("exec.parallel_efficiency", layer_sum / (nproc() as f64 * wall));
    report.check(gate, &stream_hashes(&evals), "parallel entry call");
    let (store_s, stored) = timed(|| {
        let mut draft = RunDraft::new("stream", Provenance::for_request(&parallel).to_value());
        for e in &evals {
            let card = &e.scorecard;
            draft.record(&card.product, "measure.fp_ratio", card.false_positive_ratio)?;
            draft.record(&card.product, "measure.fn_ratio", card.false_negative_ratio)?;
            draft.record(&card.product, "measure.detection_rate", card.detection_rate)?;
        }
        RunStore::open(scratch)?.commit(draft)
    });
    if let Err(e) = stored {
        report.problem(format!("store probe: {e}"));
    }
    report.set("store.record_s", store_s);

    // 4. Per-record probes on a feed assembled from the workload's own
    //    records: shard 0's first records, as its first job unit sees them.
    let test = take_trace(ShardFeed::new(&profile, &config, 0).flatten(), PROBE_RECORDS);
    let background = take_trace(
        RecordStream::new(
            TestFeed::background_stream(&profile, &config).with_shard(0, config.shards),
        )
        .expect("poisson arrivals always stream")
        .flatten(),
        PROBE_RECORDS,
    );
    let probe_feed = TestFeed {
        profile: profile.clone(),
        training: take_trace(training.records().iter().cloned(), PROBE_RECORDS),
        background,
        test,
        servers: TestFeed::server_hosts(&profile),
    };
    let plan = SweepPlan::default();
    let serial_exec = Executor::serial();
    let all = IdsProduct::all_models();
    for product in &all {
        let key = product_key(product);
        let (sweep_s, curve) = timed(|| sweep(product, &probe_feed, &plan, &serial_exec));
        let s = operating_sensitivity(&curve, &plan);
        let (operate_s, _) = timed(|| operate(product, &probe_feed, s));
        let (search_s, _) =
            timed(|| throughput_search(product, &probe_feed, STREAM_PROBE_MAX_FACTOR));
        report.set(format!("eval.sweep_s.{key}"), sweep_s);
        report.set(format!("eval.operate_s.{key}"), operate_s);
        report.set(format!("eval.throughput_search_s.{key}"), search_s);
    }
    probes(report, &all, &probe_feed, &training);
}

fn take_trace(records: impl Iterator<Item = TraceRecord>, n: usize) -> Trace {
    let mut trace = Trace::new();
    for r in records.take(n) {
        trace.push(r);
    }
    trace.finish();
    trace
}

/// The traced job's coverage: how much of its wall the top-level layer
/// calls account for, and how it compares with the untraced entry call.
fn finish_trace(report: &mut LadderReport, job_wall: f64, layer_sum: f64, untraced_wall: f64) {
    report.set("trace.job_wall_s", job_wall);
    report.set("trace.layer_sum_s", layer_sum);
    report.set("trace.unattributed_share", 1.0 - layer_sum / job_wall);
    report.set("trace.untraced_wall_s", untraced_wall);
    report.set("trace.overhead_share", job_wall / untraced_wall - 1.0);
}

/// Nanoseconds per record of pushing `records` through a fresh session of
/// `product` (deployment excluded), repeated until enough records ran.
fn pipeline_ns_per_record(
    product: &IdsProduct,
    config: &RunConfig,
    train: &Trace,
    records: &Trace,
) -> f64 {
    let (mut spent, mut pushed) = (0.0, 0usize);
    while pushed < PROBE_MIN_RECORDS.max(records.len()) {
        let mut session = PipelineRunner::new(product.clone(), config.clone())
            .with_training(train.clone())
            .session();
        let t = Instant::now();
        session.push_chunk(records.records().iter().cloned());
        std::hint::black_box(session.finish());
        spent += t.elapsed().as_secs_f64();
        pushed += records.len().max(1);
    }
    spent * 1e9 / pushed as f64
}

/// Nanoseconds per record of `engine` inspecting `records` standalone.
fn engine_ns_per_record(mut engine: impl DetectionEngine, train: &Trace, records: &Trace) -> f64 {
    engine.train(train);
    engine.set_sensitivity(Sensitivity::DEFAULT);
    let (mut spent, mut inspected) = (0.0, 0usize);
    while inspected < PROBE_MIN_RECORDS.max(records.len()) {
        let t = Instant::now();
        for r in records.records() {
            std::hint::black_box(engine.inspect(r.at, &r.packet));
        }
        spent += t.elapsed().as_secs_f64();
        inspected += records.len().max(1);
    }
    spent * 1e9 / inspected as f64
}

/// The engines `product` deploys, inspecting the probe records standalone:
/// the part of its pipeline cost that is not stations, kernel or window.
fn product_engines_ns_per_record(product: &IdsProduct, feed: &TestFeed) -> f64 {
    let engines = &product.engines;
    let mut ns = 0.0;
    if let Some(config) = &engines.signature {
        ns += engine_ns_per_record(
            SignatureEngine::standard(config.clone()),
            &feed.training,
            &feed.test,
        );
    }
    if let Some(config) = &engines.anomaly {
        ns += engine_ns_per_record(AnomalyEngine::new(config.clone()), &feed.training, &feed.test);
    }
    if engines.host_agents {
        let agent = HostAgentEngine::new(HostAgentConfig { monitored: feed.servers.clone() });
        ns += engine_ns_per_record(agent, &feed.training, &feed.test);
    }
    ns
}

/// Per-record probes shared by every workload. `feed` holds the probe
/// records; `full_training` is the workload's whole training trace.
fn probes(
    report: &mut LadderReport,
    products: &[IdsProduct],
    feed: &TestFeed,
    full_training: &Trace,
) {
    // net: the training clone every deployment pays, and the search's
    // tiled replays at its doubling factors.
    let clones: Vec<f64> = (0..3).map(|_| timed(|| full_training.clone()).0).collect();
    report.set("net.trace_clone_s", median(&clones));
    let (mut build_s, mut built) = (0.0, 0usize);
    let mut overload = None;
    let mut factor = 1.0;
    while factor <= SEARCH_CEILING {
        let span = feed.background.span().as_secs_f64() / factor;
        let copies = if span > 0.0 { (1.0 / span).ceil().max(1.0) as u32 } else { 1 };
        if feed.background.len() * copies as usize > REPLAY_CAP {
            break;
        }
        let (s, replay) = timed(|| feed.background.time_scaled(factor).repeated(copies));
        build_s += s;
        built += replay.len();
        overload = Some(replay);
        factor *= 2.0;
    }
    report.set("net.replay_build_ns_per_record", build_s * 1e9 / built as f64);
    let overload = overload.expect("the base replay always fits");

    // ids: deployment on the full training trace, the pipeline at nominal
    // load and at the heaviest replay, and the engines standalone.
    let nominal = RunConfig {
        sensitivity: Sensitivity::DEFAULT,
        monitored_hosts: feed.servers.clone(),
        auto_response: true,
        ..RunConfig::default()
    };
    let load = RunConfig { monitored_hosts: feed.servers.clone(), ..RunConfig::default() };
    for product in products {
        let key = product_key(product);
        let runner = PipelineRunner::new(product.clone(), nominal.clone())
            .with_training(full_training.clone());
        report.set(format!("ids.deploy_s.{key}"), timed(|| runner.session()).0);
        let pipeline = pipeline_ns_per_record(product, &nominal, &feed.training, &feed.test);
        report.set(format!("ids.pipeline_ns_per_record.{key}"), pipeline);
        report.set(
            format!("ids.overload_ns_per_record.{key}"),
            pipeline_ns_per_record(product, &load, &feed.training, &overload),
        );
        report.set(
            format!("ids.pipeline_self_ns_per_record.{key}"),
            pipeline - product_engines_ns_per_record(product, feed),
        );
    }
    report.set(
        "ids.signature_ns_per_record",
        engine_ns_per_record(
            SignatureEngine::standard(SignatureConfig::default()),
            &feed.training,
            &feed.test,
        ),
    );
    report.set(
        "ids.anomaly_ns_per_record",
        engine_ns_per_record(
            AnomalyEngine::new(AnomalyConfig::default()),
            &feed.training,
            &feed.test,
        ),
    );
    let agent = HostAgentEngine::new(HostAgentConfig { monitored: feed.servers.clone() });
    report.set(
        "ids.host_agent_ns_per_record",
        engine_ns_per_record(agent, &feed.training, &feed.test),
    );
    let mut anomaly = AnomalyEngine::new(AnomalyConfig::default());
    report.set("ids.anomaly_train_s", timed(|| anomaly.train(full_training)).0);

    let patterns: Vec<&[u8]> = standard_rule_db().iter().map(|r| r.pattern).collect();
    let automaton = AhoCorasick::new(&patterns);
    let bytes: usize = feed.test.records().iter().map(|r| r.packet.payload.len()).sum();
    let (mut spent, mut scanned) = (0.0, 0usize);
    while scanned < 64 << 20 && spent < 0.5 {
        let t = Instant::now();
        for r in feed.test.records() {
            std::hint::black_box(automaton.matching_patterns(&r.packet.payload));
        }
        spent += t.elapsed().as_secs_f64();
        scanned += bytes.max(1);
    }
    report.set("ids.aho_mib_per_s", scanned as f64 / (1 << 20) as f64 / spent);
}
