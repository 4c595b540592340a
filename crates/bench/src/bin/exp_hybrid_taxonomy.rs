//! §2.1 taxonomy ablation — "An IDS may be categorized by its detection
//! mechanism: anomaly-based, signature-based, or hybrid. … many of the
//! research endeavors have implemented a hybrid design."
//!
//! Same architecture (the distributed 4-sensor deployment), three engine
//! suites: signature-only, anomaly-only, and the parallel hybrid. The
//! hybrid unions the detection coverage and pays for it in per-packet
//! inspection cost — measurably lower zero-loss throughput.
//!
//! With `--store DIR` the three mechanism rows are committed to the
//! provenance-keyed run store, one product key per mechanism, so
//! `store history measure.zero_loss_pps --product "hybrid (parallel)"`
//! tracks the hybrid's inspection cost across commits.

use idse_bench::{cli, outln, standard_setup_with, table, STANDARD_SEED};
use idse_eval::confusion::TransactionLedger;
use idse_eval::experiments::HybridTaxonomyRow;
use idse_eval::throughput::throughput_search;
use idse_eval::{record_rows, Provenance, SensitivityPolicy};
use idse_ids::engine::anomaly::AnomalyConfig;
use idse_ids::engine::signature::SignatureConfig;
use idse_ids::pipeline::{PipelineRunner, RunConfig};
use idse_ids::products::{EngineSuite, IdsProduct, ProductId};
use idse_ids::Sensitivity;
use idse_net::trace::AttackClass;

fn variant(engines: EngineSuite) -> IdsProduct {
    let mut p = IdsProduct::model(ProductId::FlowHunter);
    p.engines = engines;
    p
}

const USAGE: &str = "usage: exp_hybrid_taxonomy [--seed N] [--jobs N] [--out PATH]\n\
                     \x20                          [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store = cli::store_spec(&mut args);
    let common = args.finish();
    common.deny_json("exp_hybrid_taxonomy");
    let mut out = cli::Out::new(&common);

    outln!(out, "=== §2.1 taxonomy: signature vs anomaly vs parallel hybrid ===\n");
    outln!(out, "Identical architecture (4 load-balanced sensors); only the detection");
    outln!(out, "mechanism differs. Sensitivity 0.8, cluster feed.\n");
    let (feed, request) = standard_setup_with(common.seed_or(STANDARD_SEED), common.jobs);
    let ledger = TransactionLedger::of(&feed.test);

    let suites = [
        (
            "signature-only",
            EngineSuite {
                signature: Some(SignatureConfig::default()),
                anomaly: None,
                host_agents: false,
            },
        ),
        (
            "anomaly-only",
            EngineSuite {
                signature: None,
                anomaly: Some(AnomalyConfig::default()),
                host_agents: false,
            },
        ),
        (
            "hybrid (parallel)",
            EngineSuite {
                signature: Some(SignatureConfig::default()),
                anomaly: Some(AnomalyConfig::default()),
                host_agents: false,
            },
        ),
    ];

    let variants: Vec<IdsProduct> = suites.iter().map(|(_, e)| variant(e.clone())).collect();
    let models = feed.train(&variants);
    let exec = request.executor();
    let probes = exec.par_map(&suites, |_, (_, engines)| {
        let product = variant(engines.clone());
        let out = PipelineRunner::new(
            product.clone(),
            RunConfig {
                sensitivity: Sensitivity::new(0.8),
                monitored_hosts: feed.servers.clone(),
                ..RunConfig::default()
            },
        )
        .with_models(models.clone())
        .run(&feed.test);
        let c = ledger.score(&out.alerts);
        let tp = throughput_search(&product, &feed, request.max_throughput_factor);
        (c, tp)
    });

    let mechanisms: Vec<HybridTaxonomyRow> = suites
        .iter()
        .zip(&probes)
        .map(|((label, _), (c, tp))| HybridTaxonomyRow {
            mechanism: (*label).to_owned(),
            sensitivity: 0.8,
            detection_rate: c.detection_rate(),
            fp_ratio: c.false_positive_ratio(),
            zero_loss_pps: tp.zero_loss_pps,
            alerts: c.alert_count,
        })
        .collect();
    let rows: Vec<Vec<String>> = mechanisms
        .iter()
        .map(|m| {
            vec![
                m.mechanism.clone(),
                format!("{:.2}", m.detection_rate),
                format!("{:.4}", m.fp_ratio),
                format!("{:.0}", m.zero_loss_pps),
                m.alerts.to_string(),
            ]
        })
        .collect();
    let mut class_rows: Vec<Vec<String>> =
        AttackClass::ALL.iter().map(|c| vec![c.name().to_owned()]).collect();
    for (c, _) in &probes {
        for (row, class) in class_rows.iter_mut().zip(AttackClass::ALL.iter()) {
            row.push(match c.class_detection_rate(*class) {
                Some(r) => format!("{r:.2}"),
                None => "-".into(),
            });
        }
    }

    outln!(
        out,
        "{}",
        table(&["Mechanism", "Detection", "FP ratio", "Zero-loss pps", "Alerts"], &rows)
    );
    outln!(out, "Per-class detection rates:\n");
    outln!(out, "{}", table(&["Class", "signature", "anomaly", "hybrid"], &class_rows));
    outln!(out, "The hybrid unions the two coverage sets (the signature engine's known");
    outln!(out, "exploits + the anomaly engine's behavioral classes) and inherits both");
    outln!(out, "false-positive sources, while its per-packet cost — both engines run on");
    outln!(out, "every packet — buys the lowest zero-loss throughput of the three.");
    out.finish();

    if let Some(spec) = &store {
        let provenance = Provenance::new(&request.feed, SensitivityPolicy::fixed(0.8));
        let cells = mechanisms.iter().flat_map(HybridTaxonomyRow::cells);
        let result = record_rows(spec, "hybrid-taxonomy", provenance, None, cells);
        cli::report_store_result(spec, result);
    }
}
