//! Experiment X4 — operating-point selection (§3.3): "Distributed systems
//! … should put emphasis on reducing the false negative ratio to the
//! lowest possible level accepting an increased false positive alert ratio
//! in the process."

use idse_bench::{cli, outln, table};
use idse_eval::experiments::{
    operating_point_experiment, operating_point_feed_config, operating_point_plan,
    OperatingPointReport,
};
use idse_eval::{record_rows, Provenance, SensitivityPolicy};
use idse_ids::products::{IdsProduct, ProductId};

const USAGE: &str = "usage: exp_operating_point [--seed N] [--jobs N] [--json PATH] [--out PATH]\n\
                     \x20                          [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store = cli::store_spec(&mut args);
    let common = args.finish();
    let mut out = cli::Out::new(&common);
    let seed = common.seed_or(0x0b35);
    let exec = common.executor();

    outln!(out, "=== Experiment X4: EER vs low-FN operating points on the cluster feed ===\n");
    let mut reports = Vec::new();
    for id in [ProductId::FlowHunter, ProductId::GuardSecure, ProductId::AgentWatch] {
        let report = operating_point_experiment(&IdsProduct::model(id), 0.2, seed, &exec);
        outln!(out, "--- {} ---", report.product);
        let rows: Vec<Vec<String>> = report
            .curve
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.sensitivity),
                    format!("{:.4}", p.false_positive_ratio),
                    format!("{:.4}", p.false_negative_ratio),
                ]
            })
            .collect();
        outln!(out, "{}", table(&["Sensitivity", "FP ratio", "FN ratio"], &rows));
        match report.eer_point {
            Some((s, r)) => outln!(out, "  EER point: rate {:.4} at sensitivity {:.2}", r, s),
            None => outln!(out, "  EER point: no crossing in range"),
        }
        match report.low_fn_point {
            Some(p) => outln!(
                out,
                "  §3.3 low-FN point (FP budget 0.20): sensitivity {:.2}, FP {:.4}, FN {:.4}",
                p.sensitivity,
                p.false_positive_ratio,
                p.false_negative_ratio
            ),
            None => outln!(out, "  §3.3 low-FN point: no setting within the FP budget"),
        }
        outln!(
            out,
            "  trust-exploit detection: at EER {:?}, at low-FN point {:?}\n",
            report.trust_detection_at_eer,
            report.trust_detection_at_low_fn
        );
        reports.push(report);
    }
    outln!(out, "The hardest case — trust exploitation between cluster hosts — is exactly what");
    outln!(out, "the higher-sensitivity operating point buys: \"it is critical to catch the");
    outln!(out, "initial compromise of the first component host and isolate it\" (§3.3).");
    out.finish();

    if common.json.is_some() {
        common.write_json(&serde_json::json!({ "seed": seed, "reports": reports }));
    }

    if let Some(spec) = &store {
        let provenance = Provenance::new(
            &operating_point_feed_config(seed),
            SensitivityPolicy::budgeted(&operating_point_plan(0.2)),
        );
        let cells = reports.iter().flat_map(OperatingPointReport::cells);
        let result = record_rows(spec, "operating-point", provenance, None, cells);
        cli::report_store_result(spec, result);
    }
}
