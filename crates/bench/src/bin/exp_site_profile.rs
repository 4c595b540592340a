//! Experiment X3 — site-profile mismatch (§4 lesson): "Commercial IDSs
//! will often be geared toward [e-commerce traffic] and not perform well
//! in the [high-trust cluster] situation. The best way to evaluate any IDS
//! is to use real traffic … from the site where the IDS is expected to be
//! deployed."

use idse_bench::{cli, outln, table};
use idse_eval::experiments::{site_profile_experiment, site_profile_feed_config, SiteProfileRow};
use idse_eval::{record_rows, Provenance, SensitivityPolicy};
use idse_ids::products::IdsProduct;

const USAGE: &str = "usage: exp_site_profile [--seed N] [--jobs N] [--json PATH] [--out PATH]\n\
                     \x20                       [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store = cli::store_spec(&mut args);
    let common = args.finish();
    let mut out = cli::Out::new(&common);
    let seed = common.seed_or(0x0b35);
    let exec = common.executor();

    outln!(out, "=== Experiment X3: e-commerce-tuned IDS on cluster traffic ===\n");
    outln!(out, "Both runs replay the SAME real-time cluster test feed; only the");
    outln!(out, "training/tuning traffic differs (matched = cluster, mismatched = e-commerce).\n");

    let products = IdsProduct::all_models();
    let rows = site_profile_experiment(&products, 0.7, seed, &exec);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.product.clone(),
                format!("{:.4}", r.fp_matched),
                format!("{:.4}", r.fp_mismatched),
                format!("{:.2}", r.detection_matched),
                format!("{:.2}", r.detection_mismatched),
            ]
        })
        .collect();
    outln!(
        out,
        "{}",
        table(
            &[
                "Product",
                "FP (matched)",
                "FP (mismatched)",
                "Detect (matched)",
                "Detect (mismatched)"
            ],
            &table_rows
        )
    );
    outln!(out, "Behavior-based products trained on web traffic misread the cluster's binary,");
    outln!(out, "high-trust protocols as anomalous — the false-positive column moves exactly as");
    outln!(out, "the paper's lesson predicts. Signature products barely move: their knowledge");
    outln!(out, "base, not a baseline, decides what fires.");
    out.finish();

    if common.json.is_some() {
        common.write_json(&serde_json::json!({ "seed": seed, "rows": rows }));
    }

    if let Some(spec) = &store {
        let provenance =
            Provenance::new(&site_profile_feed_config(seed), SensitivityPolicy::fixed(0.7));
        let cells = rows.iter().flat_map(SiteProfileRow::cells);
        cli::report_store_result(spec, record_rows(spec, "site-profile", provenance, None, cells));
    }
}
