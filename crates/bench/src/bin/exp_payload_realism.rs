//! Experiment X2 — payload realism (§4 lesson 1): "a simple flooding of
//! the network … with meaningless data is not sufficient … the data portion
//! of an IP packet should have realistic content."

use idse_bench::{cli, outln, table};
use idse_eval::experiments::{
    payload_content_stats, payload_realism_experiment, payload_realism_feed_config,
    PayloadStatsRow, RealismRow,
};
use idse_eval::{record_rows, Provenance, SensitivityPolicy};
use idse_ids::products::IdsProduct;

const USAGE: &str = "usage: exp_payload_realism [--seed N] [--jobs N] [--json PATH] [--out PATH]\n\
                     \x20                          [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store = cli::store_spec(&mut args);
    let common = args.finish();
    let mut out = cli::Out::new(&common);
    let seed = common.seed_or(0x0b35);
    let exec = common.executor();

    outln!(out, "=== Experiment X2: random-byte flood vs realistic-content load ===\n");

    // First show the content statistics that separate the two loads.
    let stats = payload_content_stats(seed);
    let stats_rows: Vec<Vec<String>> = stats
        .iter()
        .map(|st| {
            vec![
                st.load.clone(),
                format!("{:.2}", st.byte_entropy),
                format!("{:.2}", st.printable_fraction),
                format!("{:.2}", st.realism_score),
            ]
        })
        .collect();
    outln!(
        out,
        "{}",
        table(&["Load", "Byte entropy (bits)", "Printable fraction", "Realism score"], &stats_rows)
    );

    outln!(out, "IDS behaviour under the two loads (same session timing and sizes):\n");
    let products = IdsProduct::all_models();
    let rows = payload_realism_experiment(&products, 0.8, seed, &exec);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.product.clone(),
                format!("{:.2}", r.alerts_per_kpkt_realistic),
                format!("{:.2}", r.alerts_per_kpkt_random),
                format!("{:.0}", r.cost_realistic),
                format!("{:.0}", r.cost_random),
            ]
        })
        .collect();
    outln!(
        out,
        "{}",
        table(
            &[
                "Product",
                "Alerts/kpkt (realistic)",
                "Alerts/kpkt (random)",
                "ops/pkt (realistic)",
                "ops/pkt (random)"
            ],
            &table_rows
        )
    );
    outln!(out, "A payload-inspecting IDS behaves differently under the two loads — the anomaly");
    outln!(out, "product drowns in alarms under the random flood, while the signature products'");
    outln!(out, "content matches vanish. A random flood therefore measures neither correctly.");
    out.finish();

    if common.json.is_some() {
        common.write_json(&serde_json::json!({ "seed": seed, "rows": rows }));
    }

    if let Some(spec) = &store {
        let provenance =
            Provenance::new(&payload_realism_feed_config(seed), SensitivityPolicy::fixed(0.8));
        let cells = stats
            .iter()
            .flat_map(PayloadStatsRow::cells)
            .chain(rows.iter().flat_map(RealismRow::cells));
        let result = record_rows(spec, "payload-realism", provenance, None, cells);
        cli::report_store_result(spec, result);
    }
}
