//! Experiment X1 — host-based monitoring overhead (§2.1): "nominal
//! event-logging … three to five percent"; "C2-level … as much as twenty
//! percent of the host's processing power".

use idse_bench::{cli, outln, table};
use idse_eval::host_overhead::{host_overhead_experiment, OverheadRow};
use idse_eval::{record_rows, FeedConfig, Provenance, SensitivityPolicy};
use idse_sim::SimDuration;

const USAGE: &str = "usage: exp_host_overhead [--seed N] [--out PATH]\n\
                     \x20                        [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store = cli::store_spec(&mut args);
    let common = args.finish();
    common.deny_json("exp_host_overhead");
    let mut out = cli::Out::new(&common);
    let seed = common.seed_or(0x0b35);

    outln!(out, "=== Experiment X1: host audit/monitoring overhead (§2.1) ===\n");
    let mut all_rows = Vec::new();
    for load in [0.3, 0.6, 0.95] {
        outln!(out, "--- production load ≈ {:.0}% of host capacity ---", load * 100.0);
        let rows = host_overhead_experiment(load, SimDuration::from_secs(40), 800.0, seed);
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.level.to_owned(),
                    format!("{:.2}%", 100.0 * r.audit_share),
                    format!("{:.2}%", 100.0 * r.with_agent_share),
                    format!("{:.0}", r.production_events_per_sec),
                ]
            })
            .collect();
        outln!(
            out,
            "{}",
            table(
                &["Audit level", "Audit share", "Audit+agent share", "Production events/s"],
                &table_rows
            )
        );
        all_rows.extend(rows);
    }
    outln!(out, "Paper's cited figures: nominal logging 3–5% of host resources; DoD C2-level");
    outln!(out, "(Controlled Access Protection) up to 20% — 'obviously a concern for real-time");
    outln!(out, "systems'. The saturated-host rows reproduce those shares; lighter loads scale");
    outln!(out, "them proportionally.");
    out.finish();

    if let Some(spec) = &store {
        let provenance = Provenance::new(
            &FeedConfig::builder().seed(seed).build(),
            SensitivityPolicy::not_applicable(
                "not applicable (synthetic host load, no detection sweep)",
            ),
        );
        let cells = all_rows.iter().flat_map(OverheadRow::cells);
        cli::report_store_result(spec, record_rows(spec, "host-overhead", provenance, None, cells));
    }
}
