//! Future-work experiment — the human dimension (§4: "expand the scorecard
//! metrics to capture the human dimension of IDS"): operator triage
//! capacity turns the monotone machine detection curve into a humped
//! *effective* detection curve, because "frequent alerts on trivial or
//! normal events … lead to the IDS being ignored by the operators" (§2.2).

use idse_bench::{cli, outln, standard_setup_with, table, STANDARD_SEED};
use idse_eval::operator::{fatigue_sweep, FatigueRow, OperatorModel};
use idse_eval::{record_rows, Provenance};
use idse_ids::products::{IdsProduct, ProductId};

const USAGE: &str = "usage: exp_operator_fatigue [--seed N] [--jobs N] [--out PATH]\n\
                     \x20                           [--store DIR] [--stamp S] [--git-rev REV]";

fn main() {
    let mut args = cli::Args::parse(USAGE);
    let store = cli::store_spec(&mut args);
    let common = args.finish();
    common.deny_json("exp_operator_fatigue");
    let mut out = cli::Out::new(&common);

    outln!(
        out,
        "=== Future work: operator fatigue and the human-constrained operating point ===\n"
    );
    let (feed, request) = standard_setup_with(common.seed_or(STANDARD_SEED), common.jobs);
    let mut all_rows = Vec::new();

    // The 45-second canned feed stands for one watch hour of traffic.
    for operator in [OperatorModel::single_watchstander(), OperatorModel::staffed_floor()] {
        outln!(out, "--- {} — GuardSecure GS-5 ---", operator.name);
        let rows =
            fatigue_sweep(&IdsProduct::model(ProductId::GuardSecure), &feed, operator, 1.0, 7);
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.sensitivity),
                    r.alerts.to_string(),
                    r.triaged.to_string(),
                    format!("{:.2}", r.machine_detection),
                    format!("{:.2}", r.effective_detection),
                ]
            })
            .collect();
        outln!(
            out,
            "{}",
            table(
                &["Sensitivity", "Alerts", "Triaged", "Machine detect", "Effective detect"],
                &table_rows
            )
        );
        let best_machine = rows
            .iter()
            .max_by(|a, b| a.machine_detection.partial_cmp(&b.machine_detection).expect("finite"))
            .expect("rows");
        let best_effective = rows
            .iter()
            .max_by(|a, b| {
                a.effective_detection.partial_cmp(&b.effective_detection).expect("finite")
            })
            .expect("rows");
        outln!(
            out,
            "  machine-optimal sensitivity {:.2} (detect {:.2}); human-constrained optimum {:.2} (effective {:.2})\n",
            best_machine.sensitivity,
            best_machine.machine_detection,
            best_effective.sensitivity,
            best_effective.effective_detection,
        );
        all_rows.extend(rows);
    }
    outln!(out, "When the alert stream exceeds the triage budget, added sensitivity buys");
    outln!(out, "machine detections that no human ever reads. A procurer sizing a watch floor");
    outln!(out, "should weight Observed False Positive Ratio by this capacity — the human");
    outln!(out, "dimension the paper left for future work, as a measurable quantity.");
    out.finish();

    if let Some(spec) = &store {
        let provenance = Provenance::for_request(&request);
        let cells = all_rows.iter().flat_map(FatigueRow::cells);
        let result = record_rows(spec, "operator-fatigue", provenance, None, cells);
        cli::report_store_result(spec, result);
    }
}
