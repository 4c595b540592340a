//! The output gate: every timed job's scorecards must be the right bytes.
//!
//! Each product's scorecard JSON (`ProductEvaluation::scorecard` through
//! serde, `StreamScorecard::to_json` for streams) is hashed with the run
//! store's FNV-1a. For the seeds in `references.json` the hashes must equal
//! the recorded ones; for any other seed the first job of the run sets the
//! reference and every later job must reproduce it byte for byte. A
//! mismatch, a missing product or a job that died counts as a failed run.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::workloads::Workload;

/// Product name → scorecard hash (16 hex digits).
pub type Hashes = BTreeMap<String, String>;

const REFERENCES: &str = include_str!("../references.json");

/// Hash one scorecard's bytes.
pub fn scorecard_hash(bytes: &[u8]) -> String {
    format!("{:016x}", idse_store::fnv64(bytes))
}

/// The recorded hashes for `workload` at `seed`, if any.
fn recorded(workload: Workload, seed: u64) -> Option<Hashes> {
    let all: Value = serde_json::from_str(REFERENCES).expect("references.json is valid JSON");
    let per_seed = all.get(workload.name())?.get(seed.to_string().as_str())?;
    let Value::Object(pairs) = per_seed else { return None };
    Some(pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned()))).collect())
}

/// The gate for one benchmark run.
#[derive(Debug)]
pub struct Gate {
    products: Vec<String>,
    reference: Option<Hashes>,
    recorded: bool,
}

impl Gate {
    /// The gate for `workload` at `seed`: recorded hashes when the seed has
    /// them, otherwise whatever the run's first job produces.
    pub fn new(workload: Workload, seed: u64) -> Gate {
        let products = workload
            .spec(seed)
            .resolve_products()
            .expect("workload specs name valid products")
            .iter()
            .map(|p| p.id.name().to_owned())
            .collect();
        let reference = recorded(workload, seed);
        Gate { products, recorded: reference.is_some(), reference }
    }

    /// A gate for `products` that the first checked job sets.
    pub fn first_job(products: Vec<String>) -> Gate {
        Gate { products, reference: None, recorded: false }
    }

    /// Whether the reference came from `references.json`.
    pub fn is_recorded(&self) -> bool {
        self.recorded
    }

    /// Check one job's hashes.
    pub fn check(&mut self, observed: &Hashes) -> Result<(), String> {
        let names: Vec<&String> = observed.keys().collect();
        let mut expected: Vec<&String> = self.products.iter().collect();
        expected.sort();
        if names != expected {
            return Err(format!("scorecards for {names:?}, expected {expected:?}"));
        }
        match &self.reference {
            None => {
                self.reference = Some(observed.clone());
                Ok(())
            }
            Some(reference) => {
                for (product, hash) in observed {
                    let want = reference.get(product).map(String::as_str).unwrap_or("none");
                    if want != hash {
                        return Err(format!("{product} scorecard hash {hash}, expected {want}"));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idse_eval::StreamScorecard;

    fn card() -> StreamScorecard {
        StreamScorecard {
            product: "FlowHunter FH-1".to_owned(),
            seed: 7,
            shards: 4,
            records: 19_136,
            transactions: 1_000,
            actual_attacks: 12,
            detected_attacks: 9,
            false_positives: 3,
            missed_attacks: 3,
            false_positive_ratio: 0.003,
            false_negative_ratio: 0.003,
            detection_rate: 0.75,
            alerts: 40,
            offered: 19_136,
            monitored: 19_136,
            lost: 0,
            blocked_attack: 0,
            blocked_benign: 0,
            finished_at_ns: 1_000_000,
            per_class: BTreeMap::new(),
        }
    }

    fn hashes_of(card: &StreamScorecard) -> Hashes {
        [(card.product.clone(), scorecard_hash(card.to_json().as_bytes()))].into()
    }

    #[test]
    fn gate_accepts_the_reference_and_rejects_a_perturbed_scorecard() {
        let mut gate = Gate::first_job(vec!["FlowHunter FH-1".to_owned()]);
        assert!(gate.check(&hashes_of(&card())).is_ok(), "the first job sets the reference");
        assert!(gate.check(&hashes_of(&card())).is_ok());

        let mut perturbed = card();
        perturbed.false_positives += 1;
        assert!(gate.check(&hashes_of(&perturbed)).is_err());

        let mut nudged = card();
        nudged.detection_rate = f64::from_bits(nudged.detection_rate.to_bits() + 1);
        assert!(gate.check(&hashes_of(&nudged)).is_err(), "one ulp must show");
    }

    #[test]
    fn gate_rejects_a_missing_or_extra_product() {
        let mut gate = Gate::first_job(vec!["FlowHunter FH-1".to_owned()]);
        assert!(gate.check(&Hashes::new()).is_err());
        let mut extra = hashes_of(&card());
        extra.insert("NidSentry".to_owned(), "0".repeat(16));
        assert!(gate.check(&extra).is_err());
    }

    #[test]
    fn an_unrecorded_seed_is_held_to_its_first_job() {
        let mut gate = Gate::new(Workload::StreamTrain, 424_242);
        assert!(!gate.is_recorded());
        assert!(gate.check(&hashes_of(&card())).is_ok(), "first job sets the reference");
        assert!(gate.check(&hashes_of(&card())).is_ok());
        let mut perturbed = card();
        perturbed.alerts += 1;
        assert!(gate.check(&hashes_of(&perturbed)).is_err());
    }

    #[test]
    fn both_documented_seeds_have_references_for_every_workload() {
        use crate::workloads::{CHECK_SEED, DEFAULT_SEED};
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, CHECK_SEED] {
                let gate = Gate::new(w, seed);
                assert!(gate.is_recorded(), "{} seed {seed} has no reference", w.name());
                let reference = gate.reference.as_ref().expect("recorded");
                assert_eq!(reference.len(), gate.products.len(), "{}", w.name());
            }
        }
    }
}
