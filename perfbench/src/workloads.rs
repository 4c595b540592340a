//! The three benchmark workloads, each an `idse_eval::JobSpec`.
//!
//! A workload is a spec template; the seed is the only input the
//! benchmark varies, and the program receives nothing but the spec the
//! template produces for that seed.

use idse_eval::{JobSpec, STANDARD_SEED};

/// The seed used when `--seed` is not given: the methodology's canned seed.
pub const DEFAULT_SEED: u64 = STANDARD_SEED;

/// A second seed with recorded reference scorecards, for checking a claim
/// on inputs its change was not developed against.
pub const CHECK_SEED: u64 = 7;

/// Flow-key shards of `stream-long`. Shard count is part of a streaming
/// scorecard's identity, so it is fixed here (at the reference machine's
/// core count) rather than read from the host.
pub const STREAM_LONG_SHARDS: u32 = 2;

/// Flow-key shards of `stream-train`.
pub const STREAM_TRAIN_SHARDS: u32 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4-product batch scorecard; the throughput searches dominate.
    EvaluateCluster,
    /// 4 products streamed over a long feed; per-record work dominates.
    StreamLong,
    /// FlowHunter over a short feed after a large training window;
    /// per-shard deployment and training dominate.
    StreamTrain,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::EvaluateCluster, Workload::StreamLong, Workload::StreamTrain];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvaluateCluster => "evaluate-cluster",
            Workload::StreamLong => "stream-long",
            Workload::StreamTrain => "stream-train",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job spec for `seed`.
    pub fn spec(self, seed: u64) -> JobSpec {
        match self {
            Workload::EvaluateCluster => JobSpec {
                profile: Some("cluster".to_owned()),
                seed: Some(seed),
                rate: Some(10.0),
                ..JobSpec::evaluate()
            },
            Workload::StreamLong => JobSpec {
                seed: Some(seed),
                rate: Some(500.0),
                transactions: Some(250_000),
                shards: Some(STREAM_LONG_SHARDS),
                ..JobSpec::stream()
            },
            Workload::StreamTrain => JobSpec {
                products: Some(vec!["flow".to_owned()]),
                seed: Some(seed),
                rate: Some(5_000.0),
                transactions: Some(1_000),
                shards: Some(STREAM_TRAIN_SHARDS),
                ..JobSpec::stream()
            },
        }
    }
}

/// Worker count for the timed jobs: every core the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_spec_resolves_and_carries_only_the_seed_it_is_given() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, CHECK_SEED, 12_345] {
                let spec = w.spec(seed);
                let request = spec.to_request().expect("workload specs are valid");
                assert_eq!(request.feed.seed, seed);
                assert_eq!(w.spec(seed), spec, "a spec is a pure function of the seed");
            }
        }
    }
}
