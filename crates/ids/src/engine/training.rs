//! Train once, share frozen models.
//!
//! Every engine splits into an immutable trained model, shared by `Arc`,
//! and a small per-run state (sensitivity, windowed counters, cooldowns,
//! reassemblers). An evaluation trains each model once per job and hands
//! every deployment — each sensor, shard, sweep point and throughput probe
//! — a fresh per-run state over the same models.
//!
//! A [`Trainer`] observes known-benign records in time-ordered chunks: a
//! materialized `Trace` is one chunk, a `RecordStream` many, and both
//! produce the same [`TrainedModels`].

use crate::engine::anomaly::{AnomalyModel, AnomalyTrainer};
use crate::engine::host_agent::HostAgentModel;
use crate::products::IdsProduct;
use idse_net::trace::{Trace, TraceRecord};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The trained models a set of deployments shares. A kind no product
/// deploys is left untrained (`None`); so is every kind of a runner that
/// was never given training.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainedModels {
    /// The anomaly engine's baselines.
    pub(crate) anomaly: Option<Arc<AnomalyModel>>,
    /// The host agents' login origins, for one monitored-host set.
    pub(crate) host_agent: Option<Arc<HostAgentModel>>,
}

impl TrainedModels {
    /// Train the models `products` deploy, for host agents on `monitored`,
    /// on one materialized known-benign trace.
    pub fn train<'a>(
        products: impl IntoIterator<Item = &'a IdsProduct>,
        monitored: &[Ipv4Addr],
        benign: &Trace,
    ) -> Self {
        let mut trainer = Trainer::for_products(products, monitored);
        trainer.observe(benign.records());
        trainer.finish()
    }
}

/// Learns [`TrainedModels`] from known-benign record chunks.
#[derive(Debug)]
pub struct Trainer {
    anomaly: Option<AnomalyTrainer>,
    host_agent: Option<HostAgentModel>,
}

impl Trainer {
    /// A trainer for exactly the engine kinds some product in `products`
    /// deploys; host agents learn for the `monitored` hosts.
    pub fn for_products<'a>(
        products: impl IntoIterator<Item = &'a IdsProduct>,
        monitored: &[Ipv4Addr],
    ) -> Self {
        let (mut anomaly, mut host_agent) = (false, false);
        for product in products {
            anomaly |= product.engines.anomaly.is_some();
            host_agent |= product.engines.host_agents;
        }
        Self {
            anomaly: anomaly.then(AnomalyTrainer::new),
            host_agent: host_agent.then(|| HostAgentModel::new(monitored)),
        }
    }

    /// Whether any model learns from records. When not, the caller can
    /// skip generating the training feed altogether.
    pub fn needs_records(&self) -> bool {
        self.anomaly.is_some() || self.host_agent.is_some()
    }

    /// Learn from the next chunk of known-benign records.
    pub fn observe(&mut self, records: &[TraceRecord]) {
        if let Some(t) = self.anomaly.as_mut() {
            t.observe(records);
        }
        if let Some(m) = self.host_agent.as_mut() {
            m.observe(records);
        }
    }

    /// Freeze the learned models.
    pub fn finish(self) -> TrainedModels {
        TrainedModels {
            anomaly: self.anomaly.map(|t| Arc::new(t.finish())),
            host_agent: self.host_agent.map(Arc::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::anomaly::{AnomalyConfig, AnomalyEngine};
    use crate::engine::host_agent::{HostAgentConfig, HostAgentEngine};
    use crate::engine::signature::{standard_rule_db, SignatureConfig, SignatureEngine};
    use crate::engine::{Detection, DetectionEngine, Sensitivity};
    use crate::pipeline::{PipelineRunner, RunConfig};
    use crate::products::ProductId;
    use idse_attacks::{Campaign, CampaignConfig};
    use idse_net::frag::OverlapPolicy;
    use idse_sim::SimDuration;
    use idse_traffic::{
        ArrivalProcess, BackgroundGenerator, GeneratorConfig, RecordStream, SiteProfile,
        StreamConfig,
    };

    fn generator(seed: u64, secs: u64) -> GeneratorConfig {
        GeneratorConfig::new(
            SiteProfile::ecommerce_web(),
            ArrivalProcess::Poisson { rate: 25.0 },
            SimDuration::from_secs(secs),
            seed,
        )
    }

    fn benign(seed: u64, secs: u64) -> Trace {
        BackgroundGenerator::new(generator(seed, secs)).generate()
    }

    fn mixed(seed: u64, secs: u64) -> Trace {
        let mut t = benign(seed, secs);
        let cfg = CampaignConfig::new(SimDuration::from_secs(secs), seed ^ 0xa77ac);
        t.merge(Campaign::standard_mix(&SiteProfile::ecommerce_web(), &cfg).generate(&cfg));
        t
    }

    fn servers() -> Vec<Ipv4Addr> {
        let profile = SiteProfile::ecommerce_web();
        (1..=6).map(|i| profile.servers.host(i)).collect()
    }

    /// Every detection `engine` raises over `trace`, tagged with its record.
    fn detections(engine: &mut dyn DetectionEngine, trace: &Trace) -> Vec<(usize, Detection)> {
        let mut out = Vec::new();
        for (i, r) in trace.records().iter().enumerate() {
            out.extend(engine.inspect(r.at, &r.packet).into_iter().map(|d| (i, d)));
        }
        out
    }

    /// A self-trained engine and one over a shared model raise the same
    /// detections in the same order and report the same state.
    fn assert_equivalent(
        own: &mut dyn DetectionEngine,
        shared: &mut dyn DetectionEngine,
        trace: &Trace,
        s: f64,
    ) -> usize {
        own.set_sensitivity(Sensitivity::new(s));
        shared.set_sensitivity(Sensitivity::new(s));
        let (a, b) = (detections(own, trace), detections(shared, trace));
        assert_eq!(a, b, "{} at sensitivity {s}", own.name());
        assert_eq!(own.state_bytes(), shared.state_bytes(), "{} at {s}", own.name());
        a.len()
    }

    #[test]
    fn shared_models_detect_exactly_like_self_trained_engines() {
        let (training, test) = (benign(1, 20), mixed(3, 30));
        let hosts = servers();
        let models = TrainedModels::train(&IdsProduct::all_models(), &hosts, &training);
        let signature =
            SignatureConfig { reassembly: Some(OverlapPolicy::LastWins), preprocessors: true };
        let mut fired = [0usize; 3];
        for s in [0.2, 0.5, 0.9] {
            fired[0] += assert_equivalent(
                &mut SignatureEngine::new(standard_rule_db(), signature.clone()),
                &mut SignatureEngine::standard(signature.clone()),
                &test,
                s,
            );

            let mut own = AnomalyEngine::new(AnomalyConfig::default());
            own.train(&training);
            let model = models.anomaly.clone().expect("FlowHunter deploys the anomaly engine");
            fired[1] += assert_equivalent(
                &mut own,
                &mut AnomalyEngine::with_model(AnomalyConfig::default(), model),
                &test,
                s,
            );

            let config = HostAgentConfig { monitored: hosts.clone() };
            let mut own = HostAgentEngine::new(config.clone());
            own.train(&training);
            let model = models.host_agent.clone().expect("AgentWatch deploys host agents");
            fired[2] += assert_equivalent(
                &mut own,
                &mut HostAgentEngine::with_model(config, model).expect("same monitored set"),
                &test,
                s,
            );
        }
        assert!(fired.iter().all(|&n| n > 0), "every engine must detect something: {fired:?}");
    }

    #[test]
    fn engines_sharing_a_model_keep_independent_run_state() {
        let (training, test) = (benign(1, 20), mixed(3, 30));
        let model = Arc::new(AnomalyModel::train(&training));
        let standalone = |s: f64| {
            let mut e = AnomalyEngine::new(AnomalyConfig::default());
            e.train(&training);
            e.set_sensitivity(Sensitivity::new(s));
            detections(&mut e, &test)
        };
        // Two sensors over one model at different sensitivities, fed
        // interleaved: each must behave as if it were alone.
        let mut a = AnomalyEngine::with_model(AnomalyConfig::default(), Arc::clone(&model));
        let mut b = AnomalyEngine::with_model(AnomalyConfig::default(), Arc::clone(&model));
        a.set_sensitivity(Sensitivity::new(0.9));
        b.set_sensitivity(Sensitivity::new(0.3));
        let (mut seen_a, mut seen_b) = (Vec::new(), Vec::new());
        for (i, r) in test.records().iter().enumerate() {
            seen_a.extend(a.inspect(r.at, &r.packet).into_iter().map(|d| (i, d)));
            seen_b.extend(b.inspect(r.at, &r.packet).into_iter().map(|d| (i, d)));
        }
        assert_eq!(Arc::strong_count(&model), 3, "both sensors hold the one model");
        assert_ne!(seen_a, seen_b, "the sensitivities must differ observably");
        assert_eq!(seen_a, standalone(0.9));
        assert_eq!(seen_b, standalone(0.3));
    }

    #[test]
    fn streamed_training_matches_training_on_the_collected_trace() {
        let products = IdsProduct::all_models();
        let hosts = servers();
        let config = StreamConfig::new(generator(11, 15));
        let collected = RecordStream::new(config.clone()).expect("poisson").collect_trace();
        let reference = TrainedModels::train(&products, &hosts, &collected);
        assert!(reference.anomaly.is_some() && reference.host_agent.is_some());
        for chunk in [1usize, 97, 4096] {
            let mut trainer = Trainer::for_products(&products, &hosts);
            let stream = RecordStream::new(config.clone().with_chunk_records(chunk));
            for records in stream.expect("poisson") {
                trainer.observe(&records);
            }
            assert_eq!(trainer.finish(), reference, "chunk size {chunk} changed the models");
        }
    }

    #[test]
    fn trainer_learns_only_the_kinds_the_products_deploy() {
        let trainer = Trainer::for_products([&IdsProduct::model(ProductId::NidSentry)], &[]);
        assert!(!trainer.needs_records());
        assert_eq!(trainer.finish(), TrainedModels::default());
        let flow_hunter = IdsProduct::model(ProductId::FlowHunter);
        let models = TrainedModels::train([&flow_hunter], &servers(), &benign(1, 5));
        assert!(models.anomaly.is_some() && models.host_agent.is_none());
    }

    #[test]
    fn host_agent_model_refuses_a_different_monitored_set() {
        let hosts = servers();
        let model = Arc::new(HostAgentModel::train(&hosts, &benign(1, 10)));
        let reordered: Vec<Ipv4Addr> = hosts.iter().rev().copied().collect();
        assert!(HostAgentEngine::with_model(
            HostAgentConfig { monitored: reordered },
            Arc::clone(&model)
        )
        .is_ok());
        let err = HostAgentEngine::with_model(
            HostAgentConfig { monitored: hosts[..3].to_vec() },
            Arc::clone(&model),
        )
        .expect_err("a model trained for six hosts cannot serve three");
        assert_eq!(err.trained_for.len(), 6);
        assert_eq!(err.monitored, hosts[..3].to_vec());
    }

    #[test]
    #[should_panic(expected = "host-agent model trained for the run's monitored hosts")]
    fn runner_never_reuses_a_host_model_for_other_hosts() {
        let product = IdsProduct::model(ProductId::AgentWatch);
        let models = TrainedModels::train([&product], &servers()[..2], &benign(1, 5));
        let config = RunConfig { monitored_hosts: servers(), ..RunConfig::default() };
        let _ = PipelineRunner::new(product, config).with_models(models).session();
    }
}
