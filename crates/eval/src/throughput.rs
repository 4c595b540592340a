//! Throughput searches: zero-loss maximum and lethal dose (Table 3).
//!
//! Both metrics replay *the same canned feed* at increasing time
//! compression — the methodology's answer to "simple flooding … is not
//! sufficient": the load is realistic traffic sped up, not random
//! packets. Zero-loss is the largest offered rate with no unmonitored
//! packets; lethal dose is the offered rate at which a component's
//! failure behavior trips.
//!
//! Every probe streams its replay: the background is rescaled and tiled
//! record by record ([`Trace::tiled`]) into a chunked pipeline session,
//! so a probe holds a chunk plus what is in flight, never the replay. The
//! doubling and bisection probes only need the verdict "loss ≤ 0.1%", so
//! they stop at the first chunk boundary where the session's lower bound
//! on `missed`
//! ([`PipelineSession::missed_lower_bound`](idse_ids::pipeline::PipelineSession::missed_lower_bound))
//! already exceeds 0.1% of the replay's records. The replay length bounds
//! the final `offered` from above, so the early "lossy" verdict is the
//! one the full run would reach, with no assumption that loss grows with
//! the rate. Escalation probes report the loss and the failures at the
//! extreme, so they run to the end.

use crate::feeds::TestFeed;
use idse_exec::{CancelToken, Cancelled};
use idse_ids::pipeline::{PipelineOutcome, PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::TrainedModels;
use idse_net::trace::{Tiles, Trace, TraceRecord};
use idse_traffic::DEFAULT_CHUNK_RECORDS;
use serde::Serialize;
use std::borrow::Borrow;

/// A probe is lossless when at most this share of offered packets goes
/// unmonitored (the paper's "sustained average of zero lost packets" over
/// a finite replay).
const LOSSLESS: f64 = 0.001;

/// Result of the two searches for one product.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Product name.
    pub product: String,
    /// Offered rate at the base (uncompressed) feed, packets/second.
    pub base_pps: f64,
    /// Largest sustained rate with zero unmonitored packets, pps.
    pub zero_loss_pps: f64,
    /// Offered rate at which a component failure tripped, pps
    /// (`None` if no failure occurred within the search ceiling —
    /// "degrades gracefully").
    pub lethal_dose_pps: Option<f64>,
    /// Loss ratio observed at the lethal dose (or at the ceiling).
    pub loss_at_extreme: f64,
    /// Peak simultaneous open TCP connections at the zero-loss rate — the
    /// paper's alternative denomination ("measured in packets/sec or # of
    /// simultaneous TCP streams").
    pub zero_loss_streams: usize,
}

/// Peak simultaneous open TCP connections over a time-ordered run of
/// records (a trace's, or a replay streamed from [`Trace::tiled`]).
pub fn peak_simultaneous_streams(
    records: impl IntoIterator<Item = impl Borrow<TraceRecord>>,
) -> usize {
    let mut tracker = idse_net::tcp::ConnTracker::new();
    let mut peak = 0;
    for rec in records {
        tracker.observe(&rec.borrow().packet);
        peak = peak.max(tracker.open_connections());
    }
    peak
}

/// The load-test replay at `factor`: the realistic *background* (content
/// matters to per-packet cost; attack accuracy is measured elsewhere),
/// compressed by `factor` and tiled to at least one second of sustained
/// load so stage buffers cannot hide the offered rate as a transient.
fn replay(background: &Trace, factor: f64) -> Tiles<'_> {
    let span = background.scaled_span(factor).as_secs_f64();
    let copies = if span > 0.0 { (1.0 / span).ceil().max(1.0) as u32 } else { 1 };
    background.tiled(factor, copies)
}

/// What one probe saw.
enum Probe {
    /// The replay ran to the end.
    Finished(Box<PipelineOutcome>),
    /// A bracket probe stopped once its "lossy" verdict was certain.
    Lossy,
}

impl Probe {
    fn lossless(&self) -> bool {
        matches!(self, Probe::Finished(out) if out.loss_ratio() <= LOSSLESS)
    }
}

/// Stream the replay at `factor` through a fresh deployment. With
/// `stop_when_lossy`, stop at the first chunk boundary where the bound on
/// `missed` settles the verdict as lossy.
fn probe(
    product: &IdsProduct,
    feed: &TestFeed,
    models: &TrainedModels,
    factor: f64,
    stop_when_lossy: bool,
) -> Probe {
    let config = RunConfig { monitored_hosts: feed.servers.clone(), ..RunConfig::default() };
    let runner = PipelineRunner::new(product.clone(), config).with_models(models.clone());
    // idse-lint: allow(transitive-unordered-iteration-in-report, reason = "pipeline-internal membership sets: contains/insert only, order never observed; the probe reads only counters and the loss verdict")
    let mut session = runner.session();
    let mut replay = replay(&feed.background, factor);
    // The final `offered` is at most the replay length, so a `missed`
    // above this share of it is above the tolerance of the final ratio.
    let decisive = LOSSLESS * replay.len() as f64;
    while replay.len() > 0 {
        session.push_chunk(replay.by_ref().take(DEFAULT_CHUNK_RECORDS));
        if stop_when_lossy && session.missed_lower_bound() as f64 > decisive {
            return Probe::Lossy;
        }
    }
    Probe::Finished(Box::new(session.finish()))
}

/// Binary-search the zero-loss maximum and escalate to the lethal dose.
///
/// `max_factor` bounds the search (time compression beyond which we call
/// the product graceful). Tolerance: a run counts as lossless when less
/// than 0.1% of packets go unmonitored (the paper's "sustained average of
/// zero lost packets" over a finite replay).
pub fn throughput_search(
    product: &IdsProduct,
    feed: &TestFeed,
    max_factor: f64,
) -> ThroughputReport {
    throughput_search_with(product, feed, &feed.train([product]), max_factor, &CancelToken::new())
        .expect("a fresh token is never cancelled")
}

/// [`throughput_search`] with every probe deployed over the shared,
/// already-trained `models`. `cancel` is checked before each probe, so a
/// cancelled job stops within one probe, not one search.
pub(crate) fn throughput_search_with(
    product: &IdsProduct,
    feed: &TestFeed,
    models: &TrainedModels,
    max_factor: f64,
    cancel: &CancelToken,
) -> Result<ThroughputReport, Cancelled> {
    let base_pps = feed.background.mean_pps();
    let found = search(max_factor, cancel, |factor, stop_when_lossy| {
        probe(product, feed, models, factor, stop_when_lossy)
    })?;
    let zero_loss_streams =
        peak_simultaneous_streams(feed.background.tiled(found.zero_loss_factor, 1));
    Ok(ThroughputReport {
        product: product.id.name().to_owned(),
        base_pps,
        zero_loss_pps: base_pps * found.zero_loss_factor,
        lethal_dose_pps: found.lethal_factor.map(|f| base_pps * f),
        loss_at_extreme: found.loss_at_extreme,
        zero_loss_streams,
    })
}

/// The searched time-compression factors.
#[derive(Debug, PartialEq)]
struct Found {
    zero_loss_factor: f64,
    lethal_factor: Option<f64>,
    loss_at_extreme: f64,
}

/// The probe schedule: double to bracket the zero-loss factor, bisect the
/// bracket 12 times, then escalate from it until a failure trips.
/// `probe(factor, stop_when_lossy)` runs one replay; bracket probes may
/// stop once lossy, escalation probes may not. `cancel` is read (never
/// burnt) before every probe.
fn search(
    max_factor: f64,
    cancel: &CancelToken,
    mut probe: impl FnMut(f64, bool) -> Probe,
) -> Result<Found, Cancelled> {
    let mut run = |factor: f64, stop_when_lossy: bool| {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        Ok(probe(factor, stop_when_lossy))
    };

    // Establish an upper bracket for zero-loss by doubling.
    let mut lo = 1.0;
    let mut hi = 1.0;
    let mut hi_lossless = run(hi, true)?.lossless();
    while hi_lossless && hi < max_factor {
        lo = hi;
        hi = (hi * 2.0).min(max_factor);
        hi_lossless = run(hi, true)?.lossless();
        if hi >= max_factor {
            break;
        }
    }

    let zero_loss_factor = if hi_lossless {
        hi // lossless all the way to the ceiling
    } else {
        // Bisect [lo, hi].
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            if run(mid, true)?.lossless() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };

    // Lethal dose: escalate from the zero-loss point until failures trip.
    let mut lethal_factor = None;
    let mut loss_at_extreme = 0.0;
    let mut factor = (zero_loss_factor * 1.5).max(2.0);
    while factor <= max_factor {
        let Probe::Finished(out) = run(factor, false)? else {
            unreachable!("a probe that may not stop runs to the end")
        };
        loss_at_extreme = out.loss_ratio();
        if out.failures > 0 {
            lethal_factor = Some(factor);
            break;
        }
        factor *= 1.6;
    }
    Ok(Found { zero_loss_factor, lethal_factor, loss_at_extreme })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feeds::FeedConfig;
    use idse_ids::products::ProductId;
    use idse_sim::SimDuration;

    fn tiny_feed() -> TestFeed {
        TestFeed::ecommerce(
            &FeedConfig::builder()
                .session_rate(10.0)
                .training_span(SimDuration::from_secs(8))
                .test_span(SimDuration::from_secs(15))
                .campaign_intensity(1)
                .seed(3)
                .build(),
        )
    }

    #[test]
    fn zero_loss_at_least_base_rate() {
        let feed = tiny_feed();
        let r = throughput_search(&IdsProduct::model(ProductId::NidSentry), &feed, 64.0);
        assert!(r.zero_loss_pps >= r.base_pps, "{r:?}");
        assert!(r.zero_loss_streams > 0, "TCP sessions must overlap at speed: {r:?}");
    }

    #[test]
    fn stream_peak_counts_overlap() {
        // Compression does not change which connections exist, only how
        // much they overlap: the peak must not fall as the rate rises.
        let feed = tiny_feed();
        let slow = peak_simultaneous_streams(feed.background.records());
        let fast = peak_simultaneous_streams(feed.background.tiled(64.0, 1));
        assert!(fast >= slow, "fast {fast} vs slow {slow}");
    }

    /// The benchmark's cluster site and feed config (`evaluate --profile
    /// cluster --rate 10`).
    fn cluster(seed: u64) -> (idse_traffic::SiteProfile, crate::FeedConfig) {
        let spec = crate::JobSpec {
            profile: Some("cluster".to_owned()),
            seed: Some(seed),
            rate: Some(10.0),
            ..crate::JobSpec::evaluate()
        };
        let (profile, _) = spec.site().expect("valid spec");
        (profile, spec.to_request().expect("valid spec").feed)
    }

    fn cluster_background(seed: u64) -> Trace {
        let (profile, config) = cluster(seed);
        idse_traffic::RecordStream::new(TestFeed::background_stream(&profile, &config))
            .expect("poisson arrivals always stream")
            .collect_trace()
    }

    #[test]
    fn streamed_replay_equals_the_materialised_one() {
        for seed in [537003029, 7] {
            let background = cluster_background(seed);
            for factor in [1.0, 7.5, 64.0, 2478.5, 4096.0] {
                let span = background.time_scaled(factor).span().as_secs_f64();
                let copies = if span > 0.0 { (1.0 / span).ceil().max(1.0) as u32 } else { 1 };
                let materialised = background.time_scaled(factor).repeated(copies);
                let streamed = replay(&background, factor);
                assert_eq!(streamed.len(), materialised.len(), "seed {seed} factor {factor}");
                for (i, (s, m)) in streamed.zip(materialised.records()).enumerate() {
                    let at = format!("seed {seed} factor {factor} record {i}");
                    assert_eq!(s.at, m.at, "{at}");
                    assert_eq!(s.packet.payload, m.packet.payload, "{at}");
                    assert_eq!(s.packet.ip.src, m.packet.ip.src, "{at}");
                    assert_eq!(s.packet.ip.dst, m.packet.ip.dst, "{at}");
                    assert_eq!(s.truth, m.truth, "{at}");
                }
            }
        }
    }

    #[test]
    fn decisive_stop_keeps_every_bracket_verdict() {
        let (profile, config) = cluster(537003029);
        let feed = TestFeed::build(profile, &config);
        for id in [ProductId::NidSentry, ProductId::GuardSecure] {
            let product = IdsProduct::model(id);
            let models = feed.train([&product]);
            let (mut bracket, mut stopped) = (0, 0);
            search(4096.0, &CancelToken::new(), |factor, stop_when_lossy| {
                let seen = probe(&product, &feed, &models, factor, stop_when_lossy);
                if stop_when_lossy {
                    bracket += 1;
                    // A probe that did not stop *is* the full run; one that
                    // stopped must agree with the run it cut short.
                    if matches!(seen, Probe::Lossy) {
                        stopped += 1;
                        let full = probe(&product, &feed, &models, factor, false);
                        assert!(!full.lossless(), "{id:?} at factor {factor}");
                    }
                }
                seen
            })
            .expect("not cancelled");
            assert!(bracket > 12, "{id:?} must double and bisect ({bracket} probes)");
            assert!(stopped > 0, "{id:?}: no bracket probe stopped early");
        }
    }

    #[test]
    fn cancelled_search_runs_no_probe() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = search(1024.0, &cancel, |factor, _| panic!("probe at {factor} ran"));
        assert_eq!(result, Err(Cancelled));
        let feed = tiny_feed();
        let product = IdsProduct::model(ProductId::NidSentry);
        let models = feed.train([&product]);
        let result = throughput_search_with(&product, &feed, &models, 1024.0, &cancel);
        assert!(matches!(result, Err(Cancelled)), "{result:?}");
    }

    #[test]
    fn lethal_dose_exceeds_zero_loss_when_found() {
        let feed = tiny_feed();
        let r = throughput_search(&IdsProduct::model(ProductId::AgentWatch), &feed, 512.0);
        if let Some(lethal) = r.lethal_dose_pps {
            assert!(
                lethal > r.zero_loss_pps,
                "lethal dose {lethal} must exceed zero-loss {}",
                r.zero_loss_pps
            );
        }
    }

    #[test]
    fn products_differ_in_headroom() {
        let feed = tiny_feed();
        let nid = throughput_search(&IdsProduct::model(ProductId::NidSentry), &feed, 1024.0);
        let fh = throughput_search(&IdsProduct::model(ProductId::FlowHunter), &feed, 1024.0);
        assert!(
            fh.zero_loss_pps > nid.zero_loss_pps,
            "the load-balanced 4-sensor product should outrun the single sensor: {fh:?} vs {nid:?}"
        );
    }
}
