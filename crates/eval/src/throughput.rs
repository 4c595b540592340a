//! Throughput searches: zero-loss maximum and lethal dose (Table 3).
//!
//! Both metrics replay *the same canned feed* at increasing time
//! compression — the methodology's answer to "simple flooding … is not
//! sufficient": the load is realistic traffic sped up, not random
//! packets. Zero-loss is the largest offered rate with no unmonitored
//! packets; lethal dose is the offered rate at which a component's
//! failure behavior trips.

use crate::feeds::TestFeed;
use idse_ids::pipeline::{PipelineOutcome, PipelineRunner, RunConfig};
use idse_ids::products::IdsProduct;
use idse_ids::TrainedModels;
use serde::Serialize;

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

/// Peak simultaneous open TCP connections over a trace.
pub fn peak_simultaneous_streams(trace: &idse_net::trace::Trace) -> usize {
    let mut tracker = idse_net::tcp::ConnTracker::new();
    let mut peak = 0;
    for rec in trace.records() {
        tracker.observe(&rec.packet);
        peak = peak.max(tracker.open_connections());
    }
    peak
}

fn run_at(
    product: &IdsProduct,
    feed: &TestFeed,
    models: &TrainedModels,
    factor: f64,
) -> PipelineOutcome {
    // Load tests replay the realistic *background* (content matters to
    // per-packet cost); attack accuracy is measured elsewhere. The scaled
    // trace is tiled to at least one second of sustained load so stage
    // buffers cannot hide the offered rate as a transient.
    let scaled = feed.background.time_scaled(factor);
    let span = scaled.span().as_secs_f64();
    let copies = if span > 0.0 { (1.0 / span).ceil().max(1.0) as u32 } else { 1 };
    let test = scaled.repeated(copies);
    let config = RunConfig { monitored_hosts: feed.servers.clone(), ..RunConfig::default() };
    PipelineRunner::new(product.clone(), config).with_models(models.clone()).run(&test)
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
    throughput_search_with(product, feed, &feed.train([product]), max_factor)
}

/// [`throughput_search`] with every probe deployed over the shared,
/// already-trained `models`.
pub(crate) fn throughput_search_with(
    product: &IdsProduct,
    feed: &TestFeed,
    models: &TrainedModels,
    max_factor: f64,
) -> ThroughputReport {
    let base_pps = feed.background.mean_pps();
    const LOSSLESS: f64 = 0.001;

    // Establish an upper bracket for zero-loss by doubling.
    let mut lo = 1.0;
    let mut hi = 1.0;
    let mut hi_outcome = run_at(product, feed, models, hi);
    while hi_outcome.loss_ratio() <= LOSSLESS && hi < max_factor {
        lo = hi;
        hi = (hi * 2.0).min(max_factor);
        hi_outcome = run_at(product, feed, models, hi);
        if hi >= max_factor {
            break;
        }
    }

    let zero_loss_factor = if hi_outcome.loss_ratio() <= LOSSLESS {
        hi // lossless all the way to the ceiling
    } else {
        // Bisect [lo, hi].
        for _ in 0..12 {
            let mid = 0.5 * (lo + hi);
            let out = run_at(product, feed, models, mid);
            if out.loss_ratio() <= LOSSLESS {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };

    // Lethal dose: escalate from the zero-loss point until failures trip.
    let mut lethal = None;
    let mut loss_at_extreme = 0.0;
    let mut factor = (zero_loss_factor * 1.5).max(2.0);
    while factor <= max_factor {
        let out = run_at(product, feed, models, factor);
        loss_at_extreme = out.loss_ratio();
        if out.failures > 0 {
            lethal = Some(factor);
            break;
        }
        factor *= 1.6;
    }

    let zero_loss_streams =
        peak_simultaneous_streams(&feed.background.time_scaled(zero_loss_factor));

    ThroughputReport {
        product: product.id.name().to_owned(),
        base_pps,
        zero_loss_pps: base_pps * zero_loss_factor,
        lethal_dose_pps: lethal.map(|f| base_pps * f),
        loss_at_extreme,
        zero_loss_streams,
    }
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
        let slow = peak_simultaneous_streams(&feed.background);
        let fast = peak_simultaneous_streams(&feed.background.time_scaled(64.0));
        assert!(fast >= slow, "fast {fast} vs slow {slow}");
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
