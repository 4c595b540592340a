//! Peak-RSS test for the streaming evaluation's training: `evaluate_stream`
//! must train from the training stream's chunks, never from a materialized
//! training trace. Runs in its own integration-test binary so the
//! process's `VmHWM` reading is not polluted by other tests' allocations.

/// Peak resident set size (`VmHWM`) of this process, in bytes.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().expect("VmHWM is kB-valued");
            return kb * 1024;
        }
    }
    panic!("VmHWM not present in /proc/self/status");
}

#[cfg(target_os = "linux")]
#[test]
fn streamed_training_stays_in_bounded_rss() {
    use idse_eval::feeds::{FeedConfig, TestFeed};
    use idse_eval::EvaluationRequest;
    use idse_ids::products::{IdsProduct, ProductId};
    use idse_net::trace::TraceRecord;
    use idse_sim::SimDuration;
    use idse_traffic::RecordStream;

    const BOUND: u64 = 16 << 20;

    // A long training window in front of a tiny test window: training is
    // the only thing that could grow with the feed.
    let config = FeedConfig::builder()
        .session_rate(2_000.0)
        .training_span(SimDuration::from_secs(20))
        .transactions(200)
        .campaign_intensity(1)
        .seed(0x7e57)
        .build();
    let product = IdsProduct::model(ProductId::FlowHunter);
    let eval = EvaluationRequest::new()
        .with_feed(config.clone())
        .with_jobs(1)
        .evaluate_stream(std::slice::from_ref(&product), 0.6)
        .pop()
        .expect("one product in, one evaluation out");
    let peak = peak_rss_bytes();

    // A lower bound on what the materialized training trace would hold:
    // each record's inline size plus its payload bytes.
    let profile = TestFeed::realtime_cluster_profile(&config);
    let stream = RecordStream::new(TestFeed::training_stream(&profile, &config))
        .expect("poisson arrivals always stream");
    let (mut records, mut materialized) = (0u64, 0u64);
    for r in stream.flatten() {
        records += 1;
        materialized += (std::mem::size_of::<TraceRecord>() + r.packet.payload.len()) as u64;
    }
    assert!(
        materialized >= 2 * BOUND,
        "the training window ({records} records, ≥ {} MiB materialized) must exceed the bound \
         at least twice over",
        materialized >> 20
    );
    assert!(eval.scorecard.records > 0, "the test window still ran");
    assert!(
        peak < BOUND,
        "peak RSS {} MiB exceeds the {} MiB bound while training on {records} streamed records",
        peak >> 20,
        BOUND >> 20
    );
}
