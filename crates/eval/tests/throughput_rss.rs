//! Peak-RSS test for the throughput search: every probe must stream its
//! replay — the background rescaled and tiled record by record into a
//! chunked session — never materialise `time_scaled(f).repeated(copies)`.
//! Runs in its own integration-test binary so the process's `VmHWM`
//! reading is not polluted by other tests' allocations.

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
fn throughput_search_streams_its_replays_in_bounded_rss() {
    use idse_eval::feeds::TestFeed;
    use idse_eval::throughput::throughput_search;
    use idse_eval::JobSpec;
    use idse_ids::products::{IdsProduct, ProductId};
    use idse_net::trace::TraceRecord;

    const LIMIT: u64 = 12 << 20;
    const MAX_FACTOR: f64 = 4096.0;

    // The benchmark's cluster feed; FlowHunter has the most headroom, so
    // its search replays at the highest compression.
    let spec = JobSpec {
        profile: Some("cluster".to_owned()),
        seed: Some(537003029),
        rate: Some(10.0),
        ..JobSpec::evaluate()
    };
    let request = spec.to_request().expect("valid spec");
    let (profile, _) = spec.site().expect("valid spec");
    let feed = TestFeed::build(profile, &request.feed);
    let product = IdsProduct::model(ProductId::FlowHunter);
    let report = throughput_search(&product, &feed, MAX_FACTOR);
    let peak = peak_rss_bytes();

    // The search ran a replay at least as compressed as its lethal dose
    // (or, with none, its zero-loss rate). A lower bound on what that
    // replay would hold materialised: its records' inline size alone.
    let largest = report.lethal_dose_pps.unwrap_or(report.zero_loss_pps) / report.base_pps;
    let span = feed.background.scaled_span(largest).as_secs_f64();
    let copies = (1.0 / span).ceil().max(1.0) as u64;
    let records = feed.background.len() as u64 * copies;
    let materialised = records * std::mem::size_of::<TraceRecord>() as u64;
    assert!(
        materialised >= 2 * LIMIT,
        "the largest replay (factor {largest:.0}, {records} records, ≥ {} MiB materialised) \
         must exceed the limit at least twice over",
        materialised >> 20
    );
    assert!(
        peak < LIMIT,
        "peak RSS {} MiB exceeds the {} MiB limit while replaying {records} records at factor \
         {largest:.0}",
        peak >> 20,
        LIMIT >> 20
    );
}
