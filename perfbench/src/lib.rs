//! The idse benchmark: three evaluation workloads timed end to end, an
//! output gate on every job, and an outside-in per-layer ladder.
//!
//! See `NOTES.md` beside this crate for why each workload exists and what
//! each metric should move.

pub mod gate;
pub mod job;
pub mod ladder;
pub mod stats;
pub mod workloads;

/// The end-to-end metrics a timed run reports: name, unit.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("records_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];
