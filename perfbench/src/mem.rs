//! Resident-memory probes read from `/proc/self`.
//!
//! `peak_rss_mb` is the largest rise in resident memory during one
//! operation: [`reset_peak`] lowers the kernel's high-water mark (`VmHWM`)
//! to the current resident set right before the operation, and [`peak_mb`]
//! reads it right after.

use std::fs;

fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"));
    kb / 1024.0
}

/// Current resident set, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Resident high-water mark since the last [`reset_peak`], MB.
pub fn peak_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Reset the resident high-water mark to the current resident set.
pub fn reset_peak() {
    // "5" resets the peak RSS (Linux >= 4.0, proc(5) clear_refs).
    fs::write("/proc/self/clear_refs", "5").expect("writing /proc/self/clear_refs");
}
