//! Process facts read from the kernel.

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU time from `/proc/stat`: (all jiffies, stolen jiffies).
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(String::from));
    let fields: Vec<u64> = line
        .as_deref()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    if fields.len() < 8 {
        return (0, 0);
    }
    (fields[..8].iter().sum(), fields[7])
}

/// The share of CPU time the hypervisor took between two readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.1 - from.1) as f64 / (to.0 - from.0).max(1) as f64
}
