//! Host probes (`/proc`, sysfs) and sample statistics.

use std::fs;

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples (the
/// same convention as numpy's default).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail of a latency sample: its 90th percentile, or the highest
/// percentile with at least ten samples beyond it when there are too few
/// for the 90th to have ten.  Returns the percentile used (in `[0, 0.9]`)
/// and its value.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = (1.0 - 10.0 / samples.len() as f64).clamp(0.0, 0.9);
    (q, quantile(samples, q))
}

/// Mean of samples.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so a later [`peak_rss_mb`] covers only what ran since.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// The process's peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("cannot read status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros when `/proc/stat` is unreadable, which
    /// makes the steal share read as 0).
    pub fn now() -> CpuTicks {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            // user nice system idle iowait irq softirq steal ...
            steal: fields.get(7).copied().unwrap_or(0),
            // guest time is already counted in user, so stop at steal.
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of all CPU ticks since `self` that the hypervisor stole, in %.
    pub fn steal_pct_since(&self) -> f64 {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Last-level cache size in bytes from sysfs (the highest cache index of
/// CPU 0), or 32 MiB when sysfs does not say.
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let t = text.trim();
        let bytes = if let Some(k) = t.strip_suffix('K') {
            k.parse::<usize>().ok().map(|k| k << 10)
        } else if let Some(m) = t.strip_suffix('M') {
            m.parse::<usize>().ok().map(|m| m << 20)
        } else {
            t.parse().ok()
        };
        best = best.max(bytes.unwrap_or(0));
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(tail(&v), (0.0, 1.0));
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((tail(&many).1 - 899.1).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_resets_and_reads() {
        reset_peak_rss().expect("clear_refs is writable on Linux");
        assert!(peak_rss_mb().expect("VmHWM readable") > 0.0);
    }
}
