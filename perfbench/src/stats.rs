//! Order statistics, process measurements and the calibration kernel.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Share of the total held by the largest `ceil(n / 100)` samples.
pub fn top_percent_share(samples: &[f64]) -> f64 {
    let total: f64 = samples.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let top = samples.len().div_ceil(100);
    sorted[..top].iter().sum::<f64>() / total
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How often the calibration kernel runs between timed calls.
const KERNEL_EVERY: Duration = Duration::from_millis(250);

/// Kernel time, in ms, of the host speed the reported timings are scaled
/// to: [`calibration_ms`] takes about this long on a 2-vCPU Xeon host
/// running at a typical speed.
pub const REFERENCE_KERNEL_MS: f64 = 8.0;

/// Calibration kernel timings taken between timed calls, each stamped
/// with when it started.
pub struct Calibration {
    samples: Vec<(Instant, f64)>,
}

impl Calibration {
    /// Starts with one timing.
    pub fn new() -> Self {
        Calibration {
            samples: vec![(Instant::now(), calibration_ms())],
        }
    }

    /// Times the kernel if `KERNEL_EVERY` has passed since the last timing.
    pub fn tick(&mut self) {
        let (last, _) = self.samples[self.samples.len() - 1];
        if last.elapsed() >= KERNEL_EVERY {
            self.samples.push((Instant::now(), calibration_ms()));
        }
    }

    /// The time `ms` of a call that started at `start`, scaled to the
    /// reference host speed by the mean of the kernel timings just before
    /// and just after the call.
    pub fn scale(&self, start: Instant, ms: f64) -> f64 {
        let after = self.samples.partition_point(|&(at, _)| at <= start);
        let around = &self.samples[after.saturating_sub(1)..(after + 1).min(self.samples.len())];
        let kernel = around.iter().map(|&(_, k)| k).sum::<f64>() / around.len() as f64;
        ms * REFERENCE_KERNEL_MS / kernel
    }

    pub fn kernel_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|&(_, k)| k)
    }
}

/// How much slower than the reference the host ran, from kernel times
/// taken during the run: raw rates are multiplied by it and raw times
/// divided by it.
pub fn host_factor(kernel_ms: &[f64]) -> f64 {
    median(kernel_ms) / REFERENCE_KERNEL_MS
}

/// Time of a fixed CPU and memory kernel that calls no workspace code, in
/// ms: how fast the host runs this process at the moment.  A code change
/// cannot move it, so timings divided by it track the program, not the
/// load other tenants put on the host.
pub fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..40_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut map = std::collections::BTreeMap::new();
    for (i, k) in keys.iter().enumerate().step_by(3) {
        map.insert(k % 65_521, i);
    }
    let hits = keys
        .iter()
        .filter(|k| map.contains_key(&(*k % 65_521)))
        .count();
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); 4096];
    for (i, k) in keys.iter().enumerate() {
        buckets[(k % 4096) as usize].push(i as u32);
    }
    std::hint::black_box((hits, buckets.iter().map(Vec::len).max()));
    ms(t.elapsed())
}
