//! Small statistics helpers, the result line, and the output checks.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations and output checks of one run. Every check is one
/// attempted operation; a failed check also fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records operations the program performed, `failed` of which
    /// failed (a `Failed`/`Error` variant, an error reply).
    pub fn operations(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("perfbench: {failed} of {attempted} operations failed");
        }
    }
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A field of `/proc/self/status` in MiB (0 where unavailable).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Samples the resident set size (`VmRSS`) of this process every few
/// milliseconds on a thread of its own, to find the peak of one session
/// rather than of the whole process so far.
pub struct RssPeak {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

impl RssPeak {
    const PERIOD: std::time::Duration = std::time::Duration::from_millis(5);

    pub fn start() -> RssPeak {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = status_mb("VmRSS");
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Self::PERIOD);
                peak = peak.max(status_mb("VmRSS"));
            }
            peak
        });
        RssPeak { stop, handle }
    }

    /// Stops the sampler and returns the peak in MiB, including the
    /// resident set at the moment of stopping.
    pub fn stop(self) -> f64 {
        let now = status_mb("VmRSS");
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle.join().unwrap_or(0.0).max(now)
    }
}

/// The host's cumulative CPU time counters (`/proc/stat`, in ticks):
/// time spent running (user, system, interrupts) and time the
/// hypervisor stole from a virtual CPU that had work to run. Zero
/// where unavailable.
///
/// The benchmark runs on shared virtual machines where the stolen share
/// drifts from under 1% to over 30% within an hour, and a session's
/// wall-clock follows it. So each timed interval reads these counters
/// at both ends, and its wall-clock is multiplied by
/// `1 - steal_share_since()`: the time the interval would have taken
/// had its virtual CPUs got all the CPU time they asked for.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .map(|rest| {
                rest.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already part of user; idle and iowait are not wanted time).
        CpuTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// The share of the CPU time the host's virtual CPUs wanted since
    /// `self` that the hypervisor stole: `steal / (busy + steal)`.
    pub fn steal_share_since(&self) -> f64 {
        let now = CpuTicks::now();
        let busy = now.busy.saturating_sub(self.busy);
        let steal = now.steal.saturating_sub(self.steal);
        ratio(steal as f64, (busy + steal) as f64)
    }
}

/// Renders the result line the benchmark prints last.
pub fn result_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit `f64` carries (`{:?}` writes the
/// shortest round-trip form, e.g. `0.5`, `3.0`, `1e-7`). Non-finite
/// values, which JSON cannot hold, become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
    }

    #[test]
    fn result_line_shape() {
        let checks = Checks {
            attempted: 3,
            ..Checks::default()
        };
        let line = result_line(true, &checks, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
