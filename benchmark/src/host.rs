//! What the host does to a measurement: peak memory, the server
//! threads' CPU time and sleeps, and how much wall time a spinning
//! thread loses to the hypervisor. All read from `/proc`; a host
//! without it reports zeros rather than failing the run.

use std::time::{Duration, Instant};

/// Peak resident set of this process, KiB (`VmHWM`).
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| field_kb(&status, "VmHWM:"))
        .unwrap_or(0)
}

fn field_kb(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// CPU time and voluntary context switches of this process's
/// `densekv-serve*` threads (the accept loop and connection workers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeThreads {
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
}

impl ServeThreads {
    pub fn read() -> ServeThreads {
        let mut total = ServeThreads::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            if !comm.starts_with("densekv-serve") {
                continue;
            }
            // schedstat: "<ns on cpu> <ns waiting to run> <timeslices>".
            total.cpu_ns += std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0);
            total.voluntary_switches += std::fs::read_to_string(dir.join("status"))
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or(0);
        }
        total
    }

    pub fn since(self, earlier: ServeThreads) -> ServeThreads {
        ServeThreads {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }
}

/// Gaps longer than this between two clock reads of a spinning thread
/// count as time the host took away.
pub const STALL_GAP: Duration = Duration::from_micros(200);

/// Accumulates the gaps a spinning thread sees between clock reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct StallMeter {
    stalled: Duration,
    last: Option<Instant>,
}

impl StallMeter {
    /// Notes one clock read; a gap above [`STALL_GAP`] since the last
    /// one is added to the stalled total.
    pub fn tick(&mut self, now: Instant) {
        if let Some(last) = self.last {
            let gap = now.saturating_duration_since(last);
            if gap > STALL_GAP {
                self.stalled += gap;
            }
        }
        self.last = Some(now);
    }

    pub fn stalled(&self) -> Duration {
        self.stalled
    }
}

/// Share of wall time that `threads` spinning threads lose to gaps
/// above [`STALL_GAP`], averaged over the threads.
pub fn stall_share(threads: usize, duration: Duration) -> f64 {
    let spin = move || {
        let start = Instant::now();
        let mut meter = StallMeter::default();
        loop {
            let now = Instant::now();
            meter.tick(now);
            if now.duration_since(start) >= duration {
                return meter.stalled().as_secs_f64() / duration.as_secs_f64();
            }
        }
    };
    let shares: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(spin)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("spin thread does not panic"))
            .collect()
    });
    shares.iter().sum::<f64>() / shares.len() as f64
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_status_field() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   5124 kB\n";
        assert_eq!(field_kb(status, "VmHWM:"), Some(5124));
        assert_eq!(field_kb(status, "VmRSS:"), None);
    }

    #[test]
    fn stall_meter_counts_only_long_gaps() {
        let t0 = Instant::now();
        let mut meter = StallMeter::default();
        meter.tick(t0);
        meter.tick(t0 + Duration::from_micros(150));
        assert_eq!(meter.stalled(), Duration::ZERO);
        meter.tick(t0 + Duration::from_micros(4150));
        assert_eq!(meter.stalled(), Duration::from_micros(4000));
    }
}
