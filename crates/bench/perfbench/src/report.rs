//! Counters, summary statistics and the result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Named deterministic counters, summed over a workload's systems.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Counter `name`, 0 when never added to.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds `after - before`, counter by counter.
    pub fn add_delta(&mut self, after: &Counters, before: &Counters) {
        for (k, v) in &after.0 {
            self.add(k, v - before.get(k));
        }
    }

    /// `num / den`, 0 when the base is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

/// Host time of one repetition of a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Boot plus populate/warmup, host seconds.
    pub setup_s: f64,
    /// The measured phase, host seconds.
    pub measured_s: f64,
    /// Ops completed in the measured phase.
    pub ops: u64,
    /// Ops whose output was wrong.
    pub failed: u64,
    /// Virtual time of the measured phase, summed over systems or victim
    /// tenants, ns.
    pub virt_ns: u64,
}

/// Keys the host-speed reference sorts.
const REFERENCE_KEYS: usize = 1 << 16;
/// Keys it inserts into, then looks up in, a hash map.
const REFERENCE_LOOKUPS: usize = 1 << 14;
/// The reference's host seconds when the host runs at full speed: its
/// fastest time on the 2-vCPU test VM.
pub const REFERENCE_S: f64 = 1.8e-3;

/// Host seconds one run of the host-speed reference takes: sorting a fixed
/// pseudo-random vector, then filling and probing a hash map with part of
/// it. This is the benchmark's own code, so no change to the program can
/// alter its speed, only the host's; and it is branchy, allocating,
/// cache-resident work like the simulator's, so it slows with the host
/// by about as much.
pub fn reference_s() -> f64 {
    let mut x = 7u64;
    let mut keys: Vec<u64> = (0..REFERENCE_KEYS)
        .map(|_| {
            x = x
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            x >> 3
        })
        .collect();
    let mut map = HashMap::new();
    let t = Instant::now();
    keys.sort_unstable();
    for (i, k) in keys.iter().take(REFERENCE_LOOKUPS).enumerate() {
        map.insert(*k, i);
    }
    let found: usize = keys
        .iter()
        .rev()
        .take(REFERENCE_LOOKUPS)
        .filter_map(|k| map.get(k))
        .sum();
    std::hint::black_box(found);
    t.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or produced wrong output.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Notes a check; a false `ok` records `what` as a problem.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.0.iter().enumerate() {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                x.name,
                v,
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.put("latency_ms", 1.5, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
