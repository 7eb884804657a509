//! Telemetry assembly for `repro --metrics`.
//!
//! Boots the Tables 1 & 3 systems (Fastswap plus the three DiLOS prefetcher
//! configurations) with the metrics registry and span profile enabled,
//! drives the same sequential-read workload, and assembles three artifacts:
//!
//! * `metrics.json` — per-system counters, final gauges, and fault-latency
//!   histograms (with quantiles and bucket boundaries),
//! * `timeseries.json` — per-system virtual-time gauge series from the
//!   calendar-driven sampler,
//! * `profile.folded` — merged folded stacks (`system;core;span value`) in
//!   the format `flamegraph.pl` and inferno consume directly.
//!
//! Everything is hand-rolled, byte-stable JSON: same seed and scale produce
//! byte-identical files, so CI can `cmp` two runs. Because the registry is a
//! pure observer, the trace digests recorded here equal the ones `tab01`
//! pins with metrics off.

use std::fmt::Write as _;

use dilos_apps::farmem::{SystemKind, SystemSpec};
use dilos_apps::seqrw::SeqWorkload;
use dilos_sim::{Observability, PAGE_SIZE};

use crate::table::{us, Report};

/// Telemetry captured from one system's metered run.
#[derive(Debug, Clone)]
pub struct SystemTelemetry {
    /// Stable machine id used as the JSON key and folded-stack prefix.
    pub id: &'static str,
    /// Human label (matches the tab01 table rows).
    pub label: &'static str,
    /// Trace digest of the metered run (must equal the unmetered digest).
    pub digest: u64,
    /// `(major, minor, zero_fill)` fault counts from the hand counters.
    pub faults: (u64, u64, u64),
    /// Number of sampler ticks recorded.
    pub samples: u64,
    /// p99 major-fault latency in virtual ns (0 when no major faults).
    pub p99_major_ns: u64,
    /// Counters JSON object (`{"name": [lane...], ...}`).
    pub counters_json: String,
    /// Final gauge values JSON object.
    pub gauges_json: String,
    /// Gauge time-series JSON object (`{"name": [[t, v], ...], ...}`).
    pub series_json: String,
    /// Fault-latency histograms JSON object.
    pub histograms_json: String,
    /// Per-phase latency quantiles JSON object (p50/p90/p99/p999 of the
    /// per-span phase durations).
    pub phase_quantiles_json: String,
    /// Folded stacks, each line prefixed `id;`.
    pub folded: String,
    /// Sampler interval in virtual ns.
    pub interval_ns: u64,
}

/// The systems `--metrics` meters: the tab01 set.
pub const METERED: [(&str, SystemKind); 4] = [
    ("fastswap", SystemKind::Fastswap),
    ("dilos-noprefetch", SystemKind::DilosNoPrefetch),
    ("dilos-readahead", SystemKind::DilosReadahead),
    ("dilos-trend", SystemKind::DilosTrend),
];

/// Runs the sequential-read workload on every metered system and collects
/// its telemetry.
pub fn collect(scale: crate::micro::MicroScale) -> Vec<SystemTelemetry> {
    let ws = (scale.pages * PAGE_SIZE) as u64;
    let wl = SeqWorkload { pages: scale.pages };
    let mut out = Vec::new();
    for (id, kind) in METERED {
        let obs = Observability::metered();
        let mut mem = SystemSpec::for_working_set(kind, ws, scale.ratio)
            .observed(obs.clone())
            .boot();
        let base = wl.populate(mem.as_mut());
        wl.read_pass(mem.as_mut(), base);
        // Digesting quiesces the system, which also flushes pending
        // sampler ticks up to the completion horizon.
        let digest = mem.trace_digest();
        let metrics = mem.metrics();
        let profile = obs.spans().profile();
        let mut folded = String::new();
        for line in profile.folded().lines() {
            let _ = writeln!(folded, "{id};{line}");
        }
        out.push(SystemTelemetry {
            id,
            label: kind.label(),
            digest,
            faults: mem.fault_counters(),
            samples: metrics.samples(),
            p99_major_ns: profile
                .histogram("major")
                .map(|h| h.quantile(0.99))
                .unwrap_or(0),
            counters_json: metrics.counters_json(),
            gauges_json: metrics.gauges_json(),
            series_json: metrics.series_json(),
            histograms_json: profile.histograms_json(),
            phase_quantiles_json: profile.phase_quantiles_json(),
            folded,
            interval_ns: metrics.sample_interval_ns(),
        });
    }
    out
}

/// Indents every line of a JSON fragment after the first by `pad` spaces.
fn indent(json: &str, pad: usize) -> String {
    let mut out = String::with_capacity(json.len());
    for (i, line) in json.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            for _ in 0..pad {
                out.push(' ');
            }
        }
        out.push_str(line);
    }
    out
}

/// Renders `metrics.json`: per-system counters, gauges, and histograms.
pub fn metrics_json(systems: &[SystemTelemetry]) -> String {
    let mut out = String::from("{\n");
    for (i, s) in systems.iter().enumerate() {
        let _ = write!(
            out,
            "  \"{}\": {{\n    \"label\": \"{}\",\n    \"digest\": \"{:#018x}\",\n    \
             \"major\": {},\n    \"minor\": {},\n    \"zero_fill\": {},\n    \
             \"counters\": {},\n    \"gauges\": {},\n    \"histograms\": {},\n    \
             \"phase_quantiles\": {}\n  }}",
            s.id,
            s.label,
            s.digest,
            s.faults.0,
            s.faults.1,
            s.faults.2,
            indent(&s.counters_json, 4),
            indent(&s.gauges_json, 4),
            indent(&s.histograms_json, 4),
            indent(&s.phase_quantiles_json, 4),
        );
        out.push_str(if i + 1 < systems.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders `timeseries.json`: per-system sampler output.
pub fn timeseries_json(systems: &[SystemTelemetry]) -> String {
    let mut out = String::from("{\n");
    for (i, s) in systems.iter().enumerate() {
        let _ = write!(
            out,
            "  \"{}\": {{\n    \"interval_ns\": {},\n    \"samples\": {},\n    \
             \"series\": {}\n  }}",
            s.id,
            s.interval_ns,
            s.samples,
            indent(&s.series_json, 4),
        );
        out.push_str(if i + 1 < systems.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders `profile.folded`: all systems' folded stacks concatenated.
pub fn profile_folded(systems: &[SystemTelemetry]) -> String {
    let mut out = String::new();
    for s in systems {
        out.push_str(&s.folded);
    }
    out
}

/// Runs the metered systems, writes the three artifacts under `out_dir`,
/// and returns a human summary table.
pub fn write_artifacts(scale: crate::micro::MicroScale, out_dir: &str) -> std::io::Result<Report> {
    let systems = collect(scale);
    std::fs::write(format!("{out_dir}/metrics.json"), metrics_json(&systems))?;
    std::fs::write(
        format!("{out_dir}/timeseries.json"),
        timeseries_json(&systems),
    )?;
    std::fs::write(
        format!("{out_dir}/profile.folded"),
        profile_folded(&systems),
    )?;
    let mut report = Report::new(
        "Telemetry — metered sequential read (tab01 systems)",
        &[
            "system",
            "major",
            "minor",
            "zero-fill",
            "samples",
            "p99 major (µs)",
        ],
    );
    for s in &systems {
        report.row(vec![
            s.label.to_string(),
            s.faults.0.to_string(),
            s.faults.1.to_string(),
            s.faults.2.to_string(),
            s.samples.to_string(),
            us(s.p99_major_ns),
        ]);
        report.digest(s.label, s.digest);
    }
    report.note(format!(
        "Artifacts: {out_dir}/metrics.json, {out_dir}/timeseries.json, {out_dir}/profile.folded."
    ));
    report.note("Render the profile with: inferno-flamegraph < results/profile.folded > flame.svg");
    report.note("Digests match the unmetered tab01 run: metrics are pure observers.");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::MicroScale;

    fn tiny() -> MicroScale {
        MicroScale {
            pages: 256,
            ratio: 25,
        }
    }

    #[test]
    fn collect_meters_every_system() {
        let systems = collect(tiny());
        assert_eq!(systems.len(), METERED.len());
        for s in &systems {
            assert!(s.samples > 0, "{}: no sampler ticks", s.id);
            assert!(s.faults.0 > 0, "{}: no major faults", s.id);
            assert!(s.folded.lines().all(|l| l.starts_with(s.id)), "{}", s.id);
            assert_ne!(s.digest, 0, "{}: digest missing", s.id);
        }
    }

    #[test]
    fn artifacts_are_byte_stable() {
        let a = collect(tiny());
        let b = collect(tiny());
        assert_eq!(metrics_json(&a), metrics_json(&b));
        assert_eq!(timeseries_json(&a), timeseries_json(&b));
        assert_eq!(profile_folded(&a), profile_folded(&b));
        // Sanity: the JSON opens and closes as an object and names every
        // system.
        let m = metrics_json(&a);
        assert!(m.starts_with("{\n") && m.ends_with("}\n"));
        for (id, _) in METERED {
            assert!(m.contains(&format!("\"{id}\"")), "{id} missing");
        }
    }

    #[test]
    fn metrics_json_carries_phase_quantiles() {
        let systems = collect(tiny());
        let m = metrics_json(&systems);
        assert!(m.contains("\"phase_quantiles\": {"));
        for s in &systems {
            if s.id == "fastswap" {
                // Baselines do not emit FaultPhase events; their object is
                // empty but present.
                assert_eq!(s.phase_quantiles_json, "{}", "{}", s.id);
                continue;
            }
            assert!(
                s.phase_quantiles_json.contains("\"fetch\""),
                "{}: fetch phase missing from {}",
                s.id,
                s.phase_quantiles_json
            );
            assert!(s.phase_quantiles_json.contains("\"p999\""), "{}", s.id);
        }
    }
}
