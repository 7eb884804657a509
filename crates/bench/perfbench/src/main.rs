//! The repository benchmark: end-to-end and per-layer numbers for the DiLOS
//! simulator on four workloads.
//!
//! ```text
//! perfbench --workload <seqscan|qsort|serve|observed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run times repetitions of the workload for
//! `--seconds` host seconds, without any per-op instrumentation, and reports
//! the end-to-end metrics. The virtual-time metrics are deterministic, so
//! they come from one probed pass made before the timed ones. With
//! `--trace 1` the run alternates untraced repetitions with traced ones, in
//! which spans are recorded around the calls into each layer, and reports
//! the per-layer metrics. Every run checks the workload's outputs and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The layer each per-layer metric belongs to, and the end-to-end metric it
//! should move, are listed in `LAYERS.md` beside this crate's manifest.

mod observed;
mod probe;
mod qsort;
mod report;
mod seqscan;
mod serve;
mod spans;
mod systems;

use std::process::ExitCode;
use std::time::Instant;

use dilos_sim::LatencyHistogram;

use probe::Windows;
use report::{peak_rss_mb, Counters, Metrics, Outcome, Rep};
use spans::{Layer, Spans};

/// The virtual latency percentiles reported.
pub const QUANTILES: [f64; 3] = [0.50, 0.99, 0.999];
/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: u64 = 10;
/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;
/// Share of a timed run spent on extra set-ups between repetitions.
const SETUP_SHARE: f64 = 0.05;

/// Each [`QUANTILES`] entry of `h`, whose samples are in units of
/// `1 / per_ns` ns, as `(latency ns, samples beyond its rank)`. The latency
/// is `LatencyHistogram::quantile`'s estimate.
pub fn quantiles(h: &LatencyHistogram, per_ns: u64) -> [(f64, u64); 3] {
    let n = h.count();
    QUANTILES.map(|q| {
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n.max(1));
        (h.quantile(q) as f64 / per_ns as f64, n - rank.min(n))
    })
}

/// Virtual-time results of a workload's probed pass.
#[derive(Debug, Clone, Copy)]
pub struct Virt {
    /// Virtual time of the measured phase, summed over systems or victim
    /// tenants, ns.
    pub makespan_ns: u64,
    /// Latency samples.
    pub samples: u64,
    /// Per entry of [`QUANTILES`]: `(latency ns, samples beyond it)`.
    pub quantiles: [(f64, u64); 3],
}

/// A benchmark workload.
pub trait Workload {
    /// Runs one repetition. `sp` is off in the timed pass; `virt`, when
    /// given, records every access's virtual latency.
    fn rep(
        &self,
        sp: &mut Spans,
        virt: Option<&mut Windows>,
        c: &mut Counters,
        out: &mut Outcome,
    ) -> Rep;

    /// Sets the workload's systems up as a repetition does, drops them, and
    /// returns the host seconds the set-up took.
    fn setup(&self) -> f64;

    /// Accesses per virtual latency sample.
    fn window(&self) -> u32 {
        1
    }

    /// Checks made once per run, outside any timing.
    fn once(&self, _out: &mut Outcome) {}

    /// The probed pass the virtual metrics come from.
    fn virt(&self, out: &mut Outcome) -> (Rep, Virt) {
        let mut w = Windows::new(self.window());
        let rep = self.rep(
            &mut Spans::off(),
            Some(&mut w),
            &mut Counters::default(),
            out,
        );
        let virt = Virt {
            makespan_ns: rep.virt_ns,
            samples: w.hist().count(),
            quantiles: quantiles(w.hist(), probe::PS_PER_NS),
        };
        (rep, virt)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <seqscan|qsort|serve|observed> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "seqscan" => Box::new(seqscan::Seqscan::new(seed)),
        "qsort" => Box::new(qsort::Qsort::new(seed)),
        "serve" => Box::new(serve::Serve::new(seed)),
        "observed" => Box::new(observed::Observed::new(seed)),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let mut out = Outcome::default();
    wl.once(&mut out);
    let (rep, virt) = wl.virt(&mut out);
    account(&mut out, &rep);
    for (q, (_, beyond)) in QUANTILES.iter().zip(virt.quantiles) {
        out.check(beyond >= MIN_BEYOND, || {
            format!(
                "p{} has {beyond} samples beyond it, fewer than {MIN_BEYOND}",
                q * 100.0
            )
        });
    }
    println!(
        "# {} seed {}: {} virtual latency samples (p50/p99/p99.9 have {:?} beyond)",
        args.workload,
        args.seed,
        virt.samples,
        virt.quantiles.map(|(_, b)| b)
    );

    if args.trace {
        traced(wl.as_ref(), &args, &virt, &mut out);
    } else {
        timed(wl.as_ref(), &args, &virt, &mut out);
    }

    for m in &out.metrics.0 {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("# CHECK FAILED: {p}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}

fn account(out: &mut Outcome, rep: &Rep) {
    out.attempted += rep.ops;
    out.failed += rep.failed;
}

/// Every repetition must reproduce the probed pass's virtual time.
fn check_determinism(out: &mut Outcome, rep: &Rep, virt: &Virt) {
    out.check(rep.virt_ns == virt.makespan_ns, || {
        format!(
            "virtual time diverged: {} ns in a repetition, {} ns in the probed pass",
            rep.virt_ns, virt.makespan_ns
        )
    });
}

/// The end-to-end run: repetitions without per-op instrumentation.
fn timed(wl: &dyn Workload, args: &Args, virt: &Virt, out: &mut Outcome) {
    let start = Instant::now();
    let (mut rates, mut setups, mut extra_s) = (Vec::new(), Vec::new(), 0.0);
    let mut refs = Vec::new();
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        refs.push(report::reference_s());
        let rep = wl.rep(&mut Spans::off(), None, &mut Counters::default(), out);
        account(out, &rep);
        check_determinism(out, &rep, virt);
        rates.push(rep.ops as f64 / rep.measured_s);
        setups.push(rep.setup_s);
        // Set-up is short next to a repetition on most workloads, so extra
        // set-ups between repetitions give it more samples, spread over
        // the run.
        while extra_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            setups.push(wl.setup());
            extra_s += t.elapsed().as_secs_f64();
        }
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4e}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# {} timed repetitions, {} set-ups",
        rates.len(),
        setups.len()
    );
    println!("# ops/s per repetition: {}", list(&rates));
    println!("# setup s per set-up: {}", list(&setups));
    println!("# reference s per repetition: {}", list(&refs));
    // The host's speed drifts between modes that last from seconds to
    // minutes and differ by up to 2x. Interference only ever slows work, so
    // the fastest repetition, set-up and reference each come from the
    // fastest mode the run saw; scaling by the reference's slowdown in it
    // takes out most of the drift that whole runs spent in a slow mode.
    let fastest_rate = rates.iter().copied().fold(0.0, f64::max);
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let slowdown = refs.iter().copied().fold(f64::INFINITY, f64::min) / report::REFERENCE_S;
    println!(
        "# fastest: {fastest_rate:.4e} ops/s, set-up {fastest_setup:.4e} s; host slowdown {slowdown:.4}"
    );
    let m = &mut out.metrics;
    m.put("ops_per_s", fastest_rate * slowdown, "1/s");
    m.put("setup_s", fastest_setup / slowdown, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("virt_makespan_ms", virt.makespan_ns as f64 / 1e6, "ms");
    for (name, (v, _)) in ["virt_p50_ns", "virt_p99_ns", "virt_p999_ns"]
        .iter()
        .zip(virt.quantiles)
    {
        m.put(*name, v, "ns");
    }
}

/// The traced run: untraced and traced repetitions alternate; the spans of
/// the traced ones give the per-layer metrics.
fn traced(wl: &dyn Workload, args: &Args, virt: &Virt, out: &mut Outcome) {
    let start = Instant::now();
    let mut sp = Spans::on();
    let mut c = Counters::default();
    let (mut plain, mut walls) = (Vec::new(), Vec::new());
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let rep = wl.rep(&mut Spans::off(), None, &mut Counters::default(), out);
        plain.push(t.elapsed().as_secs_f64());
        account(out, &rep);
        check_determinism(out, &rep, virt);

        c = Counters::default();
        let t = Instant::now();
        sp.enter(Layer::Run);
        let rep = wl.rep(&mut sp, None, &mut c, out);
        sp.exit();
        walls.push(t.elapsed().as_secs_f64());
        account(out, &rep);
        check_determinism(out, &rep, virt);
    }
    let reps = walls.len() as f64;
    let wall_ns: f64 = walls.iter().sum::<f64>() * 1e9;
    // The run span's self time is the wall time no layer span covers: the
    // harness's own loop, and dropping each booted system.
    let uncovered = sp.get(Layer::Run).self_ns as f64;
    println!(
        "# {} traced + {} untraced repetitions; span self times sum to {:.3} ms of {:.3} ms wall, \
         {:.3} ms of it outside every layer span",
        walls.len(),
        plain.len(),
        sp.self_sum() as f64 / 1e6,
        wall_ns / 1e6,
        uncovered / 1e6
    );
    print_self_times(&sp);
    layer_metrics(&mut out.metrics, &sp, &c, reps);
    let m = &mut out.metrics;
    m.put(
        "bench.trace_overhead_pct",
        (walls.iter().sum::<f64>() / plain.iter().sum::<f64>() - 1.0) * 100.0,
        "%",
    );
    m.put("bench.traced_wall_ms", wall_ns / reps / 1e6, "ms");
    m.put("bench.span_residual_pct", uncovered / wall_ns * 100.0, "%");
}

fn print_self_times(sp: &Spans) {
    for layer in Layer::ALL {
        let a = sp.get(layer);
        if a.count > 0 {
            println!(
                "#   {:<26} spans {:>10}  total {:>10.3} ms  self {:>10.3} ms",
                layer.name(),
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
    }
}

/// Per-layer metrics: host times from the spans (per traced repetition, or
/// per span for the access classes) and deterministic counters.
fn layer_metrics(m: &mut Metrics, sp: &Spans, c: &Counters, reps: f64) {
    let ms = |l: Layer| sp.get(l).total_ns as f64 / reps / 1e6;
    let self_ms = |l: Layer| sp.get(l).self_ns as f64 / reps / 1e6;
    let per_span = |l: Layer| {
        let a = sp.get(l);
        a.total_ns as f64 / a.count.max(1) as f64
    };
    m.put("setup.boot_ms", ms(Layer::Boot), "ms");
    m.put("setup.populate_ms", ms(Layer::Populate), "ms");
    m.put("core.node.hit_host_ns", per_span(Layer::NodeHit), "ns");
    m.put("core.node.major_host_ns", per_span(Layer::NodeMajor), "ns");
    m.put("core.node.minor_host_ns", per_span(Layer::NodeMinor), "ns");
    m.put(
        "baselines.fastswap.hit_host_ns",
        per_span(Layer::FsHit),
        "ns",
    );
    m.put(
        "baselines.fastswap.fault_host_ns",
        per_span(Layer::FsFault),
        "ns",
    );
    m.put("sim.sched.quiesce_host_ms", ms(Layer::Quiesce), "ms");
    m.put("core.audit.report_ms", ms(Layer::Audit), "ms");
    m.put("bench.loadgen.drive_ms", ms(Layer::Drive), "ms");
    m.put("apps.quicksort.self_ms", self_ms(Layer::Sort), "ms");
    m.put("apps.seqscan.self_ms", self_ms(Layer::Pass), "ms");
    m.put("bench.harness_self_ms", self_ms(Layer::Run), "ms");

    let rung_ms = Layer::RUNGS.map(ms);
    for (layer, v) in Layer::RUNGS.into_iter().zip(rung_ms) {
        m.put(format!("{}_ms", layer.name()), v, "ms");
    }
    let events = c.get("sim.trace.events");
    m.put("sim.trace.events", events, "count");
    let per_event = |hi: usize, lo: usize| {
        if events == 0.0 {
            0.0
        } else {
            (rung_ms[hi] - rung_ms[lo]) * 1e6 / events
        }
    };
    m.put("sim.trace.ns_per_event", per_event(1, 0), "ns");
    m.put("core.audit.ns_per_event", per_event(2, 1), "ns");
    m.put("sim.metrics.ns_per_event", per_event(3, 1), "ns");
    m.put("sim.causal.ns_per_event", per_event(4, 1), "ns");

    for name in ["major", "minor", "zero_fill", "local_hits"] {
        m.put(
            format!("core.node.{name}"),
            c.get(&format!("core.node.{name}")),
            "count",
        );
    }
    for phase in ["exception", "check", "alloc", "fetch", "map", "reclaim"] {
        m.put(
            format!("core.node.phase.{phase}_ns"),
            c.ratio(
                &format!("core.node.phase.{phase}_sum"),
                "core.node.phase.faults",
            ),
            "ns",
        );
    }
    m.put(
        "core.prefetch.issued",
        c.get("core.prefetch.issued"),
        "count",
    );
    m.put("core.prefetch.hits", c.get("core.prefetch.hits"), "count");
    m.put(
        "core.prefetch.useful_ratio",
        c.ratio("core.prefetch.hits", "core.prefetch.issued"),
        "ratio",
    );
    m.put(
        "core.pagemgr.evictions",
        c.get("core.pagemgr.evictions"),
        "count",
    );
    m.put(
        "core.pagemgr.writebacks",
        c.get("core.pagemgr.writebacks"),
        "count",
    );
    m.put(
        "core.pagemgr.writeback_ratio",
        c.ratio("core.pagemgr.writebacks", "core.pagemgr.evictions"),
        "ratio",
    );
    for name in [
        "major",
        "minor",
        "readahead_pages",
        "direct_reclaims",
        "offloaded_reclaims",
    ] {
        let key = format!("baselines.fastswap.{name}");
        m.put(key.clone(), c.get(&key), "count");
    }
    for (_, id, dir) in systems::TRAFFIC {
        let (verbs, bytes) = systems::traffic_keys(id, dir);
        m.put(verbs.clone(), c.get(&verbs), "count");
        m.put(bytes.clone(), c.get(&bytes), "bytes");
    }
    // Both link directions over the summed virtual horizon.
    m.put(
        "sim.fabric.link_busy_frac",
        c.ratio("sim.fabric.link_busy_ns", "sim.fabric.horizon_ns") / 2.0,
        "ratio",
    );
    for i in 0..serve::SHARES.len() {
        for dir in ["rx", "tx"] {
            let key = format!("core.cluster.tenant{i}.{dir}_bytes");
            m.put(key.clone(), c.get(&key), "bytes");
        }
        let key = format!("core.cluster.tenant{i}.prefetch_useful_ratio");
        m.put(key.clone(), c.get(&key), "ratio");
        m.put(
            format!("core.cluster.tenant{i}.rx_share"),
            c.ratio(
                &format!("core.cluster.tenant{i}.rx_bytes"),
                "core.cluster.rx_bytes",
            ),
            "ratio",
        );
    }
    for kind in systems::TAB01 {
        let key = format!("apps.seqrw.virt_read_gbps.{}", systems::id(kind));
        m.put(key.clone(), c.get(&key), "GB/s");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload qsort --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("qsort", 7, true));
        assert_eq!(a.seconds, 10.0);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload qsort --seed 7 --seconds 10").is_err());
        assert!(args("--workload qsort --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload qsort --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }
}
