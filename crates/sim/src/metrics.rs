//! Virtual-time telemetry: a metrics registry, a calendar-driven gauge
//! sampler, and the aggregate span profile.
//!
//! The paper's headline evidence is observability output — fault-latency
//! breakdowns (Figs. 1/6), RDMA curves (Fig. 2), bandwidth and occupancy
//! behaviour under eager reclaim — and this module holds its three
//! deterministic aggregate surfaces:
//!
//! 1. [`MetricsRegistry`] — shared-nothing per-core counters and named
//!    gauges, all `BTreeMap`-keyed so no enumeration can leak hash order.
//!    The node, RDMA endpoint, memory node, LRU chain, scheduler, and the
//!    baselines all register into the same handle.
//! 2. The **calendar-driven sampler** — the registry owns a *private*
//!    [`Calendar`] of recurring [`SchedEvent::SampleTick`] events. Hosts
//!    poll it at their existing event-drain points and snapshot every gauge
//!    into a virtual-time series. Keeping the ticks off the systems' main
//!    calendars is a purity requirement, not a convenience: wait loops
//!    (e.g. Fastswap's frame-allocation spin) consult `Calendar::next_due`,
//!    so a foreign tick in the main calendar would change how many spins —
//!    and therefore how many reclaim batches — a run executes. With a
//!    private calendar the main calendars' contents (including sequence
//!    numbers) are bit-identical with metrics on or off.
//! 3. [`Profile`] — what the [`SpanAssembler`](crate::spans::SpanAssembler)
//!    folds its completed fault, verb, and reclaim spans into when the run
//!    is metered: a flamegraph.pl/inferno-compatible folded-stack file plus
//!    end-to-end fault-latency histograms per fault kind and duration
//!    histograms per fault phase. The profile pairs nothing itself.
//!
//! Like [`TraceSink`](crate::trace::TraceSink), the registry follows the
//! `Option`-branch pattern: `disabled()` (the default) is a `None` that
//! makes every operation a single branch, and telemetry is a pure observer
//! either way — it never emits trace events, never schedules on a shared
//! calendar, and never feeds back into simulation decisions, so trace
//! digests are byte-stable under it.
//!
//! All JSON emitted here is hand-rolled (the workspace deliberately has no
//! serialization dependency) and byte-stable: map iteration order is the
//! `BTreeMap` key order. Metric names are `&'static str` ASCII identifiers,
//! so no string escaping is needed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::fabric::ServiceClass;
use crate::sched::{Calendar, SchedEvent};
use crate::spans::VerbSpan;
use crate::stats::LatencyHistogram;
use crate::time::Ns;
use crate::trace::{FaultKind, FaultPhase};

/// Default gauge-sampling interval: 50 µs of virtual time — fine enough to
/// see reclaim episodes, coarse enough that bench-scale runs keep their
/// series small.
pub const DEFAULT_SAMPLE_INTERVAL_NS: Ns = 50_000;

/// Stable label for a fault kind (histogram keys, folded-stack frames).
pub fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Major => "major",
        FaultKind::Minor => "minor",
        FaultKind::ZeroFill => "zero_fill",
    }
}

/// Stable label for a fault phase (folded-stack frames, cross-checks
/// against the hand-maintained `FaultBreakdown` fields).
pub fn phase_label(phase: FaultPhase) -> &'static str {
    match phase {
        FaultPhase::Exception => "exception",
        FaultPhase::Check => "check",
        FaultPhase::Alloc => "alloc",
        FaultPhase::Fetch => "fetch",
        FaultPhase::Map => "map",
        FaultPhase::Reclaim => "reclaim",
    }
}

#[derive(Debug)]
struct RegistryCore {
    /// Counter name → per-core lanes (lane 0 for global/background work).
    /// Lanes grow on demand so components need no core-count plumbing.
    counters: BTreeMap<&'static str, Vec<u64>>,
    /// Latest value of each registered gauge.
    gauges: BTreeMap<&'static str, u64>,
    /// Gauge name → sampled `(virtual time, value)` series.
    series: BTreeMap<&'static str, Vec<(Ns, u64)>>,
    interval: Ns,
    /// The sampler's own calendar of recurring `SampleTick`s — deliberately
    /// never shared with a system's main calendar (see module docs).
    sampler: Calendar,
    samples: u64,
}

/// Cloneable handle to a (possibly absent) metrics registry.
///
/// All clones share one store; [`MetricsRegistry::disabled`] (and
/// `Default`) is the dark handle whose every method is a branch on `None`.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Rc<RefCell<RegistryCore>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "MetricsRegistry(disabled)"),
            Some(core) => {
                let c = core.borrow();
                write!(
                    f,
                    "MetricsRegistry(counters={}, gauges={}, samples={})",
                    c.counters.len(),
                    c.gauges.len(),
                    c.samples
                )
            }
        }
    }
}

impl MetricsRegistry {
    /// The dark handle: nothing is recorded, every call is a `None` branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording registry sampling gauges every
    /// [`DEFAULT_SAMPLE_INTERVAL_NS`].
    pub fn recording() -> Self {
        Self::with_interval(DEFAULT_SAMPLE_INTERVAL_NS)
    }

    /// A recording registry with a custom sampling interval (clamped to at
    /// least 1 ns). The first tick is due at `interval`.
    pub fn with_interval(interval: Ns) -> Self {
        let interval = interval.max(1);
        let sampler = Calendar::new();
        sampler.schedule(interval, SchedEvent::SampleTick);
        Self {
            inner: Some(Rc::new(RefCell::new(RegistryCore {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                series: BTreeMap::new(),
                interval,
                sampler,
                samples: 0,
            }))),
        }
    }

    /// Whether metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to counter `name` on per-core `lane`. No-op (one
    /// branch) when disabled.
    #[inline]
    pub fn add(&self, name: &'static str, lane: usize, delta: u64) {
        let Some(core) = &self.inner else { return };
        let mut c = core.borrow_mut();
        let lanes = c.counters.entry(name).or_default();
        if lanes.len() <= lane {
            lanes.resize(lane + 1, 0);
        }
        lanes[lane] += delta;
    }

    /// Increments counter `name` on `lane` by one.
    #[inline]
    pub fn inc(&self, name: &'static str, lane: usize) {
        self.add(name, lane, 1);
    }

    /// Sum of counter `name` across all lanes (zero if never touched).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |core| {
            core.borrow()
                .counters
                .get(name)
                .map_or(0, |lanes| lanes.iter().sum())
        })
    }

    /// The per-lane values of counter `name` (empty if never touched).
    pub fn counter_lanes(&self, name: &str) -> Vec<u64> {
        self.inner.as_ref().map_or_else(Vec::new, |core| {
            core.borrow()
                .counters
                .get(name)
                .cloned()
                .unwrap_or_default()
        })
    }

    /// Sets gauge `name` to `value` (registering it on first use).
    #[inline]
    pub fn set_gauge(&self, name: &'static str, value: u64) {
        let Some(core) = &self.inner else { return };
        core.borrow_mut().gauges.insert(name, value);
    }

    /// The latest value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|core| core.borrow().gauges.get(name).copied())
    }

    /// The gauge-sampling interval (zero when disabled).
    pub fn sample_interval_ns(&self) -> Ns {
        self.inner.as_ref().map_or(0, |core| core.borrow().interval)
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> u64 {
        self.inner.as_ref().map_or(0, |core| core.borrow().samples)
    }

    /// Pops the next sample tick due at or before `now` from the private
    /// sampler calendar, rescheduling the recurring tick, and returns the
    /// tick's virtual time. Hosts call this in a `while let` at their
    /// event-drain points and record a gauge snapshot per returned tick:
    ///
    /// ```text
    /// while let Some(t) = self.metrics.next_sample_due(now) {
    ///     self.record_gauges(t);
    /// }
    /// ```
    ///
    /// Sampling is drain-point semantics, deterministically: a tick due at
    /// virtual time `T` is observed at the host's first drain at or after
    /// `T`, and the snapshot is timestamped `T`.
    pub fn next_sample_due(&self, now: Ns) -> Option<Ns> {
        let core = self.inner.as_ref()?;
        let c = core.borrow();
        if !c.sampler.has_due(now) {
            return None;
        }
        let (t, _) = c.sampler.pop_due(now)?;
        let next = t + c.interval;
        c.sampler.schedule(next, SchedEvent::SampleTick);
        Some(t)
    }

    /// Appends the current value of every gauge to its time series,
    /// stamped `t`.
    pub fn record_sample(&self, t: Ns) {
        let Some(core) = &self.inner else { return };
        let mut c = core.borrow_mut();
        let RegistryCore {
            gauges,
            series,
            samples,
            ..
        } = &mut *c;
        *samples += 1;
        for (&name, &value) in gauges.iter() {
            series.entry(name).or_default().push((t, value));
        }
    }

    /// The sampled series for gauge `name` (empty if never sampled).
    pub fn series(&self, name: &str) -> Vec<(Ns, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |core| {
            core.borrow().series.get(name).cloned().unwrap_or_default()
        })
    }

    /// Counters as a byte-stable JSON object: `{"name": [lane0, …], …}`.
    /// Disabled registries emit `{}`.
    pub fn counters_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (name, lanes)) in c.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": [");
            for (j, v) in lanes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// Latest gauge values as a byte-stable JSON object:
    /// `{"name": value, …}`. Disabled registries emit `{}`.
    pub fn gauges_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (name, value)) in c.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push('}');
        out
    }

    /// Sampled time series as a byte-stable JSON object:
    /// `{"name": [[t_ns, value], …], …}`. Disabled registries emit `{}`.
    pub fn series_json(&self) -> String {
        let Some(core) = &self.inner else {
            return "{}".to_string();
        };
        let c = core.borrow();
        let mut out = String::from("{");
        for (i, (name, points)) in c.series.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": [");
            for (j, (t, v)) in points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{t}, {v}]");
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// A folded-stack frame path, keyed by integers and rendered to text only
/// when the profile is written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stack {
    /// `core{n};fault:{kind}`, or `…;{phase}` for time charged to a phase.
    Fault(u8, FaultKind, Option<FaultPhase>),
    /// `core{n};rdma:{class}:{read|write}`.
    Verb(u8, ServiceClass, bool),
    /// `bg;reclaim`.
    Reclaim,
}

impl Stack {
    fn render(self) -> String {
        match self {
            Stack::Fault(core, kind, None) => format!("core{core};fault:{}", kind_label(kind)),
            Stack::Fault(core, kind, Some(phase)) => {
                format!(
                    "core{core};fault:{};{}",
                    kind_label(kind),
                    phase_label(phase)
                )
            }
            Stack::Verb(core, class, write) => {
                let rw = if write { "write" } else { "read" };
                format!("core{core};rdma:{}:{rw}", class.label())
            }
            Stack::Reclaim => "bg;reclaim".to_string(),
        }
    }
}

/// The aggregate view of a metered run, folded from the spans the
/// [`SpanAssembler`](crate::spans::SpanAssembler) pairs: flamegraph stacks,
/// end-to-end fault latency per kind, and duration per fault phase. The
/// default (what an unmetered run reports) is empty and renders `""` /
/// `{}`.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Stack → accumulated virtual ns.
    folded: BTreeMap<Stack, u128>,
    /// End-to-end latency of completed faults, per kind label.
    faults: BTreeMap<&'static str, LatencyHistogram>,
    /// One sample per `FaultPhase` of an open fault, per phase label.
    phases: BTreeMap<&'static str, LatencyHistogram>,
}

impl Profile {
    fn add(&mut self, stack: Stack, ns: Ns) {
        *self.folded.entry(stack).or_default() += ns as u128;
    }

    pub(crate) fn phase(&mut self, core: u8, kind: FaultKind, phase: FaultPhase, dur: Ns) {
        self.add(Stack::Fault(core, kind, Some(phase)), dur);
        self.phases
            .entry(phase_label(phase))
            .or_default()
            .record(dur);
    }

    /// A completed fault of `total` ns, `charged` of them to named phases:
    /// the residual goes to the bare fault frame, so a fault's stacks sum to
    /// its latency. Phases may double-charge overlapped work (reclaim hidden
    /// inside the fetch window), so the residual saturates.
    pub(crate) fn fault(&mut self, core: u8, kind: FaultKind, total: Ns, charged: Ns) {
        self.faults
            .entry(kind_label(kind))
            .or_default()
            .record(total);
        let residual = total.saturating_sub(charged);
        if residual > 0 {
            self.add(Stack::Fault(core, kind, None), residual);
        }
    }

    pub(crate) fn verb(&mut self, v: &VerbSpan) {
        self.add(Stack::Verb(v.core, v.class, v.write), v.wire());
    }

    pub(crate) fn reclaim(&mut self, dur: Ns) {
        self.add(Stack::Reclaim, dur);
    }

    /// Completed faults of `kind` (`"major"`, `"minor"`, `"zero_fill"`).
    pub fn fault_count(&self, kind: &str) -> u64 {
        self.faults.get(kind).map_or(0, LatencyHistogram::count)
    }

    /// Total virtual ns charged to `phase` (`"exception"`, `"check"`,
    /// `"alloc"`, `"fetch"`, `"map"`, `"reclaim"`).
    pub fn phase_sum(&self, phase: &str) -> Ns {
        self.phases.get(phase).map_or(0, |h| h.sum() as Ns)
    }

    /// The end-to-end latency histogram of fault `kind`, if one completed.
    pub fn histogram(&self, kind: &str) -> Option<&LatencyHistogram> {
        self.faults.get(kind)
    }

    /// The folded-stack output, one `stack value` line per stack sorted by
    /// stack text — the format flamegraph.pl and inferno consume directly.
    pub fn folded(&self) -> String {
        let mut lines: Vec<(String, u128)> =
            self.folded.iter().map(|(s, v)| (s.render(), *v)).collect();
        lines.sort();
        let mut out = String::new();
        for (stack, value) in lines {
            let _ = writeln!(out, "{stack} {value}");
        }
        out
    }

    /// Fault-latency histograms as a byte-stable JSON object keyed by fault
    /// kind. Each entry carries summary statistics plus the occupied bucket
    /// boundaries (`[low_ns, high_ns, count]`, bounds inclusive) so
    /// consumers can re-plot the distribution without the binary.
    pub fn histograms_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (kind, h)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{kind}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \
                 \"max\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [",
                h.count(),
                h.sum(),
                h.mean(),
                h.min(),
                h.max(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
            );
            for (j, (lo, hi, n)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{lo}, {hi}, {n}]");
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }

    /// Per-phase latency quantiles as a byte-stable JSON object keyed by
    /// phase label: count plus p50/p90/p99/p999 of the per-fault phase
    /// durations — the tail shape behind [`Profile::phase_sum`].
    pub fn phase_quantiles_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (phase, h)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{phase}\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"p999\": {}}}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanAssembler;
    use crate::trace::{TraceEvent, TraceSink};

    /// A sink with a profiling assembler attached.
    fn metered() -> (TraceSink, SpanAssembler) {
        let sink = TraceSink::recording();
        let spans = SpanAssembler::attach(&sink, true, false);
        (sink, spans)
    }

    #[test]
    fn disabled_registry_is_inert_and_emits_nothing() {
        let m = MetricsRegistry::disabled();
        m.inc("faults", 0);
        m.set_gauge("free", 7);
        m.record_sample(100);
        assert!(!m.is_enabled());
        assert_eq!(m.counter_total("faults"), 0);
        assert_eq!(m.gauge("free"), None);
        assert_eq!(m.samples(), 0);
        assert_eq!(m.next_sample_due(u64::MAX), None);
        assert_eq!(m.counters_json(), "{}");
        assert_eq!(m.gauges_json(), "{}");
        assert_eq!(m.series_json(), "{}");
    }

    #[test]
    fn counters_have_independent_lanes() {
        let m = MetricsRegistry::recording();
        m.inc("faults", 0);
        m.inc("faults", 2);
        m.add("faults", 2, 4);
        assert_eq!(m.counter_total("faults"), 6);
        assert_eq!(m.counter_lanes("faults"), vec![1, 0, 5]);
        assert_eq!(m.counter_total("absent"), 0);
        assert_eq!(m.counters_json(), "{\"faults\": [1, 0, 5]}");
    }

    #[test]
    fn sampler_ticks_at_the_interval_and_catches_up() {
        let m = MetricsRegistry::with_interval(100);
        m.set_gauge("free", 10);
        assert_eq!(m.next_sample_due(99), None, "first tick is due at 100");
        // The host drains at t=350: three ticks (100, 200, 300) are due.
        let mut ticks = Vec::new();
        while let Some(t) = m.next_sample_due(350) {
            m.record_sample(t);
            ticks.push(t);
        }
        assert_eq!(ticks, vec![100, 200, 300]);
        assert_eq!(m.samples(), 3);
        assert_eq!(m.series("free"), vec![(100, 10), (200, 10), (300, 10)]);
        assert_eq!(
            m.series_json(),
            "{\"free\": [[100, 10], [200, 10], [300, 10]]}"
        );
    }

    #[test]
    fn gauges_json_tracks_latest_values() {
        let m = MetricsRegistry::recording();
        m.set_gauge("lru", 3);
        m.set_gauge("free", 12);
        m.set_gauge("lru", 4);
        assert_eq!(m.gauge("lru"), Some(4));
        assert_eq!(m.gauges_json(), "{\"free\": 12, \"lru\": 4}");
    }

    #[test]
    fn clones_share_one_store() {
        let m = MetricsRegistry::recording();
        let m2 = m.clone();
        m.inc("evictions", 0);
        m2.inc("evictions", 0);
        assert_eq!(m.counter_total("evictions"), 2);
    }

    #[test]
    fn profile_folds_fault_spans_with_residual() {
        let (sink, spans) = metered();
        sink.emit(
            1_000,
            TraceEvent::FaultBegin {
                core: 1,
                vpn: 7,
                kind: FaultKind::Major,
            },
        );
        sink.emit(
            3_000,
            TraceEvent::FaultPhase {
                core: 1,
                phase: FaultPhase::Exception,
                dur: 500,
            },
        );
        sink.emit(
            3_000,
            TraceEvent::FaultPhase {
                core: 1,
                phase: FaultPhase::Fetch,
                dur: 1_200,
            },
        );
        sink.emit(3_000, TraceEvent::FaultEnd { core: 1, vpn: 7 });
        let p = spans.profile();
        assert_eq!(p.fault_count("major"), 1);
        assert_eq!(p.phase_sum("exception"), 500);
        assert_eq!(p.phase_sum("fetch"), 1_200);
        let folded = p.folded();
        assert!(folded.contains("core1;fault:major;exception 500\n"));
        assert!(folded.contains("core1;fault:major;fetch 1200\n"));
        // Total span = 2000, phases charged 1700 → 300 ns residual.
        assert!(folded.contains("core1;fault:major 300\n"));
        let h = p.histogram("major").expect("major histogram");
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2_000);
    }

    #[test]
    fn phase_quantiles_json_carries_tail_shape() {
        assert_eq!(Profile::default().phase_quantiles_json(), "{}");
        let (sink, spans) = metered();
        for (i, dur) in [100u64, 100, 900].iter().enumerate() {
            let core = i as u8;
            sink.emit(
                0,
                TraceEvent::FaultBegin {
                    core,
                    vpn: i as u64,
                    kind: FaultKind::Major,
                },
            );
            sink.emit(
                1_000,
                TraceEvent::FaultPhase {
                    core,
                    phase: FaultPhase::Fetch,
                    dur: *dur,
                },
            );
            sink.emit(
                1_000,
                TraceEvent::FaultEnd {
                    core,
                    vpn: i as u64,
                },
            );
        }
        let p = spans.profile();
        let json = p.phase_quantiles_json();
        assert!(json.starts_with("{\"fetch\": {\"count\": 3, \"p50\": "));
        assert!(json.contains("\"p90\": "));
        assert!(json.contains("\"p999\": "));
        assert_eq!(json, p.phase_quantiles_json(), "byte-stable");
        // The tail shape: p999 sits on the 900 ns sample, p50 on a 100.
        assert_eq!(
            json,
            "{\"fetch\": {\"count\": 3, \"p50\": 101, \"p90\": 896, \"p99\": 896, \
             \"p999\": 896}}"
        );
        assert_eq!(p.phase_sum("fetch"), 1_100);
    }

    #[test]
    fn profile_matches_rdma_verbs_fifo_per_qp() {
        let (sink, spans) = metered();
        for t in [100, 150] {
            sink.emit(
                t,
                TraceEvent::RdmaIssue {
                    class: ServiceClass::Fault,
                    write: false,
                    node: 0,
                    core: 2,
                    bytes: 4096,
                },
            );
        }
        for done in [400, 900] {
            sink.emit(
                done,
                TraceEvent::RdmaComplete {
                    class: ServiceClass::Fault,
                    write: false,
                    node: 0,
                    core: 2,
                    done,
                },
            );
        }
        // FIFO: (400-100) + (900-150) = 1050.
        assert!(spans
            .profile()
            .folded()
            .contains("core2;rdma:fault:read 1050\n"));
    }

    #[test]
    fn profile_folds_reclaim_episodes() {
        let (sink, spans) = metered();
        sink.emit(10, TraceEvent::ReclaimBegin { free: 2 });
        sink.emit(60, TraceEvent::ReclaimEnd { freed: 4 });
        sink.emit(100, TraceEvent::ReclaimBegin { free: 6 });
        sink.emit(130, TraceEvent::ReclaimEnd { freed: 1 });
        assert_eq!(spans.profile().folded(), "bg;reclaim 80\n");
    }

    #[test]
    fn unmetered_profile_emits_nothing() {
        let sink = TraceSink::recording();
        let spans = SpanAssembler::attach(&sink, false, true);
        sink.emit(
            5,
            TraceEvent::FaultBegin {
                core: 0,
                vpn: 1,
                kind: FaultKind::Minor,
            },
        );
        sink.emit(9, TraceEvent::FaultEnd { core: 0, vpn: 1 });
        let p = spans.profile();
        assert_eq!(p.folded(), "");
        assert_eq!(p.histograms_json(), "{}");
        assert_eq!(p.fault_count("minor"), 0);
    }

    #[test]
    fn histograms_json_is_byte_stable_and_carries_buckets() {
        let run = || {
            let (sink, spans) = metered();
            for (i, dur) in [2_000u64, 3_000, 2_500].iter().enumerate() {
                let t0 = i as Ns * 10_000;
                sink.emit(
                    t0,
                    TraceEvent::FaultBegin {
                        core: 0,
                        vpn: i as u64,
                        kind: FaultKind::Major,
                    },
                );
                sink.emit(
                    t0 + dur,
                    TraceEvent::FaultEnd {
                        core: 0,
                        vpn: i as u64,
                    },
                );
            }
            spans.profile().histograms_json()
        };
        let a = run();
        assert_eq!(a, run(), "histogram JSON must be byte-stable");
        assert!(a.contains("\"major\": {\"count\": 3"));
        assert!(a.contains("\"buckets\": [["));
    }
}
