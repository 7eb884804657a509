//! Host-time spans recorded around calls into each layer's public API.
//!
//! Spans nest: a span's *self* time is its duration minus the time its
//! child spans cover, so the self times of every layer add up to the root
//! span's duration. Spans are aggregated per layer as they close (count,
//! total, self), which keeps the recorder allocation-free on the hot path;
//! a run of tens of millions of accesses records tens of millions of spans.
//!
//! A recorder built with [`Spans::off`] ignores every call, so the timed
//! (untraced) pass shares its code with the traced one at the cost of one
//! predictable branch per layer boundary.

use std::time::Instant;

/// The layers spans are recorded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole traced pass; its self time is the harness's own work.
    Run,
    /// `SystemSpec::boot` / `ServingCluster::boot`.
    Boot,
    /// Populating the working set through `FarMemory::write`.
    Populate,
    /// A DiLOS access that took no fault (`core::pt` walk + frame copy).
    NodeHit,
    /// A DiLOS access that took a major fault.
    NodeMajor,
    /// A DiLOS access that waited on an in-flight fetch (minor fault).
    NodeMinor,
    /// A Fastswap access that took no fault.
    FsHit,
    /// A Fastswap access that faulted.
    FsFault,
    /// `Introspect::trace_digest`: quiesces the calendar first.
    Quiesce,
    /// `Introspect::audit_report` / `ServingCluster::audit_reports`.
    Audit,
    /// `bench::loadgen::drive`.
    Drive,
    /// Counter reads: `Dilos::{stats,rdma}`, `Fastswap::{stats,rdma}`.
    Introspect,
    /// `QuicksortWorkload::sort`; self time is the sort's own logic.
    Sort,
    /// The sequential read loop; self time is the loop and stamp checks.
    Pass,
    /// Output checks after the measured phase.
    Verify,
    /// The `observed` workload's dark rung.
    RungNone,
    /// The `tracing` rung.
    RungTracing,
    /// The `audited` rung.
    RungAudited,
    /// The `metered` rung.
    RungMetered,
    /// The `tracing().with_timeline()` rung.
    RungTimeline,
}

const LAYERS: usize = 20;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Run,
        Layer::Boot,
        Layer::Populate,
        Layer::NodeHit,
        Layer::NodeMajor,
        Layer::NodeMinor,
        Layer::FsHit,
        Layer::FsFault,
        Layer::Quiesce,
        Layer::Audit,
        Layer::Drive,
        Layer::Introspect,
        Layer::Sort,
        Layer::Pass,
        Layer::Verify,
        Layer::RungNone,
        Layer::RungTracing,
        Layer::RungAudited,
        Layer::RungMetered,
        Layer::RungTimeline,
    ];

    /// The observer rungs, cheapest first.
    pub const RUNGS: [Layer; 5] = [
        Layer::RungNone,
        Layer::RungTracing,
        Layer::RungAudited,
        Layer::RungMetered,
        Layer::RungTimeline,
    ];

    /// The layer's name: the prefix of its per-layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "bench.harness",
            Layer::Boot => "setup.boot",
            Layer::Populate => "setup.populate",
            Layer::NodeHit => "core.node.hit",
            Layer::NodeMajor => "core.node.major",
            Layer::NodeMinor => "core.node.minor",
            Layer::FsHit => "baselines.fastswap.hit",
            Layer::FsFault => "baselines.fastswap.fault",
            Layer::Quiesce => "sim.sched.quiesce",
            Layer::Audit => "core.audit.report",
            Layer::Drive => "bench.loadgen.drive",
            Layer::Introspect => "bench.introspect",
            Layer::Sort => "apps.quicksort.sort",
            Layer::Pass => "apps.seqscan.pass",
            Layer::Verify => "bench.verify",
            Layer::RungNone => "obs.none",
            Layer::RungTracing => "obs.tracing",
            Layer::RungAudited => "obs.audited",
            Layer::RungMetered => "obs.metered",
            Layer::RungTimeline => "obs.timeline",
        }
    }
}

/// Aggregate of every closed span of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, host ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), host ns.
    pub self_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// The span recorder.
pub struct Spans {
    on: bool,
    stack: Vec<Frame>,
    agg: [Agg; LAYERS],
}

impl Spans {
    /// A recording span recorder.
    pub fn on() -> Self {
        Self {
            on: true,
            stack: Vec::with_capacity(8),
            agg: [Agg::default(); LAYERS],
        }
    }

    /// A recorder that ignores every call (the untraced pass).
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span of `layer` nested in the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        if self.on {
            self.stack.push(Frame {
                layer,
                start: Instant::now(),
                child_ns: 0,
            });
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced enter/exit pair is a bug
    /// in the benchmark).
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let f = self.stack.pop().expect("exit without a matching enter");
        let ns = f.start.elapsed().as_nanos() as u64;
        self.close(f.layer, ns, f.child_ns);
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter(layer);
        let r = f(self);
        self.exit();
        r
    }

    /// Records an already-measured leaf span of `ns` host nanoseconds
    /// inside the innermost open span.
    pub fn leaf(&mut self, layer: Layer, ns: u64) {
        if self.on {
            self.close(layer, ns, 0);
        }
    }

    fn close(&mut self, layer: Layer, ns: u64, child_ns: u64) {
        let a = &mut self.agg[layer as usize];
        a.count += 1;
        a.total_ns += ns;
        a.self_ns += ns.saturating_sub(child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    /// The aggregate of `layer`'s closed spans.
    pub fn get(&self, layer: Layer) -> Agg {
        self.agg[layer as usize]
    }

    /// Sum of every layer's self time, host ns.
    pub fn self_sum(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut sp = Spans::on();
        sp.time(Layer::Run, |sp| {
            sp.time(Layer::Boot, |sp| sp.leaf(Layer::NodeHit, 5));
            sp.leaf(Layer::NodeMajor, 7);
        });
        let run = sp.get(Layer::Run);
        assert_eq!(sp.self_sum(), run.total_ns);
        assert_eq!(sp.get(Layer::NodeHit).total_ns, 5);
        assert!(sp.get(Layer::Boot).total_ns >= 5);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut sp = Spans::off();
        sp.time(Layer::Run, |sp| sp.leaf(Layer::NodeHit, 5));
        assert_eq!(sp.self_sum(), 0);
    }
}
