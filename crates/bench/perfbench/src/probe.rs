//! The instrumented view of a far-memory system.
//!
//! [`Probe`] wraps a `&mut dyn FarMemory` and forwards every call. Around
//! `FarMemory::{read,write}` it can record two things:
//!
//! * a host span per access, classified by the fault-counter delta the
//!   access caused (hit, major, minor, zero-fill) — the traced run;
//! * the access's virtual latency into a [`Windows`] recorder — the pass
//!   the virtual percentiles come from.
//!
//! The timed pass never goes through a probe, so its host time carries no
//! per-access instrumentation.

use std::time::Instant;

use dilos_apps::farmem::{FarMemory, Introspect};
use dilos_sim::{LatencyHistogram, Ns};

use crate::spans::{Layer, Spans};

/// Picoseconds per virtual ns.
pub const PS_PER_NS: u64 = 1_000;

/// Distribution of virtual latencies over windows of consecutive accesses.
/// Windows tile the virtual timeline of a run: each one lasts from the end
/// of the previous window's last access to the end of its own last access,
/// so it includes the application compute (comparisons, say) that preceded
/// its accesses. A window of 1 is one iteration of the application loop:
/// its compute plus its access.
///
/// Latencies are recorded in picoseconds. `LatencyHistogram::quantile`
/// interpolates inside the sample's log bucket and returns whole units, so
/// in picoseconds its estimate keeps a sub-ns part. On the scans that part
/// carries the whole effect of the seed: their latencies take a few fixed
/// values, and a larger or smaller region changes only how many samples
/// each value has.
#[derive(Debug, Clone)]
pub struct Windows {
    size: u32,
    open: u32,
    start: Ns,
    last_end: Option<Ns>,
    accesses: u64,
    hist: LatencyHistogram,
}

impl Windows {
    /// A recorder over windows of `size` accesses.
    pub fn new(size: u32) -> Self {
        Self {
            size: size.max(1),
            open: 0,
            start: 0,
            last_end: None,
            accesses: 0,
            hist: LatencyHistogram::new(),
        }
    }

    /// Notes one access that started at `t0` and ended at `t1`.
    pub fn access(&mut self, t0: Ns, t1: Ns) {
        self.accesses += 1;
        if self.open == 0 {
            self.start = self.last_end.unwrap_or(t0);
        }
        self.last_end = Some(t1);
        self.open += 1;
        if self.open == self.size {
            self.open = 0;
            self.hist.record((t1 - self.start) * PS_PER_NS);
        }
    }

    /// Drops a partly filled window and starts a new timeline (call
    /// between independent runs).
    pub fn cut(&mut self) {
        self.open = 0;
        self.last_end = None;
    }

    /// Accesses seen.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The recorded window latencies, in picoseconds.
    pub fn hist(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Which span family a probed system's accesses belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// DiLOS: hit / major / minor. (Measured phases touch only populated
    /// pages, so no access zero-fills.)
    Dilos,
    /// Fastswap: hit / fault.
    Fastswap,
}

/// A forwarding wrapper that records spans and virtual latencies.
pub struct Probe<'a> {
    inner: &'a mut dyn FarMemory,
    family: Family,
    spans: &'a mut Spans,
    virt: Option<&'a mut Windows>,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`; spans are recorded only if `spans` is on.
    pub fn new(
        inner: &'a mut dyn FarMemory,
        family: Family,
        spans: &'a mut Spans,
        virt: Option<&'a mut Windows>,
    ) -> Self {
        Self {
            inner,
            family,
            spans,
            virt,
        }
    }

    fn access(&mut self, f: impl FnOnce(&mut dyn FarMemory)) {
        let v0 = self.inner.now(0);
        if self.spans.is_on() {
            let before = self.inner.fault_counters();
            let t = Instant::now();
            f(&mut *self.inner);
            let ns = t.elapsed().as_nanos() as u64;
            let after = self.inner.fault_counters();
            self.spans.leaf(classify(self.family, before, after), ns);
        } else {
            f(&mut *self.inner);
        }
        if let Some(w) = self.virt.as_deref_mut() {
            w.access(v0, self.inner.now(0));
        }
    }
}

fn classify(family: Family, b: (u64, u64, u64), a: (u64, u64, u64)) -> Layer {
    match family {
        Family::Fastswap if a == b => Layer::FsHit,
        Family::Fastswap => Layer::FsFault,
        Family::Dilos if a.0 > b.0 => Layer::NodeMajor,
        Family::Dilos if a.1 > b.1 => Layer::NodeMinor,
        Family::Dilos => Layer::NodeHit,
    }
}

/// Runs `f` on `mem` directly when nothing is recorded, or through a
/// [`Probe`] otherwise.
pub fn probed<R>(
    mem: &mut dyn FarMemory,
    family: Family,
    spans: &mut Spans,
    virt: Option<&mut Windows>,
    f: impl FnOnce(&mut dyn FarMemory) -> R,
) -> R {
    if !spans.is_on() && virt.is_none() {
        return f(mem);
    }
    let mut p = Probe::new(mem, family, spans, virt);
    f(&mut p)
}

/// Only the data path goes through a probe; the workloads read digests,
/// audits and counters from the system itself.
impl Introspect for Probe<'_> {
    fn fault_counts(&self) -> (u64, u64) {
        self.inner.fault_counts()
    }
    fn net_bytes(&self) -> (u64, u64) {
        self.inner.net_bytes()
    }
}

impl FarMemory for Probe<'_> {
    fn alloc(&mut self, len: usize) -> u64 {
        self.inner.alloc(len)
    }
    fn release(&mut self, va: u64, len: usize) {
        self.inner.release(va, len);
    }
    fn read(&mut self, core: usize, va: u64, buf: &mut [u8]) {
        self.access(|m| m.read(core, va, buf));
    }
    fn write(&mut self, core: usize, va: u64, buf: &[u8]) {
        self.access(|m| m.write(core, va, buf));
    }
    fn compute(&mut self, core: usize, ns: Ns) {
        self.inner.compute(core, ns);
    }
    fn now(&self, core: usize) -> Ns {
        self.inner.now(core)
    }
    fn barrier(&mut self) -> Ns {
        self.inner.barrier()
    }
    fn max_now(&self) -> Ns {
        self.inner.max_now()
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_the_timeline() {
        let mut w = Windows::new(2);
        w.access(10, 20);
        w.access(25, 40);
        w.access(50, 60);
        w.access(70, 75);
        assert_eq!(w.hist().count(), 2);
        assert_eq!((w.hist().min(), w.hist().max()), (30_000, 35_000));
        w.cut();
        w.access(100, 104);
        w.access(104, 110);
        assert_eq!(w.hist().count(), 3);
        assert_eq!(w.hist().min(), 10_000);
    }
}
