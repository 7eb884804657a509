//! Booting the Tables 1 & 3 systems and reading their layer counters.

use dilos_apps::farmem::{FarMemory, SystemKind, SystemSpec};
use dilos_baselines::{Fastswap, FastswapConfig};
use dilos_core::Dilos;
use dilos_sim::{Ns, Observability, RdmaEndpoint, ServiceClass, PAGE_SIZE};

use crate::probe::Family;
use crate::report::Counters;

/// The Tables 1 & 3 systems, in the order tab01 boots them.
pub const TAB01: [SystemKind; 4] = [
    SystemKind::Fastswap,
    SystemKind::DilosNoPrefetch,
    SystemKind::DilosReadahead,
    SystemKind::DilosTrend,
];

/// Short metric id of a system kind.
pub fn id(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Fastswap => "fastswap",
        SystemKind::DilosNoPrefetch => "noprefetch",
        SystemKind::DilosReadahead => "readahead",
        SystemKind::DilosTrend => "trend",
        SystemKind::DilosTcp => "tcp",
        SystemKind::Aifm => "aifm",
    }
}

/// A booted system. Fastswap is held by value so its baseline-specific
/// counters stay reachable; the DiLOS variants come from
/// `SystemSpec::boot` and are reached through `Introspect::as_dilos`.
pub enum Sys {
    /// The Fastswap baseline.
    Fastswap(Box<Fastswap>),
    /// A DiLOS node.
    Dilos(Box<dyn FarMemory>),
}

impl Sys {
    /// Boots `kind` sized for `pages` pages of working set at `ratio` %
    /// local memory, exactly as `SystemSpec::for_working_set(..).boot()`.
    pub fn boot(kind: SystemKind, pages: usize, ratio: u32, obs: Observability) -> Self {
        let spec =
            SystemSpec::for_working_set(kind, (pages * PAGE_SIZE) as u64, ratio).observed(obs);
        match kind {
            // The same configuration `SystemSpec::boot` builds.
            SystemKind::Fastswap => Sys::Fastswap(Box::new(Fastswap::new(FastswapConfig {
                local_pages: spec.local_pages,
                remote_bytes: spec.remote_bytes,
                cores: spec.cores,
                obs: spec.obs,
                ..FastswapConfig::default()
            }))),
            _ => Sys::Dilos(spec.boot()),
        }
    }

    /// The data-path surface.
    pub fn mem(&mut self) -> &mut dyn FarMemory {
        match self {
            Sys::Fastswap(f) => f.as_mut(),
            Sys::Dilos(d) => d.as_mut(),
        }
    }

    /// The span family of this system's accesses.
    pub fn family(&self) -> Family {
        match self {
            Sys::Fastswap(_) => Family::Fastswap,
            Sys::Dilos(_) => Family::Dilos,
        }
    }

    /// This system's layer counters so far.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        self.count(&mut c);
        c
    }

    /// Adds this system's layer counters to `c`.
    fn count(&self, c: &mut Counters) {
        match self {
            Sys::Fastswap(f) => {
                let s = f.stats();
                c.add("baselines.fastswap.major", s.major_faults as f64);
                c.add("baselines.fastswap.minor", s.minor_faults as f64);
                c.add(
                    "baselines.fastswap.readahead_pages",
                    s.readahead_pages as f64,
                );
                c.add(
                    "baselines.fastswap.direct_reclaims",
                    s.direct_reclaims as f64,
                );
                c.add(
                    "baselines.fastswap.offloaded_reclaims",
                    s.offloaded_reclaims as f64,
                );
                count_endpoint(f.rdma(), f.max_now(), c);
            }
            Sys::Dilos(d) => {
                let n = d.as_dilos().expect("a DiLOS system");
                count_dilos(n, c);
                count_endpoint(&n.rdma(), n.max_now(), c);
            }
        }
    }
}

/// Adds a DiLOS node's fault, prefetch, page-manager and phase counters.
pub fn count_dilos(n: &Dilos, c: &mut Counters) {
    let s = n.stats();
    c.add("core.node.major", s.major_faults as f64);
    c.add("core.node.minor", s.minor_faults as f64);
    c.add("core.node.zero_fill", s.zero_fills as f64);
    c.add("core.node.local_hits", s.local_hits as f64);
    c.add("core.prefetch.issued", s.prefetch_issued as f64);
    c.add("core.prefetch.hits", s.prefetch_hits as f64);
    c.add("core.pagemgr.evictions", s.evictions as f64);
    c.add("core.pagemgr.writebacks", s.writebacks as f64);
    for (label, ns) in s.breakdown.sums() {
        c.add(&format!("core.node.phase.{label}_sum"), ns as f64);
    }
    c.add("core.node.phase.faults", s.breakdown.count as f64);
}

/// The verb and wire traffic the workloads make, as `(class, metric id,
/// direction)`: demand fetches and prefetches read from the memory node and
/// the cleaner writes to it. Guide and app traffic come from app-aware
/// guides and AIFM, which no workload runs.
pub const TRAFFIC: [(ServiceClass, &str, Dir); 3] = [
    (ServiceClass::Fault, "fault", Dir::Read),
    (ServiceClass::Prefetch, "prefetch", Dir::Read),
    (ServiceClass::Cleaner, "cleaner", Dir::Write),
];

/// Direction of a traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Memory node to compute node.
    Read,
    /// Compute node to memory node.
    Write,
}

/// `(verb counter, wire-byte counter)` names of a traffic class.
pub fn traffic_keys(id: &str, dir: Dir) -> (String, String) {
    match dir {
        Dir::Read => (
            format!("sim.rdma.{id}.reads"),
            format!("sim.fabric.{id}.rx_bytes"),
        ),
        Dir::Write => (
            format!("sim.rdma.{id}.writes"),
            format!("sim.fabric.{id}.tx_bytes"),
        ),
    }
}

/// Adds an endpoint's per-class verb counts and wire bytes, and its link
/// busy time over a virtual horizon of `horizon` ns.
pub fn count_endpoint(ep: &RdmaEndpoint, horizon: Ns, c: &mut Counters) {
    let fabric = ep.fabric();
    for (class, id, dir) in TRAFFIC {
        let (verbs, bytes) = traffic_keys(id, dir);
        let ops = ep.ops(class);
        let (n, b) = match dir {
            Dir::Read => (ops.reads, fabric.class_rx(class)),
            Dir::Write => (ops.writes, fabric.class_tx(class)),
        };
        c.add(&verbs, n as f64);
        c.add(&bytes, b as f64);
    }
    c.add("sim.fabric.link_busy_ns", fabric.link_busy() as f64);
    c.add("sim.fabric.horizon_ns", horizon as f64);
}
