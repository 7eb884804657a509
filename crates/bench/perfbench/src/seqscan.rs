//! `seqscan`: sequential stamped read passes on the Tables 1 & 3 systems.
//!
//! Each system (Fastswap, DiLOS no-prefetch / readahead / trend-based) is
//! booted dark, populated with a working set of about 8× its local memory
//! (13 % ratio), and then read sequentially with 4 KiB strides, as
//! `SeqWorkload::read_pass` reads it for Tables 1–3. The seed sets the
//! stamps and the region's size. Almost every access faults or waits on a
//! prefetch: the workload exercises the fault path, the prefetchers,
//! rdma/fabric/memnode/store and the calendar, and its evictions are clean.

use std::time::Instant;

use dilos_apps::farmem::{FarMemory, SystemKind};
use dilos_sim::{Observability, SplitMix64, PAGE_SIZE};

use crate::probe::{probed, Windows};
use crate::report::{Counters, Outcome, Rep};
use crate::spans::{Layer, Spans};
use crate::systems::{id, Sys, TAB01};
use crate::Workload;

/// Fewest pages in each system's working set; the seed adds up to 1/32
/// more.
pub const PAGES: usize = 16_384;
/// Local memory as a share of the working set, percent (tab01's 12.5 %).
pub const RATIO: u32 = 13;
/// Sequential read passes per system.
pub const PASSES: usize = 2;

/// The seeded inputs of a stamped sequential scan.
#[derive(Debug, Clone)]
pub struct ScanInputs {
    /// Value written to (and expected back from) each page's first word.
    pub stamps: Vec<u64>,
    /// Read passes over the region.
    pub passes: usize,
}

impl ScanInputs {
    /// Seeded stamps for a region of `pages` pages plus a seeded share of
    /// up to 1/32 more, read `passes` times.
    pub fn seeded(seed: u64, pages: usize, passes: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let pages = pages + rng.gen_range(pages as u64 / 32) as usize;
        let stamps = (0..pages).map(|_| rng.next_u64()).collect();
        Self { stamps, passes }
    }

    /// Tables 1 & 3's inputs: stamp `p ^ 0x5A5A` on page `p`, one pass
    /// (what `SeqWorkload` writes and reads).
    pub fn tab01(pages: usize) -> Self {
        Self {
            stamps: (0..pages as u64).map(|p| p ^ 0x5A5A).collect(),
            passes: 1,
        }
    }

    /// Pages in the region.
    pub fn pages(&self) -> usize {
        self.stamps.len()
    }

    /// Accesses in the read passes.
    pub fn accesses(&self) -> u64 {
        (self.pages() * self.passes) as u64
    }

    /// Boots `kind` sized for this region under `obs` and populates it;
    /// returns the system, the region's base and the host seconds taken.
    pub fn set_up(&self, kind: SystemKind, obs: Observability, sp: &mut Spans) -> (Sys, u64, f64) {
        let t = Instant::now();
        let mut sys = sp.time(Layer::Boot, |_| Sys::boot(kind, self.pages(), RATIO, obs));
        let base = sp.time(Layer::Populate, |_| self.populate(sys.mem()));
        (sys, base, t.elapsed().as_secs_f64())
    }

    /// Allocates the region and writes every stamp; returns its base.
    pub fn populate(&self, mem: &mut dyn FarMemory) -> u64 {
        let base = mem.alloc(self.pages() * PAGE_SIZE);
        for (p, &s) in self.stamps.iter().enumerate() {
            mem.write_u64(0, base + (p * PAGE_SIZE) as u64, s);
        }
        base
    }

    /// The read passes; returns the number of pages whose stamp came back
    /// wrong.
    pub fn scan(&self, mem: &mut dyn FarMemory, base: u64) -> u64 {
        let mut bad = 0;
        for _ in 0..self.passes {
            for (p, &s) in self.stamps.iter().enumerate() {
                if mem.read_u64(0, base + (p * PAGE_SIZE) as u64) != s {
                    bad += 1;
                }
            }
        }
        bad
    }
}

/// The `seqscan` workload.
pub struct Seqscan {
    inputs: ScanInputs,
}

impl Seqscan {
    /// Inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            inputs: ScanInputs::seeded(seed, PAGES, PASSES),
        }
    }
}

impl Workload for Seqscan {
    fn setup(&self) -> f64 {
        TAB01
            .into_iter()
            .map(|kind| {
                self.inputs
                    .set_up(kind, Observability::none(), &mut Spans::off())
                    .2
            })
            .sum()
    }

    fn rep(
        &self,
        sp: &mut Spans,
        mut virt: Option<&mut Windows>,
        c: &mut Counters,
        _out: &mut Outcome,
    ) -> Rep {
        let inp = &self.inputs;
        let mut rep = Rep::default();
        for kind in TAB01 {
            let (mut sys, base, setup_s) = inp.set_up(kind, Observability::none(), sp);
            rep.setup_s += setup_s;
            // Layer counters cover the measured phase only.
            let before = sp
                .is_on()
                .then(|| sp.time(Layer::Introspect, |_| sys.counters()));

            let family = sys.family();
            let v0 = sys.mem().now(0);
            let t = Instant::now();
            sp.enter(Layer::Pass);
            let bad = probed(sys.mem(), family, sp, virt.as_deref_mut(), |m| {
                inp.scan(m, base)
            });
            sp.exit();
            let virt_ns = sys.mem().now(0) - v0;
            sp.time(Layer::Quiesce, |_| sys.mem().trace_digest());
            rep.measured_s += t.elapsed().as_secs_f64();
            if let Some(w) = virt.as_deref_mut() {
                w.cut();
            }

            rep.ops += inp.accesses();
            rep.failed += bad;
            rep.virt_ns += virt_ns;
            if let Some(before) = before {
                sp.time(Layer::Introspect, |_| c.add_delta(&sys.counters(), &before));
            }
            let bytes = inp.accesses() as f64 * PAGE_SIZE as f64;
            c.add(
                &format!("apps.seqrw.virt_read_gbps.{}", id(kind)),
                bytes / virt_ns.max(1) as f64,
            );
        }
        rep
    }
}
