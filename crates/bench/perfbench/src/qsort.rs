//! `qsort`: Figure 7(a)'s in-place quicksort on far memory.
//!
//! `QuicksortWorkload` sorts a seeded vector on Fastswap and on DiLOS with
//! readahead at 12.5 % local memory, dark. It uses the memory layers the
//! opposite way to `seqscan`: nearly every access hits a resident page, so
//! the page-table walk and hit path dominate, and most evictions are dirty
//! write-backs. Prefetching barely matters.
//!
//! Output check: the vector must come back sorted, with the element count,
//! wrapping sum and xor of the seeded input (a sortedness check alone
//! passes an all-zero vector).

use std::cell::Cell;
use std::time::Instant;

use dilos_apps::farmem::{FarArray, FarMemory, SystemKind};
use dilos_apps::quicksort::QuicksortWorkload;
use dilos_sim::{Observability, SplitMix64};

use crate::probe::{probed, Windows};
use crate::report::{Counters, Outcome, Rep};
use crate::spans::{Layer, Spans};
use crate::systems::Sys;
use crate::Workload;

/// Elements sorted per system.
pub const ELEMENTS: usize = 1 << 18;
/// Local memory as a share of the working set, percent (Figure 7(a)'s
/// 12.5 % column).
pub const RATIO: u32 = 13;
/// The systems sorted on.
pub const SYSTEMS: [SystemKind; 2] = [SystemKind::Fastswap, SystemKind::DilosReadahead];
/// Accesses per virtual latency sample: single accesses almost all hit at
/// one fixed cost, so the distribution is taken over runs of accesses.
pub const WINDOW: u32 = 256;

/// `(count, wrapping sum, xor)` of a vector.
type Digest = (usize, u64, u64);

/// The `qsort` workload.
pub struct Qsort {
    wl: QuicksortWorkload,
    expected: Digest,
    /// Accesses the sort makes per repetition (deterministic for a seed;
    /// counted by the probed pass that precedes the timed ones).
    ops: Cell<u64>,
}

impl Qsort {
    /// Inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        let wl = QuicksortWorkload {
            elements: ELEMENTS,
            seed,
        };
        // The values `QuicksortWorkload::populate` writes.
        let mut rng = SplitMix64::new(seed);
        let expected = (0..ELEMENTS).fold((0, 0u64, 0u64), |(n, s, x), _| {
            let v = rng.next_u64() >> 1;
            (n + 1, s.wrapping_add(v), x ^ v)
        });
        Self {
            wl,
            expected,
            ops: Cell::new(0),
        }
    }

    /// Boots `kind` and populates the vector; returns the system, the
    /// vector and the host seconds taken.
    fn set_up(&self, kind: SystemKind, sp: &mut Spans) -> (Sys, FarArray, f64) {
        let t = Instant::now();
        let mut sys = sp.time(Layer::Boot, |_| {
            Sys::boot(kind, ELEMENTS * 8 / 4096, RATIO, Observability::none())
        });
        let arr = sp.time(Layer::Populate, |_| self.wl.populate(sys.mem()));
        (sys, arr, t.elapsed().as_secs_f64())
    }
}

/// Reads the vector back; returns its digest and whether it is sorted.
fn read_back(mem: &mut dyn FarMemory, arr: FarArray) -> (Digest, bool) {
    let mut chunk = vec![0u64; 512];
    let (mut digest, mut sorted, mut prev) = ((0, 0u64, 0u64), true, 0u64);
    let mut i = 0;
    while i < arr.len() {
        let n = chunk.len().min(arr.len() - i);
        arr.read_range(mem, 0, i, &mut chunk[..n]);
        for &v in &chunk[..n] {
            sorted &= v >= prev;
            prev = v;
            digest = (digest.0 + 1, digest.1.wrapping_add(v), digest.2 ^ v);
        }
        i += n;
    }
    (digest, sorted)
}

impl Workload for Qsort {
    fn setup(&self) -> f64 {
        SYSTEMS
            .into_iter()
            .map(|kind| self.set_up(kind, &mut Spans::off()).2)
            .sum()
    }

    fn window(&self) -> u32 {
        WINDOW
    }

    fn rep(
        &self,
        sp: &mut Spans,
        mut virt: Option<&mut Windows>,
        c: &mut Counters,
        out: &mut Outcome,
    ) -> Rep {
        let mut rep = Rep::default();
        let problems = out.problems.len();
        let seen = virt.as_deref().map(Windows::accesses);
        for kind in SYSTEMS {
            let (mut sys, arr, setup_s) = self.set_up(kind, sp);
            rep.setup_s += setup_s;
            // Layer counters cover the measured phase only.
            let before = sp
                .is_on()
                .then(|| sp.time(Layer::Introspect, |_| sys.counters()));

            let family = sys.family();
            let t = Instant::now();
            sp.enter(Layer::Sort);
            let virt_ns = probed(sys.mem(), family, sp, virt.as_deref_mut(), |m| {
                self.wl.sort(m, arr)
            });
            sp.exit();
            sp.time(Layer::Quiesce, |_| sys.mem().trace_digest());
            rep.measured_s += t.elapsed().as_secs_f64();
            if let Some(w) = virt.as_deref_mut() {
                w.cut();
            }
            rep.virt_ns += virt_ns;

            let (digest, sorted) = sp.time(Layer::Verify, |_| read_back(sys.mem(), arr));
            let ok = sorted && digest == self.expected;
            out.check(ok, || {
                format!(
                    "qsort on {}: sorted {sorted}, (count, sum, xor) {digest:?}, expected {:?}",
                    kind.label(),
                    self.expected
                )
            });
            if let Some(before) = before {
                sp.time(Layer::Introspect, |_| c.add_delta(&sys.counters(), &before));
            }
        }
        if let (Some(before), Some(w)) = (seen, virt) {
            self.ops.set(w.accesses() - before);
        }
        rep.ops = self.ops.get();
        if out.problems.len() > problems {
            rep.failed = rep.ops;
        }
        rep
    }
}
