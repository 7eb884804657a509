//! `observed`: the tab01 inputs on every observer rung above dark.
//!
//! The Tables 1 & 3 systems run a scan of 4 096 pages, plus a seeded share
//! of up to 1/32 more, at 13 % local memory on each rung of the
//! observability ladder: `none`, `tracing`, `audited`, `metered`,
//! `tracing().with_timeline()`. Observers do most of the host work here,
//! so this is the workload that measures the trace, audit, metrics and
//! causal layers.
//!
//! Correctness rests on the trace digests. Once per run, the default
//! inputs (tab01's 4 096 pages and stamps) must reproduce the pinned tab01
//! digests on every recording rung. In every repetition, the seeded inputs
//! must give each system the same digest on every recording rung as on the
//! `tracing` rung, and the audited rung must audit clean.

use std::time::Instant;

use dilos_apps::farmem::SystemKind;
use dilos_sim::Observability;

use crate::probe::{probed, Windows};
use crate::report::{Counters, Outcome, Rep};
use crate::seqscan::{ScanInputs, RATIO};
use crate::spans::{Layer, Spans};
use crate::systems::{Sys, TAB01};
use crate::Workload;

/// Pages in tab01's working set; the seeded inputs add up to 1/32 more.
pub const PAGES: usize = 4_096;

/// The tab01 digests pinned at the default inputs.
pub const PINNED: [(SystemKind, u64); 4] = [
    (SystemKind::Fastswap, 0x3bee_b03d_3dec_5802),
    (SystemKind::DilosNoPrefetch, 0x1673_1fc2_dfab_62cb),
    (SystemKind::DilosReadahead, 0x19ed_7dbb_10f8_648a),
    (SystemKind::DilosTrend, 0x3678_78bd_711b_c5bf),
];

/// A fresh observability bundle for one of `Layer::RUNGS`.
pub fn bundle(rung: Layer) -> Observability {
    match rung {
        Layer::RungTracing => Observability::tracing(),
        Layer::RungAudited => Observability::audited(),
        Layer::RungMetered => Observability::metered(),
        Layer::RungTimeline => Observability::tracing().with_timeline(),
        _ => Observability::none(),
    }
}

/// The `observed` workload.
pub struct Observed {
    inputs: ScanInputs,
}

impl Observed {
    /// Inputs from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            inputs: ScanInputs::seeded(seed, PAGES, 1),
        }
    }
}

/// One boot-populate-scan-digest run; returns `(digest, audit findings,
/// stamp mismatches)`.
fn scan_once(inp: &ScanInputs, kind: SystemKind, obs: Observability) -> (u64, Vec<String>, u64) {
    let mut sys = Sys::boot(kind, inp.pages(), RATIO, obs);
    let base = inp.populate(sys.mem());
    let bad = inp.scan(sys.mem(), base);
    let findings = sys.mem().audit_report();
    (sys.mem().trace_digest(), findings, bad)
}

impl Workload for Observed {
    fn setup(&self) -> f64 {
        let mut total = 0.0;
        for rung in Layer::RUNGS {
            for kind in TAB01 {
                let (_, _, s) = self.inputs.set_up(kind, bundle(rung), &mut Spans::off());
                total += s;
            }
        }
        total
    }

    fn once(&self, out: &mut Outcome) {
        let tab01 = ScanInputs::tab01(PAGES);
        for rung in &Layer::RUNGS[1..] {
            for (kind, pinned) in PINNED {
                let (digest, findings, bad) = scan_once(&tab01, kind, bundle(*rung));
                out.check(digest == pinned && findings.is_empty() && bad == 0, || {
                    format!(
                        "observed, default inputs, {}: {} digest {digest:#018x} \
                         (pinned {pinned:#018x}), {} audit findings, {bad} bad stamps",
                        rung.name(),
                        kind.label(),
                        findings.len()
                    )
                });
            }
        }
    }

    fn rep(
        &self,
        sp: &mut Spans,
        mut virt: Option<&mut Windows>,
        c: &mut Counters,
        out: &mut Outcome,
    ) -> Rep {
        let inp = &self.inputs;
        let mut rep = Rep::default();
        let mut reference = [0u64; TAB01.len()];
        for rung in Layer::RUNGS {
            // The tracing rung is the reference: its digests, its counters,
            // and the virtual latencies (the same on every rung).
            let reference_rung = rung == Layer::RungTracing;
            sp.enter(rung);
            for (i, kind) in TAB01.into_iter().enumerate() {
                let obs = bundle(rung);
                let (mut sys, base, setup_s) = inp.set_up(kind, obs.clone(), sp);
                rep.setup_s += setup_s;
                let before = (reference_rung && sp.is_on())
                    .then(|| sp.time(Layer::Introspect, |_| sys.counters()));

                let family = sys.family();
                let v0 = sys.mem().now(0);
                let t = Instant::now();
                sp.enter(Layer::Pass);
                let v = virt.as_deref_mut().filter(|_| reference_rung);
                let bad = probed(sys.mem(), family, sp, v, |m| inp.scan(m, base));
                sp.exit();
                let virt_ns = sys.mem().now(0) - v0;
                let findings = if obs.audit() {
                    sp.time(Layer::Audit, |_| sys.mem().audit_report())
                } else {
                    Vec::new()
                };
                let digest = sp.time(Layer::Quiesce, |_| sys.mem().trace_digest());
                rep.measured_s += t.elapsed().as_secs_f64();
                if let Some(w) = virt.as_deref_mut() {
                    w.cut();
                }

                rep.ops += inp.accesses();
                rep.failed += bad;
                if reference_rung {
                    reference[i] = digest;
                    rep.virt_ns += virt_ns;
                    c.add("sim.trace.events", obs.trace().count() as f64);
                }
                if let Some(before) = before {
                    sp.time(Layer::Introspect, |_| c.add_delta(&sys.counters(), &before));
                }
                let expected = if rung == Layer::RungNone {
                    0
                } else {
                    reference[i]
                };
                out.check(digest == expected && findings.is_empty(), || {
                    format!(
                        "observed, {}: {} digest {digest:#018x}, expected \
                         {expected:#018x}, audit findings {findings:?}",
                        rung.name(),
                        kind.label()
                    )
                });
            }
            sp.exit();
        }
        rep
    }
}
