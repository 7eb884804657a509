//! Causal request tracing: per-request span trees and their critical path.
//!
//! The aggregate [`Profile`](crate::metrics::Profile) answers "how much time
//! did faults spend in each phase"; this module answers "*which* phase
//! dominated *this* fault". Every demand fault, prefetch, and eviction is
//! assigned a stable [`ReqId`] at origin (see
//! [`TraceSink::begin_request`](crate::trace::TraceSink::begin_request)) and
//! the id rides the side band to observers: it is never folded into the
//! digest, never schedules calendar work, and never perturbs data-path
//! timing.
//!
//! The [`SpanAssembler`](crate::spans::SpanAssembler), armed by
//! [`Observability::with_timeline`](crate::Observability::with_timeline),
//! groups events by request id into [`RequestTrace`] records and hands each
//! record its paired verb spans; background reclaim episodes are kept
//! separately. [`critical_path`] then attributes each request's latency to
//! queueing / transfer / service / replay, so the tail report in
//! `dilos-bench` can name the dominant phase of the p99.9 exemplars instead
//! of an aggregate mean.

use crate::spans::VerbSpan;
use crate::time::Ns;
use crate::trace::{FaultKind, FaultPhase, ReqId, TraceEvent};
use std::collections::BTreeMap;

/// What kind of causal request a span tree describes, inferred from the
/// first kind-bearing event emitted under its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Demand fetch from remote memory.
    MajorFault,
    /// Handler waited on a page already in flight.
    MinorFault,
    /// First touch of an unbacked page.
    ZeroFill,
    /// Asynchronous fetch issued by readahead / the trend prefetcher.
    Prefetch,
    /// A resident page was evicted (background or direct reclaim).
    Evict,
    /// No kind-bearing event was seen (e.g. a bare verb).
    Other,
}

impl ReqKind {
    /// Stable label used by exporters and reports.
    pub fn label(self) -> &'static str {
        match self {
            ReqKind::MajorFault => "major-fault",
            ReqKind::MinorFault => "minor-fault",
            ReqKind::ZeroFill => "zero-fill",
            ReqKind::Prefetch => "prefetch",
            ReqKind::Evict => "evict",
            ReqKind::Other => "other",
        }
    }
}

/// The assembled span tree of one request: every event emitted under its
/// id, in emission order, plus the derived envelope.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    pub id: ReqId,
    pub kind: ReqKind,
    /// Origin core (first event that carries one), 0 if none did.
    pub core: u8,
    /// Subject page (first event that carries one), u64::MAX if none did.
    pub vpn: u64,
    /// Virtual time of the first event.
    pub begin: Ns,
    /// Latest virtual time covered: event stamps and `done` horizons of
    /// deferred completions / link transfers extend it.
    pub end: Ns,
    /// Every event attributed to this request, in emission order.
    pub events: Vec<(Ns, TraceEvent)>,
    /// The verbs this request posted, paired, in completion order.
    pub verbs: Vec<VerbSpan>,
}

impl RequestTrace {
    /// End-to-end latency of the request on the virtual clock.
    pub fn total(&self) -> Ns {
        self.end.saturating_sub(self.begin)
    }
}

/// Where one request's latency went. Components are disjoint and
/// `queueing + transfer + service + replay + other == total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    pub total: Ns,
    /// Waiting for resources: frame-allocation stall of a major fault, or
    /// the whole wait of a minor fault riding an in-flight fetch.
    pub queueing: Ns,
    /// Time on the wire / in remote service (fetch phase, verb spans).
    pub transfer: Ns,
    /// Handler CPU work: exception entry, PTE checks, map/bookkeeping, and
    /// reclaim work charged inside the fault path.
    pub service: Ns,
    /// Portion overlapping a memnode crash-recovery replay window.
    pub replay: Ns,
    /// Residual not explained by the above (clock gaps).
    pub other: Ns,
}

impl PhaseBreakdown {
    /// The dominant component's name (ties broken in field order).
    pub fn dominant(&self) -> &'static str {
        let parts = [
            (self.queueing, "queueing"),
            (self.transfer, "transfer"),
            (self.service, "service"),
            (self.replay, "replay"),
            (self.other, "other"),
        ];
        let mut best = (0, "none");
        for (v, name) in parts {
            if v > best.0 {
                best = (v, name);
            }
        }
        best.1
    }
}

/// Attributes `r`'s end-to-end latency to phases.
///
/// Major faults use their `FaultPhase` durations (alloc → queueing, fetch →
/// transfer, exception/check/map/reclaim → service). Minor faults are pure
/// queueing (the handler waits on an in-flight fetch). Zero fills are pure
/// service. Prefetches split into wire time (the request's verb spans) and
/// queueing (landing deferral). Evictions split into writeback wire time
/// and service. Any window that overlaps recovery-replay events moves its
/// transfer share to `replay`.
pub fn critical_path(r: &RequestTrace) -> PhaseBreakdown {
    let total = r.total();
    let mut b = PhaseBreakdown {
        total,
        ..PhaseBreakdown::default()
    };
    let mut saw_phase = false;
    for (_, ev) in &r.events {
        if let TraceEvent::FaultPhase { phase, dur, .. } = ev {
            saw_phase = true;
            match phase {
                FaultPhase::Alloc => b.queueing = b.queueing.saturating_add(*dur),
                FaultPhase::Fetch => b.transfer = b.transfer.saturating_add(*dur),
                FaultPhase::Exception
                | FaultPhase::Check
                | FaultPhase::Map
                | FaultPhase::Reclaim => b.service = b.service.saturating_add(*dur),
            }
        }
    }
    if !saw_phase {
        let wire = r
            .verbs
            .iter()
            .fold(0, |sum: Ns, v| sum.saturating_add(v.wire()));
        match r.kind {
            ReqKind::MinorFault => b.queueing = total,
            ReqKind::ZeroFill | ReqKind::Other => b.service = total,
            ReqKind::Prefetch | ReqKind::Evict => {
                b.transfer = wire.min(total);
                if r.kind == ReqKind::Prefetch {
                    b.queueing = total.saturating_sub(b.transfer);
                } else {
                    b.service = total.saturating_sub(b.transfer);
                }
            }
            // A phase-less major fault (a baseline that does not emit
            // phases): charge wire time to transfer, the rest to service.
            ReqKind::MajorFault => {
                b.transfer = wire.min(total);
                b.service = total.saturating_sub(b.transfer);
            }
        }
    }
    // A crash-recovery replay observed inside the window converts the
    // transfer share into replay stall: the fetch was not moving bytes, it
    // was waiting for the memnode to redo its intent log.
    if r.events.iter().any(|(_, ev)| {
        matches!(
            ev,
            TraceEvent::NodeCrash { .. }
                | TraceEvent::RecoveryReplay { .. }
                | TraceEvent::RecoveryComplete { .. }
        )
    }) {
        b.replay = b.transfer;
        b.transfer = 0;
    }
    let explained = b
        .queueing
        .saturating_add(b.transfer)
        .saturating_add(b.service)
        .saturating_add(b.replay);
    b.other = total.saturating_sub(explained);
    b
}

/// The request-tree half of the span assembler: every event attributed to
/// a request, grouped by id, plus the background reclaim episodes.
#[derive(Debug, Default)]
pub(crate) struct RequestLog {
    pub(crate) reqs: BTreeMap<ReqId, RequestTrace>,
    /// Paired verbs in completion order, tagged with their request. Kept
    /// in one flat list rather than a `Vec` per request: most requests post
    /// one verb, and a per-request list would cost an allocation each.
    verbs: Vec<(ReqId, VerbSpan)>,
    /// Background reclaim episodes: (begin, end, frames freed).
    pub(crate) episodes: Vec<(Ns, Ns, u32)>,
}

impl RequestLog {
    /// Appends `ev` to `owner`'s span tree, with the `verb` it completed if
    /// any. Unattributed events stay out.
    pub(crate) fn record(
        &mut self,
        t: Ns,
        ev: &TraceEvent,
        owner: Option<ReqId>,
        verb: Option<VerbSpan>,
    ) {
        let Some(id) = owner else { return };
        let r = self.reqs.entry(id).or_insert_with(|| RequestTrace {
            id,
            kind: ReqKind::Other,
            core: 0,
            vpn: u64::MAX,
            begin: t,
            end: t,
            events: Vec::new(),
            verbs: Vec::new(),
        });
        r.end = r.end.max(t);
        match *ev {
            TraceEvent::FaultBegin { core, vpn, kind } => {
                if r.kind == ReqKind::Other {
                    r.kind = match kind {
                        FaultKind::Major => ReqKind::MajorFault,
                        FaultKind::Minor => ReqKind::MinorFault,
                        FaultKind::ZeroFill => ReqKind::ZeroFill,
                    };
                }
                r.core = core;
                if r.vpn == u64::MAX {
                    r.vpn = vpn;
                }
            }
            TraceEvent::PrefetchIssue { vpn } => {
                if r.kind == ReqKind::Other {
                    r.kind = ReqKind::Prefetch;
                }
                if r.vpn == u64::MAX {
                    r.vpn = vpn;
                }
            }
            TraceEvent::Evict { vpn, .. } => {
                if r.kind == ReqKind::Other {
                    r.kind = ReqKind::Evict;
                }
                if r.vpn == u64::MAX {
                    r.vpn = vpn;
                }
            }
            TraceEvent::RdmaComplete { done, .. } => r.end = r.end.max(done),
            TraceEvent::LinkTransfer { done, .. } => r.end = r.end.max(done),
            _ => {}
        }
        r.events.push((t, *ev));
        self.verbs.extend(verb.map(|v| (id, v)));
    }

    /// Every span tree with its verbs, in request-id (origin) order.
    pub(crate) fn traces(&self) -> Vec<RequestTrace> {
        let mut reqs = self.reqs.clone();
        for (id, v) in &self.verbs {
            if let Some(r) = reqs.get_mut(id) {
                r.verbs.push(*v);
            }
        }
        reqs.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::ServiceClass;
    use crate::spans::SpanAssembler;
    use crate::trace::TraceSink;

    fn armed() -> (TraceSink, SpanAssembler) {
        let sink = TraceSink::recording();
        let tracer = SpanAssembler::attach(&sink, false, true);
        (sink, tracer)
    }

    #[test]
    fn profile_only_assembler_records_no_requests() {
        let sink = TraceSink::recording();
        let tracer = SpanAssembler::attach(&sink, true, false);
        sink.begin_request();
        sink.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        assert_eq!(tracer.request_count(), 0);
        assert!(tracer.requests().is_empty());
    }

    #[test]
    fn groups_events_by_request_and_extends_end_by_done() {
        let (sink, tracer) = armed();
        let prev = sink.begin_request();
        sink.emit(
            100,
            TraceEvent::FaultBegin {
                core: 2,
                vpn: 7,
                kind: FaultKind::Major,
            },
        );
        sink.emit(
            110,
            TraceEvent::RdmaComplete {
                class: ServiceClass::Fault,
                write: false,
                node: 0,
                core: 2,
                done: 900,
            },
        );
        sink.emit(120, TraceEvent::FaultEnd { core: 2, vpn: 7 });
        sink.set_request(prev);
        sink.emit(130, TraceEvent::FrameFree { frame: 3 });

        let reqs = tracer.requests();
        assert_eq!(reqs.len(), 1);
        let r = &reqs[0];
        assert_eq!(r.kind, ReqKind::MajorFault);
        assert_eq!(r.core, 2);
        assert_eq!(r.vpn, 7);
        assert_eq!(r.begin, 100);
        assert_eq!(r.end, 900, "done horizon extends the envelope");
        assert_eq!(r.events.len(), 3, "unattributed events stay out");
    }

    #[test]
    fn critical_path_uses_fault_phases() {
        let (sink, tracer) = armed();
        sink.begin_request();
        sink.emit(
            0,
            TraceEvent::FaultBegin {
                core: 0,
                vpn: 1,
                kind: FaultKind::Major,
            },
        );
        for (phase, dur) in [
            (FaultPhase::Exception, 2),
            (FaultPhase::Check, 3),
            (FaultPhase::Alloc, 10),
            (FaultPhase::Fetch, 80),
            (FaultPhase::Map, 5),
        ] {
            sink.emit(
                100,
                TraceEvent::FaultPhase {
                    core: 0,
                    phase,
                    dur,
                },
            );
        }
        sink.emit(100, TraceEvent::FaultEnd { core: 0, vpn: 1 });
        let reqs = tracer.requests();
        let b = critical_path(&reqs[0]);
        assert_eq!(b.total, 100);
        assert_eq!(b.queueing, 10);
        assert_eq!(b.transfer, 80);
        assert_eq!(b.service, 10);
        assert_eq!(b.replay, 0);
        assert_eq!(b.other, 0);
        assert_eq!(b.dominant(), "transfer");
    }

    #[test]
    fn minor_fault_is_pure_queueing_and_prefetch_splits_wire() {
        let (sink, tracer) = armed();
        // Minor fault: begin/land/end, no phases.
        sink.begin_request();
        sink.emit(
            10,
            TraceEvent::FaultBegin {
                core: 1,
                vpn: 9,
                kind: FaultKind::Minor,
            },
        );
        sink.emit(70, TraceEvent::FaultEnd { core: 1, vpn: 9 });
        // Prefetch: issue + verb, landing later.
        sink.begin_request();
        sink.emit(20, TraceEvent::PrefetchIssue { vpn: 11 });
        sink.emit(
            20,
            TraceEvent::RdmaIssue {
                class: ServiceClass::Prefetch,
                write: false,
                node: 0,
                core: 1,
                bytes: 4096,
            },
        );
        sink.emit(
            21,
            TraceEvent::RdmaComplete {
                class: ServiceClass::Prefetch,
                write: false,
                node: 0,
                core: 1,
                done: 60,
            },
        );
        sink.emit(80, TraceEvent::PrefetchLand { vpn: 11 });
        sink.set_request(None);

        let reqs = tracer.requests();
        assert_eq!(reqs.len(), 2);
        let minor = critical_path(&reqs[0]);
        assert_eq!(minor.queueing, 60);
        assert_eq!(minor.transfer, 0);
        let pf = critical_path(&reqs[1]);
        assert_eq!(pf.total, 60);
        assert_eq!(pf.transfer, 40, "issue@20 -> done@60");
        assert_eq!(pf.queueing, 20, "landing deferral");
    }

    #[test]
    fn background_reclaim_becomes_episodes_not_requests() {
        let (sink, tracer) = armed();
        sink.emit(5, TraceEvent::ReclaimBegin { free: 2 });
        sink.emit(
            9,
            TraceEvent::Evict {
                vpn: 1,
                dirty: false,
            },
        );
        sink.emit(15, TraceEvent::ReclaimEnd { freed: 4 });
        assert_eq!(tracer.request_count(), 0);
        assert_eq!(tracer.reclaim_episodes(), vec![(5, 15, 4)]);
    }

    #[test]
    fn replay_overlap_moves_transfer_to_replay() {
        let (sink, tracer) = armed();
        sink.begin_request();
        sink.emit(
            0,
            TraceEvent::FaultBegin {
                core: 0,
                vpn: 3,
                kind: FaultKind::Major,
            },
        );
        sink.emit(1, TraceEvent::NodeCrash { node: 0 });
        sink.emit(
            50,
            TraceEvent::FaultPhase {
                core: 0,
                phase: FaultPhase::Fetch,
                dur: 40,
            },
        );
        sink.emit(50, TraceEvent::FaultEnd { core: 0, vpn: 3 });
        let reqs = tracer.requests();
        let b = critical_path(&reqs[0]);
        assert_eq!(b.replay, 40);
        assert_eq!(b.transfer, 0);
    }
}
