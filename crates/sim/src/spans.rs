//! The span assembler: the one place the trace stream's begin and end
//! events are paired.
//!
//! Three kinds of span open and close on the stream:
//!
//! - **faults**, per core: `FaultBegin` → `FaultPhase`* → `FaultEnd` (the
//!   handler is synchronous, so a core has at most one open fault);
//! - **verbs**, per queue pair `(class, write, node, core)`, FIFO:
//!   `RdmaIssue` → `RdmaComplete` (verbs on one queue pair complete in the
//!   order they were posted);
//! - **reclaim episodes**: `ReclaimBegin` → `ReclaimEnd`.
//!
//! [`SpanAssembler`] is a [`TraceObserver`] that pairs each kind once and
//! hands every span to up to two consumers: the aggregate [`Profile`]
//! (folded stacks and latency histograms, kept by
//! [`Observability::metered`](crate::Observability::metered)) and the
//! per-request span trees of [`crate::causal`] (kept by
//! [`Observability::with_timeline`](crate::Observability::with_timeline)).
//! A verb completion belongs to the request that posted the verb, whatever
//! request is on the sink's register when the calendar delivers it; the
//! assembler's own queue-pair FIFO is what makes that attribution.
//!
//! Like every observer, the assembler never emits, schedules, or feeds back
//! into the simulation, so arming it leaves a run's digest byte-identical.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::causal::{RequestLog, RequestTrace};
use crate::fabric::ServiceClass;
use crate::metrics::Profile;
use crate::time::Ns;
use crate::trace::{FaultKind, ReqId, TraceEvent, TraceObserver, TraceSink};

/// One RDMA verb, from its `RdmaIssue` to the matching `RdmaComplete`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerbSpan {
    pub class: ServiceClass,
    pub write: bool,
    /// Memory node the verb was labelled with (the primary shard).
    pub node: u8,
    pub core: u8,
    /// Virtual time the verb was posted.
    pub issued: Ns,
    /// Virtual time it completed.
    pub done: Ns,
}

impl VerbSpan {
    /// Time from post to completion: queue-pair wait, wire, and service.
    pub fn wire(&self) -> Ns {
        self.done.saturating_sub(self.issued)
    }
}

/// A fault opened by `FaultBegin` and not yet closed.
#[derive(Debug, Clone, Copy)]
struct OpenFault {
    kind: FaultKind,
    begin: Ns,
    /// Virtual time already charged to named phases.
    charged: Ns,
}

/// Posted verbs of one queue pair, oldest first: `(issue time, issuer)`.
type QpQueue = VecDeque<(Ns, Option<ReqId>)>;

#[derive(Debug, Default)]
struct SpanCore {
    open_faults: BTreeMap<u8, OpenFault>,
    open_verbs: BTreeMap<(ServiceClass, bool, u8, u8), QpQueue>,
    open_reclaim: Option<Ns>,
    /// Aggregates, when metered.
    profile: Option<Profile>,
    /// Per-request span trees, when the timeline is armed.
    requests: Option<RequestLog>,
}

impl TraceObserver for SpanCore {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent) {
        self.on_event_req(t, ev, None);
    }

    fn on_event_req(&mut self, t: Ns, ev: &TraceEvent, req: Option<ReqId>) {
        let mut owner = req;
        let mut verb = None;
        match *ev {
            TraceEvent::FaultBegin { core, kind, .. } => {
                let f = OpenFault {
                    kind,
                    begin: t,
                    charged: 0,
                };
                self.open_faults.insert(core, f);
            }
            TraceEvent::FaultPhase { core, phase, dur } => {
                if let Some(f) = self.open_faults.get_mut(&core) {
                    f.charged += dur;
                    if let Some(p) = &mut self.profile {
                        p.phase(core, f.kind, phase, dur);
                    }
                }
            }
            TraceEvent::FaultEnd { core, .. } => {
                if let (Some(f), Some(p)) = (self.open_faults.remove(&core), &mut self.profile) {
                    p.fault(core, f.kind, t.saturating_sub(f.begin), f.charged);
                }
            }
            TraceEvent::RdmaIssue {
                class,
                write,
                node,
                core,
                ..
            } => {
                let qp = self.open_verbs.entry((class, write, node, core));
                qp.or_default().push_back((t, req));
            }
            TraceEvent::RdmaComplete {
                class,
                write,
                node,
                core,
                done,
            } => {
                let qp = self.open_verbs.get_mut(&(class, write, node, core));
                if let Some((issued, issuer)) = qp.and_then(VecDeque::pop_front) {
                    let v = VerbSpan {
                        class,
                        write,
                        node,
                        core,
                        issued,
                        done,
                    };
                    if let Some(p) = &mut self.profile {
                        p.verb(&v);
                    }
                    owner = issuer;
                    verb = Some(v);
                }
            }
            TraceEvent::ReclaimBegin { .. } => self.open_reclaim = Some(t),
            TraceEvent::ReclaimEnd { freed } => {
                if let Some(begin) = self.open_reclaim.take() {
                    if let Some(p) = &mut self.profile {
                        p.reclaim(t.saturating_sub(begin));
                    }
                    if let Some(log) = &mut self.requests {
                        log.episodes.push((begin, t, freed));
                    }
                }
            }
            _ => {}
        }
        if let Some(log) = &mut self.requests {
            log.record(t, ev, owner, verb);
        }
    }
}

/// Cloneable handle to a (possibly absent) span assembler, following the
/// dark-handle pattern of [`TraceSink`]: [`SpanAssembler::disabled`] (the
/// default) observes nothing and reports empty outputs.
#[derive(Debug, Clone, Default)]
pub struct SpanAssembler {
    inner: Option<Rc<RefCell<SpanCore>>>,
}

impl SpanAssembler {
    /// The dark handle: records nothing.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording assembler subscribed to every subsequent event of
    /// `sink`, keeping the aggregate profile and/or per-request span trees.
    /// Attach one per sink: two assemblers would pair every span twice.
    pub fn attach(sink: &TraceSink, profile: bool, requests: bool) -> Self {
        let core = Rc::new(RefCell::new(SpanCore {
            profile: profile.then(Profile::default),
            requests: requests.then(RequestLog::default),
            ..SpanCore::default()
        }));
        sink.attach(core.clone());
        Self { inner: Some(core) }
    }

    /// Starts keeping per-request span trees (idempotent; a no-op on the
    /// dark handle).
    pub fn keep_requests(&self) {
        if let Some(core) = &self.inner {
            core.borrow_mut()
                .requests
                .get_or_insert_with(RequestLog::default);
        }
    }

    /// Whether spans are being assembled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A snapshot of the aggregate profile (empty unless metered).
    pub fn profile(&self) -> Profile {
        self.inner
            .as_ref()
            .and_then(|c| c.borrow().profile.clone())
            .unwrap_or_default()
    }

    /// `f` of the request log, or the empty value when none is kept.
    fn with_log<R: Default>(&self, f: impl FnOnce(&RequestLog) -> R) -> R {
        self.inner
            .as_ref()
            .and_then(|c| c.borrow().requests.as_ref().map(f))
            .unwrap_or_default()
    }

    /// Number of requests with at least one attributed event.
    pub fn request_count(&self) -> usize {
        self.with_log(|log| log.reqs.len())
    }

    /// All assembled span trees, in request-id (origin) order.
    pub fn requests(&self) -> Vec<RequestTrace> {
        self.with_log(RequestLog::traces)
    }

    /// Background reclaim episodes as `(begin, end, frames freed)`.
    pub fn reclaim_episodes(&self) -> Vec<(Ns, Ns, u32)> {
        self.with_log(|log| log.episodes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verb(sink: &TraceSink, t: Ns, complete: bool) {
        let (class, write, node, core) = (ServiceClass::Fault, false, 0, 3);
        let ev = if complete {
            TraceEvent::RdmaComplete {
                class,
                write,
                node,
                core,
                done: t,
            }
        } else {
            TraceEvent::RdmaIssue {
                class,
                write,
                node,
                core,
                bytes: 4096,
            }
        };
        sink.emit(t, ev);
    }

    #[test]
    fn completion_delivered_with_no_request_is_attributed_to_its_issuer() {
        let sink = TraceSink::recording();
        let spans = SpanAssembler::attach(&sink, false, true);
        // Request 1 posts a verb; the calendar delivers its completion later
        // with nothing on the register.
        let prev = sink.begin_request();
        verb(&sink, 100, false);
        sink.set_request(prev);
        verb(&sink, 700, true);
        // A verb posted with no request stays unattributed even when its
        // completion lands while another request is on the register.
        verb(&sink, 800, false);
        sink.begin_request();
        verb(&sink, 900, true);

        let reqs = spans.requests();
        assert_eq!(reqs.len(), 1, "the unattributed verb adds no request");
        let r = &reqs[0];
        assert_eq!(r.id, 1);
        assert_eq!(r.events.len(), 2, "issue and completion");
        assert_eq!(r.end, 700);
        assert_eq!(r.verbs.len(), 1);
        assert_eq!(r.verbs[0].issued, 100);
        assert_eq!(r.verbs[0].wire(), 600);
    }

    #[test]
    fn keep_requests_arms_trees_on_a_profiling_assembler() {
        let sink = TraceSink::recording();
        let spans = SpanAssembler::attach(&sink, true, false);
        sink.begin_request();
        verb(&sink, 10, false);
        assert_eq!(spans.request_count(), 0, "profile only");
        spans.keep_requests();
        spans.keep_requests();
        verb(&sink, 20, false);
        assert_eq!(spans.request_count(), 1);
        // Both verbs pair exactly once, in FIFO order.
        verb(&sink, 50, true);
        verb(&sink, 90, true);
        assert!(spans
            .profile()
            .folded()
            .contains("core3;rdma:fault:read 110\n"));
    }

    #[test]
    fn disabled_assembler_reports_nothing() {
        let spans = SpanAssembler::disabled();
        spans.keep_requests();
        assert!(!spans.is_enabled());
        assert_eq!(spans.profile().folded(), "");
        assert_eq!(spans.request_count(), 0);
        assert!(spans.reclaim_episodes().is_empty());
    }
}
