//! The unified observability bundle.
//!
//! An [`Observability`] value bundles one system's trace sink, metrics
//! registry, span assembler, and audit flag into a handle that is built
//! once, handed to the boot path once, and threaded down via a single
//! `observe(&Observability)` call per component.
//!
//! The trace sink is the one event stream. Everything that reads spans off
//! it goes through the one [`SpanAssembler`]: [`Observability::metered`]
//! attaches it keeping the aggregate profile, and
//! [`Observability::with_timeline`] makes it keep per-request span trees
//! too (attaching it first if the bundle had none). The auditor is the
//! only other observer, attached at boot when the audit flag is set.
//!
//! The bundle is a set of `Rc` handles (the "dark when disabled" pattern the
//! sink and registry use): cloning it shares the underlying buffers, so one
//! bundle describes one booted system. Boot two systems from two bundles —
//! sharing a bundle would interleave their event streams and change both
//! digests.

use crate::metrics::MetricsRegistry;
use crate::spans::SpanAssembler;
use crate::trace::TraceSink;

/// One system's observability configuration: trace sink, metrics registry,
/// span assembler, and whether an auditor should be attached at boot.
///
/// Invariants maintained by the constructors:
/// - `audit`, metered, or a timeline implies a recording trace sink (the
///   auditor and the assembler are both trace observers).
/// - a recording assembler is already attached to the sink; boot paths must
///   not attach it again.
#[derive(Debug, Clone)]
pub struct Observability {
    trace: TraceSink,
    metrics: MetricsRegistry,
    spans: SpanAssembler,
    audit: bool,
}

impl Default for Observability {
    fn default() -> Self {
        Self::none()
    }
}

impl Observability {
    /// Fully dark: no tracing, no metrics, no audit. Zero overhead.
    pub fn none() -> Self {
        Self {
            trace: TraceSink::disabled(),
            metrics: MetricsRegistry::disabled(),
            spans: SpanAssembler::disabled(),
            audit: false,
        }
    }

    /// Event tracing only (digests available, no auditor, no metrics).
    pub fn tracing() -> Self {
        Self {
            trace: TraceSink::recording(),
            ..Self::none()
        }
    }

    /// Event tracing with an event ring of at least `events` entries
    /// (rounded up to a power of two). The default ring is deliberately
    /// small — big enough for digests, small enough to stay cache-resident —
    /// so consumers that replay [`TraceSink::events`] over a long run (tests,
    /// trace exporters) must size the ring to the run.
    pub fn tracing_with_ring(events: usize) -> Self {
        Self {
            trace: TraceSink::with_capacity(events.next_power_of_two()),
            ..Self::none()
        }
    }

    /// Tracing plus an online auditor attached at boot.
    pub fn audited() -> Self {
        Self {
            audit: true,
            ..Self::tracing()
        }
    }

    /// Tracing plus the metrics registry and the span assembler's aggregate
    /// profile. The assembler is attached to the sink here, once.
    pub fn metered() -> Self {
        let trace = TraceSink::recording();
        let spans = SpanAssembler::attach(&trace, true, false);
        Self {
            trace,
            metrics: MetricsRegistry::recording(),
            spans,
            audit: false,
        }
    }

    /// Everything on: tracing, auditor, metrics, profile.
    pub fn full() -> Self {
        Self {
            audit: true,
            ..Self::metered()
        }
    }

    /// Arms causal request tracing on an existing bundle: the span
    /// assembler keeps per-request span trees (attached to the sink first
    /// if the bundle had none). It is a pure observer riding the side-band
    /// request ids, so arming it leaves the run's digest byte-identical.
    pub fn with_timeline(mut self) -> Self {
        debug_assert!(
            self.trace.is_enabled(),
            "timeline requires a recording trace sink"
        );
        if self.spans.is_enabled() {
            self.spans.keep_requests();
        } else {
            self.spans = SpanAssembler::attach(&self.trace, false, true);
        }
        self
    }

    /// Adds the auditor flag to an existing bundle (the sink must already
    /// be recording, which every non-`none` constructor guarantees).
    pub fn with_audit(mut self) -> Self {
        debug_assert!(
            self.trace.is_enabled(),
            "audit requires a recording trace sink"
        );
        self.audit = true;
        self
    }

    /// The shared trace sink handle.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The shared metrics registry handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The shared span assembler handle (dark unless metered or armed with
    /// [`Observability::with_timeline`]).
    pub fn spans(&self) -> &SpanAssembler {
        &self.spans
    }

    /// Whether the boot path should attach an online auditor.
    pub fn audit(&self) -> bool {
        self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_hold_their_invariants() {
        let none = Observability::none();
        assert!(!none.trace().is_enabled());
        assert!(!none.metrics().is_enabled());
        assert!(!none.spans().is_enabled());
        assert!(!none.audit());

        let tracing = Observability::tracing();
        assert!(tracing.trace().is_enabled());
        assert!(!tracing.metrics().is_enabled());
        assert!(!tracing.audit());

        let audited = Observability::audited();
        assert!(audited.trace().is_enabled());
        assert!(audited.audit());

        let metered = Observability::metered();
        assert!(metered.trace().is_enabled());
        assert!(metered.metrics().is_enabled());
        assert!(metered.spans().is_enabled());
        assert!(!metered.audit());

        let full = Observability::full();
        assert!(full.metrics().is_enabled());
        assert!(full.audit());
    }

    #[test]
    fn with_timeline_arms_the_causal_tracer_once() {
        let obs = Observability::tracing();
        assert!(!obs.spans().is_enabled());
        let armed = obs.with_timeline();
        assert!(armed.spans().is_enabled());
        // Idempotent: re-arming must not attach a second observer.
        let again = armed.clone().with_timeline();
        again.trace().begin_request();
        again
            .trace()
            .emit(1, crate::trace::TraceEvent::PrefetchIssue { vpn: 4 });
        assert_eq!(again.spans().request_count(), 1);
        let reqs = again.spans().requests();
        assert_eq!(reqs[0].events.len(), 1, "one observer, one record");
    }

    #[test]
    fn clones_share_the_sink() {
        let obs = Observability::tracing();
        let other = obs.clone();
        obs.trace()
            .emit(0, crate::trace::TraceEvent::ReclaimBegin { free: 1 });
        assert_eq!(obs.trace().digest(), other.trace().digest());
    }
}
