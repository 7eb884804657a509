//! Structured virtual-time event tracing.
//!
//! Every observable state change in a simulated run — page faults and their
//! phases, RDMA verbs per service class, prefetch lifecycles, reclaim
//! episodes, frame allocation, PTE transitions, guide invocations — can be
//! emitted as a typed [`TraceEvent`] stamped with its `Ns` virtual time.
//! The stream is the single source of truth for *what happened*: the ad-hoc
//! counters in `stats` modules are cross-checked against it, an online
//! auditor (in `dilos-core`) verifies state-machine invariants over it, the
//! [span assembler](crate::spans) pairs its begin/end events into spans,
//! and an order-sensitive [digest](TraceSink::digest) lets two runs be
//! compared byte-for-byte.
//!
//! Tracing is opt-in and zero-cost when disabled: a [`TraceSink`] is a
//! cloneable handle that is either dark (`TraceSink::disabled()`, the
//! default — `emit` is a single branch on a `None`) or backed by a shared
//! ring buffer plus a running digest. Components hold their own clone of the
//! sink, so one recorder observes a whole system: node, page table, RDMA
//! endpoint, fabric, and memory node all append to the same ordered stream.
//! `emit` records each event and hands it to the attached
//! [`TraceObserver`]s without allocating. The ring keeps only the most
//! recent events; [`TraceSink::dropped`] says how many a replay of
//! [`TraceSink::events`] would miss.

use crate::fabric::ServiceClass;
use crate::time::Ns;
use std::cell::RefCell;
use std::rc::Rc;

/// Stable identity of one causal request (demand fault, prefetch, eviction),
/// assigned at origin by [`TraceSink::begin_request`]. Ids are side-band
/// metadata: they ride alongside the event stream to observers and are
/// **never** folded into the digest, so arming causal tracing cannot change
/// a recorded digest.
pub type ReqId = u64;

/// What kind of page fault a `FaultBegin` opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Demand fetch from remote memory (the PTE was Remote or Action).
    Major,
    /// The page was already in flight (Fetching PTE); the handler waits.
    Minor,
    /// First touch of an unbacked page; no remote traffic.
    ZeroFill,
}

/// One phase of the fault handler's latency breakdown (paper Figs. 1/6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultPhase {
    /// Hardware exception + kernel entry cost.
    Exception,
    /// PTE lookup and state check.
    Check,
    /// Waiting for a free frame (allocation stall).
    Alloc,
    /// The remote read itself.
    Fetch,
    /// Installing the PTE and LRU/ring bookkeeping.
    Map,
    /// Reclaim work charged inside the fault path (baselines only).
    Reclaim,
}

/// Page-table entry state class, as seen by the tracer.
///
/// Mirrors `dilos_core::Pte`'s tags without depending on that crate, so the
/// sim layer can carry transitions for any paging system that wants to emit
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PteClass {
    None,
    Local,
    Remote,
    Fetching,
    Action,
}

/// A single traced occurrence. Everything is `Copy` and numeric so emission
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A fault handler invocation begins.
    FaultBegin { core: u8, vpn: u64, kind: FaultKind },
    /// One phase of the in-progress fault took `dur` virtual ns.
    FaultPhase {
        core: u8,
        phase: FaultPhase,
        dur: Ns,
    },
    /// The fault handler returns; the page is usable.
    FaultEnd { core: u8, vpn: u64 },
    /// An RDMA verb is posted to a queue pair.
    RdmaIssue {
        class: ServiceClass,
        write: bool,
        node: u8,
        core: u8,
        bytes: u32,
    },
    /// The verb completed at virtual time `done`.
    RdmaComplete {
        class: ServiceClass,
        write: bool,
        node: u8,
        core: u8,
        done: Ns,
    },
    /// The shared wire carried `bytes` for `class`, finishing at `done`.
    LinkTransfer {
        class: ServiceClass,
        bytes: u32,
        inbound: bool,
        done: Ns,
    },
    /// The memory node served a region access.
    MemAccess { write: bool, offset: u64, len: u32 },
    /// An asynchronous fetch (prefetch/readahead) was issued for `vpn`.
    PrefetchIssue { vpn: u64 },
    /// The in-flight fetch for `vpn` was consumed: mapped, or promoted by a
    /// minor fault.
    PrefetchLand { vpn: u64 },
    /// The in-flight fetch for `vpn` was abandoned without mapping.
    PrefetchCancel { vpn: u64 },
    /// A physical frame left the free list.
    FrameAlloc { frame: u32 },
    /// A physical frame returned to the free list.
    FrameFree { frame: u32 },
    /// The page table moved `vpn` between state classes.
    PteTransition {
        vpn: u64,
        from: PteClass,
        to: PteClass,
    },
    /// `vpn` entered the LRU chain.
    LruInsert { vpn: u64 },
    /// `vpn` left the LRU chain.
    LruRemove { vpn: u64 },
    /// A background reclaim episode starts with `free` frames available.
    ReclaimBegin { free: u32 },
    /// The episode ends having freed `freed` frames.
    ReclaimEnd { freed: u32 },
    /// A resident page was evicted (written back if `dirty`).
    Evict { vpn: u64, dirty: bool },
    /// An app-aware guide ran for `vpn` (`fetch` = fetch-side guide,
    /// otherwise evict-side).
    GuideInvoke { vpn: u64, fetch: bool },
    /// Memory node `node` sealed a checkpoint covering acknowledged intents
    /// up to sequence number `upto`.
    Checkpoint { node: u8, upto: u64 },
    /// Memory node `node` appended (acknowledged) write-intent `seq` before
    /// copying the payload into its page table.
    IntentAppend { node: u8, seq: u64 },
    /// The fault injector crashed memory node `node`: its volatile state is
    /// gone; only the durable checkpoint + intent log survive.
    NodeCrash { node: u8 },
    /// Recovery replayed intent `seq` onto node `node`'s restored
    /// checkpoint.
    RecoveryReplay { node: u8, seq: u64 },
    /// Node `node` finished recovery: `replayed` intents redone,
    /// `reconciled` pages resynced from surviving replicas/EC stripes.
    RecoveryComplete {
        node: u8,
        replayed: u64,
        reconciled: u64,
    },
}

impl FaultKind {
    fn code(self) -> u64 {
        match self {
            FaultKind::Major => 0,
            FaultKind::Minor => 1,
            FaultKind::ZeroFill => 2,
        }
    }
}

impl FaultPhase {
    fn code(self) -> u64 {
        match self {
            FaultPhase::Exception => 0,
            FaultPhase::Check => 1,
            FaultPhase::Alloc => 2,
            FaultPhase::Fetch => 3,
            FaultPhase::Map => 4,
            FaultPhase::Reclaim => 5,
        }
    }
}

impl PteClass {
    fn code(self) -> u64 {
        match self {
            PteClass::None => 0,
            PteClass::Local => 1,
            PteClass::Remote => 2,
            PteClass::Fetching => 3,
            PteClass::Action => 4,
        }
    }

    /// Stable label for reports and violation messages.
    pub fn label(self) -> &'static str {
        match self {
            PteClass::None => "none",
            PteClass::Local => "local",
            PteClass::Remote => "remote",
            PteClass::Fetching => "fetching",
            PteClass::Action => "action",
        }
    }
}

impl TraceEvent {
    /// Encodes the event as up to six u64 words (discriminant first) for the
    /// order-sensitive digest. The encoding is part of the digest's contract:
    /// change it and recorded digests change.
    fn words(&self, out: &mut [u64; 6]) -> usize {
        use TraceEvent::*;
        match *self {
            FaultBegin { core, vpn, kind } => {
                out[..3].copy_from_slice(&[1, ((core as u64) << 8) | kind.code(), vpn]);
                3
            }
            FaultPhase { core, phase, dur } => {
                out[..3].copy_from_slice(&[2, ((core as u64) << 8) | phase.code(), dur]);
                3
            }
            FaultEnd { core, vpn } => {
                out[..3].copy_from_slice(&[3, core as u64, vpn]);
                3
            }
            RdmaIssue {
                class,
                write,
                node,
                core,
                bytes,
            } => {
                out[..3].copy_from_slice(&[4, pack_verb(class, write, node, core), bytes as u64]);
                3
            }
            RdmaComplete {
                class,
                write,
                node,
                core,
                done,
            } => {
                out[..3].copy_from_slice(&[5, pack_verb(class, write, node, core), done]);
                3
            }
            LinkTransfer {
                class,
                bytes,
                inbound,
                done,
            } => {
                out[..4].copy_from_slice(&[
                    6,
                    ((class.idx() as u64) << 1) | inbound as u64,
                    bytes as u64,
                    done,
                ]);
                4
            }
            MemAccess { write, offset, len } => {
                out[..4].copy_from_slice(&[7, write as u64, offset, len as u64]);
                4
            }
            PrefetchIssue { vpn } => {
                out[..2].copy_from_slice(&[8, vpn]);
                2
            }
            PrefetchLand { vpn } => {
                out[..2].copy_from_slice(&[9, vpn]);
                2
            }
            PrefetchCancel { vpn } => {
                out[..2].copy_from_slice(&[10, vpn]);
                2
            }
            FrameAlloc { frame } => {
                out[..2].copy_from_slice(&[11, frame as u64]);
                2
            }
            FrameFree { frame } => {
                out[..2].copy_from_slice(&[12, frame as u64]);
                2
            }
            PteTransition { vpn, from, to } => {
                out[..3].copy_from_slice(&[13, (from.code() << 8) | to.code(), vpn]);
                3
            }
            LruInsert { vpn } => {
                out[..2].copy_from_slice(&[14, vpn]);
                2
            }
            LruRemove { vpn } => {
                out[..2].copy_from_slice(&[15, vpn]);
                2
            }
            ReclaimBegin { free } => {
                out[..2].copy_from_slice(&[16, free as u64]);
                2
            }
            ReclaimEnd { freed } => {
                out[..2].copy_from_slice(&[17, freed as u64]);
                2
            }
            Evict { vpn, dirty } => {
                out[..3].copy_from_slice(&[18, dirty as u64, vpn]);
                3
            }
            GuideInvoke { vpn, fetch } => {
                out[..3].copy_from_slice(&[19, fetch as u64, vpn]);
                3
            }
            Checkpoint { node, upto } => {
                out[..3].copy_from_slice(&[20, node as u64, upto]);
                3
            }
            IntentAppend { node, seq } => {
                out[..3].copy_from_slice(&[21, node as u64, seq]);
                3
            }
            NodeCrash { node } => {
                out[..2].copy_from_slice(&[22, node as u64]);
                2
            }
            RecoveryReplay { node, seq } => {
                out[..3].copy_from_slice(&[23, node as u64, seq]);
                3
            }
            RecoveryComplete {
                node,
                replayed,
                reconciled,
            } => {
                out[..4].copy_from_slice(&[24, node as u64, replayed, reconciled]);
                4
            }
        }
    }
}

fn pack_verb(class: ServiceClass, write: bool, node: u8, core: u8) -> u64 {
    ((class.idx() as u64) << 24) | ((write as u64) << 16) | ((node as u64) << 8) | core as u64
}

/// Consumes events as they are emitted (the auditor implements this).
///
/// Observers run synchronously inside `emit`, in attach order, *after* the
/// event has been folded into the digest and stored.
pub trait TraceObserver {
    fn on_event(&mut self, t: Ns, ev: &TraceEvent);

    /// Like [`TraceObserver::on_event`] but also carries the request id that
    /// was current when the event was emitted (None for background /
    /// unattributed events). The default forwards to `on_event`, so
    /// observers that do not care about causality (the auditor) need not
    /// implement it.
    fn on_event_req(&mut self, t: Ns, ev: &TraceEvent, req: Option<ReqId>) {
        let _ = req;
        self.on_event(t, ev);
    }
}

/// Small enough (4 Ki events ≈ 160 KiB) that the ring stays cache-resident
/// on the emit path; the digest and count still cover every event ever
/// emitted, the ring only bounds how much history `events()` can replay.
const DEFAULT_RING_CAP: usize = 1 << 12;

struct TraceCore {
    /// Ring of the most recent events (oldest at `head` once wrapped).
    ring: Vec<(Ns, TraceEvent)>,
    cap: usize,
    head: usize,
    /// Order-sensitive FNV-1a digest over *all* events ever emitted.
    digest: u64,
    /// Total emitted (≥ ring contents when the ring has wrapped).
    count: u64,
    /// Next request id to hand out (ids start at 1; 0 is never issued).
    next_req: ReqId,
    /// The request currently on the (virtual) CPU: events emitted while it
    /// is set are attributed to it. Side-band only — never digested.
    current_req: Option<ReqId>,
}

impl TraceCore {
    fn push(&mut self, t: Ns, ev: TraceEvent) {
        let mut words = [0u64; 6];
        let n = ev.words(&mut words);
        let mut h = self.digest;
        h = fold_u64(h, t);
        for &w in &words[..n] {
            h = fold_u64(h, w);
        }
        self.digest = h;
        self.count += 1;
        if self.ring.len() < self.cap {
            self.ring.push((t, ev));
        } else {
            self.ring[self.head] = (t, ev);
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }
}

const FNV_PRIME: u64 = 0x1000_0000_01B3;

/// `FNV_POW[i]` = `FNV_PRIME`^`i` (mod 2^64).
const FNV_POW: [u64; 9] = {
    let mut p = [1u64; 9];
    let mut i = 1;
    while i < 9 {
        p[i] = p[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// FNV-1a over the word's 8 little-endian bytes.
///
/// Folding a zero byte is exactly `h = h * PRIME` (xor with zero is the
/// identity), so the word's zero *tail* collapses into a single multiply
/// by `PRIME^k` — bit-identical to the byte-at-a-time loop, but most
/// trace words are small and skip the majority of the eight iterations.
/// (Only the tail can be skipped: interior zero bytes still reorder the
/// xor/multiply interleaving and must be folded positionally.)
#[inline]
fn fold_u64(mut h: u64, w: u64) -> u64 {
    let nz = if w == 0 {
        0
    } else {
        8 - (w.leading_zeros() as usize) / 8
    };
    let bytes = w.to_le_bytes();
    for &b in &bytes[..nz] {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(FNV_POW[8 - nz])
}

/// The recorder behind a sink. Observers live outside the core's cell so
/// fan-out iterates them under a shared borrow while observers remain free
/// to re-enter the sink (read the digest, the register).
struct Shared {
    core: RefCell<TraceCore>,
    observers: RefCell<Vec<Rc<RefCell<dyn TraceObserver>>>>,
}

/// Cloneable handle to a (possibly absent) trace recorder.
///
/// All clones share one buffer; `TraceSink::disabled()` (and `Default`) is
/// the dark handle whose `emit` compiles to a null check.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Rc<Shared>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceSink(disabled)"),
            Some(_) => write!(
                f,
                "TraceSink(events={}, dropped={}, digest={:#018x})",
                self.count(),
                self.dropped(),
                self.digest()
            ),
        }
    }
}

impl TraceSink {
    /// The dark handle: nothing is recorded, `emit` is a branch on `None`.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording sink with the default ring capacity (4 Ki events).
    pub fn recording() -> Self {
        Self::with_capacity(DEFAULT_RING_CAP)
    }

    /// A recording sink keeping at most `cap` events (digest and count still
    /// cover everything emitted). The ring is allocated at full size here,
    /// so `emit` never allocates.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            inner: Some(Rc::new(Shared {
                core: RefCell::new(TraceCore {
                    ring: Vec::with_capacity(cap),
                    cap,
                    head: 0,
                    digest: 0xCBF2_9CE4_8422_2325,
                    count: 0,
                    next_req: 1,
                    current_req: None,
                }),
                observers: RefCell::new(Vec::new()),
            })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event and fans it out to every attached observer without
    /// allocating. No-op (one branch) when disabled.
    #[inline]
    pub fn emit(&self, t: Ns, ev: TraceEvent) {
        let Some(s) = &self.inner else { return };
        let req = {
            let mut c = s.core.borrow_mut();
            c.push(t, ev);
            c.current_req
        };
        for obs in s.observers.borrow().iter() {
            obs.borrow_mut().on_event_req(t, &ev, req);
        }
    }

    /// Allocates a fresh request id, installs it as current, and returns the
    /// *previous* register value so the caller can restore it when the
    /// request's origin scope ends. Disabled sinks hand out nothing.
    pub fn begin_request(&self) -> Option<ReqId> {
        let Some(s) = &self.inner else { return None };
        let mut c = s.core.borrow_mut();
        let id = c.next_req;
        c.next_req += 1;
        c.current_req.replace(id)
    }

    /// Installs `req` as the current request, returning the previous value.
    /// Use `set_request(None)` at dispatch boundaries so deferred calendar
    /// work never inherits the interrupted request's identity.
    pub fn set_request(&self, req: Option<ReqId>) -> Option<ReqId> {
        let Some(s) = &self.inner else { return None };
        let mut c = s.core.borrow_mut();
        std::mem::replace(&mut c.current_req, req)
    }

    /// The request currently on the register, if any.
    pub fn current_request(&self) -> Option<ReqId> {
        self.inner
            .as_ref()
            .and_then(|s| s.core.borrow().current_req)
    }

    /// Attaches an observer that sees every subsequent event.
    pub fn attach(&self, obs: Rc<RefCell<dyn TraceObserver>>) {
        if let Some(s) = &self.inner {
            s.observers.borrow_mut().push(obs);
        }
    }

    /// The order-sensitive digest over every event emitted so far.
    /// Disabled sinks report 0.
    pub fn digest(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.core.borrow().digest)
    }

    /// Total events emitted (including any the ring has since dropped).
    pub fn count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.core.borrow().count)
    }

    /// Events the ring has overwritten: `count()` minus what `events()` can
    /// still replay. A replayer that needs the whole run must see zero.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| {
            let c = s.core.borrow();
            c.count - c.ring.len() as u64
        })
    }

    /// Events still held by the ring, oldest first.
    pub fn events(&self) -> Vec<(Ns, TraceEvent)> {
        match &self.inner {
            None => Vec::new(),
            Some(s) => {
                let c = s.core.borrow();
                let mut out = Vec::with_capacity(c.ring.len());
                out.extend_from_slice(&c.ring[c.head..]);
                out.extend_from_slice(&c.ring[..c.head]);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let s = TraceSink::disabled();
        s.emit(5, TraceEvent::FrameAlloc { frame: 1 });
        assert!(!s.is_enabled());
        assert_eq!(s.digest(), 0);
        assert_eq!(s.count(), 0);
        assert!(s.events().is_empty());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = TraceSink::recording();
        a.emit(1, TraceEvent::FrameAlloc { frame: 1 });
        a.emit(2, TraceEvent::FrameFree { frame: 1 });
        let b = TraceSink::recording();
        b.emit(2, TraceEvent::FrameFree { frame: 1 });
        b.emit(1, TraceEvent::FrameAlloc { frame: 1 });
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn zero_tail_fold_matches_the_byte_loop() {
        // The shipped `fold_u64` skips a word's zero tail via one multiply
        // by PRIME^k; it must agree bit-for-bit with the plain FNV-1a
        // byte loop on every word shape (all-zero, interior zeros, full
        // width, single bytes at each position).
        fn reference(mut h: u64, w: u64) -> u64 {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut cases = vec![0u64, 1, 0xFF, u64::MAX, 0x0100, 0x00FF_00FF_00FF_00FF];
        for shift in 0..8 {
            cases.push(0xABu64 << (8 * shift));
            cases.push((u64::MAX >> (8 * shift)).wrapping_sub(3));
        }
        // SplitMix64 stream for adversarial coverage.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            cases.push(z ^ (z >> 31));
            // Bias toward small words (the common trace shape).
            cases.push((z ^ (z >> 31)) & 0xFFFF);
        }
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut r = h;
        for &w in &cases {
            h = fold_u64(h, w);
            r = reference(r, w);
            assert_eq!(h, r, "divergence on word {w:#x}");
        }
    }

    #[test]
    fn identical_streams_agree() {
        let mk = || {
            let s = TraceSink::recording();
            for i in 0..100u64 {
                s.emit(
                    i,
                    TraceEvent::PteTransition {
                        vpn: i,
                        from: PteClass::Remote,
                        to: PteClass::Fetching,
                    },
                );
            }
            s.digest()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn ring_drops_oldest_but_digest_covers_all() {
        let s = TraceSink::with_capacity(4);
        for i in 0..10u64 {
            s.emit(i, TraceEvent::FrameAlloc { frame: i as u32 });
        }
        let evs = s.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].0, 6, "oldest surviving event");
        assert_eq!(evs[3].0, 9);
        assert_eq!(s.count(), 10);
        assert_eq!(s.dropped(), 6);
        assert!(format!("{s:?}").contains("dropped=6"), "{s:?}");
    }

    #[test]
    fn clones_share_the_stream() {
        let s = TraceSink::recording();
        let s2 = s.clone();
        s.emit(1, TraceEvent::FrameAlloc { frame: 7 });
        s2.emit(2, TraceEvent::FrameFree { frame: 7 });
        assert_eq!(s.count(), 2);
        assert_eq!(s.digest(), s2.digest());
    }

    #[test]
    fn request_register_rides_side_band_and_never_digests() {
        struct Tags {
            seen: Vec<(Ns, Option<ReqId>)>,
        }
        impl TraceObserver for Tags {
            fn on_event(&mut self, _t: Ns, _ev: &TraceEvent) {}
            fn on_event_req(&mut self, t: Ns, _ev: &TraceEvent, req: Option<ReqId>) {
                self.seen.push((t, req));
            }
        }
        let bare = TraceSink::recording();
        bare.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        bare.emit(2, TraceEvent::FrameFree { frame: 0 });

        let s = TraceSink::recording();
        let tags = Rc::new(RefCell::new(Tags { seen: Vec::new() }));
        s.attach(tags.clone());
        let prev = s.begin_request();
        assert_eq!(prev, None);
        assert_eq!(s.current_request(), Some(1));
        s.emit(1, TraceEvent::FrameAlloc { frame: 0 });
        let outer = s.set_request(None);
        s.emit(2, TraceEvent::FrameFree { frame: 0 });
        s.set_request(outer);
        assert_eq!(
            tags.borrow().seen,
            vec![(1, Some(1)), (2, None)],
            "ids ride the side band"
        );
        // Identical event stream, with and without request ids: same digest.
        assert_eq!(s.digest(), bare.digest(), "request ids must not digest");
    }

    #[test]
    fn disabled_sink_hands_out_no_requests() {
        let s = TraceSink::disabled();
        assert_eq!(s.begin_request(), None);
        assert_eq!(s.current_request(), None);
        assert_eq!(s.set_request(Some(9)), None);
        assert_eq!(s.current_request(), None);
    }

    #[test]
    fn observers_see_events_in_order() {
        struct Counter {
            seen: Vec<Ns>,
        }
        impl TraceObserver for Counter {
            fn on_event(&mut self, t: Ns, _ev: &TraceEvent) {
                self.seen.push(t);
            }
        }
        let s = TraceSink::recording();
        let c = Rc::new(RefCell::new(Counter { seen: Vec::new() }));
        s.attach(c.clone());
        s.emit(3, TraceEvent::FrameAlloc { frame: 0 });
        s.emit(9, TraceEvent::FrameFree { frame: 0 });
        assert_eq!(c.borrow().seen, vec![3, 9]);
    }
}
