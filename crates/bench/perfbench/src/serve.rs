//! `serve`: the contended multi-tenant cluster with QoS on.
//!
//! Two open-loop victims (point reads, exponential arrivals with a 50 µs
//! mean) and one closed-loop noisy scanner share one memory node, driven
//! through `bench::loadgen::drive` exactly as `repro serve` configures its
//! QoS-on pass: bandwidth shares 4:4:1 and local-frame quotas. Victim 0 is
//! audited and victim 1 traced. Arrivals are fixed in virtual time before
//! serving, so the generator cannot run late, and latency is measured from
//! arrival, so queueing shows in it. This is the only workload that
//! exercises `core::cluster`, the fabric's QoS shaper and cross-tenant wire
//! contention.

use std::time::Instant;

use dilos_bench::loadgen::{drive, Arrival, RequestKind, TenantLoad};
use dilos_core::{ClusterConfig, ServingCluster, TenantSpec};
use dilos_sim::{LatencyHistogram, Observability, ServiceClass, SplitMix64};

use crate::probe::Windows;
use crate::report::{Counters, Outcome, Rep};
use crate::spans::{Layer, Spans};
use crate::systems::{count_dilos, count_endpoint};
use crate::{quantiles, Virt, Workload};

/// Open-loop requests per victim. The two victims' 32 000 latency samples
/// leave 32 beyond p99.9, enough for the tail to vary little from seed to
/// seed.
pub const VICTIM_REQUESTS: usize = 16_000;
/// Mean inter-arrival gap per victim, virtual ns.
pub const VICTIM_MEAN_NS: u64 = 50_000;
/// Closed-loop scans by the noisy tenant (the `repro serve` ratio of 150
/// scans per 400 victim requests, so it contends for the whole run).
pub const NOISY_REQUESTS: usize = VICTIM_REQUESTS * 150 / 400;
/// The configured bandwidth shares, in tenant order.
pub const SHARES: [u32; 3] = [4, 4, 1];

const VICTIM_QUOTA: usize = 256;
const VICTIM_WS_PAGES: usize = 384;
const NOISY_WS_PAGES: usize = 2_048;

/// The `serve` workload.
pub struct Serve {
    seeds: [u64; 3],
}

impl Serve {
    /// Load seeds from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Self {
            seeds: [rng.next_u64(), rng.next_u64(), rng.next_u64()],
        }
    }

    fn config(&self) -> (ClusterConfig, Vec<TenantLoad>) {
        let victim = |obs| TenantSpec {
            local_quota: VICTIM_QUOTA,
            local_demand: VICTIM_QUOTA,
            remote_bytes: 1 << 24,
            bandwidth_share: SHARES[0],
            cores: 1,
            obs,
        };
        let noisy = TenantSpec {
            local_quota: VICTIM_QUOTA,
            local_demand: NOISY_WS_PAGES,
            remote_bytes: 1 << 25,
            bandwidth_share: SHARES[2],
            cores: 1,
            obs: Observability::none(),
        };
        let victim_load = |seed| TenantLoad {
            seed,
            arrival: Arrival::Open {
                mean_ns: VICTIM_MEAN_NS,
            },
            requests: VICTIM_REQUESTS,
            kind: RequestKind::PointRead { touches: 2 },
            working_pages: VICTIM_WS_PAGES,
        };
        let cfg = ClusterConfig {
            qos: true,
            tenants: vec![
                victim(Observability::audited()),
                victim(Observability::tracing()),
                noisy,
            ],
            ..ClusterConfig::default()
        };
        let loads = vec![
            victim_load(self.seeds[0]),
            victim_load(self.seeds[1]),
            TenantLoad {
                seed: self.seeds[2],
                arrival: Arrival::Closed { think_ns: 0 },
                requests: NOISY_REQUESTS,
                kind: RequestKind::Scan { pages: 256 },
                working_pages: NOISY_WS_PAGES,
            },
        ];
        (cfg, loads)
    }

    /// One repetition; also returns the victims' merged latency histogram.
    fn run(&self, sp: &mut Spans, c: &mut Counters, out: &mut Outcome) -> (Rep, LatencyHistogram) {
        let (cfg, loads) = self.config();
        let mut rep = Rep::default();
        let t = Instant::now();
        let mut cluster = sp.time(Layer::Boot, |_| ServingCluster::boot(cfg));
        rep.setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let results = sp.time(Layer::Drive, |_| drive(&mut cluster, &loads));
        let findings = sp.time(Layer::Audit, |_| cluster.audit_reports());
        sp.time(Layer::Quiesce, |_| cluster.tenant(1).trace_digest());
        rep.measured_s = t.elapsed().as_secs_f64();

        let mut victims = LatencyHistogram::new();
        for (i, (r, load)) in results.iter().zip(&loads).enumerate() {
            rep.ops += load.requests as u64;
            rep.failed += (load.requests - r.completed.min(load.requests)) as u64;
            if i < 2 {
                victims.merge(&r.latency);
                rep.virt_ns += r.makespan;
            }
        }
        out.check(findings.is_empty(), || {
            format!("serve: audited tenant findings {findings:?}")
        });

        if sp.is_on() {
            sp.time(Layer::Introspect, |_| count_cluster(&cluster, c));
        }
        (rep, victims)
    }
}

/// Adds the cluster's per-tenant and endpoint counters to `c`.
fn count_cluster(cluster: &ServingCluster, c: &mut Counters) {
    let horizon = (0..cluster.len())
        .map(|i| cluster.tenant_ref(i).max_now())
        .max()
        .unwrap_or(0);
    let ep = cluster.pool().endpoint();
    count_endpoint(&ep, horizon, c);
    let mut rx_total = 0u64;
    for i in 0..cluster.len() {
        count_dilos(cluster.tenant_ref(i), c);
        let (mut tx, mut rx) = (0u64, 0u64);
        for class in ServiceClass::ALL {
            let (t, r) = ep.tenant_class_bytes(i as u8, class);
            tx += t;
            rx += r;
        }
        let st = cluster.tenant_ref(i).stats();
        c.add(
            &format!("core.cluster.tenant{i}.prefetch_useful_ratio"),
            st.prefetch_hits as f64 / st.prefetch_issued.max(1) as f64,
        );
        c.add(&format!("core.cluster.tenant{i}.tx_bytes"), tx as f64);
        c.add(&format!("core.cluster.tenant{i}.rx_bytes"), rx as f64);
        rx_total += rx;
    }
    c.add("core.cluster.rx_bytes", rx_total as f64);
}

impl Workload for Serve {
    fn setup(&self) -> f64 {
        let t = Instant::now();
        let cluster = ServingCluster::boot(self.config().0);
        let s = t.elapsed().as_secs_f64();
        drop(cluster);
        s
    }

    fn rep(
        &self,
        sp: &mut Spans,
        _virt: Option<&mut Windows>,
        c: &mut Counters,
        out: &mut Outcome,
    ) -> Rep {
        self.run(sp, c, out).0
    }

    fn virt(&self, out: &mut Outcome) -> (Rep, Virt) {
        let (rep, h) = self.run(&mut Spans::off(), &mut Counters::default(), out);
        (
            rep,
            Virt {
                makespan_ns: rep.virt_ns,
                samples: h.count(),
                quantiles: quantiles(&h, 1),
            },
        )
    }
}
