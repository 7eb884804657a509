//! Engine-core micro-benches: the arena-backed `Calendar`, the intrusive
//! LRU chain and the memory node's `FlatStore`, measured in isolation.
//!
//! These are hot structures behind every simulated fault: the calendar
//! absorbs a schedule/cancel/drain cycle per background completion, the LRU
//! chain a touch per access plus a coldest/remove pair per eviction, and
//! the store a `write_at` per write-back and a `read_into` per fetch. The
//! figure benches measure them only end-to-end; this target pins their
//! standalone costs so a regression is attributable to the structure, not
//! the workload around it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dilos_sim::{Calendar, FlatStore, LruChain, MemStore, SchedEvent, PAGE_SIZE};

const EVENTS: usize = 4_096;
const PAGES: u64 = 4_096;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

fn bench(c: &mut Criterion) {
    c.bench_function("calendar_schedule_drain_4k", |b| {
        let mut out = Vec::with_capacity(EVENTS);
        b.iter(|| {
            let cal = Calendar::new();
            for i in 0..EVENTS as u64 {
                // Distinct due times: every drain_due pops a singleton
                // group, the worst case for batching.
                cal.schedule(i * 10, SchedEvent::ReclaimTick);
            }
            let mut delivered = 0usize;
            let mut now = 0;
            while let Some(at) = cal.next_due() {
                now = at;
                delivered += cal.drain_due(now, &mut out);
                out.clear();
            }
            black_box((delivered, now))
        })
    });

    c.bench_function("calendar_schedule_cancel_4k", |b| {
        b.iter(|| {
            let cal = Calendar::new();
            let ids: Vec<_> = (0..EVENTS as u64)
                .map(|i| cal.schedule(i * 10, SchedEvent::ReclaimTick))
                .collect();
            // Cancel back-to-front so every cancel hits a pending slot and
            // the heap skims the tombstones lazily.
            let mut cancelled = 0usize;
            for id in ids.into_iter().rev() {
                cancelled += usize::from(cal.cancel(id));
            }
            black_box((cancelled, cal.len()))
        })
    });

    c.bench_function("calendar_mixed_steady_state", |b| {
        // Steady-state shape from the fault path: schedule a landing,
        // cancel half of them (superseded prefetches), drain the rest.
        let mut out = Vec::new();
        b.iter(|| {
            let cal = Calendar::new();
            let mut delivered = 0usize;
            for i in 0..EVENTS as u64 {
                let id = cal.schedule(i * 7 + 100, SchedEvent::PrefetchLand {
                    vpn: i,
                    token: i as u32,
                });
                if i % 2 == 0 {
                    cal.cancel(id);
                }
                delivered += cal.drain_due(i * 7, &mut out);
                out.clear();
            }
            black_box(delivered)
        })
    });

    c.bench_function("lru_touch_hot_4k", |b| {
        let mut lru = LruChain::new();
        for k in 0..PAGES {
            lru.insert(k);
        }
        let mut k = 0u64;
        b.iter(|| {
            // Stride through the resident set; every touch relinks an
            // interior node to the hot end.
            for _ in 0..EVENTS {
                lru.touch(k % PAGES);
                k = k.wrapping_add(1_237);
            }
            black_box(lru.len())
        })
    });

    c.bench_function("lru_insert_evict_churn_4k", |b| {
        b.iter(|| {
            let mut lru = LruChain::new();
            let mut evicted = 0u64;
            for k in 0..(PAGES * 2) {
                if lru.len() >= PAGES as usize {
                    let cold = lru.coldest().expect("non-empty chain");
                    lru.remove(cold);
                    evicted += 1;
                }
                lru.insert(k);
            }
            black_box((evicted, lru.len()))
        })
    });
}

/// Store benches over `PAGES` pages of two shapes: *stamp* pages carry 8
/// live bytes (a sequential scan's stamps, kept as short pages) and
/// *dense* pages a full 4 KiB of non-zero bytes (full slots).
fn store_bench(c: &mut Criterion) {
    let stamp = [0xA5u8; 8];
    let dense = [0x5Au8; PAGE_SIZE];
    for (shape, data) in [("stamp", &stamp[..]), ("dense", &dense[..])] {
        c.bench_function(&format!("store_write_at_{shape}_4k"), |b| {
            // Materializes every page into a fresh store, as a populate
            // does, then drops it.
            b.iter(|| {
                let mut store = FlatStore::new();
                for p in 0..PAGES {
                    store.write_at(p, 0, data, data.len());
                }
                black_box(store.len())
            })
        });

        c.bench_function(&format!("store_read_into_{shape}_4k"), |b| {
            let mut store = FlatStore::new();
            for p in 0..PAGES {
                store.write_at(p, 0, data, data.len());
            }
            // Whole-page reads, as a demand fetch issues them.
            let mut out = [0u8; PAGE_SIZE];
            b.iter(|| {
                let mut live = 0usize;
                for p in 0..PAGES {
                    live += store.read_into(p, 0, &mut out);
                }
                black_box(live)
            })
        });
    }
}

criterion_group! { name = benches; config = config(); targets = bench, store_bench }
criterion_main!(benches);
