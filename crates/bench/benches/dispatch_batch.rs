//! Staged dispatch under the microscope: what a burst buys on the ring
//! primitive itself (`push_burst` amortizes the consumer-index Acquire
//! and fence traffic that per-event `push` pays on every call), and
//! what it buys end-to-end through the threaded `Driver` at the
//! capacity sweep's hot-path config. The acceptance bar for the staged
//! dispatch plane is that `burst_32` beats `per_event` ns/event here
//! while the virtual-time results stay byte-identical (proved by the
//! load crate's equivalence tests, not by this bench).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use l25gc_core::Deployment;
use l25gc_load::{calibrate, Driver, ExecBackend, LoadConfig, OverloadPolicy};
use l25gc_nfv::ring;
use l25gc_sim::SimDuration;

/// The batch ladder the dispatch baseline sweeps; mirrored here so the
/// microbench and `reproduce dispatch` tell one story.
const BATCHES: [usize; 4] = [1, 8, 32, 128];

fn bench_ring_burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch_ring");
    for &n in &BATCHES {
        g.throughput(Throughput::Elements(n as u64));
        // Per-event: the dispatcher's per-event submit discipline as
        // `Pool::offer` pays it — an admission probe against the shared
        // occupancy, a wake-check against the shared consumer index, the
        // push with its tail publication, and the depth probe, all per
        // event.
        g.bench_function(format!("per_event_{n}"), |b| {
            let (mut tx, mut rx) = ring::<u64>(1 << 10);
            b.iter(|| {
                let mut wakes = 0u32;
                let mut peak = 0usize;
                for v in 0..n as u64 {
                    if tx.above_high_water() {
                        continue;
                    }
                    if tx.is_empty() {
                        wakes += 1;
                    }
                    let _ = tx.push(v);
                    peak = peak.max(tx.len());
                }
                let mut sum = 0u64;
                while let Some(v) = rx.pop() {
                    sum = sum.wrapping_add(v);
                }
                std::hint::black_box((wakes, peak, sum))
            })
        });
        // Burst: staging pays one extra descriptor copy per event and a
        // logical depth probe, then the whole batch crosses the ring at
        // once — one admission verdict, one Acquire refresh, one tail
        // publication, one wake decision per burst.
        g.bench_function(format!("burst_{n}"), |b| {
            let (mut tx, mut rx) = ring::<u64>(1 << 10);
            let mut staged: Vec<u64> = Vec::with_capacity(n);
            b.iter(|| {
                let mut peak = 0usize;
                for v in 0..n as u64 {
                    staged.push(v);
                    peak = peak.max(tx.len() + staged.len());
                }
                let wake = tx.is_empty();
                let pushed = tx.push_burst(&mut staged);
                let mut sum = 0u64;
                while let Some(v) = rx.pop() {
                    sum = sum.wrapping_add(v);
                }
                std::hint::black_box((wake, peak, pushed, sum))
            })
        });
    }
    g.finish();
}

fn bench_driver_dispatch_batch(c: &mut Criterion) {
    // End-to-end: one second of simulated load through the threaded
    // shard pool, per-event vs staged dispatch. Queue policy with wide
    // rings keeps both runs unshed so they do identical virtual-time
    // work — the delta is pure dispatch-plane overhead. The offered
    // rate saturates the dispatcher (open-loop replay runs at wall
    // speed) so bursts genuinely fill and the dispatch plane, not the
    // arrival generator, is what the wall clock measures.
    let profiles = calibrate(Deployment::L25gc);
    let cfg_for = |batch: usize| {
        LoadConfig::builder()
            .ues(10_000)
            .shards(4)
            .policy(OverloadPolicy::Queue)
            .high_water(1 << 14)
            .ring_capacity(1 << 15)
            .offered_eps(20_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(7)
            .backend(ExecBackend::Threaded)
            .dispatch_batch(batch)
            .build()
            .expect("bench config is valid")
    };
    let mut g = c.benchmark_group("driver_dispatch");
    g.sample_size(10);
    for &n in &BATCHES {
        g.bench_function(format!("threaded_open_1s_batch_{n}"), |b| {
            let driver = Driver::new(cfg_for(n)).unwrap();
            b.iter(|| std::hint::black_box(driver.run(&profiles).completed_total))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ring_burst, bench_driver_dispatch_batch);
criterion_main!(benches);
