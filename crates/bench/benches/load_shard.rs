//! The fleet-scale load engine under the microscope: sharded dispatch
//! (`ShardSet::offer`, the per-event hot path of the capacity sweep),
//! the value-typed `EventQueue` the drivers schedule on, and arrival
//! generation — the three costs that bound how many simulated events/s
//! the harness itself can push.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use l25gc_core::Deployment;
use l25gc_load::{
    calibrate, ArrivalStream, Driver, EventMix, ExecBackend, LoadConfig, OverloadPolicy,
    ProcedureProfile, ShardConfig, ShardSet,
};
use l25gc_obs::Obs;
use l25gc_sim::{EventQueue, SimDuration, SimRng, SimTime};

fn profile() -> ProcedureProfile {
    ProcedureProfile {
        latency: SimDuration::from_micros(800),
        occupancy: SimDuration::from_micros(120),
        messages: 6,
    }
}

fn bench_shard_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_shard");
    g.throughput(Throughput::Elements(1));
    g.bench_function("offer_uncontended", |b| {
        let cfg = ShardConfig {
            shards: 4,
            high_water: 192,
            policy: OverloadPolicy::Shed,
            ring_capacity: 256,
        };
        let mut set = ShardSet::new(cfg);
        let mut obs = Obs::default();
        let prof = profile();
        let mut now = SimTime::ZERO;
        let mut n = 0u64;
        b.iter(|| {
            // Arrivals slower than occupancy: every offer dispatches.
            now += SimDuration::from_micros(150);
            n += 1;
            std::hint::black_box(set.offer((n % 4) as u16, now, &prof, n, &mut obs))
        })
    });
    g.bench_function("offer_overloaded", |b| {
        let cfg = ShardConfig {
            shards: 4,
            high_water: 64,
            policy: OverloadPolicy::Shed,
            ring_capacity: 128,
        };
        let mut set = ShardSet::new(cfg);
        let mut obs = Obs::default();
        let prof = profile();
        let mut now = SimTime::ZERO;
        let mut n = 0u64;
        b.iter(|| {
            // Arrivals far faster than occupancy: the shed path dominates.
            now += SimDuration::from_micros(10);
            n += 1;
            std::hint::black_box(set.offer((n % 4) as u16, now, &prof, n, &mut obs))
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("push_pop_100k_fifo", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(100_000);
            for i in 0..100_000u32 {
                q.push(SimTime::from_nanos(u64::from(i) * 1_000), i);
            }
            let mut last = 0;
            while let Some((_, v)) = q.pop() {
                last = v;
            }
            std::hint::black_box(last)
        })
    });
    g.bench_function("push_pop_100k_random", |b| {
        let mut rng = SimRng::new(42);
        let times: Vec<SimTime> = (0..100_000)
            .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000_000))
            .collect();
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(times.len());
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i as u32);
            }
            let mut last = 0;
            while let Some((_, v)) = q.pop() {
                last = v;
            }
            std::hint::black_box(last)
        })
    });
    g.finish();
}

fn bench_arrivals(c: &mut Criterion) {
    let mut g = c.benchmark_group("arrival_stream");
    g.throughput(Throughput::Elements(1));
    g.bench_function("merged_next", |b| {
        let mut rng = SimRng::new(7);
        let mut stream = ArrivalStream::new(&EventMix::default(), 10_000.0, 2.0, &mut rng);
        b.iter(|| std::hint::black_box(stream.next()))
    });
    g.finish();
}

fn bench_driver_backends(c: &mut Criterion) {
    // End-to-end: one second of simulated load through the unified
    // Driver, analytic loop vs threaded shard pool — the harness-side
    // cost the capacity sweep pays per point. The `_traced` variants
    // keep every 64th UE's procedure spans; comparing them against the
    // plain runs bounds the sampling overhead (the acceptance bar is
    // <= 5%, the sampled-out path being a single modulus test).
    let profiles = calibrate(Deployment::L25gc);
    let cfg_for = |backend: ExecBackend, trace_sample: u64| {
        LoadConfig::builder()
            .ues(10_000)
            .shards(4)
            .offered_eps(2_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(7)
            .backend(backend)
            .trace_sample(trace_sample)
            .build()
            .expect("bench config is valid")
    };
    let mut g = c.benchmark_group("driver_backend");
    g.sample_size(10);
    g.bench_function("analytic_open_1s", |b| {
        let driver = Driver::new(cfg_for(ExecBackend::Analytic, 0)).unwrap();
        b.iter(|| std::hint::black_box(driver.run(&profiles).completed_total))
    });
    g.bench_function("analytic_open_1s_traced", |b| {
        let driver = Driver::new(cfg_for(ExecBackend::Analytic, 64)).unwrap();
        b.iter(|| std::hint::black_box(driver.run(&profiles).completed_total))
    });
    g.bench_function("threaded_open_1s", |b| {
        let driver = Driver::new(cfg_for(ExecBackend::Threaded, 0)).unwrap();
        b.iter(|| std::hint::black_box(driver.run(&profiles).completed_total))
    });
    g.bench_function("threaded_open_1s_traced", |b| {
        let driver = Driver::new(cfg_for(ExecBackend::Threaded, 64)).unwrap();
        b.iter(|| std::hint::black_box(driver.run(&profiles).completed_total))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_shard_dispatch,
    bench_event_queue,
    bench_arrivals,
    bench_driver_backends
);
criterion_main!(benches);
