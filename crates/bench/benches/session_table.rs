//! Ablation: the §3.2 dual-key session table (TEID + UE IP indexes over
//! one slab) vs a naive pair of independent hash maps — the design
//! DESIGN.md calls out for the zero-cost state sharing between UPF-C and
//! UPF-U.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use l25gc_nfv::DualKeyTable;

#[derive(Clone)]
struct Session {
    _seid: u64,
    _buffer: Vec<u8>,
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_table_lookup");
    for &n in &[100u32, 10_000] {
        // Dual-key table.
        let mut t = DualKeyTable::new();
        for i in 0..n {
            t.insert(
                0x100 + i,
                0x0a3c_0000 + i,
                Session {
                    _seid: u64::from(i),
                    _buffer: vec![],
                },
            );
        }
        g.bench_with_input(BenchmarkId::new("dual_key_by_teid", n), &n, |b, &n| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                std::hint::black_box(t.by_teid(0x100 + i))
            })
        });
        g.bench_with_input(BenchmarkId::new("dual_key_by_ue_ip", n), &n, |b, &n| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                std::hint::black_box(t.by_ue_ip(0x0a3c_0000 + i))
            })
        });

        // Naive alternative: two maps each owning a clone of the session
        // (what you get without the shared-slab factoring: double memory
        // and double-write on update).
        let mut by_teid = HashMap::new();
        let mut by_ip = HashMap::new();
        for i in 0..n {
            let s = Session {
                _seid: u64::from(i),
                _buffer: vec![],
            };
            by_teid.insert(0x100 + i, s.clone());
            by_ip.insert(0x0a3c_0000 + i, s);
        }
        g.bench_with_input(BenchmarkId::new("two_maps_by_teid", n), &n, |b, &n| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                std::hint::black_box(by_teid.get(&(0x100 + i)))
            })
        });
    }
    g.finish();
}

fn bench_rebind(c: &mut Criterion) {
    // The handover hot operation: re-pointing the UL key.
    let mut g = c.benchmark_group("session_table_rebind");
    let mut t = DualKeyTable::new();
    for i in 0..10_000u32 {
        t.insert(
            i,
            0x0a3c_0000 + i,
            Session {
                _seid: u64::from(i),
                _buffer: vec![],
            },
        );
    }
    let mut cur = 5_000u32;
    let mut next = 1_000_000u32;
    g.bench_function("rebind_teid_10k_sessions", |b| {
        b.iter(|| {
            assert!(t.rebind_teid(cur, next));
            cur = next;
            next += 1;
        })
    });
    g.finish();
}

fn bench_remove(c: &mut Criterion) {
    // Session deletion in a full table: remove one session and put it
    // back, so the table size — the thing the cost must not depend on —
    // stays fixed.
    let mut g = c.benchmark_group("session_table_remove");
    let session = |i: u32| Session {
        _seid: u64::from(i),
        _buffer: vec![],
    };
    for &n in &[100u32, 10_000] {
        let mut t = DualKeyTable::new();
        for i in 0..n {
            t.insert(0x100 + i, 0x0a3c_0000 + i, session(i));
        }
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % n;
                let s = t.remove_by_teid(0x100 + i).expect("session present");
                t.insert(0x100 + i, 0x0a3c_0000 + i, s);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_lookup, bench_rebind, bench_remove);
criterion_main!(benches);
