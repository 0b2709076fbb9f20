//! Engine micro-benchmarks: the cache, sampling, and consensus state
//! machines at the heart of the applications.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use inc_kvs::{LakeCache, LakeCacheConfig, Lookup, LruCache};
use inc_paxos::{Acceptor, AcceptorStorage, Leader, Learner, MsgType, PaxosMsg};
use inc_sim::{Histogram, Rng};
use inc_workloads::Zipf;

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines");

    // LRU cache hit path.
    let mut lru = LruCache::new(4096);
    for i in 0..4096u32 {
        lru.insert(i.to_be_bytes().to_vec(), vec![0u8; 64]);
    }
    let mut i = 0u32;
    g.bench_function("lru_get_hit", |bench| {
        bench.iter(|| {
            i = (i + 1) & 4095;
            black_box(lru.get(&i.to_be_bytes()).map(|v| v.len()))
        })
    });

    // LaKe two-level lookup with L1 promotion.
    let mut lake = LakeCache::new(LakeCacheConfig::tiny(256, 4096));
    for i in 0..4096u32 {
        lake.warm(i.to_be_bytes().to_vec(), vec![0u8; 64], 0);
    }
    let mut j = 0u32;
    g.bench_function("lake_get", |bench| {
        bench.iter(|| {
            j = (j + 1) & 4095;
            // A hit lends the value out of the cache; only what was
            // learned from it may leave the closure.
            black_box(lake.get(&j.to_be_bytes()) != Lookup::Miss)
        })
    });

    // Zipf sampling (rejection-inversion, O(1)).
    let zipf = Zipf::new(1_000_000_000, 0.99).unwrap();
    let mut rng = Rng::new(1);
    g.bench_function("zipf_sample_1e9", |bench| {
        bench.iter(|| black_box(zipf.sample(&mut rng)))
    });

    // Histogram recording.
    let mut h = Histogram::new();
    let mut k = 1u64;
    g.bench_function("histogram_record", |bench| {
        bench.iter(|| {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(k >> 40));
        })
    });

    // One full Paxos round through the three role engines (3 acceptors).
    g.bench_function("paxos_full_round", |bench| {
        let mut leader = Leader::bootstrap(1, 3);
        let mut accs: Vec<_> = (0..3)
            .map(|i| Acceptor::new(i, AcceptorStorage::unbounded()))
            .collect();
        let mut learner = Learner::new(3);
        let value = vec![0u8; 32];
        bench.iter(|| {
            let req = PaxosMsg::new(MsgType::ClientRequest, 0, 0, value.clone());
            for (_, m2a) in leader.handle(&req) {
                for acc in accs.iter_mut() {
                    for (_, m2b) in acc.handle(&m2a) {
                        black_box(learner.handle(&m2b));
                    }
                }
            }
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(30);
    targets = bench_engines
}
criterion_main!(benches);
