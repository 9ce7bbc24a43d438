//! Criterion bench: discrete-event engine and simulated-MPI throughput
//! (how fast the reproduction itself runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maia_arch::Device;
use maia_mpi::bench::{collective_time, CollectiveOp};
use maia_sim::{Engine, SimDuration};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}


fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.bench_function("engine-64procs-10ticks", |b| {
        b.iter(|| {
            let mut eng = Engine::new();
            for i in 0..64 {
                eng.spawn_inline(format!("p{i}"), |ctx| async move {
                    for _ in 0..10 {
                        ctx.advance(SimDuration::from_ns(100.0)).await;
                    }
                });
            }
            eng.run().unwrap()
        });
    });
    for ranks in [16usize, 59] {
        group.bench_with_input(
            BenchmarkId::new("allreduce-sim", ranks),
            &ranks,
            |b, &r| {
                let dev = if r <= 16 { Device::Host } else { Device::Phi0 };
                b.iter(|| collective_time(dev, r, 4096, CollectiveOp::Allreduce));
            },
        );
    }
    group.finish();
}

criterion_group! { name = benches; config = quick(); targets = bench_engine }
criterion_main!(benches);
