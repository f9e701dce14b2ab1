//! Criterion micro-benchmarks for the scheduling primitives: gang-aware
//! round planning and split-stride round planning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfair_stride::{GangPolicy, GangScheduler, SplitStride};

fn bench_gang_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("gang_plan_round");
    for (gpus, jobs) in [(8u32, 16usize), (8, 64), (64, 256)] {
        let id = format!("{gpus}gpus_{jobs}jobs");
        group.bench_with_input(
            BenchmarkId::from_parameter(id),
            &(gpus, jobs),
            |b, &(gpus, jobs)| {
                let mut g = GangScheduler::new(gpus, GangPolicy::GangAware);
                for i in 0..jobs as u32 {
                    let width = [1u32, 1, 2, 4][i as usize % 4].min(gpus);
                    g.join(i, 100.0, width);
                }
                b.iter(|| g.plan_round());
            },
        );
    }
    group.finish();
}

fn bench_split_stride_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("split_stride_plan_round");
    for (users, jobs_per_user) in [(4usize, 4usize), (16, 8)] {
        let id = format!("{users}users_x{jobs_per_user}");
        group.bench_with_input(
            BenchmarkId::from_parameter(id),
            &(users, jobs_per_user),
            |b, &(users, jobs_per_user)| {
                let mut s = SplitStride::new(8, GangPolicy::GangAware);
                let mut next_job = 0u32;
                for u in 0..users as u32 {
                    s.set_user_weight(u, 100.0);
                    for _ in 0..jobs_per_user {
                        s.add_job(u, next_job, 1);
                        next_job += 1;
                    }
                }
                b.iter(|| s.plan_round());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gang_round, bench_split_stride_round);
criterion_main!(benches);
