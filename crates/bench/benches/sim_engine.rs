//! Criterion benchmark for the whole pipeline: simulated cluster-hours per
//! wall-clock second under the full Gandiva_fair scheduler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_sim::Simulation;
use gfair_types::{ClusterSpec, SimConfig, SimTime, UserSpec};
use gfair_workloads::{PhillyParams, TraceBuilder};

fn bench_sim_hour(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_one_hour");
    group.sample_size(10);
    for gpus in [32u32, 200] {
        let id = format!("{gpus}gpus");
        group.bench_with_input(BenchmarkId::from_parameter(id), &gpus, |b, &gpus| {
            b.iter(|| {
                let cluster = if gpus == 200 {
                    ClusterSpec::paper_testbed()
                } else {
                    ClusterSpec::homogeneous(gpus / 8, 8)
                };
                let users = UserSpec::equal_users(4, 100);
                let mut params = PhillyParams::default();
                params.num_jobs = 60;
                params.jobs_per_hour = 120.0;
                let trace = TraceBuilder::new(params, 3).build(&users);
                let sim =
                    Simulation::new(cluster, users, trace, SimConfig::default()).expect("valid");
                let mut sched = GandivaFair::from_config(GfairConfig::default());
                sim.run_until(&mut sched, SimTime::from_secs(3600))
                    .expect("valid run")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sim_hour);
criterion_main!(benches);
