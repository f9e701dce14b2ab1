//! Experiment F4 `efficiency` — macro comparison on the 200-GPU testbed.
//!
//! A heavy Philly-like multi-user trace on the paper-scale heterogeneous
//! cluster, under five schedulers. The paper's claim to reproduce in shape:
//! Gandiva_fair matches the efficiency of the efficiency-only scheduler
//! (utilization, JCT, completed jobs) while static partitioning — the other
//! way to be fair — pays a large JCT/completion penalty.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f4_efficiency [--seed N]`

use gfair_baselines::{Drf, Fifo, GandivaLike, StaticPartition};
use gfair_bench::{banner, exp_trace, horizon_arg, seed_arg, sim_config, testbed};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::fairness::{jain_index, normalized_shares};
use gfair_metrics::{JctStats, Table};
use gfair_sim::{ClusterScheduler, SimReport, Simulation};
use gfair_types::UserSpec;
use gfair_workloads::{PhillyParams, TraceBuilder};

fn params() -> PhillyParams {
    let mut p = PhillyParams::default();
    p.num_jobs = 400;
    p.jobs_per_hour = 120.0;
    p.median_service_mins = 120.0;
    p
}

fn run(sched: &mut dyn ClusterScheduler, seed: u64) -> SimReport {
    let users = UserSpec::equal_users(8, 100);
    let trace = TraceBuilder::new(params(), seed).build(&users);
    let sim =
        exp_trace(Simulation::new(testbed(), users, trace, sim_config(seed)).expect("valid setup"));
    sim.run_until(sched, horizon_arg(12)).expect("valid run")
}

fn main() {
    let seed = seed_arg();
    banner(
        "F4 efficiency",
        "Gandiva_fair ~= efficiency-only scheduler on JCT/utilization; static partitioning pays a heavy efficiency price for its fairness",
    );
    println!(
        "200-GPU testbed (128 K80 / 48 P100 / 24 V100), 8 users, 400 jobs, 12 h horizon, seed {seed}\n"
    );

    let users = UserSpec::equal_users(8, 100);
    let scheds: Vec<Box<dyn ClusterScheduler>> = vec![
        Box::new(GandivaFair::from_config(GfairConfig::default())),
        Box::new(GandivaLike::new()),
        Box::new(StaticPartition::new(&testbed(), &users)),
        Box::new(Drf::new()),
        Box::new(Fifo::new()),
    ];
    let mut table = Table::new(vec![
        "scheduler",
        "util",
        "finished",
        "mean JCT(min)",
        "p50",
        "p95",
        "jain(norm)",
        "migrations",
    ]);
    for mut sched in scheds {
        let report = run(sched.as_mut(), seed);
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
        let jct = JctStats::from_durations(&report.jcts());
        let fmt_min = |v: f64| format!("{:.0}", v / 60.0);
        table.row(vec![
            report.scheduler.clone(),
            format!("{:.1}%", report.utilization() * 100.0),
            report.finished_jobs().to_string(),
            jct.map(|j| fmt_min(j.mean_secs)).unwrap_or("-".into()),
            jct.map(|j| fmt_min(j.p50_secs)).unwrap_or("-".into()),
            jct.map(|j| fmt_min(j.p95_secs)).unwrap_or("-".into()),
            format!("{jain:.3}"),
            report.migrations.to_string(),
        ]);
    }
    println!("{}", table.render());
}
