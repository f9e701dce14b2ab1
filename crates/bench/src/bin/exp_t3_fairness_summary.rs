//! Experiment T3 `fairness_summary` — fairness indices across schedulers.
//!
//! Same trace as F4 but with *asymmetric job counts* (one user floods),
//! which is where user-level fairness separates the schedulers: job-level
//! time slicing rewards flooding; Gandiva_fair and the quota schedulers do
//! not. Reports Jain index and max-min ratio on entitlement-normalized
//! service.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_t3_fairness_summary [--seed N]`

use gfair_baselines::{Drf, Fifo, GandivaLike, StaticPartition};
use gfair_bench::{banner, exp_trace, horizon_arg, seed_arg, sim_config, testbed};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::fairness::{jain_index, max_min_ratio, normalized_shares};
use gfair_metrics::Table;
use gfair_sim::{ClusterScheduler, Simulation};
use gfair_types::{JobSpec, SimTime, UserSpec};
use gfair_workloads::philly::uniform_batch;
use gfair_workloads::zoo_by_name;

/// 4 users, equal tickets; user 0 floods with 4x the jobs of the others.
fn trace() -> (Vec<UserSpec>, Vec<JobSpec>) {
    let users = UserSpec::equal_users(4, 100);
    let model = zoo_by_name("ResNet-50").expect("zoo model");
    let mut jobs = Vec::new();
    // Every user holds enough jobs (60 > 50-GPU entitlement) to consume a
    // full fair share, so the capped max-min ideal is exactly 0.25 each.
    let counts = [160u32, 60, 60, 60];
    let mut next = 0u32;
    for (u, &count) in counts.iter().enumerate() {
        jobs.extend(uniform_batch(
            next,
            users[u].id,
            &model,
            count,
            1,
            50.0 * 3600.0,
            SimTime::ZERO,
        ));
        next += count;
    }
    (users, jobs)
}

fn main() {
    let seed = seed_arg();
    banner(
        "T3 fairness_summary",
        "with one user flooding 4x the jobs, only user-level schedulers keep normalized service flat (Jain ~ 1)",
    );
    println!("200-GPU testbed, 4 equal-ticket users, user0 floods (160 vs 60 jobs), 6 h\n");

    let (users, jobs) = trace();
    let scheds: Vec<Box<dyn ClusterScheduler>> = vec![
        Box::new(GandivaFair::from_config(GfairConfig::default())),
        Box::new(GandivaLike::new()),
        Box::new(StaticPartition::new(&testbed(), &users)),
        Box::new(Drf::new()),
        Box::new(Fifo::new()),
    ];
    let mut table = Table::new(vec![
        "scheduler",
        "u0 share",
        "u1 share",
        "u2 share",
        "u3 share",
        "jain",
        "min/max",
        "util",
    ]);
    for mut sched in scheds {
        let sim = exp_trace(
            Simulation::new(testbed(), users.clone(), jobs.clone(), sim_config(seed))
                .expect("valid setup"),
        );
        let report = sim
            .run_until(sched.as_mut(), horizon_arg(6))
            .expect("valid run");
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let total: f64 = received.iter().sum();
        let norm = normalized_shares(&received, &vec![1.0; users.len()]);
        let mut row = vec![report.scheduler.clone()];
        row.extend(received.iter().map(|r| format!("{:.3}", r / total)));
        row.push(format!("{:.3}", jain_index(&norm)));
        row.push(format!("{:.3}", max_min_ratio(&norm)));
        row.push(format!("{:.1}%", report.utilization() * 100.0));
        table.row(row);
    }
    println!("{}", table.render());
    println!("(ideal fair share = 0.250 per user regardless of job count)");
}
