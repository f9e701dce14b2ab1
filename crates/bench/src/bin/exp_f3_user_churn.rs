//! Experiment F3 `user_churn` — cluster-wide fairness under churn.
//!
//! Three equal-ticket users join/leave a 32-GPU cluster at staggered times.
//! The figure: each user's share of dispensed GPU time per 15-minute bucket
//! must track the fair split of the *currently active* set (1 -> 1/2 ->
//! 1/3 -> 1/2), with utilization pinned at 100% throughout (work
//! conservation).
//!
//! Run: `cargo run -p gfair-bench --bin exp_f3_user_churn [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg, sim_config};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::Table;
use gfair_sim::Simulation;
use gfair_types::{ClusterSpec, SimTime, UserId, UserSpec};
use gfair_workloads::philly::uniform_batch;
use gfair_workloads::zoo_by_name;

fn main() {
    let seed = seed_arg();
    banner(
        "F3 user_churn",
        "cluster-wide shares re-converge to the active-user fair split on arrival/departure; utilization stays at 100%",
    );

    let cluster = ClusterSpec::homogeneous(4, 8);
    let users = UserSpec::equal_users(3, 100);
    let model = zoo_by_name("ResNet-50").expect("zoo model");
    let mut trace = Vec::new();
    trace.extend(uniform_batch(
        0,
        UserId::new(0),
        &model,
        40,
        1,
        4.0 * 3600.0,
        SimTime::ZERO,
    ));
    trace.extend(uniform_batch(
        100,
        UserId::new(1),
        &model,
        40,
        1,
        2.5 * 3600.0,
        SimTime::from_secs(3600),
    ));
    trace.extend(uniform_batch(
        200,
        UserId::new(2),
        &model,
        40,
        1,
        20.0 * 60.0,
        SimTime::from_secs(2 * 3600),
    ));

    let sim =
        exp_trace(Simulation::new(cluster, users, trace, sim_config(seed)).expect("valid setup"));
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(5 * 3600))
        .expect("valid run");

    let mut table = Table::new(vec!["bucket", "user0", "user1", "user2", "util"]);
    for chunk in report.timeseries.chunks(3) {
        let per_user: Vec<f64> = (0..3u32)
            .map(|u| {
                chunk
                    .iter()
                    .map(|w| w.user_gpu_secs.get(&UserId::new(u)).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        let dispensed: f64 = per_user.iter().sum();
        let capacity: f64 = chunk.iter().map(|w| w.capacity_gpu_secs).sum();
        if dispensed <= 0.0 {
            continue;
        }
        table.row(vec![
            chunk[0].start.to_string(),
            format!("{:.3}", per_user[0] / dispensed),
            format!("{:.3}", per_user[1] / dispensed),
            format!("{:.3}", per_user[2] / dispensed),
            format!("{:.0}%", 100.0 * dispensed / capacity),
        ]);
    }
    println!("{}", table.render());
    println!("expected share steps: 1.000 -> 0.500/0.500 -> 0.333 each -> 0.500/0.500");
    println!("overall utilization: {:.1}%", report.utilization() * 100.0);
}
