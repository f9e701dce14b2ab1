//! Cluster-wide fairness under user churn (the paper's headline behaviour).
//!
//! Three users join a busy cluster at staggered times. Watch each user's
//! share of cluster GPU time re-converge to the fair split as the active
//! set changes: 100% -> 50/50 -> ~33/33/33 -> back, with idle capacity
//! always redistributed (work conservation).
//!
//! Run with: `cargo run --example multi_user_fairness`

use gfair::metrics::user_share_series;
use gfair::prelude::*;
use gfair::workloads::philly::uniform_batch;

fn main() {
    let cluster = ClusterSpec::homogeneous(4, 8); // 32 GPUs
    let users = UserSpec::equal_users(3, 100);
    let model = zoo_by_name("ResNet-50").expect("zoo model");

    // Each user submits a steady batch of 1-GPU jobs sized so they stay
    // active for the whole window they are present.
    let mut trace = Vec::new();
    // User 0 arrives at t=0 and stays busy ~4 h.
    trace.extend(uniform_batch(
        0,
        UserId::new(0),
        &model,
        40,
        1,
        4.0 * 3600.0,
        SimTime::ZERO,
    ));
    // User 1 arrives at t=1h.
    trace.extend(uniform_batch(
        100,
        UserId::new(1),
        &model,
        40,
        1,
        2.5 * 3600.0,
        SimTime::from_secs(3600),
    ));
    // User 2 arrives at t=2h with a short burst and departs early.
    trace.extend(uniform_batch(
        200,
        UserId::new(2),
        &model,
        40,
        1,
        20.0 * 60.0,
        SimTime::from_secs(2 * 3600),
    ));

    let sim = Simulation::new(cluster, users.clone(), trace, SimConfig::default())
        .expect("valid configuration");
    let mut scheduler = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut scheduler, SimTime::from_secs(5 * 3600))
        .expect("valid scheduling decisions");

    println!("Per-user share of dispensed GPU time, per 15-minute bucket");
    println!("(user2 bursts in at 02:00 and departs when its jobs finish)\n");
    // Aggregate three 5-minute windows per bucket. Stride rotates users in a
    // multi-window cycle, so sampling single windows would alias; summing
    // over the cycle shows the true share.
    let series: Vec<_> = users
        .iter()
        .map(|u| user_share_series(&report, u.id))
        .collect();
    let mut table = Table::new(vec!["bucket", "user0", "user1", "user2", "bar"]);
    for chunk_start in (0..report.timeseries.len()).step_by(3) {
        let end = (chunk_start + 3).min(report.timeseries.len());
        let totals: Vec<f64> = series
            .iter()
            .map(|s| s[chunk_start..end].iter().map(|p| p.gpu_secs).sum())
            .collect();
        let dispensed: f64 = totals.iter().sum();
        if dispensed <= 0.0 {
            continue;
        }
        let shares: Vec<f64> = totals.iter().map(|t| t / dispensed).collect();
        let bar: String = shares
            .iter()
            .map(|s| "#".repeat((s * 20.0).round() as usize))
            .collect::<Vec<_>>()
            .join("|");
        table.row(vec![
            report.timeseries[chunk_start].start.to_string(),
            format!("{:.2}", shares[0]),
            format!("{:.2}", shares[1]),
            format!("{:.2}", shares[2]),
            bar,
        ]);
    }
    println!("{}", table.render());

    println!(
        "overall utilization: {:.1}% (work conservation keeps it high through churn)",
        report.utilization() * 100.0
    );
}
