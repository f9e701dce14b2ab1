//! Operational events: server failure/recovery and a priority change.
//!
//! A 32-GPU cluster shared by two teams. At 01:00 one server dies (its jobs
//! are evicted and re-placed); at 02:00 it comes back; at 03:00 team-a's
//! tickets are tripled. Watch utilization dip and recover, and shares step
//! from 50/50 to 75/25.
//!
//! Run with: `cargo run --example cluster_events`

use gfair::prelude::*;
use gfair::workloads::philly::uniform_batch;

fn main() {
    let cluster = ClusterSpec::homogeneous(4, 8);
    let users = UserSpec::equal_users(2, 100);
    let model = zoo_by_name("ResNet-50").expect("zoo model");
    let mut trace = uniform_batch(
        0,
        UserId::new(0),
        &model,
        24,
        1,
        50.0 * 3600.0,
        SimTime::ZERO,
    );
    trace.extend(uniform_batch(
        100,
        UserId::new(1),
        &model,
        24,
        1,
        50.0 * 3600.0,
        SimTime::ZERO,
    ));

    let sim = Simulation::new(cluster, users, trace, SimConfig::default())
        .expect("valid configuration")
        .with_server_failure(ServerId::new(3), SimTime::from_secs(3600))
        .with_server_recovery(ServerId::new(3), SimTime::from_secs(2 * 3600))
        .with_ticket_change(UserId::new(0), SimTime::from_secs(3 * 3600), 300);

    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(4 * 3600))
        .expect("valid scheduling decisions");

    println!("timeline: 01:00 server S3 fails | 02:00 S3 recovers | 03:00 team-a tickets x3\n");
    let mut table = Table::new(vec!["bucket", "team-a", "team-b", "util"]);
    for chunk in report.timeseries.chunks(3) {
        let a: f64 = chunk
            .iter()
            .map(|w| w.user_gpu_secs.get(&UserId::new(0)).copied().unwrap_or(0.0))
            .sum();
        let b: f64 = chunk
            .iter()
            .map(|w| w.user_gpu_secs.get(&UserId::new(1)).copied().unwrap_or(0.0))
            .sum();
        let cap: f64 = chunk.iter().map(|w| w.capacity_gpu_secs).sum();
        if a + b <= 0.0 {
            continue;
        }
        table.row(vec![
            chunk[0].start.to_string(),
            format!("{:.2}", a / (a + b)),
            format!("{:.2}", b / (a + b)),
            format!("{:.0}%", 100.0 * (a + b) / cap),
        ]);
    }
    println!("{}", table.render());
    println!(
        "migrations: {} (evictions re-placed + balancer respreading after recovery)",
        report.migrations
    );
}
