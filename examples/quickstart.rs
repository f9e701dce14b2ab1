//! Quickstart: share a small GPU cluster between two users with
//! Gandiva_fair and print what each user received.
//!
//! Run with: `cargo run --example quickstart`

use gfair::prelude::*;

fn main() {
    // A 24-GPU homogeneous cluster (3 servers x 8 GPUs).
    let cluster = ClusterSpec::homogeneous(3, 8);

    // Two users with equal tickets.
    let users = UserSpec::equal_users(2, 100);

    // A synthetic Philly-like trace: 60 jobs over a few hours.
    let mut params = PhillyParams::default();
    params.num_jobs = 60;
    params.jobs_per_hour = 30.0;
    let trace = TraceBuilder::new(params, 42).build(&users);

    // Simulate under the Gandiva_fair scheduler.
    let sim = Simulation::new(cluster, users.clone(), trace, SimConfig::default())
        .expect("valid configuration");
    let mut scheduler = GandivaFair::from_config(GfairConfig::default());
    let report = sim.run(&mut scheduler).expect("valid scheduling decisions");

    println!("scheduler        : {}", report.scheduler);
    println!("simulated time   : {}", report.end);
    println!("jobs finished    : {}", report.finished_jobs());
    println!("GPU utilization  : {:.1}%", report.utilization() * 100.0);
    println!("migrations       : {}", report.migrations);
    println!();

    let mut table = Table::new(vec!["user", "tickets", "gpu-hours", "share"]);
    let total: f64 = report.user_gpu_secs.values().sum();
    for u in &users {
        let secs = report.gpu_secs_of(u.id);
        table.row(vec![
            u.name.clone(),
            u.tickets.to_string(),
            format!("{:.1}", secs / 3600.0),
            format!("{:.1}%", 100.0 * secs / total),
        ]);
    }
    println!("{}", table.render());

    let jct = JctStats::from_durations(&report.jcts()).expect("jobs finished");
    println!(
        "JCT: mean {:.1} min, p50 {:.1} min, p95 {:.1} min",
        jct.mean_secs / 60.0,
        jct.p50_secs / 60.0,
        jct.p95_secs / 60.0
    );
}
