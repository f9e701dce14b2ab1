//! Head-to-head comparison of all five schedulers on one trace.
//!
//! Reproduces the paper's qualitative landscape: the efficiency-only
//! scheduler and Gandiva_fair keep the cluster busy; static partitioning is
//! fair but wastes idle partitions; FIFO suffers head-of-line blocking;
//! only Gandiva_fair combines fairness *and* efficiency.
//!
//! Run with: `cargo run --example scheduler_comparison`

use gfair::metrics::fairness::normalized_shares;
use gfair::prelude::*;
use gfair::sim::ClusterScheduler;

fn trace_and_users() -> (ClusterSpec, Vec<UserSpec>, Vec<JobSpec>) {
    let cluster = ClusterSpec::homogeneous(6, 8); // 48 GPUs
    let users = UserSpec::equal_users(4, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 120;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 90.0;
    let trace = TraceBuilder::new(params, 5).build(&users);
    (cluster, users, trace)
}

fn run(mut sched: Box<dyn ClusterScheduler>) -> SimReport {
    let (cluster, users, trace) = trace_and_users();
    let sim =
        Simulation::new(cluster, users, trace, SimConfig::default()).expect("valid configuration");
    sim.run_until(sched.as_mut(), SimTime::from_secs(12 * 3600))
        .expect("valid scheduling decisions")
}

fn main() {
    let (cluster, users, _) = trace_and_users();
    let schedulers: Vec<Box<dyn ClusterScheduler>> = vec![
        Box::new(GandivaFair::from_config(GfairConfig::default())),
        Box::new(GandivaLike::new()),
        Box::new(StaticPartition::new(&cluster, &users)),
        Box::new(Drf::new()),
        Box::new(Fifo::new()),
    ];

    let mut table = Table::new(vec![
        "scheduler",
        "util",
        "jain(norm)",
        "mean JCT (min)",
        "p95 JCT (min)",
        "finished",
    ]);
    for sched in schedulers {
        let report = run(sched);
        // Normalized service: equal tickets => equal entitlement.
        let entitled = vec![1.0; users.len()];
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let jain = jain_index(&normalized_shares(&received, &entitled));
        let jct = JctStats::from_durations(&report.jcts());
        table.row(vec![
            report.scheduler.clone(),
            format!("{:.1}%", report.utilization() * 100.0),
            format!("{jain:.3}"),
            jct.map(|j| format!("{:.0}", j.mean_secs / 60.0))
                .unwrap_or_else(|| "-".into()),
            jct.map(|j| format!("{:.0}", j.p95_secs / 60.0))
                .unwrap_or_else(|| "-".into()),
            report.finished_jobs().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(48-GPU cluster, 4 equal-ticket users, 120-job Philly-like trace, 12 h horizon)");
}
