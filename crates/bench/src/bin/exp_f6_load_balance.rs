//! Experiment F6 `load_balance` — migration keeps draining servers busy.
//!
//! Time slicing is per server, so load imbalance directly costs utilization
//! and fairness. Continuous arrivals self-balance through placement; the
//! hard case — and this experiment — is **burst-then-drain**: a burst of
//! jobs with heavy-tailed durations arrives at t=0, then servers drain
//! unevenly as short jobs finish. Without migration, emptied servers idle
//! while crowded ones stay oversubscribed; the balancer moves jobs (big
//! ones first) into the gaps.
//!
//! Figure: utilization, per-server service imbalance (CoV), mean JCT and
//! fairness, with the balancer off vs on.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f6_load_balance [--seed N]`

use gfair_bench::{banner, exp_trace, horizon_arg, seed_arg, sim_config};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::fairness::{jain_index, normalized_shares};
use gfair_metrics::{JctStats, Table};
use gfair_sim::{SimReport, Simulation};
use gfair_types::{ClusterSpec, UserSpec};
use gfair_workloads::{PhillyParams, TraceBuilder};

fn run(balancing: bool, seed: u64) -> SimReport {
    let cluster = ClusterSpec::homogeneous(16, 4); // 64 GPUs
    let users = UserSpec::equal_users(4, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 120;
    // A near-instant burst: everything lands in the first few minutes.
    params.jobs_per_hour = 5000.0;
    params.median_service_mins = 60.0;
    params.service_sigma = 1.6; // heavy tail: minutes to a day
    params.gang_weights = [0.4, 0.2, 0.4, 0.0];
    let trace = TraceBuilder::new(params, seed).build(&users);
    let cfg = if balancing {
        GfairConfig::default()
    } else {
        GfairConfig::default().without_balancing()
    };
    let sim =
        exp_trace(Simulation::new(cluster, users, trace, sim_config(seed)).expect("valid setup"));
    let mut sched = GandivaFair::from_config(cfg);
    sim.run_until(&mut sched, horizon_arg(12))
        .expect("valid run")
}

/// Coefficient of variation of per-server dispensed GPU-seconds.
fn server_cov(report: &SimReport, servers: usize) -> f64 {
    let per: Vec<f64> = (0..servers as u32)
        .map(|s| {
            report
                .server_gpu_secs
                .get(&gfair_types::ServerId::new(s))
                .copied()
                .unwrap_or(0.0)
        })
        .collect();
    let mean = per.iter().sum::<f64>() / per.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = per.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / per.len() as f64;
    var.sqrt() / mean
}

fn main() {
    let seed = seed_arg();
    banner(
        "F6 load_balance",
        "after a burst, servers drain unevenly; migration refills them, raising utilization and evening out per-server service",
    );
    println!("16 servers x 4 GPUs, 4 users, 120-job burst at t~0, heavy-tailed durations, 12 h\n");

    let users = UserSpec::equal_users(4, 100);
    let mut table = Table::new(vec![
        "variant",
        "util",
        "server CoV",
        "finished",
        "mean JCT(min)",
        "jain(norm)",
        "migrations",
    ]);
    for (name, balancing) in [("no balancing", false), ("with balancing", true)] {
        let report = run(balancing, seed);
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
        let jct = JctStats::from_durations(&report.jcts());
        table.row(vec![
            name.to_string(),
            format!("{:.1}%", report.utilization() * 100.0),
            format!("{:.3}", server_cov(&report, 16)),
            report.finished_jobs().to_string(),
            jct.map(|j| format!("{:.0}", j.mean_secs / 60.0))
                .unwrap_or("-".into()),
            format!("{jain:.3}"),
            report.migrations.to_string(),
        ]);
    }
    println!("{}", table.render());
}
