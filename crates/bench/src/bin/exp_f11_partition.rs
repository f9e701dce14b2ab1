//! Experiment F11 `partition` — degraded-mode scheduling across a network
//! partition (extension).
//!
//! Not a figure from the paper's evaluation. A partition differs from the
//! F9 server failure in the one way that matters: the server is *alive but
//! unreachable* — its residents keep running on the last stride weights the
//! central scheduler delivered, while placement and balancing route around
//! it. On heal the scheduler reconciles (re-syncs entitlements, re-validates
//! residency) and the auditor checks that tickets were conserved across the
//! heal. The claim pinned here is that degradation is graceful: little
//! service is actually lost, shares re-converge after the heal, and exactly
//! one reconcile with zero residency drift is needed.
//!
//! Scenario: the 200-GPU testbed with one K80 server partitioned for two
//! hours in the middle of an 8-hour, 6-user run, vs the same run unfaulted.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f11_partition [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg, sim_config, testbed};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_faults::FaultPlan;
use gfair_metrics::fairness::{jain_index, normalized_shares};
use gfair_metrics::Table;
use gfair_obs::{Obs, SharedObs};
use gfair_sim::{SimReport, Simulation};
use gfair_types::{ServerId, SimTime, UserSpec};
use gfair_workloads::{PhillyParams, TraceBuilder};
use std::sync::Arc;

fn run(partition: bool, seed: u64) -> SimReport {
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 300;
    params.jobs_per_hour = 100.0;
    params.median_service_mins = 120.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    let mut sim = exp_trace(
        Simulation::new(testbed(), users, trace, sim_config(seed))
            .expect("valid setup")
            .with_obs(Arc::clone(&obs)),
    );
    if partition {
        let plan = FaultPlan::none().with_partition(
            ServerId::new(0),
            SimTime::from_secs(3 * 3600),
            SimTime::from_secs(5 * 3600),
        );
        sim = sim.with_faults(plan);
    }
    let mut sched = GandivaFair::from_config(GfairConfig::default()).with_obs(Arc::clone(&obs));
    sim.run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("valid run")
}

fn counter(report: &SimReport, name: &str) -> u64 {
    report
        .obs
        .as_ref()
        .and_then(|s| s.counters.get(name).copied())
        .unwrap_or(0)
}

fn main() {
    let seed = seed_arg();
    banner(
        "F11 partition (extension)",
        "a partitioned server degrades gracefully on stale weights; on heal one reconcile re-syncs state and shares re-converge",
    );
    println!(
        "200-GPU testbed; server 0 unreachable 03:00-05:00; 6 users, 300 jobs, 8 h, seed {seed}\n"
    );

    let users = UserSpec::equal_users(6, 100);
    let mut table = Table::new(vec![
        "run",
        "util",
        "finished",
        "jain(norm)",
        "migrations",
        "reconciles",
        "drift",
    ]);
    for (name, partition) in [("no partition", false), ("with partition", true)] {
        let report = run(partition, seed);
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
        table.row(vec![
            name.to_string(),
            format!("{:.1}%", report.utilization() * 100.0),
            report.finished_jobs().to_string(),
            format!("{jain:.3}"),
            report.migrations.to_string(),
            counter(&report, "reconciles").to_string(),
            counter(&report, "reconcile_drift").to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(the partitioned server keeps serving its residents throughout, so utilization barely moves;");
    println!(" 'drift' is the residency mismatch the post-heal reconcile had to repair)");
}
