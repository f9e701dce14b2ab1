//! Experiment F9 `failure` — resilience to server failures (extension).
//!
//! Not a figure from the paper's evaluation, but a property any production
//! deployment of it needs: when servers fail, evicted jobs must be re-placed
//! and fairness must hold on the surviving capacity; on recovery the
//! balancer must re-spread.
//!
//! Scenario: the 200-GPU testbed loses 4 of its K80 servers (32 GPUs, 16%
//! of capacity) for two hours in the middle of an 8-hour multi-user run.
//! Reported: utilization relative to *surviving* capacity, fairness across
//! users, evictions handled, completions vs the failure-free run.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f9_failure [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg, sim_config, testbed};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::fairness::{jain_index, normalized_shares};
use gfair_metrics::Table;
use gfair_sim::{SimReport, Simulation};
use gfair_types::{ServerId, SimTime, UserSpec};
use gfair_workloads::{PhillyParams, TraceBuilder};

fn run(inject: bool, seed: u64) -> SimReport {
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 300;
    params.jobs_per_hour = 100.0;
    params.median_service_mins = 120.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let mut sim =
        exp_trace(Simulation::new(testbed(), users, trace, sim_config(seed)).expect("valid setup"));
    if inject {
        for k in 0..4u32 {
            sim = sim
                .with_server_failure(ServerId::new(k), SimTime::from_secs(3 * 3600))
                .with_server_recovery(ServerId::new(k), SimTime::from_secs(5 * 3600));
        }
    }
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    sim.run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("valid run")
}

fn main() {
    let seed = seed_arg();
    banner(
        "F9 failure (extension)",
        "losing 16% of capacity for 2 h evicts and re-places jobs without breaking fairness; recovery restores throughput",
    );
    println!(
        "200-GPU testbed; 4 K80 servers down 03:00-05:00; 6 users, 300 jobs, 8 h, seed {seed}\n"
    );

    let users = UserSpec::equal_users(6, 100);
    let mut table = Table::new(vec![
        "run",
        "util(nominal)",
        "finished",
        "jain(norm)",
        "migrations",
        "stale actions",
    ]);
    for (name, inject) in [("no failures", false), ("with failures", true)] {
        let report = run(inject, seed);
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
        table.row(vec![
            name.to_string(),
            format!("{:.1}%", report.utilization() * 100.0),
            report.finished_jobs().to_string(),
            format!("{jain:.3}"),
            report.migrations.to_string(),
            report.stale_migrations.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(utilization is vs nominal capacity; the failure window removes 16% of it)");
}
