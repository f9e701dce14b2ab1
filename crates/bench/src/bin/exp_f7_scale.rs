//! Experiment F7 `scale` — does the scheduler hold up beyond the testbed?
//!
//! Scales the cluster from 200 to 2000 GPUs with load and user count scaled
//! proportionally. Reports wall-clock scheduling cost per simulated round
//! (the central scheduler's decision latency) alongside fairness and
//! utilization — fairness must not degrade with scale, and per-round
//! decision time must stay far below the 60 s quantum.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f7_scale [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg, sim_config};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::fairness::{jain_index, normalized_shares};
use gfair_metrics::Table;
use gfair_sim::Simulation;
use gfair_types::{ClusterSpec, GenCatalog, SimTime, UserSpec};
use gfair_workloads::{PhillyParams, TraceBuilder};
use std::time::Instant;

fn cluster_of(scale: u32) -> ClusterSpec {
    ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[
            ("K80", 16 * scale, 8),
            ("P100", 12 * scale, 4),
            ("V100", 6 * scale, 4),
        ],
    )
}

fn main() {
    let seed = seed_arg();
    banner(
        "F7 scale",
        "decision latency stays orders of magnitude below the quantum and fairness holds as the cluster grows 10x",
    );

    let mut table = Table::new(vec![
        "GPUs",
        "servers",
        "users",
        "jobs",
        "sim rounds",
        "ms/round",
        "util",
        "jain(norm)",
    ]);
    for scale in [1u32, 2, 5, 10] {
        let cluster = cluster_of(scale);
        let gpus = cluster.total_gpus();
        let servers = cluster.servers.len();
        let n_users = 4 * scale;
        let users = UserSpec::equal_users(n_users, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 150 * scale as usize;
        params.jobs_per_hour = 60.0 * scale as f64;
        params.median_service_mins = 120.0;
        let trace = TraceBuilder::new(params, seed).build(&users);
        let sim = exp_trace(
            Simulation::new(cluster, users.clone(), trace, sim_config(seed)).expect("valid setup"),
        );
        let mut sched = GandivaFair::from_config(GfairConfig::default());
        let start = Instant::now();
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(6 * 3600))
            .expect("valid run");
        let elapsed = start.elapsed();
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let jain = jain_index(&normalized_shares(&received, &vec![1.0; users.len()]));
        table.row(vec![
            gpus.to_string(),
            servers.to_string(),
            n_users.to_string(),
            (150 * scale).to_string(),
            report.rounds.to_string(),
            format!("{:.2}", elapsed.as_millis() as f64 / report.rounds as f64),
            format!("{:.1}%", report.utilization() * 100.0),
            format!("{jain:.3}"),
        ]);
    }
    println!("{}", table.render());
    println!("(ms/round is wall-clock cost of one 60 s scheduling quantum, whole engine included)");
}
