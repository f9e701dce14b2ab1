//! Ablation F8 `quantum_sweep` — picking the time-slicing quantum.
//!
//! Gandiva-style suspend/resume costs a few seconds per switch; the quantum
//! trades that overhead against scheduling granularity. With a 6 s switch
//! cost, this sweep measures, for quanta from 30 s to 10 min:
//!
//! * effective throughput (training progress / GPU occupancy) of a
//!   saturating long-job workload, and
//! * the mean JCT of a stream of short (5-minute) jobs sharing the server —
//!   long quanta make short jobs wait out whole rounds.
//!
//! The paper's minute-granularity choice sits at the knee: >90% effective
//! throughput with near-minimal short-job latency.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f8_quantum_sweep [--seed N]`

use gfair_bench::{banner, exp_trace, seed_arg};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::Table;
use gfair_sim::Simulation;
use gfair_types::{ClusterSpec, SimConfig, SimDuration, SimTime, UserId, UserSpec};
use gfair_workloads::philly::uniform_batch;
use gfair_workloads::zoo_by_name;

fn main() {
    let seed = seed_arg();
    banner(
        "F8 quantum_sweep",
        "longer quanta amortize the suspend/resume cost but slow share re-convergence; the paper's ~1 min quantum sits at the knee",
    );
    println!(
        "8 GPUs; user0: 8 saturating long jobs; user1: a 5-min job every 10 min; 6 s switch cost\n"
    );

    let mut table = Table::new(vec![
        "quantum",
        "occupancy",
        "effective",
        "efficiency",
        "short-job mean JCT",
    ]);
    for quantum_secs in [30u64, 60, 120, 300, 600] {
        let model = zoo_by_name("ResNet-50").expect("zoo model");
        let mut trace = uniform_batch(
            0,
            UserId::new(0),
            &model,
            8,
            1,
            200.0 * 3600.0,
            SimTime::ZERO,
        );
        for k in 0..30u32 {
            trace.extend(uniform_batch(
                100 + k,
                UserId::new(1),
                &model,
                1,
                1,
                300.0,
                // Offset from round boundaries so the queueing delay to the
                // next quantum edge is actually exercised.
                SimTime::from_secs(600 * (k as u64 + 1) + 17),
            ));
        }
        let mut cfg = SimConfig::default()
            .with_seed(seed)
            .with_quantum(SimDuration::from_secs(quantum_secs))
            .with_switch_overhead(SimDuration::from_secs(6));
        // Keep periodic services legal for sub-minute and long quanta.
        cfg.balance_interval = cfg.quantum.max(SimDuration::from_mins(5));
        cfg.trade_interval = cfg.quantum.max(SimDuration::from_mins(10));
        cfg.profile_stint = cfg.quantum.max(SimDuration::from_mins(3));
        cfg.report_window = cfg.quantum.max(SimDuration::from_mins(5));
        let cluster = ClusterSpec::homogeneous(1, 8);
        let users = UserSpec::equal_users(2, 100);
        let sim = exp_trace(Simulation::new(cluster, users, trace, cfg).expect("valid setup"));
        let mut sched = GandivaFair::from_config(GfairConfig::default());
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(6 * 3600))
            .expect("valid run");

        let occupancy = report.utilization();
        let effective = report.total_base_secs() / report.gpu_secs_capacity;
        // Mean JCT of user1's short jobs (ids 100..130).
        let short_jcts: Vec<_> = report
            .jobs
            .values()
            .filter(|j| j.user == UserId::new(1))
            .filter_map(|j| j.jct())
            .collect();
        let mean_jct = if short_jcts.is_empty() {
            f64::NAN
        } else {
            short_jcts.iter().map(|d| d.as_secs_f64()).sum::<f64>() / short_jcts.len() as f64
        };
        table.row(vec![
            format!("{quantum_secs} s"),
            format!("{:.1}%", occupancy * 100.0),
            format!("{:.1}%", effective * 100.0),
            format!("{:.1}%", 100.0 * effective / occupancy.max(1e-9)),
            format!("{:.1} min", mean_jct / 60.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(effective = training progress; efficiency = effective/occupancy — the switch-cost loss;"
    );
    println!(
        " long quanta also strand GPUs when short jobs finish mid-round, hence lower occupancy)"
    );
}
