//! Ablation A3 `lottery_variance` — why stride and not lottery?
//!
//! Lottery scheduling is proportional in expectation, but a user's share in
//! any short window fluctuates; stride pins it deterministically. This
//! experiment runs the same two-user contention workload under Gandiva_fair
//! (stride) and the user-fair gang lottery, then reports each user's mean
//! absolute deviation from the 50% fair share across 15-minute buckets.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_a3_lottery_variance [--seed N]`

use gfair_baselines::LotteryGang;
use gfair_bench::{banner, exp_trace, seed_arg, sim_config};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::Table;
use gfair_sim::{ClusterScheduler, SimReport, Simulation};
use gfair_types::{ClusterSpec, SimTime, UserId, UserSpec};
use gfair_workloads::philly::uniform_batch;
use gfair_workloads::zoo_by_name;

fn run(sched: &mut dyn ClusterScheduler, seed: u64) -> SimReport {
    let cluster = ClusterSpec::homogeneous(2, 8);
    let users = UserSpec::equal_users(2, 100);
    let model = zoo_by_name("ResNet-50").expect("zoo model");
    let mut trace = uniform_batch(
        0,
        UserId::new(0),
        &model,
        20,
        1,
        200.0 * 3600.0,
        SimTime::ZERO,
    );
    trace.extend(uniform_batch(
        100,
        UserId::new(1),
        &model,
        20,
        1,
        200.0 * 3600.0,
        SimTime::ZERO,
    ));
    let sim =
        exp_trace(Simulation::new(cluster, users, trace, sim_config(seed)).expect("valid setup"));
    sim.run_until(sched, SimTime::from_secs(12 * 3600))
        .expect("valid run")
}

/// Mean absolute deviation of user 0's share from 0.5, over 15-minute
/// buckets (3 windows each), plus the worst bucket.
fn share_noise(report: &SimReport) -> (f64, f64) {
    let mut devs = Vec::new();
    for chunk in report.timeseries.chunks(3) {
        let mine: f64 = chunk
            .iter()
            .map(|w| w.user_gpu_secs.get(&UserId::new(0)).copied().unwrap_or(0.0))
            .sum();
        let total: f64 = chunk.iter().map(|w| w.used_gpu_secs).sum();
        if total > 0.0 {
            devs.push((mine / total - 0.5).abs());
        }
    }
    let mean = devs.iter().sum::<f64>() / devs.len().max(1) as f64;
    let worst = devs.iter().cloned().fold(0.0, f64::max);
    (mean, worst)
}

fn main() {
    let seed = seed_arg();
    banner(
        "A3 lottery_variance",
        "stride pins short-window shares at the entitlement; lottery wanders around it — the reason the paper builds on stride",
    );
    println!("16 GPUs, 2 equal users x 20 one-GPU jobs, 12 h; share deviation from 0.5 per 15-min bucket\n");

    let mut table = Table::new(vec!["scheduler", "mean |share-0.5|", "worst bucket"]);
    let mut gf = GandivaFair::from_config(GfairConfig::default());
    let r = run(&mut gf, seed);
    let (mean, worst) = share_noise(&r);
    table.row(vec![
        "gandiva-fair (stride)".into(),
        format!("{mean:.4}"),
        format!("{worst:.4}"),
    ]);
    let mut lg = LotteryGang::new(seed);
    let r = run(&mut lg, seed);
    let (mean, worst) = share_noise(&r);
    table.row(vec![
        "lottery-gang".into(),
        format!("{mean:.4}"),
        format!("{worst:.4}"),
    ]);
    println!("{}", table.render());
}
