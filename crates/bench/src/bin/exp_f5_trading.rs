//! Experiment F5 `trading` — automatic GPU trading on a heterogeneous
//! cluster.
//!
//! A low-speedup team and a high-speedup team share a K80-heavy cluster
//! with scarce V100s. With trading on, the low-speedup team sells its V100
//! entitlement for extra K80 capacity at a price that leaves nobody worse
//! off. The figure: per-team effective (base-GPU-equivalent) throughput and
//! V100 occupancy, trading off vs on.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_f5_trading [--seed N]`

use gfair_bench::{banner, exp_trace, horizon_arg, seed_arg, sim_config, trading_cluster};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::Table;
use gfair_sim::{SimReport, Simulation};
use gfair_types::{GenId, UserId};
use gfair_workloads::population::UserPopulation;
use gfair_workloads::{ModelClass, PhillyParams};

fn population() -> UserPopulation {
    UserPopulation::new()
        .user_of_class("vae-team", 100, ModelClass::LowSpeedup)
        .user_of_class("cnn-team", 100, ModelClass::HighSpeedup)
}

fn run(trading: bool, seed: u64) -> (SimReport, usize) {
    let pop = population();
    let mut params = PhillyParams::default();
    params.num_jobs = 200;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 150.0;
    let trace = pop.trace(params, seed);
    let cfg = if trading {
        GfairConfig::default()
    } else {
        GfairConfig::default().without_trading()
    };
    let sim = exp_trace(
        Simulation::new(trading_cluster(), pop.users(), trace, sim_config(seed))
            .expect("valid setup"),
    );
    let mut sched = GandivaFair::from_config(cfg);
    let report = sim
        .run_until(&mut sched, horizon_arg(10))
        .expect("valid run");
    (report, sched.trades().len())
}

fn main() {
    let seed = seed_arg();
    banner(
        "F5 trading",
        "trading V100 entitlement from the ~1.2x team to the ~5x team raises both teams' effective throughput and cluster efficiency; no team falls below its fair share",
    );
    println!(
        "cluster: 80 K80 + 12 V100; vae-team (LowSpeedup) vs cnn-team (HighSpeedup); seed {seed}\n"
    );

    let (off, _) = run(false, seed);
    let (on, trades) = run(true, seed);
    let v100 = GenId::new(2);

    let v100_secs = |r: &SimReport, u: u32| {
        r.user_gen_gpu_secs
            .get(&(UserId::new(u), v100))
            .copied()
            .unwrap_or(0.0)
    };
    let mut table = Table::new(vec!["metric", "trading off", "trading on", "change"]);
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "vae-team base-eq GPU-hours",
            off.base_secs_of(UserId::new(0)) / 3600.0,
            on.base_secs_of(UserId::new(0)) / 3600.0,
        ),
        (
            "cnn-team base-eq GPU-hours",
            off.base_secs_of(UserId::new(1)) / 3600.0,
            on.base_secs_of(UserId::new(1)) / 3600.0,
        ),
        (
            "cluster base-eq GPU-hours",
            off.total_base_secs() / 3600.0,
            on.total_base_secs() / 3600.0,
        ),
        (
            "vae-team V100 GPU-hours",
            v100_secs(&off, 0) / 3600.0,
            v100_secs(&on, 0) / 3600.0,
        ),
        (
            "cnn-team V100 GPU-hours",
            v100_secs(&off, 1) / 3600.0,
            v100_secs(&on, 1) / 3600.0,
        ),
        (
            "jobs finished",
            off.finished_jobs() as f64,
            on.finished_jobs() as f64,
        ),
    ];
    for (name, a, b) in rows {
        let change = if a > 0.0 {
            format!("{:+.1}%", 100.0 * (b - a) / a)
        } else {
            "n/a".into()
        };
        table.row(vec![
            name.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            change,
        ]);
    }
    println!("{}", table.render());
    println!("trades executed: {trades}");

    // The abstract's motivation, measured directly: how much training value
    // each scarce V100 hour yields (base-GPU-equivalents per V100-hour),
    // using the class-mean true speedups of the two teams' model pools.
    // Trading moves V100 time to the jobs that extract the most from it.
    let yield_per_v100_hour = |r: &SimReport| {
        let low_mean = 1.34; // mean V100 speedup of the LowSpeedup zoo class
        let high_mean = 4.20; // mean of the HighSpeedup class
        let low = v100_secs(r, 0);
        let high = v100_secs(r, 1);
        (low * low_mean + high * high_mean) / (low + high).max(1e-9)
    };
    println!();
    println!(
        "effective yield per V100-hour: {:.2} base-GPU-hours (off) -> {:.2} (on)",
        yield_per_v100_hour(&off),
        yield_per_v100_hour(&on)
    );
    println!("(raw occupancy stays high either way — work conservation — but trading");
    println!(" fills the scarce fast GPUs with the jobs that benefit ~5x, not ~1.2x)");
}
