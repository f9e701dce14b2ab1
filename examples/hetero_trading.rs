//! Automatic GPU trading on a heterogeneous cluster.
//!
//! A "VAE team" (jobs barely benefit from V100s) shares a K80-heavy cluster
//! with a "CNN team" (jobs run ~5x faster on V100s). With trading enabled,
//! Gandiva_fair profiles both teams, then the VAE team automatically sells
//! its V100 entitlement to the CNN team for extra K80 capacity — both teams
//! end up with *more* effective compute than their plain fair share.
//!
//! Run with: `cargo run --example hetero_trading`

use gfair::prelude::*;
use gfair::workloads::population::UserPopulation;

fn run(trading: bool, seed: u64) -> (SimReport, usize) {
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 10, 8), ("V100", 3, 4)], // 92 GPUs, fast ones scarce
    );
    let pop = UserPopulation::new()
        .user_of_class("vae-team", 100, ModelClass::LowSpeedup)
        .user_of_class("cnn-team", 100, ModelClass::HighSpeedup);
    let mut params = PhillyParams::default();
    params.num_jobs = 160;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 120.0;
    let trace = pop.trace(params, seed);

    let cfg = if trading {
        GfairConfig::default()
    } else {
        GfairConfig::default().without_trading()
    };
    let sim = Simulation::new(cluster, pop.users(), trace, SimConfig::default())
        .expect("valid configuration");
    let mut sched = GandivaFair::from_config(cfg);
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("valid scheduling decisions");
    (report, sched.trades().len())
}

fn main() {
    let (with, trades) = run(true, 11);
    let (without, _) = run(false, 11);

    println!("Heterogeneous cluster: 80 K80 + 12 V100, two teams, equal tickets\n");
    let mut table = Table::new(vec!["metric", "no trading", "with trading", "change"]);
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "vae-team effective K80-eq GPU-hours",
            without.base_secs_of(UserId::new(0)) / 3600.0,
            with.base_secs_of(UserId::new(0)) / 3600.0,
        ),
        (
            "cnn-team effective K80-eq GPU-hours",
            without.base_secs_of(UserId::new(1)) / 3600.0,
            with.base_secs_of(UserId::new(1)) / 3600.0,
        ),
        (
            "cluster effective K80-eq GPU-hours",
            without.total_base_secs() / 3600.0,
            with.total_base_secs() / 3600.0,
        ),
        (
            "jobs finished",
            without.finished_jobs() as f64,
            with.finished_jobs() as f64,
        ),
    ];
    for (name, base, traded) in rows {
        let change = if base > 0.0 {
            format!("{:+.1}%", 100.0 * (traded - base) / base)
        } else {
            "n/a".to_string()
        };
        table.row(vec![
            name.to_string(),
            format!("{base:.1}"),
            format!("{traded:.1}"),
            change,
        ]);
    }
    println!("{}", table.render());
    println!("trades executed: {trades}");
    println!("\nThe market sells scarce V100 time from the team that gains ~1.2x to the");
    println!("team that gains ~5x, paying the seller in extra K80 capacity: cluster-wide");
    println!("effective throughput rises and neither team drops below its fair share.");
}
