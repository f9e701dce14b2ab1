//! Ablation A1 `price_ablation` — trade pricing strategies.
//!
//! The F5 workload under the two pricing rules:
//!
//! * MaxSpeedup (paper-style, conservative): price = buyer's speedup; the
//!   buyer is indifferent in valuation, the seller takes the entire gain.
//! * Midpoint: gains are split between both parties.
//!
//! Cluster efficiency is the same under both (the same fast GPUs move to
//! the same jobs); the split of the surplus differs.
//!
//! Run: `cargo run -p gfair-bench --release --bin exp_a1_price_ablation [--seed N]`

use gfair_bench::{banner, exp_trace, horizon_arg, seed_arg, sim_config, trading_cluster};
use gfair_core::{GandivaFair, GfairConfig};
use gfair_metrics::Table;
use gfair_sim::{SimReport, Simulation};
use gfair_types::{PriceStrategy, UserId};
use gfair_workloads::population::UserPopulation;
use gfair_workloads::{ModelClass, PhillyParams};

fn run(strategy: Option<PriceStrategy>, seed: u64) -> (SimReport, f64) {
    let pop = UserPopulation::new()
        .user_of_class("vae-team", 100, ModelClass::LowSpeedup)
        .user_of_class("cnn-team", 100, ModelClass::HighSpeedup);
    let mut params = PhillyParams::default();
    params.num_jobs = 200;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 150.0;
    let trace = pop.trace(params, seed);
    let mut sim_cfg = sim_config(seed);
    let cfg = match strategy {
        Some(s) => {
            sim_cfg = sim_cfg.with_price_strategy(s);
            GfairConfig::default()
        }
        None => GfairConfig::default().without_trading(),
    };
    let sim = exp_trace(
        Simulation::new(trading_cluster(), pop.users(), trace, sim_cfg).expect("valid setup"),
    );
    let mut sched = GandivaFair::from_config(cfg);
    let report = sim
        .run_until(&mut sched, horizon_arg(10))
        .expect("valid run");
    let mean_price = if sched.trades().is_empty() {
        0.0
    } else {
        sched.trades().iter().map(|(_, t)| t.price).sum::<f64>() / sched.trades().len() as f64
    };
    (report, mean_price)
}

fn main() {
    let seed = seed_arg();
    banner(
        "A1 price_ablation",
        "both pricing rules move fast GPUs to the high-speedup team; the price decides how the surplus is split (realized totals vary slightly with migration dynamics)",
    );

    let variants: Vec<(&str, Option<PriceStrategy>)> = vec![
        ("no trading", None),
        ("max-speedup", Some(PriceStrategy::MaxSpeedup)),
        ("midpoint", Some(PriceStrategy::Midpoint)),
    ];
    let mut table = Table::new(vec![
        "pricing",
        "mean price",
        "vae-team base-eq h",
        "cnn-team base-eq h",
        "cluster base-eq h",
    ]);
    for (name, strategy) in variants {
        let (report, price) = run(strategy, seed);
        table.row(vec![
            name.to_string(),
            if price > 0.0 {
                format!("{price:.2}")
            } else {
                "-".into()
            },
            format!("{:.1}", report.base_secs_of(UserId::new(0)) / 3600.0),
            format!("{:.1}", report.base_secs_of(UserId::new(1)) / 3600.0),
            format!("{:.1}", report.total_base_secs() / 3600.0),
        ]);
    }
    println!("{}", table.render());
    println!("(midpoint shifts part of the surplus from the seller to the buyer)");
}
