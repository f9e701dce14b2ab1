//! End-to-end trading properties on heterogeneous clusters.

use gfair::prelude::*;
use gfair::workloads::population::UserPopulation;

fn hetero_cluster() -> ClusterSpec {
    // Same shape as the F5 experiment: fast GPUs scarce, most capacity in
    // the base generation.
    ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 10, 8), ("V100", 3, 4)],
    )
}

fn two_team_population() -> UserPopulation {
    UserPopulation::new()
        .user_of_class("vae-team", 100, ModelClass::LowSpeedup)
        .user_of_class("cnn-team", 100, ModelClass::HighSpeedup)
}

fn run(pop: &UserPopulation, cfg: GfairConfig, seed: u64) -> (SimReport, usize) {
    let mut params = PhillyParams::default();
    params.num_jobs = 200;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 150.0;
    let trace = pop.trace(params, seed);
    let sim = Simulation::new(
        hetero_cluster(),
        pop.users(),
        trace,
        SimConfig::default().with_seed(seed),
    )
    .unwrap();
    let mut sched = GandivaFair::from_config(cfg);
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .unwrap();
    let n = sched.trades().len();
    (report, n)
}

#[test]
fn trading_raises_cluster_efficiency() {
    let pop = two_team_population();
    let (with, trades) = run(&pop, GfairConfig::default(), 7);
    let (without, none) = run(&pop, GfairConfig::default().without_trading(), 7);
    assert!(trades > 0, "no trades happened");
    assert_eq!(none, 0, "trading was supposed to be off");
    let gain = with.total_base_secs() / without.total_base_secs();
    assert!(
        gain > 1.05,
        "trading should raise effective throughput >5%, got {:.3}x",
        gain
    );
}

#[test]
fn no_team_ends_below_its_no_trading_service() {
    // The fairness guarantee: trading must not make anyone worse off.
    // Under the default MaxSpeedup price the buyer is *indifferent* in
    // valuation (pays exactly what fast GPUs are worth to them), so their
    // realized service can wobble a few percent either way from profiling
    // noise and migration overhead; the seller must strictly gain. The
    // exact no-worse-off-in-valuation invariant is unit-tested in
    // gfair-core's market tests.
    let pop = two_team_population();
    let (with, _) = run(&pop, GfairConfig::default(), 9);
    let (without, _) = run(&pop, GfairConfig::default().without_trading(), 9);
    let seller_before = without.base_secs_of(UserId::new(0));
    let seller_after = with.base_secs_of(UserId::new(0));
    assert!(
        seller_after > seller_before * 1.02,
        "seller should strictly gain: {seller_before} -> {seller_after}"
    );
    let buyer_before = without.base_secs_of(UserId::new(1));
    let buyer_after = with.base_secs_of(UserId::new(1));
    assert!(
        buyer_after >= buyer_before * 0.94,
        "buyer fell past the indifference noise band: {buyer_before} -> {buyer_after}"
    );
}

#[test]
fn trades_flow_fast_gpus_toward_high_speedup_team() {
    let pop = two_team_population();
    let mut params = PhillyParams::default();
    params.num_jobs = 120;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 120.0;
    let trace = pop.trace(params, 13);
    let sim = Simulation::new(hetero_cluster(), pop.users(), trace, SimConfig::default()).unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let _ = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .unwrap();
    assert!(!sched.trades().is_empty());
    for (_, t) in sched.trades() {
        assert_eq!(t.seller, UserId::new(0), "VAE team must be the seller");
        assert_eq!(t.buyer, UserId::new(1), "CNN team must be the buyer");
        assert!(t.buyer_speedup > t.seller_speedup);
        assert!(t.price > 1.0);
        assert!(t.fast_gpus > 0.0 && t.base_gpus > 0.0);
    }
}

#[test]
fn midpoint_pricing_also_trades_profitably() {
    let pop = two_team_population();
    let mut cfg_sim = SimConfig::default().with_price_strategy(PriceStrategy::Midpoint);
    cfg_sim.seed = 15;
    let mut params = PhillyParams::default();
    params.num_jobs = 120;
    params.jobs_per_hour = 60.0;
    params.median_service_mins = 120.0;
    let trace = pop.trace(params, 15);
    let sim = Simulation::new(hetero_cluster(), pop.users(), trace, cfg_sim).unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let _ = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .unwrap();
    assert!(!sched.trades().is_empty());
    for (_, t) in sched.trades() {
        // Midpoint price sits strictly between the two speedups.
        assert!(
            t.price > t.seller_speedup && t.price < t.buyer_speedup,
            "midpoint price {} outside ({}, {})",
            t.price,
            t.seller_speedup,
            t.buyer_speedup
        );
    }
}

#[test]
fn homogeneous_clusters_never_trade() {
    let pop = two_team_population();
    let mut params = PhillyParams::default();
    params.num_jobs = 60;
    let trace = pop.trace(params, 21);
    let sim = Simulation::new(
        ClusterSpec::homogeneous(8, 8),
        pop.users(),
        trace,
        SimConfig::default(),
    )
    .unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let _ = sim
        .run_until(&mut sched, SimTime::from_secs(4 * 3600))
        .unwrap();
    assert!(
        sched.trades().is_empty(),
        "one-generation cluster has nothing to trade"
    );
}
