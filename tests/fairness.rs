//! Cluster-wide fairness properties of Gandiva_fair, end to end.

use gfair::metrics::user_share_series;
use gfair::prelude::*;
use gfair::workloads::philly::uniform_batch;

fn long_jobs(user: u32, start_id: u32, count: u32, at_secs: u64) -> Vec<JobSpec> {
    let model = zoo_by_name("ResNet-50").expect("zoo model");
    uniform_batch(
        start_id,
        UserId::new(user),
        &model,
        count,
        1,
        100.0 * 3600.0,
        SimTime::from_secs(at_secs),
    )
}

#[test]
fn job_count_does_not_buy_cluster_share() {
    // User 0 floods with 24 jobs; user 1 submits 8. Equal tickets must mean
    // equal GPU time — the failure mode of job-level schedulers.
    let mut trace = long_jobs(0, 0, 24, 0);
    trace.extend(long_jobs(1, 100, 8, 0));
    let cluster = ClusterSpec::homogeneous(2, 8);
    let users = UserSpec::equal_users(2, 100);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(6 * 3600))
        .unwrap();
    let a = report.gpu_secs_of(UserId::new(0));
    let b = report.gpu_secs_of(UserId::new(1));
    assert!(
        (a - b).abs() / a.max(b) < 0.05,
        "job flooding bought share: {a} vs {b}"
    );
}

#[test]
fn gandiva_like_rewards_job_flooding_gandiva_fair_does_not() {
    // The motivating contrast: same workload, the efficiency-only baseline
    // hands the flooder ~3x, Gandiva_fair splits evenly.
    let build = || {
        let mut trace = long_jobs(0, 0, 24, 0);
        trace.extend(long_jobs(1, 100, 8, 0));
        Simulation::new(
            ClusterSpec::homogeneous(2, 8),
            UserSpec::equal_users(2, 100),
            trace,
            SimConfig::default(),
        )
        .unwrap()
    };
    let mut gl = GandivaLike::new();
    let gl_report = build()
        .run_until(&mut gl, SimTime::from_secs(4 * 3600))
        .unwrap();
    let gl_ratio = gl_report.gpu_secs_of(UserId::new(0)) / gl_report.gpu_secs_of(UserId::new(1));
    assert!(
        gl_ratio > 2.0,
        "baseline should reward flooding, ratio {gl_ratio}"
    );

    let mut gf = GandivaFair::from_config(GfairConfig::default());
    let gf_report = build()
        .run_until(&mut gf, SimTime::from_secs(4 * 3600))
        .unwrap();
    let gf_ratio = gf_report.gpu_secs_of(UserId::new(0)) / gf_report.gpu_secs_of(UserId::new(1));
    assert!(
        (gf_ratio - 1.0).abs() < 0.1,
        "gandiva-fair must not reward flooding, ratio {gf_ratio}"
    );
}

#[test]
fn tickets_weight_cluster_share() {
    let users = vec![
        UserSpec::new(UserId::new(0), "gold", 300),
        UserSpec::new(UserId::new(1), "bronze", 100),
    ];
    let mut trace = long_jobs(0, 0, 16, 0);
    trace.extend(long_jobs(1, 100, 16, 0));
    let sim = Simulation::new(
        ClusterSpec::homogeneous(2, 8),
        users,
        trace,
        SimConfig::default(),
    )
    .unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(6 * 3600))
        .unwrap();
    let ratio = report.gpu_secs_of(UserId::new(0)) / report.gpu_secs_of(UserId::new(1));
    assert!(
        (ratio - 3.0).abs() < 0.3,
        "3x tickets should buy 3x share, got {ratio}"
    );
}

#[test]
fn shares_converge_after_churn() {
    // Two incumbents plus a latecomer at t=2h: the latecomer must reach its
    // third of the cluster within a few windows of arriving.
    let mut trace = long_jobs(0, 0, 16, 0);
    trace.extend(long_jobs(1, 100, 16, 0));
    trace.extend(long_jobs(2, 200, 16, 2 * 3600));
    let cluster = ClusterSpec::homogeneous(2, 8);
    let users = UserSpec::equal_users(3, 100);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(5 * 3600))
        .unwrap();
    let series = user_share_series(&report, UserId::new(2));
    // Average the last hour's windows (stride rotates users across
    // windows, so single windows alias).
    let tail: Vec<f64> = series.iter().rev().take(12).map(|p| p.share).collect();
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (mean - 1.0 / 3.0).abs() < 0.05,
        "latecomer share did not converge: {mean}"
    );
}

#[test]
fn fairness_holds_on_random_traces_across_seeds() {
    use gfair::metrics::fairness::{jain_index, normalized_shares};
    for seed in [11u64, 22, 33] {
        let cluster = ClusterSpec::homogeneous(4, 8);
        let users = UserSpec::equal_users(4, 100);
        // Saturating load so every user always has demand.
        let mut params = PhillyParams::default();
        params.num_jobs = 120;
        params.jobs_per_hour = 200.0;
        params.median_service_mins = 300.0;
        let trace = TraceBuilder::new(params, seed).build(&users);
        let sim = Simulation::new(
            cluster,
            users.clone(),
            trace,
            SimConfig::default().with_seed(seed),
        )
        .unwrap();
        let mut sched = GandivaFair::from_config(GfairConfig::default());
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(4 * 3600))
            .unwrap();
        let received: Vec<f64> = users.iter().map(|u| report.gpu_secs_of(u.id)).collect();
        let entitled = vec![1.0; users.len()];
        let jain = jain_index(&normalized_shares(&received, &entitled));
        assert!(
            jain > 0.97,
            "seed {seed}: Jain index {jain} too low ({received:?})"
        );
    }
}

#[test]
fn gang_sizes_do_not_distort_user_shares() {
    // User 0 runs 8-GPU gangs, user 1 runs 1-GPU jobs; equal tickets.
    let model = zoo_by_name("ResNet-50").unwrap();
    let mut trace = uniform_batch(
        0,
        UserId::new(0),
        &model,
        4,
        8,
        100.0 * 3600.0,
        SimTime::ZERO,
    );
    trace.extend(uniform_batch(
        100,
        UserId::new(1),
        &model,
        32,
        1,
        100.0 * 3600.0,
        SimTime::ZERO,
    ));
    let cluster = ClusterSpec::homogeneous(4, 8);
    let users = UserSpec::equal_users(2, 100);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(6 * 3600))
        .unwrap();
    let a = report.gpu_secs_of(UserId::new(0));
    let b = report.gpu_secs_of(UserId::new(1));
    assert!(
        (a - b).abs() / a.max(b) < 0.1,
        "gang width distorted shares: gangs {a} vs singles {b}"
    );
}
