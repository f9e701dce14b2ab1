//! Cross-crate property tests: for random traces, clusters and seeds, the
//! full Gandiva_fair stack preserves the simulator's accounting invariants.

use gfair::prelude::*;
use proptest::prelude::*;

/// Accounting invariants every valid run must satisfy.
fn check_invariants(report: &SimReport, users: &[UserSpec]) -> Result<(), TestCaseError> {
    // Conservation: per-user service sums to the dispensed total, which
    // never exceeds capacity.
    let user_sum: f64 = report.user_gpu_secs.values().sum();
    prop_assert!(
        (user_sum - report.gpu_secs_used).abs() < 1e-6,
        "user sums {user_sum} != used {}",
        report.gpu_secs_used
    );
    prop_assert!(report.gpu_secs_used <= report.gpu_secs_capacity + 1e-6);
    // Per-server decomposition matches the total too.
    let server_sum: f64 = report.server_gpu_secs.values().sum();
    prop_assert!((server_sum - report.gpu_secs_used).abs() < 1e-6);
    // Window decomposition matches the total.
    let window_sum: f64 = report.timeseries.iter().map(|w| w.used_gpu_secs).sum();
    prop_assert!(
        (window_sum - report.gpu_secs_used).abs() < 1e-6,
        "windows {window_sum} != used {}",
        report.gpu_secs_used
    );
    // Per-job sanity.
    for job in report.jobs.values() {
        if let Some(finish) = job.finish {
            prop_assert!(finish >= job.arrival);
            let first = job.first_run.expect("finished jobs ran");
            prop_assert!(first >= job.arrival && first <= finish);
            // A finished gang consumed at least service/gang-width... on the
            // fastest generation it can be as low as service/speedup per
            // GPU; bound loosely by > 0 and <= gang * wall time.
            let wall = finish.saturating_since(job.arrival).as_secs_f64();
            prop_assert!(job.total_gpu_secs() > 0.0);
            prop_assert!(job.total_gpu_secs() <= job.gang as f64 * wall + 1e-6);
        }
        prop_assert!(users.iter().any(|u| u.id == job.user));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random Philly traces on random homogeneous clusters under the full
    /// Gandiva_fair stack keep all accounting invariants and finish every
    /// job when run to completion.
    #[test]
    fn gandiva_fair_preserves_accounting_invariants(
        seed in 0u64..1000,
        servers in 1u32..6,
        gpus in 1u32..9,
        n_users in 1u32..5,
        n_jobs in 1usize..40,
    ) {
        let cluster = ClusterSpec::homogeneous(servers, gpus);
        let users = UserSpec::equal_users(n_users, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = n_jobs;
        params.jobs_per_hour = 120.0;
        params.median_service_mins = 20.0;
        params.service_clamp_mins = (2.0, 120.0);
        // Gangs must fit the smallest server in this sweep.
        params.gang_weights = match gpus {
            1 => [1.0, 0.0, 0.0, 0.0],
            2..=3 => [0.7, 0.3, 0.0, 0.0],
            4..=7 => [0.6, 0.2, 0.2, 0.0],
            _ => [0.6, 0.2, 0.1, 0.1],
        };
        let trace = TraceBuilder::new(params, seed).build(&users);
        let n = trace.len();
        let sim = Simulation::new(
            cluster,
            users.clone(),
            trace,
            SimConfig::default().with_seed(seed),
        )
        .expect("valid setup");
        let mut sched = GandivaFair::from_config(GfairConfig::default());
        let report = sim.run(&mut sched).expect("no invalid decisions");
        prop_assert_eq!(report.finished_jobs(), n, "all jobs must finish");
        check_invariants(&report, &users)?;
    }

    /// The same invariants hold for every baseline under a fixed trace
    /// sweep (horizon-bounded; baselines may legitimately strand queued
    /// jobs, e.g. FIFO head-of-line blocking).
    #[test]
    fn baselines_preserve_accounting_invariants(
        seed in 0u64..500,
        which in 0usize..5,
    ) {
        let cluster = ClusterSpec::homogeneous(3, 4);
        let users = UserSpec::equal_users(3, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 30;
        params.jobs_per_hour = 90.0;
        params.median_service_mins = 30.0;
        params.service_clamp_mins = (2.0, 180.0);
        params.gang_weights = [0.6, 0.2, 0.2, 0.0];
        let trace = TraceBuilder::new(params, seed).build(&users);
        let sim = Simulation::new(
            cluster.clone(),
            users.clone(),
            trace,
            SimConfig::default().with_seed(seed),
        )
        .expect("valid setup");
        let mut sched: Box<dyn gfair::sim::ClusterScheduler> = match which {
            0 => Box::new(GandivaLike::new()),
            1 => Box::new(StaticPartition::new(&cluster, &users)),
            2 => Box::new(Drf::new()),
            3 => Box::new(Fifo::new()),
            _ => Box::new(LotteryGang::new(seed)),
        };
        let report = sim
            .run_until(sched.as_mut(), SimTime::from_secs(12 * 3600))
            .expect("no invalid decisions");
        check_invariants(&report, &users)?;
    }

    /// Failure injection never breaks accounting: a random server fails and
    /// recovers at random times while Gandiva_fair runs a random trace.
    #[test]
    fn failure_injection_preserves_invariants(
        seed in 0u64..500,
        fail_at_mins in 5u64..120,
        down_mins in 5u64..120,
        victim in 0u32..3,
    ) {
        let cluster = ClusterSpec::homogeneous(3, 4);
        let users = UserSpec::equal_users(2, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 20;
        params.jobs_per_hour = 60.0;
        params.median_service_mins = 30.0;
        params.service_clamp_mins = (2.0, 180.0);
        params.gang_weights = [0.7, 0.3, 0.0, 0.0];
        let trace = TraceBuilder::new(params, seed).build(&users);
        let fail_at = SimTime::from_secs(fail_at_mins * 60);
        let sim = Simulation::new(
            cluster,
            users.clone(),
            trace,
            SimConfig::default().with_seed(seed),
        )
        .expect("valid setup")
        .with_server_failure(ServerId::new(victim), fail_at)
        .with_server_recovery(
            ServerId::new(victim),
            fail_at + SimDuration::from_mins(down_mins),
        );
        let mut sched = GandivaFair::from_config(GfairConfig::default());
        let report = sim
            .run_until(&mut sched, SimTime::from_secs(24 * 3600))
            .expect("no invalid decisions under failure injection");
        check_invariants(&report, &users)?;
        // With recovery well before the horizon, everything still finishes.
        prop_assert_eq!(report.finished_jobs(), report.jobs.len());
    }
}
