//! End-to-end integration: every scheduler drives the paper-scale testbed
//! on a Philly-like trace without invalid decisions, deterministically.

use gfair::prelude::*;
use gfair::sim::ClusterScheduler;

fn setup(seed: u64) -> (ClusterSpec, Vec<UserSpec>, Vec<JobSpec>) {
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 50.0;
    params.median_service_mins = 60.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    (cluster, users, trace)
}

fn run_with(sched: &mut dyn ClusterScheduler, seed: u64, horizon_hours: u64) -> SimReport {
    let (cluster, users, trace) = setup(seed);
    let sim =
        Simulation::new(cluster, users, trace, SimConfig::default()).expect("valid configuration");
    sim.run_until(sched, SimTime::from_secs(horizon_hours * 3600))
        .expect("scheduler made an invalid decision")
}

#[test]
fn all_schedulers_drive_the_paper_testbed() {
    let (cluster, users, _) = setup(1);
    let mut scheds: Vec<Box<dyn ClusterScheduler>> = vec![
        Box::new(GandivaFair::from_config(GfairConfig::default())),
        Box::new(GandivaLike::new()),
        Box::new(StaticPartition::new(&cluster, &users)),
        Box::new(Drf::new()),
        Box::new(Fifo::new()),
    ];
    for sched in &mut scheds {
        let report = run_with(sched.as_mut(), 1, 8);
        assert!(report.rounds > 0);
        assert!(
            report.finished_jobs() > 30,
            "{} finished too few jobs: {}",
            report.scheduler,
            report.finished_jobs()
        );
        // Accounting sanity: used never exceeds capacity, per-user sums
        // match the total.
        assert!(report.gpu_secs_used <= report.gpu_secs_capacity + 1e-6);
        let user_sum: f64 = report.user_gpu_secs.values().sum();
        assert!(
            (user_sum - report.gpu_secs_used).abs() < 1e-6,
            "{}: per-user sums diverge from total",
            report.scheduler
        );
    }
}

#[test]
fn gandiva_fair_runs_trace_to_completion() {
    let (cluster, users, trace) = setup(2);
    let n = trace.len();
    let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
    let mut sched = GandivaFair::from_config(GfairConfig::default());
    let report = sim.run(&mut sched).unwrap();
    assert_eq!(report.finished_jobs(), n, "all jobs must finish");
    // Every job record is self-consistent.
    for job in report.jobs.values() {
        let finish = job.finish.expect("finished");
        assert!(finish >= job.arrival);
        let first = job.first_run.expect("ran");
        assert!(first >= job.arrival && first <= finish);
        // A job consumes at least its service demand in GPU-seconds (gang
        // multiplies), modulo base-generation normalization.
        assert!(job.total_gpu_secs() > 0.0);
    }
}

#[test]
fn same_seed_same_everything() {
    let run = || {
        let mut sched = GandivaFair::from_config(GfairConfig::default());
        run_with(&mut sched, 3, 6)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "simulation must be deterministic");
}

#[test]
fn different_seeds_change_outcomes() {
    let mut s1 = GandivaFair::from_config(GfairConfig::default());
    let mut s2 = GandivaFair::from_config(GfairConfig::default());
    let a = run_with(&mut s1, 4, 6);
    let b = run_with(&mut s2, 5, 6);
    assert_ne!(
        a.gpu_secs_used, b.gpu_secs_used,
        "different traces should differ"
    );
}

#[test]
fn gandiva_fair_matches_efficiency_pole_and_beats_partitioning() {
    // A heavier trace than the smoke tests: partitioning's queueing delay
    // only shows under real contention.
    fn heavy(sched: &mut dyn ClusterScheduler, seed: u64) -> SimReport {
        let cluster = ClusterSpec::paper_testbed();
        let users = UserSpec::equal_users(6, 100);
        let mut params = PhillyParams::default();
        params.num_jobs = 300;
        params.jobs_per_hour = 120.0;
        params.median_service_mins = 120.0;
        let trace = TraceBuilder::new(params, seed).build(&users);
        let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
        sim.run_until(sched, SimTime::from_secs(10 * 3600)).unwrap()
    }
    let mut gf = GandivaFair::from_config(GfairConfig::default());
    let gf_report = heavy(&mut gf, 6);

    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut sp = StaticPartition::new(&cluster, &users);
    let sp_report = heavy(&mut sp, 6);

    let mut gl = GandivaLike::new();
    let gl_report = heavy(&mut gl, 6);

    // Efficiency: within a whisker of the efficiency-only scheduler...
    assert!(
        gf_report.utilization() >= gl_report.utilization() - 0.05,
        "gandiva-fair util {} vs gandiva-like {}",
        gf_report.utilization(),
        gl_report.utilization()
    );
    // ...and clearly better than hard partitioning on completed work.
    assert!(
        gf_report.finished_jobs() > sp_report.finished_jobs(),
        "gandiva-fair finished {} vs static partition {}",
        gf_report.finished_jobs(),
        sp_report.finished_jobs()
    );
    let gf_jct = JctStats::from_durations(&gf_report.jcts()).unwrap();
    let sp_jct = JctStats::from_durations(&sp_report.jcts()).unwrap();
    assert!(
        gf_jct.mean_secs < sp_jct.mean_secs,
        "gandiva-fair mean JCT {} should beat partitioning {}",
        gf_jct.mean_secs,
        sp_jct.mean_secs
    );
}
