//! Golden-report byte stability: the checked-in fixtures freeze the
//! `SimReport` JSON wire format, compact and pretty.
//!
//! One small fault-injected gfair run on a three-generation cluster fills
//! every report field: finished and unfinished jobs (`Some` and `None`
//! times), per-generation service, the `[user, gen, secs]` triples of
//! `user_gen_gpu_secs`, migrations, stale and failed migrations, and the
//! observability snapshot with its fairness ledger. The tests serialize the
//! report both ways and compare the bytes with the fixtures, so any change
//! to the serializer's number, string, key or indentation rules, or to the
//! report's field order, fails here.
//!
//! To regenerate after an *intentional* format or behaviour change, run:
//! `GOLDEN_REGEN=1 cargo test --test golden_report` and commit the diff.

use gfair::prelude::*;
use std::sync::Arc;

const COMPACT: &str = include_str!("golden_report.compact.json");
const PRETTY: &str = include_str!("golden_report.pretty.json");
const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");
const HORIZON_SECS: u64 = 3 * 3600;

/// The fixture run: 16 GPUs over K80, P100 and V100 servers, three users,
/// a migration-failure rate high enough to hit several migrations, a
/// partition, a flapping server, two servers failing at one instant (so a
/// re-placement races the second failure and goes stale), and a horizon
/// that leaves some jobs unfinished and one never started.
fn golden_report() -> SimReport {
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 2, 4), ("P100", 1, 4), ("V100", 1, 4)],
    );
    let users = UserSpec::equal_users(3, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 30;
    params.jobs_per_hour = 20.0;
    params.median_service_mins = 40.0;
    params.gang_weights = [0.7, 0.2, 0.1, 0.0];
    let mut trace = TraceBuilder::new(params, 3).build(&users);
    // A late arrival that the horizon cuts off before its first round.
    let late = JobSpec::new(
        JobId::new(trace.len() as u32),
        UserId::new(0),
        Arc::clone(&trace[0].model),
        1,
        600.0,
        SimTime::from_secs(HORIZON_SECS - 10),
    );
    trace.push(late);
    let plan = FaultPlan::none()
        .with_seed(9)
        .with_migration_fail_rates(0.3, 0.2)
        .with_partition(
            ServerId::new(1),
            SimTime::from_secs(3600),
            SimTime::from_secs(5400),
        )
        .with_flap(
            ServerId::new(3),
            SimTime::from_secs(2 * 3600),
            SimDuration::from_mins(10),
            SimDuration::from_mins(20),
            1,
        );
    let mut cfg = SimConfig::default().with_seed(3);
    cfg.report_window = SimDuration::from_mins(30);
    let obs: SharedObs = Arc::new(Obs::new());
    let sim = Simulation::new(cluster, users, trace, cfg)
        .unwrap()
        .with_faults(plan)
        .with_server_failure(ServerId::new(0), SimTime::from_secs(5000))
        .with_server_failure(ServerId::new(2), SimTime::from_secs(5000))
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::from_config(GfairConfig::default()).with_obs(obs);
    sim.run_until(&mut sched, SimTime::from_secs(HORIZON_SECS))
        .expect("clean run under faults")
}

/// Compares `actual` with the fixture `name`, or rewrites the fixture when
/// `GOLDEN_REGEN` is set.
fn check(name: &str, fixture: &str, actual: &str) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(format!("{DIR}/{name}"), actual).expect("write fixture");
        return;
    }
    if fixture != actual {
        let at = fixture
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(fixture.len().min(actual.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "{name} differs from the serialized report at byte {at}:\n\
             fixture: {:?}\n\
             actual:  {:?}\n\
             (regenerate with GOLDEN_REGEN=1 only if the change is intended)",
            &fixture[lo..(at + 60).min(fixture.len())],
            &actual[lo..(at + 60).min(actual.len())],
        );
    }
}

#[test]
fn fixture_run_fills_every_report_field() {
    let r = golden_report();
    let jobs: Vec<_> = r.jobs.values().collect();
    assert!(jobs.iter().any(|j| j.finish.is_some()), "no finished job");
    assert!(jobs.iter().any(|j| j.finish.is_none()), "no unfinished job");
    assert!(
        jobs.iter().any(|j| j.first_run.is_none()),
        "no unstarted job"
    );
    assert!(
        jobs.iter().any(|j| j.gpu_secs_by_gen.len() > 1),
        "no job ran on two generations"
    );
    assert!(!r.user_gpu_secs.is_empty() && !r.user_base_secs.is_empty());
    assert!(r.user_gen_gpu_secs.len() > 3, "too few (user, gen) entries");
    assert!(!r.server_gpu_secs.is_empty() && !r.timeseries.is_empty());
    assert!(r.timeseries.iter().any(|w| !w.user_gpu_secs.is_empty()));
    assert!(r.migrations > 0 && r.migration_outage > SimDuration::ZERO);
    assert!(r.stale_migrations > 0, "no stale migration");
    assert!(r.migration_failures > 0, "no failed migration");
    assert!(r.profile_reports > 0);
    let obs = r.obs.as_ref().expect("obs snapshot");
    assert!(!obs.counters.is_empty() && !obs.gauges.is_empty());
    assert!(!obs.histograms.is_empty());
    assert!(!obs.ledger.users.is_empty(), "empty fairness ledger");
}

#[test]
fn compact_report_bytes_match_the_fixture() {
    let json = serde_json::to_string(&golden_report()).expect("serialize");
    check("golden_report.compact.json", COMPACT, &json);
}

#[test]
fn pretty_report_bytes_match_the_fixture() {
    let json = serde_json::to_string_pretty(&golden_report()).expect("serialize");
    check("golden_report.pretty.json", PRETTY, &json);
}

#[test]
fn both_fixtures_parse_back_to_the_report() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return;
    }
    let report = golden_report();
    let compact: SimReport = serde_json::from_str(COMPACT).expect("compact parses");
    let pretty: SimReport = serde_json::from_str(PRETTY).expect("pretty parses");
    assert_eq!(compact, report);
    assert_eq!(pretty, report);
}
