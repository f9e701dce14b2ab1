//! Migration retry is driver machinery, shared by every allocation policy.
//!
//! One job on a K80 + V100 cluster: the balancer's profiling pass moves it
//! to the generation it has not run on yet, and a scripted checkpoint
//! failure breaks that first move. Whatever policy `build_policy` wires in,
//! the driver must re-issue the move toward the failed move's generation
//! once `backoff_base` has passed, and with a zero retry budget it must
//! abandon the job where it is and count the abandonment.

use gfair::prelude::*;
use std::sync::Arc;

const BACKOFF: SimDuration = SimDuration::from_secs(120);

fn cluster() -> ClusterSpec {
    ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 1, 4), ("V100", 1, 4)],
    )
}

/// Runs the one-job scenario and returns its trace events and the
/// `migration_retries_abandoned` counter.
fn run(policy: PolicyId, retries: u32) -> (Vec<TraceEvent>, u64) {
    let model = Arc::new(ModelProfile::new(
        "learnme",
        vec![1.0, 2.0, 4.0],
        SimDuration::from_secs(10),
        SimDuration::from_secs(10),
    ));
    let trace = vec![JobSpec::new(
        JobId::new(0),
        UserId::new(0),
        model,
        1,
        1_000_000.0,
        SimTime::ZERO,
    )];
    let plan = FaultPlan::none().with_scripted(JobId::new(0), 1, FaultKind::CheckpointFail);
    let obs: SharedObs = Arc::new(Obs::new());
    let ring = obs.ring(100_000);
    obs.enable_why();
    let sim = Simulation::new(
        cluster(),
        UserSpec::equal_users(1, 100),
        trace,
        SimConfig::default(),
    )
    .unwrap()
    .with_faults(plan)
    .with_obs(Arc::clone(&obs));
    let cfg = GfairConfig::default()
        .with_policy(policy)
        .with_migration_retry(retries, BACKOFF);
    let mut sched = build_policy(cfg, Arc::clone(&obs));
    sim.run_until(sched.as_mut(), SimTime::from_secs(2 * 3600))
        .expect("clean run");
    (ring.events(), obs.counter("migration_retries_abandoned"))
}

/// The scripted checkpoint failure: its time and intended destination.
fn failed_move(events: &[TraceEvent]) -> (SimTime, ServerId) {
    events
        .iter()
        .find_map(|e| match e {
            TraceEvent::MigrationFailed { t, job, to, .. } if *job == JobId::new(0) => {
                Some((*t, *to))
            }
            _ => None,
        })
        .expect("the balancer issued a migration and it failed")
}

fn is_retry_migration(e: &TraceEvent) -> bool {
    matches!(e, TraceEvent::Decision { decision, job, chosen, .. }
        if decision == "retry" && *job == Some(JobId::new(0)) && chosen.starts_with("migrate to"))
}

#[test]
fn failed_migration_is_retried_toward_its_generation_after_backoff() {
    let cluster = cluster();
    let quantum = SimConfig::default().quantum;
    for policy in PolicyId::ALL {
        let (events, abandoned) = run(policy, 3);
        let (failed_at, failed_to) = failed_move(&events);
        let retry_at = events
            .iter()
            .find(|e| is_retry_migration(e))
            .map(TraceEvent::time)
            .unwrap_or_else(|| panic!("{policy}: the failed migration was never retried"));
        assert!(
            retry_at >= failed_at + BACKOFF,
            "{policy}: retry at {retry_at} came before the backoff after {failed_at}"
        );
        assert!(
            retry_at < failed_at + BACKOFF + quantum,
            "{policy}: retry at {retry_at} waited past the first round after its backoff"
        );
        // Nothing moved the job while the backoff was running, and the
        // retried move heads for the generation the failed one targeted.
        let (moved_at, moved_to) = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Migration { t, job, to, .. }
                    if *job == JobId::new(0) && *t > failed_at =>
                {
                    Some((*t, *to))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("{policy}: the retried migration never started"));
        assert_eq!(moved_at, retry_at, "{policy}: first move after the failure");
        assert_eq!(
            cluster.server(moved_to).gen,
            cluster.server(failed_to).gen,
            "{policy}: retry left the failed move's generation"
        );
        assert_eq!(abandoned, 0, "{policy}");
    }
}

#[test]
fn zero_retry_budget_abandons_the_failed_migration() {
    for policy in PolicyId::ALL {
        let (events, abandoned) = run(policy, 0);
        failed_move(&events);
        assert_eq!(abandoned, 1, "{policy}: abandonment not counted");
        assert!(
            !events.iter().any(is_retry_migration),
            "{policy}: retried with a zero retry budget"
        );
    }
}
