//! Dirty-only weight refresh under the lazy planner.
//!
//! `LocalScheduler::sync` re-applies every user's weight only when the
//! planner marks the server weight-dirty; in debug builds a clean sync
//! asserts that every weight it skipped is already current. These runs
//! drive both sources of weight changes through lazily settled servers:
//! trade refreshes that move a generation's weight vector, and a partition
//! heal that drops a server's stale snapshot while the live vector holds
//! still. A missed dirty mark trips the assertion; the eager run must match
//! the lazy one byte for byte.

use gfair_core::{GandivaFair, GfairConfig};
use gfair_faults::FaultPlan;
use gfair_obs::{Obs, SharedObs};
use gfair_sim::{SimReport, Simulation};
use gfair_types::{
    ClusterSpec, GenCatalog, JobId, JobSpec, ModelProfile, ServerId, SimConfig, SimDuration,
    SimTime, UserId, UserSpec,
};
use std::sync::Arc;

/// The partitioned server: the first V100 server (ids follow the rows of
/// the cluster spec below).
const PARTITIONED: ServerId = ServerId::new(4);

fn model(name: &str, rates: Vec<f64>) -> Arc<ModelProfile> {
    Arc::new(ModelProfile::new(
        name,
        rates,
        SimDuration::from_secs(5),
        SimDuration::from_secs(5),
    ))
}

fn job(id: u32, user: u32, model: &Arc<ModelProfile>, gang: u32, at_secs: u64) -> JobSpec {
    JobSpec::new(
        JobId::new(id),
        UserId::new(user),
        Arc::clone(model),
        gang,
        200_000.0,
        SimTime::from_secs(at_secs),
    )
}

/// Users 0 and 1 (opposite speedups) fill an oversubscribed K80/V100
/// cluster over the first two hours; user 2 arrives at 1.5h, inside the
/// partition of one V100 server (1h to 3.5h), which moves every user's
/// entitlement after that server's snapshot was taken. Nothing arrives or
/// finishes after 2h, so without trading the heal-round refresh reproduces
/// the live vectors bit for bit and only the dropped snapshot makes the
/// healed server weight-dirty. Returns the report, the number of trades
/// and the number of heals.
fn run(lazy: bool, trading: bool) -> (SimReport, usize, u64) {
    let low = model("low", vec![1.0, 1.1, 1.2]);
    let high = model("high", vec![1.0, 2.5, 5.0]);
    let cluster = ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", 4, 4), ("V100", 2, 4)],
    );
    let mut trace = Vec::new();
    for k in 0..12u32 {
        let at = u64::from(k) * 600;
        trace.push(job(2 * k, 0, &low, 1 + k % 2, at));
        trace.push(job(2 * k + 1, 1, &high, 1, at));
    }
    for k in 0..4u32 {
        trace.push(job(100 + k, 2, &low, 1, 5400));
    }
    let plan = FaultPlan::none().with_seed(3).with_partition(
        PARTITIONED,
        SimTime::from_secs(3600),
        SimTime::from_secs(3 * 3600 + 1800),
    );
    let obs: SharedObs = Arc::new(Obs::new());
    let sim = Simulation::new(
        cluster,
        UserSpec::equal_users(3, 100),
        trace,
        SimConfig::default(),
    )
    .unwrap()
    .with_faults(plan)
    .with_obs(Arc::clone(&obs));
    let cfg = GfairConfig {
        lazy_planning: lazy,
        trading,
        ..GfairConfig::default().with_planning_workers(1)
    };
    let mut sched = GandivaFair::from_config(cfg).with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(5 * 3600))
        .expect("clean run");
    (report, sched.trades().len(), obs.counter("partition_heals"))
}

#[test]
fn trade_refreshes_reach_lazily_settled_servers() {
    let (lazy, trades, _) = run(true, true);
    assert!(
        trades > 1,
        "trades must refresh weights repeatedly: {trades}"
    );
    let (eager, eager_trades, _) = run(false, true);
    assert_eq!(trades, eager_trades);
    assert_eq!(lazy, eager, "lazy settling diverged from eager planning");
}

#[test]
fn partition_heal_drops_stale_weights() {
    let (lazy, trades, heals) = run(true, false);
    assert_eq!(trades, 0);
    assert_eq!(heals, 1, "the partition heals inside the horizon");
    let (eager, _, _) = run(false, false);
    assert_eq!(lazy, eager, "lazy settling diverged from eager planning");
}
