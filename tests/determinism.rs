//! Parallel round planning must be invisible: for the same seed, any
//! `planning_workers` setting (sequential, pinned fan-out, or auto-sized)
//! must produce a byte-identical `SimReport` and a byte-identical JSONL
//! trace. Per-server planning is independent and results are merged in
//! server-id order, so parallelism only changes wall-clock time.

use gfair::prelude::*;
use std::sync::Arc;

/// Runs one seeded simulation with `workers` planning threads and a JSONL
/// sink; returns the serialized report and the raw trace bytes.
fn run(seed: u64, workers: usize, tag: &str) -> (String, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "gfair-determinism-{}-{tag}.jsonl",
        std::process::id()
    ));
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 120.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    obs.jsonl(&path).expect("trace file");
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_server_failure(ServerId::new(2), SimTime::from_secs(2 * 3600))
        .with_server_recovery(ServerId::new(2), SimTime::from_secs(4 * 3600))
        .with_obs(Arc::clone(&obs));
    let mut sched = GandivaFair::from_config(GfairConfig::default().with_planning_workers(workers))
        .with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run");
    let json = serde_json::to_string(&report).expect("serialize report");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (json, bytes)
}

/// Runs one seeded, untraced simulation (faults included) with `cfg` and
/// returns the serialized report.
fn run_untraced(seed: u64, cfg: GfairConfig) -> String {
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 150;
    params.jobs_per_hour = 120.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_server_failure(ServerId::new(2), SimTime::from_secs(2 * 3600))
        .with_server_recovery(ServerId::new(2), SimTime::from_secs(4 * 3600));
    let mut sched = GandivaFair::from_config(cfg);
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run");
    serde_json::to_string(&report).expect("serialize report")
}

#[test]
fn lazy_planning_is_byte_identical_to_eager() {
    // Lazy settling replays each server's cached selection strictly within
    // its proven quiescence span, so every (lazy, fast-forward) combination
    // must produce the same report byte-for-byte — including across a
    // failure/recovery cycle.
    let base = GfairConfig::default().with_planning_workers(1);
    let eager_ff = run_untraced(7, base.without_lazy_planning());
    let lazy_ff = run_untraced(7, base);
    assert_eq!(eager_ff, lazy_ff, "lazy settling changed the report");
    let eager_step = run_untraced(7, base.without_lazy_planning().without_fast_forward());
    let lazy_step = run_untraced(7, base.without_fast_forward());
    assert_eq!(
        eager_step, lazy_step,
        "lazy settling changed the report with fast-forward off"
    );
    assert_eq!(
        eager_ff, eager_step,
        "fast-forward changed the eager report"
    );
}

#[test]
fn parallel_planning_is_byte_identical_to_sequential() {
    let (seq_report, seq_trace) = run(7, 1, "seq");
    let (par_report, par_trace) = run(7, 4, "par");
    assert!(!seq_trace.is_empty());
    assert_eq!(
        seq_report, par_report,
        "parallel planning changed the report"
    );
    assert_eq!(seq_trace, par_trace, "parallel planning changed the trace");
}

#[test]
fn auto_sized_planning_is_byte_identical_to_sequential() {
    let (seq_report, seq_trace) = run(13, 1, "seq-auto");
    let (auto_report, auto_trace) = run(13, 0, "auto");
    assert_eq!(
        seq_report, auto_report,
        "auto worker count changed the report"
    );
    assert_eq!(seq_trace, auto_trace, "auto worker count changed the trace");
}
