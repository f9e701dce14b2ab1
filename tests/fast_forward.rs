//! Quiescence fast-forward must be invisible: for the same trace, seed and
//! fault plan, a run with analytic multi-quantum stepping enabled must
//! produce a byte-identical `SimReport` — and an identical JSONL trace once
//! the per-round scheduling records (`gang_packed`, `round_planned`) and
//! their batched stand-in (`rounds_skipped`) are set aside — compared to a
//! run that steps every quantum naively. Everything else (job lifecycles,
//! migrations, windows, trades, audit counters, metrics) must match exactly.

use gfair::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs one seeded simulation with fast-forwarding on or off and a JSONL
/// sink; returns the serialized report and raw trace bytes.
fn run_mode(
    seed: u64,
    fast_forward: bool,
    faults: Option<FaultPlan>,
    tag: &str,
) -> (String, Vec<u8>) {
    let path = std::env::temp_dir().join(format!(
        "gfair-fast-forward-{}-{tag}.jsonl",
        std::process::id()
    ));
    let cluster = ClusterSpec::paper_testbed();
    let users = UserSpec::equal_users(6, 100);
    let mut params = PhillyParams::default();
    params.num_jobs = 120;
    params.jobs_per_hour = 90.0;
    params.median_service_mins = 30.0;
    let trace = TraceBuilder::new(params, seed).build(&users);
    let obs: SharedObs = Arc::new(Obs::new());
    obs.jsonl(&path).expect("trace file");
    let mut sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .unwrap()
        .with_obs(Arc::clone(&obs));
    if let Some(plan) = faults {
        sim = sim.with_faults(plan);
    }
    let cfg = if fast_forward {
        GfairConfig::default()
    } else {
        GfairConfig::default().without_fast_forward()
    };
    let mut sched = GandivaFair::from_config(cfg).with_obs(Arc::clone(&obs));
    let report = sim
        .run_until(&mut sched, SimTime::from_secs(8 * 3600))
        .expect("clean run");
    let json = serde_json::to_string(&report).expect("serialize report");
    let bytes = std::fs::read(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    (json, bytes)
}

/// Trace lines minus the per-round scheduling records the fast-forward path
/// legitimately batches: `gang_packed` and `round_planned` (absent for
/// replayed rounds) and `rounds_skipped` (their single stand-in).
fn comparable_lines(bytes: &[u8]) -> Vec<String> {
    String::from_utf8(bytes.to_vec())
        .expect("utf8 trace")
        .lines()
        .filter(|l| {
            !l.starts_with("{\"kind\":\"gang_packed\"")
                && !l.starts_with("{\"kind\":\"round_planned\"")
                && !l.starts_with("{\"kind\":\"rounds_skipped\"")
        })
        .map(String::from)
        .collect()
}

fn assert_modes_equivalent(seed: u64, faults: Option<FaultPlan>, tag: &str) {
    let (on_report, on_trace) = run_mode(seed, true, faults.clone(), &format!("{tag}-on"));
    let (off_report, off_trace) = run_mode(seed, false, faults, &format!("{tag}-off"));
    assert_eq!(
        on_report, off_report,
        "fast-forward changed the report (seed {seed})"
    );
    assert_eq!(
        comparable_lines(&on_trace),
        comparable_lines(&off_trace),
        "fast-forward changed non-round trace events (seed {seed})"
    );
    assert!(
        !String::from_utf8_lossy(&off_trace).contains("\"kind\":\"rounds_skipped\""),
        "the naive path must never emit rounds_skipped"
    );
}

#[test]
fn fast_forward_is_byte_identical_without_faults() {
    let (on_report, on_trace) = run_mode(7, true, None, "plain-on");
    let (off_report, off_trace) = run_mode(7, false, None, "plain-off");
    assert_eq!(on_report, off_report, "fast-forward changed the report");
    assert_eq!(
        comparable_lines(&on_trace),
        comparable_lines(&off_trace),
        "fast-forward changed non-round trace events"
    );
    // The optimization must actually fire on this workload, otherwise the
    // equivalence above is vacuous.
    assert!(
        String::from_utf8_lossy(&on_trace).contains("\"kind\":\"rounds_skipped\""),
        "fast-forward never engaged"
    );
}

#[test]
fn fast_forward_is_byte_identical_under_faults() {
    let plan = FaultPlan::none()
        .with_seed(5)
        .with_migration_fail_rates(0.10, 0.10)
        .with_slowdown(0.10, 3.0)
        .with_partition(
            ServerId::new(2),
            SimTime::from_secs(2 * 3600),
            SimTime::from_secs(3 * 3600),
        )
        .with_flap(
            ServerId::new(4),
            SimTime::from_secs(4 * 3600),
            SimDuration::from_mins(10),
            SimDuration::from_mins(30),
            2,
        );
    assert_modes_equivalent(11, Some(plan), "faulted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random workloads and random fault plans: fast-forward on vs off must
    /// agree byte-for-byte on the report and on every non-round trace event.
    #[test]
    fn fast_forward_differential(
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        ckpt in 0.0f64..0.2,
        restore in 0.0f64..0.2,
        part_start in 1u64..5,
        part_len in 1u64..3,
        flap_server in 0u32..5,
    ) {
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_migration_fail_rates(ckpt, restore)
            .with_partition(
                ServerId::new(1),
                SimTime::from_secs(part_start * 3600),
                SimTime::from_secs((part_start + part_len) * 3600),
            )
            .with_flap(
                ServerId::new(flap_server),
                SimTime::from_secs(3 * 3600),
                SimDuration::from_mins(15),
                SimDuration::from_mins(45),
                2,
            );
        assert_modes_equivalent(seed, Some(plan), &format!("prop-{seed}-{fault_seed}"));
    }
}
