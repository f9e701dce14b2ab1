//! The benchmark's named workloads: cluster, users, trace shape, policy,
//! horizon, fault plan and trace sink. Every input is a pure function of the
//! workload name and the seed.

use gfair_core::PolicyId;
use gfair_faults::FaultPlan;
use gfair_types::{ClusterSpec, GenCatalog, ServerId, SimDuration, SimTime};
use gfair_workloads::PhillyParams;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub cluster: fn() -> ClusterSpec,
    pub users: u32,
    pub params: PhillyParams,
    pub policy: PolicyId,
    pub horizon: SimTime,
    /// Whether the run injects [`faults`].
    pub faulted: bool,
    /// Whether the run attaches the default-tier JSONL trace sink.
    pub recorded: bool,
}

/// The workload names, in benchmark order.
pub const NAMES: [&str; 4] = [
    "dense-5k",
    "paper-200-month",
    "zoo-50k-faults",
    "recorded-1k",
];

/// The short-job Philly shape of the large-cluster runs: gang sizes
/// 1/2/4/8 at .6/.2/.15/.05 and a median of 8 base-GPU-minutes.
fn dense_params(num_jobs: usize, jobs_per_hour: f64) -> PhillyParams {
    PhillyParams {
        num_jobs,
        jobs_per_hour,
        median_service_mins: 8.0,
        service_clamp_mins: (2.0, 45.0),
        gang_weights: [0.6, 0.2, 0.15, 0.05],
        ..PhillyParams::default()
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let hours = |h: u64| SimTime::from_secs(h * 3600);
    let w = match name {
        "dense-5k" => Workload {
            name: "dense-5k",
            cluster: || cluster(313, 156, 156),
            users: 64,
            params: dense_params(32_000, 8000.0),
            policy: PolicyId::Gfair,
            horizon: hours(4),
            faulted: false,
            recorded: false,
        },
        "paper-200-month" => Workload {
            name: "paper-200-month",
            cluster: ClusterSpec::paper_testbed,
            users: 16,
            params: PhillyParams {
                num_jobs: 20_000,
                jobs_per_hour: 30.0,
                ..PhillyParams::default()
            },
            policy: PolicyId::Gfair,
            horizon: hours(720),
            faulted: false,
            recorded: false,
        },
        "zoo-50k-faults" => Workload {
            name: "zoo-50k-faults",
            cluster: || cluster(3125, 1563, 1562),
            users: 128,
            params: dense_params(96_000, 48_000.0),
            policy: PolicyId::GavelHetero,
            horizon: hours(2),
            faulted: true,
            recorded: false,
        },
        "recorded-1k" => Workload {
            name: "recorded-1k",
            cluster: || cluster(63, 31, 31),
            users: 32,
            params: dense_params(60_000, 2000.0),
            policy: PolicyId::Gfair,
            horizon: hours(36),
            faulted: false,
            recorded: true,
        },
        _ => return None,
    };
    Some(w)
}

/// A K80/P100/V100 cluster of eight-GPU servers.
fn cluster(k80: u32, p100: u32, v100: u32) -> ClusterSpec {
    ClusterSpec::build(
        GenCatalog::k80_p100_v100(),
        &[("K80", k80, 8), ("P100", p100, 8), ("V100", v100, 8)],
    )
}

/// The fault plan of the faulted workload: 5% checkpoint and 5% restore
/// failures, a 30-minute partition of server 2, and server 3 flapping
/// (down 10 min, up 10 min, three cycles) — all inside the 2h horizon.
pub fn faults(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .with_migration_fail_rates(0.05, 0.05)
        .with_partition(
            ServerId::new(2),
            SimTime::from_secs(1800),
            SimTime::from_secs(3600),
        )
        .with_flap(
            ServerId::new(3),
            SimTime::from_secs(2400),
            SimDuration::from_mins(10),
            SimDuration::from_mins(10),
            3,
        )
}
