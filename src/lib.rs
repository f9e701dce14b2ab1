//! # gfair — Gandiva_fair in Rust
//!
//! A from-scratch reproduction of *"Balancing efficiency and fairness in
//! heterogeneous GPU clusters for deep learning"* (EuroSys 2020): a
//! cluster-wide, ticket-based fair scheduler for gang-scheduled
//! deep-learning training jobs, with gang-aware stride scheduling,
//! migration-based load balancing, transparent job profiling, and automatic
//! GPU trading across hardware generations.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`types`] — ids, simulated time, GPU generations, models, jobs, users,
//!   cluster topologies, configuration.
//! * [`sim`] — the deterministic discrete-event cluster simulator.
//! * [`stride`] — stride/lottery/gang-aware/split-stride scheduling
//!   primitives.
//! * [`core`] — the Gandiva_fair scheduler itself, plus the pluggable
//!   [`AllocPolicy`](core::AllocPolicy) boundary it runs behind.
//! * [`policies`] — the policy zoo: Gavel-style heterogeneity-aware
//!   max-min fairness and Themis-style finish-time fairness behind the
//!   same boundary (see `POLICIES.md`).
//! * [`baselines`] — comparison schedulers (Gandiva-like, static
//!   partitioning, DRF, FIFO).
//! * [`workloads`] — the model zoo and Philly-like trace generation.
//! * [`metrics`] — fairness indices, JCT statistics, report tables.
//! * [`obs`] — structured decision tracing, metrics, self-profiling, and
//!   the online invariant auditor.
//! * [`faults`] — deterministic fault injection: scripted and randomized
//!   migration failures, slowdowns, partitions, and server flapping.
//!
//! ## Quickstart
//!
//! ```
//! use gfair::prelude::*;
//!
//! // A 24-GPU homogeneous cluster shared by two users.
//! let cluster = ClusterSpec::homogeneous(3, 8);
//! let users = UserSpec::equal_users(2, 100);
//! let mut params = PhillyParams::default();
//! params.num_jobs = 40;
//! let trace = TraceBuilder::new(params, 7).build(&users);
//!
//! let sim = Simulation::new(cluster, users, trace, SimConfig::default()).unwrap();
//! let mut scheduler = GandivaFair::from_config(GfairConfig::default());
//! let report = sim.run(&mut scheduler).unwrap();
//! assert_eq!(report.finished_jobs(), 40);
//! ```

pub use gfair_baselines as baselines;
pub use gfair_core as core;
pub use gfair_faults as faults;
pub use gfair_metrics as metrics;
pub use gfair_obs as obs;
pub use gfair_policies as policies;
pub use gfair_sim as sim;
pub use gfair_stride as stride;
pub use gfair_types as types;
pub use gfair_workloads as workloads;

/// The most common imports, bundled.
pub mod prelude {
    pub use gfair_baselines::{Drf, Fifo, GandivaLike, LotteryGang, StaticPartition};
    pub use gfair_core::{GandivaFair, GfairConfig, PolicyId, PolicyScheduler};
    pub use gfair_faults::{FaultInjector, FaultKind, FaultPlan};
    pub use gfair_metrics::{jain_index, max_min_ratio, JctStats, Table};
    pub use gfair_obs::{Obs, ObsSummary, SharedObs, TraceEvent};
    pub use gfair_policies::{build_policy, GavelHetero, ThemisFtf};
    pub use gfair_sim::{ClusterScheduler, SimReport, Simulation};
    pub use gfair_types::{
        ClusterSpec, GenCatalog, GenId, JobId, JobSpec, ModelProfile, PriceStrategy, ServerId,
        SimConfig, SimDuration, SimTime, UserId, UserSpec,
    };
    pub use gfair_workloads::{zoo, zoo_by_name, ModelClass, PhillyParams, TraceBuilder};
}
