//! Forwarding decorators that time calls into the scheduler from outside.
//!
//! [`Probe`] wraps the scheduler `build_policy` returns and forwards every
//! `ClusterScheduler` method. A method it forgot would silently fall back to
//! the trait default and change the run, which the benchmark's byte check
//! against a run without the decorator catches. [`TimedAlloc`] wraps an
//! `AllocPolicy` the same way.

use gfair_core::{AllocPolicy, Entitlements, PolicyRound};
use gfair_obs::UserShare;
use gfair_sim::{Action, ClusterScheduler, ProfileReport, RoundPlan, SimView};
use gfair_types::{JobId, MigrationFailReason, ServerId, SimConfig, SimDuration, SimTime};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The timed scheduler callbacks.
#[derive(Clone, Copy)]
pub enum Cb {
    PlanRound,
    JobArrival,
    JobFinish,
    ProfileReport,
    MigrationDone,
    MigrationFailed,
    JobEvicted,
    /// `on_partition`, `on_partition_heal`, `on_server_down`, `on_server_up`.
    Fault,
    /// `name`, `next_decision_time`, `user_shares` (tallied apart, as they
    /// take `&self`).
    Query,
    FfProbe,
    FfCommit,
}

/// Number of [`Cb`] variants.
pub const CBS: usize = 11;

/// Calls and total nanoseconds of one callback.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub calls: u64,
    pub ns: u64,
}

impl Tally {
    pub fn secs(self) -> f64 {
        self.ns as f64 / 1e9
    }
}

/// Scheduler decorator. In light mode it times `plan_round` only (two clock
/// reads per planned round); in full mode it times every callback and
/// counts the work the scheduler returns.
pub struct Probe {
    inner: Box<dyn ClusterScheduler>,
    full: bool,
    /// Host latency of every `plan_round` call, in nanoseconds.
    pub round_ns: Vec<u64>,
    pub tally: [Tally; CBS],
    /// `Action::Place` / `Action::Migrate` returned by any callback.
    pub places: u64,
    pub migrates: u64,
    /// Jobs run × quanta, planned rounds plus fast-forwarded ones.
    pub job_quanta: u64,
    pub ff_quanta: u64,
    /// Evictions and partition starts/heals delivered.
    pub evictions: u64,
    pub partition_events: u64,
    probed_running: u64,
    queries: Cell<Tally>,
}

impl Probe {
    pub fn new(inner: Box<dyn ClusterScheduler>, full: bool) -> Self {
        Probe {
            inner,
            full,
            round_ns: Vec::new(),
            tally: [Tally::default(); CBS],
            places: 0,
            migrates: 0,
            job_quanta: 0,
            ff_quanta: 0,
            evictions: 0,
            partition_events: 0,
            probed_running: 0,
            queries: Cell::new(Tally::default()),
        }
    }

    /// The wrapped scheduler, for runs that bypass the decorator.
    pub fn inner_mut(&mut self) -> &mut dyn ClusterScheduler {
        self.inner.as_mut()
    }

    pub fn get(&self, cb: Cb) -> Tally {
        match cb {
            Cb::Query => self.queries.get(),
            _ => self.tally[cb as usize],
        }
    }

    /// Total time in every callback except the fast-forward pair.
    pub fn sched_ns(&self) -> u64 {
        self.all_ns() - self.get(Cb::FfProbe).ns - self.get(Cb::FfCommit).ns
    }

    /// Total time in every callback.
    pub fn all_ns(&self) -> u64 {
        self.tally.iter().map(|t| t.ns).sum::<u64>() + self.queries.get().ns
    }

    fn timed<R>(&mut self, cb: Cb, f: impl FnOnce(&mut dyn ClusterScheduler) -> R) -> R {
        if !self.full {
            return f(self.inner.as_mut());
        }
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let t = &mut self.tally[cb as usize];
        t.calls += 1;
        t.ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn actions(
        &mut self,
        cb: Cb,
        f: impl FnOnce(&mut dyn ClusterScheduler) -> Vec<Action>,
    ) -> Vec<Action> {
        let out = self.timed(cb, f);
        self.count(&out);
        out
    }

    fn count(&mut self, actions: &[Action]) {
        for a in actions {
            match a {
                Action::Place { .. } => self.places += 1,
                Action::Migrate { .. } => self.migrates += 1,
            }
        }
    }

    /// Times a `&self` method, tallied through a cell.
    fn query<R>(&self, f: impl FnOnce(&dyn ClusterScheduler) -> R) -> R {
        if !self.full {
            return f(self.inner.as_ref());
        }
        let start = Instant::now();
        let out = f(self.inner.as_ref());
        let mut t = self.queries.get();
        t.calls += 1;
        t.ns += start.elapsed().as_nanos() as u64;
        self.queries.set(t);
        out
    }
}

impl ClusterScheduler for Probe {
    fn name(&self) -> &'static str {
        self.query(|s| s.name())
    }

    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.actions(Cb::JobArrival, |s| s.on_job_arrival(view, job))
    }

    fn on_job_finish(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.actions(Cb::JobFinish, |s| s.on_job_finish(view, job))
    }

    fn on_migration_done(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.actions(Cb::MigrationDone, |s| s.on_migration_done(view, job))
    }

    fn on_job_evicted(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.evictions += 1;
        self.actions(Cb::JobEvicted, |s| s.on_job_evicted(view, job))
    }

    fn on_migration_failed(
        &mut self,
        view: &SimView<'_>,
        job: JobId,
        to: ServerId,
        reason: MigrationFailReason,
    ) -> Vec<Action> {
        self.actions(Cb::MigrationFailed, |s| {
            s.on_migration_failed(view, job, to, reason)
        })
    }

    fn on_partition(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        self.partition_events += 1;
        self.actions(Cb::Fault, |s| s.on_partition(view, server))
    }

    fn on_partition_heal(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        self.partition_events += 1;
        self.actions(Cb::Fault, |s| s.on_partition_heal(view, server))
    }

    fn on_server_down(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        self.actions(Cb::Fault, |s| s.on_server_down(view, server))
    }

    fn on_server_up(&mut self, view: &SimView<'_>, server: ServerId) -> Vec<Action> {
        self.actions(Cb::Fault, |s| s.on_server_up(view, server))
    }

    fn on_profile_report(&mut self, view: &SimView<'_>, report: &ProfileReport) -> Vec<Action> {
        self.actions(Cb::ProfileReport, |s| s.on_profile_report(view, report))
    }

    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan {
        let start = Instant::now();
        let plan = self.inner.plan_round(view);
        let ns = start.elapsed().as_nanos() as u64;
        self.round_ns.push(ns);
        if self.full {
            let t = &mut self.tally[Cb::PlanRound as usize];
            t.calls += 1;
            t.ns += ns;
            self.job_quanta += plan.num_running() as u64;
            self.count(&plan.actions);
        }
        plan
    }

    fn next_decision_time(&self) -> Option<SimTime> {
        self.query(|s| s.next_decision_time())
    }

    fn probe_fast_forward(&mut self, view: &SimView<'_>, plan: &RoundPlan, k: u64) -> u64 {
        self.probed_running = plan.num_running() as u64;
        self.timed(Cb::FfProbe, |s| s.probe_fast_forward(view, plan, k))
    }

    fn commit_fast_forward(&mut self, j: u64) {
        self.ff_quanta += j;
        self.job_quanta += j * self.probed_running;
        self.timed(Cb::FfCommit, |s| s.commit_fast_forward(j))
    }

    fn user_shares(&self, view: &SimView<'_>) -> Vec<UserShare> {
        self.query(|s| s.user_shares(view))
    }
}

/// Calls and nanoseconds of `AllocPolicy::allocate`, shared with the
/// decorator (which the policy driver owns).
#[derive(Default)]
pub struct AllocTally {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

/// `AllocPolicy` decorator timing `allocate`.
pub struct TimedAlloc<P> {
    pub inner: P,
    pub tally: Arc<AllocTally>,
}

impl<P: AllocPolicy> AllocPolicy for TimedAlloc<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, round: &PolicyRound<'_>) -> Entitlements {
        let start = Instant::now();
        let out = self.inner.allocate(round);
        let ns = start.elapsed().as_nanos() as u64;
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        self.tally.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn epoch(&self, config: &SimConfig) -> SimDuration {
        self.inner.epoch(config)
    }

    fn fast_forward_ok(&self) -> bool {
        self.inner.fast_forward_ok()
    }

    fn wants_rho(&self) -> bool {
        self.inner.wants_rho()
    }
}
