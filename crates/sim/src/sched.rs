//! The scheduler interface: how policies plug into the simulator.
//!
//! A cluster scheduler is driven by engine callbacks. Mid-round callbacks
//! (arrival, finish, migration-done, profile report) return [`Action`]s that
//! the engine *queues* and applies at the next round boundary, so all state
//! changes happen at quantum edges — matching the paper's round-based
//! suspend/resume design and keeping accounting exact. The per-quantum
//! [`RoundPlan`] may also carry actions; those apply immediately, before the
//! plan's run sets are validated.

use crate::view::SimView;
use gfair_types::{GenId, JobId, JobState, MigrationFailReason, ServerId, SimTime};

/// A placement or migration decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Place a pending job on a server (it becomes resident immediately and
    /// can run from the next round plan onward).
    Place {
        /// Job to place.
        job: JobId,
        /// Destination server.
        server: ServerId,
    },
    /// Migrate a resident job to another server. The job is suspended for
    /// its checkpoint+restore cost and becomes resident on the destination
    /// when the migration completes.
    Migrate {
        /// Job to move.
        job: JobId,
        /// Destination server.
        to: ServerId,
    },
}

/// The jobs one [`RoundPlan`] runs, grouped by server.
///
/// A flat layout: every server's selection sits back to back in one job
/// vector, indexed by server-ascending `(server, end)` pairs where `end` is
/// one past that server's last job. Contents and iteration order are those
/// of a `BTreeMap<ServerId, Vec<JobId>>` built by the same
/// [`push`](Self::push) calls — servers ascending, each server's jobs in
/// push order — without a node allocation per server or a tree descent per
/// lookup. Building in server order (what every planner does) appends in
/// O(1); a push for a server below the last one inserts in O(len).
/// Servers with no jobs are absent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSet {
    servers: Vec<(ServerId, usize)>,
    jobs: Vec<JobId>,
}

impl RunSet {
    /// An empty run set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty run set with room for `servers` servers and `jobs` jobs.
    pub fn with_capacity(servers: usize, jobs: usize) -> Self {
        RunSet {
            servers: Vec::with_capacity(servers),
            jobs: Vec::with_capacity(jobs),
        }
    }

    /// Appends `job` to `server`'s selection.
    pub fn push(&mut self, server: ServerId, job: JobId) {
        match self.servers.last_mut() {
            Some((last, end)) if *last == server => {
                self.jobs.push(job);
                *end += 1;
            }
            Some(&mut (last, _)) if last > server => self.insert_before_last(server, job),
            _ => {
                self.jobs.push(job);
                self.servers.push((server, self.jobs.len()));
            }
        }
    }

    /// Appends a whole selection for `server` (nothing when `jobs` is
    /// empty), equivalent to pushing each job in turn.
    pub fn extend_server(&mut self, server: ServerId, jobs: &[JobId]) {
        if jobs.is_empty() {
            return;
        }
        if self.servers.last().is_none_or(|&(last, _)| last < server) {
            self.jobs.extend_from_slice(jobs);
            self.servers.push((server, self.jobs.len()));
        } else {
            for &job in jobs {
                self.push(server, job);
            }
        }
    }

    /// The out-of-order case of [`push`](Self::push): `server` sorts below
    /// the last server present.
    fn insert_before_last(&mut self, server: ServerId, job: JobId) {
        let (i, at) = match self.servers.binary_search_by_key(&server, |&(s, _)| s) {
            Ok(i) => (i, self.servers[i].1),
            Err(i) => {
                let start = if i == 0 { 0 } else { self.servers[i - 1].1 };
                self.servers.insert(i, (server, start));
                (i, start)
            }
        };
        self.jobs.insert(at, job);
        for entry in &mut self.servers[i..] {
            entry.1 += 1;
        }
    }

    /// `(server, selection)` pairs, servers ascending.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, &[JobId])> + '_ {
        let jobs = &self.jobs;
        let mut start = 0;
        self.servers.iter().map(move |&(server, end)| {
            let run = &jobs[start..end];
            start = end;
            (server, run)
        })
    }

    /// `server`'s selection, if it runs anything.
    pub fn get(&self, server: ServerId) -> Option<&[JobId]> {
        let i = self
            .servers
            .binary_search_by_key(&server, |&(s, _)| s)
            .ok()?;
        let start = if i == 0 { 0 } else { self.servers[i - 1].1 };
        Some(&self.jobs[start..self.servers[i].1])
    }

    /// Every scheduled job, in iteration order.
    pub fn all_jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// Total number of scheduled jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing runs anywhere.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// One quantum's scheduling decision.
#[derive(Debug, Clone, Default)]
pub struct RoundPlan {
    /// Jobs to run this quantum, per server. Jobs listed must be resident on
    /// that server and schedulable; gang sizes must fit within the server's
    /// GPUs. Servers may be omitted (nothing runs there).
    pub run: RunSet,
    /// Placements/migrations to apply at this round boundary, before the run
    /// sets are validated. A job placed here may appear in `run`.
    pub actions: Vec<Action>,
}

impl RoundPlan {
    /// An empty plan (nothing runs anywhere).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a job to a server's run set (builder-style convenience).
    pub fn run_on(&mut self, server: ServerId, job: JobId) {
        self.run.push(server, job);
    }

    /// Total number of jobs scheduled across all servers.
    pub fn num_running(&self) -> usize {
        self.run.len()
    }
}

/// A noisy observation of a job's training rate on one GPU generation.
///
/// Emitted by the engine after the job accumulates
/// [`gfair_types::SimConfig::profile_stint`] of runtime on that generation
/// (and again after each further stint, so estimators can average).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileReport {
    /// The profiled job.
    pub job: JobId,
    /// Generation the job was observed on.
    pub gen: GenId,
    /// Observed training rate in minibatches/sec-equivalents. Only *ratios*
    /// between generations are meaningful to a scheduler.
    pub rate: f64,
}

/// A scheduling policy driven by the simulator.
///
/// All callbacks receive a read-only [`SimView`] of cluster state. The
/// default implementations of the optional callbacks do nothing.
pub trait ClusterScheduler {
    /// Human-readable policy name, used in reports.
    fn name(&self) -> &'static str;

    /// Called when a job is submitted. Returned actions are queued and
    /// applied at the next round boundary.
    fn on_job_arrival(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action>;

    /// Called when a job completes. Returned actions are queued.
    fn on_job_finish(&mut self, _view: &SimView<'_>, _job: JobId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when a migration completes and the job is resident on its
    /// destination. Returned actions are queued.
    fn on_migration_done(&mut self, _view: &SimView<'_>, _job: JobId) -> Vec<Action> {
        Vec::new()
    }

    /// Called for each job evicted by a server failure (the job is back in
    /// the `Pending` state with its training progress intact — DLT jobs
    /// restart from their last checkpoint). The default treats eviction
    /// like a fresh arrival, so every scheduler re-places evicted jobs.
    fn on_job_evicted(&mut self, view: &SimView<'_>, job: JobId) -> Vec<Action> {
        self.on_job_arrival(view, job)
    }

    /// Called when a migration attempt (or a placement decision that could
    /// not be delivered) fails. `to` is the intended destination and
    /// `reason` says which stage broke; the job's current state tells the
    /// scheduler where it ended up — still resident at its source
    /// (checkpoint failure, unreachable target) or back in the pending
    /// queue (restore failure, destination down).
    ///
    /// The default re-dispatches jobs that landed back in the queue through
    /// [`on_job_evicted`](Self::on_job_evicted) and leaves still-resident
    /// jobs alone, so baselines without a retry policy never lose a job.
    fn on_migration_failed(
        &mut self,
        view: &SimView<'_>,
        job: JobId,
        _to: ServerId,
        _reason: MigrationFailReason,
    ) -> Vec<Action> {
        if view.job(job).map(|j| j.state) == Some(JobState::Pending) {
            self.on_job_evicted(view, job)
        } else {
            Vec::new()
        }
    }

    /// Called when the central scheduler loses contact with `server`'s
    /// local scheduler. The server keeps running its last-received state;
    /// decisions targeting it will be dropped until it heals.
    fn on_partition(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when connectivity to a partitioned server is restored and the
    /// scheduler should reconcile any state that went stale.
    fn on_partition_heal(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called after a server fails (its jobs have already been evicted and
    /// re-dispatched through [`on_job_evicted`](Self::on_job_evicted)).
    fn on_server_down(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when a failed server comes back online.
    fn on_server_up(&mut self, _view: &SimView<'_>, _server: ServerId) -> Vec<Action> {
        Vec::new()
    }

    /// Called when the profiler observes a job's rate on a generation.
    /// Returned actions are queued.
    fn on_profile_report(&mut self, _view: &SimView<'_>, _report: &ProfileReport) -> Vec<Action> {
        Vec::new()
    }

    /// Called once per quantum: decide which resident jobs run this round.
    fn plan_round(&mut self, view: &SimView<'_>) -> RoundPlan;

    /// Earliest future time at which this scheduler would decide something
    /// differently even with unchanged inputs (a trade epoch, a balance
    /// epoch, a retry-backoff expiry). The engine uses this to bound how far
    /// it may fast-forward through quiescent rounds; `None` means the policy
    /// has no internal timers.
    fn next_decision_time(&self) -> Option<SimTime> {
        None
    }

    /// Asks whether the last [`plan_round`](Self::plan_round) result (`plan`)
    /// would be reproduced verbatim for the next `k` quanta, assuming no
    /// external events. Returns the number of quanta `j <= k` the plan can be
    /// replayed for; `0` declines fast-forwarding. Must not mutate state —
    /// the engine follows up with
    /// [`commit_fast_forward`](Self::commit_fast_forward) only when it
    /// actually skips. The default declines, so policies opt in explicitly.
    fn probe_fast_forward(&mut self, _view: &SimView<'_>, _plan: &RoundPlan, _k: u64) -> u64 {
        0
    }

    /// Advances internal stride state by `j` quanta in one step, exactly as
    /// if [`plan_round`](Self::plan_round) had been called `j` times with
    /// unchanged inputs. Only called with `j` no larger than the value the
    /// immediately preceding [`probe_fast_forward`](Self::probe_fast_forward)
    /// returned.
    fn commit_fast_forward(&mut self, _j: u64) {}

    /// Per-user tickets and stride passes backing the plan just produced,
    /// reported for tracing and audit (the auditor checks that tickets sum
    /// to the cluster's GPU supply). Policies without a per-user ticket
    /// economy return an empty list, which disables the check.
    fn user_shares(&self, _view: &SimView<'_>) -> Vec<gfair_obs::UserShare> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn round_plan_builder() {
        let mut p = RoundPlan::empty();
        assert_eq!(p.num_running(), 0);
        p.run_on(ServerId::new(0), JobId::new(1));
        p.run_on(ServerId::new(0), JobId::new(2));
        p.run_on(ServerId::new(3), JobId::new(7));
        assert_eq!(p.num_running(), 3);
        assert_eq!(
            p.run.get(ServerId::new(0)),
            Some(&[JobId::new(1), JobId::new(2)][..])
        );
        assert_eq!(p.run.get(ServerId::new(1)), None);
        assert_eq!(
            p.run.all_jobs(),
            &[JobId::new(1), JobId::new(2), JobId::new(7)]
        );
    }

    /// The `BTreeMap` layout the flat run set replaced, as the oracle.
    fn oracle_of(pushes: &[(u32, u32)]) -> BTreeMap<ServerId, Vec<JobId>> {
        let mut map: BTreeMap<ServerId, Vec<JobId>> = BTreeMap::new();
        for &(s, j) in pushes {
            map.entry(ServerId::new(s)).or_default().push(JobId::new(j));
        }
        map
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `run_on` sequences — in order, out of order, repeated
        /// servers, whole-selection appends — give the flat run set exactly
        /// the iteration order, lookups and size of the map it replaced.
        /// Each op is (server, job, whole): `whole` appends a three-job
        /// selection through `extend_server` instead of a single push.
        #[test]
        fn run_set_matches_btreemap_oracle(
            ops in collection::vec((0u32..12, 0u32..1000, 0u8..4), 0..40),
        ) {
            let mut plan = RoundPlan::empty();
            let mut pushes = Vec::new();
            for (s, j, whole) in ops {
                if whole == 0 {
                    let jobs = [JobId::new(j), JobId::new(j + 1), JobId::new(j + 2)];
                    plan.run.extend_server(ServerId::new(s), &jobs);
                    pushes.extend([(s, j), (s, j + 1), (s, j + 2)]);
                } else {
                    plan.run_on(ServerId::new(s), JobId::new(j));
                    pushes.push((s, j));
                }
            }
            let oracle = oracle_of(&pushes);
            let flat: Vec<(ServerId, Vec<JobId>)> =
                plan.run.iter().map(|(s, jobs)| (s, jobs.to_vec())).collect();
            let expected: Vec<(ServerId, Vec<JobId>)> = oracle.clone().into_iter().collect();
            prop_assert_eq!(flat, expected);
            for s in 0..13 {
                let server = ServerId::new(s);
                prop_assert_eq!(
                    plan.run.get(server),
                    oracle.get(&server).map(Vec::as_slice)
                );
            }
            let all: Vec<JobId> = oracle.values().flatten().copied().collect();
            prop_assert_eq!(plan.run.all_jobs(), all.as_slice());
            prop_assert_eq!(
                plan.num_running(),
                oracle.values().map(Vec::len).sum::<usize>()
            );
        }
    }

    #[test]
    fn actions_are_comparable() {
        let a = Action::Place {
            job: JobId::new(1),
            server: ServerId::new(2),
        };
        let b = Action::Place {
            job: JobId::new(1),
            server: ServerId::new(2),
        };
        assert_eq!(a, b);
        assert_ne!(
            a,
            Action::Migrate {
                job: JobId::new(1),
                to: ServerId::new(2)
            }
        );
    }
}
