//! One repetition of a gfair benchmark workload, printed as one JSON line.
//!
//! Usage:
//!
//! ```text
//! gfair-perfbench list
//! gfair-perfbench calibrate --seconds S
//! gfair-perfbench plain  --workload NAME --seed N --workers K --scratch DIR
//! gfair-perfbench traced --workload NAME --seed N --workers K --scratch DIR --seconds S
//! ```
//!
//! `calibrate` times the fixed kernel of [`calib`] for `S` seconds and
//! prints each call's duration. `plain` runs the workload once untraced and
//! prints the end-to-end metrics. `traced` runs it once without any
//! decorator, then with every layer boundary timed (at `K` planning
//! workers, at another worker count, and again at `K` until `S` seconds
//! have passed) and prints the per-layer metrics. Both modes check the
//! run's output; see `perfbench/README.md`.
//!
//! All timing happens here, around calls into public functions of the
//! repository's crates; the program under test is not modified.

mod calib;
mod probe;
mod workload;

use gfair_core::{GfairConfig, PolicyId, PolicyScheduler};
use gfair_obs::{Phase, PhaseStats, SharedObs};
use gfair_policies::{build_policy, GavelHetero};
use gfair_sim::{ClusterScheduler, SimReport, Simulation};
use gfair_types::{JobId, SimConfig, UserSpec};
use gfair_workloads::TraceBuilder;
use probe::{AllocTally, Cb, Probe, TimedAlloc};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::Workload;

const MIB: f64 = 1024.0 * 1024.0;

/// How a repetition wraps the scheduler.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No decorator: the reference report of the traced mode.
    Bare,
    /// The decorator times `plan_round` only (the end-to-end runs).
    Light,
    /// The decorator times every layer boundary (the traced runs).
    Full,
}

/// Everything one repetition measured.
struct Rep {
    report: SimReport,
    json: String,
    /// Every trace job id, in trace order.
    trace_ids: Vec<JobId>,
    build: Duration,
    new: Duration,
    sched_build: Duration,
    setup: Duration,
    run: Duration,
    serialize: Duration,
    flush: Duration,
    wall: Duration,
    probe: Probe,
    alloc: Option<Arc<AllocTally>>,
    phases: Vec<PhaseStats>,
    trace_bytes: u64,
    trace_lines: u64,
}

/// Builds the workload's scheduler. The traced run of the `gavel-hetero`
/// workload wraps its `AllocPolicy` in [`TimedAlloc`], building the driver
/// the way `build_policy` does; the byte check against the untraced run
/// (built by `build_policy` itself) holds the two constructions equal.
fn scheduler(
    policy: PolicyId,
    cfg: GfairConfig,
    obs: SharedObs,
    time_alloc: bool,
) -> (Box<dyn ClusterScheduler>, Option<Arc<AllocTally>>) {
    if !time_alloc || policy != PolicyId::GavelHetero {
        return (build_policy(cfg, obs), None);
    }
    let tally = Arc::new(AllocTally::default());
    let policy = TimedAlloc {
        inner: GavelHetero::new(),
        tally: Arc::clone(&tally),
    };
    let sched = PolicyScheduler::new(policy, cfg).with_obs(obs);
    (Box::new(sched), Some(tally))
}

/// Runs the workload once: set-up, `run_until`, report serialisation and
/// the trace flush, each timed.
fn run_rep(
    w: &Workload,
    seed: u64,
    workers: usize,
    mode: Mode,
    scratch: &Path,
) -> Result<Rep, String> {
    let trace_path = scratch.join(format!("{}-{}.jsonl", w.name, std::process::id()));
    let t0 = Instant::now();
    let cluster = (w.cluster)();
    let users = UserSpec::equal_users(w.users, 100);
    let tb = Instant::now();
    let trace = TraceBuilder::new(w.params.clone(), seed).build(&users);
    let build = tb.elapsed();
    let trace_ids: Vec<JobId> = trace.iter().map(|j| j.id).collect();
    let tn = Instant::now();
    let mut sim = Simulation::new(cluster, users, trace, SimConfig::default().with_seed(seed))
        .map_err(|e| format!("simulation set-up: {e}"))?;
    if w.faulted {
        sim = sim.with_faults(workload::faults(seed));
    }
    let new = tn.elapsed();
    let obs = sim.obs();
    if w.recorded {
        obs.jsonl(&trace_path)
            .map_err(|e| format!("trace sink {}: {e}", trace_path.display()))?;
    }
    let cfg = GfairConfig::default()
        .with_policy(w.policy)
        .with_planning_workers(workers);
    let ts = Instant::now();
    let (sched, alloc) = scheduler(w.policy, cfg, Arc::clone(&obs), mode == Mode::Full);
    let sched_build = ts.elapsed();
    let setup = t0.elapsed();

    let mut probe = Probe::new(sched, mode == Mode::Full);
    let tr = Instant::now();
    let result = if mode == Mode::Bare {
        sim.run_until(probe.inner_mut(), w.horizon)
    } else {
        sim.run_until(&mut probe, w.horizon)
    };
    let run = tr.elapsed();
    let report = result.map_err(|e| format!("run: {e}"))?;
    let tz = Instant::now();
    let json = serde_json::to_string(&report).map_err(|e| format!("serialise: {e}"))?;
    let serialize = tz.elapsed();
    let tf = Instant::now();
    obs.flush();
    let flush = tf.elapsed();
    let wall = t0.elapsed();

    let (mut trace_bytes, mut trace_lines) = (0, 0);
    if w.recorded {
        let bytes = std::fs::read(&trace_path)
            .map_err(|e| format!("read trace {}: {e}", trace_path.display()))?;
        trace_bytes = bytes.len() as u64;
        trace_lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        drop(bytes);
        std::fs::remove_file(&trace_path)
            .map_err(|e| format!("remove trace {}: {e}", trace_path.display()))?;
    }
    Ok(Rep {
        report,
        json,
        trace_ids,
        build,
        new,
        sched_build,
        setup,
        run,
        serialize,
        flush,
        wall,
        probe,
        alloc,
        phases: obs.phase_stats(),
        trace_bytes,
        trace_lines,
    })
}

/// Runs [`run_rep`], turning a panic into an error.
fn try_rep(
    w: &Workload,
    seed: u64,
    workers: usize,
    mode: Mode,
    scratch: &Path,
) -> Result<Rep, String> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_rep(w, seed, workers, mode, scratch)
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// The output checks every repetition must pass: the auditor is clean,
/// every trace job is in the report exactly once, finish times are sane,
/// and the workload reached the layer it exists for.
fn check(w: &Workload, rep: &Rep) -> Result<(), String> {
    let r = &rep.report;
    let obs = r.obs.as_ref().ok_or("report has no obs summary")?;
    if obs.violations > 0 {
        return Err(format!("auditor found {} violation(s)", obs.violations));
    }
    if r.jobs.len() != rep.trace_ids.len()
        || !rep.trace_ids.iter().all(|id| r.jobs.contains_key(id))
    {
        return Err(format!(
            "report accounts for {} of {} trace jobs",
            r.jobs.len(),
            rep.trace_ids.len()
        ));
    }
    let finished = r.finished_jobs() as u64;
    let counted = obs.counters.get("jobs_finished").copied().unwrap_or(0);
    if finished != counted {
        return Err(format!(
            "{finished} finished jobs in report, {counted} in obs counters"
        ));
    }
    if finished == 0 {
        return Err("no job finished".into());
    }
    if let Some(j) = r
        .jobs
        .values()
        .find(|j| j.finish.is_some_and(|f| f < j.arrival || f > w.horizon))
    {
        return Err(format!("job {} finished outside [arrival, horizon]", j.id));
    }
    let worst = rho(r).into_iter().fold(0.0, f64::max);
    if (worst - obs.ledger.rho.max).abs() > 1e-9 * worst {
        return Err(format!(
            "worst finish-time fairness is {worst} from the report, {} from the ledger",
            obs.ledger.rho.max
        ));
    }
    if w.faulted {
        let evicted = obs.counters.get("jobs_evicted").copied().unwrap_or(0);
        let partitions = obs.counters.get("partitions").copied().unwrap_or(0);
        if r.migration_failures == 0 || evicted == 0 || partitions == 0 {
            return Err(format!(
                "fault plan not exercised: {} migration failures, {evicted} evictions, {partitions} partitions",
                r.migration_failures
            ));
        }
    }
    if w.recorded && rep.trace_bytes == 0 {
        return Err("trace sink wrote nothing".into());
    }
    Ok(())
}

/// Nearest-rank percentile of an unsorted sample (NaN when empty, which
/// `print` leaves out and the runner reports as a missing metric).
fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Finish-time fairness of every finished job: turnaround over per-GPU
/// service demand, the ledger's definition.
fn rho(r: &SimReport) -> Vec<f64> {
    r.jobs
        .values()
        .filter(|j| j.service_secs > 0.0)
        .filter_map(|j| j.jct().map(|d| d.as_secs_f64() / j.service_secs))
        .collect()
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric name → (value, unit), printed in name order.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The end-to-end metrics of one untraced repetition.
fn end_to_end(rep: &Rep) -> Metrics {
    let r = &rep.report;
    let jain = r.obs.as_ref().expect("checked").ledger.jain;
    let wall = rep.wall.as_secs_f64();
    let setup = rep.setup.as_secs_f64();
    let mut rounds: Vec<f64> = rep
        .probe
        .round_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let mut jct: Vec<f64> = r.jcts().iter().map(|d| d.as_secs_f64() / 60.0).collect();
    let mut m = Metrics::new();
    m.insert("wall_s", (wall, "s"));
    m.insert("setup_s", (setup, "s"));
    m.insert(
        "sim_gpu_h_per_s",
        (r.gpu_secs_used / 3600.0 / (wall - setup), "GPU-h/s"),
    );
    m.insert("round_p50_us", (percentile(&mut rounds, 0.5), "us"));
    m.insert("round_p90_us", (percentile(&mut rounds, 0.9), "us"));
    m.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
    m.insert("jain", (jain, "index"));
    m.insert("base_gpu_h", (r.total_base_secs() / 3600.0, "GPU-h"));
    m.insert("jct_p50_min", (percentile(&mut jct, 0.5), "min"));
    m.insert("jct_p99_min", (percentile(&mut jct, 0.99), "min"));
    m.insert("rho_p99", (percentile(&mut rho(r), 0.99), "ratio"));
    m.insert(
        "finished_frac",
        (
            r.finished_jobs() as f64 / rep.trace_ids.len() as f64,
            "ratio",
        ),
    );
    m
}

/// Total seconds of one engine phase span.
fn phase_s(rep: &Rep, phase: Phase) -> (f64, u64) {
    rep.phases
        .iter()
        .find(|p| p.phase == phase)
        .map_or((0.0, 0), |p| (p.total_ms / 1e3, p.count))
}

/// The per-layer metrics of one traced repetition. Counts are exact and
/// repeat across runs; times are self times that sum to `trace.wall_s`
/// up to `unattributed_s`.
fn layers(rep: &Rep) -> Metrics {
    let r = &rep.report;
    let p = &rep.probe;
    let obs = r.obs.as_ref().expect("checked");
    let s = |d: Duration| d.as_secs_f64();
    let (gang_s, gang_n) = phase_s(rep, Phase::GangPacking);
    let (trade_s, trade_n) = phase_s(rep, Phase::TradeMatching);
    let (balance_s, balance_n) = phase_s(rep, Phase::MigrationSearch);
    let (planning_s, _) = phase_s(rep, Phase::RoundPlanning);
    let (alloc_s, alloc_n) = rep.alloc.as_ref().map_or((0.0, 0), |t| {
        (
            t.ns.load(Ordering::Relaxed) as f64 / 1e9,
            t.calls.load(Ordering::Relaxed),
        )
    });
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let plan = p.get(Cb::PlanRound);
    let probes = p.get(Cb::FfProbe);
    let commits = p.get(Cb::FfCommit);
    let engine_self = s(rep.run) - p.all_ns() as f64 / 1e9;
    let driver_self = p.sched_ns() as f64 / 1e9 - gang_s - trade_s - balance_s - alloc_s;

    let mut m = Metrics::new();
    let count = |m: &mut Metrics, name, v: u64| {
        m.insert(name, (v as f64, "count"));
    };
    m.insert("workloads.build_s", (s(rep.build), "s"));
    m.insert("sim.new_s", (s(rep.new), "s"));
    m.insert("sched.build_s", (s(rep.sched_build), "s"));
    m.insert("sim.engine_self_s", (engine_self, "s"));
    count(&mut m, "sim.rounds", r.rounds);
    count(&mut m, "sim.job_quanta", p.job_quanta);
    count(&mut m, "sim.events", obs.events);
    count(&mut m, "sim.profile_reports", r.profile_reports);
    count(&mut m, "sim.ff.probes", probes.calls);
    count(&mut m, "sim.ff.commits", commits.calls);
    count(&mut m, "sim.ff.quanta_skipped", p.ff_quanta);
    m.insert("sim.ff.probe_s", (probes.secs(), "s"));
    m.insert("sim.ff.commit_s", (commits.secs(), "s"));
    m.insert(
        "sim.ff.hit_ratio",
        (ratio(commits.calls as f64, probes.calls as f64), "ratio"),
    );
    m.insert(
        "sim.ff.skip_share",
        (ratio(p.ff_quanta as f64, r.rounds as f64), "ratio"),
    );
    count(&mut m, "sched.plan_round.calls", plan.calls);
    m.insert("sched.plan_round_s", (plan.secs(), "s"));
    for (cb, calls, secs) in [
        (
            Cb::JobArrival,
            "sched.on_job_arrival.calls",
            "sched.on_job_arrival_s",
        ),
        (
            Cb::JobFinish,
            "sched.on_job_finish.calls",
            "sched.on_job_finish_s",
        ),
        (
            Cb::ProfileReport,
            "sched.on_profile_report.calls",
            "sched.on_profile_report_s",
        ),
        (
            Cb::MigrationDone,
            "sched.on_migration_done.calls",
            "sched.on_migration_done_s",
        ),
        (
            Cb::MigrationFailed,
            "sched.on_migration_failed.calls",
            "sched.on_migration_failed_s",
        ),
        (
            Cb::JobEvicted,
            "sched.on_job_evicted.calls",
            "sched.on_job_evicted_s",
        ),
        (
            Cb::Fault,
            "sched.fault_callbacks.calls",
            "sched.fault_callbacks_s",
        ),
        (Cb::Query, "sched.queries.calls", "sched.queries_s"),
    ] {
        count(&mut m, calls, p.get(cb).calls);
        m.insert(secs, (p.get(cb).secs(), "s"));
    }
    count(&mut m, "sched.places", p.places);
    count(&mut m, "sched.migrates", p.migrates);
    m.insert("sched.driver_self_s", (driver_self, "s"));
    m.insert(
        "sched.plan_round.engine_gap",
        (ratio(planning_s - plan.secs(), planning_s), "ratio"),
    );
    m.insert("stride.gang_packing_s", (gang_s, "s"));
    count(&mut m, "stride.gang_packing.calls", gang_n);
    m.insert("core.trade_s", (trade_s, "s"));
    count(&mut m, "core.trade.calls", trade_n);
    m.insert("core.balance_s", (balance_s, "s"));
    count(&mut m, "core.balance.calls", balance_n);
    count(&mut m, "sim.migrations", u64::from(r.migrations));
    count(
        &mut m,
        "sim.stale_migrations",
        u64::from(r.stale_migrations),
    );
    m.insert(
        "core.balance.useful_ratio",
        (ratio(f64::from(r.migrations), p.migrates as f64), "ratio"),
    );
    m.insert("policies.allocate_s", (alloc_s, "s"));
    count(&mut m, "policies.allocate.calls", alloc_n);
    count(
        &mut m,
        "faults.migration_failures",
        u64::from(r.migration_failures),
    );
    count(&mut m, "faults.evictions", p.evictions);
    count(&mut m, "faults.partition_events", p.partition_events);
    m.insert("obs.trace_mib", (rep.trace_bytes as f64 / MIB, "MiB"));
    m.insert("obs.flush_s", (s(rep.flush), "s"));
    count(&mut m, "obs.events", rep.trace_lines);
    m.insert("report.serialize_s", (s(rep.serialize), "s"));
    m.insert("report.mib", (rep.json.len() as f64 / MIB, "MiB"));
    let attributed = s(rep.build)
        + s(rep.new)
        + s(rep.sched_build)
        + engine_self
        + probes.secs()
        + commits.secs()
        + driver_self
        + gang_s
        + trade_s
        + balance_s
        + alloc_s
        + s(rep.serialize)
        + s(rep.flush);
    m.insert("unattributed_s", (s(rep.wall) - attributed, "s"));
    m.insert("trace.wall_s", (s(rep.wall), "s"));
    m
}

/// Checks one traced repetition: the layer table closes within 5% of the
/// traced wall time, and the decorator's `plan_round` total agrees with
/// the engine's own `RoundPlanning` span total.
fn check_layers(m: &Metrics) -> Result<(), String> {
    let wall = m["trace.wall_s"].0;
    let unattributed = m["unattributed_s"].0;
    if unattributed.abs() > 0.05 * wall {
        return Err(format!(
            "layer table does not close: {unattributed:.4}s of {wall:.4}s unattributed"
        ));
    }
    let gap = m["sched.plan_round.engine_gap"].0;
    if !(0.0..=0.05).contains(&gap) {
        return Err(format!(
            "plan_round total disagrees with the engine's RoundPlanning span by {:.2}%",
            gap * 100.0
        ));
    }
    Ok(())
}

/// First count metric that differs between two traced repetitions.
fn count_diff(a: &Metrics, b: &Metrics) -> Option<String> {
    a.iter()
        .filter(|(_, (_, unit))| *unit == "count" || *unit == "MiB")
        .find(|(name, (v, _))| b[*name].0 != *v)
        .map(|(name, (v, _))| format!("{name}: {v} vs {}", b[*name].0))
}

/// FNV-1a over the serialised report, so repetitions in separate processes
/// can be compared.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Prints one result line: the outcome, the trace jobs per repetition, the
/// repetitions run and the metrics.
fn print(ok: Result<(), String>, jobs: usize, reps: usize, metrics: &Metrics, hash: Option<u64>) {
    let mut out = String::from("{");
    out += &format!("\"jobs\": {jobs}, \"reps\": {reps}, ");
    match ok {
        Ok(()) => out += "\"error\": null, ",
        Err(e) => out += &format!("\"error\": {:?}, ", e),
    }
    if let Some(h) = hash {
        out += &format!("\"report_hash\": \"{h:016x}\", ");
    }
    out += "\"metrics\": {";
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, (v, _))| v.is_finite())
        .map(|(name, (v, unit))| format!("{name:?}: {{\"value\": {v:?}, \"unit\": {unit:?}}}"))
        .collect();
    out += &body.join(", ");
    out += "}}";
    println!("{out}");
}

/// `traced` mode. Repetitions run in this order: the bare scheduler with no
/// decorator (the reference report, which also warms the allocator),
/// traced at `workers`, traced at another worker count (two when `workers`
/// is one, else one), untraced, and then traced and
/// untraced in turn at `workers` until `seconds` have passed. Every report
/// must equal the reference bytes, so a decorator that fails to forward a
/// method shows, and every traced work count must repeat. Times are medians
/// over the traced repetitions at `workers`; `trace.overhead` is their
/// median wall time over that of the untraced (decorated) repetitions.
fn traced(w: &Workload, seed: u64, workers: usize, scratch: &Path, seconds: f64) -> i32 {
    let start = Instant::now();
    let jobs = w.params.num_jobs;
    let fail = |e: String| {
        print(Err(e), jobs, 0, &Metrics::new(), None);
        1
    };
    let mut reference: Option<(String, Metrics)> = None;
    let mut reference_json: Option<String> = None;
    let (mut runs, mut untraced_walls) = (Vec::new(), Vec::new());
    for i in 0.. {
        if i >= 4 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mode = match i {
            0 => Mode::Bare,
            1 | 2 => Mode::Full,
            _ if i > 3 && i % 2 == 0 => Mode::Full,
            _ => Mode::Light,
        };
        let k = match (i, workers) {
            (2, 1) => 2,
            (2, _) => 1,
            _ => workers,
        };
        let what = match mode {
            Mode::Bare => format!("undecorated run at {k} worker(s)"),
            Mode::Light => format!("untraced run at {k} worker(s)"),
            Mode::Full => format!("traced run at {k} worker(s)"),
        };
        let rep = match try_rep(w, seed, k, mode, scratch) {
            Ok(rep) => rep,
            Err(e) => return fail(format!("{what}: {e}")),
        };
        if let Err(e) = check(w, &rep) {
            return fail(format!("{what}: {e}"));
        }
        match &reference_json {
            None => reference_json = Some(rep.json.clone()),
            Some(json) if *json != rep.json => {
                return fail(format!(
                    "{what}: report differs from the undecorated report"
                ))
            }
            Some(_) => {}
        }
        if mode == Mode::Light {
            untraced_walls.push(rep.wall.as_secs_f64());
        }
        if mode != Mode::Full {
            continue;
        }
        let m = layers(&rep);
        if let Err(e) = check_layers(&m) {
            return fail(format!("{what}: {e}"));
        }
        match &reference {
            None => reference = Some((what, m.clone())),
            Some((first, r)) => {
                if let Some(d) = count_diff(r, &m) {
                    return fail(format!(
                        "work count differs between the {first} and the {what}: {d}"
                    ));
                }
            }
        }
        if k == workers {
            runs.push(m);
        }
    }
    let (_, mut out) = reference.expect("traced repetitions ran");
    for (name, (value, unit)) in out.iter_mut() {
        if *unit == "s" {
            let mut v: Vec<f64> = runs.iter().map(|m| m[name].0).collect();
            *value = percentile(&mut v, 0.5);
        }
    }
    let untraced = percentile(&mut untraced_walls, 0.5);
    out.insert(
        "trace.overhead",
        (out["trace.wall_s"].0 / untraced, "ratio"),
    );
    print(
        Ok(()),
        jobs,
        runs.len() + untraced_walls.len() + 2,
        &out,
        None,
    );
    0
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str).unwrap_or("");
    if mode == "list" {
        let rows: Vec<String> = workload::NAMES
            .iter()
            .map(|n| {
                format!(
                    "{n:?}: {}",
                    workload::workload(n).expect("listed").params.num_jobs
                )
            })
            .collect();
        println!("{{{}}}", rows.join(", "));
        return;
    }
    if mode == "calibrate" {
        let seconds = arg(&args, "--seconds").unwrap_or(0.0);
        let code = match calib::run(seconds) {
            Ok(ms) => {
                let ms: Vec<String> = ms.iter().map(|v| format!("{v:?}")).collect();
                println!(
                    "{{\"error\": null, \"reference_ms\": {:?}, \"calib_ms\": [{}]}}",
                    calib::REFERENCE_MS,
                    ms.join(", ")
                );
                0
            }
            Err(e) => {
                println!("{{\"error\": {e:?}, \"calib_ms\": []}}");
                1
            }
        };
        std::process::exit(code);
    }
    let name: Option<String> = arg(&args, "--workload");
    let w = match name.as_deref().and_then(workload::workload) {
        Some(w) => w,
        None => {
            eprintln!("gfair-perfbench: unknown or missing --workload; see `list`");
            std::process::exit(2);
        }
    };
    let (Some(seed), Some(workers), Some(scratch)) = (
        arg::<u64>(&args, "--seed"),
        arg::<usize>(&args, "--workers"),
        arg::<PathBuf>(&args, "--scratch"),
    ) else {
        eprintln!("gfair-perfbench: --seed, --workers and --scratch are required");
        std::process::exit(2);
    };
    let code = match mode {
        "plain" => match try_rep(&w, seed, workers, Mode::Light, &scratch) {
            Ok(rep) => {
                let ok = check(&w, &rep);
                let failed = ok.is_err();
                print(
                    ok,
                    rep.trace_ids.len(),
                    1,
                    &end_to_end(&rep),
                    Some(fnv1a(rep.json.as_bytes())),
                );
                i32::from(failed)
            }
            Err(e) => {
                print(Err(e), w.params.num_jobs, 1, &Metrics::new(), None);
                1
            }
        },
        "traced" => {
            let seconds = arg(&args, "--seconds").unwrap_or(0.0);
            traced(&w, seed, workers, &scratch, seconds)
        }
        _ => {
            eprintln!("gfair-perfbench: mode must be list, calibrate, plain or traced");
            2
        }
    };
    std::process::exit(code);
}
