//! `Obs::emit_gangs` — one round's grants under one lock — must be
//! indistinguishable from emitting each grant as its own `GangPacked`
//! event: same trace bytes, same summary, same auditor findings.

use gfair_obs::{GangGrant, Obs, TraceEvent, ViolationKind};
use gfair_types::{GenId, JobId, ServerId, SimTime, UserId};
use std::path::PathBuf;

/// Two 4-GPU servers and four resident jobs (gangs 2, 2, 4, 3).
fn prologue() -> Vec<TraceEvent> {
    let t = SimTime::ZERO;
    let mut events = Vec::new();
    for s in 0..2 {
        events.push(TraceEvent::ServerUp {
            t,
            server: ServerId::new(s),
            gen: GenId::new(s),
            gpus: 4,
        });
    }
    for (job, user, gang, server) in [(0, 0, 2, 0), (1, 1, 2, 0), (2, 0, 4, 1), (3, 1, 3, 0)] {
        events.push(TraceEvent::JobArrive {
            t,
            job: JobId::new(job),
            user: UserId::new(user),
            gang,
            service_secs: 600.0,
        });
        events.push(TraceEvent::Placement {
            t,
            job: JobId::new(job),
            server: ServerId::new(server),
            gang,
        });
    }
    events
}

fn grant(server: u32, job: u32, user: u32, gang: u32) -> GangGrant {
    GangGrant {
        server: ServerId::new(server),
        job: JobId::new(job),
        user: UserId::new(user),
        width: gang,
        gang,
    }
}

/// Three clean rounds of grants, round numbers from 1.
fn rounds() -> Vec<Vec<GangGrant>> {
    vec![
        vec![grant(0, 0, 0, 2), grant(0, 1, 1, 2), grant(1, 2, 0, 4)],
        vec![grant(0, 3, 1, 3), grant(1, 2, 0, 4)],
        vec![],
    ]
}

fn round_planned(round: u64, grants: &[GangGrant]) -> TraceEvent {
    TraceEvent::RoundPlanned {
        t: SimTime::from_secs(60 * round),
        round,
        scheduled: grants.len() as u32,
        gpus_used: grants.iter().map(|g| g.width).sum(),
        gpus_up: 8,
        pending: 0,
        tickets_total: 8.0,
        users: vec![],
        user_gpus: vec![],
    }
}

/// Feeds `rounds` into `obs`, each round's grants either batched or one
/// `emit` per grant, each round closed by its `RoundPlanned` summary.
fn drive(obs: &Obs, rounds: &[Vec<GangGrant>], batched: bool) {
    for event in prologue() {
        obs.emit(event);
    }
    for (i, grants) in rounds.iter().enumerate() {
        let round = i as u64 + 1;
        let t = SimTime::from_secs(60 * round);
        if batched {
            obs.emit_gangs(t, round, grants);
        } else {
            for g in grants {
                obs.emit(g.event(t, round));
            }
        }
        obs.emit(round_planned(round, grants));
    }
    obs.flush();
}

fn trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gfair-obs-batched-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn batched_full_fidelity_trace_is_byte_identical_to_per_event_emission() {
    let mut bytes = Vec::new();
    let mut summaries = Vec::new();
    for (tag, batched) in [("single", false), ("batched", true)] {
        let path = trace_path(tag);
        let obs = Obs::new();
        obs.jsonl_full(&path).expect("trace file");
        drive(&obs, &rounds(), batched);
        bytes.push(std::fs::read(&path).expect("trace written"));
        std::fs::remove_file(&path).ok();
        summaries.push(obs.summary());
        assert!(obs.violations().is_empty(), "{tag} run is clean");
    }
    let text = String::from_utf8(bytes[0].clone()).expect("utf-8 trace");
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"gang_packed\""))
            .count(),
        5,
        "the full-fidelity trace carries every grant"
    );
    assert_eq!(bytes[0], bytes[1], "trace bytes differ");
    assert_eq!(summaries[0], summaries[1], "summaries differ");
    assert_eq!(summaries[1].counters["gangs_packed"], 5);
}

#[test]
fn violation_inside_a_batch_matches_per_event_emission() {
    // Round 2 grants server 0 a second gang that no longer fits: job 0 (2
    // GPUs) and job 3 (3 GPUs) cannot share a 4-GPU server, so the
    // overcommit fires on the server's second grant, mid-batch, and the
    // batch goes on to server 1's grant.
    let mut rounds = rounds();
    rounds[1] = vec![grant(0, 0, 0, 2), grant(0, 3, 1, 3), grant(1, 2, 0, 4)];
    let mut found = Vec::new();
    for batched in [false, true] {
        let obs = Obs::new();
        drive(&obs, &rounds, batched);
        let v = obs.take_fatal().expect("overcommit detected");
        assert!(obs.take_fatal().is_none(), "exactly one violation");
        found.push(v);
    }
    let v = &found[1];
    assert_eq!(
        v.kind,
        ViolationKind::Overcommit {
            server: ServerId::new(0),
            requested: 5,
            gpus: 4,
        }
    );
    assert_eq!(v.round, 2);
    assert!(
        v.context
            .last()
            .is_some_and(|line| line.contains("\"job\":3")),
        "context ends at the offending grant: {:?}",
        v.context
    );
    assert_eq!(found[0], found[1], "kind, round, message and context");
}
