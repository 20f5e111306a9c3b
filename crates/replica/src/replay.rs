//! Deterministic replay for **passive replication** (paper §1).
//!
//! "State modifications not yet propagated to the backup replicas can be
//! applied to them by re-executing method invocations from a request
//! log. Such re-executions are consistent to the state of a failed
//! primary only if a deterministic scheduling strategy is used."
//!
//! A passive primary logs its request stream and its grants: the
//! acquisitions its scheduler decided (no reentrant re-locks), exactly what
//! an LSA leader announces (paper §3.2). So a backup replays the log on
//! LSA's own follower with the log as leader, and reaches the primary's
//! state under every decision module — FREE included, since a recorded
//! execution is a deterministic artefact.

use crate::msg::this_mutex;
use dmt_core::{
    harness::Harness, make_scheduler, CtrlMsg, ReplicaId, SchedConfig, SchedEvent, SchedOutput,
    SchedulerKind, ThreadId,
};
use dmt_lang::{CompiledObject, MethodIdx, MutexId, RequestArgs};
use std::fmt;
use std::sync::Arc;

/// What a passive primary persists.
#[derive(Clone, Debug)]
pub struct PrimaryLog {
    /// Delivered requests in total order (method, args, dummy).
    pub requests: Vec<(MethodIdx, RequestArgs, bool)>,
    /// Grants in primary order (thread, mutex): the acquisitions its
    /// scheduler decided, no reentrant re-locks.
    pub grants: Vec<(ThreadId, MutexId)>,
    /// The state the primary reached.
    pub state_hash: u64,
}

/// A log the backup cannot replay to the end: only `finished` of its
/// `requests` completed, the rest wait for a logged turn that never comes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayStalled {
    pub finished: usize,
    pub requests: usize,
}

impl fmt::Display for ReplayStalled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ReplayStalled { finished, requests } = self;
        write!(f, "replay stalled at {finished}/{requests} requests")
    }
}

/// Runs the primary under `kind` and records its log.
pub fn record_primary(
    program: Arc<CompiledObject>,
    kind: SchedulerKind,
    requests: Vec<(MethodIdx, RequestArgs)>,
    dummy_method: Option<MethodIdx>,
) -> PrimaryLog {
    let cfg = SchedConfig::new(kind, ReplicaId::new(0));
    let this = this_mutex(&program, requests.iter().map(|(_, a)| a));
    let mut h = Harness::new(program, this, make_scheduler(&cfg));
    if let Some(d) = dummy_method {
        h = h.with_dummy_method(d);
    }
    for (m, a) in requests {
        h.submit(m, a);
    }
    let res = h.run();
    assert!(
        !res.deadlocked,
        "primary execution deadlocked; nothing to replay"
    );
    PrimaryLog {
        requests: res.request_log,
        grants: res.lock_trace,
        state_hash: res.state.state_hash(),
    }
}

/// Replays a primary log on a fresh backup and returns the reached state
/// hash (equal to `log.state_hash` iff replay is faithful).
pub fn replay_on_backup(
    program: Arc<CompiledObject>,
    log: &PrimaryLog,
) -> Result<u64, ReplayStalled> {
    // A follower of replica 0, which never runs here: the log announces
    // its grants, numbered per mutex from 0, before the first request.
    let mut sched = make_scheduler(&SchedConfig::new(SchedulerKind::Lsa, ReplicaId::new(1)));
    let (mut next, mut out) = (Vec::new(), SchedOutput::new());
    for &(tid, mutex) in &log.grants {
        let i = mutex.index();
        next.resize(next.len().max(i + 1), 0);
        let order = next[i];
        next[i] += 1;
        let ev = SchedEvent::Control(CtrlMsg::LsaGrant { mutex, tid, order });
        sched.on_event(&ev, &mut out);
    }
    let this = this_mutex(&program, log.requests.iter().map(|(_, a, _)| a));
    let mut h = Harness::new(program, this, sched);
    for (m, a, _dummy) in &log.requests {
        h.submit(*m, a.clone());
    }
    let res = h.run();
    let (finished, requests) = (res.finished_threads, log.requests.len());
    if res.deadlocked {
        Err(ReplayStalled { finished, requests })
    } else {
        Ok(res.state.state_hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::ast::{IntExpr, MutexExpr};
    use dmt_lang::{compile, DurExpr, MethodBuilder, ObjectBuilder, Value};

    /// One order-sensitive method, `mix(arg)`: `state = 2*state + arg`
    /// under `this` — re-entered once more inside itself when `reentrant`
    /// — plus the zero-arg `noop` for PDS dummies.
    fn program(reentrant: bool) -> (Arc<CompiledObject>, MethodIdx, MethodIdx) {
        let mut ob = ObjectBuilder::new("P");
        let c = ob.cell();
        let mut m = ob.method("mix", 1);
        m.compute(DurExpr::micros(10));
        let body = |b: &mut MethodBuilder<'_>| {
            b.update(c, IntExpr::Cell(c)); // state *= 2
            b.update(c, IntExpr::Arg(0)); // state += arg
        };
        m.sync(MutexExpr::This, |b| {
            if reentrant {
                b.sync(MutexExpr::This, body);
            } else {
                body(b);
            }
        });
        let mix = m.done();
        let noop = ob.method("noop", 0);
        let noop_idx = noop.done();
        (compile::compile(&ob.build()), mix, noop_idx)
    }

    fn requests(mix: MethodIdx, n: usize) -> Vec<(MethodIdx, RequestArgs)> {
        (0..n)
            .map(|i| (mix, RequestArgs::new(&[Value::Int(i as i64 + 1)])))
            .collect()
    }

    #[test]
    fn replay_reproduces_primary_state_for_every_scheduler() {
        for reentrant in [false, true] {
            for kind in SchedulerKind::ALL {
                let (program, mix, noop) = program(reentrant);
                let log = record_primary(program.clone(), kind, requests(mix, 8), Some(noop));
                // One decided grant per request: re-entering is no grant.
                assert_eq!(log.grants.len(), 8, "{kind} (reentrant: {reentrant})");
                let replayed = replay_on_backup(program, &log);
                assert_eq!(
                    replayed,
                    Ok(log.state_hash),
                    "{kind} replay diverged (reentrant: {reentrant})"
                );
            }
        }
    }

    #[test]
    fn replay_includes_dummy_positions() {
        // PDS logs include dummies; the backup must recreate the same
        // thread numbering or the grant log would point at wrong threads.
        let (program, mix, noop) = program(false);
        let log = record_primary(
            program.clone(),
            SchedulerKind::Pds,
            requests(mix, 3),
            Some(noop),
        );
        assert!(
            log.requests.iter().any(|&(_, _, d)| d),
            "expected dummies in the log"
        );
        let replayed = replay_on_backup(program, &log);
        assert_eq!(replayed, Ok(log.state_hash));
    }

    #[test]
    fn replay_with_cv_workload() {
        let mut ob = ObjectBuilder::new("Buf");
        let count = ob.cell();
        let mut put = ob.method("put", 0);
        put.sync(MutexExpr::This, |b| {
            b.add(count, 1);
            b.notify_all(MutexExpr::This);
        });
        let put_idx = put.done();
        let mut take = ob.method("take", 0);
        take.sync_wait_until(MutexExpr::This, dmt_lang::CondExpr::CellGe(count, 1), |b| {
            b.add(count, -1);
        });
        let take_idx = take.done();
        let noop = ob.method("noop", 0).done();
        let program = compile::compile(&ob.build());
        let reqs = vec![
            (take_idx, RequestArgs::empty()),
            (put_idx, RequestArgs::empty()),
            (take_idx, RequestArgs::empty()),
            (put_idx, RequestArgs::empty()),
        ];
        // SEQ deadlocks on `wait` by design (paper §3.1).
        for kind in SchedulerKind::ALL {
            if kind == SchedulerKind::Seq {
                continue;
            }
            let log = record_primary(program.clone(), kind, reqs.clone(), Some(noop));
            let replayed = replay_on_backup(program.clone(), &log);
            assert_eq!(replayed, Ok(log.state_hash), "{kind} replay diverged");
        }
    }

    #[test]
    fn tampered_log_is_caught() {
        let (program, mix, _) = program(false);
        let mut log = record_primary(program.clone(), SchedulerKind::Sat, requests(mix, 4), None);
        // Swap two grants on the same mutex: replay must reach a
        // different (order-sensitive) state.
        assert!(log.grants.len() >= 2);
        log.grants.swap(0, 1);
        let replayed = replay_on_backup(program, &log).expect("a reordered log still replays");
        assert_ne!(
            replayed, log.state_hash,
            "tampered order must change the state"
        );
    }

    #[test]
    fn grant_to_a_thread_that_never_runs_stalls_the_replay() {
        let (program, mix, _) = program(false);
        let mut log = record_primary(program.clone(), SchedulerKind::Sat, requests(mix, 4), None);
        // The first turn on the monitor goes to a thread past the request
        // count: every logged thread waits behind it for good.
        let ghost = ThreadId::new(log.requests.len() as u32);
        let mutex = log.grants[0].1;
        log.grants.insert(0, (ghost, mutex));
        assert_eq!(
            replay_on_backup(program, &log),
            Err(ReplayStalled {
                finished: 0,
                requests: 4
            })
        );
    }
}
