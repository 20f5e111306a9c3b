//! Observability-layer guarantees (DESIGN.md §9):
//!
//! 1. Tracing is an *observer*: enabling it must not change a single
//!    simulated outcome — grant traces, latencies, makespan, state
//!    hashes are bit-identical with and without it.
//! 2. Decision traces are replica-consistent at each scheduler's match
//!    level: globally for SEQ/SAT, per-mutex grant/announce order for
//!    every concurrent algorithm (the same granularity the determinism
//!    checker enforces on lock traces).
//! 3. The Chrome-trace export is byte-stable (golden file).

use dmt_core::{Decision, SchedulerKind, ThreadId};
use dmt_lang::MutexId;
use dmt_obs::{chrome_trace_json, TraceEvent, TraceRecord};
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::fig1;

fn scenario_pair() -> dmt_workload::ScenarioPair {
    let p = fig1::Fig1Params {
        n_clients: 5,
        requests_per_client: 3,
        n_mutexes: 4,
        ..fig1::Fig1Params::default()
    };
    fig1::scenario(&p)
}

fn run(kind: SchedulerKind, traced: bool) -> RunResult {
    let pair = scenario_pair();
    let mut cfg = EngineConfig::new(kind).with_seed(11).with_cpu_jitter(0.2);
    if traced {
        cfg = cfg.with_tracing().with_depth_sampling();
    }
    Engine::new(pair.for_kind(kind), cfg).run()
}

#[test]
fn tracing_does_not_change_any_simulated_outcome() {
    for kind in SchedulerKind::ALL {
        let plain = run(kind, false);
        let traced = run(kind, true);
        assert_eq!(
            plain.completed_requests, traced.completed_requests,
            "{kind}"
        );
        assert_eq!(plain.makespan, traced.makespan, "{kind}");
        assert_eq!(
            plain.response_ms().mean(),
            traced.response_ms().mean(),
            "{kind}"
        );
        for (a, b) in plain.traces.iter().zip(&traced.traces) {
            assert_eq!(a.state_hash, b.state_hash, "{kind} state diverged");
            assert_eq!(a.lock_order, b.lock_order, "{kind} grant trace diverged");
        }
        // The observer itself: off ⇒ nothing recorded; on ⇒ decisions,
        // GC legs, and depth samples all present.
        assert!(plain.trace_records.is_empty(), "{kind}");
        assert!(plain.metrics.histogram("depth.total").is_none(), "{kind}");
        let has = |f: fn(&TraceEvent) -> bool| traced.trace_records.iter().any(|r| f(&r.ev));
        assert!(
            has(|e| matches!(e, TraceEvent::Sched(_))),
            "{kind} no decisions"
        );
        assert!(
            has(|e| matches!(e, TraceEvent::GcSequenced { .. })),
            "{kind}"
        );
        assert!(
            has(|e| matches!(e, TraceEvent::RequestReplied { .. })),
            "{kind}"
        );
        assert!(has(|e| matches!(e, TraceEvent::Depth(_))), "{kind}");
        assert!(
            traced.metrics.histogram("depth.total").unwrap().count() > 0,
            "{kind}"
        );
    }
}

/// Per-replica decision streams out of a traced run (cluster-level
/// records are skipped).
fn decisions_by_replica(res: &RunResult) -> Vec<Vec<Decision>> {
    let n = res.traces.len();
    let mut per: Vec<Vec<Decision>> = vec![Vec::new(); n];
    for r in &res.trace_records {
        if let TraceEvent::Sched(d) = r.ev {
            if r.replica != TraceRecord::NO_REPLICA {
                per[r.replica as usize].push(d);
            }
        }
    }
    per
}

/// The replica-invariant projection of a concurrent scheduler's
/// decision stream: for each mutex, the order in which threads were
/// *granted*. Defer/Predict decisions are emitted at request time and
/// LSA's Announce only on the leader — both replica-local.
fn per_mutex_grants(stream: &[Decision]) -> Vec<(MutexId, Vec<ThreadId>)> {
    let mut by_mutex: Vec<(MutexId, Vec<ThreadId>)> = Vec::new();
    for d in stream {
        let (m, tid) = match *d {
            Decision::Grant { tid, mutex, .. } => (mutex, tid),
            _ => continue,
        };
        match by_mutex.iter_mut().find(|(mm, _)| *mm == m) {
            Some((_, v)) => v.push(tid),
            None => by_mutex.push((m, vec![tid])),
        }
    }
    by_mutex.sort_by_key(|(m, _)| m.index());
    by_mutex
}

#[test]
fn decision_traces_agree_across_replicas_at_the_match_level() {
    for kind in SchedulerKind::DETERMINISTIC {
        let res = run(kind, true);
        assert!(!res.deadlocked, "{kind}");
        let per = decisions_by_replica(&res);
        assert!(per.iter().all(|p| !p.is_empty()), "{kind} silent replica");
        let global = matches!(kind, SchedulerKind::Seq | SchedulerKind::Sat);
        // Admission decisions fire when requests arrive, which is
        // replica-local timing; the replica-invariant stream is the
        // grants (exactly what the checker compares on lock traces).
        let grants = |stream: &[Decision]| -> Vec<Decision> {
            stream
                .iter()
                .filter(|d| matches!(d, Decision::Grant { .. }))
                .copied()
                .collect()
        };
        for r in 1..per.len() {
            if global {
                // Single-active-thread schedulers: every grant is
                // ordered by the one execution chain — the full grant
                // sequence must match exactly.
                assert_eq!(
                    grants(&per[0]),
                    grants(&per[r]),
                    "{kind} replica {r} global grant stream diverged"
                );
            } else {
                assert_eq!(
                    per_mutex_grants(&per[0]),
                    per_mutex_grants(&per[r]),
                    "{kind} replica {r} per-mutex grant order diverged"
                );
            }
        }
    }
}

#[test]
fn chrome_trace_export_matches_golden() {
    // SEQ on a tiny workload: fully deterministic decision stream, so
    // the export is pinned byte-for-byte. Regenerate with
    // `BLESS=1 cargo test -p dmt-bench chrome_trace_export`.
    let p = fig1::Fig1Params {
        n_clients: 2,
        requests_per_client: 2,
        n_mutexes: 2,
        ..fig1::Fig1Params::default()
    };
    let pair = fig1::scenario(&p);
    let cfg = EngineConfig::new(SchedulerKind::Seq)
        .with_seed(11)
        .with_tracing()
        .with_depth_sampling();
    let res = Engine::new(pair.for_kind(SchedulerKind::Seq), cfg).run();
    assert!(!res.deadlocked);
    let got = chrome_trace_json(&res.trace_records);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_seq_fig1.json"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(got, want, "Chrome trace drifted from the golden file");
}
