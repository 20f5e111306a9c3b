//! The fused fast path must be observationally invisible: for every
//! scheduler and workload, the default engine (front-slot queue fast
//! path + same-instant grant fusion in the step loop) and the reference
//! engine ([`EngineConfig::without_fastpath`]: every event through the
//! slab calendar queue, every grant through the `process` drain) must
//! produce identical action traces, state hashes, grant streams,
//! latencies, and counters. The only sanctioned differences are host
//! wall-clock and the `fused_grants` meter itself — which this test
//! also pins: the fused run must actually fuse (the fast path cannot
//! silently disable itself) and the reference run must never fuse.
//!
//! Three workload shapes on purpose: fig1 (closed-loop, moderately
//! contended — the sweep `BENCH_engine.json` counts), open-loop
//! (admission-heavy, read-mostly), and the AB/BA inversion (tight
//! nested locking, where the step loop re-enters fusion most often).

use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::{fig1, inversion, openloop};

const ALL_KINDS: [SchedulerKind; 7] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Lsa,
    SchedulerKind::Pds,
    SchedulerKind::Mat,
    SchedulerKind::MatLL,
    SchedulerKind::Pmat,
];

/// Runs `scenario` fused and reference under `kind`, asserts every
/// observable is identical, and returns the fused run's fused-grant
/// count so callers can pin that fusion actually fired.
fn assert_differential(
    kind: SchedulerKind,
    workload: &str,
    pair: &dmt_workload::ScenarioPair,
    cfg: EngineConfig,
) -> u64 {
    let fused = Engine::new(pair.for_kind(kind), cfg.clone()).run();
    let reference = Engine::new(pair.for_kind(kind), cfg.without_fastpath()).run();
    let ctx = format!("{kind}/{workload}");

    // Grant streams + state: per-replica lock order and state hash
    // (ExecutionTrace compares both, plus finished-thread counts).
    assert_eq!(fused.traces, reference.traces, "{ctx}: traces diverged");
    // Client-observable outcomes.
    assert_eq!(
        fused.latencies, reference.latencies,
        "{ctx}: request latencies diverged"
    );
    assert_eq!(
        fused.completed_requests, reference.completed_requests,
        "{ctx}: completed requests diverged"
    );
    assert_eq!(
        fused.makespan, reference.makespan,
        "{ctx}: makespan diverged"
    );
    assert_eq!(
        fused.dummy_requests, reference.dummy_requests,
        "{ctx}: dummy traffic diverged"
    );
    assert_eq!(
        fused.ctrl_messages, reference.ctrl_messages,
        "{ctx}: control traffic diverged"
    );
    // The AB/BA inversion genuinely deadlocks under the concurrent
    // schedulers (that is what the workload seeds); the differential
    // property is that both paths reach the *same* deadlock — same
    // verdict, same stuck threads — not that none occurs.
    assert_eq!(
        fused.deadlocked, reference.deadlocked,
        "{ctx}: deadlock verdict diverged"
    );
    assert_eq!(
        fused.stuck_threads, reference.stuck_threads,
        "{ctx}: stuck threads diverged"
    );
    // Every exported metric.
    for (name, v) in &fused.metrics.counters {
        assert_eq!(
            reference.metrics.counter(name),
            Some(*v),
            "{ctx}: metric `{name}` diverged"
        );
    }
    // The host-cost meters the fusion is defined to preserve: a fused
    // ring step is still one event and one batched step.
    let meters = |r: &RunResult| {
        (
            r.perf.events,
            r.perf.sched_events,
            r.perf.sched_actions,
            r.perf.vm_steps,
            r.perf.batched_steps,
        )
    };
    assert_eq!(
        meters(&fused),
        meters(&reference),
        "{ctx}: perf counters diverged"
    );
    assert_eq!(
        reference.perf.fused_grants, 0,
        "{ctx}: reference path reported fused grants"
    );
    fused.perf.fused_grants
}

#[test]
fn fused_and_reference_paths_are_byte_identical() {
    let fig1_pair = fig1::scenario(&fig1::Fig1Params::default().with_clients(6).with_seed(42));
    let open_pair = openloop::scenario(
        &openloop::OpenLoopParams::default()
            .with_offered_rps(400.0)
            .with_seed(5),
    );
    let inv_pair = inversion::scenario(&inversion::InversionParams::default());

    for kind in ALL_KINDS {
        let cfg = EngineConfig::new(kind).with_seed(9).with_cpu_jitter(0.05);
        let mut fused_grants = 0;
        fused_grants += assert_differential(kind, "fig1", &fig1_pair, cfg.clone());
        fused_grants += assert_differential(kind, "openloop", &open_pair, cfg.clone());
        fused_grants += assert_differential(kind, "inversion", &inv_pair, cfg);
        // The fast path must have fired somewhere in the suite for every
        // scheduler — a fusion that never triggers is a fast path in
        // name only, and this assertion is what distinguishes this test
        // from a trivially-passing copy of the run.
        assert!(
            fused_grants > 0,
            "{kind}: no grant was ever fused across fig1/openloop/inversion"
        );
    }
}
