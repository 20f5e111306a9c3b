//! Batched admission must be outcome-invisible: the ready-ring drain
//! (default) and the one-queue-event-per-step path
//! (`EngineConfig::without_batching`) must produce identical traces,
//! virtual-time results, and metrics on every scheduler kind. Batching
//! only elides the zero-delay `Ev::Step` push/pop round-trip for
//! threads admitted or resumed when no other event is due at the same
//! instant — the drained entries still count as events
//! (`engine.batched_steps` ⊆ `engine.events`), so even the event totals
//! must agree between the two modes.

use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::{fig1, openloop};

const ALL_KINDS: [SchedulerKind; 7] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Lsa,
    SchedulerKind::Pds,
    SchedulerKind::Mat,
    SchedulerKind::MatLL,
    SchedulerKind::Pmat,
];

fn assert_equivalent(kind: SchedulerKind, batched: &RunResult, unbatched: &RunResult) {
    assert_eq!(batched.traces, unbatched.traces, "{kind}: traces diverged");
    assert_eq!(
        batched.completed_requests, unbatched.completed_requests,
        "{kind}: completed requests diverged"
    );
    assert_eq!(
        batched.makespan, unbatched.makespan,
        "{kind}: makespan diverged"
    );
    assert_eq!(
        batched.dummy_requests, unbatched.dummy_requests,
        "{kind}: dummy requests diverged"
    );
    assert_eq!(
        batched.ctrl_messages, unbatched.ctrl_messages,
        "{kind}: control traffic diverged"
    );
    assert!(
        !batched.deadlocked && !unbatched.deadlocked,
        "{kind}: deadlock"
    );
    for (name, v) in &batched.metrics.counters {
        if name == "engine.batched_steps" {
            continue;
        }
        assert_eq!(
            unbatched.metrics.counter(name),
            Some(*v),
            "{kind}: metric `{name}` diverged"
        );
    }
    // Batching actually happened, and the unbatched engine never used
    // the ring.
    assert!(
        batched.metrics.counter("engine.batched_steps").unwrap_or(0) > 0,
        "{kind}: batched run drained no admissions through the ring"
    );
    assert_eq!(
        unbatched.metrics.counter("engine.batched_steps"),
        Some(0),
        "{kind}: unbatched run used the ready ring"
    );
}

#[test]
fn fig1_outcomes_identical_batched_vs_unbatched() {
    let p = fig1::Fig1Params::default().with_clients(6).with_seed(21);
    let pair = fig1::scenario(&p);
    for kind in ALL_KINDS {
        let cfg = EngineConfig::new(kind).with_seed(13).with_cpu_jitter(0.05);
        let batched = Engine::new(pair.for_kind(kind), cfg.clone()).run();
        let unbatched = Engine::new(pair.for_kind(kind), cfg.without_batching()).run();
        assert_equivalent(kind, &batched, &unbatched);
    }
}

#[test]
fn openloop_outcomes_identical_batched_vs_unbatched() {
    // Open-loop arrivals land whole bursts at one instant — the regime
    // where the same-time admission gate actually has to hold entries
    // back, so the two modes can only agree if the gate is airtight.
    let p = openloop::OpenLoopParams::default()
        .with_offered_rps(500.0)
        .with_seed(3);
    let pair = openloop::scenario(&p);
    for kind in ALL_KINDS {
        let cfg = EngineConfig::new(kind).with_seed(29).with_cpu_jitter(0.05);
        let batched = Engine::new(pair.for_kind(kind), cfg.clone()).run();
        let unbatched = Engine::new(pair.for_kind(kind), cfg.without_batching()).run();
        assert_equivalent(kind, &batched, &unbatched);
    }
}
