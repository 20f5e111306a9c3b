//! Superinstruction fusion must be observationally invisible: for the
//! same workload, an engine running the fused program (the default) and
//! one running the unfused program must produce identical traces, state
//! hashes, and metrics — on every scheduler, for both the plain and the
//! analysed (bookkeeping-injected) object variants. This is the
//! whole-engine face of the fusion-never-crosses-a-sync-boundary
//! invariant; `dmt_lang::compile` checks the same property statically
//! on every debug-build compile (each method's fused and unfused
//! action-emission profiles must agree), and
//! `pool_reuse_matches_fresh_vm_traces` (dmt-lang) plays the analogous
//! role for VM recycling.

use dmt_analysis::{build_lock_table, transform};
use dmt_core::SchedulerKind;
use dmt_lang::ast::ObjectImpl;
use dmt_lang::compile_unfused;
use dmt_replica::{ClientTable, Engine, EngineConfig, RunResult, Scenario};
use dmt_workload::{fig1, openloop};
use std::sync::Arc;

const ALL_KINDS: [SchedulerKind; 7] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Lsa,
    SchedulerKind::Pds,
    SchedulerKind::Mat,
    SchedulerKind::MatLL,
    SchedulerKind::Pmat,
];

/// Mirror of `dmt_workload::make_variants` with fusion switched off.
fn scenario_unfused(
    obj: &ObjectImpl,
    clients: ClientTable,
    dummy_method: &str,
    kind: SchedulerKind,
) -> Scenario {
    let (program, table) = if kind.uses_prediction() {
        (
            compile_unfused(&transform(obj)),
            Some(build_lock_table(obj)),
        )
    } else {
        (compile_unfused(obj), None)
    };
    let dummy = program.method_by_name(dummy_method);
    let mut s = Scenario::with_shared_clients(program, Arc::new(clients));
    if let Some(t) = table {
        s = s.with_lock_table(t);
    }
    if let Some(d) = dummy {
        s = s.with_dummy_method(d);
    }
    s
}

/// Everything scheduler-visible must agree; only the interpreter's
/// internal meters (`fused_steps`) and host timings may differ.
fn assert_equivalent(kind: SchedulerKind, fused: &RunResult, plain: &RunResult) {
    assert_eq!(fused.traces, plain.traces, "{kind}: traces diverged");
    assert_eq!(
        fused.completed_requests, plain.completed_requests,
        "{kind}: completed requests diverged"
    );
    assert_eq!(fused.makespan, plain.makespan, "{kind}: makespan diverged");
    assert_eq!(
        fused.dummy_requests, plain.dummy_requests,
        "{kind}: dummy requests diverged"
    );
    assert_eq!(
        fused.ctrl_messages, plain.ctrl_messages,
        "{kind}: control traffic diverged"
    );
    assert!(!fused.deadlocked && !plain.deadlocked, "{kind}: deadlock");
    for (name, v) in &fused.metrics.counters {
        if name == "engine.fused_steps" {
            continue;
        }
        assert_eq!(
            plain.metrics.counter(name),
            Some(*v),
            "{kind}: metric `{name}` diverged"
        );
    }
    // The fused run actually exercised superinstructions, and fusion did
    // not change how many scheduler-visible steps the VMs took.
    assert!(
        fused.metrics.counter("engine.fused_steps").unwrap_or(0) > 0,
        "{kind}: fused run executed no superinstructions"
    );
    assert_eq!(
        plain.metrics.counter("engine.fused_steps"),
        Some(0),
        "{kind}: unfused program reported fused steps"
    );
}

#[test]
fn fig1_runs_identically_with_fusion_on_and_off() {
    let p = fig1::Fig1Params::default().with_clients(6).with_seed(42);
    let pair = fig1::scenario(&p);
    let obj = fig1::build_object(&p);
    for kind in ALL_KINDS {
        let cfg = EngineConfig::new(kind).with_seed(9).with_cpu_jitter(0.05);
        let fused = Engine::new(pair.for_kind(kind), cfg.clone()).run();
        let unfused = scenario_unfused(&obj, fig1::client_scripts(&p), "noop", kind);
        let plain = Engine::new(unfused, cfg).run();
        assert_equivalent(kind, &fused, &plain);
    }
}

#[test]
fn openloop_runs_identically_with_fusion_on_and_off() {
    let p = openloop::OpenLoopParams::default()
        .with_offered_rps(400.0)
        .with_seed(5);
    let pair = openloop::scenario(&p);
    let obj = openloop::build_object(&p);
    for kind in ALL_KINDS {
        let cfg = EngineConfig::new(kind).with_seed(17).with_cpu_jitter(0.05);
        let fused = Engine::new(pair.for_kind(kind), cfg.clone()).run();
        let unfused = scenario_unfused(&obj, openloop::client_scripts(&p), "noop", kind);
        let plain = Engine::new(unfused, cfg).run();
        assert_equivalent(kind, &fused, &plain);
    }
}
