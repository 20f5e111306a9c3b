//! Soundness of the static analysis and the code injection, checked over
//! randomly synthesised programs:
//!
//! 1. **Behavioural equivalence** — the transformed program produces the
//!    same state and the same synchronisation trace (modulo the injected
//!    `lockInfo`/`ignore` actions) as the original.
//! 2. **Prediction soundness** — driving the transformed trace through
//!    the bookkeeping module, every actual lock was announced or the
//!    thread was unpredicted (`may_lock` held), and once `no_more_locks`
//!    is reported the thread indeed never locks again (the invariant
//!    MAT-LL's early hand-off rides on).

use dmt::analysis::{build_lock_table, transform};
use dmt::core::bookkeeping::Bookkeeping;
use dmt::core::ThreadId;
use dmt::lang::compile::compile;
use dmt::lang::interp::run_to_completion;
use dmt::lang::{Action, MethodIdx, MutexId, ObjectState, ThreadVm};
use dmt::sim::SplitMix64;
use dmt::workload::synth::{random_args, random_object, SynthConfig};

fn single_thread_trace(
    program: &std::sync::Arc<dmt::lang::CompiledObject>,
    method: MethodIdx,
    args: dmt::lang::RequestArgs,
) -> (Vec<Action>, u64) {
    let mut state = ObjectState::for_object(program, MutexId::new(1_000_000));
    let mut vm = ThreadVm::new(program.clone(), method, args);
    let trace = run_to_completion(&mut vm, &mut state);
    (trace, state.state_hash())
}

fn strip_injections(trace: &[Action]) -> Vec<Action> {
    trace
        .iter()
        .copied()
        .filter(|a| !matches!(a, Action::LockInfo { .. } | Action::Ignore { .. }))
        .collect()
}

#[test]
fn transformed_programs_behave_identically() {
    let cfg = SynthConfig::default();
    for seed in 0..40u64 {
        let obj = random_object(seed, &cfg);
        let plain = compile(&obj);
        let instrumented = compile(&transform(&obj));
        let mut arg_rng = SplitMix64::new(seed ^ 0x5eed);
        for (mi, m) in obj.methods.iter().enumerate() {
            if !m.public || m.name == "noop" {
                continue;
            }
            for _ in 0..3 {
                let args = random_args(&mut arg_rng, &cfg);
                let (t_plain, h_plain) =
                    single_thread_trace(&plain, MethodIdx::new(mi as u32), args.clone());
                let (t_instr, h_instr) =
                    single_thread_trace(&instrumented, MethodIdx::new(mi as u32), args);
                assert_eq!(
                    h_plain, h_instr,
                    "seed {seed} method {} state differs",
                    m.name
                );
                assert_eq!(
                    t_plain,
                    strip_injections(&t_instr),
                    "seed {seed} method {} trace differs",
                    m.name
                );
            }
        }
    }
}

#[test]
fn bookkeeping_prediction_is_sound() {
    let cfg = SynthConfig::default();
    let tid = ThreadId::new(0);
    for seed in 0..40u64 {
        let obj = random_object(seed, &cfg);
        let table = build_lock_table(&obj);
        let instrumented = compile(&transform(&obj));
        let mut arg_rng = SplitMix64::new(seed ^ 0xfeed);
        for (mi, m) in obj.methods.iter().enumerate() {
            if !m.public || m.name == "noop" {
                continue;
            }
            let method = MethodIdx::new(mi as u32);
            for round in 0..3 {
                let args = random_args(&mut arg_rng, &cfg);
                let (trace, _) = single_thread_trace(&instrumented, method, args);
                let mut bk = Bookkeeping::new(table.clone());
                bk.on_request(tid, method);
                let mut done_at: Option<usize> = None;
                for (i, a) in trace.iter().enumerate() {
                    match *a {
                        Action::LockInfo { sync_id, mutex } => {
                            bk.on_lock_info(tid, sync_id, mutex);
                        }
                        Action::Ignore { sync_id } => {
                            bk.on_ignore(tid, sync_id);
                        }
                        Action::Lock { sync_id, mutex } => {
                            assert!(
                                bk.may_lock(tid, mutex),
                                "seed {seed} {}#{round}: lock of {mutex} at step {i} \
                                 not covered by prediction",
                                m.name
                            );
                            assert!(
                                done_at.is_none(),
                                "seed {seed} {}#{round}: lock at {i} after no_more_locks at {:?}",
                                m.name,
                                done_at
                            );
                            bk.on_lock(tid, sync_id, mutex);
                        }
                        Action::Unlock { sync_id, mutex } => {
                            bk.on_unlock(tid, sync_id, mutex);
                            if done_at.is_none() && bk.no_more_locks(tid) {
                                done_at = Some(i);
                            }
                        }
                        _ => {}
                    }
                    if done_at.is_none() && bk.no_more_locks(tid) {
                        done_at = Some(i);
                    }
                }
            }
        }
    }
}

#[test]
fn lock_tables_cover_every_executed_syncid() {
    // Every lock performed at runtime must appear in the start method's
    // static table (otherwise the bookkeeping degrades the thread).
    let cfg = SynthConfig::default();
    for seed in 0..40u64 {
        let obj = random_object(seed, &cfg);
        let table = build_lock_table(&obj);
        let program = compile(&obj);
        let mut arg_rng = SplitMix64::new(seed ^ 0xc0de);
        for (mi, m) in obj.methods.iter().enumerate() {
            if !m.public || m.name == "noop" {
                continue;
            }
            let method = MethodIdx::new(mi as u32);
            let Some(entries) = table.entries(method) else {
                continue; // unanalysable (recursion) — allowed
            };
            let known: std::collections::HashSet<_> = entries.iter().map(|e| e.sync_id).collect();
            let (trace, _) = single_thread_trace(&program, method, random_args(&mut arg_rng, &cfg));
            for a in trace {
                if let Action::Lock { sync_id, .. } = a {
                    assert!(
                        known.contains(&sync_id),
                        "seed {seed} {}: executed {sync_id} missing from table",
                        m.name
                    );
                }
            }
        }
    }
}
