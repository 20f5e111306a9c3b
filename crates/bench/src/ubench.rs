//! Minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds with no network access, so the benches cannot
//! pull in criterion; this module provides the small subset we need:
//! warm-up, adaptive iteration count, and a median-of-batches ns/op
//! report on stdout. Benches stay `harness = false` binaries.

use dmt_lang::compile::{compile, compile_unfused, CompiledObject};
use dmt_lang::{Action, MutexId, ObjectState, StepOutcome, VmPool};
use dmt_workload::fig1::{build_object, client_scripts, Fig1Params};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Target measurement time per case. Short on purpose: benches also run
/// under `cargo test` builds in CI, where we only need them to execute.
const TARGET: Duration = Duration::from_millis(200);
const BATCHES: usize = 7;

/// Times `f` and prints `group/name: <ns> ns/op (<iters> iters)`.
/// Returns the per-iteration nanoseconds (median over batches).
pub fn time_case<R>(group: &str, name: &str, mut f: impl FnMut() -> R) -> f64 {
    // Warm up and calibrate the per-iteration cost.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let per_batch = (TARGET.as_nanos() / BATCHES as u128).max(1);
    let iters = ((per_batch / once.as_nanos().max(1)) as usize).clamp(1, 1_000_000);

    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    println!("{group}/{name}: {median:.0} ns/op ({iters} iters x {BATCHES} batches)");
    median
}

// ---------------------------------------------------------------------
// Interpreter dispatch-style microbench (`ubench interp`)
//
// Isolates the interpreter from the engine: the whole Figure-1 request
// mix of a few clients is run to completion on a bare `ThreadVm` (every
// action granted instantly, no scheduler, no event queue), once per
// dispatch style:
//
//   threaded        — flat threaded-code dispatch, fusion off
//                     (`compile_unfused`);
//   threaded+fused  — the default: threaded dispatch + superinstructions.
//
// The two styles must be observationally identical; the equivalence
// check runs first and its summary line is byte-stable (counts and state
// hash only — no timings), so artifact diffs catch semantic drift while
// the ns/op lines remain free to vary with the host. The interpreter's
// own output is pinned by `tests/harness_golden.rs`.
// ---------------------------------------------------------------------

/// The Figure-1 request mix the microbench replays: every request of
/// every client, in script order.
fn interp_corpus() -> (
    Arc<CompiledObject>,
    Arc<CompiledObject>,
    Vec<(dmt_lang::MethodIdx, dmt_lang::RequestArgs)>,
) {
    let p = Fig1Params::default().with_clients(4).with_seed(11);
    let obj = build_object(&p);
    let fused = compile(&obj);
    let unfused = compile_unfused(&obj);
    let requests = client_scripts(&p)
        .into_iter()
        .flat_map(|s| s.requests)
        .collect();
    (fused, unfused, requests)
}

/// Runs the whole corpus on one persistent state; returns the action
/// trace plus the step/fused meters.
fn run_corpus(
    program: &Arc<CompiledObject>,
    requests: &[(dmt_lang::MethodIdx, dmt_lang::RequestArgs)],
) -> (Vec<Action>, ObjectState, u64, u64) {
    let mut state = ObjectState::for_object(program, MutexId::new(0));
    let mut trace = Vec::new();
    let mut steps = 0;
    let mut fused = 0;
    // Pool the VMs exactly like the engine's per-replica pool does, so
    // the timing measures dispatch, not frame allocation.
    let mut pool = VmPool::new();
    for (method, args) in requests {
        let mut vm = pool.acquire(program.clone(), *method, args);
        loop {
            match vm.step(&mut state) {
                StepOutcome::Action(a) => trace.push(a),
                StepOutcome::Finished => break,
                StepOutcome::Faulted(f) => panic!("corpus faulted: {f:?}"),
            }
        }
        steps += vm.steps();
        fused += vm.fused_steps();
        pool.release(vm);
    }
    (trace, state, steps, fused)
}

/// The byte-stable face of the microbench: asserts the two dispatch
/// styles produce identical action traces, step counts and state hashes,
/// and returns the invariant summary line.
pub fn interp_profile() -> String {
    let (fused_prog, unfused_prog, requests) = interp_corpus();
    let (t_thr, s_thr, steps, _) = run_corpus(&unfused_prog, &requests);
    let (t_fus, s_fus, steps_fused, fused_steps) = run_corpus(&fused_prog, &requests);
    assert_eq!(t_thr, t_fus, "fusion diverged from unfused dispatch");
    assert_eq!(s_thr.state_hash(), s_fus.state_hash());
    assert_eq!(
        steps, steps_fused,
        "dispatch style must not change step count"
    );
    format!(
        "interp/profile: requests={} actions={} steps={} fused_steps={} steps_fused={} state_hash={:#018x}",
        requests.len(),
        t_thr.len(),
        steps,
        fused_steps,
        steps_fused,
        s_thr.state_hash(),
    )
}

/// **interp** — dispatch-style comparison: threaded vs threaded+fused on
/// the Figure-1 request mix. Prints the byte-stable equivalence line
/// first, then ns/op per style.
pub fn interp_bench() {
    println!("{}", interp_profile());
    let (fused_prog, unfused_prog, requests) = interp_corpus();
    time_case("interp", "threaded", || {
        run_corpus(&unfused_prog, &requests).3
    });
    time_case("interp", "threaded+fused", || {
        run_corpus(&fused_prog, &requests).3
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_profile_is_stable_and_styles_agree() {
        // The assertions inside `interp_profile` are the real test; the
        // repeat run checks the summary is deterministic run-to-run.
        let a = interp_profile();
        let b = interp_profile();
        assert_eq!(a, b);
        assert!(a.starts_with("interp/profile: requests="), "{a}");
    }
}
