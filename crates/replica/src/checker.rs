//! The determinism checker.
//!
//! Replica consistency is what all this machinery buys; the checker
//! verifies it the hard way. A cluster is run with per-replica CPU
//! jitter and per-link network jitter, so each replica's physical
//! timeline differs; then every replica pair is compared at the match
//! level the scheduler guarantees (global lock order for the single-
//! active-thread algorithms, per-mutex order for the concurrent ones).
//! The FREE scheduler is the negative control: with enough contention
//! and jitter it diverges, demonstrating that the check has teeth.

use crate::engine::{Engine, EngineConfig, RunResult};
use crate::msg::Scenario;
use crate::trace::{compare, Divergence, MatchLevel};
use dmt_core::SchedulerKind;

/// Result of a determinism check.
#[derive(Debug)]
pub enum CheckOutcome {
    /// Every live replica pair agreed at the required level.
    Converged,
    /// A pair disagreed (the replication bug deterministic scheduling
    /// prevents — expected for FREE).
    Diverged {
        pair: (usize, usize),
        divergence: Divergence,
    },
    /// The run itself failed (deadlock / cap) — no verdict.
    Stalled,
}

impl CheckOutcome {
    pub fn converged(&self) -> bool {
        matches!(self, CheckOutcome::Converged)
    }
}

/// The comparison granularity a scheduler kind warrants.
///
/// A *global* grant order is only meaningful when at most one thread is
/// ever runnable (SEQ, SAT): then every grant is causally ordered by the
/// single execution chain. Every concurrent algorithm — MAT and MAT-LL
/// included, once suspended monitor holders put several mutexes into
/// hand-off simultaneously — guarantees the per-mutex acquisition orders
/// (plus, therefore, the properly-synchronised state), which is also the
/// exact correctness criterion the original PDS and LSA papers state.
pub fn match_level(kind: SchedulerKind) -> MatchLevel {
    match kind {
        SchedulerKind::Seq | SchedulerKind::Sat => MatchLevel::GlobalOrder,
        _ => MatchLevel::PerMutexOrder,
    }
}

/// Post-fault re-convergence check (DESIGN.md §11's invariant R1/R2).
///
/// After a faulted run, replicas fall into three classes:
///
/// * **survivors** — alive and never recovered: must agree pairwise at
///   the scheduler's full [`match_level`] (same criterion as the
///   fault-free check);
/// * **recovered** — crashed and rejoined via state transfer: their
///   traces legitimately miss the requests executed during the outage,
///   so they owe (and are checked for) *state-hash agreement only*
///   against every other live replica;
/// * **dead** — still down at end of run: excluded (their traces are the
///   pre-crash prefix).
///
/// A deadlocked/capped run yields [`CheckOutcome::Stalled`] — no verdict.
/// Duplicate-delivery with a broken transport is expected to surface here
/// as a `FinishedCount` or `StateHash` divergence: that the checker
/// *flags* it is itself a tested property (see `tests_resilience`).
pub fn check_fault_convergence(res: &RunResult, kind: SchedulerKind) -> CheckOutcome {
    if res.deadlocked {
        return CheckOutcome::Stalled;
    }
    let level = match_level(kind);
    let n = res.traces.len();
    for i in 0..n {
        if !res.alive[i] {
            continue;
        }
        for j in (i + 1)..n {
            if !res.alive[j] {
                continue;
            }
            let hash_only = res.recovered[i] || res.recovered[j];
            let d = if hash_only {
                let (a, b) = (res.traces[i].state_hash, res.traces[j].state_hash);
                (a != b).then_some(Divergence::StateHash { a, b })
            } else {
                compare(&res.traces[i], &res.traces[j], level)
            };
            if let Some(divergence) = d {
                return CheckOutcome::Diverged {
                    pair: (i, j),
                    divergence,
                };
            }
        }
    }
    CheckOutcome::Converged
}

/// Runs `scenario` under `kind` with jitter and checks replica agreement.
pub fn check_determinism(
    scenario: Scenario,
    kind: SchedulerKind,
    seed: u64,
    cpu_jitter: f64,
) -> (RunResult, CheckOutcome) {
    let cfg = EngineConfig::new(kind)
        .with_seed(seed)
        .with_cpu_jitter(cpu_jitter);
    let res = Engine::new(scenario, cfg).run();
    if res.deadlocked {
        return (res, CheckOutcome::Stalled);
    }
    let level = match_level(kind);
    for i in 0..res.traces.len() {
        for j in (i + 1)..res.traces.len() {
            if let Some(d) = compare(&res.traces[i], &res.traces[j], level) {
                let outcome = CheckOutcome::Diverged {
                    pair: (i, j),
                    divergence: d,
                };
                return (res, outcome);
            }
        }
    }
    (res, CheckOutcome::Converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ClientScript;
    use dmt_lang::ast::{IntExpr, MutexExpr};
    use dmt_lang::{compile, DurExpr, ObjectBuilder, RequestArgs, Value};

    /// Contended, order-sensitive workload: threads multiply then add
    /// under one mutex, so different interleavings give different states.
    fn order_sensitive_scenario(n_clients: usize, reqs: usize) -> Scenario {
        let mut ob = ObjectBuilder::new("Sensitive");
        let c = ob.cell();
        let mut m = ob.method("mix", 1);
        m.compute(DurExpr::micros(50));
        m.sync(MutexExpr::This, |b| {
            // state = state * 3 + arg: non-commutative on purpose.
            b.set_cell(c, IntExpr::Cell(c));
            b.update(c, IntExpr::Cell(c)); // state *= 2
            b.update(c, IntExpr::Arg(0));
        });
        let mix = m.done();
        let noop = ob.method("noop", 0);
        let noop_idx = noop.done();
        let program = compile::compile(&ob.build());
        let clients = (0..n_clients)
            .map(|k| {
                ClientScript::repeated(
                    mix,
                    (0..reqs)
                        .map(|i| RequestArgs::new(&[Value::Int((k * 100 + i) as i64 + 1)]))
                        .collect(),
                )
            })
            .collect();
        Scenario::new(program, clients).with_dummy_method(noop_idx)
    }

    #[test]
    fn deterministic_schedulers_converge_under_jitter() {
        for kind in SchedulerKind::DETERMINISTIC {
            let (_, outcome) = check_determinism(order_sensitive_scenario(4, 4), kind, 23, 0.30);
            assert!(outcome.converged(), "{kind}: {outcome:?}");
        }
    }

    #[test]
    fn free_scheduler_diverges_eventually() {
        // The negative control: over several seeds, unconstrained
        // scheduling must produce at least one replica divergence.
        let mut diverged = false;
        for seed in 0..12 {
            let (_, outcome) = check_determinism(
                order_sensitive_scenario(6, 4),
                SchedulerKind::Free,
                seed,
                0.5,
            );
            if matches!(outcome, CheckOutcome::Diverged { .. }) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "FREE never diverged — the checker has no teeth");
    }

    #[test]
    fn convergence_holds_across_seeds() {
        for seed in [1, 7, 99] {
            let (_, outcome) = check_determinism(
                order_sensitive_scenario(3, 3),
                SchedulerKind::Mat,
                seed,
                0.4,
            );
            assert!(outcome.converged(), "seed {seed}: {outcome:?}");
        }
    }
}
