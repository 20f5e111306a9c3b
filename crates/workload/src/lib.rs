//! # dmt-workload — workload generators
//!
//! Builds the objects and client scripts behind every experiment in
//! EXPERIMENTS.md:
//!
//! * [`fig1`] — the lock-pattern generator: the paper's §3.5 benchmark
//!   (ten iterations of {maybe-nested-invocation, maybe-local-computation,
//!   lock/update/unlock on one of 100 mutexes}, all random decisions made
//!   by the clients and passed as parameters), plus computation inside
//!   and after the lock, and private per-client mutexes. Figure 2's
//!   last-lock scenario and Figure 3's disjoint-lock scenario are its
//!   named slices [`fig1::Fig1Params::last_lock`] and
//!   [`fig1::Fig1Params::disjoint`];
//! * [`bank`] — a two-lock transfer workload (realistic fine-grained
//!   locking with nested monitors);
//! * [`buffer`] — a bounded producer/consumer buffer exercising
//!   condition variables under every scheduler;
//! * [`inversion`] — a seeded AB/BA lock-order inversion (two constant
//!   monitors acquired in opposite orders by two methods): run under
//!   SEQ it completes benignly; its trace is the positive control for
//!   the race-prediction pass in `dmt-analysis`;
//! * [`openloop`] — the open-loop read/write-mix workload: clients
//!   submit on deterministic Poisson arrival schedules (offered load in
//!   requests per virtual second) instead of waiting for replies, over a
//!   keyed store whose `get`/`put` critical sections differ in length —
//!   the regime where queueing separates LSA's serialised admission
//!   from MAT's concurrent token queue.
//!
//! Every generator returns both the *plain* and the *analysed*
//! (transformed + lock-table) variant of its scenario, so experiments can
//! price the instrumentation (the paper's §5 overhead question).

pub mod bank;
pub mod buffer;
pub mod fig1;
pub mod inversion;
pub mod openloop;
pub mod synth;

use dmt_analysis::{build_lock_table, transform};
use dmt_lang::ast::ObjectImpl;
use dmt_lang::compile::compile;
use dmt_replica::{ClientTable, Scenario};
use std::sync::Arc;

/// Builds the plain and analysed variants of a scenario from an object
/// implementation and its client table. Both variants share the table,
/// so every later clone of either is a refcount bump.
pub fn make_variants(obj: &ObjectImpl, clients: ClientTable, dummy_method: &str) -> ScenarioPair {
    let plain_program = compile(obj);
    let transformed = transform(obj);
    let analysed_program = compile(&transformed);
    let table = build_lock_table(obj);
    let dummy_plain = plain_program.method_by_name(dummy_method);
    let dummy_analysed = analysed_program.method_by_name(dummy_method);
    let clients = Arc::new(clients);
    let mut plain = Scenario::with_shared_clients(plain_program, clients.clone());
    if let Some(d) = dummy_plain {
        plain = plain.with_dummy_method(d);
    }
    let mut analysed =
        Scenario::with_shared_clients(analysed_program, clients).with_lock_table(table);
    if let Some(d) = dummy_analysed {
        analysed = analysed.with_dummy_method(d);
    }
    ScenarioPair { plain, analysed }
}

/// A workload in both instrumentation variants.
#[derive(Clone)]
pub struct ScenarioPair {
    /// Uninstrumented object, unanalysed lock table — what SEQ…MAT ran
    /// in the paper.
    pub plain: Scenario,
    /// Transformed object (lockInfo/ignore injected) + static lock table
    /// — what MAT-LL and PMAT need, and what the overhead ablation runs
    /// under the pessimistic schedulers too.
    pub analysed: Scenario,
}

impl ScenarioPair {
    /// The natural variant for a scheduler kind: analysed for the
    /// prediction-aware schedulers, plain otherwise.
    pub fn for_kind(&self, kind: dmt_core::SchedulerKind) -> Scenario {
        if kind.uses_prediction() {
            self.analysed.clone()
        } else {
            self.plain.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{Engine, EngineConfig, RunResult};

    fn same_table(a: &Scenario, b: &Scenario) -> bool {
        Arc::ptr_eq(&a.clients, &b.clients)
    }

    #[test]
    fn variants_and_kind_copies_share_one_client_table() {
        let pair = fig1::scenario(&fig1::Fig1Params::default().with_clients(4));
        assert!(same_table(&pair.plain, &pair.analysed));
        for kind in SchedulerKind::ALL {
            assert!(same_table(&pair.for_kind(kind), &pair.plain), "{kind}");
        }
        assert!(same_table(&pair.clone().plain, &pair.plain));
    }

    #[test]
    fn each_shard_group_shares_its_own_table() {
        let p = openloop::OpenLoopParams {
            n_clients: 10,
            requests_per_client: 2,
            ..Default::default()
        };
        let groups = openloop::sharded_scenarios(&p, 3);
        for (g, pair) in groups.iter().enumerate() {
            assert!(same_table(&pair.plain, &pair.analysed), "group {g}");
            assert!(same_table(&pair.for_kind(SchedulerKind::Pmat), &pair.plain));
        }
        assert_eq!(
            groups
                .iter()
                .map(|p| p.plain.clients.len())
                .collect::<Vec<_>>(),
            [4, 3, 3]
        );
        // Each group compiles its own program: shard workers must not
        // contend on one refcount when their VM pools admit threads.
        assert!(!Arc::ptr_eq(
            &groups[0].plain.program,
            &groups[1].plain.program
        ));
    }

    /// The per-client views exist for readers that want them; building,
    /// running and merging a workload never asks for them.
    #[test]
    fn runs_leave_the_client_views_unbuilt() {
        let closed = fig1::scenario(&fig1::Fig1Params::default().with_clients(3));
        let open = openloop::OpenLoopParams {
            n_clients: 12,
            requests_per_client: 3,
            ..Default::default()
        };
        let groups = openloop::sharded_scenarios(&open, 3);
        for kind in SchedulerKind::ALL {
            let cfg = EngineConfig::new(kind).with_seed(3).with_tracing();
            let res = Engine::new(closed.for_kind(kind), cfg.clone()).run();
            assert!(!res.deadlocked, "{kind}");
            let scs = groups.iter().map(|g| g.for_kind(kind)).collect();
            let sharded = dmt_replica::run_sharded(scs, &cfg.with_shards(2), None);
            assert_eq!(sharded.completed_requests, 36, "{kind}");
        }
        let tables = groups.iter().chain([&closed]).map(|p| &p.plain.clients);
        for (i, table) in tables.enumerate() {
            assert!(!table.views_built(), "table {i}");
        }
    }

    /// A run's full outcome, host wall-clock aside.
    fn outcome(mut r: RunResult) -> String {
        r.perf.wall_ns = 0;
        format!("{r:?}")
    }

    #[test]
    fn engines_on_two_threads_share_one_scenario() {
        let pair = openloop::scenario(&openloop::OpenLoopParams {
            n_clients: 6,
            requests_per_client: 5,
            ..Default::default()
        });
        let sc = pair.for_kind(SchedulerKind::Pds);
        let cfg = |kind| EngineConfig::new(kind).with_seed(7).with_tracing();
        let run = |kind| outcome(Engine::new(sc.clone(), cfg(kind)).run());
        let serial = [run(SchedulerKind::Pds), run(SchedulerKind::Mat)];
        let parallel = std::thread::scope(|s| {
            let a = s.spawn(|| run(SchedulerKind::Pds));
            let b = s.spawn(|| run(SchedulerKind::Mat));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(serial, parallel);
        assert!(serial[0].contains("completed_requests: 30"));
    }
}
