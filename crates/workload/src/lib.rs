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
use dmt_replica::{ClientScript, Scenario};

/// Builds the plain and analysed variants of a scenario from an object
/// implementation and client scripts.
pub fn make_variants(
    obj: &ObjectImpl,
    clients: Vec<ClientScript>,
    dummy_method: &str,
) -> ScenarioPair {
    let plain_program = compile(obj);
    let transformed = transform(obj);
    let analysed_program = compile(&transformed);
    let table = build_lock_table(obj);
    let dummy_plain = plain_program.method_by_name(dummy_method);
    let dummy_analysed = analysed_program.method_by_name(dummy_method);
    let mut plain = Scenario::new(plain_program, clients.clone());
    if let Some(d) = dummy_plain {
        plain = plain.with_dummy_method(d);
    }
    let mut analysed = Scenario::new(analysed_program, clients).with_lock_table(table);
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
