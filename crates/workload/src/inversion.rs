//! A seeded lock-order inversion: the textbook AB/BA deadlock shape.
//!
//! Two constant monitors A and B; method `fwd` locks A then B, method
//! `rev` locks B then A. Under any *concurrent* scheduler this can
//! deadlock — which is exactly the point: run it under SEQ (which
//! serialises whole requests and therefore always completes), trace it,
//! and let the race-prediction pass in `dmt-analysis` find the A⇄B
//! lock-graph cycle from the serial trace alone. That is the classic
//! predictive-analysis move (PAPERS.md, *Cross-thread critical sections
//! and efficient dynamic race prediction methods*): the witnessed
//! execution is benign, the predicted reordering is not.
//!
//! Clients alternate `fwd`/`rev` by parity, so both orders appear in
//! every run regardless of client count.

use crate::ScenarioPair;
use dmt_lang::ast::{DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{CellId, MethodIdx, MutexId, ObjectBuilder, RequestArgs, Value};
use dmt_replica::ClientScript;

#[derive(Clone, Copy, Debug)]
pub struct InversionParams {
    pub n_clients: usize,
    pub requests_per_client: usize,
    /// Critical-section compute length (inside the outer monitor,
    /// before taking the inner one).
    pub cs_ms: f64,
}

impl Default for InversionParams {
    fn default() -> Self {
        InversionParams {
            n_clients: 4,
            requests_per_client: 3,
            cs_ms: 0.2,
        }
    }
}

/// The two inverted monitors (constant ids, so the lock graph is the
/// two-node A⇄B cycle).
pub const MUTEX_A: MutexId = MutexId::new(0);
pub const MUTEX_B: MutexId = MutexId::new(1);

pub fn build_object(p: &InversionParams) -> ObjectImpl {
    let mut ob = ObjectBuilder::new("Inversion");
    ob.cells(2);
    let cs = || DurExpr::Nanos((p.cs_ms * 1e6) as u64);
    // fwd(x): lock A { compute; lock B { cell0 = 2*cell0 + x } }
    let mut f = ob.method("fwd", 1);
    f.sync(MutexExpr::Konst(MUTEX_A), |b| {
        b.compute(cs());
        b.sync(MutexExpr::Konst(MUTEX_B), |b| {
            b.update(CellId::new(0), IntExpr::Cell(CellId::new(0)));
            b.update(CellId::new(0), IntExpr::Arg(0));
        });
    });
    f.done();
    // rev(x): lock B { compute; lock A { cell1 = 2*cell1 + x } } —
    // the inverted acquisition order.
    let mut r = ob.method("rev", 1);
    r.sync(MutexExpr::Konst(MUTEX_B), |b| {
        b.compute(cs());
        b.sync(MutexExpr::Konst(MUTEX_A), |b| {
            b.update(CellId::new(1), IntExpr::Cell(CellId::new(1)));
            b.update(CellId::new(1), IntExpr::Arg(0));
        });
    });
    r.done();
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

pub fn client_scripts(p: &InversionParams) -> Vec<ClientScript> {
    let fwd = MethodIdx::new(0);
    let rev = MethodIdx::new(1);
    (0..p.n_clients)
        .map(|c| {
            let method = if c % 2 == 0 { fwd } else { rev };
            let requests = (0..p.requests_per_client)
                .map(|i| {
                    (
                        method,
                        RequestArgs::new(&[Value::Int((c * 100 + i) as i64)]),
                    )
                })
                .collect();
            ClientScript::closed(requests)
        })
        .collect()
}

pub fn scenario(p: &InversionParams) -> ScenarioPair {
    crate::make_variants(&build_object(p), client_scripts(p), "noop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{Engine, EngineConfig};

    #[test]
    fn seq_completes_the_inverted_workload() {
        // Serial execution cannot interleave the critical sections, so
        // the inversion is latent, not fatal — the run must finish.
        let p = InversionParams::default();
        let pair = scenario(&p);
        let res = Engine::new(
            pair.for_kind(SchedulerKind::Seq),
            EngineConfig::new(SchedulerKind::Seq).with_seed(5),
        )
        .run();
        assert!(!res.deadlocked);
        assert_eq!(
            res.completed_requests as usize,
            p.n_clients * p.requests_per_client
        );
    }

    #[test]
    fn both_acquisition_orders_appear_in_the_trace() {
        let p = InversionParams::default();
        let pair = scenario(&p);
        let res = Engine::new(
            pair.for_kind(SchedulerKind::Seq),
            EngineConfig::new(SchedulerKind::Seq)
                .with_seed(5)
                .with_tracing(),
        )
        .run();
        let profile = dmt_obs::ContentionProfile::from_records(&res.trace_records, 0);
        let has = |held: MutexId, acquired: MutexId| {
            profile
                .edges
                .iter()
                .any(|e| e.held == held && e.acquired == acquired)
        };
        assert!(
            has(MUTEX_A, MUTEX_B),
            "fwd edge missing: {:?}",
            profile.edges
        );
        assert!(
            has(MUTEX_B, MUTEX_A),
            "rev edge missing: {:?}",
            profile.edges
        );
    }
}
