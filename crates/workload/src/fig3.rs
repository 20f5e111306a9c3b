//! The Figure-3 scenario: lock prediction over non-conflicting mutexes.
//!
//! "The primary thread requests and releases a lock on mutex x and
//! finishes afterwards. The first secondary thread requests a lock for
//! mutex y, but has to wait until the primary has released x. In an
//! ideal case the scheduler […] would recognise that x is the primary's
//! last lock, that there is no relationship between x and y, and would
//! grant the lock to the secondary."
//!
//! Each client works on its *own* mutex (disjoint lock sets). The lock
//! parameter is a method argument, so the transformation announces it at
//! entry and PMAT can overlap every critical section; MAT and MAT-LL
//! still serialise the grants through the primacy token.

use crate::ScenarioPair;
use dmt_lang::ast::{DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{MethodIdx, ObjectBuilder, RequestArgs, Value};
use dmt_replica::ClientScript;

#[derive(Clone, Copy, Debug)]
pub struct Fig3Params {
    /// Computation before the lock request.
    pub pre_ms: f64,
    /// Critical-section length (the work whose overlap PMAT unlocks).
    pub cs_ms: f64,
    pub n_clients: usize,
    pub requests_per_client: usize,
}

impl Default for Fig3Params {
    fn default() -> Self {
        Fig3Params {
            pre_ms: 0.2,
            cs_ms: 2.0,
            n_clients: 8,
            requests_per_client: 4,
        }
    }
}

pub fn build_object(p: &Fig3Params) -> ObjectImpl {
    let n = p.n_clients.max(1) as u32;
    let mut ob = ObjectBuilder::new("Fig3Disjoint");
    ob.cells(n);
    let mut m = ob.method("serve", 1);
    m.compute(DurExpr::Nanos((p.pre_ms * 1e6) as u64));
    m.sync(
        MutexExpr::Pool {
            base: 0,
            len: n,
            index_arg: 0,
        },
        |b| {
            b.compute(DurExpr::Nanos((p.cs_ms * 1e6) as u64));
            b.update_indexed(0, n, 0, IntExpr::Lit(1));
        },
    );
    m.done();
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

/// Client `k` always uses mutex `k`: perfectly disjoint lock sets.
pub fn client_scripts(p: &Fig3Params) -> Vec<ClientScript> {
    let serve = MethodIdx::new(0);
    (0..p.n_clients)
        .map(|k| {
            ClientScript::closed(
                (0..p.requests_per_client)
                    .map(|_| (serve, RequestArgs::new(vec![Value::Int(k as i64)])))
                    .collect(),
            )
        })
        .collect()
}

pub fn scenario(p: &Fig3Params) -> ScenarioPair {
    crate::make_variants(&build_object(p), client_scripts(p), "noop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{Engine, EngineConfig};

    #[test]
    fn pmat_overlaps_disjoint_critical_sections() {
        let p = Fig3Params::default();
        let pair = scenario(&p);
        let run = |kind| {
            let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
            assert!(!res.deadlocked, "{kind:?}");
            (res.response_ms().mean(), res.makespan)
        };
        let (mat_rt, mat_span) = run(SchedulerKind::Mat);
        let (ll_rt, _) = run(SchedulerKind::MatLL);
        let (pmat_rt, pmat_span) = run(SchedulerKind::Pmat);
        // PMAT must be the clear winner on disjoint lock sets (Figure 3b).
        assert!(
            pmat_rt < ll_rt && pmat_rt < mat_rt * 0.7,
            "PMAT {pmat_rt:.2}ms vs MAT-LL {ll_rt:.2}ms vs MAT {mat_rt:.2}ms"
        );
        assert!(pmat_span < mat_span, "overlap must shorten the makespan");
    }

    #[test]
    fn pmat_converges_on_this_workload() {
        let pair = scenario(&Fig3Params::default());
        let (res, outcome) = dmt_replica::check_determinism(
            pair.for_kind(SchedulerKind::Pmat),
            SchedulerKind::Pmat,
            5,
            0.3,
        );
        assert!(!res.deadlocked);
        assert!(outcome.converged(), "{outcome:?}");
    }
}
