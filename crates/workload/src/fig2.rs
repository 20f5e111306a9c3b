//! The Figure-2 scenario: last-lock analysis.
//!
//! "Usually, the last unlock is followed by a final computation. In the
//! case of FTflex the thread builds the reply message that is sent back
//! to the client. The final computation has no influence on the
//! determinism of mutex locking. Providing the scheduler with information
//! about when a thread's last lock has been released enables to change
//! the primary even before thread termination (Figure 2(b))."
//!
//! The method locks one pool mutex, updates, unlocks, then performs a
//! long final computation. Under plain MAT the primary keeps the token
//! through that computation; under MAT-LL the token moves at the unlock,
//! so the next thread's lock proceeds in parallel with the reply build.

use crate::ScenarioPair;
use dmt_lang::ast::{DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{MethodIdx, ObjectBuilder, RequestArgs, Value};
use dmt_replica::ClientScript;
use dmt_sim::SplitMix64;

#[derive(Clone, Copy, Debug)]
pub struct Fig2Params {
    /// Critical-section length.
    pub cs_ms: f64,
    /// The final ("reply build") computation after the last unlock.
    pub final_ms: f64,
    /// Pre-lock computation.
    pub pre_ms: f64,
    pub n_mutexes: u32,
    pub n_clients: usize,
    pub requests_per_client: usize,
    pub seed: u64,
}

impl Default for Fig2Params {
    fn default() -> Self {
        Fig2Params {
            cs_ms: 0.5,
            final_ms: 5.0,
            pre_ms: 0.5,
            n_mutexes: 100,
            n_clients: 8,
            requests_per_client: 4,
            seed: 7,
        }
    }
}

pub fn build_object(p: &Fig2Params) -> ObjectImpl {
    let mut ob = ObjectBuilder::new("Fig2LastLock");
    ob.cells(p.n_mutexes);
    let mut m = ob.method("serve", 1);
    m.compute(DurExpr::Nanos((p.pre_ms * 1e6) as u64));
    m.sync(
        MutexExpr::Pool {
            base: 0,
            len: p.n_mutexes,
            index_arg: 0,
        },
        |b| {
            b.compute(DurExpr::Nanos((p.cs_ms * 1e6) as u64));
            b.update_indexed(0, p.n_mutexes, 0, IntExpr::Lit(1));
        },
    );
    // The reply-building computation after the provably last lock.
    m.compute(DurExpr::Nanos((p.final_ms * 1e6) as u64));
    m.done();
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

pub fn client_scripts(p: &Fig2Params) -> Vec<ClientScript> {
    let serve = MethodIdx::new(0);
    let mut rng = SplitMix64::new(p.seed);
    (0..p.n_clients)
        .map(|c| {
            let mut crng = rng.split(c as u64);
            ClientScript::closed(
                (0..p.requests_per_client)
                    .map(|_| {
                        (
                            serve,
                            RequestArgs::new(vec![Value::Int(
                                crng.next_below(p.n_mutexes as u64) as i64
                            )]),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

pub fn scenario(p: &Fig2Params) -> ScenarioPair {
    crate::make_variants(&build_object(p), client_scripts(p), "noop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{Engine, EngineConfig};

    #[test]
    fn mat_ll_beats_mat_when_final_computation_dominates() {
        let p = Fig2Params {
            n_clients: 6,
            requests_per_client: 3,
            ..Fig2Params::default()
        };
        let pair = scenario(&p);
        let run = |kind| {
            let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
            assert!(!res.deadlocked, "{kind:?}");
            res.response_ms().mean()
        };
        let mat = run(SchedulerKind::Mat);
        let mat_ll = run(SchedulerKind::MatLL);
        assert!(
            mat_ll < mat * 0.9,
            "last-lock hand-off should clearly win: MAT {mat:.2}ms vs MAT-LL {mat_ll:.2}ms"
        );
    }

    #[test]
    fn object_is_fully_predictable() {
        let report = dmt_analysis::analyze(&build_object(&Fig2Params::default()));
        assert!(report.methods[0].predictable_at_entry);
    }
}
