//! A bounded producer/consumer buffer — the condition-variable workload.
//!
//! The paper's motivation for multithreading over sequential execution
//! includes "it enables the object programmer to use condition variables
//! for coordination between multiple invocations" (§1). A `put` blocks
//! while the buffer is full; a `take` blocks while it is empty; both use
//! the canonical `while (!cond) wait()` loop on the object monitor. SEQ
//! deadlocks on this workload by design — the paper's argument made
//! executable.

use crate::ScenarioPair;
use dmt_lang::ast::{CondExpr, DurExpr, MutexExpr, ObjectImpl};
use dmt_lang::{MethodIdx, ObjectBuilder, RequestArgs};
use dmt_replica::ClientTable;

#[derive(Clone, Copy, Debug)]
pub struct BufferParams {
    pub capacity: i64,
    pub n_producers: usize,
    pub n_consumers: usize,
    pub items_per_client: usize,
    pub op_ms: f64,
}

impl Default for BufferParams {
    fn default() -> Self {
        BufferParams {
            capacity: 2,
            n_producers: 3,
            n_consumers: 3,
            items_per_client: 4,
            op_ms: 0.2,
        }
    }
}

/// Cells: 0 = fill level, 1 = produced count, 2 = consumed count.
pub fn build_object(p: &BufferParams) -> ObjectImpl {
    let mut ob = ObjectBuilder::new("BoundedBuffer");
    let cells = ob.cells(3);
    let (fill, produced, consumed) = (cells[0], cells[1], cells[2]);
    let mut put = ob.method("put", 0);
    put.compute(DurExpr::Nanos((p.op_ms * 1e6) as u64));
    put.sync_wait_until(MutexExpr::This, CondExpr::CellLt(fill, p.capacity), |b| {
        b.add(fill, 1);
        b.add(produced, 1);
        b.notify_all(MutexExpr::This);
    });
    put.done();
    let mut take = ob.method("take", 0);
    take.compute(DurExpr::Nanos((p.op_ms * 1e6) as u64));
    take.sync_wait_until(MutexExpr::This, CondExpr::CellGe(fill, 1), |b| {
        b.add(fill, -1);
        b.add(consumed, 1);
        b.notify_all(MutexExpr::This);
    });
    take.done();
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

pub fn client_scripts(p: &BufferParams) -> ClientTable {
    let put = MethodIdx::new(0);
    let take = MethodIdx::new(1);
    let n_clients = p.n_producers + p.n_consumers;
    let mut table = ClientTable::builder(false, n_clients, n_clients * p.items_per_client);
    for c in 0..n_clients {
        let method = if c < p.n_producers { put } else { take };
        table.client((0..p.items_per_client).map(|_| (method, RequestArgs::empty())));
    }
    table.build()
}

pub fn scenario(p: &BufferParams) -> ScenarioPair {
    crate::make_variants(&build_object(p), client_scripts(p), "noop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{check_determinism, Engine, EngineConfig};

    #[test]
    fn balanced_producers_and_consumers_drain_the_buffer() {
        let p = BufferParams::default();
        let pair = scenario(&p);
        for kind in [
            SchedulerKind::Sat,
            SchedulerKind::Lsa,
            SchedulerKind::Mat,
            SchedulerKind::MatLL,
            SchedulerKind::Pmat,
        ] {
            let (res, outcome) = check_determinism(pair.for_kind(kind), kind, 3, 0.2);
            assert!(!res.deadlocked, "{kind}");
            assert!(outcome.converged(), "{kind}: {outcome:?}");
        }
    }

    #[test]
    fn seq_deadlocks_as_the_paper_warns() {
        // A consumer that arrives before any producer blocks forever
        // under SEQ: nothing else ever runs to notify it.
        let p = BufferParams {
            n_producers: 1,
            n_consumers: 1,
            items_per_client: 2,
            ..Default::default()
        };
        let pair = scenario(&p);
        let cfg = EngineConfig::new(SchedulerKind::Seq)
            .with_seed(4)
            // Short cap: the run will stall, don't wait an hour.
            ;
        let mut cfg = cfg;
        cfg.max_time = dmt_sim::SimDuration::from_secs(10);
        let res = Engine::new(pair.plain.clone(), cfg).run();
        assert!(res.deadlocked, "SEQ must deadlock on CV coordination");
    }
}
