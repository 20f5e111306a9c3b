//! Quickstart: define a replicated object, run it on a 3-replica cluster
//! under a deterministic scheduler, and verify the replicas agree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dmt::core::SchedulerKind;
use dmt::lang::ast::{IntExpr, MutexExpr};
use dmt::lang::{compile, DurExpr, ObjectBuilder, RequestArgs, Value};
use dmt::replica::{ClientScript, Engine, EngineConfig, Scenario};

fn main() {
    // 1. Define the replicated object: a counter whose `add` method does
    //    a little computation and then updates state under `this`.
    let mut ob = ObjectBuilder::new("Counter");
    let total = ob.cell();
    let mut m = ob.method("add", 1);
    m.compute(DurExpr::millis(1));
    m.sync(MutexExpr::This, |b| {
        b.update(total, IntExpr::Arg(0));
    });
    let add = m.done();
    let program = compile::compile(&ob.build());

    // 2. Script the clients: three closed-loop clients, four requests
    //    each, with client-chosen arguments (all randomness lives at the
    //    client, as the paper requires).
    let clients = (0..3)
        .map(|c| {
            ClientScript::repeated(
                add,
                (1..=4)
                    .map(|i| RequestArgs::new(vec![Value::Int(c * 100 + i)]))
                    .collect(),
            )
        })
        .collect();
    let scenario = Scenario::new(program, clients);

    // 3. Run the cluster under MAT (multiple active threads, one
    //    lock-granting primary) with per-replica CPU jitter — replicas
    //    run at visibly different speeds, yet stay consistent.
    let cfg = EngineConfig::new(SchedulerKind::Mat)
        .with_seed(42)
        .with_cpu_jitter(0.2);
    let res = Engine::new(scenario, cfg).run();

    println!("completed requests : {}", res.completed_requests);
    println!("mean response time : {:.3} ms", res.response_ms().mean());
    println!("virtual makespan   : {}", res.makespan);
    for (i, tr) in res.traces.iter().enumerate() {
        println!(
            "replica {i}: state hash {:016x}, {} lock grants",
            tr.state_hash,
            tr.lock_order.len()
        );
    }
    assert!(res
        .traces
        .windows(2)
        .all(|w| w[0].state_hash == w[1].state_hash));
    println!("replicas converged ✓");
}
