//! Microbenchmarks of the substrate hot paths: PRNG, event queue,
//! monitor mechanics, interpreter stepping, and the static analysis
//! passes. These guard the constants behind every experiment.

use dmt_bench::ubench::time_case;
use dmt_core::{LockOutcome, SyncCore, ThreadId};
use dmt_lang::ast::{IntExpr, MutexExpr};
use dmt_lang::{compile, MethodIdx, MutexId, ObjectBuilder, ObjectState, RequestArgs, ThreadVm};
use dmt_sim::{EventQueue, SimDuration, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// The pre-calendar substrate: a binary heap with the same
/// `(time, insertion-seq)` FIFO tie-break, inlined here so the calendar
/// queue can be benched against the structure it replaced without the
/// library shipping both.
#[derive(Default)]
struct BinHeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    now: u64,
    seq: u64,
}

impl BinHeapQueue {
    fn push_after(&mut self, d: u64, e: u32) {
        self.heap.push(Reverse((self.now + d, self.seq, e)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        self.heap.pop().map(|Reverse((at, _, e))| {
            self.now = at;
            (at, e)
        })
    }
}

/// Figure-1-shaped delay mix: half the traffic is zero-delay scheduler
/// steps, a quarter is lock-scale microsecond hops, a quarter is
/// millisecond compute completions.
fn fig1_delay(r: &mut SplitMix64) -> u64 {
    match r.next_below(4) {
        0 | 1 => 0,
        2 => 1_000 + r.next_below(5_000),
        _ => 1_000_000 + r.next_below(14_000_000),
    }
}

/// Open-loop-shaped horizon: arrivals are pre-scheduled across a
/// multi-second window (far beyond the calendar window, exercising the
/// overflow heap), each followed by short service steps.
fn openloop_delay(r: &mut SplitMix64) -> u64 {
    2_000_000 + r.next_below(2_000_000_000)
}

fn bench_rng() {
    time_case("splitmix64", "next_u64_x1024", {
        let mut rng = SplitMix64::new(7);
        move || {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= rng.next_u64();
            }
            acc
        }
    });
}

fn bench_event_queue() {
    time_case("event_queue", "push_pop_x1024", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..1024u32 {
            q.push_after(
                SimDuration::from_nanos(((i * 2654435761) % 10_000) as u64 + 1),
                i,
            );
        }
        let mut acc = 0u32;
        while let Some((_, e)) = q.pop() {
            acc ^= e;
        }
        acc
    });

    // Steady-state churn at the Figure-1 horizon: a resident population
    // of 256 events, each pop re-arming one event with the engine's
    // delay mix. Calendar queue vs the binary heap it replaced.
    time_case("event_queue", "calendar_fig1_churn_x4096", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = SplitMix64::new(42);
        for i in 0..256u32 {
            q.push_after(SimDuration::from_nanos(fig1_delay(&mut rng)), i);
        }
        let mut acc = 0u32;
        for _ in 0..4096 {
            let (_, e) = q.pop().expect("resident population");
            acc ^= e;
            q.push_after(SimDuration::from_nanos(fig1_delay(&mut rng)), e);
        }
        acc
    });
    time_case("event_queue", "binheap_fig1_churn_x4096", || {
        let mut q = BinHeapQueue::default();
        let mut rng = SplitMix64::new(42);
        for i in 0..256u32 {
            q.push_after(fig1_delay(&mut rng), i);
        }
        let mut acc = 0u32;
        for _ in 0..4096 {
            let (_, e) = q.pop().expect("resident population");
            acc ^= e;
            q.push_after(fig1_delay(&mut rng), e);
        }
        acc
    });

    // Open-loop horizon: 1024 arrivals pre-scheduled seconds ahead
    // (overflow territory), each spawning two short service steps on
    // delivery.
    time_case("event_queue", "calendar_openloop_x1024", || {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut rng = SplitMix64::new(7);
        for i in 0..1024u32 {
            q.push_after(SimDuration::from_nanos(openloop_delay(&mut rng)), i);
        }
        let mut acc = 0u32;
        let mut followups = 2048u32;
        while let Some((_, e)) = q.pop() {
            acc ^= e;
            if followups > 0 {
                followups -= 1;
                q.push_after(SimDuration::from_nanos(rng.next_below(1_000)), e);
            }
        }
        acc
    });
    time_case("event_queue", "binheap_openloop_x1024", || {
        let mut q = BinHeapQueue::default();
        let mut rng = SplitMix64::new(7);
        for i in 0..1024u32 {
            q.push_after(openloop_delay(&mut rng), i);
        }
        let mut acc = 0u32;
        let mut followups = 2048u32;
        while let Some((_, e)) = q.pop() {
            acc ^= e;
            if followups > 0 {
                followups -= 1;
                q.push_after(rng.next_below(1_000), e);
            }
        }
        acc
    });
}

fn bench_sync_core() {
    time_case("sync_core", "lock_unlock_uncontended_x512", || {
        let mut core = SyncCore::new(true);
        let t = ThreadId::new(0);
        for i in 0..512u32 {
            let m = MutexId::new(i % 64);
            assert_eq!(core.lock(t, m), LockOutcome::Acquired);
            core.unlock(t, m);
        }
        core.is_quiescent()
    });
    time_case("sync_core", "contended_handoff_chain_x512", || {
        let mut core = SyncCore::new(true);
        let m = MutexId::new(0);
        core.lock(ThreadId::new(0), m);
        for i in 1..512u32 {
            core.lock(ThreadId::new(i), m);
        }
        let mut holder = ThreadId::new(0);
        for _ in 0..512 {
            match core.unlock(holder, m) {
                Some(g) => holder = g.tid,
                None => break,
            }
        }
        core.is_quiescent()
    });
}

fn bench_interpreter() {
    let mut ob = ObjectBuilder::new("Hot");
    let cell = ob.cell();
    let mut m = ob.method("hot", 1);
    m.for_loop(dmt_lang::ast::CountExpr::Lit(64), |b| {
        b.sync(MutexExpr::This, |b| {
            b.update(cell, IntExpr::Arg(0));
        });
    });
    m.done();
    let program = compile::compile(&ob.build());
    time_case("interpreter", "loop64_lock_update_unlock", || {
        let mut state = ObjectState::for_object(&program, MutexId::new(9));
        let mut vm = ThreadVm::new(
            program.clone(),
            MethodIdx::new(0),
            RequestArgs::new(&[dmt_lang::Value::Int(1)]),
        );
        dmt_lang::interp::run_to_completion(&mut vm, &mut state).len()
    });
}

fn bench_analysis() {
    let obj = dmt_workload::fig1::build_object(&dmt_workload::fig1::Fig1Params::default());
    time_case("analysis", "transform_fig1_object", || {
        black_box(dmt_analysis::transform(black_box(&obj)))
    });
    time_case("analysis", "lock_table_fig1_object", || {
        black_box(dmt_analysis::build_lock_table(black_box(&obj)))
    });
}

fn main() {
    bench_rng();
    bench_event_queue();
    bench_sync_core();
    bench_interpreter();
    bench_analysis();
}
