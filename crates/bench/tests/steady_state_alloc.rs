//! Zero-allocation proof for the pooled substrate: once the event
//! queue's slab and a replica's VM pool are warm, the submit→step→reply
//! structures recycle storage instead of asking the allocator. Asserted
//! with a counting global allocator — stronger than pool-stat counters,
//! because it catches any allocation on the measured path, not just the
//! ones the pools know about.
//!
//! One `#[test]` on purpose: the counter is process-global, and libtest
//! would interleave concurrent tests' allocations into each other's
//! deltas.

use dmt_lang::interp::StepOutcome;
use dmt_lang::{
    ast::IntExpr, ast::MutexExpr, compile, MethodIdx, MutexId, ObjectBuilder, ObjectState,
    RequestArgs, ThreadVm, Value, VmPool,
};
use dmt_sim::{EventQueue, SimDuration, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The engine's delay profile, spanning same-instant steps, in-window
/// hops, and overflow-range completions so the churn touches every
/// queue tier (bucket lists, window advance, pairing heap).
fn delay(r: &mut SplitMix64) -> u64 {
    match r.next_below(4) {
        0 | 1 => 0,
        2 => 1_000 + r.next_below(5_000),
        _ => 1_000_000 + r.next_below(500_000_000),
    }
}

fn churn(q: &mut EventQueue<u32>, rng: &mut SplitMix64, ops: usize) -> u32 {
    let mut acc = 0;
    for _ in 0..ops {
        let (_, e) = q.pop().expect("resident population");
        acc ^= e;
        q.push_after(SimDuration::from_nanos(delay(rng)), e);
    }
    acc
}

#[test]
fn warm_substrate_paths_do_not_allocate() {
    // --- Event queue: slab-backed calendar + pairing heap. ---
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = SplitMix64::new(99);
    for i in 0..256u32 {
        q.push_after(SimDuration::from_nanos(delay(&mut rng)), i);
    }
    // Warm-up grows the slab, bucket lists and heap scratch to their
    // steady-state footprint.
    churn(&mut q, &mut rng, 20_000);
    // Min-of-3 windows here and below for the long measured stretches:
    // the queue's own allocations are deterministic, but the counter is
    // process-global and the libtest harness can allocate from another
    // thread while the suite runs under load — stray counts only ever
    // inflate a delta, so one clean window proves the claim (the same
    // estimator argument as the wall-clock benches).
    let queue_delta = (0..3)
        .map(|_| {
            let before = allocations();
            let acc = churn(&mut q, &mut rng, 20_000);
            std::hint::black_box(acc);
            allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        queue_delta, 0,
        "warm event-queue churn allocated {queue_delta} times"
    );

    // --- VM pool: acquire → run to completion → release cycles. ---
    let mut ob = ObjectBuilder::new("Steady");
    let cell = ob.cell();
    let mut m = ob.method("hot", 1);
    m.for_loop(dmt_lang::ast::CountExpr::Lit(8), |b| {
        b.sync(MutexExpr::This, |b| {
            b.update(cell, IntExpr::Arg(0));
        });
    });
    m.done();
    let program = compile::compile(&ob.build());
    let mut state = ObjectState::for_object(&program, MutexId::new(0));
    let args = RequestArgs::new(&[Value::Int(1)]);
    let mut pool = VmPool::new();

    // The pool hands out boxed VMs (a replica's table holds one pointer
    // per thread id): acquire and release move the box, never the VM.
    let cycle = |pool: &mut VmPool, state: &mut ObjectState| {
        let mut vm: Box<ThreadVm> = pool.acquire(program.clone(), MethodIdx::new(0), &args);
        while !matches!(vm.step(state), StepOutcome::Finished) {}
        pool.release(vm);
    };
    // First cycle allocates the boxed VM and grows its arenas; everything
    // after runs out of the free list.
    cycle(&mut pool, &mut state);
    let before = allocations();
    for _ in 0..100 {
        cycle(&mut pool, &mut state);
    }
    let vm_delta = allocations() - before;
    assert_eq!(
        vm_delta, 0,
        "warm boxed VM acquire/run/release cycle allocated {vm_delta} times"
    );

    // --- Admission ready ring: the engine's batched-admission buffer
    // (`VecDeque<(usize, ThreadId)>`) is pushed and drained once per
    // admitted/resumed thread. Like the queue slab, it must reach its
    // high-water capacity during warm-up and then recycle it — batching
    // must not trade the zero-delay queue event for a fresh allocation.
    let mut ring: std::collections::VecDeque<(usize, dmt_core::ThreadId)> =
        std::collections::VecDeque::new();
    for burst in 0..4usize {
        for t in 0..64u32 {
            ring.push_back((burst % 3, dmt_core::ThreadId::new(t)));
        }
        while ring.pop_front().is_some() {}
    }
    let before = allocations();
    for burst in 0..100usize {
        for t in 0..64u32 {
            ring.push_back((burst % 3, dmt_core::ThreadId::new(t)));
        }
        while ring.pop_front().is_some() {}
    }
    let ring_delta = allocations() - before;
    assert_eq!(
        ring_delta, 0,
        "warm admission-ring churn allocated {ring_delta} times"
    );

    // --- Disabled tracer: the tracing-off record path is one branch
    // and must never allocate — not even on the first call (this is
    // the default engine configuration, so any allocation here taxes
    // every untraced simulation).
    let mut off = dmt_obs::Tracer::disabled();
    let ev = || {
        dmt_obs::TraceEvent::Sched(dmt_core::Decision::Grant {
            tid: dmt_core::ThreadId::new(1),
            mutex: MutexId::new(3),
            from_wait: false,
        })
    };
    let before = allocations();
    for t in 0..10_000u64 {
        off.record(t, 0, ev);
    }
    let off_delta = allocations() - before;
    assert_eq!(
        off_delta, 0,
        "disabled tracer allocated {off_delta} times on the record path"
    );
    assert!(off.records().is_empty());

    // --- Capped buffer: every traced run records into this buffer.
    // Its capacity is preallocated up to the cap, so once full the
    // overflow path only counts drops — it must never allocate.
    let mut capped = dmt_obs::Tracer::buffered(128);
    for t in 0..256u64 {
        capped.record(t, 0, ev); // fill past the cap
    }
    let before = allocations();
    for t in 0..10_000u64 {
        capped.record(t, 0, ev);
    }
    let capped_delta = allocations() - before;
    assert_eq!(
        capped_delta, 0,
        "full trace buffer allocated {capped_delta} times on the overflow path"
    );
    assert_eq!(capped.dropped(), 10_128);
    assert_eq!(capped.records().len(), 128, "buffer keeps exactly its cap");
    assert_eq!(
        pool.allocs(),
        1,
        "pool should have allocated exactly one VM"
    );
    assert_eq!(
        pool.reuses(),
        100,
        "every later cycle must reuse the pooled VM"
    );

    // --- Shard merge scratch: the coordinator's latency merger is
    // pre-sized at run start (`ShardMerger::with_capacity`), so
    // re-merging per-group latency slices — the once-per-run merge the
    // sharded engine performs — must recycle the scratch buffer, not
    // grow it.
    use dmt_replica::{RequestId, RequestLatency, ShardMerger};
    use dmt_sim::SimTime;
    let lat = |client: u32, req_no: u32, enq: u64, rep: u64| RequestLatency {
        id: RequestId { client, req_no },
        enqueued: SimTime::from_nanos(enq),
        replied: SimTime::from_nanos(rep),
    };
    let groups: Vec<Vec<RequestLatency>> = (0..8u32)
        .map(|g| {
            (0..64u32)
                .map(|i| {
                    lat(
                        g * 64 + i,
                        0,
                        (i as u64) * 17 + g as u64,
                        (i as u64) * 17 + g as u64 + 1_000,
                    )
                })
                .collect()
        })
        .collect();
    let total: usize = groups.iter().map(Vec::len).sum();
    let mut merger = ShardMerger::with_capacity(total);
    // Warm once (pre-sizing means even this should not reallocate, but
    // the guard is about steady state).
    let n = merger
        .merge_latencies(groups.iter().map(Vec::as_slice))
        .len();
    assert_eq!(n, total);
    // Min-of-3 windows: the merge loop is this test's longest
    // pure-compute stretch, which makes it the likeliest landing spot
    // for a stray allocation from the test harness's own threads when
    // the suite runs under load. The merger's allocations are
    // deterministic, stray counts only inflate, so a single clean
    // window proves the claim.
    let merge_delta = (0..3)
        .map(|_| {
            let before = allocations();
            for _ in 0..50 {
                let merged = merger.merge_latencies(groups.iter().map(Vec::as_slice));
                std::hint::black_box(merged.len());
            }
            allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        merge_delta, 0,
        "warm shard latency merge allocated {merge_delta} times"
    );

    // --- Queue reset-reuse: per-shard calendar queues are handed back
    // to the coordinator and reset between runs (`EventQueue::reset`);
    // a reset queue must re-run a full schedule out of its existing
    // slab/buckets/heap storage with zero fresh allocations.
    let mut rng2 = SplitMix64::new(7);
    let reset_delta = (0..3)
        .map(|_| {
            let before = allocations();
            for _ in 0..8 {
                q.reset();
                for i in 0..256u32 {
                    q.push_after(SimDuration::from_nanos(delay(&mut rng2)), i);
                }
                let acc = churn(&mut q, &mut rng2, 2_000);
                std::hint::black_box(acc);
                while q.pop().is_some() {}
            }
            allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        reset_delta, 0,
        "reset-reuse queue churn allocated {reset_delta} times"
    );

    // --- Arrival lane reset-reuse: an open-loop run loads its whole
    // arrival schedule into the queue's presorted lane. A queue reset
    // between runs keeps the lane's capacity, so loading, sealing and
    // draining the next run's lane (merged with ordinary events) must
    // not allocate either.
    let lane_run = |q: &mut EventQueue<u32>, rng: &mut SplitMix64| {
        q.reset();
        for i in 0..4_096u32 {
            q.push_lane(dmt_sim::SimTime::from_nanos(rng.next_below(50_000_000)), i);
        }
        q.seal_lane();
        let mut acc = 0;
        while let Some((_, e)) = q.pop() {
            acc ^= e;
            if e < 4_096 {
                q.push_after(SimDuration::from_nanos(delay(rng) % 400_000), e + 4_096);
            }
        }
        acc
    };
    std::hint::black_box(lane_run(&mut q, &mut rng2));
    let lane_delta = (0..3)
        .map(|_| {
            let before = allocations();
            std::hint::black_box(lane_run(&mut q, &mut rng2));
            allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        lane_delta, 0,
        "reset queue draining a second lane allocated {lane_delta} times"
    );

    // --- Fused fast path: the same-instant grant fusion in the step
    // loop replaces a queue push + pop + `process`-drain re-entry with
    // an inline ring pop, so a whole engine run with fusion on must
    // allocate *no more* than the reference run (`without_fastpath`) of
    // the identical scenario — the fast path is a pure storage-reuse
    // shortcut. Compared as full-run deltas rather than a warm inner
    // loop because an `Engine` is built per run; the reference run
    // bounds what the scenario itself allocates.
    let params = dmt_workload::fig1::Fig1Params::default()
        .with_clients(3)
        .with_seed(11);
    let pair = dmt_workload::fig1::scenario(&params);
    let cfg = dmt_replica::EngineConfig::new(dmt_core::SchedulerKind::Seq).with_seed(7);
    let run = |cfg: dmt_replica::EngineConfig| {
        let scenario = pair.for_kind(dmt_core::SchedulerKind::Seq);
        let before = allocations();
        let res = dmt_replica::Engine::new(scenario, cfg).run();
        (allocations() - before, res)
    };
    // Warm once: the first run pays lazy global initialisation (stdio,
    // histogram tables) that belongs to neither path. Then min-of-3 per
    // mode: a run's own allocations are deterministic, but the counter
    // is process-global and the libtest harness can allocate
    // concurrently under a loaded suite — stray counts only ever
    // inflate a delta, so the minimum is the faithful one (same
    // estimator argument as the wall-clock benches).
    run(cfg.clone());
    let measure = |cfg: &dmt_replica::EngineConfig| {
        let (mut allocs, res) = run(cfg.clone());
        for _ in 0..2 {
            allocs = allocs.min(run(cfg.clone()).0);
        }
        (allocs, res)
    };
    let (fused_allocs, fused_res) = measure(&cfg);
    let (reference_allocs, reference_res) = measure(&cfg.clone().without_fastpath());
    assert!(
        fused_res.perf.fused_grants > 0,
        "fused run never took the fast path"
    );
    assert_eq!(reference_res.perf.fused_grants, 0);
    assert!(
        fused_allocs <= reference_allocs,
        "fused fast path allocated {fused_allocs} times, more than the \
         {reference_allocs} of the reference path on the same scenario"
    );

    // --- Shared scenario: every part of a `Scenario` (program, lock
    // table, client table) sits behind an `Arc`, so cloning one — once
    // per kind, job and sweep cell — and picking a kind's variant must
    // bump refcounts and copy no client script.
    let share_delta = (0..3)
        .map(|_| {
            let before = allocations();
            for kind in dmt_core::SchedulerKind::ALL {
                std::hint::black_box(pair.for_kind(kind));
                std::hint::black_box(pair.analysed.clone());
            }
            std::hint::black_box(pair.clone());
            allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        share_delta, 0,
        "cloning a scenario allocated {share_delta} times"
    );
}
