//! The logical-step harness and the interpreter: golden pins plus
//! behavioural checks.
//!
//! Every pinned harness run is reduced to one digest over its observable
//! output: the grant order, the delivered request log, the final state
//! hash, the finished and dummy counts, and the full `SchedEvent` stream
//! the scheduler was fed (captured by a wrapping scheduler). The digests
//! are constants, so any change to the harness's step, dispatch or
//! delivery order shows up here — including in the event stream the
//! benchmark's scheduler ledger replays.
//!
//! The interpreter pins run the same programs on a bare `ThreadVm`
//! (every action granted at once, no scheduler) and digest every
//! `StepOutcome` with the state it leaves behind; see
//! [`interp_runs_match_golden`].
//!
//! The harness corpus also runs on real threads through `dmt-rt`, the
//! executor's third host: every deterministic kind but LSA must give one
//! match-level grant order and state hash whatever the threads' timing,
//! and the same as the harness wherever both hosts deliver in the same
//! order; see [`real_threads_match_the_harness`].

use dmt::core::harness::{Harness, HarnessResult};
use dmt::core::{
    make_scheduler, ReplicaId, SchedConfig, SchedEvent, SchedOutput, Scheduler, SchedulerKind,
    SyncCore, ThreadId,
};
use dmt::lang::ast::{ArgExpr, CondExpr, CountExpr, DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt::lang::ids::CallSiteId;
use dmt::lang::threaded::OpCode;
use dmt::lang::{
    compile, compile_unfused, CompiledObject, Instr, MethodIdx, MutexId, ObjectBuilder,
    ObjectState, RequestArgs, ServiceId, StepOutcome, Stmt, Value, VmPool,
};
use dmt::replica::checker::match_level;
use dmt::replica::MatchLevel;
use dmt::rt::DetRuntime;
use dmt::sim::SplitMix64;
use dmt::workload::fig1::{self, Fig1Params};
use dmt::workload::synth::{random_args, random_object, SynthConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// A scheduler that records every event it is fed.
struct Capture {
    inner: Box<dyn Scheduler>,
    log: Arc<Mutex<Vec<SchedEvent>>>,
}

impl Scheduler for Capture {
    fn kind(&self) -> SchedulerKind {
        self.inner.kind()
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        self.inner.on_event(ev, out);
        self.log.lock().unwrap().push(ev.clone());
    }

    fn sync_core(&self) -> &SyncCore {
        self.inner.sync_core()
    }
}

/// Chains FNV-1a from `h` over the `Debug` rendering of `item`.
fn fnv(h: u64, item: impl std::fmt::Debug) -> u64 {
    let bytes = format!("{item:?}").into_bytes().into_iter().chain([0xff]);
    bytes.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Runs `requests` through a harness under `kind`, with `noop` as the
/// dummy method; returns the result and the events the scheduler was fed.
fn run(
    program: &Arc<CompiledObject>,
    this_mutex: MutexId,
    kind: SchedulerKind,
    requests: &[(MethodIdx, RequestArgs)],
) -> (HarnessResult, Vec<SchedEvent>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sched = Capture {
        inner: make_scheduler(&SchedConfig::new(kind, ReplicaId::new(0))),
        log: log.clone(),
    };
    let dummy = program.method_by_name("noop").unwrap();
    let mut h = Harness::new(program.clone(), this_mutex, Box::new(sched)).with_dummy_method(dummy);
    for (m, a) in requests {
        h.submit(*m, a.clone());
    }
    let res = h.run();
    let events = std::mem::take(&mut *log.lock().unwrap());
    (res, events)
}

/// One digest over a run's whole observable output.
fn digest(
    program: &Arc<CompiledObject>,
    this_mutex: MutexId,
    kind: SchedulerKind,
    requests: &[(MethodIdx, RequestArgs)],
) -> u64 {
    let (res, events) = run(program, this_mutex, kind, requests);
    let mut d = fnv(0xcbf2_9ce4_8422_2325, &res.lock_trace);
    d = fnv(d, &res.request_log);
    d = fnv(d, res.state.state_hash());
    d = fnv(d, (res.finished_threads, res.dummy_threads, res.deadlocked));
    events.iter().fold(d, fnv)
}

/// Digests of synth seeds 0..10 (rows) under `SchedulerKind::ALL`
/// (columns), six random requests each. A pinned digest also proves the
/// runs replay-stable and deadlock-free.
#[rustfmt::skip]
const SYNTH: [[u64; 8]; 10] = [
    [0xdc3563ac6d1b18ec, 0x3dabbe0123a7c426, 0xdc3563ac6d1b18ec, 0xdc3563ac6d1b18ec,
     0xdfff74b2fc0b04a2, 0xdc3563ac6d1b18ec, 0xdc3563ac6d1b18ec, 0x5038c140062f345a],
    [0xbfd1497363c4d9e6, 0x2a7fcacd0c1398d0, 0xbfd1497363c4d9e6, 0xbfd1497363c4d9e6,
     0x361ba13a9e143a04, 0xbfd1497363c4d9e6, 0xbfd1497363c4d9e6, 0xe12bfff8cbdc518e],
    [0x2398b6cf3f2bd6b9, 0x2398b6cf3f2bd6b9, 0x2398b6cf3f2bd6b9, 0x2398b6cf3f2bd6b9,
     0x1c6621394f02ea43, 0x2398b6cf3f2bd6b9, 0x2398b6cf3f2bd6b9, 0x2398b6cf3f2bd6b9],
    [0xd89f55d2b954dfed, 0x75206c1ca94dbbb7, 0xd89f55d2b954dfed, 0xd89f55d2b954dfed,
     0xc80f5030043d8019, 0xd89f55d2b954dfed, 0xd89f55d2b954dfed, 0x44bad84eec23c2ad],
    [0xd384e2d0d24ddc81, 0x6670cf4832284b11, 0xd384e2d0d24ddc81, 0xd384e2d0d24ddc81,
     0x26da89f279549754, 0xd384e2d0d24ddc81, 0xd384e2d0d24ddc81, 0xbb4fd07eada4b3a7],
    [0x43c7d4a28ba123e1, 0xd41576fd883929ee, 0x43c7d4a28ba123e1, 0x43c7d4a28ba123e1,
     0x91fbd587297df415, 0x43c7d4a28ba123e1, 0x43c7d4a28ba123e1, 0x4bb672eadca34656],
    [0xf1120c99b94415b3, 0x7387552f2973cd87, 0xf1120c99b94415b3, 0xf1120c99b94415b3,
     0x590af1d4285b7c1d, 0xf1120c99b94415b3, 0xf1120c99b94415b3, 0x622452642c3c243d],
    [0xdfe6d6848323d844, 0xdfe6d6848323d844, 0xdfe6d6848323d844, 0xdfe6d6848323d844,
     0x88b5a55fbd97703c, 0xdfe6d6848323d844, 0xdfe6d6848323d844, 0xdfe6d6848323d844],
    [0x72d24ecd10988787, 0x8751aac62110d7ef, 0x72d24ecd10988787, 0x72d24ecd10988787,
     0x9ac073c3fcd27dc5, 0x72d24ecd10988787, 0x72d24ecd10988787, 0xc7022d6388b6aca3],
    [0x9e7fafc9ac66f41a, 0x9e7fafc9ac66f41a, 0x9e7fafc9ac66f41a, 0x9e7fafc9ac66f41a,
     0x3b4f3457ae2bfe06, 0x9e7fafc9ac66f41a, 0x9e7fafc9ac66f41a, 0x9e7fafc9ac66f41a],
];

/// An object and the requests its pinned run submits.
type Workload = (ObjectImpl, Vec<(MethodIdx, RequestArgs)>);

/// Synth seed `seed` with six random requests to its public methods.
fn synth(seed: u64) -> Workload {
    let cfg = SynthConfig::default();
    let obj = random_object(seed, &cfg);
    let starts: Vec<_> = obj
        .methods
        .iter()
        .enumerate()
        .filter(|(_, m)| m.public && m.name != "noop")
        .map(|(i, _)| MethodIdx::new(i as u32))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x1234);
    let requests = (0..6)
        .map(|_| (*rng.choose(&starts).unwrap(), random_args(&mut rng, &cfg)))
        .collect();
    (obj, requests)
}

#[test]
fn synth_harness_runs_match_golden() {
    let mut got = [[0u64; 8]; 10];
    for (seed, row) in got.iter_mut().enumerate() {
        let (obj, requests) = synth(seed as u64);
        let program = compile::compile(&obj);
        let this_mutex = MutexId::new(program.mutex_bound());
        for (k, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            row[k] = digest(&program, this_mutex, kind, &requests);
        }
    }
    assert_eq!(got, SYNTH, "digests now: {got:#x?}");
}

/// Counter: `inc(delta)` adds under `this`.
fn counter() -> Workload {
    let mut ob = ObjectBuilder::new("Counter");
    let c = ob.cell();
    let mut m = ob.method("inc", 1);
    m.sync(MutexExpr::This, |b| {
        b.update(c, IntExpr::Arg(0));
    });
    let inc = m.done();
    ob.method("noop", 0).done();
    let reqs = (0..10)
        .map(|i| (inc, RequestArgs::new(&[Value::Int(i + 1)])))
        .collect();
    (ob.build(), reqs)
}

/// Bounded buffer of capacity 2; a take arrives first and must wait.
fn buffer() -> Workload {
    let mut ob = ObjectBuilder::new("Buffer");
    let count = ob.cell();
    let mut put = ob.method("put", 0);
    put.sync_wait_until(MutexExpr::This, CondExpr::CellLt(count, 2), |b| {
        b.add(count, 1);
        b.notify_all(MutexExpr::This);
    });
    let put = put.done();
    let mut take = ob.method("take", 0);
    take.sync_wait_until(MutexExpr::This, CondExpr::CellGe(count, 1), |b| {
        b.add(count, -1);
        b.notify_all(MutexExpr::This);
    });
    let take = take.done();
    ob.method("noop", 0).done();
    let reqs = vec![
        (take, RequestArgs::empty()),
        (put, RequestArgs::empty()),
        (put, RequestArgs::empty()),
        (take, RequestArgs::empty()),
    ];
    (ob.build(), reqs)
}

/// Nester: compute, one nested call, then a locked update.
fn nester() -> Workload {
    let mut ob = ObjectBuilder::new("Nester");
    let c = ob.cell();
    let mut m = ob.method("work", 0);
    m.compute_ms(1);
    m.nested(dmt::lang::ServiceId::new(0), dmt::lang::DurExpr::millis(12));
    m.sync(MutexExpr::This, |b| {
        b.add(c, 1);
    });
    let work = m.done();
    ob.method("noop", 0).done();
    (ob.build(), vec![(work, RequestArgs::empty()); 4])
}

/// Digests of the counter, buffer and nester objects (rows) under
/// `SchedulerKind::ALL` (columns).
#[rustfmt::skip]
const OBJECTS: [[u64; 8]; 3] = [
    [0x2ec773bdb227e536, 0x2ec773bdb227e536, 0x2ec773bdb227e536, 0x2ec773bdb227e536,
     0xa8f80558459af6b, 0x2ec773bdb227e536, 0x2ec773bdb227e536, 0x2ec773bdb227e536],
    [0x9393e4f9d63009ff, 0xa83043dc758616d6, 0x9393e4f9d63009ff, 0x9393e4f9d63009ff,
     0xdd37bfaaa6ac4ff7, 0x9393e4f9d63009ff, 0x9393e4f9d63009ff, 0x9393e4f9d63009ff],
    [0x7594e66e9c0e66da, 0x7c54e44af487f9d2, 0x7594e66e9c0e66da, 0x7594e66e9c0e66da,
     0x2eea316eed4771c4, 0x7594e66e9c0e66da, 0x7594e66e9c0e66da, 0x7594e66e9c0e66da],
];

#[test]
fn object_harness_runs_match_golden() {
    let mut got = [[0u64; 8]; 3];
    for (row, (obj, reqs)) in got.iter_mut().zip([counter(), buffer(), nester()]) {
        let program = compile::compile(&obj);
        for (k, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            row[k] = digest(&program, MutexId::new(0), kind, &reqs);
        }
    }
    assert_eq!(got, OBJECTS, "digests now: {got:#x?}");
}

fn run_object(object: fn() -> Workload, kind: SchedulerKind, n: usize) -> HarnessResult {
    let (obj, reqs) = object();
    run(&compile::compile(&obj), MutexId::new(0), kind, &reqs[..n]).0
}

#[test]
fn every_scheduler_completes_the_counter_workload() {
    for kind in SchedulerKind::ALL {
        let res = run_object(counter, kind, 10);
        assert!(!res.deadlocked, "{kind} deadlocked");
        assert!(
            res.finished_threads >= 10,
            "{kind} finished {}",
            res.finished_threads
        );
        // Sum 1..=10 regardless of scheduler; every real thread took
        // exactly one lock.
        assert_eq!(res.state.cells()[0], 55, "{kind} corrupted state");
        assert_eq!(res.lock_trace.len(), 10, "{kind}");
    }
}

#[test]
fn seq_and_sat_lock_in_arrival_order() {
    for kind in [SchedulerKind::Seq, SchedulerKind::Sat] {
        let res = run_object(counter, kind, 5);
        let tids: Vec<u32> = res.lock_trace.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(tids, vec![0, 1, 2, 3, 4], "{kind}");
    }
}

#[test]
fn pds_dummy_requests_fill_the_pool() {
    // batch_size 4 with only 2 real requests → dummies must appear.
    let res = run_object(counter, SchedulerKind::Pds, 2);
    assert!(!res.deadlocked);
    assert_eq!(res.state.cells()[0], 3);
    assert!(
        res.dummy_threads >= 2,
        "expected dummies, got {}",
        res.dummy_threads
    );
}

#[test]
fn condition_variables_work_under_concurrent_schedulers() {
    // Take arrives before put: the taker must wait and be woken.
    for kind in [
        SchedulerKind::Sat,
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
        SchedulerKind::Lsa,
        SchedulerKind::Free,
    ] {
        let res = run_object(buffer, kind, 2);
        assert!(!res.deadlocked, "{kind} deadlocked on CV handoff");
        assert_eq!(res.state.cells()[0], 0, "{kind}");
        assert_eq!(res.finished_threads, 2, "{kind}");
    }
}

#[test]
fn seq_deadlocks_on_wait_as_the_paper_warns() {
    let res = run_object(buffer, SchedulerKind::Seq, 2);
    assert!(
        res.deadlocked,
        "SEQ must deadlock: nothing can notify the waiting taker"
    );
}

#[test]
fn nested_invocations_complete_under_all_schedulers() {
    for kind in SchedulerKind::ALL {
        let res = run_object(nester, kind, 4);
        assert!(!res.deadlocked, "{kind}");
        assert_eq!(res.state.cells()[0], 4, "{kind}");
    }
}

/// A scheduler that sleeps a seeded 0–200 µs before one event in four.
/// The real-thread runtime calls it under its lock, so the sleeps shift
/// every carrier's timing: noise a deterministic kind must not see.
struct Jitter {
    inner: Box<dyn Scheduler>,
    rng: SplitMix64,
}

impl Scheduler for Jitter {
    fn kind(&self) -> SchedulerKind {
        self.inner.kind()
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        if self.rng.next_below(4) == 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.rng.next_below(200)));
        }
        self.inner.on_event(ev, out);
    }

    fn sync_core(&self) -> &SyncCore {
        self.inner.sync_core()
    }
}

/// The kinds real threads are held to: every deterministic kind but
/// LSA, which with one replica is its own leader and grants in physical
/// order.
const RT_KINDS: [SchedulerKind; 6] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Mat,
    SchedulerKind::MatLL,
    SchedulerKind::Pds,
    SchedulerKind::Pmat,
];

/// A named, compiled workload of the harness corpus.
type Compiled = (
    String,
    Arc<CompiledObject>,
    MutexId,
    Vec<(MethodIdx, RequestArgs)>,
);

/// The pinned harness corpus: counter, buffer, nester, synth seeds 0..10.
fn harness_corpus() -> Vec<Compiled> {
    let objects = [
        ("counter", counter()),
        ("buffer", buffer()),
        ("nester", nester()),
    ];
    let objects = objects.map(|(name, (obj, reqs))| {
        (
            name.to_string(),
            compile::compile(&obj),
            MutexId::new(0),
            reqs,
        )
    });
    let synths = (0..10).map(|seed| {
        let (obj, reqs) = synth(seed);
        let program = compile::compile(&obj);
        let this_mutex = MutexId::new(program.mutex_bound());
        (format!("synth {seed}"), program, this_mutex, reqs)
    });
    objects.into_iter().chain(synths).collect()
}

/// Runs `requests` on real threads under `kind`, jittered by `noise`.
fn run_rt(
    (_, program, this_mutex, requests): &Compiled,
    kind: SchedulerKind,
    noise: u64,
) -> HarnessResult {
    let sched = Jitter {
        inner: make_scheduler(&SchedConfig::new(kind, ReplicaId::new(0))),
        rng: SplitMix64::new(noise),
    };
    let dummy = program.method_by_name("noop").unwrap();
    let mut rt =
        DetRuntime::new(program.clone(), *this_mutex, Box::new(sched)).with_dummy_method(dummy);
    for (m, a) in requests {
        rt.submit(*m, a.clone());
    }
    rt.run()
}

/// What `kind` guarantees of a run, at the checker's match level: the
/// grant order (global for SEQ and SAT, else per mutex: a stable sort
/// by mutex keeps each mutex's order), the state hash and whether the
/// run deadlocked.
fn guaranteed(res: &HarnessResult, kind: SchedulerKind) -> (Vec<(ThreadId, MutexId)>, u64, bool) {
    let mut order = res.lock_trace.clone();
    if match_level(kind) == MatchLevel::PerMutexOrder {
        order.sort_by_key(|&(_, m)| m);
    }
    (order, res.state.state_hash(), res.deadlocked)
}

#[test]
fn real_threads_ignore_noise_on_the_harness_corpus() {
    // The kinds run side by side: the runs mostly sleep, and the
    // competition for the host's cores is more noise.
    let corpus = harness_corpus();
    std::thread::scope(|s| {
        for kind in RT_KINDS {
            let corpus = &corpus;
            s.spawn(move || {
                for workload in corpus {
                    let base = guaranteed(&run_rt(workload, kind, 0), kind);
                    for noise in 1..3 {
                        let got = guaranteed(&run_rt(workload, kind, noise), kind);
                        assert_eq!(got, base, "{} under {kind}, noise {noise}", workload.0);
                    }
                }
            });
        }
    });
}

/// The (workload, kind) pairs where real threads and the harness grant
/// differently. Both are deterministic; they differ because the harness
/// answers nested calls in issue order and delivers one request per
/// quiescent point, while real threads see every request at once and
/// are answered in `(tid, call_no)` order.
const RT_HARNESS_MISMATCHES: &[(&str, SchedulerKind)] = &[
    ("synth 0", SchedulerKind::Sat),
    ("synth 0", SchedulerKind::Mat),
    ("synth 0", SchedulerKind::MatLL),
    ("synth 0", SchedulerKind::Pds),
    ("synth 1", SchedulerKind::Sat),
    ("synth 1", SchedulerKind::Mat),
    ("synth 1", SchedulerKind::MatLL),
    ("synth 1", SchedulerKind::Pds),
    ("synth 3", SchedulerKind::Sat),
    ("synth 3", SchedulerKind::Mat),
    ("synth 3", SchedulerKind::MatLL),
    ("synth 3", SchedulerKind::Pds),
    ("synth 4", SchedulerKind::Sat),
    ("synth 4", SchedulerKind::Mat),
    ("synth 4", SchedulerKind::MatLL),
    ("synth 4", SchedulerKind::Pds),
    ("synth 5", SchedulerKind::Sat),
    ("synth 5", SchedulerKind::Mat),
    ("synth 5", SchedulerKind::MatLL),
    ("synth 5", SchedulerKind::Pds),
    ("synth 6", SchedulerKind::Sat),
    ("synth 6", SchedulerKind::Mat),
    ("synth 6", SchedulerKind::MatLL),
    ("synth 6", SchedulerKind::Pds),
];

#[test]
fn real_threads_match_the_harness() {
    let mut mismatches = Vec::new();
    for workload in harness_corpus() {
        let (name, program, this_mutex, requests) = &workload;
        for kind in RT_KINDS {
            let (harness, events) = run(program, *this_mutex, kind, requests);
            let nests = (events.iter()).any(|e| matches!(e, SchedEvent::NestedStarted { .. }));
            let rt = run_rt(&workload, kind, 0);
            if guaranteed(&rt, kind) == guaranteed(&harness, kind) {
                continue;
            }
            eprintln!("real threads differ from the harness: {name} under {kind}");
            assert!(
                nests && !matches!(kind, SchedulerKind::Seq | SchedulerKind::Pmat),
                "{name} under {kind} must match the harness"
            );
            mismatches.push((name.clone(), kind));
        }
    }
    let pinned: Vec<_> = (RT_HARNESS_MISMATCHES.iter())
        .map(|&(name, kind)| (name.to_string(), kind))
        .collect();
    assert_eq!(mismatches, pinned);
}

#[test]
fn real_threads_report_the_seq_deadlock() {
    let buffer = harness_corpus().into_iter().nth(1).unwrap();
    let res = run_rt(&buffer, SchedulerKind::Seq, 0);
    assert!(res.deadlocked, "SEQ must deadlock on the waiting taker");
    assert_eq!(res.finished_threads, 0);
}

/// Every operand form of the language in one object: all 19 `Instr`
/// variants, every `MutexExpr`, `IntExpr`, `DurExpr`, `CountExpr`,
/// `CondExpr` and `ArgExpr` variant, all five fused pairs, and two
/// monitors held in one frame. [`interp_corpus_census`] keeps it that
/// way. Arguments and cells are chosen so that selectors wrap: pool and
/// virtual-call indices run from -3 to 5, and the cell that picks the
/// `PoolByCell` monitor grows past its pool's length.
fn every_operand() -> Workload {
    let mut ob = ObjectBuilder::new("EveryOperand");
    let c = ob.cells(8);
    let f = ob.fields(2);
    // helper(k, flag, m, n) and the two virtual candidates share one
    // signature: (int, flag, mutex, mutex).
    let mut h = ob.method("helper", 4).private();
    h.sync(MutexExpr::Arg(2), |b| {
        b.update(c[0], IntExpr::Arg(0));
    });
    h.sync(MutexExpr::Arg(3), |b| {
        b.if_then(CondExpr::ArgFlag(1), |b| {
            b.ret();
        });
        b.compute_ms(1);
    });
    let helper = h.done();
    let mut slow = ob.method("slow", 4).private().non_final();
    slow.compute_ms(2);
    let slow = slow.done();
    let mut store = ob.method("store", 4).private().non_final();
    store.sync(MutexExpr::Arg(2), |b| {
        b.set_cell(c[1], IntExpr::Arg(0));
    });
    let store = store.done();

    let mut m = ob.method("run", 4);
    let l = m.local();
    m.assign(l, MutexExpr::Arg(2));
    m.compute(DurExpr::Arg(3));
    m.if_else(
        CondExpr::ArgFlag(1),
        |b| {
            b.compute_ms(1);
        },
        |b| {
            b.nested(ServiceId::new(0), DurExpr::Arg(3));
        },
    );
    m.if_then(CondExpr::ArgIntLt(0, 2).negate(), |b| {
        b.nested(ServiceId::new(0), DurExpr::millis(12));
    });
    let pool = MutexExpr::Pool {
        base: 0,
        len: 4,
        index_arg: 0,
    };
    m.for_loop(CountExpr::Arg(0), |b| {
        b.sync(pool, |b| {
            b.update_indexed(0, 4, 0, IntExpr::Arg(0));
        });
    });
    m.sync(MutexExpr::Local(l), |b| {
        b.update(c[4], IntExpr::Lit(1));
    });
    m.sync(MutexExpr::This, |b| {
        b.if_then(CondExpr::CellEq(c[5], 0), |b| {
            b.wait(MutexExpr::This);
        });
        b.notify_all(MutexExpr::This);
        // Two monitors held in one frame: each unlock must name its own.
        let konst = MutexExpr::Konst(MutexId::new(10));
        b.sync(konst.clone(), |b| {
            b.notify(konst);
            b.compute(DurExpr::micros(5));
        });
        b.set_cell(c[5], IntExpr::Cell(c[4]));
    });
    m.sync(MutexExpr::Field(f[0]), |b| {
        b.while_loop(CondExpr::CellLt(c[6], 2), |b| {
            b.add(c[6], 1);
        });
    });
    m.sync(
        MutexExpr::PoolByCell {
            base: 20,
            len: 3,
            cell: c[4],
        },
        |b| {
            b.update(c[7], IntExpr::Arg(0));
        },
    );
    m.sync(
        MutexExpr::CallResult {
            site: CallSiteId::new(9),
            resolves_to: f[1],
        },
        |_| {},
    );
    m.if_then(CondExpr::ParamEqField(2, f[0]), |b| {
        let args = vec![
            ArgExpr::Const(Value::Int(3)),
            ArgExpr::CallerArg(1),
            ArgExpr::Local(l),
            ArgExpr::Field(f[1]),
        ];
        b.call(helper, args);
    });
    m.for_loop(CountExpr::Lit(2), |b| {
        let args = (0..3).map(ArgExpr::CallerArg).chain([ArgExpr::Field(f[0])]);
        b.virtual_call(vec![slow, store], IntExpr::Arg(0), args.collect());
    });
    m.if_then(CondExpr::Konst(true), |b| {
        b.compute(DurExpr::micros(1));
    });
    m.if_then(CondExpr::CellGe(c[6], 2), |b| {
        b.ret();
    });
    m.compute_ms(1);
    let run = m.done();
    ob.method("noop", 0).done();
    let mut obj = ob.build();
    // The analysis injects `lockInfo` and `ignore`; place one of each by
    // hand: announce the local's block once the local is assigned, and
    // skip the call-result block.
    let body = &mut obj.methods[run.index()].body;
    let syncs: Vec<_> = (body.iter())
        .filter_map(|s| match s {
            Stmt::Sync { sync_id, .. } => Some(*sync_id),
            _ => None,
        })
        .collect();
    body.insert(
        1,
        Stmt::LockInfo {
            sync_id: syncs[0],
            param: MutexExpr::Local(l),
        },
    );
    body.push(Stmt::IgnoreSync {
        sync_id: *syncs.last().unwrap(),
    });

    let this = MutexId::new(compile::compile(&obj).mutex_bound());
    let reqs = [-3, 0, 1, 2, 3, 4, 5]
        .map(|i: i64| {
            let m = if i % 2 == 0 { this } else { MutexId::new(30) };
            let args = [
                Value::Int(i),
                Value::Bool(i % 3 == 0),
                Value::Mutex(m),
                Value::Dur(1_000 * i.unsigned_abs()),
            ];
            (run, RequestArgs::new(&args))
        })
        .to_vec();
    (obj, reqs)
}

/// The Figure-1 request mix of four clients (seed 11): every request of
/// every client, in script order.
fn fig1_mix() -> Workload {
    let p = Fig1Params::default().with_clients(4).with_seed(11);
    let requests = fig1::client_scripts(&p)
        .into_iter()
        .flat_map(|s| s.requests)
        .collect();
    (fig1::build_object(&p), requests)
}

/// Synth seeds per pinned group.
const SEEDS_PER_GROUP: u64 = 30;

/// The interpreter corpus in pin order, as named groups of workloads:
/// synth seeds 0..300 in groups of [`SEEDS_PER_GROUP`], plain and through
/// `dmt_analysis::transform` (which adds `LockInfo`/`IgnoreSync`), then
/// the three harness objects, the Figure-1 mix and [`every_operand`].
fn interp_corpus() -> Vec<(String, Vec<Workload>)> {
    let mut groups = Vec::new();
    for g in 0..10 {
        let seeds = g * SEEDS_PER_GROUP..(g + 1) * SEEDS_PER_GROUP;
        let plain: Vec<_> = seeds.clone().map(synth).collect();
        let transformed = (plain.iter())
            .map(|(obj, reqs)| (dmt::analysis::transform(obj), reqs.clone()))
            .collect();
        groups.push((format!("synth {seeds:?}"), plain));
        groups.push((format!("synth {seeds:?} transformed"), transformed));
    }
    let objects = [
        ("counter", counter()),
        ("buffer", buffer()),
        ("nester", nester()),
        ("fig1", fig1_mix()),
        ("every_operand", every_operand()),
    ];
    for (name, workload) in objects {
        groups.push((name.to_string(), vec![workload]));
    }
    groups
}

/// Outcomes one request may produce before the run moves on. Every
/// request of the corpus finishes within it (the longest, on synth seed
/// 34, takes 5,351) except `buffer`'s
/// first `take`, which waits for a `put` that a bare VM never runs: the
/// cap turns its endless wait loop into a bounded, deterministic prefix.
const OUTCOME_CAP: usize = 10_000;

/// Runs `requests` in order on one persistent state, each on a pooled VM
/// with every action granted at once, and digests each `StepOutcome`
/// with the state hash it leaves, each VM's `steps()` and the final
/// state hash. A request ends at `Finished`, at a fault (re-stepping
/// would repeat it) or after [`OUTCOME_CAP`] outcomes.
fn interp_digest(program: &Arc<CompiledObject>, requests: &[(MethodIdx, RequestArgs)]) -> u64 {
    let mut state = ObjectState::for_object(program, MutexId::new(program.mutex_bound()));
    let mut pool = VmPool::new();
    let mut d = 0xcbf2_9ce4_8422_2325;
    for (method, args) in requests {
        let mut vm = pool.acquire(program.clone(), *method, args);
        for _ in 0..OUTCOME_CAP {
            let out = vm.step(&mut state);
            d = fnv(d, (out, state.state_hash()));
            if !matches!(out, StepOutcome::Action(_)) {
                break;
            }
        }
        d = fnv(d, vm.steps());
        pool.release(vm);
    }
    fnv(d, state.state_hash())
}

/// Digests of [`interp_corpus`]'s groups, each a chain of its members'
/// [`interp_digest`]s. Taken from the retired per-step `match instr`
/// interpreter (which walked the `Instr` form of `compile_unfused`
/// programs) before it was deleted; the threaded loop must reproduce
/// them fused and unfused.
#[rustfmt::skip]
const INTERP: [u64; 25] = [
    // synth seeds in groups of 30: plain, transformed
    0x1a81f0abd846b2d0, 0xce16a6aba98bf0f9, // 0..30
    0x6012a32db95b4681, 0x90d6cd55e92a193d, // 30..60
    0x9b2860f5d62df2c6, 0xf4c6d011df076b88, // 60..90
    0xdffa3cf309d480e6, 0x23db484fee79eefa, // 90..120
    0xbddab9f5e9a6593e, 0x99fecd3c8554d310, // 120..150
    0xf36d59c744b5778f, 0x2f1a1d690b9ce51d, // 150..180
    0x7bf9e37187c96a37, 0x62ed1d881cd12b35, // 180..210
    0xf2dad999faa26c6b, 0x2493ce2e1935dd32, // 210..240
    0xb80b4ce3a55d9f86, 0x77333d6546c5f76b, // 240..270
    0x9a1dc6f2ceae279c, 0x2740d77617c2b3a1, // 270..300
    // counter, buffer, nester, fig1, every_operand
    0x6b31047d2551512f, 0xbfa6c4bea4a185c5, 0xdebfb4754acb1cb2, 0xad772e9fa6b1a0b8,
    0x0a1af51b0cd7596d,
];

#[test]
fn interp_runs_match_golden() {
    let corpus = interp_corpus();
    for (style, fuse) in [("unfused", false), ("fused", true)] {
        let compile = |obj| match fuse {
            true => compile::compile(obj),
            false => compile_unfused(obj),
        };
        let got: Vec<u64> = (corpus.iter())
            .map(|(_, members)| {
                (members.iter()).fold(0, |d, (obj, reqs)| {
                    fnv(d, interp_digest(&compile(obj), reqs))
                })
            })
            .collect();
        let wrong: Vec<_> = (corpus.iter().zip(got.iter().zip(INTERP)))
            .filter(|(_, (got, want))| *got != want)
            .map(|((name, _), _)| name.as_str())
            .collect();
        assert!(
            wrong.is_empty(),
            "{style}: {wrong:?} differ; digests now: {got:#x?}"
        );
    }
}

/// The variant name of `e`, read off its `Debug` rendering.
fn variant(e: &impl std::fmt::Debug) -> String {
    let name = format!("{e:?}");
    let end = name
        .find(|ch: char| !ch.is_alphanumeric())
        .unwrap_or(name.len());
    name[..end].to_string()
}

/// The operand variants one instruction names, as `Family::Variant`.
fn operand_names(instr: &Instr) -> Vec<String> {
    let int = |e: &IntExpr| format!("IntExpr::{}", variant(e));
    let arg = |e: &ArgExpr| format!("ArgExpr::{}", variant(e));
    match instr {
        Instr::Compute(e) | Instr::Nested { dur: e, .. } => {
            vec![format!("DurExpr::{}", variant(e))]
        }
        Instr::Lock { param, .. }
        | Instr::Wait(param)
        | Instr::Notify { param, .. }
        | Instr::LockInfo { param, .. }
        | Instr::Assign { expr: param, .. } => vec![format!("MutexExpr::{}", variant(param))],
        Instr::Update { delta: e, .. }
        | Instr::UpdateIndexed { delta: e, .. }
        | Instr::SetCell { value: e, .. } => vec![int(e)],
        Instr::BranchIfFalse { cond, .. } => {
            // `Not` wraps another condition: name every layer.
            let (mut out, mut c) = (Vec::new(), cond);
            loop {
                out.push(format!("CondExpr::{}", variant(c)));
                match c {
                    CondExpr::Not(inner) => c = inner,
                    _ => break out,
                }
            }
        }
        Instr::LoopInit { count, .. } => vec![format!("CountExpr::{}", variant(count))],
        Instr::Call { args, .. } => args.iter().map(arg).collect(),
        Instr::CallVirtual { selector, args, .. } => [int(selector)]
            .into_iter()
            .chain(args.iter().map(arg))
            .collect(),
        Instr::Unlock { .. }
        | Instr::IgnoreSync { .. }
        | Instr::Jump(_)
        | Instr::LoopTest { .. }
        | Instr::Ret => vec![],
    }
}

/// The golden's corpus must reach every instruction and operand form the
/// interpreter decodes, so no handler or operand decoder escapes the
/// pin: all 19 `Instr` variants and every operand variant in the
/// unfused compile, all five superinstructions in the fused one, and a
/// frame holding two monitors (so an unlock that names the wrong one
/// shows in the action stream).
#[test]
fn interp_corpus_census() {
    const INSTRS: [&str; 19] = [
        "Compute",
        "Lock",
        "Unlock",
        "Wait",
        "Notify",
        "Nested",
        "Update",
        "UpdateIndexed",
        "SetCell",
        "Assign",
        "LockInfo",
        "IgnoreSync",
        "BranchIfFalse",
        "Jump",
        "LoopInit",
        "LoopTest",
        "Call",
        "CallVirtual",
        "Ret",
    ];
    const OPERANDS: [&str; 27] = [
        "MutexExpr::This",
        "MutexExpr::Konst",
        "MutexExpr::Arg",
        "MutexExpr::Local",
        "MutexExpr::Field",
        "MutexExpr::Pool",
        "MutexExpr::PoolByCell",
        "MutexExpr::CallResult",
        "IntExpr::Lit",
        "IntExpr::Arg",
        "IntExpr::Cell",
        "DurExpr::Nanos",
        "DurExpr::Arg",
        "CountExpr::Lit",
        "CountExpr::Arg",
        "CondExpr::Konst",
        "CondExpr::ArgFlag",
        "CondExpr::ArgIntLt",
        "CondExpr::CellEq",
        "CondExpr::CellLt",
        "CondExpr::CellGe",
        "CondExpr::ParamEqField",
        "CondExpr::Not",
        "ArgExpr::Const",
        "ArgExpr::CallerArg",
        "ArgExpr::Local",
        "ArgExpr::Field",
    ];
    let fused_ops = [
        OpCode::UpdateUnlock,
        OpCode::UpdateIndexedUnlock,
        OpCode::SetCellUnlock,
        OpCode::BrFalseCompute,
        OpCode::BrFalseNested,
    ];
    let (mut instrs, mut operands, mut opcodes) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
    let mut max_held = 0;
    for (_, members) in interp_corpus() {
        for (obj, _) in members {
            for method in &compile_unfused(&obj).methods {
                let mut held = 0i32;
                for instr in &method.code {
                    instrs.insert(variant(instr));
                    operands.extend(operand_names(instr));
                    match instr {
                        Instr::Lock { .. } => held += 1,
                        Instr::Unlock { .. } => held -= 1,
                        _ => {}
                    }
                    max_held = max_held.max(held);
                }
            }
            for op in &compile::compile(&obj).flat.ops {
                if !opcodes.contains(&op.code) {
                    opcodes.push(op.code);
                }
            }
        }
    }
    let want = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<BTreeSet<_>>();
    assert_eq!(
        instrs,
        want(&INSTRS),
        "Instr variants the corpus compiles to"
    );
    assert_eq!(
        operands,
        want(&OPERANDS),
        "operand variants the corpus names"
    );
    let unfused: Vec<_> = fused_ops.iter().filter(|c| !opcodes.contains(c)).collect();
    assert!(
        unfused.is_empty(),
        "superinstructions never fused: {unfused:?}"
    );
    assert!(max_held >= 2, "no frame ever holds two monitors at once");
}
