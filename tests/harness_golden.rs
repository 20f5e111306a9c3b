//! The logical-step harness: golden pins plus behavioural checks.
//!
//! Every pinned run is reduced to one digest over its observable
//! output: the grant order, the delivered request log, the final state
//! hash, the finished and dummy counts, and the full `SchedEvent` stream
//! the scheduler was fed (captured by a wrapping scheduler). The digests
//! are constants, so any change to the harness's step, dispatch or
//! delivery order shows up here — including in the event stream the
//! benchmark's scheduler ledger replays.

use dmt::core::harness::{Harness, HarnessResult};
use dmt::core::{
    make_scheduler, ReplicaId, SchedConfig, SchedEvent, SchedOutput, Scheduler, SchedulerKind,
    SyncCore,
};
use dmt::lang::ast::{CondExpr, IntExpr, MutexExpr};
use dmt::lang::{compile, CompiledObject, MethodIdx, MutexId, ObjectBuilder, RequestArgs, Value};
use dmt::sim::SplitMix64;
use dmt::workload::synth::{random_args, random_object, SynthConfig};
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

#[test]
fn synth_harness_runs_match_golden() {
    let cfg = SynthConfig::default();
    let mut got = [[0u64; 8]; 10];
    for (seed, row) in got.iter_mut().enumerate() {
        let seed = seed as u64;
        let program = compile::compile(&random_object(seed, &cfg));
        let this_mutex = MutexId::new(program.mutex_bound());
        let starts: Vec<_> = program
            .methods
            .iter()
            .enumerate()
            .filter(|(_, m)| m.public && m.name != "noop")
            .map(|(i, _)| MethodIdx::new(i as u32))
            .collect();
        let mut rng = SplitMix64::new(seed ^ 0x1234);
        let requests: Vec<_> = (0..6)
            .map(|_| (*rng.choose(&starts).unwrap(), random_args(&mut rng, &cfg)))
            .collect();
        for (k, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            row[k] = digest(&program, this_mutex, kind, &requests);
        }
    }
    assert_eq!(got, SYNTH, "digests now: {got:#x?}");
}

/// An object and the requests its pinned run submits.
type Workload = (Arc<CompiledObject>, Vec<(MethodIdx, RequestArgs)>);

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
        .map(|i| (inc, RequestArgs::new(vec![Value::Int(i + 1)])))
        .collect();
    (compile::compile(&ob.build()), reqs)
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
    (compile::compile(&ob.build()), reqs)
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
    (
        compile::compile(&ob.build()),
        vec![(work, RequestArgs::empty()); 4],
    )
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
    for (row, (program, reqs)) in got.iter_mut().zip([counter(), buffer(), nester()]) {
        for (k, kind) in SchedulerKind::ALL.into_iter().enumerate() {
            row[k] = digest(&program, MutexId::new(0), kind, &reqs);
        }
    }
    assert_eq!(got, OBJECTS, "digests now: {got:#x?}");
}

fn run_object(object: fn() -> Workload, kind: SchedulerKind, n: usize) -> HarnessResult {
    let (program, reqs) = object();
    run(&program, MutexId::new(0), kind, &reqs[..n]).0
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
