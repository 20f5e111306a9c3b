//! # dmt-rt — deterministic scheduling of real OS threads
//!
//! [`DetRuntime`] is the third host of [`ReplicaExec`], beside the
//! logical harness and the virtual-time engine. It runs a `dmt-lang`
//! object with one OS thread per request; threads take turns at
//! observable points (a thread steps its VM only under the runtime lock)
//! and run in parallel elsewhere (compute segments sleep outside it).
//! Under a deterministic scheduler, grant order and state do not depend
//! on the threads' timing.

use dmt_core::exec::{ExecHost, ReplicaExec};
use dmt_core::harness::HarnessResult;
use dmt_core::{CtrlMsg, DenseSet, Scheduler, ThreadId};
use dmt_lang::{CompiledObject, MethodIdx, MutexId, RequestArgs};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

type Exec = ReplicaExec<dyn Scheduler, ()>;

const POISONED: &str = "a thread of the run panicked under the lock";

/// The runtime's legs: which carriers may step, what waits for delivery.
#[derive(Default)]
struct Carriers {
    /// Threads scheduled and not yet stepped by their carrier.
    runnable: DenseSet,
    /// Carriers runnable, stepping or computing; zero = quiescent.
    active: usize,
    /// The compute segment the stepping carrier sleeps next.
    compute: Option<Duration>,
    /// Issued nested calls by `(tid, call_no)`: when each runs out.
    calls: BTreeMap<(ThreadId, u32), Instant>,
    /// `(method, args, dummy)` in delivery order: thread `n` runs `n`.
    log: Vec<(MethodIdx, RequestArgs, bool)>,
    /// Method used for PDS dummy requests (no-op, zero-arg).
    dummy_method: Option<MethodIdx>,
    /// The run is over: parked carriers exit.
    done: bool,
}

impl ExecHost for Carriers {
    type Tag = ();

    fn schedule(&mut self, tid: ThreadId) {
        self.runnable.insert(tid.index());
        self.active += 1;
    }

    fn resumed_inline(&mut self, tid: ThreadId) -> bool {
        // Its carrier is stepping it still.
        self.runnable.remove(tid.index());
        self.active -= 1;
        true
    }

    fn compute(&mut self, tid: ThreadId, dur_ns: u64) -> bool {
        // Still active: the carrier sleeps, then steps it again.
        self.runnable.insert(tid.index());
        self.compute = Some(Duration::from_nanos(dur_ns));
        false
    }

    fn nested(&mut self, tid: ThreadId, call_no: u32, dur_ns: u64) {
        let due = Instant::now() + Duration::from_nanos(dur_ns);
        self.calls.insert((tid, call_no), due);
    }

    fn finished(&mut self, _tid: ThreadId, _tag: ()) {}

    /// One replica: no peers to inform.
    fn broadcast(&mut self, _msg: CtrlMsg) {}

    fn dummy(&mut self) {
        let method = self.dummy_method.expect("dummy requested, no dummy method");
        self.log.push((method, RequestArgs::empty(), true));
    }
}

/// Wakes every waiter when a thread of the run unwinds, so a panic
/// under the lock reaches every other thread through the poisoned lock
/// and [`DetRuntime::run`] fails instead of hanging.
struct WakeOnDrop<'a>(&'a Condvar);

impl Drop for WakeOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// Runs one object replica on real OS threads under one scheduler, with
/// the [`dmt_core::harness::Harness`] API.
pub struct DetRuntime {
    exec: Exec,
    host: Carriers,
}

impl DetRuntime {
    pub fn new(
        program: Arc<CompiledObject>,
        this_mutex: MutexId,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        DetRuntime {
            exec: ReplicaExec::new(scheduler, program, this_mutex, false),
            host: Carriers::default(),
        }
    }

    /// Declares the zero-arg no-op method PDS dummies should run.
    pub fn with_dummy_method(mut self, m: MethodIdx) -> Self {
        self.host.dummy_method = Some(m);
        self
    }

    /// Queues a client request (delivered in submission order).
    pub fn submit(&mut self, method: MethodIdx, args: RequestArgs) {
        self.host.log.push((method, args, false));
    }

    /// Delivers every submitted request at once. Then, whenever no
    /// carrier is runnable, stepping or computing, delivers a requested
    /// dummy, else the reply to the nested call with the lowest
    /// `(tid, call_no)` once its duration has run out. Nothing left to
    /// deliver and threads unfinished is a deadlock.
    pub fn run(self) -> HarnessResult {
        let (shared, changed) = (Mutex::new((self.exec, self.host)), Condvar::new());
        // A carrier: steps `tid` under the lock whenever it is runnable,
        // and sleeps its compute segments outside the lock.
        let carry = |tid: ThreadId| {
            let _wake = WakeOnDrop(&changed);
            let mut g = shared.lock().expect(POISONED);
            while !g.1.done {
                if !g.1.runnable.remove(tid.index()) {
                    g = changed.wait(g).expect(POISONED);
                    continue;
                }
                let (exec, host) = &mut *g;
                exec.step(host, tid);
                let compute = host.compute.take();
                if compute.is_none() {
                    host.active -= 1;
                }
                changed.notify_all();
                if let Some(dur) = compute {
                    drop(g);
                    thread::sleep(dur);
                    g = shared.lock().expect(POISONED);
                }
            }
        };
        thread::scope(|scope| {
            let _wake = WakeOnDrop(&changed);
            // Delivers request `seq` of the log and spawns its carrier.
            let deliver = |(exec, host): &mut (Exec, Carriers), seq: usize| {
                let (method, args, dummy) = host.log[seq].clone();
                exec.arrive(host, seq as u64, method, args, dummy, ());
                let carry = &carry;
                scope.spawn(move || carry(ThreadId::new(seq as u32)));
            };
            let mut g = shared.lock().expect(POISONED);
            let mut delivered = g.1.log.len();
            for seq in 0..delivered {
                deliver(&mut g, seq);
            }
            loop {
                let (exec, host) = &mut *g;
                if host.active > 0 {
                    g = changed.wait(g).expect(POISONED);
                    continue;
                }
                if delivered < host.log.len() {
                    deliver(&mut g, delivered);
                    delivered += 1;
                } else if let Some(((tid, call_no), due)) = host.calls.pop_first() {
                    // Quiescent: no carrier wants the lock meanwhile.
                    thread::sleep(due.saturating_duration_since(Instant::now()));
                    exec.nested_reply(host, tid, call_no);
                } else {
                    break;
                }
                // The delivery may have scheduled parked threads.
                changed.notify_all();
            }
            g.1.done = true;
            changed.notify_all();
        });
        let (exec, host) = shared.into_inner().expect(POISONED);
        HarnessResult {
            deadlocked: exec.finished as usize != host.log.len(),
            dummy_threads: host.log.iter().filter(|r| r.2).count(),
            finished_threads: exec.finished as usize,
            state: exec.state,
            lock_trace: exec.grants,
            request_log: host.log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::{
        make_scheduler, ReplicaId, SchedConfig, SchedEvent, SchedOutput, SchedulerKind, SyncCore,
    };
    use dmt_lang::ast::{CondExpr, CountExpr, IntExpr, MutexExpr, ObjectImpl};
    use dmt_lang::{compile, DurExpr, ObjectBuilder, ServiceId, Value};
    use dmt_sim::SplitMix64;

    const CONCURRENT: [SchedulerKind; 6] = [
        SchedulerKind::Seq,
        SchedulerKind::Sat,
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pds,
        SchedulerKind::Pmat,
    ];

    /// Runs `requests` (by method name) on real threads under `sched`.
    fn run(
        obj: &ObjectImpl,
        sched: Box<dyn Scheduler>,
        requests: &[(&str, Vec<Value>)],
    ) -> HarnessResult {
        let program = compile::compile(obj);
        let noop = program.method_by_name("noop").unwrap();
        let mut rt =
            DetRuntime::new(program.clone(), MutexId::new(0), sched).with_dummy_method(noop);
        for (name, args) in requests {
            let method = program.method_by_name(name).unwrap();
            rt.submit(method, RequestArgs::new(args));
        }
        rt.run()
    }

    fn sched(kind: SchedulerKind) -> Box<dyn Scheduler> {
        make_scheduler(&SchedConfig::new(kind, ReplicaId::new(0)))
    }

    /// `mix(v, d0, d1, d2)`: three times, compute `d_k` ns, then
    /// `cell = 2 * cell + v` under `this` — order-sensitive on purpose.
    fn mixer() -> ObjectImpl {
        let mut ob = ObjectBuilder::new("Mixer");
        let c = ob.cell();
        let mut m = ob.method("mix", 4);
        for k in 1..4 {
            m.compute(DurExpr::Arg(k));
            m.sync(MutexExpr::This, |b| {
                b.update(c, IntExpr::Cell(c));
                b.update(c, IntExpr::Arg(0));
            });
        }
        m.done();
        ob.method("noop", 0).done();
        ob.build()
    }

    /// Four `mix` requests whose compute lengths (0–300 µs) come from
    /// `noise`: the physical timing a deterministic scheduler must ignore.
    fn mix_run(kind: SchedulerKind, noise: u64) -> HarnessResult {
        let mut rng = SplitMix64::new(noise);
        let requests: Vec<_> = (1..5)
            .map(|v| {
                let mut args = vec![Value::Int(v)];
                args.extend((0..3).map(|_| Value::Dur(1_000 * rng.next_below(300))));
                ("mix", args)
            })
            .collect();
        run(&mixer(), sched(kind), &requests)
    }

    #[test]
    fn deterministic_schedulers_ignore_os_jitter() {
        for kind in CONCURRENT {
            let base = mix_run(kind, 1);
            assert!(!base.deadlocked, "{kind}");
            assert_eq!(base.lock_trace.len(), 12, "{kind}");
            for noise in 2..6 {
                let r = mix_run(kind, noise);
                assert_eq!(r.lock_trace, base.lock_trace, "{kind} grant order changed");
                assert_eq!(
                    r.state.state_hash(),
                    base.state.state_hash(),
                    "{kind} state changed under noise"
                );
            }
        }
    }

    #[test]
    fn free_scheduler_is_visibly_nondeterministic() {
        // Not asserted per run (FREE may get lucky); across many noisy
        // runs at least two different grant orders must appear.
        let orders: std::collections::HashSet<_> = (0..12)
            .map(|noise| mix_run(SchedulerKind::Free, noise).lock_trace)
            .collect();
        assert!(
            orders.len() > 1,
            "FREE produced one order across 12 noisy runs — suspicious"
        );
    }

    #[test]
    fn disjoint_mutexes_run_concurrently_under_every_kind() {
        // `bump(k)` locks pool mutex `k` five times and counts in cell `k`.
        let mut ob = ObjectBuilder::new("Disjoint");
        ob.cells(4);
        let mut m = ob.method("bump", 1);
        let pool = MutexExpr::Pool {
            base: 1,
            len: 4,
            index_arg: 0,
        };
        m.for_loop(CountExpr::Lit(5), |b| {
            b.sync(pool, |b| {
                b.update_indexed(0, 4, 0, IntExpr::Lit(1));
            });
        });
        m.done();
        ob.method("noop", 0).done();
        let obj = ob.build();
        let requests: Vec<_> = (0..4).map(|k| ("bump", vec![Value::Int(k)])).collect();
        for kind in SchedulerKind::ALL {
            let res = run(&obj, sched(kind), &requests);
            assert_eq!(res.state.cells()[..4], [5, 5, 5, 5], "{kind}");
            assert_eq!(res.lock_trace.len(), 20, "{kind}");
        }
    }

    /// `take` waits for `count >= 1`; `put` computes 2 ms, then adds one.
    fn buffer() -> ObjectImpl {
        let mut ob = ObjectBuilder::new("Buffer");
        let count = ob.cell();
        let mut take = ob.method("take", 0);
        take.sync_wait_until(MutexExpr::This, CondExpr::CellGe(count, 1), |b| {
            b.add(count, -1);
        });
        take.done();
        let mut put = ob.method("put", 0);
        put.compute_ms(2);
        put.sync(MutexExpr::This, |b| {
            b.add(count, 1);
            b.notify_all(MutexExpr::This);
        });
        put.done();
        ob.method("noop", 0).done();
        ob.build()
    }

    #[test]
    fn condition_variables_handoff_real_threads() {
        let requests = [("take", vec![]), ("put", vec![])];
        for kind in [SchedulerKind::Sat, SchedulerKind::Mat, SchedulerKind::Pmat] {
            let res = run(&buffer(), sched(kind), &requests);
            assert!(!res.deadlocked, "{kind}");
            assert_eq!(res.state.cells()[0], 0, "{kind}");
        }
    }

    #[test]
    fn seq_deadlock_is_reported_not_hung_on() {
        // SEQ admits `put` only after `take` finishes, which never comes.
        let requests = [("take", vec![]), ("put", vec![])];
        let res = run(&buffer(), sched(SchedulerKind::Seq), &requests);
        assert!(res.deadlocked);
        assert_eq!(res.finished_threads, 0);
    }

    /// `call` makes a 5 ms nested call, then sets cell 0 under mutex 1;
    /// `plain` sets cell 1 under mutex 1.
    fn nesting() -> ObjectImpl {
        let mut ob = ObjectBuilder::new("Nesting");
        let c = ob.cells(2);
        let m1 = MutexExpr::Konst(MutexId::new(1));
        let mut call = ob.method("call", 0);
        call.nested(ServiceId::new(0), DurExpr::millis(5));
        call.sync(m1.clone(), |b| {
            b.set_cell(c[0], IntExpr::Lit(1));
        });
        call.done();
        let mut plain = ob.method("plain", 0);
        plain.sync(m1, |b| {
            b.set_cell(c[1], IntExpr::Lit(1));
        });
        plain.done();
        ob.method("noop", 0).done();
        ob.build()
    }

    #[test]
    fn nested_invocations_release_the_schedule() {
        // Under SAT, `call`'s nested call lets `plain` run first.
        let requests = [("call", vec![]), ("plain", vec![])];
        let res = run(&nesting(), sched(SchedulerKind::Sat), &requests);
        assert_eq!(res.state.cells()[..2], [1, 1]);
        let tids: Vec<u32> = res.lock_trace.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(tids, vec![1, 0]);
    }

    /// Panics on the first event `broken` picks, as a scheduler bug would.
    struct Broken(Box<dyn Scheduler>, fn(&SchedEvent) -> bool);

    impl Scheduler for Broken {
        fn kind(&self) -> SchedulerKind {
            self.0.kind()
        }

        fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
            assert!(!(self.1)(ev), "broken scheduler");
            self.0.on_event(ev, out);
        }

        fn sync_core(&self) -> &SyncCore {
            self.0.sync_core()
        }
    }

    #[test]
    fn a_panicking_step_fails_the_run_instead_of_hanging() {
        // A carrier panics on the lock request; the caller's thread
        // panics on the nested reply while every carrier is parked.
        let lock: fn(&SchedEvent) -> bool = |e| matches!(e, SchedEvent::LockRequested { .. });
        let reply: fn(&SchedEvent) -> bool = |e| matches!(e, SchedEvent::NestedCompleted { .. });
        for broken in [lock, reply] {
            let broken = Box::new(Broken(sched(SchedulerKind::Sat), broken));
            let requests = [("call", vec![]), ("plain", vec![])];
            let broken_run = || run(&nesting(), broken, &requests);
            assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(broken_run)).is_err());
        }
    }

    #[test]
    fn seq_runs_threads_strictly_in_order() {
        let requests: Vec<_> = (1..4)
            .map(|v| {
                (
                    "mix",
                    vec![Value::Int(v), Value::Dur(0), Value::Dur(0), Value::Dur(0)],
                )
            })
            .collect();
        let res = run(&mixer(), sched(SchedulerKind::Seq), &requests);
        // Thread 0's three blocks, then thread 1's, then thread 2's:
        // v = 1, 1, 1, 2, 2, 2, 3, 3, 3 folded into cell = 2 * cell + v.
        let want = [1, 1, 1, 2, 2, 2, 3, 3, 3].iter().fold(0, |c, v| 2 * c + v);
        assert_eq!(res.state.cells()[0], want);
        let tids: Vec<u32> = res.lock_trace.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(tids, vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }
}
