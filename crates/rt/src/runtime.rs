//! The real-thread deterministic runtime.

use dmt_core::{
    make_scheduler, ReplicaId, SchedAction, SchedConfig, SchedEvent, SchedOutput, Scheduler,
    SchedulerKind, ThreadId,
};
use dmt_lang::{MethodIdx, MutexId, SyncId};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A per-thread parking spot: `true` = permitted to proceed.
struct Permit {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Permit {
    fn new() -> Self {
        Permit {
            flag: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn give(&self) {
        let mut f = self.flag.lock().unwrap();
        *f = true;
        self.cv.notify_one();
    }

    fn take(&self) {
        let mut f = self.flag.lock().unwrap();
        while !*f {
            f = self.cv.wait(f).unwrap();
        }
        *f = false;
    }
}

struct RtState {
    sched: Box<dyn Scheduler>,
    grant_log: Vec<(ThreadId, MutexId)>,
    /// Last blocking kind per thread, to label grants like the engine.
    blocked_on: dmt_core::SlotMap<MutexId>,
    /// Reused action bundle: one warm dispatch allocates nothing.
    scratch: SchedOutput,
}

struct Inner {
    state: Mutex<RtState>,
    permits: Vec<Arc<Permit>>,
    /// Replicated state stand-in: cells the bodies mutate while holding
    /// the matching deterministic monitor. Atomics keep the accesses
    /// race-free at the language level; the *ordering* discipline comes
    /// from the scheduler.
    cells: Vec<AtomicI64>,
}

impl Inner {
    fn lock_state(&self) -> MutexGuard<'_, RtState> {
        self.state.lock().unwrap()
    }

    /// Feeds one event and applies the resulting actions (permits).
    fn dispatch(&self, ev: SchedEvent) {
        let mut st = self.lock_state();
        let mut out = std::mem::take(&mut st.scratch);
        out.clear();
        st.sched.on_event(&ev, &mut out);
        for a in out.actions.drain(..) {
            match a {
                SchedAction::Admit(tid) | SchedAction::Resume(tid) => {
                    if let Some(m) = st.blocked_on.remove(tid.index()) {
                        st.grant_log.push((tid, m));
                    }
                    self.permits[tid.index()].give();
                }
                SchedAction::Broadcast(_) => {
                    // Single-process runtime: no peers to inform.
                }
                SchedAction::RequestDummy => {
                    // No group communication here; the runtime is sized so
                    // PDS pools fill from real threads (callers pass
                    // batch_size <= n_threads).
                }
            }
        }
        st.scratch = out;
    }

    fn mark_blocked(&self, tid: ThreadId, m: MutexId) {
        self.lock_state().blocked_on.insert(tid.index(), m);
    }
}

/// What one deterministic run produced.
#[derive(Debug)]
pub struct RtReport {
    /// Monitor grants in the order the scheduler issued them.
    pub grant_log: Vec<(ThreadId, MutexId)>,
    /// Final cell values.
    pub cells: Vec<i64>,
}

/// The handle a thread body uses for all synchronisation.
pub struct DetHandle<'a> {
    inner: &'a Inner,
    tid: ThreadId,
    /// Sequential per-thread syncid source (the runtime has no static
    /// analysis; blocks are numbered by use).
    next_sync: std::cell::Cell<u32>,
}

impl DetHandle<'_> {
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    fn fresh_sync(&self) -> SyncId {
        let v = self.next_sync.get();
        self.next_sync.set(v + 1);
        SyncId::new(self.tid.0 * 10_000 + v)
    }

    /// Enters the deterministic monitor `m`, runs `f`, leaves. The
    /// closure gets read/write access to the cells through the handle.
    pub fn sync<R>(&self, m: MutexId, f: impl FnOnce() -> R) -> R {
        let sync_id = self.fresh_sync();
        self.inner.mark_blocked(self.tid, m);
        self.inner.dispatch(SchedEvent::LockRequested {
            tid: self.tid,
            sync_id,
            mutex: m,
        });
        self.inner.permits[self.tid.index()].take();
        let r = f();
        self.inner.dispatch(SchedEvent::Unlocked {
            tid: self.tid,
            sync_id,
            mutex: m,
        });
        r
    }

    /// `m.wait()` — must be called inside [`DetHandle::sync`] on `m`.
    pub fn wait(&self, m: MutexId) {
        self.inner.mark_blocked(self.tid, m);
        self.inner.dispatch(SchedEvent::WaitCalled {
            tid: self.tid,
            mutex: m,
        });
        self.inner.permits[self.tid.index()].take();
    }

    /// `m.notifyAll()` — must be called inside [`DetHandle::sync`] on `m`.
    pub fn notify_all(&self, m: MutexId) {
        self.inner.dispatch(SchedEvent::NotifyCalled {
            tid: self.tid,
            mutex: m,
            all: true,
        });
    }

    /// A nested invocation of `dur` (the thread leaves the scheduled set,
    /// performs the external call, and re-enters when the scheduler
    /// resumes it).
    pub fn nested(&self, dur: Duration) {
        self.inner
            .dispatch(SchedEvent::NestedStarted { tid: self.tid });
        std::thread::sleep(dur);
        self.inner.lock_state().blocked_on.remove(self.tid.index());
        self.inner
            .dispatch(SchedEvent::NestedCompleted { tid: self.tid });
        self.inner.permits[self.tid.index()].take();
    }

    pub fn cell(&self, i: usize) -> i64 {
        self.inner.cells[i].load(Ordering::SeqCst)
    }

    pub fn set_cell(&self, i: usize, v: i64) {
        self.inner.cells[i].store(v, Ordering::SeqCst);
    }
}

/// Runs `n_threads` real OS threads under a deterministic scheduler.
pub struct DetRuntime {
    kind: SchedulerKind,
    n_cells: usize,
    pds_batch: usize,
}

impl DetRuntime {
    pub fn new(kind: SchedulerKind) -> Self {
        DetRuntime {
            kind,
            n_cells: 16,
            pds_batch: 2,
        }
    }

    pub fn with_cells(mut self, n: usize) -> Self {
        self.n_cells = n;
        self
    }

    /// Spawns `n_threads` threads running `body(thread_index, handle)`.
    /// Threads are admitted in index order (the stand-in for the total
    /// order); the call returns when all bodies finished.
    pub fn run<F>(&self, n_threads: usize, body: F) -> RtReport
    where
        F: Fn(usize, &DetHandle<'_>) + Sync,
    {
        let cfg = SchedConfig::new(self.kind, ReplicaId::new(0)).with_pds(dmt_core::PdsConfig {
            batch_size: self.pds_batch.min(n_threads.max(1)),
            locks_per_round: 1,
        });
        let inner = Inner {
            state: Mutex::new(RtState {
                sched: make_scheduler(&cfg),
                grant_log: Vec::new(),
                blocked_on: dmt_core::SlotMap::new(),
                scratch: SchedOutput::new(),
            }),
            permits: (0..n_threads).map(|_| Arc::new(Permit::new())).collect(),
            cells: (0..self.n_cells).map(|_| AtomicI64::new(0)).collect(),
        };

        // Admission in index order — the total order every deterministic
        // algorithm keys off.
        for t in 0..n_threads {
            inner.dispatch(SchedEvent::RequestArrived {
                tid: ThreadId::new(t as u32),
                method: MethodIdx::new(0),
                request_seq: t as u64,
                dummy: false,
            });
        }

        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let inner = &inner;
                let body = &body;
                scope.spawn(move || {
                    let tid = ThreadId::new(t as u32);
                    inner.permits[t].take(); // wait for Admit
                    let handle = DetHandle {
                        inner,
                        tid,
                        next_sync: std::cell::Cell::new(0),
                    };
                    body(t, &handle);
                    inner.dispatch(SchedEvent::ThreadFinished { tid });
                });
            }
        });

        let st = inner.state.into_inner().unwrap();
        RtReport {
            grant_log: st.grant_log,
            cells: inner
                .cells
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_sim::SplitMix64;

    fn m(v: u32) -> MutexId {
        MutexId::new(v)
    }

    /// Random OS-level delays: the noise determinism must shrug off.
    fn jitter(rng_seed: u64, t: usize, step: usize) {
        let mut r = SplitMix64::new(rng_seed ^ (t as u64) << 16 ^ step as u64);
        std::thread::sleep(Duration::from_micros(r.next_below(300)));
    }

    fn counter_run(kind: SchedulerKind, noise_seed: u64) -> RtReport {
        DetRuntime::new(kind).with_cells(1).run(4, |t, h| {
            for step in 0..3 {
                jitter(noise_seed, t, step);
                h.sync(m(0), || {
                    // cell = 2*cell + (t+1): order-sensitive on purpose.
                    let v = h.cell(0);
                    h.set_cell(0, 2 * v + t as i64 + 1);
                });
            }
        })
    }

    #[test]
    fn deterministic_schedulers_ignore_os_jitter() {
        for kind in [
            SchedulerKind::Seq,
            SchedulerKind::Sat,
            SchedulerKind::Mat,
            SchedulerKind::MatLL,
            SchedulerKind::Pds,
            SchedulerKind::Pmat,
        ] {
            let base = counter_run(kind, 1);
            assert_eq!(base.grant_log.len(), 12, "{kind}");
            for noise in 2..6u64 {
                let r = counter_run(kind, noise);
                assert_eq!(
                    r.grant_log, base.grant_log,
                    "{kind} grant order changed under noise"
                );
                assert_eq!(r.cells, base.cells, "{kind} state changed under noise");
            }
        }
    }

    #[test]
    fn free_scheduler_is_visibly_nondeterministic() {
        // Not asserted per-run (FREE may get lucky); across many noisy
        // runs at least two different grant orders must appear.
        let mut orders = std::collections::HashSet::new();
        for noise in 0..12u64 {
            let r = counter_run(SchedulerKind::Free, noise);
            orders.insert(format!("{:?}", r.grant_log));
        }
        assert!(
            orders.len() > 1,
            "FREE produced one order across 12 noisy runs — suspicious"
        );
    }

    #[test]
    fn disjoint_mutexes_run_concurrently_under_pmat_order() {
        // Threads on distinct mutexes: grant log per mutex is one thread's
        // grants; totals must match under every kind.
        for kind in SchedulerKind::ALL {
            let rep = DetRuntime::new(kind).with_cells(4).run(4, |t, h| {
                for _ in 0..5 {
                    h.sync(m(t as u32), || {
                        h.set_cell(t, h.cell(t) + 1);
                    });
                }
            });
            assert_eq!(rep.cells, vec![5, 5, 5, 5], "{kind}");
            assert_eq!(rep.grant_log.len(), 20, "{kind}");
        }
    }

    #[test]
    fn condition_variables_handoff_real_threads() {
        for kind in [SchedulerKind::Sat, SchedulerKind::Mat, SchedulerKind::Pmat] {
            // Thread 0 consumes, thread 1 produces.
            let rep = DetRuntime::new(kind).with_cells(1).run(2, |t, h| {
                if t == 0 {
                    h.sync(m(7), || {
                        while h.cell(0) == 0 {
                            h.wait(m(7));
                        }
                        h.set_cell(0, h.cell(0) - 1);
                    });
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                    h.sync(m(7), || {
                        h.set_cell(0, h.cell(0) + 1);
                        h.notify_all(m(7));
                    });
                }
            });
            assert_eq!(rep.cells[0], 0, "{kind}");
        }
    }

    #[test]
    fn nested_invocations_release_the_schedule() {
        // Under SAT the nested call must let the other thread run.
        let rep = DetRuntime::new(SchedulerKind::Sat)
            .with_cells(2)
            .run(2, |t, h| {
                if t == 0 {
                    h.nested(Duration::from_millis(5));
                    h.sync(m(1), || h.set_cell(0, 1));
                } else {
                    h.sync(m(1), || h.set_cell(1, 1));
                }
            });
        assert_eq!(rep.cells, vec![1, 1]);
    }

    #[test]
    fn seq_runs_threads_strictly_in_order() {
        let rep = DetRuntime::new(SchedulerKind::Seq)
            .with_cells(1)
            .run(3, |t, h| {
                h.sync(m(0), || {
                    h.set_cell(0, 10 * h.cell(0) + t as i64 + 1);
                });
            });
        // SEQ: thread 0, then 1, then 2 → digits 1,2,3.
        assert_eq!(rep.cells[0], 123);
        let tids: Vec<u32> = rep.grant_log.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(tids, vec![0, 1, 2]);
    }
}
