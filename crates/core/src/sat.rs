//! SAT — single active thread (paper §3.1).
//!
//! Proposed by Jiménez-Peris et al. for transactional replicas, adapted by
//! Zhao et al. (Eternal) and extended with condition variables in FTflex.
//! At most one thread executes at a time, but unlike SEQ a new thread may
//! start or resume as soon as the previous one *suspends* (wait, nested
//! invocation, or blocking on a monitor held by a suspended thread) rather
//! than terminates — so the idle time of nested invocations is used, and
//! invocation chains that loop back to the object no longer deadlock.
//!
//! Determinism: between suspensions the execution is a single sequential
//! chain, so every scheduler decision point and every internal wake-up
//! (monitor grant, notify) is a deterministic consequence of the previous
//! activation order; external wake-ups (request arrivals, nested replies)
//! are consumed from the totally ordered stream. The ready queue therefore
//! orders identically on every replica.

use crate::event::{SchedAction, SchedEvent};
use crate::ids::ThreadId;
use crate::obs::{Decision, DeferReason, SchedOutput};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync_core::{LockOutcome, SyncCore};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    /// Created, never ran.
    Fresh,
    /// In the ready queue (fresh or resumable).
    Ready,
    /// The single active thread.
    Active,
    /// Blocked on a monitor held by a suspended thread.
    LockBlocked,
    /// Parked in a wait set (or re-acquiring after notify).
    WaitBlocked,
    /// Suspended in a nested invocation.
    NestedBlocked,
    Finished,
}

pub struct SatScheduler {
    sync: SyncCore,
    /// Per-thread status, indexed by the dense `ThreadId` (threads are
    /// numbered from 0 in arrival order, so the table stays compact).
    status: Vec<St>,
    ready: VecDeque<ThreadId>,
    active: Option<ThreadId>,
}

impl SatScheduler {
    pub fn new() -> Self {
        SatScheduler {
            sync: SyncCore::new(true),
            status: Vec::new(),
            ready: VecDeque::new(),
            active: None,
        }
    }

    fn set(&mut self, tid: ThreadId, st: St) {
        let i = tid.index();
        if i >= self.status.len() {
            // Slots between the old end and `i` stay `Fresh` until their
            // threads arrive (arrival order makes gaps transient).
            self.status.resize(i + 1, St::Fresh);
        }
        self.status[i] = st;
    }

    fn st(&self, tid: ThreadId) -> St {
        self.status[tid.index()]
    }

    fn enqueue_ready(&mut self, tid: ThreadId, fresh: bool) {
        self.set(tid, if fresh { St::Fresh } else { St::Ready });
        self.ready.push_back(tid);
    }

    fn activate_next(&mut self, out: &mut SchedOutput) {
        debug_assert!(self.active.is_none());
        if let Some(next) = self.ready.pop_front() {
            let fresh = self.st(next) == St::Fresh;
            self.set(next, St::Active);
            self.active = Some(next);
            if fresh {
                out.decision(|| Decision::Admit { tid: next });
                out.push(SchedAction::Admit(next));
            } else {
                out.decision(|| Decision::Resume { tid: next });
                out.push(SchedAction::Resume(next));
            }
        }
    }

    /// A suspended thread is ready again while `active` runs: it waits
    /// in the ready queue for the slot.
    fn enqueue_resumable(&mut self, tid: ThreadId, out: &mut SchedOutput) {
        debug_assert!(self.active.is_some());
        out.decision(|| Decision::ResumeDefer { tid });
        self.enqueue_ready(tid, false);
    }

    /// A monitor grant arrived for a blocked thread: it becomes ready.
    fn on_grant(&mut self, tid: ThreadId, out: &mut SchedOutput) {
        debug_assert!(matches!(self.st(tid), St::LockBlocked | St::WaitBlocked));
        self.enqueue_resumable(tid, out);
    }
}

impl Default for SatScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for SatScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Sat
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, .. } => {
                self.enqueue_ready(tid, true);
                if self.active.is_none() {
                    self.activate_next(out);
                } else {
                    out.decision(|| Decision::AdmitDefer { tid });
                }
            }
            SchedEvent::LockRequested { tid, mutex, .. } => {
                debug_assert_eq!(
                    self.active,
                    Some(tid),
                    "only the active thread runs under SAT"
                );
                match self.sync.lock(tid, mutex) {
                    LockOutcome::Acquired => {
                        out.decision(|| Decision::Grant {
                            tid,
                            mutex,
                            from_wait: false,
                        });
                        out.push(SchedAction::Resume(tid));
                    }
                    LockOutcome::Queued => {
                        // The holder must be suspended. Treat the blockage
                        // as a suspension and activate the next thread —
                        // the FTflex extension that keeps SAT live.
                        out.decision(|| Decision::Defer {
                            tid,
                            mutex,
                            reason: DeferReason::MutexBusy,
                        });
                        self.set(tid, St::LockBlocked);
                        self.active = None;
                        self.activate_next(out);
                    }
                }
            }
            SchedEvent::Unlocked { tid, mutex, .. } => {
                if let Some(g) = self.sync.unlock(tid, mutex) {
                    out.decision(|| Decision::Grant {
                        tid: g.tid,
                        mutex,
                        from_wait: g.from_wait,
                    });
                    self.on_grant(g.tid, out);
                }
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                debug_assert_eq!(self.active, Some(tid));
                if let Some(g) = self.sync.wait(tid, mutex) {
                    out.decision(|| Decision::Grant {
                        tid: g.tid,
                        mutex,
                        from_wait: g.from_wait,
                    });
                    self.on_grant(g.tid, out);
                }
                self.set(tid, St::WaitBlocked);
                self.active = None;
                self.activate_next(out);
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                // Moved waiters re-acquire via the monitor queue; they
                // become ready when granted (on the notifier's unlock).
                self.sync.notify(tid, mutex, all);
            }
            SchedEvent::NestedStarted { tid } => {
                debug_assert_eq!(self.active, Some(tid));
                self.set(tid, St::NestedBlocked);
                self.active = None;
                self.activate_next(out);
            }
            SchedEvent::NestedCompleted { tid } => {
                debug_assert_eq!(self.st(tid), St::NestedBlocked);
                if self.active.is_some() {
                    self.enqueue_resumable(tid, out);
                } else {
                    self.enqueue_ready(tid, false);
                    self.activate_next(out);
                }
            }
            SchedEvent::ThreadFinished { tid } => {
                debug_assert_eq!(self.active, Some(tid));
                debug_assert!(self.sync.holds_none(tid));
                self.set(tid, St::Finished);
                self.active = None;
                self.activate_next(out);
            }
            SchedEvent::LockInfo { .. }
            | SchedEvent::SyncIgnored { .. }
            | SchedEvent::Control(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::{MethodIdx, MutexId, SyncId};

    fn t(v: u32) -> ThreadId {
        ThreadId::new(v)
    }
    fn arrive(tid: u32) -> SchedEvent {
        SchedEvent::RequestArrived {
            tid: t(tid),
            method: MethodIdx::new(0),
            request_seq: tid as u64,
            dummy: false,
        }
    }
    fn lock(tid: u32, m: u32) -> SchedEvent {
        SchedEvent::LockRequested {
            tid: t(tid),
            sync_id: SyncId::new(0),
            mutex: MutexId::new(m),
        }
    }
    fn unlock(tid: u32, m: u32) -> SchedEvent {
        SchedEvent::Unlocked {
            tid: t(tid),
            sync_id: SyncId::new(0),
            mutex: MutexId::new(m),
        }
    }

    #[test]
    fn second_request_waits_for_suspension_not_termination() {
        let mut s = SatScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(0))]);
        out.clear();
        s.on_event(&arrive(1), &mut out);
        assert!(out.actions.is_empty(), "t1 must wait while t0 is active");
        // t0 suspends in a nested invocation → t1 starts.
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(1))]);
        out.clear();
        // t0's reply arrives while t1 is active: t0 queues.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert!(out.actions.is_empty());
        // t1 finishes → t0 resumes.
        s.on_event(&SchedEvent::ThreadFinished { tid: t(1) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn lock_held_by_suspended_thread_suspends_requester() {
        let mut s = SatScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        // t0 suspends holding m5; t1 activates and requests m5.
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(1))]);
        out.clear();
        s.on_event(&lock(1, 5), &mut out);
        assert!(
            out.actions.is_empty(),
            "t1 blocks; nothing else to activate"
        );
        // t0 returns, becomes active again, releases m5 → t1 ready; t0
        // still active, so t1 resumes only at t0's next suspension.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 5), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&SchedEvent::ThreadFinished { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.sync_core().owner(MutexId::new(5)), Some(t(1)));
    }

    #[test]
    fn wait_suspends_and_notify_reactivates_through_queue() {
        let mut s = SatScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t0 locks m and waits → t1 activates.
        s.on_event(&lock(0, 3), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::WaitCalled {
                tid: t(0),
                mutex: MutexId::new(3),
            },
            &mut out,
        );
        assert_eq!(out.actions, vec![SchedAction::Admit(t(1))]);
        out.clear();
        // t1 locks m, notifies, unlocks → t0 re-acquires, queues ready.
        s.on_event(&lock(1, 3), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::NotifyCalled {
                tid: t(1),
                mutex: MutexId::new(3),
                all: false,
            },
            &mut out,
        );
        assert!(out.actions.is_empty());
        s.on_event(&unlock(1, 3), &mut out);
        assert!(out.actions.is_empty(), "t0 ready but t1 still active");
        s.on_event(&SchedEvent::ThreadFinished { tid: t(1) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        assert_eq!(s.sync_core().owner(MutexId::new(3)), Some(t(0)));
    }

    #[test]
    fn ready_queue_is_fifo() {
        let mut s = SatScheduler::new();
        let mut out = SchedOutput::new();
        for i in 0..4 {
            s.on_event(&arrive(i), &mut out);
        }
        out.clear();
        // t0 nests → t1 active. t1 nests → t2 active. Replies for t0, t1.
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(1) }, &mut out);
        out.clear();
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        s.on_event(&SchedEvent::NestedCompleted { tid: t(1) }, &mut out);
        assert!(out.actions.is_empty());
        // Queue now: t3 (fresh), t0, t1. t2 finishes → t3 admitted.
        s.on_event(&SchedEvent::ThreadFinished { tid: t(2) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(3))]);
        out.clear();
        s.on_event(&SchedEvent::ThreadFinished { tid: t(3) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn a_ready_thread_waiting_for_the_slot_is_on_record() {
        let mut s = SatScheduler::new();
        let mut out = SchedOutput::recording();
        let held = |out: &SchedOutput| -> Vec<Decision> { out.decisions().to_vec() };
        s.on_event(&arrive(0), &mut out);
        s.on_event(&lock(0, 5), &mut out);
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t1 blocks on m5, which t0 holds across its nested call.
        s.on_event(&lock(1, 5), &mut out);
        // t0's reply comes back with the slot free: resumed at once.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert_eq!(
            held(&out),
            vec![
                Decision::Defer {
                    tid: t(1),
                    mutex: MutexId::new(5),
                    reason: DeferReason::MutexBusy
                },
                Decision::Resume { tid: t(0) },
            ]
        );
        out.clear();
        // t0's unlock grants m5 to t1, which waits for the slot.
        s.on_event(&unlock(0, 5), &mut out);
        s.on_event(&SchedEvent::ThreadFinished { tid: t(0) }, &mut out);
        assert_eq!(
            held(&out),
            vec![
                Decision::Grant {
                    tid: t(1),
                    mutex: MutexId::new(5),
                    from_wait: false
                },
                Decision::ResumeDefer { tid: t(1) },
                Decision::Resume { tid: t(1) },
            ]
        );
    }
}
