//! SEQ — sequential request execution in total order.
//!
//! The strategy most object replication systems use (paper §1): one
//! request at a time, started in delivery order. It trivially eliminates
//! scheduling nondeterminism, wastes multi-CPU hardware, leaves nested-
//! invocation idle time unused, and deadlocks on re-entrant invocation
//! chains and on `wait` (nothing else can ever run to notify) — the
//! motivations for everything else in the paper.

use crate::event::{SchedAction, SchedEvent};
use crate::ids::ThreadId;
use crate::obs::{Decision, SchedOutput};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync_core::{LockOutcome, SyncCore};
use std::collections::VecDeque;

pub struct SeqScheduler {
    sync: SyncCore,
    active: Option<ThreadId>,
    pending: VecDeque<ThreadId>,
}

impl SeqScheduler {
    pub fn new() -> Self {
        SeqScheduler {
            sync: SyncCore::new(true),
            active: None,
            pending: VecDeque::new(),
        }
    }

    fn admit_next(&mut self, out: &mut SchedOutput) {
        debug_assert!(self.active.is_none());
        if let Some(next) = self.pending.pop_front() {
            self.active = Some(next);
            out.decision(|| Decision::Admit { tid: next });
            out.push(SchedAction::Admit(next));
        }
    }
}

impl Default for SeqScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for SeqScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Seq
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, .. } => {
                self.pending.push_back(tid);
                if self.active.is_none() {
                    self.admit_next(out);
                } else {
                    out.decision(|| Decision::AdmitDefer { tid });
                }
            }
            SchedEvent::LockRequested { tid, mutex, .. } => {
                debug_assert_eq!(self.active, Some(tid), "non-active thread ran under SEQ");
                // With a single thread every monitor is free or reentrant.
                let outcome = self.sync.lock(tid, mutex);
                assert_eq!(outcome, LockOutcome::Acquired, "SEQ lock can never contend");
                out.decision(|| Decision::Grant {
                    tid,
                    mutex,
                    from_wait: false,
                });
                out.push(SchedAction::Resume(tid));
            }
            SchedEvent::Unlocked { tid, mutex, .. } => {
                let grant = self.sync.unlock(tid, mutex);
                debug_assert!(grant.is_none());
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                // SEQ cannot service a wait: no other request will ever run
                // to notify. The thread stays parked; the engine's stall
                // detector reports the deadlock (paper §1 calls the
                // sequential model "deadlock prone").
                let grant = self.sync.wait(tid, mutex);
                debug_assert!(grant.is_none());
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                self.sync.notify(tid, mutex, all);
            }
            SchedEvent::NestedStarted { .. } => {
                // The idle time stays unused: no admission of other work.
            }
            SchedEvent::NestedCompleted { tid } => {
                debug_assert_eq!(self.active, Some(tid));
                out.push(SchedAction::Resume(tid));
            }
            SchedEvent::ThreadFinished { tid } => {
                debug_assert_eq!(self.active, Some(tid));
                debug_assert!(self.sync.holds_none(tid));
                self.active = None;
                self.admit_next(out);
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

    #[test]
    fn one_request_at_a_time_in_order() {
        let mut s = SeqScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        s.on_event(&arrive(2), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(0))]);
        out.clear();
        s.on_event(&SchedEvent::ThreadFinished { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(1))]);
        out.clear();
        s.on_event(&SchedEvent::ThreadFinished { tid: t(1) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(t(2))]);
    }

    #[test]
    fn locks_always_granted() {
        let mut s = SeqScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::LockRequested {
                tid: t(0),
                sync_id: SyncId::new(0),
                mutex: MutexId::new(3),
            },
            &mut out,
        );
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn nested_idle_time_unused() {
        let mut s = SeqScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert!(
            out.actions.is_empty(),
            "SEQ must not admit during nested calls"
        );
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn wait_deadlocks_silently_for_stall_detector() {
        let mut s = SeqScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::LockRequested {
                tid: t(0),
                sync_id: SyncId::new(0),
                mutex: MutexId::new(3),
            },
            &mut out,
        );
        out.clear();
        s.on_event(
            &SchedEvent::WaitCalled {
                tid: t(0),
                mutex: MutexId::new(3),
            },
            &mut out,
        );
        assert!(out.actions.is_empty());
        assert_eq!(s.sync_core().wait_set(MutexId::new(3)), vec![t(0)]);
    }
}
