//! FREE — plain mutex mechanics without any determinism gating.
//!
//! This is what a naive multithreaded replica does: admit every request
//! immediately, grant every free monitor on demand, FIFO otherwise. Its
//! decisions depend on the physical timing of its own replica, so two
//! replicas fed the same total order can interleave differently — the
//! nondeterminism the paper's schedulers exist to prevent. FREE is kept
//! as the negative control for the determinism checker and as the
//! "unconstrained" half of the LSA leader.

use crate::event::{SchedAction, SchedEvent};
use crate::obs::{Decision, DeferReason, SchedOutput};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync_core::{LockOutcome, SyncCore};

pub struct FreeScheduler {
    sync: SyncCore,
}

impl FreeScheduler {
    pub fn new() -> Self {
        FreeScheduler {
            sync: SyncCore::new(true),
        }
    }
}

impl Default for FreeScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for FreeScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Free
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, .. } => {
                out.decision(|| Decision::Admit { tid });
                out.push(SchedAction::Admit(tid));
            }
            SchedEvent::LockRequested { tid, mutex, .. } => {
                if self.sync.lock(tid, mutex) == LockOutcome::Acquired {
                    out.decision(|| Decision::Grant {
                        tid,
                        mutex,
                        from_wait: false,
                    });
                    out.push(SchedAction::Resume(tid));
                } else {
                    out.decision(|| Decision::Defer {
                        tid,
                        mutex,
                        reason: DeferReason::MutexBusy,
                    });
                }
            }
            SchedEvent::Unlocked { tid, mutex, .. } => {
                if let Some(g) = self.sync.unlock(tid, mutex) {
                    out.decision(|| Decision::Grant {
                        tid: g.tid,
                        mutex,
                        from_wait: g.from_wait,
                    });
                    out.push(SchedAction::Resume(g.tid));
                }
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                if let Some(g) = self.sync.wait(tid, mutex) {
                    out.decision(|| Decision::Grant {
                        tid: g.tid,
                        mutex,
                        from_wait: g.from_wait,
                    });
                    out.push(SchedAction::Resume(g.tid));
                }
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                self.sync.notify(tid, mutex, all);
            }
            SchedEvent::NestedStarted { .. } => {}
            SchedEvent::NestedCompleted { tid } => out.push(SchedAction::Resume(tid)),
            SchedEvent::ThreadFinished { tid } => {
                debug_assert!(self.sync.holds_none(tid), "{tid} finished holding monitors");
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
    use crate::ids::ThreadId;
    use dmt_lang::{MethodIdx, MutexId, SyncId};

    fn arrive(tid: u32) -> SchedEvent {
        SchedEvent::RequestArrived {
            tid: ThreadId::new(tid),
            method: MethodIdx::new(0),
            request_seq: tid as u64,
            dummy: false,
        }
    }

    #[test]
    fn admits_immediately_and_grants_free_locks() {
        let mut s = FreeScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Admit(ThreadId::new(0))]);
        out.clear();
        s.on_event(
            &SchedEvent::LockRequested {
                tid: ThreadId::new(0),
                sync_id: SyncId::new(0),
                mutex: MutexId::new(7),
            },
            &mut out,
        );
        assert_eq!(out.actions, vec![SchedAction::Resume(ThreadId::new(0))]);
    }

    #[test]
    fn contended_lock_resumes_on_unlock() {
        let mut s = FreeScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        let lock = |tid: u32| SchedEvent::LockRequested {
            tid: ThreadId::new(tid),
            sync_id: SyncId::new(0),
            mutex: MutexId::new(7),
        };
        s.on_event(&lock(0), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(ThreadId::new(0))]);
        out.clear();
        s.on_event(&lock(1), &mut out);
        assert!(out.actions.is_empty()); // queued
        s.on_event(
            &SchedEvent::Unlocked {
                tid: ThreadId::new(0),
                sync_id: SyncId::new(0),
                mutex: MutexId::new(7),
            },
            &mut out,
        );
        assert_eq!(out.actions, vec![SchedAction::Resume(ThreadId::new(1))]);
    }

    #[test]
    fn nested_resumes_on_completion() {
        let mut s = FreeScheduler::new();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::NestedStarted {
                tid: ThreadId::new(0),
            },
            &mut out,
        );
        assert!(out.actions.is_empty());
        s.on_event(
            &SchedEvent::NestedCompleted {
                tid: ThreadId::new(0),
            },
            &mut out,
        );
        assert_eq!(out.actions, vec![SchedAction::Resume(ThreadId::new(0))]);
    }
}
