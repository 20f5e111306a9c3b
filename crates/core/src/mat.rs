//! MAT — multiple active threads (paper §3.4), plus the last-lock
//! optimisation of §4.1 (Figure 2).
//!
//! All admitted threads run concurrently, but only one — the *primary* —
//! may acquire locks. A secondary requesting a lock blocks at the
//! algorithm gate until it becomes primary. Primacy passes, when the
//! current primary suspends (wait/nested invocation) or finishes, to the
//! oldest thread that can use it.
//!
//! ## The token queue (our deterministic rendering)
//!
//! Getting the paper's promotion rule ("the oldest secondary thread
//! becomes primary … and no blocked primary can continue running")
//! replica-invariant is the hard part: *"is that thread awake / gated /
//! finished right now?"* are physical-time questions whose answers differ
//! between replicas. Two earlier renderings — skip sleepers, and park the
//! token on sleepers — both produced real divergences under the
//! determinism checker (wake-ups and suspensions racing vacancies).
//!
//! The rendering that survives is an explicit FIFO **token queue** whose
//! every mutation is either a totally ordered event or the affected
//! thread's own program point:
//!
//! * admission appends (total order);
//! * a nested-invocation wake-up appends (nested replies travel through
//!   the group communication system, so they are totally ordered);
//! * a thread's suspension removes *that thread* (its own event);
//! * a thread's termination removes it (its own event);
//! * gate-blocked threads stay put.
//!
//! The head of the queue holds the primacy token. A transient head that
//! suspends without locking is invisible in the grant order, so the only
//! timing-dependent aspect — *when* a removal lands between two appends —
//! cannot be observed through locks. When the head blocks inside the
//! monitor layer, the monitor's owner (a per-mutex-deterministic fact) is
//! pulled to the front: priority donation, which also lets a gate-blocked
//! holder finish its critical section instead of wedging the token.
//!
//! One residual caveat, inherited from the paper (its CV handling was the
//! FTflex addition, and §4.3 admits the wait/nested interaction is open):
//! a `notify`-woken waiter re-enters the queue at its re-acquisition,
//! which is deterministic per mutex but not ordered against concurrent
//! nested wake-ups; programs that race condition variables against nested
//! invocations should prefer PMAT or LSA.
//!
//! In [`MatMode::LastLock`] the scheduler additionally consults the
//! bookkeeping module: a thread whose syncid table proves it will never
//! lock again leaves the token queue at that very unlock — before its
//! final computation (Figure 2(b)) — so lock-free tails never hog the
//! token (the §3.4 complaint about plain MAT).

use crate::bookkeeping::{Bookkeeping, LockTable};
use crate::event::{SchedAction, SchedEvent};
use crate::ids::ThreadId;
use crate::obs::{Decision, DeferReason, DepthSample, SchedOutput};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::slot::SlotMap;
use crate::sync_core::{LockOutcome, SyncCore};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which MAT variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatMode {
    /// Paper §3.4: the token leaves a thread only on suspension or
    /// termination.
    Plain,
    /// Paper §4.1: the token also leaves after the provably last unlock.
    LastLock,
}

pub struct MatScheduler {
    mode: MatMode,
    sync: SyncCore,
    book: Bookkeeping,
    /// The token queue; the front holds primacy.
    queue: VecDeque<ThreadId>,
    /// Pending gate-blocked lock requests, indexed by the dense thread id.
    gated: SlotMap<dmt_lang::MutexId>,
    /// Last primary reported to the decision stream (recording only).
    noted_primary: Option<ThreadId>,
}

impl MatScheduler {
    pub fn new(mode: MatMode, table: Arc<LockTable>) -> Self {
        MatScheduler {
            mode,
            sync: SyncCore::new(true),
            book: Bookkeeping::new(table),
            queue: VecDeque::new(),
            gated: SlotMap::new(),
            noted_primary: None,
        }
    }

    /// The current token holder (primary), if any.
    pub fn primary(&self) -> Option<ThreadId> {
        self.queue.front().copied()
    }

    /// Plain mode never consults the bookkeeping (`no_more_locks` is
    /// only read behind the `LastLock` gate in `drop_if_lock_done`), so
    /// maintaining it there is pure overhead.
    #[inline]
    fn keeps_books(&self) -> bool {
        self.mode == MatMode::LastLock
    }

    fn remove_from_queue(&mut self, tid: ThreadId) {
        if let Some(pos) = self.queue.iter().position(|&t| t == tid) {
            self.queue.remove(pos);
        }
    }

    /// Last-lock mode: a thread the bookkeeping proves lock-done no
    /// longer needs the token; it leaves the queue (keeps running).
    fn drop_if_lock_done(&mut self, tid: ThreadId, out: &mut SchedOutput) {
        if self.mode == MatMode::LastLock
            && self.book.no_more_locks(tid)
            && self.sync.holds_none(tid)
            && self.queue.contains(&tid)
        {
            out.decision(|| Decision::TokenRelease {
                tid,
                last_lock: true,
            });
            self.remove_from_queue(tid);
            self.exercise_head(out);
        }
    }

    /// Records a token handover when the queue head changed (recording
    /// only — never touches scheduling state).
    fn note_primary(&mut self, out: &mut SchedOutput) {
        if !out.is_recording() {
            return;
        }
        let p = self.primary();
        if p != self.noted_primary {
            self.noted_primary = p;
            if let Some(tid) = p {
                out.decision(|| Decision::TokenGrant { tid });
            }
        }
    }

    /// If the (possibly new) head is gate-blocked, forward its request.
    fn exercise_head(&mut self, out: &mut SchedOutput) {
        loop {
            let Some(&head) = self.queue.front() else {
                return;
            };
            let Some(&mutex) = self.gated.get(head.index()) else {
                return;
            };
            self.gated.remove(head.index());
            match self.sync.lock(head, mutex) {
                LockOutcome::Acquired => {
                    out.decision(|| Decision::Grant {
                        tid: head,
                        mutex,
                        from_wait: false,
                    });
                    out.push(SchedAction::Resume(head));
                    return;
                }
                LockOutcome::Queued => {
                    out.decision(|| Decision::Defer {
                        tid: head,
                        mutex,
                        reason: DeferReason::MutexBusy,
                    });
                    // Priority donation: the owner is pulled to the front
                    // (per-mutex-deterministic target). A suspended owner
                    // is no longer queued; the token then waits here and
                    // the monitor core hands over on the owner's unlock.
                    let owner = self.sync.owner(mutex).expect("queued implies owned");
                    if self.queue.contains(&owner) {
                        self.remove_from_queue(owner);
                        self.queue.push_front(owner);
                        continue; // the owner may itself be gated
                    }
                    return;
                }
            }
        }
    }
}

impl Scheduler for MatScheduler {
    fn kind(&self) -> SchedulerKind {
        match self.mode {
            MatMode::Plain => SchedulerKind::Mat,
            MatMode::LastLock => SchedulerKind::MatLL,
        }
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    fn depths(&self) -> DepthSample {
        let mut d = self.sync.depths();
        // Gate-blocked lock requests are contention the monitor layer
        // never sees — the "MAT wait queue" of §3.4.
        d.lock_queued += self.gated.len() as u32;
        // Runnable threads queued behind the token holder.
        d.sched_queue = self.queue.len().saturating_sub(1) as u32;
        d
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, method, .. } => {
                if self.keeps_books() {
                    self.book.on_request(tid, method);
                }
                self.queue.push_back(tid);
                out.decision(|| Decision::Admit { tid });
                out.push(SchedAction::Admit(tid));
                // In last-lock mode a provably lock-free request never
                // needs the token at all.
                self.drop_if_lock_done(tid, out);
                self.exercise_head(out);
            }
            SchedEvent::LockRequested {
                tid,
                sync_id,
                mutex,
            } => {
                if self.keeps_books() {
                    self.book.on_lock(tid, sync_id, mutex);
                }
                self.gated.insert(tid.index(), mutex);
                if self.primary() == Some(tid) {
                    self.exercise_head(out);
                } else {
                    // Gated until the queue rotates to it.
                    out.decision(|| Decision::Defer {
                        tid,
                        mutex,
                        reason: DeferReason::Token,
                    });
                }
            }
            SchedEvent::Unlocked {
                tid,
                sync_id,
                mutex,
            } => {
                if self.keeps_books() {
                    self.book.on_unlock(tid, sync_id, mutex);
                }
                if let Some(g) = self.sync.unlock(tid, mutex) {
                    if g.from_wait {
                        // Notified waiter re-acquired: re-enter the queue
                        // (see the module-docs CV caveat).
                        self.queue.push_back(g.tid);
                    }
                    out.decision(|| Decision::Grant {
                        tid: g.tid,
                        mutex,
                        from_wait: g.from_wait,
                    });
                    out.push(SchedAction::Resume(g.tid));
                }
                self.drop_if_lock_done(tid, out);
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                if let Some(g) = self.sync.wait(tid, mutex) {
                    if g.from_wait {
                        self.queue.push_back(g.tid);
                    }
                    out.decision(|| Decision::Grant {
                        tid: g.tid,
                        mutex,
                        from_wait: g.from_wait,
                    });
                    out.push(SchedAction::Resume(g.tid));
                }
                if self.primary() == Some(tid) {
                    out.decision(|| Decision::TokenRelease {
                        tid,
                        last_lock: false,
                    });
                }
                self.remove_from_queue(tid);
                self.exercise_head(out);
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                self.sync.notify(tid, mutex, all);
            }
            SchedEvent::NestedStarted { tid } => {
                if self.primary() == Some(tid) {
                    out.decision(|| Decision::TokenRelease {
                        tid,
                        last_lock: false,
                    });
                }
                self.remove_from_queue(tid);
                self.exercise_head(out);
            }
            SchedEvent::NestedCompleted { tid } => {
                out.push(SchedAction::Resume(tid));
                self.queue.push_back(tid);
                self.drop_if_lock_done(tid, out);
                self.exercise_head(out);
            }
            SchedEvent::ThreadFinished { tid } => {
                debug_assert!(self.sync.holds_none(tid));
                debug_assert!(!self.gated.contains(tid.index()));
                self.remove_from_queue(tid);
                if self.keeps_books() {
                    self.book.on_finish(tid);
                }
                self.exercise_head(out);
            }
            SchedEvent::LockInfo {
                tid,
                sync_id,
                mutex,
            } => {
                if self.keeps_books() {
                    self.book.on_lock_info(tid, sync_id, mutex);
                }
            }
            SchedEvent::SyncIgnored { tid, sync_id } => {
                if self.keeps_books() {
                    self.book.on_ignore(tid, sync_id);
                }
                // An ignore can retire the final table entry.
                self.drop_if_lock_done(tid, out);
            }
            SchedEvent::Control(_) => {}
        }
        self.note_primary(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookkeeping::StaticSyncEntry;
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
    fn lock(tid: u32, sid: u32, m: u32) -> SchedEvent {
        SchedEvent::LockRequested {
            tid: t(tid),
            sync_id: SyncId::new(sid),
            mutex: MutexId::new(m),
        }
    }
    fn unlock(tid: u32, sid: u32, m: u32) -> SchedEvent {
        SchedEvent::Unlocked {
            tid: t(tid),
            sync_id: SyncId::new(sid),
            mutex: MutexId::new(m),
        }
    }

    fn plain() -> MatScheduler {
        MatScheduler::new(MatMode::Plain, Arc::new(LockTable::unanalyzed(4)))
    }

    #[test]
    fn all_threads_admitted_immediately() {
        let mut s = plain();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        s.on_event(&arrive(2), &mut out);
        assert_eq!(
            out.actions,
            vec![
                SchedAction::Admit(t(0)),
                SchedAction::Admit(t(1)),
                SchedAction::Admit(t(2))
            ]
        );
        assert_eq!(s.primary(), Some(t(0)));
    }

    #[test]
    fn secondary_lock_gates_even_on_free_mutex() {
        let mut s = plain();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // Secondary t1 requests a mutex nobody holds — still gated
        // ("no matter whether the locks conflict or not", §3.4).
        s.on_event(&lock(1, 0, 7), &mut out);
        assert!(out.actions.is_empty());
        // Primary t0 locks a *different* mutex: granted.
        s.on_event(&lock(0, 1, 8), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        // Primary finishes → t1 heads the queue, its pending lock lands.
        s.on_event(&unlock(0, 1, 8), &mut out);
        s.on_event(&SchedEvent::ThreadFinished { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.primary(), Some(t(1)));
        assert_eq!(s.sync_core().owner(MutexId::new(7)), Some(t(1)));
    }

    #[test]
    fn nested_invocation_rotates_the_token() {
        let mut s = plain();
        let mut out = SchedOutput::new();
        for i in 0..3 {
            s.on_event(&arrive(i), &mut out);
        }
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert_eq!(s.primary(), Some(t(1)));
        // Wake-up: t0 re-enters at the back; t1 keeps the token.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert_eq!(s.primary(), Some(t(1)));
        out.clear();
        // t1 finishes → t2 (ahead of the re-entered t0) gets the token.
        s.on_event(&SchedEvent::ThreadFinished { tid: t(1) }, &mut out);
        assert_eq!(s.primary(), Some(t(2)));
        s.on_event(&SchedEvent::ThreadFinished { tid: t(2) }, &mut out);
        assert_eq!(s.primary(), Some(t(0)));
    }

    #[test]
    fn suspended_holder_keeps_mutex_until_return() {
        let mut s = plain();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // Primary t0 locks m5, then suspends in a nested call holding it.
        s.on_event(&lock(0, 0, 5), &mut out);
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert_eq!(s.primary(), Some(t(1)));
        // New primary t1 requests m5 → queued in the monitor layer; the
        // owner is off-queue (suspended), so the token waits here.
        s.on_event(&lock(1, 1, 5), &mut out);
        assert!(out.actions.is_empty());
        // t0 returns (tail of the queue), unlocks m5 → t1 granted.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.sync_core().owner(MutexId::new(5)), Some(t(1)));
        assert_eq!(s.primary(), Some(t(1)));
    }

    #[test]
    fn wait_removes_from_queue_and_notify_reenters() {
        let mut s = plain();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 0, 3), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::WaitCalled {
                tid: t(0),
                mutex: MutexId::new(3),
            },
            &mut out,
        );
        assert_eq!(s.primary(), Some(t(1)));
        assert!(out.actions.is_empty());
        // t1 (primary) locks m3, notifies, unlocks: t0 re-acquires and
        // re-enters the token queue behind t1.
        s.on_event(&lock(1, 1, 3), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::NotifyCalled {
                tid: t(1),
                mutex: MutexId::new(3),
                all: false,
            },
            &mut out,
        );
        s.on_event(&unlock(1, 1, 3), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        assert_eq!(s.sync_core().owner(MutexId::new(3)), Some(t(0)));
        assert_eq!(s.primary(), Some(t(1)));
    }

    #[test]
    fn donation_pulls_gated_holder_to_the_front() {
        let mut s = plain();
        let mut out = SchedOutput::new();
        for i in 0..3 {
            s.on_event(&arrive(i), &mut out);
        }
        out.clear();
        // Primary t0 locks m1, nests holding it → token to t1.
        s.on_event(&lock(0, 0, 1), &mut out);
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        out.clear();
        assert_eq!(s.primary(), Some(t(1)));
        // t0 returns (re-enters at the back, still holding m1), then
        // gates on m2 while holding m1.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        out.clear();
        s.on_event(&lock(0, 1, 2), &mut out);
        assert!(out.actions.is_empty());
        // Primary t1 requests m1 (held by the gated t0): donation pulls
        // t0 to the front and forwards its m2 request.
        s.on_event(&lock(1, 2, 1), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        assert_eq!(s.primary(), Some(t(0)));
        assert_eq!(s.sync_core().owner(MutexId::new(2)), Some(t(0)));
        // t0 finishes its critical sections → m1 flows to t1.
        out.clear();
        s.on_event(&unlock(0, 1, 2), &mut out);
        s.on_event(&unlock(0, 0, 1), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    fn ll_table() -> Arc<LockTable> {
        // Method 0: single non-repeatable sync block s0.
        Arc::new(LockTable::new(vec![Some(vec![StaticSyncEntry {
            sync_id: SyncId::new(0),
            repeatable: false,
        }])]))
    }

    #[test]
    fn last_lock_mode_releases_token_after_final_unlock() {
        let mut s = MatScheduler::new(MatMode::LastLock, ll_table());
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t1 (secondary) gates on its lock.
        s.on_event(&lock(1, 0, 7), &mut out);
        assert!(out.actions.is_empty());
        // Primary t0 locks/unlocks its only sync block, then keeps
        // computing its reply. Plain MAT would hold the token to the end;
        // last-lock MAT hands it over at the unlock (Figure 2(b)).
        s.on_event(&lock(0, 0, 9), &mut out);
        out.clear();
        s.on_event(&unlock(0, 0, 9), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(1))],
            "handover before t0 terminates"
        );
        assert_eq!(s.primary(), Some(t(1)));
    }

    #[test]
    fn plain_mode_waits_for_termination() {
        let mut s = MatScheduler::new(MatMode::Plain, ll_table());
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(1, 0, 7), &mut out);
        s.on_event(&lock(0, 0, 9), &mut out);
        out.clear();
        s.on_event(&unlock(0, 0, 9), &mut out);
        assert!(
            out.actions.is_empty(),
            "plain MAT keeps the token after the last unlock"
        );
        s.on_event(&SchedEvent::ThreadFinished { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    #[test]
    fn last_lock_mode_skips_lockfree_threads_entirely() {
        // Method 1 has no sync blocks: a lock-free thread.
        let table = Arc::new(LockTable::new(vec![
            Some(vec![StaticSyncEntry {
                sync_id: SyncId::new(0),
                repeatable: false,
            }]),
            Some(vec![]),
        ]));
        let mut s = MatScheduler::new(MatMode::LastLock, table);
        let mut out = SchedOutput::new();
        // t0 is lock-free (method 1), t1 wants a lock (method 0).
        s.on_event(
            &SchedEvent::RequestArrived {
                tid: t(0),
                method: MethodIdx::new(1),
                request_seq: 0,
                dummy: false,
            },
            &mut out,
        );
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t0 never entered the queue: t1 holds the token and locks at once.
        assert_eq!(s.primary(), Some(t(1)));
        s.on_event(&lock(1, 0, 7), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }
}
