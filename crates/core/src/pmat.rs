//! PMAT — the predicted-MAT extension sketched in paper §4.3 (Figure 3).
//!
//! Instead of one lock-granting primary there is an age-ordered queue of
//! active threads that are "in principle equal". A thread `t` is granted
//! a lock on mutex `m` only when every thread preceding it in the queue
//! is **predicted** (its whole syncid table is resolved by `lockInfo`,
//! `ignore`, or completed locks) and none of them pins `m` for the
//! future. Blocked threads are re-checked on exactly the paper's event
//! list: a conflicting thread releases `m`, a conflicting thread leaves
//! the queue, the first unpredicted predecessor leaves the queue, or it
//! becomes predicted. Each such event puts the requests it can unblock
//! on a wake list, and a recheck evaluates only those, so its cost is
//! O(woken) rather than O(pending). A lock request that wakes nothing is
//! decided on the spot, off the wake list. The bookkeeping reports what
//! each event changed, so every event costs O(1) in the width of the
//! thread's lock table.
//!
//! Race-safety (why this is deterministic per mutex without extra
//! communication): partial knowledge always blocks — if a predecessor has
//! not yet announced all its locks it is unpredicted and blocks every
//! younger same-mutex request, and once it *is* predicted its future set
//! is fixed. Two replicas can interleave grants on *different* mutexes
//! differently, but the per-mutex grant orders — the only thing that can
//! reach properly-synchronised state — are identical. The determinism
//! checker therefore compares PMAT runs by per-mutex traces and state
//! hashes (`checker::match_level` in `dmt-replica`).
//!
//! The paper leaves `wait`/nested-invocation handling open ("we have not
//! been able to figure out yet"). Our documented answer: a suspended
//! thread keeps its queue position and its bookkeeping table (which is
//! frozen while it sleeps, hence still sound); an unpredicted suspended
//! predecessor simply keeps blocking younger conflicting threads. That is
//! pessimistic but deterministic, and it needs no new mechanism.

use crate::bookkeeping::{Bookkeeping, EntryChange, LockTable};
use crate::event::{SchedAction, SchedEvent};
use crate::ids::ThreadId;
use crate::obs::{Decision, SchedOutput};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync_core::{LockOutcome, SyncCore};
use dmt_lang::MutexId;
use std::sync::Arc;

pub struct PmatScheduler {
    sync: SyncCore,
    book: Bookkeeping,
    /// The active-thread queue: every admitted, unfinished thread, in
    /// admission (age) order. Kept sorted; thread ids are assigned in
    /// admission order, so pushes land at the back.
    queue: Vec<ThreadId>,
    /// Gate-blocked lock requests awaiting the prediction check, sorted
    /// by thread age. Holds live requests only (a thread has at most
    /// one), however many ids the run has handed out.
    pending: Vec<(ThreadId, MutexId)>,
    /// The same requests by mutex: `pending_on[m]` lists the threads
    /// whose pending request is for `m`, in age order.
    pending_on: Vec<Vec<ThreadId>>,
    /// Wake list: the pending requests (by thread) that some event since
    /// the last recheck may have unblocked, unsorted and possibly
    /// repeated. A request left off it is still blocked, so a recheck
    /// evaluates only these.
    woken: Vec<ThreadId>,
    /// Blocker index, part 1: queued threads that are not predicted, in
    /// age order. Each blocks every younger request.
    unpredicted: Vec<ThreadId>,
    /// Blocker index, part 2, indexed by mutex id: queued threads with an
    /// `Announced(m)`/`Held(m)` entry, in age order, once per such entry
    /// (a multiset, so a thread whose one pin of `m` is retired stays
    /// listed while another entry still pins `m`). Each blocks younger
    /// requests for `m`.
    pinners: Vec<Vec<ThreadId>>,
    /// Requests a recheck has evaluated, for the wake-rule tests.
    #[cfg(test)]
    evaluated: usize,
}

/// The elements of the age-sorted `v` that are older than `tid`.
fn older(v: &[ThreadId], tid: ThreadId) -> &[ThreadId] {
    &v[..v.partition_point(|&u| u < tid)]
}

/// The per-mutex list of `mutex` in `lists`, created on first touch.
fn grow(lists: &mut Vec<Vec<ThreadId>>, mutex: MutexId) -> &mut Vec<ThreadId> {
    let i = mutex.index();
    if i >= lists.len() {
        lists.resize_with(i + 1, Vec::new);
    }
    &mut lists[i]
}

/// The oldest pending request on `mutex` younger than `actor` (of all
/// of them for `None`). It is the only one of them that can be
/// grantable: every thread with a pending request on `mutex` pins it
/// (its lock moved an entry to `Held`) or is unpredicted, and sits in no
/// wait set, so it blocks every younger request on `mutex`.
fn first_request_on(
    pending_on: &[Vec<ThreadId>],
    mutex: MutexId,
    actor: Option<ThreadId>,
) -> Option<ThreadId> {
    let on = pending_on.get(mutex.index())?;
    on.get(actor.map_or(0, |a| on.partition_point(|&u| u <= a)))
        .copied()
}

/// Adds one occurrence of `tid` to the age-sorted multiset `v`.
fn index_insert(v: &mut Vec<ThreadId>, tid: ThreadId) {
    let pos = v.partition_point(|&u| u <= tid);
    v.insert(pos, tid);
}

/// Removes one occurrence of `tid` from the age-sorted multiset `v`.
fn index_remove(v: &mut Vec<ThreadId>, tid: ThreadId) {
    let found = v.binary_search(&tid);
    debug_assert!(found.is_ok(), "{tid} missing from an age-sorted index");
    if let Ok(pos) = found {
        v.remove(pos);
    }
}

impl PmatScheduler {
    pub fn new(table: Arc<LockTable>) -> Self {
        PmatScheduler {
            sync: SyncCore::new(false),
            book: Bookkeeping::new(table),
            queue: Vec::new(),
            // Pre-sized: quiet lock requests never touch these, so their
            // first allocation would come mid-run, where it moved the
            // heap top and the open-loop benchmark's peak RSS.
            pending: Vec::with_capacity(16),
            pending_on: Vec::new(),
            woken: Vec::with_capacity(16),
            unpredicted: Vec::new(),
            pinners: Vec::new(),
            #[cfg(test)]
            evaluated: 0,
        }
    }

    /// Applies a whole-table bookkeeping call (thread birth or death) for
    /// `tid`. Every call changes only `tid`'s own table, so un-indexing
    /// `tid` before it and re-indexing after keeps the blocker index
    /// exact.
    fn rebook(&mut self, tid: ThreadId, call: impl FnOnce(&mut Bookkeeping)) {
        self.reindex(tid, index_remove);
        call(&mut self.book);
        self.reindex(tid, index_insert);
    }

    /// Applies the change a per-entry bookkeeping call reports for `tid`
    /// to the blocker index: the per-event form of
    /// [`PmatScheduler::rebook`], which moves only that entry's pin
    /// instead of re-indexing the whole table. A pin leaving `m` wakes
    /// the younger requests on `m`; `tid` becoming predicted wakes every
    /// younger request.
    fn rebook_entry(&mut self, tid: ThreadId, change: EntryChange) {
        if change.old_pin != change.new_pin {
            if let Some(m) = change.old_pin {
                index_remove(grow(&mut self.pinners, m), tid);
                self.wake_on(m, Some(tid));
            }
            if let Some(m) = change.new_pin {
                index_insert(grow(&mut self.pinners, m), tid);
            }
        }
        match (change.was_predicted, change.predicted) {
            (false, true) => {
                index_remove(&mut self.unpredicted, tid);
                self.wake_younger(tid);
            }
            (true, false) => index_insert(&mut self.unpredicted, tid),
            _ => {}
        }
    }

    /// Applies `edit` to every index list `tid`'s current table puts it
    /// in. Untracked (finished or never admitted) threads are in none.
    fn reindex(&mut self, tid: ThreadId, edit: fn(&mut Vec<ThreadId>, ThreadId)) {
        if !self.book.is_tracked(tid) {
            return;
        }
        if !self.book.is_predicted(tid) {
            edit(&mut self.unpredicted, tid);
        }
        self.book
            .for_each_pinned(tid, |m| edit(grow(&mut self.pinners, m), tid));
    }

    /// The §4.3 grant condition for `tid` requesting `mutex`: every
    /// older queued thread that is unpredicted or pins `mutex` must be
    /// parked in `mutex`'s wait set. That is the rule "every predecessor
    /// is predicted and may not lock `mutex`", because a predicted
    /// thread may lock exactly the mutexes it pins.
    ///
    /// A predecessor parked in `mutex`'s wait set does not conflict even
    /// though its table pins the monitor: it can only re-acquire after a
    /// notify, which requires someone else to lock the monitor first —
    /// exempting waiters is what keeps the standard producer/consumer
    /// pattern live under PMAT. The exemption holds even for unpredicted
    /// waiters — without it the notifier could never enter and the wait
    /// would never end.
    fn eligible(&self, tid: ThreadId, mutex: MutexId) -> bool {
        let pinners = self
            .pinners
            .get(mutex.index())
            .map_or(&[][..], Vec::as_slice);
        let ok = older(&self.unpredicted, tid)
            .iter()
            .chain(older(pinners, tid))
            .all(|&u| self.sync.is_waiting(u, mutex));
        #[cfg(debug_assertions)]
        assert_eq!(
            ok,
            self.eligible_reference(tid, mutex),
            "blocker index disagrees with the queue walk for {tid} on {mutex}"
        );
        ok
    }

    /// The §4.3 rule as a walk over the older queue prefix, querying
    /// each predecessor's table: the oracle [`PmatScheduler::eligible`]
    /// is checked against in every debug build.
    #[cfg(any(test, debug_assertions))]
    fn eligible_reference(&self, tid: ThreadId, mutex: MutexId) -> bool {
        self.queue.iter().take_while(|&&u| u < tid).all(|&u| {
            self.sync.is_waiting(u, mutex)
                || (self.book.is_predicted(u) && !self.book.may_lock(u, mutex))
        })
    }

    /// True when no request is pending or woken and the blocker index is
    /// empty — the state the scheduler must return to once the queue
    /// empties.
    #[cfg(any(test, debug_assertions))]
    fn index_drained(&self) -> bool {
        self.pending.is_empty()
            && self.woken.is_empty()
            && self.pending_on.iter().all(Vec::is_empty)
            && self.unpredicted.is_empty()
            && self.pinners.iter().all(Vec::is_empty)
    }

    /// Wakes the oldest pending request on `mutex` younger than `actor`,
    /// or the oldest of all for `None` (see [`first_request_on`]).
    fn wake_on(&mut self, mutex: MutexId, actor: Option<ThreadId>) {
        self.woken
            .extend(first_request_on(&self.pending_on, mutex, actor));
    }

    /// Wakes what `tid` leaving the queue can unblock: the requests its
    /// remaining index entries gate (every younger one while it is
    /// unpredicted, the oldest younger one on each mutex it still pins).
    /// What a predicted thread stopped gating earlier was woken when its
    /// pin left.
    fn wake_finished(&mut self, tid: ThreadId) {
        if !self.book.is_predicted(tid) {
            self.wake_younger(tid);
            return;
        }
        let (pending_on, woken) = (&self.pending_on, &mut self.woken);
        self.book.for_each_pinned(tid, |m| {
            woken.extend(first_request_on(pending_on, m, Some(tid)))
        });
    }

    /// Wakes every pending request younger than `actor`.
    fn wake_younger(&mut self, actor: ThreadId) {
        let from = self.pending.partition_point(|&(u, _)| u <= actor);
        self.woken
            .extend(self.pending[from..].iter().map(|&(u, _)| u));
    }

    /// Evaluates the woken requests in age order and grants what the
    /// rule and the monitor state allow. Eligibility cannot change within
    /// one pass (a grant moves no index entry and no waiter), and every
    /// request left off the wake list stayed blocked since the last
    /// recheck, so this grants exactly what re-testing every pending
    /// request would.
    fn recheck(&mut self, out: &mut SchedOutput) {
        if self.woken.is_empty() {
            #[cfg(debug_assertions)]
            self.assert_settled();
            return;
        }
        // `Unlocked` and `WaitCalled` hand a freed monitor to its
        // re-acquirers before rechecking, so none can be queued on a
        // mutex a pending request sees free.
        debug_assert!(
            self.pending
                .iter()
                .all(|&(_, m)| !self.sync.is_free(m) || self.sync.queued(m).is_empty()),
            "a re-acquirer is queued on a free mutex"
        );
        // Taken out for the pass (the loop mutates `self`) and put back
        // empty, keeping its allocation.
        let mut woken = std::mem::take(&mut self.woken);
        woken.sort_unstable();
        woken.dedup();
        for &tid in &woken {
            let found = self.pending.binary_search_by_key(&tid, |&(u, _)| u);
            debug_assert!(found.is_ok(), "woken {tid} is not pending");
            let Ok(pos) = found else { continue };
            let mutex = self.pending[pos].1;
            #[cfg(test)]
            {
                self.evaluated += 1;
            }
            if !self.sync.is_free(mutex) || !self.eligible(tid, mutex) {
                continue;
            }
            let outcome = self.sync.lock(tid, mutex);
            debug_assert_eq!(outcome, LockOutcome::Acquired);
            self.pending.remove(pos);
            index_remove(&mut self.pending_on[mutex.index()], tid);
            out.decision(|| Decision::Grant {
                tid,
                mutex,
                from_wait: false,
            });
            out.push(SchedAction::Resume(tid));
        }
        woken.clear();
        self.woken = woken;
        #[cfg(debug_assertions)]
        self.assert_settled();
    }

    /// Asserts that no pending request is grantable: what a recheck
    /// leaves behind when the wake list missed nothing.
    #[cfg(debug_assertions)]
    fn assert_settled(&self) {
        assert!(
            self.pending
                .iter()
                .all(|&(tid, m)| !self.sync.is_free(m) || !self.eligible(tid, m)),
            "a request left pending is grantable: the wake list missed it"
        );
    }

    /// Adds `tid`'s request for `mutex` to the pending requests.
    fn park(&mut self, tid: ThreadId, mutex: MutexId) {
        let pos = self.pending.partition_point(|&(u, _)| u < tid);
        self.pending.insert(pos, (tid, mutex));
        index_insert(grow(&mut self.pending_on, mutex), tid);
    }

    /// Decides a lock request that woke nothing: grants it now if the
    /// rule and the monitor allow, in the decision order a recheck would
    /// record (`Predict`, then `Grant`), or parks it. No recheck follows:
    /// every other pending request stayed blocked.
    fn decide_quiet(&mut self, tid: ThreadId, mutex: MutexId, out: &mut SchedOutput) {
        let granted = self.sync.is_free(mutex) && self.eligible(tid, mutex);
        out.decision(|| Decision::Predict {
            tid,
            mutex,
            granted,
        });
        if !granted {
            #[cfg(debug_assertions)]
            assert!(
                !(self.sync.is_free(mutex) && self.eligible_reference(tid, mutex)),
                "quiet request of {tid} on {mutex} parked but grantable"
            );
            self.park(tid, mutex);
            return;
        }
        let outcome = self.sync.lock(tid, mutex);
        debug_assert_eq!(outcome, LockOutcome::Acquired);
        out.decision(|| Decision::Grant {
            tid,
            mutex,
            from_wait: false,
        });
        out.push(SchedAction::Resume(tid));
    }

    /// Grants queued re-acquirers of `mutex` if it is free.
    fn drain_reacquirers(&mut self, mutex: MutexId, out: &mut SchedOutput) {
        if self.sync.is_free(mutex) {
            if let Some(g) = self.sync.grant_next(mutex) {
                debug_assert!(g.from_wait);
                out.decision(|| Decision::Grant {
                    tid: g.tid,
                    mutex,
                    from_wait: true,
                });
                out.push(SchedAction::Resume(g.tid));
            }
        }
    }
}

impl Scheduler for PmatScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Pmat
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, method, .. } => {
                if let Err(pos) = self.queue.binary_search(&tid) {
                    self.queue.insert(pos, tid);
                }
                self.rebook(tid, |b| b.on_request(tid, method));
                out.decision(|| Decision::Admit { tid });
                out.push(SchedAction::Admit(tid));
            }
            SchedEvent::LockRequested {
                tid,
                sync_id,
                mutex,
            } => {
                let change = self.book.on_lock(tid, sync_id, mutex);
                self.rebook_entry(tid, change);
                if self.sync.holds(tid, mutex) {
                    let outcome = self.sync.lock(tid, mutex);
                    debug_assert_eq!(outcome, LockOutcome::Acquired);
                    out.decision(|| Decision::Grant {
                        tid,
                        mutex,
                        from_wait: false,
                    });
                    out.push(SchedAction::Resume(tid));
                    // No recheck here: what the bookkeeping call woke
                    // waits on the list for the next one.
                    return;
                }
                if self.woken.is_empty() {
                    // A quiet request: the bookkeeping call woke nothing,
                    // so this request is the only one a recheck would
                    // evaluate. Decide it here, off the wake list.
                    self.decide_quiet(tid, mutex, out);
                    return;
                }
                self.park(tid, mutex);
                self.woken.push(tid);
                // The §4.3 prediction verdict at request time; a `false`
                // here shows up as a later Grant once a recheck passes.
                out.decision(|| Decision::Predict {
                    tid,
                    mutex,
                    granted: self.eligible(tid, mutex) && self.sync.is_free(mutex),
                });
                self.recheck(out);
            }
            SchedEvent::Unlocked {
                tid,
                sync_id,
                mutex,
            } => {
                let change = self.book.on_unlock(tid, sync_id, mutex);
                self.rebook_entry(tid, change);
                self.sync.unlock(tid, mutex);
                self.drain_reacquirers(mutex, out);
                // The paper's "thread conflicting with t releases the
                // mutex" event (the future-set shrink woke its own).
                self.wake_on(mutex, None);
                self.recheck(out);
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                self.sync.wait(tid, mutex);
                self.drain_reacquirers(mutex, out);
                // A release, and a new waiter exempt from conflicts on
                // `mutex`.
                self.wake_on(mutex, None);
                self.recheck(out);
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                self.sync.notify(tid, mutex, all);
            }
            SchedEvent::NestedStarted { .. } => {
                // Keeps queue position and bookkeeping (see module docs).
            }
            SchedEvent::NestedCompleted { tid } => out.push(SchedAction::Resume(tid)),
            SchedEvent::ThreadFinished { tid } => {
                debug_assert!(self.sync.holds_none(tid));
                self.wake_finished(tid);
                self.rebook(tid, |b| b.on_finish(tid));
                if let Ok(pos) = self.queue.binary_search(&tid) {
                    self.queue.remove(pos);
                }
                #[cfg(debug_assertions)]
                assert!(
                    !self.queue.is_empty() || self.index_drained(),
                    "empty queue left pending requests or index entries"
                );
                // "A thread conflicting with t is removed from the list" /
                // "t_u is removed from the list".
                self.recheck(out);
            }
            SchedEvent::LockInfo {
                tid,
                sync_id,
                mutex,
            } => {
                let change = self.book.on_lock_info(tid, sync_id, mutex);
                self.rebook_entry(tid, change);
                // "t_u becomes predicted" may now hold.
                self.recheck(out);
            }
            SchedEvent::SyncIgnored { tid, sync_id } => {
                let change = self.book.on_ignore(tid, sync_id);
                self.rebook_entry(tid, change);
                self.recheck(out);
            }
            SchedEvent::Control(_) => {}
        }
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
    fn m(v: u32) -> MutexId {
        MutexId::new(v)
    }
    fn s_(v: u32) -> SyncId {
        SyncId::new(v)
    }
    fn e(sid: u32) -> StaticSyncEntry {
        StaticSyncEntry {
            sync_id: s_(sid),
            repeatable: false,
        }
    }

    /// One method with a single sync block (syncid 0).
    fn one_lock_table() -> Arc<LockTable> {
        Arc::new(LockTable::new(vec![Some(vec![e(0)])]))
    }

    fn arrive(tid: u32) -> SchedEvent {
        SchedEvent::RequestArrived {
            tid: t(tid),
            method: MethodIdx::new(0),
            request_seq: tid as u64,
            dummy: false,
        }
    }
    fn info(tid: u32, sid: u32, mx: u32) -> SchedEvent {
        SchedEvent::LockInfo {
            tid: t(tid),
            sync_id: s_(sid),
            mutex: m(mx),
        }
    }
    fn lock(tid: u32, sid: u32, mx: u32) -> SchedEvent {
        SchedEvent::LockRequested {
            tid: t(tid),
            sync_id: s_(sid),
            mutex: m(mx),
        }
    }
    fn unlock(tid: u32, sid: u32, mx: u32) -> SchedEvent {
        SchedEvent::Unlocked {
            tid: t(tid),
            sync_id: s_(sid),
            mutex: m(mx),
        }
    }
    fn finish(tid: u32) -> SchedEvent {
        SchedEvent::ThreadFinished { tid: t(tid) }
    }

    #[test]
    fn head_of_queue_always_locks() {
        let mut s = PmatScheduler::new(one_lock_table());
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(&lock(0, 0, 7), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn unpredicted_predecessor_blocks_younger_thread() {
        let mut s = PmatScheduler::new(one_lock_table());
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t1 requests m9; t0 has not announced anything → blocked.
        s.on_event(&lock(1, 0, 9), &mut out);
        assert!(out.actions.is_empty());
        // t0 announces a *different* mutex: t1 unblocks (Figure 3(b)).
        s.on_event(&info(0, 0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    #[test]
    fn conflicting_announcement_keeps_blocking_until_done() {
        let mut s = PmatScheduler::new(one_lock_table());
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t0 announces m9 — the same mutex t1 wants.
        s.on_event(&info(0, 0, 9), &mut out);
        s.on_event(&lock(1, 0, 9), &mut out);
        assert!(out.actions.is_empty(), "announced future conflict blocks");
        // t0 takes and releases its lock: entry Done → t1 granted.
        s.on_event(&lock(0, 0, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 0, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.sync_core().owner(m(9)), Some(t(1)));
    }

    #[test]
    fn predecessor_finishing_unblocks() {
        let table = Arc::new(LockTable::unanalyzed(1));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // t0 is unanalysed: never predicted; t1 blocks.
        s.on_event(&lock(1, 0, 9), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&finish(0), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    #[test]
    fn grants_same_mutex_in_age_order() {
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0)]),
            Some(vec![e(1)]),
            Some(vec![e(2)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        for (i, method) in [(0u32, 0u32), (1, 1), (2, 2)] {
            s.on_event(
                &SchedEvent::RequestArrived {
                    tid: t(i),
                    method: MethodIdx::new(method),
                    request_seq: i as u64,
                    dummy: false,
                },
                &mut out,
            );
        }
        out.clear();
        // Everyone announces m5, younger threads request first.
        s.on_event(&info(0, 0, 5), &mut out);
        s.on_event(&info(1, 1, 5), &mut out);
        s.on_event(&info(2, 2, 5), &mut out);
        s.on_event(&lock(2, 2, 5), &mut out);
        s.on_event(&lock(1, 1, 5), &mut out);
        assert!(
            out.actions.is_empty(),
            "older conflicting announcements block"
        );
        s.on_event(&lock(0, 0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 0, 5), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(1))],
            "age order, not request order"
        );
        out.clear();
        s.on_event(&unlock(1, 1, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(2))]);
        out.clear();
        s.on_event(&unlock(2, 2, 5), &mut out);
        assert!(out.actions.is_empty());
        assert!(s.sync_core().is_quiescent());
    }

    #[test]
    fn disjoint_lock_sets_run_concurrently() {
        // The Figure 3(b) ideal: predicted, non-overlapping threads all
        // hold their locks at once.
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0)]),
            Some(vec![e(1)]),
            Some(vec![e(2)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        for i in 0..3u32 {
            s.on_event(
                &SchedEvent::RequestArrived {
                    tid: t(i),
                    method: MethodIdx::new(i),
                    request_seq: i as u64,
                    dummy: false,
                },
                &mut out,
            );
        }
        out.clear();
        s.on_event(&info(0, 0, 10), &mut out);
        s.on_event(&info(1, 1, 11), &mut out);
        s.on_event(&info(2, 2, 12), &mut out);
        s.on_event(&lock(2, 2, 12), &mut out);
        s.on_event(&lock(1, 1, 11), &mut out);
        s.on_event(&lock(0, 0, 10), &mut out);
        // All three granted — true concurrency under determinism.
        assert_eq!(
            out.actions,
            vec![
                SchedAction::Resume(t(2)),
                SchedAction::Resume(t(1)),
                SchedAction::Resume(t(0))
            ]
        );
        assert_eq!(s.sync_core().owner(m(10)), Some(t(0)));
        assert_eq!(s.sync_core().owner(m(11)), Some(t(1)));
        assert_eq!(s.sync_core().owner(m(12)), Some(t(2)));
    }

    #[test]
    fn suspended_unpredicted_predecessor_still_blocks() {
        let mut s = PmatScheduler::new(one_lock_table());
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        s.on_event(&lock(1, 0, 9), &mut out);
        assert!(
            out.actions.is_empty(),
            "suspension does not remove t0 from the queue"
        );
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&info(0, 0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    #[test]
    fn wait_and_notify_reacquire_deterministically() {
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(
            &SchedEvent::RequestArrived {
                tid: t(1),
                method: MethodIdx::new(1),
                request_seq: 1,
                dummy: false,
            },
            &mut out,
        );
        out.clear();
        s.on_event(&lock(0, 0, 3), &mut out);
        out.clear();
        s.on_event(
            &SchedEvent::WaitCalled {
                tid: t(0),
                mutex: m(3),
            },
            &mut out,
        );
        assert_eq!(s.sync_core().wait_set(m(3)), vec![t(0)]);
        // t0 pins m3 in its table but sits in m3's wait set, so the
        // notifier t1 may take the monitor — the producer/consumer
        // pattern must stay live.
        s.on_event(&lock(1, 1, 3), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        out.clear();
        s.on_event(
            &SchedEvent::NotifyCalled {
                tid: t(1),
                mutex: m(3),
                all: false,
            },
            &mut out,
        );
        s.on_event(&unlock(1, 1, 3), &mut out);
        // t0 re-acquires on the notifier's release.
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        assert_eq!(s.sync_core().owner(m(3)), Some(t(0)));
    }

    fn arrive_m(tid: u32, method: u32) -> SchedEvent {
        SchedEvent::RequestArrived {
            tid: t(tid),
            method: MethodIdx::new(method),
            request_seq: tid as u64,
            dummy: false,
        }
    }
    fn wait(tid: u32, mx: u32) -> SchedEvent {
        SchedEvent::WaitCalled {
            tid: t(tid),
            mutex: m(mx),
        }
    }
    fn notify(tid: u32, mx: u32) -> SchedEvent {
        SchedEvent::NotifyCalled {
            tid: t(tid),
            mutex: m(mx),
            all: false,
        }
    }
    fn ignore(tid: u32, sid: u32) -> SchedEvent {
        SchedEvent::SyncIgnored {
            tid: t(tid),
            sync_id: s_(sid),
        }
    }

    /// The index and the queue walk agree for every queued thread on
    /// every mutex the scenarios use (also in release test builds, where
    /// `eligible` does not cross-check itself).
    fn assert_index_agrees(s: &PmatScheduler) {
        for &u in &s.queue {
            for mx in 0..16 {
                assert_eq!(s.eligible(u, m(mx)), s.eligible_reference(u, m(mx)));
            }
        }
    }

    #[test]
    fn unpredicted_waiter_is_exempt_only_for_its_own_mutex() {
        // t0 holds m3 from syncid 0 and has not resolved syncid 1, so it
        // is unpredicted; then it waits on m3.
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0), e(1)]),
            Some(vec![e(2)]),
            Some(vec![e(3)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        for i in 0..3 {
            s.on_event(&arrive_m(i, i), &mut out);
        }
        s.on_event(&lock(0, 0, 3), &mut out);
        s.on_event(&wait(0, 3), &mut out);
        out.clear();
        s.on_event(&lock(1, 2, 3), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(1))],
            "a waiter on m3 does not block m3"
        );
        out.clear();
        s.on_event(&lock(2, 3, 4), &mut out);
        assert!(
            out.actions.is_empty(),
            "the same unpredicted waiter still blocks m4"
        );
        assert_index_agrees(&s);
        s.on_event(&notify(1, 3), &mut out);
        s.on_event(&unlock(1, 2, 3), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 0, 3), &mut out);
        assert!(out.actions.is_empty(), "t0 is still unpredicted");
        assert_index_agrees(&s);
        s.on_event(&ignore(0, 1), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(2))]);
        s.on_event(&unlock(2, 3, 4), &mut out);
        for i in 0..3 {
            s.on_event(&finish(i), &mut out);
        }
        assert!(s.index_drained());
    }

    #[test]
    fn double_pinner_blocks_until_both_entries_are_done() {
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0), e(1)]),
            Some(vec![e(2)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        // t0 pins m5 from both of its entries.
        s.on_event(&info(0, 0, 5), &mut out);
        s.on_event(&info(0, 1, 5), &mut out);
        s.on_event(&info(1, 2, 5), &mut out);
        out.clear();
        s.on_event(&lock(1, 2, 5), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&lock(0, 0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 0, 5), &mut out);
        assert!(
            out.actions.is_empty(),
            "t0's second entry still pins m5 after the first is Done"
        );
        assert_index_agrees(&s);
        s.on_event(&lock(0, 1, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 1, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        s.on_event(&unlock(1, 2, 5), &mut out);
        s.on_event(&finish(0), &mut out);
        s.on_event(&finish(1), &mut out);
        assert!(s.index_drained());
    }

    #[test]
    fn lock_outside_the_table_makes_a_predicted_elder_block_again() {
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        s.on_event(&info(0, 0, 5), &mut out);
        // A lock at a syncid t0's table does not list: the analysis was
        // incomplete, so t0 degrades to unpredicted.
        s.on_event(&lock(0, 99, 7), &mut out);
        out.clear();
        s.on_event(&lock(1, 1, 9), &mut out);
        assert!(out.actions.is_empty(), "degraded t0 blocks every mutex");
        assert_index_agrees(&s);
        s.on_event(&unlock(0, 99, 7), &mut out);
        s.on_event(&finish(0), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        s.on_event(&unlock(1, 1, 9), &mut out);
        s.on_event(&finish(1), &mut out);
        assert!(s.index_drained());
    }

    #[test]
    fn reentrant_lock_defers_its_wakes_to_the_next_recheck() {
        // t0's two sync blocks lock m3; its second entry is unresolved,
        // so t0 is unpredicted and blocks t1's request for m9.
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0), e(1)]),
            Some(vec![e(2)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        s.on_event(&lock(0, 0, 3), &mut out);
        s.on_event(&lock(1, 2, 9), &mut out);
        out.clear();
        // The nested lock of m3 resolves t0's last entry: t0 becomes
        // predicted, but a reentrant lock grants only itself.
        s.on_event(&lock(0, 1, 3), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        // The inner unlock frees nothing and wakes nothing on m9 by
        // itself; the carried-over wake grants t1.
        s.on_event(&unlock(0, 1, 3), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        s.on_event(&unlock(0, 0, 3), &mut out);
        s.on_event(&unlock(1, 2, 9), &mut out);
        s.on_event(&finish(0), &mut out);
        s.on_event(&finish(1), &mut out);
        assert!(s.index_drained());
    }

    #[test]
    fn finishing_predicted_elder_that_pins_nothing_wakes_nothing() {
        // t0 is predicted and pins nothing, so it is in no index list;
        // t2's request for m9 is blocked by the unpredicted t1 alone.
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0)]),
            Some(vec![e(1)]),
            Some(vec![e(2)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        for i in 0..3 {
            s.on_event(&arrive_m(i, i), &mut out);
        }
        s.on_event(&ignore(0, 0), &mut out);
        out.clear();
        s.on_event(&lock(2, 2, 9), &mut out);
        assert!(out.actions.is_empty(), "t1 is unpredicted");
        s.evaluated = 0;
        // t0 leaving the queue gated nothing: the recheck evaluates
        // nothing.
        s.on_event(&finish(0), &mut out);
        assert!(out.actions.is_empty());
        assert_eq!(s.evaluated, 0);
        // t1 becoming predicted wakes and grants t2.
        s.on_event(&ignore(1, 1), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(2))]);
        assert_eq!(s.evaluated, 1);
        s.on_event(&unlock(2, 2, 9), &mut out);
        s.on_event(&finish(1), &mut out);
        s.on_event(&finish(2), &mut out);
        assert!(s.index_drained());
    }

    #[test]
    fn release_wakes_an_older_request() {
        // t1 takes m9 while predicted t0 pins only m5; then t0 locks m9
        // at a syncid its table does not list and queues behind t1.
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        s.on_event(&info(0, 0, 5), &mut out);
        out.clear();
        s.on_event(&lock(1, 1, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        out.clear();
        s.on_event(&lock(0, 99, 9), &mut out);
        assert!(out.actions.is_empty(), "m9 is held");
        // t1's pin on m9 leaves only for younger requests; the release
        // itself must wake the older one.
        s.on_event(&unlock(1, 1, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        s.on_event(&unlock(0, 99, 9), &mut out);
        s.on_event(&finish(0), &mut out);
        s.on_event(&finish(1), &mut out);
        assert!(s.index_drained());
    }

    #[test]
    fn quiet_grant_skips_the_wake_list() {
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        s.on_event(&info(0, 0, 5), &mut out);
        out.clear();
        s.evaluated = 0;
        // t0 is predicted and pins only m5: t1's request for m9 wakes
        // nothing and is granted on the spot.
        s.on_event(&lock(1, 1, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert!(s.pending.is_empty() && s.woken.is_empty());
        assert!(s.pending_on.iter().all(Vec::is_empty));
        assert_eq!(s.evaluated, 0);
    }

    #[test]
    fn quiet_blocked_request_is_granted_by_its_blockers_release() {
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::recording();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        s.on_event(&lock(0, 0, 9), &mut out);
        out.clear();
        s.evaluated = 0;
        // t0 holds m9: t1's request wakes nothing and is parked.
        s.on_event(&lock(1, 1, 9), &mut out);
        assert!(out.actions.is_empty());
        assert_eq!(
            out.decisions(),
            [Decision::Predict {
                tid: t(1),
                mutex: m(9),
                granted: false
            }]
        );
        assert_eq!(s.pending, vec![(t(1), m(9))]);
        assert_eq!(s.evaluated, 0);
        s.on_event(&unlock(0, 0, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.sync_core().owner(m(9)), Some(t(1)));
        s.on_event(&unlock(1, 1, 9), &mut out);
        s.on_event(&finish(0), &mut out);
        s.on_event(&finish(1), &mut out);
        assert!(s.index_drained());
    }

    #[test]
    fn granted_request_records_predict_then_grant_on_both_paths() {
        let grant = |tid, mx| {
            [
                Decision::Predict {
                    tid: t(tid),
                    mutex: m(mx),
                    granted: true,
                },
                Decision::Grant {
                    tid: t(tid),
                    mutex: m(mx),
                    from_wait: false,
                },
            ]
        };
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::recording();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        // The unpredicted t0 blocks t1's request for m9.
        s.on_event(&lock(1, 1, 9), &mut out);
        out.clear();
        // t0's own request makes it predicted and so wakes t1: the woken
        // path grants both, t0 first.
        s.on_event(&lock(0, 0, 5), &mut out);
        let [predict, grant_t0] = grant(0, 5);
        assert_eq!(out.decisions(), [predict, grant_t0, grant(1, 9)[1]]);
        assert_eq!(s.evaluated, 2);
        s.on_event(&unlock(0, 0, 5), &mut out);
        s.on_event(&unlock(1, 1, 9), &mut out);
        s.on_event(&finish(0), &mut out);
        s.on_event(&finish(1), &mut out);
        // A lone request on the now empty queue takes the quiet path.
        s.on_event(&arrive_m(2, 0), &mut out);
        out.clear();
        s.evaluated = 0;
        s.on_event(&lock(2, 0, 5), &mut out);
        assert_eq!(out.decisions(), grant(2, 5));
        assert_eq!(s.evaluated, 0);
    }

    #[test]
    fn release_wakes_only_the_oldest_request_on_the_mutex() {
        let table = Arc::new(LockTable::new(vec![Some(vec![e(0)]), Some(vec![e(1)])]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        for i in 0..3 {
            s.on_event(&arrive_m(i, i.min(1)), &mut out);
        }
        s.on_event(&lock(0, 0, 9), &mut out);
        s.on_event(&lock(1, 1, 9), &mut out);
        s.on_event(&lock(2, 1, 9), &mut out);
        out.clear();
        s.evaluated = 0;
        // t1 pins m9 by its own request, so t2 stays blocked whoever
        // holds m9: the release evaluates t1 alone.
        s.on_event(&unlock(0, 0, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.evaluated, 1);
        out.clear();
        s.on_event(&unlock(1, 1, 9), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(2))]);
        assert_eq!(s.evaluated, 2);
        s.on_event(&unlock(2, 1, 9), &mut out);
        for i in 0..3 {
            s.on_event(&finish(i), &mut out);
        }
        assert!(s.index_drained());
    }

    #[test]
    fn event_that_relaxes_nothing_evaluates_nothing() {
        // t0 holds m3 and stays unpredicted (syncid 1 unresolved), so
        // t1's request for m9 stays blocked.
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0), e(1)]),
            Some(vec![e(2)]),
        ]));
        let mut s = PmatScheduler::new(table);
        let mut out = SchedOutput::new();
        s.on_event(&arrive_m(0, 0), &mut out);
        s.on_event(&arrive_m(1, 1), &mut out);
        s.on_event(&lock(0, 0, 3), &mut out);
        s.on_event(&lock(1, 2, 9), &mut out);
        out.clear();
        s.evaluated = 0;
        // Releasing m3 rechecks, but no request waits on m3 and t0 is
        // still unpredicted: nothing is woken, nothing evaluated.
        s.on_event(&unlock(0, 0, 3), &mut out);
        assert!(out.actions.is_empty());
        assert_eq!(s.evaluated, 0);
        // t0 becoming predicted wakes exactly t1.
        s.on_event(&ignore(0, 1), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        assert_eq!(s.evaluated, 1);
    }
}
