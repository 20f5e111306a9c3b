//! PDS — preemptive deterministic scheduling (paper §3.3, after Basile
//! et al., DSN'03).
//!
//! A pool of `batch_size` threads processes requests. Each pool member
//! runs freely until it requests a lock; the request is *collected*, not
//! granted. Only when every member has either collected a request or
//! finished does the grant phase run, forwarding collected requests in
//! thread-age order (conflicts on the same mutex therefore resolve
//! identically on every replica). Members then execute their critical
//! sections and run on to their next lock request, which the next round
//! collects. `locks_per_round > 1` is the paper's "optimised version":
//! a member may receive that many grants per round.
//!
//! **Suspension handling** (the part the paper calls "even more
//! complicated"): a member that suspends — nested invocation or `wait` —
//! *leaves the pool*. Its wake-up is a totally ordered event, and its
//! next lock request re-enters through the same waiting-room queue fresh
//! requests use, so round membership stays a deterministic function of
//! the total order. (The naive alternative, letting a woken member join
//! whatever round its replica happens to be in, makes same-mutex grant
//! order depend on local timing — our determinism checker caught exactly
//! that.) A woken thread that still *holds* monitors rejoins the pool
//! immediately: it must be able to run to its unlocks, or members queued
//! on those monitors could never proceed. This immediate rejoin is the
//! one residual timing-sensitive path; it only matters for objects that
//! suspend *inside* critical sections, which the paper's model (and our
//! workloads) avoid.
//!
//! Starvation (paper §3.3): when fewer live requests than pool slots
//! exist while someone waits for a grant, the scheduler emits
//! [`SchedAction::RequestDummy`]; the engine routes a no-op request
//! through the group communication system so every replica sees the dummy
//! at the same position — the "higher communication overhead" the paper
//! prices in.

use crate::event::{SchedAction, SchedEvent};
use crate::ids::ThreadId;
use crate::obs::{Decision, DeferReason, DepthSample, SchedOutput};
use crate::scheduler::{PdsConfig, Scheduler, SchedulerKind};
use crate::slot::SlotMap;
use crate::sync_core::{LockOutcome, SyncCore};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum St {
    /// In the waiting room (fresh request or re-entry after suspension).
    Queued,
    /// Pool member, running towards its next lock request.
    Running,
    /// Pool member, lock request collected, awaiting the grant phase.
    Collected,
    /// Pool member, granted but the monitor was held; in the monitor
    /// queue.
    CoreBlocked,
    /// Not in the pool: suspended (nested call / wait set) or paroled
    /// (woken, running, but without lock permission).
    Out,
    Finished,
}

struct Member {
    st: St,
    /// Mirror of `pool` membership so the hot path never scans the pool
    /// vector to answer "is this thread a member?".
    in_pool: bool,
    /// Pending lock request (Collected, or Queued re-entry).
    pending: Option<dmt_lang::MutexId>,
    grants_used: u32,
    dummy: bool,
}

#[derive(Clone, Copy, Debug)]
enum RoomEntry {
    /// Never ran: admission emits `Admit`.
    Fresh(ThreadId),
    /// Woken thread gated at a lock: admission collects its request.
    Reentry(ThreadId),
}

impl RoomEntry {
    fn tid(self) -> ThreadId {
        match self {
            RoomEntry::Fresh(t) | RoomEntry::Reentry(t) => t,
        }
    }
}

pub struct PdsScheduler {
    cfg: PdsConfig,
    sync: SyncCore,
    /// Member records, indexed by the dense thread id. Every request ever
    /// admitted keeps its slot (threads are never forgotten), so
    /// `real_unfinished` tracks liveness instead of a full scan.
    threads: SlotMap<Member>,
    waiting_room: VecDeque<RoomEntry>,
    /// Pool membership, kept age-sorted.
    pool: Vec<ThreadId>,
    dummies_in_flight: usize,
    /// Count of non-dummy members not yet `Finished` — the O(1) answer
    /// to `real_work_left`, which runs on every event.
    real_unfinished: usize,
    /// Pool members not yet settled (still `Running` towards their next
    /// lock request). `barrier_met` runs after every event, so this is
    /// maintained incrementally instead of scanning the pool.
    pool_unsettled: usize,
    /// Pool members in `Collected` — the O(1) answer to "does anyone
    /// wait for a grant?" in `fill_slots`.
    pool_collected: usize,
}

impl PdsScheduler {
    pub fn new(cfg: PdsConfig) -> Self {
        assert!(cfg.batch_size >= 1, "PDS needs at least one pool slot");
        assert!(cfg.locks_per_round >= 1);
        PdsScheduler {
            cfg,
            sync: SyncCore::new(true),
            threads: SlotMap::new(),
            waiting_room: VecDeque::new(),
            pool: Vec::new(),
            dummies_in_flight: 0,
            real_unfinished: 0,
            pool_unsettled: 0,
            pool_collected: 0,
        }
    }

    pub fn pool(&self) -> &[ThreadId] {
        &self.pool
    }

    fn member(&mut self, tid: ThreadId) -> &mut Member {
        self.threads.get_mut(tid.index()).expect("unknown thread")
    }

    fn mref(&self, tid: ThreadId) -> &Member {
        self.threads.get(tid.index()).expect("unknown thread")
    }

    fn real_work_left(&self) -> bool {
        self.real_unfinished > 0
    }

    fn settled_st(st: St) -> bool {
        matches!(st, St::Collected | St::CoreBlocked | St::Finished)
    }

    /// The one place a member's state changes: keeps the incremental
    /// pool counters (`pool_unsettled`, `pool_collected`) in sync.
    fn set_st(&mut self, tid: ThreadId, st: St) {
        let m = self.threads.get_mut(tid.index()).expect("unknown thread");
        let old = m.st;
        m.st = st;
        if m.in_pool {
            self.pool_unsettled += usize::from(!Self::settled_st(st));
            self.pool_unsettled -= usize::from(!Self::settled_st(old));
            self.pool_collected += usize::from(st == St::Collected);
            self.pool_collected -= usize::from(old == St::Collected);
        }
    }

    fn leave_pool(&mut self, tid: ThreadId) {
        let m = self.threads.get_mut(tid.index()).expect("unknown thread");
        if !m.in_pool {
            return;
        }
        m.in_pool = false;
        let st = m.st;
        self.pool_unsettled -= usize::from(!Self::settled_st(st));
        self.pool_collected -= usize::from(st == St::Collected);
        self.pool.retain(|&t| t != tid);
    }

    fn join_pool(&mut self, tid: ThreadId) {
        let m = self.threads.get_mut(tid.index()).expect("unknown thread");
        debug_assert!(!m.in_pool);
        m.in_pool = true;
        let st = m.st;
        self.pool_unsettled += usize::from(!Self::settled_st(st));
        self.pool_collected += usize::from(st == St::Collected);
        self.pool.push(tid);
        self.pool.sort_unstable();
    }

    /// Fills empty pool slots from the waiting room and asks for dummies
    /// when the pool plus its feeders cannot reach quorum while a grant
    /// is stuck. Finished members are *not* evicted here — membership
    /// persists until the round resolves.
    fn fill_slots(&mut self, out: &mut SchedOutput) {
        while self.pool.len() < self.cfg.batch_size {
            let Some(entry) = self.waiting_room.pop_front() else {
                break;
            };
            let tid = entry.tid();
            match entry {
                RoomEntry::Fresh(_) => {
                    debug_assert_eq!(self.mref(tid).st, St::Queued);
                    self.set_st(tid, St::Running);
                    self.member(tid).grants_used = 0;
                    out.decision(|| Decision::Admit { tid });
                    out.push(SchedAction::Admit(tid));
                }
                RoomEntry::Reentry(_) => {
                    // Stale entries happen: the thread finished while
                    // queued, suspended *again* (its wake will enqueue a
                    // fresh entry), or was already re-admitted through an
                    // earlier entry. Admitting a suspended thread as
                    // "Running" would wedge the barrier forever.
                    if self.mref(tid).st != St::Queued || self.mref(tid).in_pool {
                        continue;
                    }
                    // May still be running its post-wake computation (no
                    // pending yet) or already gated at its next lock.
                    let has_pending = self.member(tid).pending.is_some();
                    self.set_st(
                        tid,
                        if has_pending {
                            St::Collected
                        } else {
                            St::Running
                        },
                    );
                    self.member(tid).grants_used = 0;
                }
            }
            self.join_pool(tid);
        }
        if !self.real_work_left() || self.pool_collected == 0 {
            return;
        }
        while self.pool.len() + self.waiting_room.len() + self.dummies_in_flight
            < self.cfg.batch_size
        {
            self.dummies_in_flight += 1;
            out.push(SchedAction::RequestDummy);
        }
    }

    fn settled(&self, tid: ThreadId) -> bool {
        matches!(
            self.mref(tid).st,
            St::Collected | St::CoreBlocked | St::Finished
        )
    }

    /// The §3.3 quorum: every member settled, the pool at full strength
    /// while real work remains. O(1): `pool_unsettled` is maintained at
    /// every state change, so the per-event check never scans the pool.
    fn barrier_met(&self) -> bool {
        debug_assert_eq!(
            self.pool_unsettled,
            self.pool.iter().filter(|&&m| !self.settled(m)).count()
        );
        !self.pool.is_empty()
            && self.pool_unsettled == 0
            && (self.pool.len() >= self.cfg.batch_size || !self.real_work_left())
    }

    /// One grant sweep: every collected member with quota, age order.
    ///
    /// A single forward pass over the (age-sorted) pool: granting a
    /// member moves it to `Running`/`CoreBlocked`, never back to
    /// `Collected`, so no member behind the scan point can become a
    /// candidate again mid-sweep — one pass visits exactly the members a
    /// restart-from-the-front search would, in the same order.
    fn sweep_grants(&mut self, out: &mut SchedOutput) -> bool {
        let mut granted_any = false;
        for i in 0..self.pool.len() {
            let tid = self.pool[i];
            if self.mref(tid).st != St::Collected
                || self.mref(tid).grants_used >= self.cfg.locks_per_round
            {
                continue;
            }
            let mutex = self
                .member(tid)
                .pending
                .take()
                .expect("collected member has request");
            self.member(tid).grants_used += 1;
            granted_any = true;
            match self.sync.lock(tid, mutex) {
                LockOutcome::Acquired => {
                    self.set_st(tid, St::Running);
                    out.decision(|| Decision::Grant {
                        tid,
                        mutex,
                        from_wait: false,
                    });
                    out.push(SchedAction::Resume(tid));
                }
                LockOutcome::Queued => {
                    self.set_st(tid, St::CoreBlocked);
                    out.decision(|| Decision::Defer {
                        tid,
                        mutex,
                        reason: DeferReason::MutexBusy,
                    });
                }
            }
        }
        granted_any
    }

    /// The round/pool state machine, run after every event.
    fn after_change(&mut self, out: &mut SchedOutput) {
        loop {
            self.fill_slots(out);
            if !self.barrier_met() {
                return;
            }
            out.decision(|| Decision::RoundStart {
                pool: self.pool.len() as u32,
                dummies: self.dummies_in_flight as u32,
            });
            if self.sweep_grants(out) {
                return;
            }
            // The sweep granted nothing, so every Collected member has
            // exhausted its quota — "an exhausted member exists" is
            // exactly "any Collected member exists", which the
            // incremental counter already tracks.
            let exhausted_exist = self.pool_collected > 0;
            debug_assert_eq!(
                exhausted_exist,
                self.pool.iter().any(|&m| {
                    self.mref(m).st == St::Collected
                        && self.mref(m).grants_used >= self.cfg.locks_per_round
                })
            );
            if exhausted_exist {
                for &m in &self.pool {
                    self.threads
                        .get_mut(m.index())
                        .expect("pool member")
                        .grants_used = 0;
                }
                continue;
            }
            // Round complete: evict finished members and refill.
            // (Finished members are settled and not Collected, so the
            // incremental counters only need the membership flag
            // cleared.)
            let before = self.pool.len();
            let threads = &mut self.threads;
            self.pool.retain(|tid| {
                let m = threads.get_mut(tid.index()).expect("pool member");
                if m.st == St::Finished {
                    m.in_pool = false;
                    false
                } else {
                    true
                }
            });
            if self.pool.len() == before {
                return;
            }
        }
    }

    /// A grant released a thread from the monitor layer.
    fn on_grant(&mut self, g: crate::sync_core::Grant, out: &mut SchedOutput) {
        out.decision(|| Decision::Grant {
            tid: g.tid,
            mutex: g.mutex,
            from_wait: g.from_wait,
        });
        if g.from_wait {
            // A notified waiter re-acquired its monitor: it was Out; it
            // resumes holding the monitor, so it rejoins the pool at once
            // (see module docs).
            debug_assert_eq!(self.mref(g.tid).st, St::Out);
            self.set_st(g.tid, St::Running);
            self.member(g.tid).grants_used = 0;
            self.join_pool(g.tid);
        } else {
            debug_assert_eq!(self.mref(g.tid).st, St::CoreBlocked);
            self.set_st(g.tid, St::Running);
        }
        out.push(SchedAction::Resume(g.tid));
    }
}

impl Scheduler for PdsScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Pds
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    /// `admission` is the waiting room; `sched_queue` counts pool members
    /// whose collected lock request awaits the round barrier.
    fn depths(&self) -> DepthSample {
        let mut d = self.sync.depths();
        d.admission = self.waiting_room.len() as u32;
        d.sched_queue = self.pool_collected as u32;
        d
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, dummy, .. } => {
                if dummy {
                    self.dummies_in_flight = self.dummies_in_flight.saturating_sub(1);
                } else {
                    self.real_unfinished += 1;
                }
                let prev = self.threads.insert(
                    tid.index(),
                    Member {
                        st: St::Queued,
                        in_pool: false,
                        pending: None,
                        grants_used: 0,
                        dummy,
                    },
                );
                debug_assert!(prev.is_none(), "{tid} arrived twice");
                self.waiting_room.push_back(RoomEntry::Fresh(tid));
                self.after_change(out);
                if self.mref(tid).st == St::Queued {
                    // No free pool slot: parked in the waiting room.
                    out.decision(|| Decision::AdmitDefer { tid });
                }
            }
            SchedEvent::LockRequested { tid, mutex, .. } => {
                if self.sync.holds(tid, mutex) {
                    let outcome = self.sync.lock(tid, mutex);
                    debug_assert_eq!(outcome, LockOutcome::Acquired);
                    out.decision(|| Decision::Grant {
                        tid,
                        mutex,
                        from_wait: false,
                    });
                    out.push(SchedAction::Resume(tid));
                    return;
                }
                match self.mref(tid).st {
                    St::Running => {
                        self.set_st(tid, St::Collected);
                        self.member(tid).pending = Some(mutex);
                    }
                    St::Queued => {
                        // Woken thread still in the waiting room: record
                        // the request; it collects upon admission.
                        self.member(tid).pending = Some(mutex);
                    }
                    other => panic!("{tid} locked in unexpected state {other:?}"),
                }
                out.decision(|| Decision::Defer {
                    tid,
                    mutex,
                    reason: DeferReason::Barrier,
                });
                self.after_change(out);
            }
            SchedEvent::Unlocked { tid, mutex, .. } => {
                if let Some(g) = self.sync.unlock(tid, mutex) {
                    self.on_grant(g, out);
                }
                self.after_change(out);
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                self.leave_pool(tid);
                self.set_st(tid, St::Out);
                if let Some(g) = self.sync.wait(tid, mutex) {
                    self.on_grant(g, out);
                }
                self.after_change(out);
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                self.sync.notify(tid, mutex, all);
            }
            SchedEvent::NestedStarted { tid } => {
                self.leave_pool(tid);
                self.set_st(tid, St::Out);
                self.after_change(out);
            }
            SchedEvent::NestedCompleted { tid } => {
                debug_assert_eq!(self.mref(tid).st, St::Out);
                out.push(SchedAction::Resume(tid));
                if !self.sync.holds_none(tid) {
                    // Monitor holder: must be able to reach its unlocks.
                    self.set_st(tid, St::Running);
                    self.member(tid).grants_used = 0;
                    self.join_pool(tid);
                } else {
                    // Re-entry reserved *now* — the wake is a totally
                    // ordered event, so the waiting-room position (and
                    // with it future round membership) is identical on
                    // every replica. Enqueueing at the thread's next lock
                    // request instead would race local execution against
                    // arrivals and diverge (found by the checker).
                    self.set_st(tid, St::Queued);
                    self.waiting_room.push_back(RoomEntry::Reentry(tid));
                }
                self.after_change(out);
            }
            SchedEvent::ThreadFinished { tid } => {
                debug_assert!(self.sync.holds_none(tid));
                let was_real = !self.mref(tid).dummy;
                self.set_st(tid, St::Finished);
                if !self.mref(tid).in_pool {
                    // Paroled thread finished outside the pool.
                    self.member(tid).pending = None;
                }
                if was_real {
                    debug_assert!(self.real_unfinished > 0);
                    self.real_unfinished -= 1;
                }
                self.after_change(out);
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
    fn arrive_dummy(tid: u32) -> SchedEvent {
        SchedEvent::RequestArrived {
            tid: t(tid),
            method: MethodIdx::new(0),
            request_seq: tid as u64,
            dummy: true,
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
    fn finish(tid: u32) -> SchedEvent {
        SchedEvent::ThreadFinished { tid: t(tid) }
    }

    fn cfg(batch: usize) -> PdsConfig {
        PdsConfig {
            batch_size: batch,
            locks_per_round: 1,
        }
    }

    #[test]
    fn requests_dummies_when_quorum_is_stuck() {
        let mut s = PdsScheduler::new(cfg(3));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        assert!(out.actions.contains(&SchedAction::Admit(t(0))));
        assert!(!out.actions.contains(&SchedAction::RequestDummy));
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        let dummies = out
            .actions
            .iter()
            .filter(|a| **a == SchedAction::RequestDummy)
            .count();
        assert_eq!(dummies, 2);
        out.clear();
        s.on_event(&arrive_dummy(1), &mut out);
        s.on_event(&arrive_dummy(2), &mut out);
        assert!(!out.actions.contains(&SchedAction::RequestDummy));
        assert_eq!(s.pool(), &[t(0), t(1), t(2)]);
        out.clear();
        s.on_event(&finish(1), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&finish(2), &mut out);
        assert!(
            out.actions.contains(&SchedAction::Resume(t(0))),
            "quorum reached: grant fires"
        );
    }

    #[test]
    fn first_lock_waits_for_full_pool_to_settle() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert!(
            out.actions.is_empty(),
            "grant must wait for the quorum (§3.3)"
        );
        s.on_event(&lock(1, 6), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(0)), SchedAction::Resume(t(1))]
        );
    }

    #[test]
    fn same_mutex_conflicts_resolve_by_age() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(1, 5), &mut out);
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    #[test]
    fn suspended_member_leaves_pool_and_round_proceeds() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        s.on_event(&arrive(2), &mut out); // waits in the room
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(1) }, &mut out);
        // t1 left the pool; t2 takes the free slot immediately.
        assert!(out.actions.contains(&SchedAction::Admit(t(2))));
        assert_eq!(s.pool(), &[t(0), t(2)]);
        out.clear();
        // Round proceeds without the suspended thread.
        s.on_event(&lock(0, 5), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&lock(2, 6), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(0)), SchedAction::Resume(t(2))]
        );
    }

    #[test]
    fn woken_thread_reenters_through_the_waiting_room() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert_eq!(s.pool(), &[t(1)]);
        // t0 wakes holding nothing: re-entry reserved at the wake (a
        // total-order event); the free slot admits it at once, with no
        // second Admit action.
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert!(out.actions.contains(&SchedAction::Resume(t(0))));
        assert!(!out
            .actions
            .iter()
            .any(|a| matches!(a, SchedAction::Admit(_))));
        assert_eq!(s.pool(), &[t(0), t(1)]);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert!(out.actions.is_empty(), "quorum still needs t1");
        // t1 settles → both grants fire, age order.
        s.on_event(&lock(1, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&unlock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
    }

    #[test]
    fn monitor_holder_rejoins_immediately_after_wake() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        s.on_event(&lock(1, 6), &mut out);
        out.clear();
        // t0 nests while holding m5.
        s.on_event(&SchedEvent::NestedStarted { tid: t(0) }, &mut out);
        assert_eq!(s.pool(), &[t(1)]);
        s.on_event(&SchedEvent::NestedCompleted { tid: t(0) }, &mut out);
        assert!(out.actions.contains(&SchedAction::Resume(t(0))));
        assert_eq!(s.pool(), &[t(0), t(1)], "holder rejoins at once");
    }

    #[test]
    fn pool_refills_when_round_resolves() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        for i in 0..3 {
            s.on_event(&arrive(i), &mut out);
        }
        out.clear();
        assert_eq!(s.pool(), &[t(0), t(1)]);
        s.on_event(&finish(0), &mut out);
        assert!(!out.actions.contains(&SchedAction::Admit(t(2))));
        s.on_event(&finish(1), &mut out);
        assert!(out.actions.contains(&SchedAction::Admit(t(2))));
        assert_eq!(s.pool(), &[t(2)]);
    }

    #[test]
    fn second_round_requires_new_quorum() {
        let mut s = PdsScheduler::new(cfg(2));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 1), &mut out);
        s.on_event(&lock(1, 2), &mut out);
        out.clear();
        s.on_event(&unlock(0, 1), &mut out);
        s.on_event(&unlock(1, 2), &mut out);
        out.clear();
        s.on_event(&lock(0, 3), &mut out);
        assert!(
            out.actions.is_empty(),
            "second round needs the full pool settled"
        );
        s.on_event(&lock(1, 4), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(0)), SchedAction::Resume(t(1))]
        );
    }

    #[test]
    fn locks_per_round_two_grants_back_to_back() {
        let mut s = PdsScheduler::new(PdsConfig {
            batch_size: 2,
            locks_per_round: 2,
        });
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 1), &mut out);
        s.on_event(&lock(1, 2), &mut out);
        out.clear();
        s.on_event(&unlock(0, 1), &mut out);
        out.clear();
        s.on_event(&lock(0, 3), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&unlock(1, 2), &mut out);
        out.clear();
        s.on_event(&lock(1, 4), &mut out);
        assert_eq!(
            out.actions,
            vec![SchedAction::Resume(t(0)), SchedAction::Resume(t(1))]
        );
    }

    #[test]
    fn reentrant_lock_granted_without_round_accounting() {
        let mut s = PdsScheduler::new(cfg(1));
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }
}
