//! LSA — loose synchronisation algorithm (paper §3.2, after Basile et
//! al., SRDS'02).
//!
//! A leader-follower scheme and the only algorithm needing frequent
//! inter-replica communication. The leader replica schedules without
//! restrictions (plain monitor mechanics, like [`crate::free`]) and
//! broadcasts every monitor acquisition as an `LsaGrant{mutex, tid,
//! order}` control message. Followers never decide: a follower forwards a
//! thread's lock request only when that thread is the next grantee in the
//! leader's per-mutex order. Condition variables (the FTflex addition)
//! come for free: a `wait` re-acquisition is an acquisition like any
//! other and appears in the leader's order; wait-set and notify mechanics
//! are deterministic given the per-mutex acquisition order.
//!
//! Fail-over: when the membership layer announces a new leader, the
//! promoted replica first honours every grant the dead leader had
//! announced (those were delivered in total order, so they are a
//! consistent prefix on all survivors), then starts deciding itself,
//! continuing each mutex's order counter. The takeover cost the paper
//! attributes to LSA (§3.5) is measured in the `abl-wan` experiment.

use crate::event::{CtrlMsg, SchedAction, SchedEvent};
use crate::ids::{ReplicaId, ThreadId};
use crate::obs::{Decision, DeferReason, DepthSample, SchedOutput};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync_core::{LockOutcome, SyncCore};
use std::collections::VecDeque;

pub struct LsaScheduler {
    replica: ReplicaId,
    leader: ReplicaId,
    sync: SyncCore,
    /// Announced grants not yet applied, indexed by the dense mutex id
    /// (each queue in leader order).
    expected: Vec<VecDeque<ThreadId>>,
    /// Fresh lock requests waiting to be matched with an announcement
    /// (follower) or decided after the announced backlog drains (a
    /// just-promoted leader), sorted by thread age.
    pending: Vec<(ThreadId, dmt_lang::MutexId)>,
    /// Per-mutex acquisition counters, indexed by mutex id (followers
    /// track them from the announcements so a promoted leader continues
    /// the numbering).
    order: Vec<u64>,
    grants_issued: u64,
}

impl LsaScheduler {
    pub fn new(replica: ReplicaId, leader: ReplicaId) -> Self {
        LsaScheduler {
            replica,
            leader,
            sync: SyncCore::new(false),
            expected: Vec::new(),
            pending: Vec::new(),
            order: Vec::new(),
            grants_issued: 0,
        }
    }

    pub fn is_leader(&self) -> bool {
        self.replica == self.leader
    }

    /// Total grants this scheduler has applied (overhead metric).
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }

    /// Position of `tid`'s pending request, or where it would go.
    fn pending_pos(&self, tid: ThreadId) -> Result<usize, usize> {
        self.pending.binary_search_by_key(&tid, |&(u, _)| u)
    }

    fn has_backlog(&self, mutex: dmt_lang::MutexId) -> bool {
        self.expected
            .get(mutex.index())
            .is_some_and(|q| !q.is_empty())
    }

    fn expected_mut(&mut self, mutex: dmt_lang::MutexId) -> &mut VecDeque<ThreadId> {
        let i = mutex.index();
        if i >= self.expected.len() {
            self.expected.resize_with(i + 1, VecDeque::new);
        }
        &mut self.expected[i]
    }

    fn order_mut(&mut self, mutex: dmt_lang::MutexId) -> &mut u64 {
        let i = mutex.index();
        if i >= self.order.len() {
            self.order.resize(i + 1, 0);
        }
        &mut self.order[i]
    }

    /// Leader: record + broadcast an acquisition by `tid` of `mutex`.
    fn announce(&mut self, tid: ThreadId, mutex: dmt_lang::MutexId, out: &mut SchedOutput) {
        let slot = self.order_mut(mutex);
        let order = *slot;
        *slot += 1;
        self.grants_issued += 1;
        out.decision(|| Decision::Announce { tid, mutex, order });
        out.push(SchedAction::Broadcast(CtrlMsg::LsaGrant {
            mutex,
            tid,
            order,
        }));
    }

    /// Applies announced grants for `mutex` as far as possible, then (on
    /// the leader) decides freely once the announced backlog is empty.
    fn drain(&mut self, mutex: dmt_lang::MutexId, out: &mut SchedOutput) {
        // Phase 1: replay announcements (follower behaviour; a promoted
        // leader also honours the old leader's prefix this way).
        loop {
            if !self.sync.is_free(mutex) {
                return;
            }
            let Some(&next) = self.expected.get(mutex.index()).and_then(|q| q.front()) else {
                break;
            };
            // A thread has at most one pending request, so the list is
            // sorted by the whole pair and an exact search finds `next`'s
            // request only if it is for this mutex.
            if let Ok(pos) = self.pending.binary_search(&(next, mutex)) {
                self.expected_mut(mutex).pop_front();
                self.pending.remove(pos);
                let outcome = self.sync.lock(next, mutex);
                debug_assert_eq!(outcome, LockOutcome::Acquired);
                self.grants_issued += 1;
                out.decision(|| Decision::Grant {
                    tid: next,
                    mutex,
                    from_wait: false,
                });
                out.push(SchedAction::Resume(next));
            } else if self.sync.is_queued(next, mutex) {
                // A notified re-acquirer sitting in the monitor queue.
                self.expected_mut(mutex).pop_front();
                let g = self.sync.grant_to(next, mutex).expect("free + queued");
                self.grants_issued += 1;
                out.decision(|| Decision::Grant {
                    tid: next,
                    mutex,
                    from_wait: g.from_wait,
                });
                out.push(SchedAction::Resume(next));
            } else {
                // Grantee has not reached its request yet; hold.
                return;
            }
        }
        // Phase 2: leader decides.
        if !self.is_leader() {
            return;
        }
        // Fold pending fresh requests for this mutex into the monitor
        // queue in thread-age order (only relevant right after failover;
        // on the steady-state leader `pending` is empty — fresh requests
        // are handled directly in `on_event`). The list is taken out for
        // the pass so folded requests drop in place, without allocating.
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|&(tid, m)| {
            if m != mutex {
                return true;
            }
            if self.sync.lock(tid, mutex) == LockOutcome::Acquired {
                self.announce(tid, mutex, out);
                out.decision(|| Decision::Grant {
                    tid,
                    mutex,
                    from_wait: false,
                });
                out.push(SchedAction::Resume(tid));
            }
            false
        });
        self.pending = pending;
        if self.sync.is_free(mutex) {
            if let Some(g) = self.sync.grant_next(mutex) {
                self.announce(g.tid, mutex, out);
                out.decision(|| Decision::Grant {
                    tid: g.tid,
                    mutex,
                    from_wait: g.from_wait,
                });
                out.push(SchedAction::Resume(g.tid));
            }
        }
    }
}

impl Scheduler for LsaScheduler {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Lsa
    }

    fn sync_core(&self) -> &SyncCore {
        &self.sync
    }

    /// Followers enforce the leader's order *per mutex*; grants on
    /// different mutexes are applied as local threads reach their
    /// requests, so the global interleaving is replica-local (properly
    /// synchronised state is unaffected, exactly as for PMAT).
    fn global_order_deterministic(&self) -> bool {
        false
    }

    /// `sched_queue` counts announced-but-unapplied grants (the follower
    /// backlog); fresh requests parked in `pending` count as lock-queued
    /// since they are blocked on a monitor, just gated remotely.
    fn depths(&self) -> DepthSample {
        let mut d = self.sync.depths();
        d.lock_queued += self.pending.len() as u32;
        d.sched_queue = self.expected.iter().map(|q| q.len() as u32).sum();
        d
    }

    fn on_leader_change(&mut self, new_leader: ReplicaId) {
        self.leader = new_leader;
        // Announced-but-unapplied grants stay: they are a consistent
        // prefix on every survivor and will be applied as the grantees
        // reach their requests. A promoted leader starts deciding in
        // `drain` once each mutex's backlog empties; the engine calls
        // `kick` right after this notification to force that first drain.
    }

    fn kick(&mut self, out: &mut SchedOutput) {
        // Cold path (failover only): visit each mutex with pending
        // requests or an announced backlog, in ascending id order.
        let mut mutexes: Vec<dmt_lang::MutexId> = self
            .pending
            .iter()
            .map(|&(_, m)| m)
            .chain(
                self.expected
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(i, _)| dmt_lang::MutexId::new(i as u32)),
            )
            .collect();
        mutexes.sort_unstable();
        mutexes.dedup();
        for m in mutexes {
            self.drain(m, out);
        }
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        match *ev {
            SchedEvent::RequestArrived { tid, .. } => {
                out.decision(|| Decision::Admit { tid });
                out.push(SchedAction::Admit(tid));
            }
            SchedEvent::LockRequested { tid, mutex, .. } => {
                if self.sync.holds(tid, mutex) {
                    // Reentrant: forced, not announced.
                    let outcome = self.sync.lock(tid, mutex);
                    debug_assert_eq!(outcome, LockOutcome::Acquired);
                    out.decision(|| Decision::Grant {
                        tid,
                        mutex,
                        from_wait: false,
                    });
                    out.push(SchedAction::Resume(tid));
                } else if self.is_leader() && !self.has_backlog(mutex) {
                    match self.sync.lock(tid, mutex) {
                        LockOutcome::Acquired => {
                            self.announce(tid, mutex, out);
                            out.decision(|| Decision::Grant {
                                tid,
                                mutex,
                                from_wait: false,
                            });
                            out.push(SchedAction::Resume(tid));
                        }
                        LockOutcome::Queued => {
                            out.decision(|| Decision::Defer {
                                tid,
                                mutex,
                                reason: DeferReason::MutexBusy,
                            });
                        }
                    }
                } else {
                    if let Err(pos) = self.pending_pos(tid) {
                        self.pending.insert(pos, (tid, mutex));
                    }
                    self.drain(mutex, out);
                    if self.pending_pos(tid).is_ok() {
                        // Still waiting for the leader's announcement (or,
                        // on a promoted leader, for the backlog to drain).
                        out.decision(|| Decision::Defer {
                            tid,
                            mutex,
                            reason: DeferReason::OrderGate,
                        });
                    }
                }
            }
            SchedEvent::Unlocked { tid, mutex, .. } => {
                self.sync.unlock(tid, mutex);
                self.drain(mutex, out);
            }
            SchedEvent::WaitCalled { tid, mutex } => {
                self.sync.wait(tid, mutex);
                self.drain(mutex, out);
            }
            SchedEvent::NotifyCalled { tid, mutex, all } => {
                self.sync.notify(tid, mutex, all);
                // On the leader a queued re-acquirer may be grantable as
                // soon as the notifier unlocks; nothing to do before then.
            }
            SchedEvent::NestedStarted { .. } => {}
            SchedEvent::NestedCompleted { tid } => out.push(SchedAction::Resume(tid)),
            SchedEvent::ThreadFinished { tid } => {
                debug_assert!(self.sync.holds_none(tid));
                debug_assert!(self.pending_pos(tid).is_err());
            }
            SchedEvent::Control(CtrlMsg::LsaGrant { mutex, tid, order }) => {
                // Own echoes are filtered by the engine; anything arriving
                // here is from the (possibly previous) leader.
                let next_order = self.order_mut(mutex);
                debug_assert_eq!(*next_order, order, "gap in leader announcements");
                *next_order = order + 1;
                self.expected_mut(mutex).push_back(tid);
                self.drain(mutex, out);
            }
            SchedEvent::LockInfo { .. } | SchedEvent::SyncIgnored { .. } => {}
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
    fn m(v: u32) -> MutexId {
        MutexId::new(v)
    }
    fn arrive(tid: u32) -> SchedEvent {
        SchedEvent::RequestArrived {
            tid: t(tid),
            method: MethodIdx::new(0),
            request_seq: tid as u64,
            dummy: false,
        }
    }
    fn lock(tid: u32, mx: u32) -> SchedEvent {
        SchedEvent::LockRequested {
            tid: t(tid),
            sync_id: SyncId::new(0),
            mutex: m(mx),
        }
    }
    fn unlock(tid: u32, mx: u32) -> SchedEvent {
        SchedEvent::Unlocked {
            tid: t(tid),
            sync_id: SyncId::new(0),
            mutex: m(mx),
        }
    }
    fn grant_msg(tid: u32, mx: u32, order: u64) -> SchedEvent {
        SchedEvent::Control(CtrlMsg::LsaGrant {
            mutex: m(mx),
            tid: t(tid),
            order,
        })
    }

    fn leader() -> LsaScheduler {
        LsaScheduler::new(ReplicaId::new(0), ReplicaId::new(0))
    }
    fn follower() -> LsaScheduler {
        LsaScheduler::new(ReplicaId::new(1), ReplicaId::new(0))
    }

    #[test]
    fn leader_grants_immediately_and_broadcasts() {
        let mut s = leader();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(
            out.actions,
            vec![
                SchedAction::Broadcast(CtrlMsg::LsaGrant {
                    mutex: m(5),
                    tid: t(0),
                    order: 0
                }),
                SchedAction::Resume(t(0)),
            ]
        );
    }

    #[test]
    fn leader_broadcasts_contended_grants_on_release() {
        let mut s = leader();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        out.clear();
        s.on_event(&lock(1, 5), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&unlock(0, 5), &mut out);
        assert_eq!(
            out.actions,
            vec![
                SchedAction::Broadcast(CtrlMsg::LsaGrant {
                    mutex: m(5),
                    tid: t(1),
                    order: 1
                }),
                SchedAction::Resume(t(1)),
            ]
        );
    }

    #[test]
    fn follower_waits_for_announcement() {
        let mut s = follower();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert!(out.actions.is_empty(), "follower never decides alone");
        s.on_event(&grant_msg(0, 5, 0), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
        assert_eq!(s.sync_core().owner(m(5)), Some(t(0)));
    }

    #[test]
    fn follower_applies_announcement_arriving_first() {
        let mut s = follower();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(&grant_msg(0, 5, 0), &mut out);
        assert!(out.actions.is_empty(), "grantee has not asked yet");
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn follower_enforces_leader_order_not_arrival_order() {
        let mut s = follower();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // Locally t0 asks first, but the leader granted t1 first.
        s.on_event(&lock(0, 5), &mut out);
        s.on_event(&grant_msg(1, 5, 0), &mut out);
        assert!(out.actions.is_empty());
        s.on_event(&lock(1, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        out.clear();
        s.on_event(&grant_msg(0, 5, 1), &mut out);
        assert!(out.actions.is_empty(), "mutex still held by t1");
        s.on_event(&unlock(1, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }

    #[test]
    fn wait_reacquisition_follows_leader_order() {
        // Leader side: t0 waits on m3; t1 locks, notifies, unlocks.
        let mut lead = leader();
        let mut out = SchedOutput::new();
        lead.on_event(&arrive(0), &mut out);
        lead.on_event(&arrive(1), &mut out);
        out.clear();
        lead.on_event(&lock(0, 3), &mut out);
        out.clear();
        lead.on_event(
            &SchedEvent::WaitCalled {
                tid: t(0),
                mutex: m(3),
            },
            &mut out,
        );
        lead.on_event(&lock(1, 3), &mut out);
        out.clear();
        lead.on_event(
            &SchedEvent::NotifyCalled {
                tid: t(1),
                mutex: m(3),
                all: false,
            },
            &mut out,
        );
        lead.on_event(&unlock(1, 3), &mut out);
        // Re-acquisition grant broadcast for t0.
        assert!(out
            .actions
            .contains(&SchedAction::Broadcast(CtrlMsg::LsaGrant {
                mutex: m(3),
                tid: t(0),
                order: 2
            })));
        assert!(out.actions.contains(&SchedAction::Resume(t(0))));

        // Follower replays the same sequence of announcements.
        let mut fol = follower();
        let mut fout = SchedOutput::new();
        fol.on_event(&arrive(0), &mut fout);
        fol.on_event(&arrive(1), &mut fout);
        fout.clear();
        fol.on_event(&lock(0, 3), &mut fout);
        fol.on_event(&grant_msg(0, 3, 0), &mut fout);
        assert_eq!(fout.actions, vec![SchedAction::Resume(t(0))]);
        fout.clear();
        fol.on_event(
            &SchedEvent::WaitCalled {
                tid: t(0),
                mutex: m(3),
            },
            &mut fout,
        );
        fol.on_event(&lock(1, 3), &mut fout);
        fol.on_event(&grant_msg(1, 3, 1), &mut fout);
        assert_eq!(fout.actions, vec![SchedAction::Resume(t(1))]);
        fout.clear();
        fol.on_event(
            &SchedEvent::NotifyCalled {
                tid: t(1),
                mutex: m(3),
                all: false,
            },
            &mut fout,
        );
        fol.on_event(&grant_msg(0, 3, 2), &mut fout);
        assert!(fout.actions.is_empty(), "t1 still holds m3");
        fol.on_event(&unlock(1, 3), &mut fout);
        assert_eq!(fout.actions, vec![SchedAction::Resume(t(0))]);
        assert_eq!(fol.sync_core().owner(m(3)), Some(t(0)));
    }

    #[test]
    fn promoted_leader_decides_pending_after_backlog() {
        let mut s = follower();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        s.on_event(&arrive(1), &mut out);
        out.clear();
        // Old leader announced t1 first, then died. t0 and t1 both ask.
        s.on_event(&grant_msg(1, 5, 0), &mut out);
        s.on_event(&lock(0, 5), &mut out);
        assert!(out.actions.is_empty());
        s.on_leader_change(ReplicaId::new(1));
        assert!(s.is_leader());
        // t1 asks: the old leader's announcement still wins first...
        s.on_event(&lock(1, 5), &mut out);
        // ...t1 resumes per backlog, then the new leader decides t0 when
        // t1 releases, continuing the order counter at 1.
        assert_eq!(out.actions, vec![SchedAction::Resume(t(1))]);
        out.clear();
        s.on_event(&unlock(1, 5), &mut out);
        assert_eq!(
            out.actions,
            vec![
                SchedAction::Broadcast(CtrlMsg::LsaGrant {
                    mutex: m(5),
                    tid: t(0),
                    order: 1
                }),
                SchedAction::Resume(t(0)),
            ]
        );
    }

    #[test]
    fn reentrant_lock_not_broadcast() {
        let mut s = leader();
        let mut out = SchedOutput::new();
        s.on_event(&arrive(0), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        out.clear();
        s.on_event(&lock(0, 5), &mut out);
        assert_eq!(out.actions, vec![SchedAction::Resume(t(0))]);
    }
}
