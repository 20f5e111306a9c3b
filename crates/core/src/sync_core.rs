//! Shared monitor mechanics: binary reentrant mutexes with 1:1 condition
//! variables (the Java monitor model of paper §2).
//!
//! Every decision module embeds a `SyncCore`. The core does the
//! *mechanics* — ownership, reentrancy counts, FIFO waiter queues, wait
//! sets with saved recursion counts — while the decision module does the
//! *policy* (which requests reach the core, and in manual-grant mode, who
//! is granted a free monitor). All container iteration orders here are
//! insertion orders, so the mechanics are deterministic by construction.
//!
//! Mutex ids are dense small integers (DESIGN.md "Dense-ID invariant"),
//! so the monitor table is a flat `Vec` indexed by `MutexId` — no hashing
//! or tree walks on the per-event hot path — and a per-thread held-count
//! table answers `holds_none` in O(1).

use crate::ids::ThreadId;
use dmt_lang::MutexId;
use std::collections::VecDeque;

/// Result of forwarding a lock request into the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockOutcome {
    /// The monitor was free (or already owned by the requester) — the
    /// thread holds it now and may continue.
    Acquired,
    /// The monitor is owned by another thread; the requester was queued.
    Queued,
}

/// A grant produced by the core: `tid` now owns the monitor it was blocked
/// on. `from_wait` distinguishes a re-acquisition after `wait` from a
/// plain lock grant (the engine resumes the thread either way; traces keep
/// the distinction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    pub tid: ThreadId,
    pub mutex: MutexId,
    pub from_wait: bool,
}

#[derive(Clone, Debug)]
struct Waiter {
    tid: ThreadId,
    /// `Some(saved)` if this entry is a notified thread re-acquiring the
    /// monitor with its saved recursion count; `None` for a fresh lock.
    reacquire: Option<u32>,
}

#[derive(Clone, Debug, Default)]
struct MutexState {
    /// Current owner and its recursion count.
    owner: Option<(ThreadId, u32)>,
    /// FIFO queue of threads blocked on the monitor (fresh lockers and
    /// notified re-acquirers, in arrival order).
    queue: VecDeque<Waiter>,
    /// Threads parked in `wait`, in the order they called it, with their
    /// saved recursion counts.
    wait_set: VecDeque<(ThreadId, u32)>,
}

/// The monitor table: a flat `Vec` indexed by the dense `MutexId`, grown
/// on first touch and never shrunk, so every per-event operation is O(1)
/// indexing and diagnostic iteration is mutex-id order.
#[derive(Clone, Debug)]
pub struct SyncCore {
    mutexes: Vec<MutexState>,
    /// Per-thread count of distinct monitors currently owned, indexed by
    /// the dense `ThreadId`. Keeps `holds_none` off the monitor table.
    held: Vec<u32>,
    /// In auto mode a full release immediately grants the queue head. In
    /// manual mode (LSA followers, PMAT) releases leave the monitor free
    /// and the decision module grants explicitly.
    auto_grant: bool,
}

impl SyncCore {
    pub fn new(auto_grant: bool) -> Self {
        SyncCore {
            mutexes: Vec::new(),
            held: Vec::new(),
            auto_grant,
        }
    }

    fn entry(&mut self, m: MutexId) -> &mut MutexState {
        let i = m.index();
        if i >= self.mutexes.len() {
            self.mutexes.resize_with(i + 1, MutexState::default);
        }
        &mut self.mutexes[i]
    }

    fn peek(&self, m: MutexId) -> Option<&MutexState> {
        self.mutexes.get(m.index())
    }

    /// `tid` took ownership of one more distinct monitor.
    fn held_inc(&mut self, tid: ThreadId) {
        let i = tid.index();
        if i >= self.held.len() {
            self.held.resize(i + 1, 0);
        }
        self.held[i] += 1;
    }

    /// `tid` fully released one distinct monitor.
    fn held_dec(&mut self, tid: ThreadId) {
        self.held[tid.index()] -= 1;
    }

    /// Forwards a lock request. Reentrant acquisition by the current owner
    /// always succeeds. Panics if `tid` is already queued on `m` — a
    /// thread has at most one outstanding request.
    pub fn lock(&mut self, tid: ThreadId, m: MutexId) -> LockOutcome {
        let st = self.entry(m);
        match st.owner {
            None => {
                debug_assert!(st.queue.iter().all(|w| w.tid != tid));
                st.owner = Some((tid, 1));
                self.held_inc(tid);
                LockOutcome::Acquired
            }
            Some((owner, count)) if owner == tid => {
                st.owner = Some((owner, count + 1));
                LockOutcome::Acquired
            }
            Some(_) => {
                assert!(
                    st.queue.iter().all(|w| w.tid != tid),
                    "{tid} queued twice on {m}"
                );
                st.queue.push_back(Waiter {
                    tid,
                    reacquire: None,
                });
                LockOutcome::Queued
            }
        }
    }

    /// Releases one level of the monitor. On full release in auto mode the
    /// queue head (if any) is granted and returned. (At most one grant can
    /// result from a release — the monitor has a single new owner.)
    pub fn unlock(&mut self, tid: ThreadId, m: MutexId) -> Option<Grant> {
        let st = self.entry(m);
        match st.owner {
            Some((owner, count)) if owner == tid => {
                if count > 1 {
                    st.owner = Some((owner, count - 1));
                    None
                } else {
                    st.owner = None;
                    self.held_dec(tid);
                    self.after_full_release(m)
                }
            }
            other => panic!("{tid} unlocking {m} owned by {other:?}"),
        }
    }

    /// `wait`: fully releases the monitor (saving the recursion count),
    /// parks the thread in the wait set. Panics unless `tid` owns `m` —
    /// Java's `IllegalMonitorStateException` is an engine bug here.
    pub fn wait(&mut self, tid: ThreadId, m: MutexId) -> Option<Grant> {
        let st = self.entry(m);
        match st.owner {
            Some((owner, count)) if owner == tid => {
                st.wait_set.push_back((tid, count));
                st.owner = None;
                self.held_dec(tid);
                self.after_full_release(m)
            }
            other => panic!("{tid} waiting on {m} owned by {other:?}"),
        }
    }

    /// `notify`/`notifyAll`: moves the first (or every) waiter from the
    /// wait set to the tail of the lock queue as re-acquirers. Returns how
    /// many waiters moved (they resume only once re-granted; they appear
    /// in [`SyncCore::queued`]). Panics unless the caller owns the
    /// monitor.
    pub fn notify(&mut self, tid: ThreadId, m: MutexId, all: bool) -> usize {
        let st = self.entry(m);
        match st.owner {
            Some((owner, _)) if owner == tid => {}
            other => panic!("{tid} notifying {m} owned by {other:?}"),
        }
        let n = if all {
            st.wait_set.len()
        } else {
            usize::from(!st.wait_set.is_empty())
        };
        for _ in 0..n {
            let (w, saved) = st.wait_set.pop_front().expect("wait set size checked");
            st.queue.push_back(Waiter {
                tid: w,
                reacquire: Some(saved),
            });
        }
        n
    }

    fn after_full_release(&mut self, m: MutexId) -> Option<Grant> {
        if !self.auto_grant {
            return None;
        }
        self.grant_next(m)
    }

    /// Manual-mode (and internal) granting: if `m` is free and has queued
    /// waiters, grants the queue head.
    pub fn grant_next(&mut self, m: MutexId) -> Option<Grant> {
        let st = self.entry(m);
        if st.owner.is_some() {
            return None;
        }
        let w = st.queue.pop_front()?;
        st.owner = Some((w.tid, w.reacquire.unwrap_or(1)));
        self.held_inc(w.tid);
        Some(Grant {
            tid: w.tid,
            mutex: m,
            from_wait: w.reacquire.is_some(),
        })
    }

    /// Manual-mode granting of a *specific* queued thread (LSA followers
    /// replay the leader's order, which may not be FIFO arrival order).
    /// Returns `None` if `m` is held or `tid` is not queued on it.
    pub fn grant_to(&mut self, tid: ThreadId, m: MutexId) -> Option<Grant> {
        let st = self.entry(m);
        if st.owner.is_some() {
            return None;
        }
        let pos = st.queue.iter().position(|w| w.tid == tid)?;
        let w = st.queue.remove(pos).expect("position just found");
        st.owner = Some((w.tid, w.reacquire.unwrap_or(1)));
        self.held_inc(w.tid);
        Some(Grant {
            tid: w.tid,
            mutex: m,
            from_wait: w.reacquire.is_some(),
        })
    }

    pub fn owner(&self, m: MutexId) -> Option<ThreadId> {
        self.peek(m).and_then(|s| s.owner.map(|(t, _)| t))
    }

    pub fn is_free(&self, m: MutexId) -> bool {
        self.owner(m).is_none()
    }

    pub fn holds(&self, tid: ThreadId, m: MutexId) -> bool {
        self.owner(m) == Some(tid)
    }

    /// Threads queued on `m` (fresh lockers and re-acquirers), FIFO order.
    pub fn queued(&self, m: MutexId) -> Vec<ThreadId> {
        self.peek(m)
            .map(|s| s.queue.iter().map(|w| w.tid).collect())
            .unwrap_or_default()
    }

    /// Is `tid` queued on `m`?
    pub fn is_queued(&self, tid: ThreadId, m: MutexId) -> bool {
        self.peek(m)
            .is_some_and(|s| s.queue.iter().any(|w| w.tid == tid))
    }

    /// Threads currently parked in `m`'s wait set, in `wait` order.
    pub fn wait_set(&self, m: MutexId) -> Vec<ThreadId> {
        self.peek(m)
            .map(|s| s.wait_set.iter().map(|&(t, _)| t).collect())
            .unwrap_or_default()
    }

    /// Is `tid` currently parked in `m`'s wait set?
    pub fn is_waiting(&self, tid: ThreadId, m: MutexId) -> bool {
        self.peek(m)
            .is_some_and(|s| s.wait_set.iter().any(|&(t, _)| t == tid))
    }

    /// Does `tid` hold no monitor at all? O(1) via the per-thread held
    /// count — this sits on the hot path (MAT-LL checks it per event).
    pub fn holds_none(&self, tid: ThreadId) -> bool {
        self.held.get(tid.index()).copied().unwrap_or(0) == 0
    }

    /// Every monitor currently held by `tid` (diagnostics/invariants —
    /// scans the table; use [`SyncCore::holds_none`] on hot paths).
    pub fn held_by(&self, tid: ThreadId) -> Vec<MutexId> {
        if self.holds_none(tid) {
            return Vec::new();
        }
        self.mutexes
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.owner, Some((o, _)) if o == tid))
            .map(|(i, _)| MutexId::new(i as u32))
            .collect()
    }

    /// True if no thread holds, queues on, or waits on any monitor —
    /// the quiescence invariant checked at end of every experiment.
    pub fn is_quiescent(&self) -> bool {
        self.mutexes
            .iter()
            .all(|s| s.owner.is_none() && s.queue.is_empty() && s.wait_set.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u32) -> ThreadId {
        ThreadId::new(v)
    }
    fn m(v: u32) -> MutexId {
        MutexId::new(v)
    }

    #[test]
    fn free_lock_acquires() {
        let mut c = SyncCore::new(true);
        assert_eq!(c.lock(t(1), m(0)), LockOutcome::Acquired);
        assert_eq!(c.owner(m(0)), Some(t(1)));
    }

    #[test]
    fn contended_lock_queues_fifo() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        assert_eq!(c.lock(t(2), m(0)), LockOutcome::Queued);
        assert_eq!(c.lock(t(3), m(0)), LockOutcome::Queued);
        assert_eq!(c.queued(m(0)), vec![t(2), t(3)]);
        let g = c.unlock(t(1), m(0));
        assert_eq!(
            g,
            Some(Grant {
                tid: t(2),
                mutex: m(0),
                from_wait: false
            })
        );
        assert_eq!(c.owner(m(0)), Some(t(2)));
        let g = c.unlock(t(2), m(0));
        assert_eq!(g.unwrap().tid, t(3));
    }

    #[test]
    fn reentrant_lock_and_unlock() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        assert_eq!(c.lock(t(1), m(0)), LockOutcome::Acquired);
        c.lock(t(2), m(0)); // queued
        assert!(c.unlock(t(1), m(0)).is_none()); // still held (count 1)
        assert_eq!(c.owner(m(0)), Some(t(1)));
        let g = c.unlock(t(1), m(0));
        assert_eq!(g.unwrap().tid, t(2));
    }

    #[test]
    fn wait_releases_fully_and_restores_count() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.lock(t(1), m(0)); // count 2
        c.lock(t(2), m(0)); // queued
        let g = c.wait(t(1), m(0));
        // Full release despite count 2 — t2 is granted.
        assert_eq!(g.unwrap().tid, t(2));
        assert_eq!(c.wait_set(m(0)), vec![t(1)]);
        // t2 notifies and unlocks: t1 re-acquires with restored count 2.
        assert_eq!(c.notify(t(2), m(0), false), 1);
        assert_eq!(c.queued(m(0)), vec![t(1)]);
        let g = c.unlock(t(2), m(0));
        assert_eq!(
            g,
            Some(Grant {
                tid: t(1),
                mutex: m(0),
                from_wait: true
            })
        );
        // Needs two unlocks to release (count was restored).
        assert!(c.unlock(t(1), m(0)).is_none());
        assert_eq!(c.owner(m(0)), Some(t(1)));
        c.unlock(t(1), m(0));
        assert!(c.is_free(m(0)));
    }

    #[test]
    fn notify_all_moves_every_waiter_in_order() {
        let mut c = SyncCore::new(true);
        for i in 1..=3 {
            c.lock(t(i), m(0));
            if c.owner(m(0)) == Some(t(i)) {
                c.wait(t(i), m(0));
            }
        }
        // All three ended up waiting (each acquired the freed monitor).
        assert_eq!(c.wait_set(m(0)), vec![t(1), t(2), t(3)]);
        c.lock(t(9), m(0));
        assert_eq!(c.notify(t(9), m(0), true), 3);
        assert!(c.wait_set(m(0)).is_empty());
        assert_eq!(c.queued(m(0)), vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn notify_without_waiters_is_noop() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        assert_eq!(c.notify(t(1), m(0), false), 0);
        assert_eq!(c.notify(t(1), m(0), true), 0);
    }

    #[test]
    fn manual_mode_defers_grants() {
        let mut c = SyncCore::new(false);
        c.lock(t(1), m(0));
        c.lock(t(2), m(0));
        c.lock(t(3), m(0));
        assert!(c.unlock(t(1), m(0)).is_none());
        assert!(c.is_free(m(0)));
        assert_eq!(c.queued(m(0)), vec![t(2), t(3)]);
        // Grant out of FIFO order, as an LSA follower replaying the leader.
        let g = c.grant_to(t(3), m(0)).unwrap();
        assert_eq!(g.tid, t(3));
        assert!(c.grant_to(t(2), m(0)).is_none()); // now held
        c.unlock(t(3), m(0));
        let g = c.grant_next(m(0)).unwrap();
        assert_eq!(g.tid, t(2));
    }

    #[test]
    fn grant_next_on_empty_or_held_is_none() {
        let mut c = SyncCore::new(false);
        assert!(c.grant_next(m(0)).is_none());
        c.lock(t(1), m(0));
        assert!(c.grant_next(m(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "unlocking")]
    fn unlock_by_non_owner_panics() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.unlock(t(2), m(0));
    }

    #[test]
    #[should_panic(expected = "waiting on")]
    fn wait_without_ownership_panics() {
        let mut c = SyncCore::new(true);
        c.wait(t(1), m(0));
    }

    #[test]
    #[should_panic(expected = "notifying")]
    fn notify_without_ownership_panics() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.notify(t(2), m(0), false);
    }

    #[test]
    #[should_panic(expected = "queued twice")]
    fn double_queue_panics() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.lock(t(2), m(0));
        c.lock(t(2), m(0));
    }

    #[test]
    fn held_by_and_quiescence() {
        let mut c = SyncCore::new(true);
        assert!(c.is_quiescent());
        assert!(c.holds_none(t(1)));
        c.lock(t(1), m(0));
        c.lock(t(1), m(5));
        assert_eq!(c.held_by(t(1)), vec![m(0), m(5)]);
        assert!(!c.holds_none(t(1)));
        assert!(!c.is_quiescent());
        c.unlock(t(1), m(0));
        c.unlock(t(1), m(5));
        assert!(c.holds_none(t(1)));
        assert!(c.is_quiescent());
    }

    #[test]
    fn holds_none_tracks_reentrancy_and_handoffs() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.lock(t(1), m(0)); // reentrant: still one distinct monitor
        assert!(!c.holds_none(t(1)));
        c.unlock(t(1), m(0));
        assert!(!c.holds_none(t(1)), "count 1 remains");
        c.lock(t(2), m(0)); // queued
        c.unlock(t(1), m(0)); // full release hands over to t2
        assert!(c.holds_none(t(1)));
        assert!(!c.holds_none(t(2)));
        // wait releases ownership too.
        c.wait(t(2), m(0));
        assert!(c.holds_none(t(2)));
    }

    #[test]
    fn is_queued_reports_pending() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.lock(t(2), m(0));
        assert!(c.is_queued(t(2), m(0)));
        assert!(!c.is_queued(t(1), m(0)));
        assert!(!c.is_queued(t(2), m(1)));
    }

    #[test]
    fn queue_and_wait_set_track_waiters_through_a_handoff() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        c.lock(t(2), m(0)); // queued
        c.lock(t(3), m(0)); // queued
        assert_eq!(c.queued(m(0)), vec![t(2), t(3)]);
        c.unlock(t(1), m(0)); // grants t2
        assert_eq!(c.queued(m(0)), vec![t(3)]);
        c.wait(t(2), m(0)); // t2 waits; auto-grant hands to t3
        assert!(c.queued(m(0)).is_empty());
        assert_eq!(c.wait_set(m(0)), vec![t(2)]);
        c.notify(t(3), m(0), true); // t2 back to the lock queue
        assert!(c.wait_set(m(0)).is_empty());
        assert_eq!(c.queued(m(0)), vec![t(2)]);
        c.unlock(t(3), m(0)); // re-grants t2
        assert!(c.queued(m(0)).is_empty());
        c.unlock(t(2), m(0));
        assert!(c.is_quiescent());
    }

    #[test]
    fn grant_to_removes_only_the_granted_waiter() {
        let mut c = SyncCore::new(false);
        c.lock(t(1), m(0));
        c.lock(t(2), m(0));
        c.lock(t(3), m(0));
        c.unlock(t(1), m(0));
        c.grant_to(t(3), m(0)).unwrap();
        assert_eq!(c.queued(m(0)), vec![t(2)]);
    }

    #[test]
    fn distinct_mutexes_are_independent() {
        let mut c = SyncCore::new(true);
        c.lock(t(1), m(0));
        assert_eq!(c.lock(t(2), m(1)), LockOutcome::Acquired);
        assert_eq!(c.owner(m(0)), Some(t(1)));
        assert_eq!(c.owner(m(1)), Some(t(2)));
    }
}
