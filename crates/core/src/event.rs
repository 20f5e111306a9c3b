//! The event/action protocol between a replica engine and its scheduler.
//!
//! A scheduler is a *pure deterministic state machine*: it receives the
//! stream of synchronisation events observed by its replica and answers
//! with actions. Events that must be identical on every replica (request
//! arrivals, nested-invocation replies, control messages) are delivered
//! through the total-order layer; the remaining events are generated by
//! the replica's own threads reaching synchronisation points.

use crate::ids::ThreadId;
use dmt_lang::{MethodIdx, MutexId, SyncId};

/// Inter-replica control message payloads (only LSA uses them: the
/// leader's scheduling decisions, paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlMsg {
    /// The leader granted `mutex` to thread `tid` as that mutex's
    /// `order`-th acquisition. Thread ids are assigned in total order, so
    /// they name the same request on every replica.
    LsaGrant {
        mutex: MutexId,
        tid: ThreadId,
        order: u64,
    },
}

/// One synchronisation event, delivered to the scheduler by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// A new request arrived (in total order) and a thread was created
    /// for it. `request_seq` is the request's position among the totally
    /// ordered requests — identical on every replica. `dummy` marks PDS
    /// filler requests.
    RequestArrived {
        tid: ThreadId,
        method: MethodIdx,
        request_seq: u64,
        dummy: bool,
    },
    /// The thread reached a `lock` (start of a synchronized block).
    LockRequested {
        tid: ThreadId,
        sync_id: SyncId,
        mutex: MutexId,
    },
    /// The thread released a monitor (end of a synchronized block).
    Unlocked {
        tid: ThreadId,
        sync_id: SyncId,
        mutex: MutexId,
    },
    /// The thread called `wait` on a monitor it holds.
    WaitCalled { tid: ThreadId, mutex: MutexId },
    /// The thread called `notify`/`notifyAll` on a monitor it holds.
    NotifyCalled {
        tid: ThreadId,
        mutex: MutexId,
        all: bool,
    },
    /// The thread issued a nested remote invocation and is suspended.
    NestedStarted { tid: ThreadId },
    /// The nested invocation's reply arrived (in total order).
    NestedCompleted { tid: ThreadId },
    /// The thread's start method returned.
    ThreadFinished { tid: ThreadId },
    /// Injected analysis call: the thread announces a future lock.
    LockInfo {
        tid: ThreadId,
        sync_id: SyncId,
        mutex: MutexId,
    },
    /// Injected analysis call: the taken path bypasses `sync_id` (or, after
    /// a lock-in-loop, no further acquisitions of it will happen).
    SyncIgnored { tid: ThreadId, sync_id: SyncId },
    /// A control message from another replica (total order).
    Control(CtrlMsg),
}

impl SchedEvent {
    /// The thread this event concerns, if any.
    pub fn tid(&self) -> Option<ThreadId> {
        match *self {
            SchedEvent::RequestArrived { tid, .. }
            | SchedEvent::LockRequested { tid, .. }
            | SchedEvent::Unlocked { tid, .. }
            | SchedEvent::WaitCalled { tid, .. }
            | SchedEvent::NotifyCalled { tid, .. }
            | SchedEvent::NestedStarted { tid }
            | SchedEvent::NestedCompleted { tid }
            | SchedEvent::ThreadFinished { tid }
            | SchedEvent::LockInfo { tid, .. }
            | SchedEvent::SyncIgnored { tid, .. } => Some(tid),
            SchedEvent::Control(_) => None,
        }
    }
}

/// A scheduler's response to events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedAction {
    /// Let the thread begin executing its start method.
    Admit(ThreadId),
    /// Let a blocked thread continue (its pending lock was granted, its
    /// wait finished and the monitor was re-acquired, or its nested reply
    /// may now be consumed).
    Resume(ThreadId),
    /// Send a control message to all replicas through the total-order
    /// layer (LSA leader only).
    Broadcast(CtrlMsg),
    /// Ask the engine to inject a dummy request through the group
    /// communication system (PDS starvation avoidance, paper §3.3).
    RequestDummy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_tid_extraction() {
        let t = ThreadId::new(3);
        assert_eq!(SchedEvent::NestedStarted { tid: t }.tid(), Some(t));
        assert_eq!(
            SchedEvent::Control(CtrlMsg::LsaGrant {
                mutex: MutexId::new(0),
                tid: ThreadId::new(1),
                order: 0
            })
            .tid(),
            None
        );
    }
}
