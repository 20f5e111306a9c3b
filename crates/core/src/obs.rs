//! Scheduler decision records and the output bundle through which they
//! are emitted.
//!
//! Every decision module communicates with its driver (engine, harness,
//! runtime) through a [`SchedOutput`]: the actions it wants applied plus
//! — when recording is enabled — a stream of typed [`Decision`] records
//! describing *why* the schedule advanced the way it did (grants,
//! deferrals, prediction consults, token movement, LSA announcements,
//! PDS round barriers). The records are what `dmt-obs` turns into
//! virtual-time-stamped traces; recording them here keeps the schedulers
//! free of any notion of time or trace storage.
//!
//! Cost discipline: with recording disabled (the default), emitting a
//! decision is a single predictable branch — the record is never even
//! constructed (the [`SchedOutput::decision`] closure is not called) and
//! the decision vector never allocates. The engine's ns/event overhead
//! guard (`dmt-bench`) pins exactly this property.

use crate::event::SchedAction;
use crate::ids::ThreadId;
use dmt_lang::MutexId;

/// Why a scheduler chose *not* to advance a thread right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeferReason {
    /// The requested mutex is held (plain monitor contention).
    MutexBusy,
    /// A deterministic order gate: an older/expected thread goes first
    /// (LSA announcement order, PMAT age order, replay log order).
    OrderGate,
    /// Admission is batched and the current round is full (PDS).
    Barrier,
    /// The requester is not the token holder / primary (MAT).
    Token,
}

impl DeferReason {
    pub fn name(self) -> &'static str {
        match self {
            DeferReason::MutexBusy => "mutex-busy",
            DeferReason::OrderGate => "order-gate",
            DeferReason::Barrier => "barrier",
            DeferReason::Token => "token",
        }
    }
}

/// One scheduling decision, in the order the decision module made it.
///
/// Records carry no timestamps: a scheduler is a pure state machine and
/// the *driver* stamps records with virtual time when it forwards them
/// to its tracer (`dmt-obs`). For deterministic algorithms the
/// per-mutex projection of the `Grant` records is replica-independent
/// (same match levels as the execution traces; see `dmt-replica`'s
/// checker), which the observability tests pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Decision {
    /// A request was admitted into execution.
    Admit { tid: ThreadId },
    /// A request arrived but admission was deferred (SEQ pending queue,
    /// SAT ready queue, PDS waiting room).
    AdmitDefer { tid: ThreadId },
    /// A monitor was granted to `tid` (fresh acquisition or wait-set
    /// re-entry).
    Grant {
        tid: ThreadId,
        mutex: MutexId,
        from_wait: bool,
    },
    /// A lock request was parked.
    Defer {
        tid: ThreadId,
        mutex: MutexId,
        reason: DeferReason,
    },
    /// A bookkeeping/prediction consult (MAT-LL last-lock analysis,
    /// PMAT §4.3 grant condition): `granted` is the verdict.
    Predict {
        tid: ThreadId,
        mutex: MutexId,
        granted: bool,
    },
    /// MAT: `tid` became the lock-granting primary (head of the token
    /// queue).
    TokenGrant { tid: ThreadId },
    /// MAT: the primary released the token; `last_lock` when the
    /// bookkeeping proved no further locks follow (§4.1) rather than the
    /// thread finishing or suspending.
    TokenRelease { tid: ThreadId, last_lock: bool },
    /// LSA: the leader broadcast grant number `order` for `(tid, mutex)`.
    Announce {
        tid: ThreadId,
        mutex: MutexId,
        order: u64,
    },
    /// PDS: a new round started with `pool` threads, `dummies` of which
    /// are filler requests.
    RoundStart { pool: u32, dummies: u32 },
    /// SAT: a suspended thread became ready again (its monitor was
    /// granted or its nested call returned) while another thread holds
    /// the single active slot; it waits in the ready queue.
    ResumeDefer { tid: ThreadId },
    /// SAT: a ready suspended thread took the active slot.
    Resume { tid: ThreadId },
}

impl Decision {
    /// Short stable label (used by trace exporters and tables).
    pub fn name(&self) -> &'static str {
        match self {
            Decision::Admit { .. } => "admit",
            Decision::AdmitDefer { .. } => "admit-defer",
            Decision::Grant { .. } => "grant",
            Decision::Defer { .. } => "defer",
            Decision::Predict { .. } => "predict",
            Decision::TokenGrant { .. } => "token-grant",
            Decision::TokenRelease { .. } => "token-release",
            Decision::Announce { .. } => "announce",
            Decision::RoundStart { .. } => "round-start",
            Decision::ResumeDefer { .. } => "resume-defer",
            Decision::Resume { .. } => "resume",
        }
    }

    /// The mutex this decision concerns, if any (drives the per-mutex
    /// projection the cross-replica identity check compares).
    pub fn mutex(&self) -> Option<MutexId> {
        match *self {
            Decision::Grant { mutex, .. }
            | Decision::Defer { mutex, .. }
            | Decision::Predict { mutex, .. }
            | Decision::Announce { mutex, .. } => Some(mutex),
            _ => None,
        }
    }
}

/// The output bundle a scheduler fills per event: actions to apply plus
/// (optionally) the decision records behind them.
///
/// Drivers keep one `SchedOutput` as a scratch buffer and reuse it
/// across dispatches, so the action path stays allocation-free in steady
/// state exactly as the old `&mut Vec<SchedAction>` signature was.
#[derive(Debug, Default)]
pub struct SchedOutput {
    /// Actions in decision order (applied by the driver in order).
    pub actions: Vec<SchedAction>,
    decisions: Vec<Decision>,
    record: bool,
}

impl SchedOutput {
    /// An output bundle with decision recording off (the hot-path
    /// default).
    pub fn new() -> Self {
        SchedOutput::default()
    }

    /// An output bundle that records decisions.
    pub fn recording() -> Self {
        let mut o = SchedOutput::default();
        o.set_recording(true);
        o
    }

    /// Enables/disables decision recording. Enabling preallocates the
    /// record vector so steady-state recording does not grow it per
    /// event.
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
        if on && self.decisions.capacity() == 0 {
            self.decisions.reserve(64);
        }
    }

    pub fn is_recording(&self) -> bool {
        self.record
    }

    /// Appends an action.
    #[inline]
    pub fn push(&mut self, a: SchedAction) {
        self.actions.push(a);
    }

    /// Records a decision. With recording disabled this is one
    /// predictable branch: `f` is never called, nothing is constructed,
    /// nothing allocates.
    #[inline]
    pub fn decision(&mut self, f: impl FnOnce() -> Decision) {
        if self.record {
            self.decisions.push(f());
        }
    }

    /// The decisions recorded since the last [`SchedOutput::clear`].
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Capacity of the decision vector — 0 proves the disabled path
    /// never allocated (asserted by the overhead tests).
    pub fn decision_capacity(&self) -> usize {
        self.decisions.capacity()
    }

    /// Clears actions and decisions, keeping both allocations.
    pub fn clear(&mut self) {
        self.actions.clear();
        self.decisions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_output_never_constructs_or_allocates() {
        let mut out = SchedOutput::new();
        let mut called = false;
        out.decision(|| {
            called = true;
            Decision::Admit {
                tid: ThreadId::new(0),
            }
        });
        assert!(!called, "decision closure ran with recording off");
        assert_eq!(out.decisions().len(), 0);
        assert_eq!(out.decision_capacity(), 0, "disabled path allocated");
    }

    #[test]
    fn recording_output_keeps_order_and_survives_clear() {
        let mut out = SchedOutput::recording();
        out.decision(|| Decision::Admit {
            tid: ThreadId::new(1),
        });
        out.decision(|| Decision::Defer {
            tid: ThreadId::new(2),
            mutex: MutexId::new(0),
            reason: DeferReason::Token,
        });
        assert_eq!(out.decisions().len(), 2);
        assert_eq!(out.decisions()[0].name(), "admit");
        let cap = out.decision_capacity();
        out.clear();
        assert_eq!(out.decisions().len(), 0);
        assert_eq!(
            out.decision_capacity(),
            cap,
            "clear must keep the allocation"
        );
    }

    #[test]
    fn mutex_projection_covers_lock_decisions() {
        let m = MutexId::new(3);
        let t = ThreadId::new(0);
        assert_eq!(
            Decision::Grant {
                tid: t,
                mutex: m,
                from_wait: false
            }
            .mutex(),
            Some(m)
        );
        assert_eq!(
            Decision::Defer {
                tid: t,
                mutex: m,
                reason: DeferReason::MutexBusy
            }
            .mutex(),
            Some(m)
        );
        assert_eq!(Decision::TokenGrant { tid: t }.mutex(), None);
    }
}
