//! The `Scheduler` trait and factory.
//!
//! Decision modules are deterministic state machines; the replica engine
//! owns one per replica and feeds it the event stream defined in
//! [`crate::event`]. The contract:
//!
//! * **Blocking events** — `RequestArrived`, `LockRequested`,
//!   `WaitCalled`, `NestedStarted` — suspend the thread. The engine will
//!   not step the thread again until the scheduler emits
//!   `Admit(tid)`/`Resume(tid)` for it (possibly within the same
//!   `on_event` call, possibly at a later event).
//! * **Non-blocking events** — `Unlocked`, `NotifyCalled`, `LockInfo`,
//!   `SyncIgnored`, `ThreadFinished`, `Control` — inform the scheduler;
//!   the reporting thread (if any) keeps running. The scheduler may still
//!   release *other* threads in response.
//! * A scheduler must never emit `Resume` for a thread that is not
//!   suspended, and must leave its `SyncCore` quiescent once every thread
//!   has finished.

use crate::bookkeeping::LockTable;
use crate::event::SchedEvent;
use crate::ids::ReplicaId;
use crate::obs::SchedOutput;
use crate::sync_core::SyncCore;
use std::sync::Arc;

/// Which algorithm a scheduler implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// No gating beyond plain mutex mechanics — the *nondeterministic*
    /// baseline every replication paper warns about. Negative control.
    Free,
    /// Sequential request execution in total order (paper's SEQ).
    Seq,
    /// Single active thread (Jiménez-Peris et al. / Zhao et al., §3.1).
    Sat,
    /// Loose synchronisation algorithm: leader decides, followers replay
    /// (Basile et al., §3.2).
    Lsa,
    /// Preemptive deterministic scheduling: round-based batches (Basile
    /// et al., §3.3).
    Pds,
    /// Multiple active threads with a single lock-granting primary
    /// (Reiser et al., §3.4).
    Mat,
    /// MAT + last-lock analysis: primacy is released as soon as the
    /// bookkeeping proves the primary will take no further lock (§4.1,
    /// Figure 2(b)).
    MatLL,
    /// The predicted-MAT sketched in §4.3: an age-ordered active queue;
    /// a thread may lock when every older thread is predicted and
    /// conflict-free with the requested mutex (Figure 3(b)).
    Pmat,
}

impl SchedulerKind {
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::Free,
        SchedulerKind::Seq,
        SchedulerKind::Sat,
        SchedulerKind::Lsa,
        SchedulerKind::Pds,
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
    ];

    /// The deterministic algorithms (everything but the negative control).
    pub const DETERMINISTIC: [SchedulerKind; 7] = [
        SchedulerKind::Seq,
        SchedulerKind::Sat,
        SchedulerKind::Lsa,
        SchedulerKind::Pds,
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Free => "FREE",
            SchedulerKind::Seq => "SEQ",
            SchedulerKind::Sat => "SAT",
            SchedulerKind::Lsa => "LSA",
            SchedulerKind::Pds => "PDS",
            SchedulerKind::Mat => "MAT",
            SchedulerKind::MatLL => "MAT-LL",
            SchedulerKind::Pmat => "PMAT",
        }
    }

    /// Does the algorithm exploit the static-analysis lock tables?
    pub fn uses_prediction(self) -> bool {
        matches!(self, SchedulerKind::MatLL | SchedulerKind::Pmat)
    }

    /// Can a crashed replica rejoin mid-run via quiescent state transfer?
    ///
    /// Recovery hands the rejoining replica a *fresh* scheduler instance,
    /// which is only sound when the algorithm's decision state is empty at
    /// quiescence (no runnable or blocked threads anywhere). That holds
    /// for the admission/token algorithms — SEQ, SAT, MAT, MAT-LL, PMAT —
    /// and trivially for FREE. It does *not* hold for LSA (the leader's
    /// announcement sequence numbers persist across quiescence) or PDS
    /// (round counters advance monotonically), so a rejoined replica
    /// would desynchronise from the survivors. See DESIGN.md §11 for the
    /// proof obligations this encodes.
    pub fn supports_recovery(self) -> bool {
        !matches!(self, SchedulerKind::Lsa | SchedulerKind::Pds)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "FREE" => Ok(SchedulerKind::Free),
            "SEQ" => Ok(SchedulerKind::Seq),
            "SAT" => Ok(SchedulerKind::Sat),
            "LSA" => Ok(SchedulerKind::Lsa),
            "PDS" => Ok(SchedulerKind::Pds),
            "MAT" => Ok(SchedulerKind::Mat),
            "MAT-LL" | "MATLL" => Ok(SchedulerKind::MatLL),
            "PMAT" => Ok(SchedulerKind::Pmat),
            other => Err(format!("unknown scheduler kind: {other}")),
        }
    }
}

/// PDS tuning knobs (paper §3.3).
#[derive(Clone, Copy, Debug)]
pub struct PdsConfig {
    /// Threads per round ("a pool with a fixed number of threads").
    pub batch_size: usize,
    /// Locks each thread may take per round (1, or 2 in the paper's
    /// optimised variant).
    pub locks_per_round: u32,
}

impl Default for PdsConfig {
    fn default() -> Self {
        PdsConfig {
            batch_size: 4,
            locks_per_round: 1,
        }
    }
}

/// Everything needed to instantiate a scheduler for one replica.
#[derive(Clone)]
pub struct SchedConfig {
    pub kind: SchedulerKind,
    pub replica: ReplicaId,
    pub leader: ReplicaId,
    pub lock_table: Arc<LockTable>,
}

impl SchedConfig {
    pub fn new(kind: SchedulerKind, replica: ReplicaId) -> Self {
        SchedConfig {
            kind,
            replica,
            leader: ReplicaId::new(0),
            lock_table: Arc::new(LockTable::unanalyzed(0)),
        }
    }

    pub fn with_lock_table(mut self, table: Arc<LockTable>) -> Self {
        self.lock_table = table;
        self
    }

    pub fn with_leader(mut self, leader: ReplicaId) -> Self {
        self.leader = leader;
        self
    }
}

/// A deterministic multithreading scheduler (decision module).
///
/// `Send` so `dmt-rt`'s carrier threads can step one replica's
/// executor, scheduler included, behind the runtime lock.
pub trait Scheduler: Send {
    fn kind(&self) -> SchedulerKind;

    /// Feed one event; actions (and, when the bundle records, decision
    /// records) are appended to `out` in decision order.
    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput);

    /// The underlying monitor table, for engine invariant checks.
    fn sync_core(&self) -> &SyncCore;

    /// Leadership change notification (LSA failover). Default: ignored.
    fn on_leader_change(&mut self, _new_leader: ReplicaId) {}

    /// Re-evaluate pending decisions outside any event (the engine calls
    /// this after a leadership change so a just-promoted LSA leader
    /// decides requests that were waiting for announcements that will
    /// never come). Default: nothing pending.
    fn kick(&mut self, _out: &mut SchedOutput) {}
}

/// The decision modules as one concrete sum type.
///
/// The replica engine stores this instead of `Box<dyn Scheduler>` so the
/// per-event `on_event` call is a direct jump over inlineable arms
/// rather than a virtual dispatch through a vtable — one of the hot-path
/// cuts behind the dmt-bench ns/event guard. `MAT` and `MAT-LL` share
/// the [`crate::mat::MatScheduler`] variant (the mode is a constructor
/// argument); [`Scheduler::kind`] still distinguishes them.
pub enum AnyScheduler {
    Free(crate::free::FreeScheduler),
    Seq(crate::seq::SeqScheduler),
    Sat(crate::sat::SatScheduler),
    Lsa(crate::lsa::LsaScheduler),
    Pds(crate::pds::PdsScheduler),
    Mat(crate::mat::MatScheduler),
    Pmat(crate::pmat::PmatScheduler),
}

macro_rules! each_sched {
    ($self:expr, $s:ident => $e:expr) => {
        match $self {
            AnyScheduler::Free($s) => $e,
            AnyScheduler::Seq($s) => $e,
            AnyScheduler::Sat($s) => $e,
            AnyScheduler::Lsa($s) => $e,
            AnyScheduler::Pds($s) => $e,
            AnyScheduler::Mat($s) => $e,
            AnyScheduler::Pmat($s) => $e,
        }
    };
}

impl Scheduler for AnyScheduler {
    #[inline]
    fn kind(&self) -> SchedulerKind {
        each_sched!(self, s => s.kind())
    }

    #[inline]
    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        each_sched!(self, s => s.on_event(ev, out))
    }

    #[inline]
    fn sync_core(&self) -> &SyncCore {
        each_sched!(self, s => s.sync_core())
    }

    fn on_leader_change(&mut self, new_leader: ReplicaId) {
        each_sched!(self, s => s.on_leader_change(new_leader))
    }

    fn kick(&mut self, out: &mut SchedOutput) {
        each_sched!(self, s => s.kick(out))
    }
}

/// Instantiates the decision module selected by `cfg` as the concrete
/// sum type (statically dispatched — the hot-path form).
pub fn make_scheduler_inline(cfg: &SchedConfig) -> AnyScheduler {
    match cfg.kind {
        SchedulerKind::Free => AnyScheduler::Free(crate::free::FreeScheduler::new()),
        SchedulerKind::Seq => AnyScheduler::Seq(crate::seq::SeqScheduler::new()),
        SchedulerKind::Sat => AnyScheduler::Sat(crate::sat::SatScheduler::new()),
        SchedulerKind::Lsa => {
            AnyScheduler::Lsa(crate::lsa::LsaScheduler::new(cfg.replica, cfg.leader))
        }
        SchedulerKind::Pds => {
            AnyScheduler::Pds(crate::pds::PdsScheduler::new(PdsConfig::default()))
        }
        SchedulerKind::Mat => AnyScheduler::Mat(crate::mat::MatScheduler::new(
            crate::mat::MatMode::Plain,
            cfg.lock_table.clone(),
        )),
        SchedulerKind::MatLL => AnyScheduler::Mat(crate::mat::MatScheduler::new(
            crate::mat::MatMode::LastLock,
            cfg.lock_table.clone(),
        )),
        SchedulerKind::Pmat => {
            AnyScheduler::Pmat(crate::pmat::PmatScheduler::new(cfg.lock_table.clone()))
        }
    }
}

/// Instantiates the decision module selected by `cfg` as a trait object
/// (for the hosts that take any `Box<dyn Scheduler>`: the logical
/// harness and `dmt-rt`'s real-thread runtime).
pub fn make_scheduler(cfg: &SchedConfig) -> Box<dyn Scheduler> {
    Box::new(make_scheduler_inline(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in SchedulerKind::ALL {
            let parsed: SchedulerKind = k.name().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("bogus".parse::<SchedulerKind>().is_err());
    }

    #[test]
    fn deterministic_set_excludes_free() {
        assert!(!SchedulerKind::DETERMINISTIC.contains(&SchedulerKind::Free));
        assert_eq!(
            SchedulerKind::DETERMINISTIC.len(),
            SchedulerKind::ALL.len() - 1
        );
    }

    #[test]
    fn prediction_flags() {
        assert!(SchedulerKind::MatLL.uses_prediction());
        assert!(SchedulerKind::Pmat.uses_prediction());
        assert!(!SchedulerKind::Mat.uses_prediction());
    }

    #[test]
    fn factory_builds_every_kind() {
        for k in SchedulerKind::ALL {
            let cfg = SchedConfig::new(k, ReplicaId::new(0));
            let s = make_scheduler(&cfg);
            assert_eq!(s.kind(), k);
        }
    }
}
