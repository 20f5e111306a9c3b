//! # dmt-core — deterministic multithreading schedulers
//!
//! The paper's subject matter: application-level scheduling algorithms
//! that make multithreaded execution of replicated-object methods
//! deterministic, so active and passive replication stay consistent
//! without sequentializing everything.
//!
//! The crate follows the two-module architecture of paper §4.3:
//!
//! * the **bookkeeping module** ([`bookkeeping`]) holds the static lock
//!   tables produced by `dmt-analysis` and each thread's dynamic syncid
//!   table, and answers `is_predicted` / `may_lock` / `no_more_locks`;
//! * the **decision modules** implement the [`scheduler::Scheduler`]
//!   trait: the surveyed algorithms [`seq`] (§1), [`sat`] (§3.1),
//!   [`lsa`] (§3.2), [`pds`] (§3.3), [`mat`] (§3.4) and the paper's
//!   proposals [`mat`]`::MatMode::LastLock` (§4.1) and [`pmat`] (§4.3),
//!   plus [`free`], the nondeterministic negative control.
//!
//! Shared monitor mechanics (reentrant Java-style mutexes with 1:1
//! condition variables) live in [`sync_core`]. One replica executor
//! ([`exec`]) turns thread actions into scheduler events and applies the
//! decisions; a lightweight logical harness ([`harness`]) hosts it for
//! unit and property testing, the full virtual-time replica engine in
//! `dmt-replica` hosts one per replica, and `dmt-rt` hosts one on real
//! OS threads. All three feed it one kind of input, the totally ordered
//! deliveries of [`input`].

pub mod bookkeeping;
pub mod event;
pub mod exec;
pub mod free;
pub mod harness;
pub mod ids;
pub mod input;
pub mod lsa;
pub mod mat;
pub mod obs;
pub mod pds;
pub mod pmat;
pub mod sat;
pub mod scheduler;
pub mod seq;
pub mod slot;
pub mod sync_core;

pub use bookkeeping::{Bookkeeping, EntryChange, EntryState, LockTable, StaticSyncEntry};
pub use event::{CtrlMsg, SchedAction, SchedEvent};
pub use exec::{Blocked, ExecHost, ReplicaExec};
pub use ids::{ReplicaId, ThreadId};
pub use input::{Input, InputLog, Request};
pub use obs::{Decision, DeferReason, SchedOutput};
pub use scheduler::{
    make_scheduler, make_scheduler_inline, AnyScheduler, PdsConfig, SchedConfig, Scheduler,
    SchedulerKind,
};
pub use slot::{DenseSet, SlotMap};
pub use sync_core::{Grant, LockOutcome, SyncCore};
