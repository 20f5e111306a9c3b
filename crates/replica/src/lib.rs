//! # dmt-replica — the replication engine
//!
//! Hosts replicated objects on a simulated cluster: total-order request
//! delivery (via `dmt-groupcomm`), one deterministic scheduler per
//! replica (via `dmt-core`), interpreted method bodies (via `dmt-lang`),
//! nested invocations brokered by a designated invoker, first-reply
//! client semantics, deterministic fault injection with LSA leader
//! failover and quiescence-gated recovery, and full execution-trace
//! recording.
//!
//! ## Replication roles
//!
//! Every replica is a peer state machine consuming the same totally
//! ordered request stream; the asymmetric roles are all *elected by
//! position*, so they survive failures without extra protocol:
//!
//! * **Designated invoker** — the lowest-numbered live replica performs
//!   nested (outbound) invocations on behalf of the group and broadcasts
//!   the replies; on its crash the next-lowest survivor re-issues the
//!   outstanding calls (reply broadcasts are deduplicated by per-thread
//!   call number).
//! * **LSA leader** — for the leader/follower scheduler the same
//!   lowest-live rule picks the announcement leader; a crash triggers a
//!   detection delay followed by an `Ev::LeaderDetect` failover that every
//!   survivor applies at the same point in the total order.
//! * **Recovery donor** — when a crashed replica rejoins
//!   ([`crate::fault::FaultKind::Recover`]), the designated survivor
//!   donates its object state at a quiescent instant (passive-replication
//!   catch-up); the group-comm layer re-admits the node at the current
//!   sequence number.
//!
//! On top of the engine sit:
//!
//! * [`checker`] — the determinism checker: runs a cluster whose replicas
//!   experience different CPU and network jitter and verifies that the
//!   deterministic schedulers still converge (and that the FREE negative
//!   control diverges); [`checker::check_fault_convergence`] is the
//!   fault-aware variant (state-hash agreement for recovered replicas,
//!   full trace agreement for survivors);
//! * [`fault`] — the deterministic failure schedule ([`FaultPlan`]):
//!   crashes, recoveries, duplicate-delivery and reordering adversaries,
//!   injected as ordinary calendar-queue events (DESIGN.md §11);
//! * [`replay`] — deterministic replay for **passive replication**: a
//!   primary's recorded grant log replayed on a backup reproduces the
//!   primary's state (paper §1's log re-execution argument).

pub mod checker;
pub mod engine;
pub mod fault;
pub mod msg;
pub mod replay;
pub mod shard;
pub mod trace;

pub use checker::{check_determinism, check_fault_convergence, CheckOutcome};
pub use engine::{Engine, EngineConfig, EngineQueue, PerfCounters, RequestLatency, RunResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRecord, FaultRecordKind};
pub use msg::{this_mutex, ClientScript, GcMsg, RequestId, Scenario};
pub use replay::{record_primary, replay_on_backup, PrimaryLog, ReplayStalled};
pub use shard::{run_sharded, ShardMerger, ShardedRunResult};
pub use trace::{compare, Divergence, ExecutionTrace, MatchLevel};
