//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a *schedule* of failures in virtual time: replica
//! crashes, quiescence-gated recoveries, duplicate-delivery and
//! reordering adversaries on the message layer. The engine turns each
//! entry into an ordinary calendar-queue event at construction time, so
//! faults obey the same `(time, seq)` total order as every other event —
//! a fault schedule is exactly as replayable and byte-stable as the
//! workload it perturbs (DESIGN.md §11, "injection as events").
//!
//! Nothing here consults a wall clock or an RNG of its own: a plan is a
//! plain value, and two runs with the same `(scenario, config, plan)`
//! triple are bit-identical. The adversary windows deliberately avoid
//! fresh randomness too (fixed extra delays, parity-based reordering), so
//! enabling them never perturbs the latency draws of unaffected hops.

use dmt_sim::{SimDuration, SimTime};

/// What happens at one instant of a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Replica `replica` crashes: fenced off the broadcast, threads
    /// frozen, LSA leader failover triggered if it led.
    Crash { replica: usize },
    /// Replica `replica` rejoins via passive-replication catch-up: the
    /// engine waits for cluster quiescence (retrying on a fixed backoff),
    /// clones the designated survivor's object state, and re-admits the
    /// replica to the broadcast at the current sequence number. Requires
    /// a scheduler kind whose
    /// [`dmt_core::SchedulerKind::supports_recovery`] is true.
    Recover { replica: usize },
    /// From this instant until `until` (absolute virtual time), every
    /// broadcast leg towards `replica` is delivered twice: the duplicate
    /// copy trails the original by `copy_delay`. With at-most-once
    /// delivery (the default) duplicates are dropped and counted; with
    /// `EngineConfig::with_broken_dedup` they reach the replica — the
    /// divergence the determinism checker must flag.
    DuplicateWindow {
        replica: usize,
        until: SimDuration,
        copy_delay: SimDuration,
    },
    /// From this instant until `until`, every *second* broadcast leg
    /// towards `replica` is delayed by `extra`, forcing out-of-order
    /// arrivals that exercise the hold-back buffer (counted in
    /// `NetStats::held_back`). The parity rule keeps the perturbation
    /// deterministic without consuming RNG draws.
    DelayWindow {
        replica: usize,
        until: SimDuration,
        extra: SimDuration,
    },
}

impl FaultKind {
    /// The replica the fault targets.
    pub fn replica(&self) -> usize {
        match *self {
            FaultKind::Crash { replica }
            | FaultKind::Recover { replica }
            | FaultKind::DuplicateWindow { replica, .. }
            | FaultKind::DelayWindow { replica, .. } => replica,
        }
    }
}

/// One scheduled fault: `kind` fires `at` nanoseconds after run start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub at: SimDuration,
    pub kind: FaultKind,
}

/// A deterministic failure schedule, built with the fluent helpers and
/// handed to [`crate::EngineConfig::with_faults`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Crash `replica` at `at`.
    pub fn crash(mut self, at: SimDuration, replica: usize) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Crash { replica },
        });
        self
    }

    /// Begin recovery of `replica` at `at` (completes at the first
    /// quiescent instant at or after `at`).
    pub fn recover(mut self, at: SimDuration, replica: usize) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::Recover { replica },
        });
        self
    }

    /// A duplicate-delivery adversary against `replica` over
    /// `[at, at + len)`, duplicates trailing by `copy_delay`.
    pub fn duplicate_window(
        mut self,
        at: SimDuration,
        len: SimDuration,
        replica: usize,
        copy_delay: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DuplicateWindow {
                replica,
                until: at + len,
                copy_delay,
            },
        });
        self
    }

    /// A reordering adversary against `replica` over `[at, at + len)`:
    /// every second leg towards it is delayed by `extra`.
    pub fn delay_window(
        mut self,
        at: SimDuration,
        len: SimDuration,
        replica: usize,
        extra: SimDuration,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            kind: FaultKind::DelayWindow {
                replica,
                until: at + len,
                extra,
            },
        });
        self
    }

    /// A leader-failover storm: `rounds` alternating crash/recover cycles
    /// of replicas 0 and 1 starting at `start`, each outage lasting
    /// `outage` with `gap` between recovery and the next crash. Because
    /// the engine's designated leader is always the lowest live replica,
    /// every crash of the current lowest replica forces a failover —
    /// round `k` kills replica `k % 2`, so leadership ping-pongs between
    /// 0 and 1. Requires ≥ 3 replicas so a survivor always remains.
    pub fn leader_storm(
        mut self,
        start: SimDuration,
        outage: SimDuration,
        gap: SimDuration,
        rounds: usize,
    ) -> Self {
        let mut t = start;
        for k in 0..rounds {
            let victim = k % 2;
            self = self.crash(t, victim);
            self = self.recover(t + outage, victim);
            t = t + outage + gap;
        }
        self
    }
}

/// What a lifecycle entry in [`crate::RunResult::fault_log`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultRecordKind {
    /// The replica went down.
    Crashed,
    /// A recovery attempt found the cluster non-quiescent and re-armed
    /// itself one retry interval later.
    RecoveryDeferred,
    /// The replica completed catch-up: state cloned from `donor`,
    /// delivery resumed at sequence number `from_seq`.
    Recovered { from_seq: u64, donor: usize },
    /// The cluster switched its LSA leader to `new_leader`.
    LeaderFailover { new_leader: usize },
}

/// One fault-lifecycle record, stamped with virtual time. The log is
/// part of [`crate::RunResult`], so golden tests can assert the *timing*
/// of crash → detect → failover → catch-up, not just the end state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    pub at: SimTime,
    pub replica: usize,
    pub kind: FaultRecordKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn builder_accumulates_in_order() {
        let plan = FaultPlan::new()
            .crash(SimDuration::from_nanos(5 * MS), 2)
            .recover(SimDuration::from_nanos(9 * MS), 2)
            .duplicate_window(
                SimDuration::from_nanos(MS),
                SimDuration::from_nanos(3 * MS),
                1,
                SimDuration::from_nanos(MS / 2),
            );
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[0].kind, FaultKind::Crash { replica: 2 });
        assert_eq!(plan.events[1].kind, FaultKind::Recover { replica: 2 });
        match plan.events[2].kind {
            FaultKind::DuplicateWindow { replica, until, .. } => {
                assert_eq!(replica, 1);
                assert_eq!(until, SimDuration::from_nanos(4 * MS));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leader_storm_alternates_victims() {
        let plan = FaultPlan::new().leader_storm(
            SimDuration::from_nanos(2 * MS),
            SimDuration::from_nanos(MS),
            SimDuration::from_nanos(MS),
            4,
        );
        // 4 rounds × (crash + recover).
        assert_eq!(plan.events.len(), 8);
        let victims: Vec<usize> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash { replica } => Some(replica),
                _ => None,
            })
            .collect();
        assert_eq!(victims, vec![0, 1, 0, 1]);
        // Every crash precedes its recovery.
        for pair in plan.events.chunks(2) {
            assert!(pair[0].at < pair[1].at);
        }
    }

    #[test]
    fn plans_are_plain_comparable_values() {
        let a = FaultPlan::new().crash(SimDuration::from_nanos(MS), 0);
        let b = FaultPlan::new().crash(SimDuration::from_nanos(MS), 0);
        assert_eq!(a, b);
        assert!(FaultPlan::new().is_empty());
        assert!(!a.is_empty());
        assert_eq!(a.events[0].kind.replica(), 0);
    }
}
