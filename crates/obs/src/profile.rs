//! Per-mutex contention profiler.
//!
//! Folds one replica's Defer/Grant/Release stream into a deterministic
//! per-object profile: defer counts split by [`DeferReason`], wait-time
//! and hold-time [`LogHistogram`]s, and the waits-for edge list (which
//! mutexes were held when another was acquired — the lock graph the
//! race-prediction pass in `dmt-analysis` walks for cycles).
//!
//! Span reconstruction:
//!
//! * **wait** — first `Defer { tid, mutex }` → matching `Grant`.
//!   Uncontended acquisitions (grant with no prior defer) contribute no
//!   wait sample, so the wait histogram measures *contention*, not
//!   traffic. The first defer's reason attributes the whole wait.
//! * **hold** — `Grant { tid, mutex }` → `MutexReleased { tid, mutex }`,
//!   outermost span under reentrancy (a depth counter absorbs nested
//!   re-grants). A `wait` call releases the monitor (the engine stamps
//!   `MutexReleased`), and the wake-up re-acquisition arrives as
//!   `Grant { from_wait: true }`, opening a fresh hold span.
//!
//! Everything is integer virtual-ns arithmetic over a deterministic
//! record stream, so profiles — and the flamegraph-style
//! [`ContentionProfile::collapsed`] rendering — are byte-stable across
//! reruns and worker counts.

use crate::trace::{TraceEvent, TraceRecord};
use dmt_core::{Decision, DeferReason, ThreadId};
use dmt_lang::MutexId;
use dmt_sim::LogHistogram;
use std::collections::BTreeMap;

/// All [`DeferReason`] variants, in the order profile arrays use.
pub const DEFER_REASONS: [DeferReason; 4] = [
    DeferReason::MutexBusy,
    DeferReason::OrderGate,
    DeferReason::Barrier,
    DeferReason::Token,
];

fn reason_index(r: DeferReason) -> usize {
    match r {
        DeferReason::MutexBusy => 0,
        DeferReason::OrderGate => 1,
        DeferReason::Barrier => 2,
        DeferReason::Token => 3,
    }
}

/// Aggregate contention statistics for one mutex.
#[derive(Debug, Clone, Default)]
pub struct MutexProfile {
    /// Lock grants (including post-`wait` re-acquisitions).
    pub grants: u64,
    /// Defer decisions, indexed like [`DEFER_REASONS`].
    pub defers: [u64; 4],
    /// Total blocked virtual-ns attributed to each first-defer reason,
    /// indexed like [`DEFER_REASONS`].
    pub wait_ns_by_reason: [u64; 4],
    /// First-defer → grant latency of contended acquisitions.
    pub wait: LogHistogram,
    /// Grant → release span (outermost under reentrancy).
    pub hold: LogHistogram,
    /// Total held virtual-ns across closed spans.
    pub hold_ns: u64,
}

impl MutexProfile {
    /// Total defers across all reasons.
    pub fn defers_total(&self) -> u64 {
        self.defers.iter().sum()
    }

    /// Total contended-wait virtual-ns across all reasons.
    pub fn wait_ns_total(&self) -> u64 {
        self.wait_ns_by_reason.iter().sum()
    }
}

/// One waits-for edge: `held` was already held by the acquiring thread
/// when `acquired` was granted, `count` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockEdge {
    pub held: MutexId,
    pub acquired: MutexId,
    pub count: u64,
}

/// Per-replica contention profile: per-mutex statistics plus the lock
/// graph, both in deterministic (id-sorted) order.
#[derive(Debug, Clone, Default)]
pub struct ContentionProfile {
    /// Replica whose stream was folded.
    pub replica: u32,
    /// Per-mutex rows, sorted by mutex id.
    pub mutexes: Vec<(MutexId, MutexProfile)>,
    /// Waits-for edges, sorted by (held, acquired).
    pub edges: Vec<LockEdge>,
}

/// Open hold span: acquisition stamp and reentrancy depth.
struct Hold {
    since: u64,
    depth: u32,
}

impl ContentionProfile {
    /// Folds `records`, keeping only events from `replica`. Timings mix
    /// decisions and releases of a single replica's clock, so profiles
    /// are built one replica at a time (replica 0 by convention —
    /// deterministic replication makes the others identical anyway,
    /// which `observability.rs` pins at the match level).
    pub fn from_records(records: &[TraceRecord], replica: u32) -> Self {
        let mut mutexes: BTreeMap<u32, MutexProfile> = BTreeMap::new();
        let mut edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        // (tid, mutex) → first-defer stamp + reason.
        let mut waiting: BTreeMap<(u32, u32), (u64, DeferReason)> = BTreeMap::new();
        // (tid, mutex) → open hold span.
        let mut holding: BTreeMap<(u32, u32), Hold> = BTreeMap::new();

        for rec in records.iter().filter(|r| r.replica == replica) {
            match rec.ev {
                TraceEvent::Sched(Decision::Defer { tid, mutex, reason }) => {
                    let m = mutexes.entry(mutex.index() as u32).or_default();
                    m.defers[reason_index(reason)] += 1;
                    waiting.entry(key(tid, mutex)).or_insert((rec.t_ns, reason));
                }
                TraceEvent::Sched(Decision::Grant { tid, mutex, .. }) => {
                    let m = mutexes.entry(mutex.index() as u32).or_default();
                    m.grants += 1;
                    if let Some((t0, reason)) = waiting.remove(&key(tid, mutex)) {
                        let waited = rec.t_ns.saturating_sub(t0);
                        m.wait.record(waited);
                        m.wait_ns_by_reason[reason_index(reason)] += waited;
                    }
                    match holding.get_mut(&key(tid, mutex)) {
                        Some(h) => h.depth += 1, // reentrant re-grant
                        None => {
                            for (&(htid, held), _) in holding.range(key_range(tid)) {
                                debug_assert_eq!(htid, tid.0);
                                *edges.entry((held, mutex.index() as u32)).or_default() += 1;
                            }
                            holding.insert(
                                key(tid, mutex),
                                Hold {
                                    since: rec.t_ns,
                                    depth: 1,
                                },
                            );
                        }
                    }
                }
                TraceEvent::MutexReleased { tid, mutex } => {
                    if let Some(h) = holding.get_mut(&key(tid, mutex)) {
                        h.depth -= 1;
                        if h.depth == 0 {
                            let held = rec.t_ns.saturating_sub(h.since);
                            holding.remove(&key(tid, mutex));
                            let m = mutexes.entry(mutex.index() as u32).or_default();
                            m.hold.record(held);
                            m.hold_ns += held;
                        }
                    }
                }
                _ => {}
            }
        }

        ContentionProfile {
            replica,
            mutexes: mutexes
                .into_iter()
                .map(|(id, p)| (MutexId::new(id), p))
                .collect(),
            edges: edges
                .into_iter()
                .map(|((held, acquired), count)| LockEdge {
                    held: MutexId::new(held),
                    acquired: MutexId::new(acquired),
                    count,
                })
                .collect(),
        }
    }

    /// Total grants across all mutexes.
    pub fn grants_total(&self) -> u64 {
        self.mutexes.iter().map(|(_, p)| p.grants).sum()
    }

    /// Total defers across all mutexes.
    pub fn defers_total(&self) -> u64 {
        self.mutexes.iter().map(|(_, p)| p.defers_total()).sum()
    }

    /// Total contended acquisitions (wait samples) across all mutexes.
    pub fn contended_total(&self) -> u64 {
        self.mutexes.iter().map(|(_, p)| p.wait.count()).sum()
    }

    /// Total contended-wait virtual-ns across all mutexes.
    pub fn wait_ns_total(&self) -> u64 {
        self.mutexes.iter().map(|(_, p)| p.wait_ns_total()).sum()
    }

    /// p-th percentile (`p` in 0–100, as [`LogHistogram::percentile_ns`])
    /// of the merged wait histogram; 0 when nothing contended.
    pub fn wait_percentile_ns(&self, p: f64) -> u64 {
        let mut merged = LogHistogram::default();
        for (_, prof) in &self.mutexes {
            merged.merge(&prof.wait);
        }
        merged.percentile_ns(p).unwrap_or(0)
    }

    /// Flamegraph-style collapsed-stack rendering, one line per frame
    /// stack with an integer virtual-ns weight — feed it to any
    /// `flamegraph.pl`-compatible renderer. Stacks:
    ///
    /// * `m<id>;hold <hold_ns>` — time the mutex was held,
    /// * `m<id>;wait;<reason> <wait_ns>` — time threads were blocked on
    ///   it, split by the first defer's reason.
    ///
    /// Lines are id-sorted and zero-weight frames are omitted, so the
    /// output is byte-stable.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (id, p) in &self.mutexes {
            if p.hold_ns > 0 {
                out.push_str(&format!("m{};hold {}\n", id.index(), p.hold_ns));
            }
            for (i, reason) in DEFER_REASONS.iter().enumerate() {
                if p.wait_ns_by_reason[i] > 0 {
                    out.push_str(&format!(
                        "m{};wait;{} {}\n",
                        id.index(),
                        reason.name(),
                        p.wait_ns_by_reason[i]
                    ));
                }
            }
        }
        out
    }

    /// The number of *hot* mutexes: those accounting for at least `pct`
    /// percent of the profile's total contended-wait time (integer
    /// arithmetic — deterministic). An uncontended profile has none.
    pub fn hot_count(&self, pct: u32) -> usize {
        let total = self.wait_ns_total();
        if total == 0 {
            return 0;
        }
        self.mutexes
            .iter()
            .filter(|(_, p)| p.wait_ns_total() * 100 >= total * pct as u64)
            .count()
    }
}

fn key(tid: ThreadId, mutex: MutexId) -> (u32, u32) {
    (tid.0, mutex.index() as u32)
}

fn key_range(tid: ThreadId) -> std::ops::RangeInclusive<(u32, u32)> {
    (tid.0, 0)..=(tid.0, u32::MAX)
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
    fn rec(t_ns: u64, ev: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_ns,
            replica: 0,
            ev,
        }
    }
    fn grant(t_ns: u64, tid: ThreadId, mutex: MutexId) -> TraceRecord {
        rec(
            t_ns,
            TraceEvent::Sched(Decision::Grant {
                tid,
                mutex,
                from_wait: false,
            }),
        )
    }
    fn defer(t_ns: u64, tid: ThreadId, mutex: MutexId, reason: DeferReason) -> TraceRecord {
        rec(
            t_ns,
            TraceEvent::Sched(Decision::Defer { tid, mutex, reason }),
        )
    }
    fn release(t_ns: u64, tid: ThreadId, mutex: MutexId) -> TraceRecord {
        rec(t_ns, TraceEvent::MutexReleased { tid, mutex })
    }

    #[test]
    fn wait_and_hold_spans_reconstruct() {
        // t0 holds m0 [10, 50]; t1 defers at 20, granted 50, releases 80.
        let records = vec![
            grant(10, t(0), m(0)),
            defer(20, t(1), m(0), DeferReason::MutexBusy),
            release(50, t(0), m(0)),
            grant(50, t(1), m(0)),
            release(80, t(1), m(0)),
        ];
        let p = ContentionProfile::from_records(&records, 0);
        assert_eq!(p.mutexes.len(), 1);
        let (id, prof) = &p.mutexes[0];
        assert_eq!(id.index(), 0);
        assert_eq!(prof.grants, 2);
        assert_eq!(prof.defers, [1, 0, 0, 0]);
        assert_eq!(prof.wait.count(), 1, "only the contended grant waits");
        assert_eq!(prof.wait_ns_by_reason[0], 30);
        assert_eq!(prof.hold.count(), 2);
        assert_eq!(prof.hold_ns, 40 + 30);
        assert!(p.edges.is_empty());
    }

    #[test]
    fn nested_holds_become_lock_edges_and_reentrancy_folds() {
        let records = vec![
            grant(0, t(0), m(1)),
            grant(5, t(0), m(2)), // nested: edge 1 -> 2
            grant(6, t(0), m(2)), // reentrant re-grant: no edge, no new span
            release(8, t(0), m(2)),
            release(10, t(0), m(2)), // outermost close: hold = 5
            release(12, t(0), m(1)),
        ];
        let p = ContentionProfile::from_records(&records, 0);
        assert_eq!(
            p.edges,
            vec![LockEdge {
                held: m(1),
                acquired: m(2),
                count: 1
            }]
        );
        let m2 = &p.mutexes.iter().find(|(id, _)| id.index() == 2).unwrap().1;
        assert_eq!(m2.hold.count(), 1);
        assert_eq!(m2.hold_ns, 5);
    }

    #[test]
    fn collapsed_output_is_stable_and_reason_tagged() {
        let records = vec![
            grant(0, t(0), m(3)),
            defer(1, t(1), m(3), DeferReason::Token),
            release(10, t(0), m(3)),
            grant(10, t(1), m(3)),
            release(15, t(1), m(3)),
        ];
        let p = ContentionProfile::from_records(&records, 0);
        assert_eq!(p.collapsed(), "m3;hold 15\nm3;wait;token 9\n");
    }

    #[test]
    fn hot_count_counts_dominant_waiters_only() {
        let records = vec![
            // m0: 90ns of waiting. m1: 10ns.
            grant(0, t(0), m(0)),
            defer(5, t(1), m(0), DeferReason::MutexBusy),
            release(95, t(0), m(0)),
            grant(95, t(1), m(0)),
            release(96, t(1), m(0)),
            grant(100, t(0), m(1)),
            defer(105, t(1), m(1), DeferReason::MutexBusy),
            release(115, t(0), m(1)),
            grant(115, t(1), m(1)),
            release(116, t(1), m(1)),
        ];
        let p = ContentionProfile::from_records(&records, 0);
        assert_eq!(p.hot_count(50), 1, "m1's 10% share is below 50%");
        assert_eq!(p.hot_count(10), 2);
        assert_eq!(ContentionProfile::default().hot_count(50), 0);
    }
}
