//! Structured trace recorder.
//!
//! A [`Tracer`] collects typed [`TraceRecord`]s stamped with virtual-ns
//! time and the replica that produced them. The disabled path is one
//! predictable branch: [`Tracer::record`] takes a closure, so the event
//! value is never even constructed when tracing is off, and the backing
//! vector keeps capacity 0 — no allocation ever happens. The enabled
//! path is bounded: the buffer caps at [`DEFAULT_TRACE_CAP`] records
//! (or the cap given to [`Tracer::buffered`]) and counts overflow in a
//! drop counter instead of growing without bound.

use dmt_core::{Decision, DepthSample, ThreadId};
use dmt_lang::MutexId;

/// Default record cap of an enabled tracer: 1 Mi records. Beyond it
/// records are dropped and counted rather than buffered.
pub const DEFAULT_TRACE_CAP: usize = 1 << 20;

/// One typed trace event. `Sched` wraps the scheduler's own decision
/// vocabulary; the rest are the engine-level request lifecycle and the
/// group-communication legs (the engine owns the virtual clock, so it —
/// not dmt-groupcomm — stamps the hops).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A scheduler decision (grant/defer/predict/admit/…).
    Sched(Decision),
    /// A request entered the total-order layer.
    GcSubmit { source: u64 },
    /// The sequencer assigned `seq` and fanned the message out.
    GcSequenced { seq: u64 },
    /// A replica received the sequenced message.
    GcDeliver { seq: u64 },
    /// A sequenced request materialised as thread `tid` at a replica.
    RequestArrived { tid: ThreadId, dummy: bool },
    /// The thread ran to completion at this replica.
    RequestFinished { tid: ThreadId },
    /// The first replica's answer for the request left for the client.
    RequestReplied { tid: ThreadId },
    /// Queue-depth sample taken after a scheduler event was applied.
    Depth(DepthSample),
    /// The replica crashed (fault injection or scripted kill).
    ReplicaCrashed,
    /// The replica completed passive-replication catch-up and rejoined
    /// the group, resuming delivery at sequence number `from_seq`.
    ReplicaRecovered { from_seq: u64 },
    /// Leader failover completed: this replica now treats `new_leader`
    /// as the LSA leader.
    LeaderFailover { new_leader: u32 },
    /// Thread `tid` released `mutex` (monitor exit or a `wait` call
    /// surrendering the monitor; re-acquisition after `wait` shows up
    /// as a `Grant { from_wait: true }` decision). Stamped by the
    /// engine, not the schedulers, so decision streams are unchanged —
    /// this closes Grant spans so the contention profiler can measure
    /// hold times.
    MutexReleased { tid: ThreadId, mutex: MutexId },
}

/// One stamped record: virtual nanoseconds, producing replica (clients
/// and the sequencer use [`TraceRecord::NO_REPLICA`]), event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub t_ns: u64,
    pub replica: u32,
    pub ev: TraceEvent,
}

impl TraceRecord {
    /// `replica` value for cluster-level records (sequencer, client).
    pub const NO_REPLICA: u32 = u32::MAX;
}

/// Recorder with a runtime on/off switch. Cheap to embed always; costs
/// one branch per potential record when disabled. When enabled, records
/// go to a bounded in-memory buffer; overflow is dropped and counted.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    records: Vec<TraceRecord>,
    cap: usize,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A disabled tracer: never allocates, never records.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            records: Vec::new(),
            cap: 0,
            dropped: 0,
        }
    }

    /// An enabled tracer with a preallocated record buffer capped at
    /// [`DEFAULT_TRACE_CAP`] records.
    pub fn enabled() -> Self {
        Tracer::buffered(DEFAULT_TRACE_CAP)
    }

    /// An enabled tracer buffering at most `cap` records in memory;
    /// overflow is dropped and counted.
    pub fn buffered(cap: usize) -> Self {
        let cap = cap.max(1);
        Tracer {
            enabled: true,
            records: Vec::with_capacity(cap.min(4096)),
            cap,
            dropped: 0,
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `f()` if enabled. The closure runs only on the enabled
    /// path, so building an expensive event value is free when off.
    #[inline]
    pub fn record(&mut self, t_ns: u64, replica: u32, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            if self.records.len() < self.cap {
                self.records.push(TraceRecord {
                    t_ns,
                    replica,
                    ev: f(),
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Records currently buffered, oldest first.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffer capacity — 0 on a never-enabled tracer, proving the
    /// disabled path allocation-free.
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Drains the buffered records, oldest first.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }

    /// Consumes the tracer, returning the retained records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_closures_or_allocates() {
        let mut t = Tracer::disabled();
        for i in 0..1000 {
            t.record(i, 0, || panic!("closure must not run when disabled"));
        }
        assert!(t.records().is_empty());
        assert_eq!(t.capacity(), 0, "disabled tracer must never allocate");
    }

    #[test]
    fn enabled_tracer_keeps_stamped_records_in_order() {
        let mut t = Tracer::enabled();
        t.record(10, 0, || TraceEvent::GcSubmit { source: 7 });
        t.record(20, 1, || TraceEvent::GcDeliver { seq: 0 });
        let r = t.records();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r[0],
            TraceRecord {
                t_ns: 10,
                replica: 0,
                ev: TraceEvent::GcSubmit { source: 7 }
            }
        );
        assert_eq!(r[1].t_ns, 20);
        assert!(t.capacity() >= 2);
    }

    #[test]
    fn buffered_tracer_caps_and_counts_drops() {
        let mut t = Tracer::buffered(3);
        for i in 0..10 {
            t.record(i, 0, || TraceEvent::GcSequenced { seq: i });
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 7);
        // The kept records are the earliest (head of the run).
        assert_eq!(t.records()[2].t_ns, 2);
        let drained = t.take_records();
        assert_eq!(drained.len(), 3);
        assert!(t.records().is_empty());
    }
}
