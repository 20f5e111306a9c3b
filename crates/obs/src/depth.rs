//! Queue depth from the decision trace.
//!
//! Folds one replica's records into the population of *parked* threads
//! over virtual time, split by what each thread waits for. A thread is
//! in at most one phase at a time:
//!
//! * **admission** — `RequestArrived` → `Admit` (SEQ's pending queue,
//!   SAT's fresh ready entries, the PDS waiting room);
//! * **gate** — the scheduler's own serialisation: the first `Defer`
//!   with reason `Token`, `OrderGate` or `Barrier`, or PMAT's refused
//!   `Predict`, → the `Grant` of that mutex; and SAT's
//!   `ResumeDefer` → `Resume` (a ready thread waiting for the single
//!   active slot);
//! * **monitor** — the first `Defer { MutexBusy }` → `Grant`;
//! * **condition wait** — the `MutexReleased` a `wait` makes →
//!   `Grant { from_wait }` (wait set plus re-acquisition queue).
//!
//! Lock waits use [`ContentionProfile`](crate::ContentionProfile)'s
//! span matcher, so a wait opened by one reason and extended by another
//! (a MAT token wait that meets a busy monitor) counts once, under the
//! first. A span still open when the replica's records end (a stalled
//! run) closes at its last record. A `wait` no grant ever answers (SEQ's
//! deadlock) leaves no span: its release is not known to be a wait
//! until the grant.
//!
//! The sweep over the span ends gives the population at every change
//! point and its exact integral in thread·ns, so the time-weighted mean
//! over the replica's busy window is a ratio of integers and the
//! population integral equals the summed span lengths (Little's law
//! over a closed window). A parked thread is live, so the population
//! never exceeds `RequestArrived` minus `RequestFinished`.

use crate::profile::WaitSpans;
use crate::trace::{TraceEvent, TraceRecord};
use dmt_core::{Decision, DeferReason, ThreadId};
use std::collections::BTreeMap;

/// What a parked thread waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Admission,
    Gate,
    Monitor,
    CondWait,
}

/// Every [`Phase`], in the order population arrays use.
pub const PHASES: [Phase; 4] = [
    Phase::Admission,
    Phase::Gate,
    Phase::Monitor,
    Phase::CondWait,
];

impl Phase {
    /// Short stable label (table columns, Chrome counter series).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Gate => "gate",
            Phase::Monitor => "monitor",
            Phase::CondWait => "cond_wait",
        }
    }

    fn of_defer(reason: DeferReason) -> Phase {
        match reason {
            DeferReason::MutexBusy => Phase::Monitor,
            DeferReason::OrderGate | DeferReason::Barrier | DeferReason::Token => Phase::Gate,
        }
    }
}

/// One thread's stay in one phase, `[start_ns, end_ns)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParkedSpan {
    pub tid: ThreadId,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl ParkedSpan {
    pub fn len_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The population after every change at `t_ns` was applied: live
/// threads and parked threads per phase (indexed like [`PHASES`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepthPoint {
    pub t_ns: u64,
    pub live: u32,
    pub parked: [u32; 4],
}

impl DepthPoint {
    /// Parked threads in any phase.
    pub fn total(&self) -> u32 {
        self.parked.iter().sum()
    }
}

/// One population's summary over the busy window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Population {
    /// Integral of the population over the window, in thread·ns.
    pub thread_ns: u64,
    /// Largest population at any change point.
    pub max: u32,
}

/// One replica's queue-depth profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueDepth {
    pub replica: u32,
    /// The busy window: first to last change point.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Live threads (arrived, not finished).
    pub live: Population,
    /// Parked threads per phase, indexed like [`PHASES`].
    pub phases: [Population; 4],
    /// Parked threads in any phase.
    pub parked: Population,
}

impl QueueDepth {
    /// Folds `records`, keeping only events from `replica`.
    pub fn from_records(records: &[TraceRecord], replica: u32) -> Self {
        Self::from_points(replica, &depth_points(records, replica))
    }

    /// Integrates a change-point sweep (as [`depth_points`] returns it).
    pub fn from_points(replica: u32, points: &[DepthPoint]) -> Self {
        let mut d = QueueDepth {
            replica,
            start_ns: points.first().map_or(0, |p| p.t_ns),
            end_ns: points.last().map_or(0, |p| p.t_ns),
            ..QueueDepth::default()
        };
        let add = |pop: &mut Population, n: u32, dt: u64| {
            pop.thread_ns += n as u64 * dt;
            pop.max = pop.max.max(n);
        };
        for (i, p) in points.iter().enumerate() {
            let dt = points.get(i + 1).map_or(0, |next| next.t_ns - p.t_ns);
            add(&mut d.live, p.live, dt);
            add(&mut d.parked, p.total(), dt);
            for (pop, &n) in d.phases.iter_mut().zip(&p.parked) {
                add(pop, n, dt);
            }
        }
        d
    }

    /// The busy window's length in ns.
    pub fn window_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Time-weighted mean of `pop` over the busy window (0 when empty).
    pub fn mean(&self, pop: Population) -> f64 {
        match self.window_ns() {
            0 => 0.0,
            w => pop.thread_ns as f64 / w as f64,
        }
    }

    /// The population of `phase`.
    pub fn phase(&self, phase: Phase) -> Population {
        self.phases[phase as usize]
    }
}

/// Every parked span of `replica`, in the order they close.
pub fn parked_spans(records: &[TraceRecord], replica: u32) -> Vec<ParkedSpan> {
    fold(records, replica).0
}

/// The population at every instant it changes on `replica`, in time
/// order.
pub fn depth_points(records: &[TraceRecord], replica: u32) -> Vec<DepthPoint> {
    let (spans, live) = fold(records, replica);
    // (time, phase slot or `LIVE`, ±1), swept in time order.
    const LIVE: usize = PHASES.len();
    let mut deltas: Vec<(u64, usize, i32)> = live.into_iter().map(|(t, d)| (t, LIVE, d)).collect();
    for s in spans.iter().filter(|s| s.end_ns > s.start_ns) {
        deltas.push((s.start_ns, s.phase as usize, 1));
        deltas.push((s.end_ns, s.phase as usize, -1));
    }
    deltas.sort_by_key(|&(t, _, _)| t);
    let mut points: Vec<DepthPoint> = Vec::new();
    let mut now = DepthPoint::default();
    for (i, &(t, slot, d)) in deltas.iter().enumerate() {
        let n = if slot == LIVE {
            &mut now.live
        } else {
            &mut now.parked[slot]
        };
        *n = n.checked_add_signed(d).expect("population went negative");
        if deltas.get(i + 1).is_none_or(|&(next, _, _)| next > t) {
            now.t_ns = t;
            points.push(now);
        }
    }
    points
}

/// The record pass: closed spans, and the live-thread deltas `(t, ±1)`.
fn fold(records: &[TraceRecord], replica: u32) -> (Vec<ParkedSpan>, Vec<(u64, i32)>) {
    let mut spans = Vec::new();
    let mut live = Vec::new();
    let mut waits = WaitSpans::new();
    // tid → the open wait that is not for a mutex: admission, or SAT's
    // ready thread waiting for the active slot.
    let mut parked: BTreeMap<u32, (u64, Phase)> = BTreeMap::new();
    // tid → its latest release (stamp, mutex): a `wait`'s, if a
    // `Grant { from_wait }` of that mutex follows.
    let mut released: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
    let mut close = |tid: ThreadId, (start_ns, phase): (u64, Phase), end_ns| {
        spans.push(ParkedSpan {
            tid,
            phase,
            start_ns,
            end_ns,
        })
    };
    let mut last = 0;
    for rec in records.iter().filter(|r| r.replica == replica) {
        let t = rec.t_ns;
        last = last.max(t);
        match rec.ev {
            TraceEvent::RequestArrived { tid, .. } => {
                live.push((t, 1));
                parked.insert(tid.0, (t, Phase::Admission));
            }
            TraceEvent::RequestFinished { tid } => {
                live.push((t, -1));
                released.remove(&tid.0);
            }
            TraceEvent::MutexReleased { tid, mutex } => {
                released.insert(tid.0, (t, mutex.index() as u32));
            }
            TraceEvent::Sched(d) => match d {
                Decision::Admit { tid } | Decision::Resume { tid } => {
                    if let Some(open) = parked.remove(&tid.0) {
                        close(tid, open, t);
                    }
                }
                Decision::ResumeDefer { tid } => {
                    parked.insert(tid.0, (t, Phase::Gate));
                }
                Decision::Defer { tid, mutex, reason } => {
                    waits.park(tid, mutex, t, Phase::of_defer(reason))
                }
                Decision::Predict {
                    tid,
                    mutex,
                    granted: false,
                } => waits.park(tid, mutex, t, Phase::Gate),
                Decision::Grant {
                    tid,
                    mutex,
                    from_wait,
                } => {
                    if let Some((t0, phase)) = waits.grant(tid, mutex) {
                        close(tid, (t0, phase), t);
                    }
                    if from_wait {
                        if let Some((t0, m)) = released.remove(&tid.0) {
                            debug_assert_eq!(m, mutex.index() as u32);
                            close(tid, (t0, Phase::CondWait), t);
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    for (tid, open) in parked {
        close(ThreadId::new(tid), open, last);
    }
    for (tid, t0, phase) in waits.drain() {
        close(tid, (t0, phase), last);
    }
    (spans, live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::MutexId;

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
    fn sched(t_ns: u64, d: Decision) -> TraceRecord {
        rec(t_ns, TraceEvent::Sched(d))
    }
    fn arrive(t_ns: u64, tid: u32) -> TraceRecord {
        rec(
            t_ns,
            TraceEvent::RequestArrived {
                tid: t(tid),
                dummy: false,
            },
        )
    }
    fn grant(t_ns: u64, tid: u32, mutex: u32, from_wait: bool) -> TraceRecord {
        sched(
            t_ns,
            Decision::Grant {
                tid: t(tid),
                mutex: m(mutex),
                from_wait,
            },
        )
    }
    fn defer(t_ns: u64, tid: u32, mutex: u32, reason: DeferReason) -> TraceRecord {
        sched(
            t_ns,
            Decision::Defer {
                tid: t(tid),
                mutex: m(mutex),
                reason,
            },
        )
    }
    fn release(t_ns: u64, tid: u32, mutex: u32) -> TraceRecord {
        rec(
            t_ns,
            TraceEvent::MutexReleased {
                tid: t(tid),
                mutex: m(mutex),
            },
        )
    }
    fn finish(t_ns: u64, tid: u32) -> TraceRecord {
        rec(t_ns, TraceEvent::RequestFinished { tid: t(tid) })
    }

    /// One stay in every phase, with the records that open and close it.
    fn every_phase() -> Vec<TraceRecord> {
        vec![
            arrive(0, 0),
            arrive(5, 1),
            sched(5, Decision::Admit { tid: t(1) }),
            sched(10, Decision::Admit { tid: t(0) }),
            arrive(15, 2),
            sched(15, Decision::Admit { tid: t(2) }),
            // A token wait that meets a busy monitor stays one gate span.
            defer(20, 0, 1, DeferReason::Token),
            defer(25, 0, 1, DeferReason::MutexBusy),
            defer(30, 1, 2, DeferReason::MutexBusy),
            grant(40, 0, 1, false),
            sched(
                45,
                Decision::Predict {
                    tid: t(2),
                    mutex: m(1),
                    granted: false,
                },
            ),
            grant(50, 1, 2, false),
            grant(55, 2, 1, false),
            // An unlock, then a wait: only the wait's release counts.
            release(60, 1, 2),
            sched(60, Decision::ResumeDefer { tid: t(2) }),
            grant(61, 1, 3, false),
            sched(65, Decision::Resume { tid: t(2) }),
            release(70, 1, 3),
            grant(90, 1, 3, true),
            finish(100, 0),
            finish(100, 1),
            finish(100, 2),
        ]
    }

    #[test]
    fn each_record_pair_opens_and_closes_its_phase() {
        let mut spans = parked_spans(&every_phase(), 0);
        spans.sort_by_key(|s| (s.tid, s.start_ns));
        let got: Vec<(u32, Phase, u64, u64)> = spans
            .iter()
            .map(|s| (s.tid.0, s.phase, s.start_ns, s.end_ns))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, Phase::Admission, 0, 10),
                (0, Phase::Gate, 20, 40),
                (1, Phase::Admission, 5, 5),
                (1, Phase::Monitor, 30, 50),
                (1, Phase::CondWait, 70, 90),
                (2, Phase::Admission, 15, 15),
                (2, Phase::Gate, 45, 55),
                (2, Phase::Gate, 60, 65),
            ]
        );
    }

    #[test]
    fn the_sweep_integrates_to_the_span_lengths() {
        let records = every_phase();
        let d = QueueDepth::from_records(&records, 0);
        assert_eq!((d.start_ns, d.end_ns), (0, 100));
        let ns = |p: Phase| d.phase(p).thread_ns;
        assert_eq!(
            [
                Phase::Admission,
                Phase::Gate,
                Phase::Monitor,
                Phase::CondWait
            ]
            .map(ns),
            [10, 20 + 10 + 5, 20, 20]
        );
        let spans: u64 = parked_spans(&records, 0).iter().map(|s| s.len_ns()).sum();
        assert_eq!(d.parked.thread_ns, spans);
        // [30, 40): t0 at the gate and t1 on the monitor.
        assert_eq!(d.parked.max, 2);
        assert_eq!(d.live.thread_ns, 100 + 95 + 85);
        assert_eq!(d.live.max, 3);
        assert_eq!(d.mean(d.parked), 0.85);
        for p in depth_points(&records, 0) {
            assert!(p.total() <= p.live, "{p:?}");
        }
    }

    #[test]
    fn a_stalled_wait_closes_at_the_last_record_of_its_replica() {
        let mut records = vec![
            arrive(0, 0),
            sched(0, Decision::Admit { tid: t(0) }),
            defer(10, 0, 1, DeferReason::OrderGate),
            release(30, 1, 0),
        ];
        // Another replica's records never reach replica 0's fold.
        records.push(TraceRecord {
            replica: 1,
            ..arrive(40, 5)
        });
        let d = QueueDepth::from_records(&records, 0);
        assert_eq!((d.start_ns, d.end_ns), (0, 30));
        assert_eq!(d.phase(Phase::Gate).thread_ns, 20);
        assert_eq!(d.live.thread_ns, 30);
        assert_eq!(QueueDepth::from_records(&records, 1).live.max, 1);
    }
}
