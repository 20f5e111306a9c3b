//! Layer replays: the per-layer half of the host-cost ledger.
//!
//! Each replay first captures a layer's real input stream from a run
//! (untimed), then feeds that stream through the layer's public API in
//! one timed loop. No clock is read per call: a per-call clock read costs
//! about as much as a scheduler's `on_event`. Every replay reports its
//! size, so the caller can check it against the run's own counters.

use dmt_core::harness::Harness;
use dmt_core::{
    make_scheduler_inline, AnyScheduler, CtrlMsg, ReplicaId, SchedConfig, SchedEvent, SchedOutput,
    Scheduler, SchedulerKind, SyncCore, ThreadId,
};
use dmt_groupcomm::{GroupComm, NetConfig, NodeId, Sequenced};
use dmt_lang::{CompiledObject, MethodIdx, MutexId, ObjectState, RequestArgs, StepOutcome, VmPool};
use dmt_obs::{TraceEvent, TraceRecord};
use dmt_replica::Scenario;
use dmt_sim::{EventQueue, SimTime};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fastest of `reps` timed runs of `run` over fresh state from `prep`
/// (built outside the timer). Returns the fastest run's nanoseconds and
/// the last run's output.
fn fastest_timed<S, R>(
    reps: usize,
    mut prep: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> (u64, R) {
    let (mut best, mut out) = (u64::MAX, None);
    for _ in 0..reps.max(1) {
        let state = prep();
        let t0 = Instant::now();
        let r = black_box(run(black_box(state)));
        best = best.min(t0.elapsed().as_nanos() as u64);
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

// ---------------------------------------------------------------------
// dmt-lang: the request stream on a bare pooled VM
// ---------------------------------------------------------------------

pub struct VmReplay {
    pub steps: u64,
    pub fused_steps: u64,
    pub ns: u64,
}

/// Runs every request to completion on one object state, every action
/// granted at once (no scheduler, no queue), with VMs pooled as the
/// engine pools them.
pub fn vm_corpus(
    program: &Arc<CompiledObject>,
    this_mutex: MutexId,
    requests: &[(MethodIdx, RequestArgs)],
    reps: usize,
) -> VmReplay {
    let (ns, (steps, fused_steps)) = fastest_timed(
        reps,
        || (ObjectState::for_object(program, this_mutex), VmPool::new()),
        |(mut state, mut pool)| {
            let (mut steps, mut fused) = (0, 0);
            for (method, args) in requests {
                let mut vm = pool.acquire(program.clone(), *method, args);
                loop {
                    match vm.step(&mut state) {
                        StepOutcome::Action(a) => {
                            black_box(a);
                        }
                        StepOutcome::Finished => break,
                        StepOutcome::Faulted(f) => panic!("workload request faulted: {f:?}"),
                    }
                }
                steps += vm.steps();
                fused += vm.fused_steps();
                pool.release(vm);
            }
            black_box(state.state_hash());
            (steps, fused)
        },
    );
    VmReplay {
        steps,
        fused_steps,
        ns,
    }
}

// ---------------------------------------------------------------------
// dmt-core: the SchedEvent stream of a logical run
// ---------------------------------------------------------------------

/// Captured events plus the number of actions the scheduler answered
/// them with.
type Log = Arc<Mutex<(Vec<SchedEvent>, u64)>>;

/// A scheduler that records every event it is fed.
struct Capture {
    inner: AnyScheduler,
    log: Log,
}

impl Scheduler for Capture {
    fn kind(&self) -> SchedulerKind {
        self.inner.kind()
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        let before = out.actions.len();
        self.inner.on_event(ev, out);
        let mut log = self.log.lock().expect("capture log poisoned");
        log.0.push(ev.clone());
        log.1 += (out.actions.len() - before) as u64;
    }

    fn sync_core(&self) -> &SyncCore {
        self.inner.sync_core()
    }
}

fn sched_config(kind: SchedulerKind, scenario: &Scenario) -> SchedConfig {
    SchedConfig::new(kind, ReplicaId::new(0)).with_lock_table(scenario.lock_table.clone())
}

/// Moves an event of a wave's logical run into the run-wide thread-id
/// and total-order space, as if the waves had been one run.
fn shift(ev: &SchedEvent, off: u32) -> SchedEvent {
    let t = |tid: ThreadId| ThreadId::new(tid.0 + off);
    match *ev {
        SchedEvent::RequestArrived {
            tid,
            method,
            request_seq,
            dummy,
        } => SchedEvent::RequestArrived {
            tid: t(tid),
            method,
            request_seq: request_seq + u64::from(off),
            dummy,
        },
        SchedEvent::LockRequested {
            tid,
            sync_id,
            mutex,
        } => SchedEvent::LockRequested {
            tid: t(tid),
            sync_id,
            mutex,
        },
        SchedEvent::Unlocked {
            tid,
            sync_id,
            mutex,
        } => SchedEvent::Unlocked {
            tid: t(tid),
            sync_id,
            mutex,
        },
        SchedEvent::WaitCalled { tid, mutex } => SchedEvent::WaitCalled { tid: t(tid), mutex },
        SchedEvent::NotifyCalled { tid, mutex, all } => SchedEvent::NotifyCalled {
            tid: t(tid),
            mutex,
            all,
        },
        SchedEvent::NestedStarted { tid } => SchedEvent::NestedStarted { tid: t(tid) },
        SchedEvent::NestedCompleted { tid } => SchedEvent::NestedCompleted { tid: t(tid) },
        SchedEvent::ThreadFinished { tid } => SchedEvent::ThreadFinished { tid: t(tid) },
        SchedEvent::LockInfo {
            tid,
            sync_id,
            mutex,
        } => SchedEvent::LockInfo {
            tid: t(tid),
            sync_id,
            mutex,
        },
        SchedEvent::SyncIgnored { tid, sync_id } => SchedEvent::SyncIgnored {
            tid: t(tid),
            sync_id,
        },
        SchedEvent::Control(CtrlMsg::LsaGrant { mutex, tid, order }) => {
            SchedEvent::Control(CtrlMsg::LsaGrant {
                mutex,
                tid: t(tid),
                order,
            })
        }
    }
}

/// A scheduler's captured input and the actions it answered with.
pub struct SchedStream {
    pub events: Vec<SchedEvent>,
    pub actions: u64,
}

/// Captures the `SchedEvent` stream of `requests` run through
/// `dmt_core::harness::Harness`, `wave` requests at a time, each wave on
/// a fresh capturing scheduler, then joins the waves into one stream
/// with run-wide thread ids. Waves keep the parked-thread backlog at the
/// workload's own concurrency (one harness holding every request would
/// park them all and overstate PMAT, whose `on_event` cost grows with
/// parked threads); the joined ids keep the thread-id range as wide as
/// in the engine run, which PMAT's pending-table sweep also pays for.
pub fn sched_capture(
    kind: SchedulerKind,
    scenario: &Scenario,
    requests: &[(MethodIdx, RequestArgs)],
    wave: usize,
) -> Result<SchedStream, String> {
    let mut events = Vec::new();
    let mut actions = 0;
    let mut threads = 0u32;
    for chunk in requests.chunks(wave.max(1)) {
        let log: Log = Arc::default();
        let sched = Capture {
            inner: make_scheduler_inline(&sched_config(kind, scenario)),
            log: log.clone(),
        };
        let mut h = Harness::new(
            scenario.program.clone(),
            scenario.this_mutex(),
            Box::new(sched),
        );
        if let Some(d) = scenario.dummy_method {
            h = h.with_dummy_method(d);
        }
        for (m, a) in chunk {
            h.submit(*m, a.clone());
        }
        let res = h.run();
        if res.deadlocked || res.finished_threads < chunk.len() {
            return Err(format!(
                "{kind}: logical run of a {}-request wave stalled",
                chunk.len()
            ));
        }
        let (wave_events, n) = std::mem::take(&mut *log.lock().expect("capture log poisoned"));
        events.extend(wave_events.iter().map(|ev| shift(ev, threads)));
        actions += n;
        threads += res.request_log.len() as u32;
    }
    Ok(SchedStream { events, actions })
}

/// Replays a captured stream through one fresh scheduler of the same
/// kind (the engine's statically dispatched form). Returns the fastest
/// of `reps` runs' ns and the number of actions the replay produced; a count
/// that differs from the capture's means the joined stream is not one
/// the scheduler answers as it did wave by wave.
pub fn sched_replay(
    kind: SchedulerKind,
    scenario: &Scenario,
    s: &SchedStream,
    reps: usize,
) -> (u64, u64) {
    let cfg = sched_config(kind, scenario);
    fastest_timed(
        reps,
        || (make_scheduler_inline(&cfg), SchedOutput::new()),
        |(mut sched, mut out)| {
            let mut actions = 0u64;
            for ev in &s.events {
                sched.on_event(ev, &mut out);
                actions += out.actions.len() as u64;
                out.clear();
            }
            actions
        },
    )
}

// ---------------------------------------------------------------------
// dmt-sim: the calendar queue's push/pop stream
// ---------------------------------------------------------------------

/// A push/pop stream for one engine: the open-loop arrival instants
/// (pushed up front, as the engine seeds them) and the due times of every
/// other event, resampled from the traced run's timestamps.
pub struct QueueStream {
    arrivals: Vec<u64>,
    others: Vec<u64>,
}

/// How far ahead of its due time a non-arrival event is pushed: one LAN
/// hop, the engine's most common scheduling delay.
const LOOKAHEAD_NS: u64 = 250_000;

impl QueueStream {
    /// `events` due times in total: the scripts' arrival instants plus
    /// `events - arrivals` instants drawn evenly from the record
    /// timestamps, so the stream spans the run's makespan.
    pub fn new(records: &[TraceRecord], scenario: &Scenario, events: u64) -> QueueStream {
        let arrivals: Vec<u64> = scenario
            .clients
            .iter()
            .filter_map(|c| c.arrivals.as_ref())
            .flatten()
            .map(|t| t.as_nanos())
            .collect();
        let n = (events as usize).saturating_sub(arrivals.len());
        let others = if records.is_empty() {
            vec![0; n]
        } else {
            (0..n)
                .map(|j| records[(j as u128 * records.len() as u128 / n as u128) as usize].t_ns)
                .collect()
        };
        QueueStream { arrivals, others }
    }

    pub fn len(&self) -> u64 {
        (self.arrivals.len() + self.others.len()) as u64
    }
}

/// Replays the streams through `EventQueue::push_at`/`pop` (one queue per
/// stream, fast path on as in the engine). Returns the fastest of `reps`
/// runs' ns and the pops.
pub fn queue_replay(streams: &[QueueStream], reps: usize) -> (u64, u64) {
    fastest_timed(
        reps,
        || {
            streams
                .iter()
                .map(|_| EventQueue::<[u64; 4]>::new())
                .collect::<Vec<_>>()
        },
        |mut queues| {
            let mut pops = 0u64;
            let mut acc = 0u64;
            for (q, s) in queues.iter_mut().zip(streams) {
                for (i, &a) in s.arrivals.iter().enumerate() {
                    q.push_at(SimTime::from_nanos(a), [i as u64; 4]);
                }
                let mut j = 0;
                loop {
                    let now = q.now().as_nanos();
                    while j < s.others.len() && s.others[j] <= now + LOOKAHEAD_NS {
                        q.push_at(SimTime::from_nanos(s.others[j].max(now)), [j as u64; 4]);
                        j += 1;
                    }
                    match q.pop() {
                        Some((_, ev)) => {
                            pops += 1;
                            acc ^= ev[0];
                        }
                        // Nothing pending within the lookahead: push the
                        // next due event so the clock can jump to it.
                        None if j < s.others.len() => {
                            q.push_at(SimTime::from_nanos(s.others[j].max(now)), [j as u64; 4]);
                            j += 1;
                        }
                        None => break,
                    }
                }
            }
            black_box(acc);
            pops
        },
    )
}

// ---------------------------------------------------------------------
// dmt-groupcomm: submissions, sequencing and deliveries
// ---------------------------------------------------------------------

enum GcOp {
    Submit { source: u64, t_ns: u64 },
    Sequence,
    Deliver { node: u32, seq: u64 },
}

/// One engine's traced `GcSubmit`/`GcSequenced`/`GcDeliver` stream.
pub struct GcStream(Vec<GcOp>);

impl GcStream {
    pub fn new(records: &[TraceRecord]) -> GcStream {
        GcStream(
            records
                .iter()
                .filter_map(|r| match r.ev {
                    TraceEvent::GcSubmit { source } => Some(GcOp::Submit {
                        source,
                        t_ns: r.t_ns,
                    }),
                    TraceEvent::GcSequenced { .. } => Some(GcOp::Sequence),
                    TraceEvent::GcDeliver { seq } => Some(GcOp::Deliver {
                        node: r.replica,
                        seq,
                    }),
                    _ => None,
                })
                .collect(),
        )
    }
}

/// What the group-communication replay did.
#[derive(Default)]
pub struct GcReplay {
    pub ns: u64,
    pub submissions: u64,
    pub broadcast_legs: u64,
    pub deliveries: u64,
    pub dup_dropped: u64,
}

/// Replays the streams through `submit_delay_fifo`/`sequence_into`/
/// `arrive_into` on fresh `n_replicas`-node groups.
pub fn gc_replay(streams: &[GcStream], n_replicas: usize, reps: usize) -> GcReplay {
    let (ns, mut out) = fastest_timed(
        reps,
        || {
            streams
                .iter()
                .map(|_| GroupComm::<u64>::new(n_replicas, NetConfig::lan(), 1))
                .collect::<Vec<_>>()
        },
        |mut gcs| {
            let mut r = GcReplay::default();
            let mut hops = Vec::new();
            let mut deliv = Vec::new();
            for (gc, s) in gcs.iter_mut().zip(streams) {
                for op in &s.0 {
                    match *op {
                        GcOp::Submit { source, t_ns } => {
                            black_box(gc.submit_delay_fifo(source, SimTime::from_nanos(t_ns)));
                        }
                        GcOp::Sequence => {
                            black_box(gc.sequence_into(0, &mut hops));
                        }
                        GcOp::Deliver { node, seq } => {
                            gc.arrive_into(
                                NodeId::new(node),
                                Sequenced { seq, msg: seq },
                                &mut deliv,
                            );
                            r.deliveries += deliv.len() as u64;
                        }
                    }
                }
                let st = gc.stats();
                r.submissions += st.submissions;
                r.broadcast_legs += st.broadcast_legs;
                r.dup_dropped += st.dup_dropped;
            }
            r
        },
    );
    out.ns = ns;
    out
}
