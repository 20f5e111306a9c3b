//! A logical-step harness: drives real `dmt-lang` programs through a
//! scheduler without virtual time.
//!
//! Used by unit, integration and property tests of the decision modules
//! (the full virtual-time, multi-replica engine lives in `dmt-replica`).
//! The harness is a zero-latency host of the shared
//! [`ReplicaExec`]: runnable threads are stepped in a deterministic FIFO
//! discipline, compute actions take zero steps, and one input is
//! delivered whenever the replica is locally quiescent. [`Harness::run`]
//! generates that input by a fixed rule — the next submitted request,
//! else the reply to the oldest nested call; a dummy the scheduler asks
//! for queues as a request — and [`Harness::replay`] takes it from a
//! given [`InputLog`]. Either way the result carries the log the run
//! consumed, which any host can replay.

use crate::event::CtrlMsg;
use crate::exec::{ExecHost, ReplicaExec};
use crate::ids::ThreadId;
use crate::input::{Input, InputLog, Request};
use crate::scheduler::Scheduler;
use dmt_lang::{CompiledObject, Fault, MethodIdx, MutexId, ObjectState, RequestArgs};
use std::collections::VecDeque;
use std::sync::Arc;

/// Outcome of a harness run (and of a real-thread run, see `dmt-rt`).
#[derive(Debug)]
pub struct HarnessResult {
    pub state: ObjectState,
    /// Monitor grant order: every acquisition the scheduler decided
    /// (fresh or a re-acquisition after `wait`, never a reentrant
    /// re-lock), in the order it issued them.
    pub lock_trace: Vec<(ThreadId, MutexId)>,
    /// The delivered request stream in order (method, args, dummy) —
    /// thread `n` ran entry `n`. This is the "request log" a passive
    /// primary would persist.
    pub request_log: Vec<Request>,
    /// Every delivery in order, requests, nested replies and control
    /// messages alike: with [`Self::request_log`], the run's input (see
    /// [`Self::input_log`]).
    pub inputs: Vec<Input>,
    pub finished_threads: usize,
    pub dummy_threads: usize,
    /// True when unfinished threads remained with nothing deliverable —
    /// a deadlock (e.g. `wait` under SEQ), or a log that ran out.
    pub deadlocked: bool,
}

impl HarnessResult {
    /// The run's input as one log, for a replay on any host.
    pub fn input_log(&self) -> InputLog {
        InputLog {
            requests: self.request_log.clone(),
            order: self.inputs.clone(),
        }
    }

    /// Reports a finished run of `exec`.
    pub fn of<S: Scheduler + ?Sized>(mut exec: ReplicaExec<S, ()>) -> Self {
        let log = exec.take_inputs().expect("the run recorded its input");
        HarnessResult {
            deadlocked: exec.finished as usize != log.requests.len(),
            dummy_threads: log.requests.iter().filter(|r| r.2).count(),
            finished_threads: exec.finished as usize,
            state: exec.state,
            lock_trace: exec.grants,
            request_log: log.requests,
            inputs: log.order,
        }
    }
}

/// The harness's legs of execution: a FIFO runnable queue, free compute,
/// and, under the delivery rule, the inputs held back until the replica
/// is quiescent.
struct Logical {
    runnable: VecDeque<ThreadId>,
    /// Submitted but undelivered requests (the client queue).
    inbox: VecDeque<Request>,
    /// Nested invocations awaiting replies (FIFO = total order).
    nested: VecDeque<(ThreadId, u32)>,
    /// Method used for PDS dummy requests (no-op, zero-arg).
    dummy_method: Option<MethodIdx>,
    /// Replaying a log: it holds the dummies, so requests for them are
    /// dropped.
    replaying: bool,
}

impl ExecHost for Logical {
    type Tag = ();

    fn schedule(&mut self, tid: ThreadId) {
        self.runnable.push_back(tid);
    }

    fn resumed_inline(&mut self, tid: ThreadId) -> bool {
        // The thread is still being stepped: drop its queue entry.
        if let Some(pos) = self.runnable.iter().position(|&t| t == tid) {
            self.runnable.remove(pos);
        }
        true
    }

    fn compute(&mut self, _tid: ThreadId, _dur_ns: u64) -> bool {
        true
    }

    fn nested(&mut self, tid: ThreadId, call_no: u32, _dur_ns: u64) {
        self.nested.push_back((tid, call_no));
    }

    fn finished(&mut self, _tid: ThreadId, _tag: ()) {}

    fn broadcast(&mut self, _msg: CtrlMsg) {
        // Single-replica harness: the leader's own decisions need no
        // echo (the engine filters self-deliveries).
    }

    fn dummy(&mut self) {
        if self.replaying {
            return;
        }
        let method = self
            .dummy_method
            .expect("scheduler requested a dummy but no dummy method configured");
        self.inbox.push_back((method, RequestArgs::empty(), true));
    }

    fn fault(&mut self, tid: ThreadId, f: Fault) {
        // The harness drives hand-built programs; a malformed one is a
        // test bug, so fail loudly (the replica engine, which runs
        // client-supplied scenarios, parks the thread instead).
        panic!("{tid} hit interpreter fault: {f}")
    }
}

/// Drives one object replica under one scheduler, in logical steps.
pub struct Harness {
    exec: ReplicaExec<dyn Scheduler, ()>,
    host: Logical,
}

impl Harness {
    pub fn new(
        program: Arc<CompiledObject>,
        this_mutex: MutexId,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        Harness {
            exec: ReplicaExec::new(scheduler, program, this_mutex, false).logging_inputs(),
            host: Logical {
                runnable: VecDeque::new(),
                inbox: VecDeque::new(),
                nested: VecDeque::new(),
                dummy_method: None,
                replaying: false,
            },
        }
    }

    /// Declares the zero-arg no-op method PDS dummies should run.
    pub fn with_dummy_method(mut self, m: MethodIdx) -> Self {
        self.exec.check_dummy_method(m);
        self.host.dummy_method = Some(m);
        self
    }

    /// Queues a client request (delivered in submission order).
    pub fn submit(&mut self, method: MethodIdx, args: RequestArgs) {
        self.host.inbox.push_back((method, args, false));
    }

    /// Runs the submitted requests to completion (or deadlock) under
    /// the delivery rule, and reports. Panics after an implausible number
    /// of deliveries — a livelocked scheduler (e.g. an endless dummy
    /// loop) should fail loudly, not hang the suite.
    pub fn run(self) -> HarnessResult {
        let cap = 10_000 + 1_000 * (self.host.inbox.len() + 10);
        let mut deliveries = 0;
        self.drive(|host| {
            deliveries += 1;
            let (inbox, nested) = (host.inbox.len(), host.nested.len());
            assert!(
                deliveries < cap,
                "livelock: {deliveries} deliveries (inbox {inbox}, nested {nested})"
            );
            if let Some(request) = host.inbox.pop_front() {
                return Some(Input::Request(request));
            }
            let (tid, call_no) = host.nested.pop_front()?;
            Some(Input::Reply { tid, call_no })
        })
    }

    /// Delivers `log`'s entries in order, one at each quiescent point,
    /// and reports. A reply to a call not yet issued waits in the
    /// executor's reply buffer; threads left unfinished when the log
    /// runs out are a deadlock.
    pub fn replay(mut self, log: &InputLog) -> HarnessResult {
        self.host.replaying = true;
        let mut inputs = log.iter();
        self.drive(|_| inputs.next().map(|i| i.map(Clone::clone)))
    }

    /// The one loop: steps every runnable thread, then delivers `next`'s
    /// input, until it has none.
    fn drive(
        mut self,
        mut next: impl FnMut(&mut Logical) -> Option<Input<Request>>,
    ) -> HarnessResult {
        loop {
            while let Some(tid) = self.host.runnable.pop_front() {
                self.exec.step(&mut self.host, tid);
            }
            // Locally quiescent: deliver the next input.
            let Some(input) = next(&mut self.host) else {
                break;
            };
            self.exec.deliver(&mut self.host, input.map(|r| (r, ())));
        }
        HarnessResult::of(self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SchedEvent;
    use crate::obs::SchedOutput;
    use crate::sync_core::SyncCore;
    use crate::{make_scheduler, ReplicaId, SchedConfig, SchedulerKind};
    use dmt_lang::{compile, ObjectBuilder};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Notes whether any dispatch asked its scheduler for decision
    /// records.
    struct Probe {
        inner: Box<dyn Scheduler>,
        recording: Arc<AtomicBool>,
    }

    impl Scheduler for Probe {
        fn kind(&self) -> SchedulerKind {
            self.inner.kind()
        }

        fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
            self.recording
                .fetch_or(out.is_recording(), Ordering::Relaxed);
            self.inner.on_event(ev, out);
        }

        fn sync_core(&self) -> &SyncCore {
            self.inner.sync_core()
        }
    }

    #[test]
    fn a_run_logs_its_input_but_records_no_decisions() {
        let mut ob = ObjectBuilder::new("Empty");
        let m = ob.method("m", 0).done();
        let program = compile::compile(&ob.build());
        let recording = Arc::new(AtomicBool::new(false));
        let sched = Probe {
            inner: make_scheduler(&SchedConfig::new(SchedulerKind::Sat, ReplicaId::new(0))),
            recording: recording.clone(),
        };
        let mut h = Harness::new(program, MutexId::new(0), Box::new(sched));
        h.submit(m, RequestArgs::empty());
        let res = h.run();
        assert_eq!(res.finished_threads, 1);
        assert_eq!(res.input_log().order, vec![Input::Request(())]);
        assert!(!recording.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "dummy method must be zero-arg")]
    fn a_dummy_method_with_arguments_is_refused() {
        let mut ob = ObjectBuilder::new("Args");
        let takes_one = ob.method("takes_one", 1).done();
        let program = compile::compile(&ob.build());
        let sched = make_scheduler(&SchedConfig::new(SchedulerKind::Pds, ReplicaId::new(0)));
        let _ = Harness::new(program, MutexId::new(0), sched).with_dummy_method(takes_one);
    }
}
