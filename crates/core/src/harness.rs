//! A logical-step harness: drives real `dmt-lang` programs through a
//! scheduler without virtual time.
//!
//! Used by unit, integration and property tests of the decision modules
//! (the full virtual-time, multi-replica engine lives in `dmt-replica`).
//! The harness is a zero-latency host of the shared
//! [`ReplicaExec`]: runnable threads are stepped in a deterministic FIFO
//! discipline, compute actions take zero steps, and external events
//! (request arrivals beyond the initial burst, nested replies) are
//! delivered one at a time whenever the replica is locally quiescent — a
//! simple stand-in for the totally ordered message stream.

use crate::event::CtrlMsg;
use crate::exec::{ExecHost, ReplicaExec};
use crate::ids::ThreadId;
use crate::scheduler::Scheduler;
use dmt_lang::{CompiledObject, Fault, MethodIdx, MutexId, ObjectState, RequestArgs};
use std::collections::VecDeque;
use std::sync::Arc;

/// Outcome of a harness run.
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
    pub request_log: Vec<(MethodIdx, RequestArgs, bool)>,
    pub finished_threads: usize,
    pub dummy_threads: usize,
    /// True when unfinished threads remained with nothing deliverable —
    /// a deadlock (e.g. `wait` under SEQ).
    pub deadlocked: bool,
}

/// The harness's legs of execution: a FIFO runnable queue, free compute,
/// and external events held back until the replica is quiescent.
struct Logical {
    runnable: VecDeque<ThreadId>,
    /// Submitted but undelivered requests (the client queue), as
    /// `(method, args, dummy)`.
    inbox: VecDeque<(MethodIdx, RequestArgs, bool)>,
    /// Nested invocations awaiting replies (FIFO = total order).
    nested: VecDeque<(ThreadId, u32)>,
    /// Method used for PDS dummy requests (no-op, zero-arg).
    dummy_method: Option<MethodIdx>,
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
    request_log: Vec<(MethodIdx, RequestArgs, bool)>,
}

impl Harness {
    pub fn new(
        program: Arc<CompiledObject>,
        this_mutex: MutexId,
        scheduler: Box<dyn Scheduler>,
    ) -> Self {
        Harness {
            exec: ReplicaExec::new(scheduler, program, this_mutex, false),
            host: Logical {
                runnable: VecDeque::new(),
                inbox: VecDeque::new(),
                nested: VecDeque::new(),
                dummy_method: None,
            },
            request_log: Vec::new(),
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

    /// Runs to completion (or deadlock) and reports. Panics after an
    /// implausible number of deliveries — a livelocked scheduler (e.g. an
    /// endless dummy loop) should fail loudly, not hang the suite.
    pub fn run(mut self) -> HarnessResult {
        let mut deliveries: u64 = 0;
        let delivery_cap =
            10_000 + 1_000 * (self.request_log.len() as u64 + self.host.inbox.len() as u64 + 10);
        loop {
            deliveries += 1;
            assert!(
                deliveries < delivery_cap,
                "livelock: {} deliveries under {:?} (finished {}/{}, inbox {}, nested {})",
                deliveries,
                self.exec.sched.kind(),
                self.exec.finished,
                self.request_log.len(),
                self.host.inbox.len(),
                self.host.nested.len(),
            );
            while let Some(tid) = self.host.runnable.pop_front() {
                self.exec.step(&mut self.host, tid);
            }
            // Locally quiescent: deliver the next external event.
            if let Some((method, args, dummy)) = self.host.inbox.pop_front() {
                let seq = self.request_log.len() as u64;
                self.request_log.push((method, args.clone(), dummy));
                self.exec
                    .arrive(&mut self.host, seq, method, args, dummy, ());
                continue;
            }
            if let Some((tid, call_no)) = self.host.nested.pop_front() {
                self.exec.nested_reply(&mut self.host, tid, call_no);
                continue;
            }
            break;
        }
        HarnessResult {
            deadlocked: self.exec.finished as usize != self.request_log.len(),
            dummy_threads: self.request_log.iter().filter(|r| r.2).count(),
            finished_threads: self.exec.finished as usize,
            state: self.exec.state,
            lock_trace: self.exec.grants,
            request_log: self.request_log,
        }
    }
}
