//! The replica executor: one replica's threads, object state and
//! scheduler, and the machine that turns VM actions into the
//! [`SchedEvent`] stream and applies the scheduler's decisions.
//!
//! All three drivers run every replica through this code — the
//! logical-step [`crate::harness::Harness`], the virtual-time engine in
//! `dmt-replica` and the real-thread runtime in `dmt-rt` — so the event
//! stream a decision module sees is produced in exactly one place. What
//! the drivers do differently (when a resumed thread runs, what a
//! compute segment costs, how a nested call is answered, what finishing
//! a request means, where broadcasts and dummy requests go, and tracing)
//! sits behind the [`ExecHost`] legs.
//!
//! Thread ids are assigned densely from 0 in delivery order, so every
//! per-thread table is a slot table indexed by `tid.index()` — no hashing
//! on the per-event path (see DESIGN.md, dense-ID invariant).

use crate::event::{CtrlMsg, SchedAction, SchedEvent};
use crate::ids::ThreadId;
use crate::obs::SchedOutput;
use crate::scheduler::Scheduler;
use crate::slot::{DenseSet, SlotMap};
use dmt_lang::{
    Action, CompiledObject, Fault, MethodIdx, MutexId, ObjectState, RequestArgs, StepOutcome,
    ThreadVm, VmPool,
};
use std::sync::Arc;

/// Why a thread is currently not stepping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blocked {
    /// Awaiting `Admit`.
    Admission,
    /// Awaiting a monitor grant for `MutexId`.
    Lock(MutexId),
    /// Re-locking a monitor it already holds: forced, never a grant.
    Relock(MutexId),
    /// In a wait set (re-acquisition of `MutexId` pending).
    Wait(MutexId),
    /// Awaiting its nested-invocation reply.
    Nested,
    /// The interpreter faulted (malformed program): parked for good, and
    /// identically so on every replica.
    Faulted(Fault),
}

/// The legs of execution that differ between drivers. Each is called at
/// a fixed point of the shared step loop, and none may re-enter the
/// executor.
pub trait ExecHost {
    /// Per-request payload, handed back when the request's thread ends.
    type Tag: Copy;

    /// `tid` was admitted or resumed and must be stepped.
    fn schedule(&mut self, tid: ThreadId);

    /// `tid`'s own blocking event resumed it at once (its
    /// [`Self::schedule`] already ran). True: keep stepping it now.
    fn resumed_inline(&mut self, tid: ThreadId) -> bool;

    /// `tid` computes for `dur_ns`. True: the segment is free and the
    /// thread keeps stepping; false: the host steps it again later.
    fn compute(&mut self, tid: ThreadId, dur_ns: u64) -> bool;

    /// `tid` issued its nested call `call_no`; the reply comes back
    /// through [`ReplicaExec::nested_reply`].
    fn nested(&mut self, tid: ThreadId, call_no: u32, dur_ns: u64);

    /// `tid` finished the request tagged `tag` (after its
    /// `ThreadFinished` dispatch).
    fn finished(&mut self, tid: ThreadId, tag: Self::Tag);

    /// The scheduler broadcasts a control message to its peers.
    fn broadcast(&mut self, msg: CtrlMsg);

    /// The scheduler asks for a dummy request (PDS pool filler).
    fn dummy(&mut self);

    /// `tid` hit an interpreter fault; the executor parks it for good.
    fn fault(&mut self, _tid: ThreadId, _f: Fault) {}

    /// Tracing hook: request `tid` was delivered.
    fn arrived(&mut self, _tid: ThreadId, _dummy: bool) {}

    /// Tracing hook: `tid` gives up `mutex` (unlock or wait).
    fn released(&mut self, _tid: ThreadId, _mutex: MutexId) {}

    /// Tracing hook: `tid` is about to report `ThreadFinished`.
    fn finishing(&mut self, _tid: ThreadId) {}

    /// Tracing hook: the scheduler just answered an event with `out`.
    fn observe<S: Scheduler + ?Sized>(&mut self, _sched: &S, _out: &SchedOutput) {}
}

/// One replica: scheduler, object state, thread VMs and the tables that
/// say what each thread is waiting for.
pub struct ReplicaExec<S: ?Sized, T> {
    pub sched: Box<S>,
    pub state: ObjectState,
    pub(crate) program: Arc<CompiledObject>,
    /// Live VMs by thread id, boxed: a run-wide id costs one pointer of
    /// table, and admit/finish move the pointer, not the VM.
    vms: SlotMap<Box<ThreadVm>>,
    /// Reset-on-reuse free list: finished threads return their VM here,
    /// admissions recycle it (allocation-free once warm).
    vm_pool: VmPool,
    /// Delivered, unfinished requests: method, arguments (borrowed by
    /// the VM start at admission, dropped at finish) and tag.
    requests: SlotMap<(MethodIdx, RequestArgs, T)>,
    blocked: SlotMap<Blocked>,
    /// Threads admitted or resumed and not since blocked or finished.
    running: DenseSet,
    /// Every monitor grant in grant order: each acquisition a scheduler
    /// decides, fresh or a re-acquisition after `wait` — exactly what an
    /// LSA leader announces. Reentrant re-locks are not grants.
    pub grants: Vec<(ThreadId, MutexId)>,
    pub finished: u64,
    next_tid: u32,
    /// Per-thread count of nested calls issued (counts persist after the
    /// thread finishes, matching call numbers).
    nested_issued: Vec<u32>,
    /// Replies delivered before the local thread issued the call (the
    /// inner list is unordered — consumed by value).
    reply_buffer: SlotMap<Vec<u32>>,
    /// The call number each suspended thread waits on, plus its
    /// duration (for a failover re-issue by a new invoker).
    awaiting: SlotMap<(u32, u64)>,
    /// Reused action bundle: warm dispatches allocate nothing.
    out: SchedOutput,
    /// Scheduler events fed and actions applied.
    pub sched_events: u64,
    pub sched_actions: u64,
    /// Interpreter meters of VMs no longer live.
    retired_steps: u64,
    retired_fused: u64,
}

impl<S: Scheduler + ?Sized, T: Copy> ReplicaExec<S, T> {
    /// `record` arms decision recording in the scheduler output (tracing).
    pub fn new(
        sched: Box<S>,
        program: Arc<CompiledObject>,
        this_mutex: MutexId,
        record: bool,
    ) -> Self {
        let mut out = SchedOutput::new();
        out.set_recording(record);
        ReplicaExec {
            sched,
            state: ObjectState::for_object(&program, this_mutex),
            program,
            vms: SlotMap::new(),
            vm_pool: VmPool::new(),
            requests: SlotMap::new(),
            blocked: SlotMap::new(),
            running: DenseSet::new(),
            grants: Vec::new(),
            finished: 0,
            next_tid: 0,
            nested_issued: Vec::new(),
            reply_buffer: SlotMap::new(),
            awaiting: SlotMap::new(),
            out,
            sched_events: 0,
            sched_actions: 0,
            retired_steps: 0,
            retired_fused: 0,
        }
    }

    /// Delivers request number `request_seq` of the total order as the
    /// next thread, parked for admission.
    pub fn arrive<H: ExecHost<Tag = T>>(
        &mut self,
        host: &mut H,
        request_seq: u64,
        method: MethodIdx,
        args: RequestArgs,
        dummy: bool,
        tag: T,
    ) {
        let tid = ThreadId::new(self.next_tid);
        self.next_tid += 1;
        host.arrived(tid, dummy);
        self.requests.insert(tid.index(), (method, args, tag));
        self.blocked.insert(tid.index(), Blocked::Admission);
        self.dispatch(
            host,
            SchedEvent::RequestArrived {
                tid,
                method,
                request_seq,
                dummy,
            },
        );
    }

    /// Delivers the reply to `tid`'s nested call `call_no`. A reply that
    /// overtook its call (this replica is behind) waits in the buffer.
    pub fn nested_reply<H: ExecHost<Tag = T>>(
        &mut self,
        host: &mut H,
        tid: ThreadId,
        call_no: u32,
    ) {
        let i = tid.index();
        if self.awaiting.get(i).map(|&(k, _)| k) == Some(call_no) {
            self.awaiting.remove(i);
            self.dispatch(host, SchedEvent::NestedCompleted { tid });
        } else {
            self.reply_buffer
                .get_or_insert_with(i, Vec::new)
                .push(call_no);
        }
    }

    /// Feeds one event to the scheduler and applies its actions.
    pub fn dispatch<H: ExecHost<Tag = T>>(&mut self, host: &mut H, ev: SchedEvent) {
        self.sched_events += 1;
        debug_assert!(self.out.actions.is_empty());
        self.sched.on_event(&ev, &mut self.out);
        self.apply(host);
    }

    /// Lets the scheduler re-evaluate pending decisions outside any
    /// event (after a leadership change) and applies what it decides.
    pub fn kick<H: ExecHost<Tag = T>>(&mut self, host: &mut H) {
        self.sched.kick(&mut self.out);
        self.apply(host);
    }

    /// Applies the pending output in decision order. No action re-enters
    /// `dispatch`, so the list is stable and is walked by index
    /// (`SchedAction` is `Copy`) without moving the buffer.
    fn apply<H: ExecHost<Tag = T>>(&mut self, host: &mut H) {
        host.observe(&*self.sched, &self.out);
        self.sched_actions += self.out.actions.len() as u64;
        let mut k = 0;
        while k < self.out.actions.len() {
            let a = self.out.actions[k];
            k += 1;
            match a {
                SchedAction::Admit(tid) => {
                    let req = self
                        .requests
                        .get(tid.index())
                        .expect("admit without request");
                    let was = self.blocked.remove(tid.index());
                    debug_assert_eq!(was, Some(Blocked::Admission));
                    let vm = self.vm_pool.acquire(self.program.clone(), req.0, &req.1);
                    self.vms.insert(tid.index(), vm);
                    self.running.insert(tid.index());
                    host.schedule(tid);
                }
                SchedAction::Resume(tid) => {
                    match self.blocked.remove(tid.index()) {
                        Some(Blocked::Lock(m)) | Some(Blocked::Wait(m)) => {
                            self.grants.push((tid, m))
                        }
                        Some(Blocked::Relock(_)) | Some(Blocked::Nested) => {}
                        Some(Blocked::Admission) => panic!("Resume before Admit for {tid}"),
                        Some(Blocked::Faulted(f)) => panic!("Resume for faulted thread {tid}: {f}"),
                        None => panic!("Resume for running thread {tid}"),
                    }
                    self.running.insert(tid.index());
                    host.schedule(tid);
                }
                SchedAction::Broadcast(msg) => host.broadcast(msg),
                SchedAction::RequestDummy => host.dummy(),
            }
        }
        self.out.clear();
    }

    /// Steps `tid` until it blocks, computes on a host clock, or finishes.
    pub fn step<H: ExecHost<Tag = T>>(&mut self, host: &mut H, tid: ThreadId) {
        let i = tid.index();
        loop {
            if self.blocked.contains(i) {
                self.running.remove(i);
                return;
            }
            let Some(vm) = self.vms.get_mut(i) else {
                self.running.remove(i);
                return;
            };
            let action = match vm.step(&mut self.state) {
                StepOutcome::Action(a) => a,
                StepOutcome::Finished => return self.finish(host, tid),
                StepOutcome::Faulted(f) => {
                    host.fault(tid, f);
                    self.blocked.insert(i, Blocked::Faulted(f));
                    self.running.remove(i);
                    return;
                }
            };
            // Blocking events suspend the thread unless the scheduler
            // resumes it within the same dispatch.
            let blocking = match action {
                Action::Compute { dur_ns } => {
                    if !host.compute(tid, dur_ns) {
                        return;
                    }
                    false
                }
                Action::Lock { sync_id, mutex } => {
                    let why = if self.sched.sync_core().holds(tid, mutex) {
                        Blocked::Relock(mutex)
                    } else {
                        Blocked::Lock(mutex)
                    };
                    self.blocked.insert(i, why);
                    let ev = SchedEvent::LockRequested {
                        tid,
                        sync_id,
                        mutex,
                    };
                    self.dispatch(host, ev);
                    true
                }
                Action::Unlock { sync_id, mutex } => {
                    // Stamped before the scheduler reacts, so the next
                    // grant on this mutex sorts after the release.
                    host.released(tid, mutex);
                    let ev = SchedEvent::Unlocked {
                        tid,
                        sync_id,
                        mutex,
                    };
                    self.dispatch(host, ev);
                    false
                }
                Action::Wait { mutex } => {
                    debug_assert!(
                        self.sched.sync_core().holds(tid, mutex),
                        "{tid} called wait without holding {mutex}"
                    );
                    self.blocked.insert(i, Blocked::Wait(mutex));
                    host.released(tid, mutex);
                    self.dispatch(host, SchedEvent::WaitCalled { tid, mutex });
                    true
                }
                Action::Notify { mutex, all } => {
                    debug_assert!(
                        self.sched.sync_core().holds(tid, mutex),
                        "{tid} called notify without holding {mutex}"
                    );
                    self.dispatch(host, SchedEvent::NotifyCalled { tid, mutex, all });
                    false
                }
                Action::Nested { dur_ns, .. } => {
                    self.call(host, tid, dur_ns);
                    true
                }
                Action::LockInfo { sync_id, mutex } => {
                    let ev = SchedEvent::LockInfo {
                        tid,
                        sync_id,
                        mutex,
                    };
                    self.dispatch(host, ev);
                    false
                }
                Action::Ignore { sync_id } => {
                    self.dispatch(host, SchedEvent::SyncIgnored { tid, sync_id });
                    false
                }
            };
            // Still blocked: the loop head parks it. Resumed at once:
            // it was scheduled, so continue only if the host says so.
            if blocking && !self.blocked.contains(i) && !host.resumed_inline(tid) {
                return;
            }
        }
    }

    /// Issues `tid`'s next nested call, numbered per thread.
    fn call<H: ExecHost<Tag = T>>(&mut self, host: &mut H, tid: ThreadId, dur_ns: u64) {
        let i = tid.index();
        if i >= self.nested_issued.len() {
            self.nested_issued.resize(i + 1, 0);
        }
        self.nested_issued[i] += 1;
        let call_no = self.nested_issued[i];
        self.blocked.insert(i, Blocked::Nested);
        let early = self.reply_buffer.get_mut(i).is_some_and(|buf| {
            let p = buf.iter().position(|&c| c == call_no);
            p.map(|p| buf.swap_remove(p)).is_some()
        });
        if !early {
            self.awaiting.insert(i, (call_no, dur_ns));
        }
        self.dispatch(host, SchedEvent::NestedStarted { tid });
        host.nested(tid, call_no, dur_ns);
        if early {
            self.dispatch(host, SchedEvent::NestedCompleted { tid });
        }
    }

    fn finish<H: ExecHost<Tag = T>>(&mut self, host: &mut H, tid: ThreadId) {
        let i = tid.index();
        self.running.remove(i);
        if let Some(vm) = self.vms.remove(i) {
            // Harvest the meters before reset-on-reuse wipes them.
            self.retired_steps += vm.steps();
            self.retired_fused += vm.fused_steps();
            self.vm_pool.release(vm);
        }
        self.finished += 1;
        let tag = self
            .requests
            .remove(i)
            .expect("finished thread has a request")
            .2;
        host.finishing(tid);
        self.dispatch(host, SchedEvent::ThreadFinished { tid });
        host.finished(tid, tag);
    }

    /// No runnable and no blocked thread.
    pub fn quiescent(&self) -> bool {
        self.running.is_empty() && self.blocked.is_empty()
    }

    /// Blocked threads in id order, with the reason.
    pub fn blocked(&self) -> impl Iterator<Item = (ThreadId, Blocked)> + '_ {
        self.blocked
            .iter()
            .map(|(i, &b)| (ThreadId::new(i as u32), b))
    }

    /// Outstanding nested calls: `(tid, call_no, dur_ns)` in id order.
    pub fn awaiting(&self) -> impl Iterator<Item = (ThreadId, u32, u64)> + '_ {
        self.awaiting
            .iter()
            .map(|(i, &(call_no, dur_ns))| (ThreadId::new(i as u32), call_no, dur_ns))
    }

    /// Interpreter meters over every VM this replica ran:
    /// `(steps, fused_steps, pool allocs, pool reuses)`.
    pub fn vm_meters(&self) -> (u64, u64, u64, u64) {
        let (mut steps, mut fused) = (self.retired_steps, self.retired_fused);
        for (_, vm) in self.vms.iter() {
            steps += vm.steps();
            fused += vm.fused_steps();
        }
        (steps, fused, self.vm_pool.allocs(), self.vm_pool.reuses())
    }

    /// What a rejoining replica copies from a donor at quiescence: the
    /// object state, the next thread id and the nested-call counts.
    pub fn handoff(&self) -> (ObjectState, u32, Vec<u32>) {
        (
            self.state.clone(),
            self.next_tid,
            self.nested_issued.clone(),
        )
    }

    /// Restarts this replica from a donor's [`Self::handoff`] under a
    /// fresh scheduler. Threads that died with the crash are dropped (their
    /// meters kept); the grant log and finished count carry on.
    pub fn rejoin(
        &mut self,
        sched: Box<S>,
        (state, next_tid, nested_issued): (ObjectState, u32, Vec<u32>),
    ) {
        let (steps, fused, _, _) = self.vm_meters();
        (self.retired_steps, self.retired_fused) = (steps, fused);
        self.sched = sched;
        self.state = state;
        self.next_tid = next_tid;
        self.nested_issued = nested_issued;
        self.vms = SlotMap::new();
        self.requests = SlotMap::new();
        self.blocked = SlotMap::new();
        self.running = DenseSet::new();
        self.reply_buffer = SlotMap::new();
        self.awaiting = SlotMap::new();
    }
}
