//! The deterministic interpreter.
//!
//! Each logical thread (one per remote request) is a [`ThreadVm`]. The
//! replica engine steps a VM only when the scheduler allows it; the VM
//! runs internal instructions (state updates, branches, assignments)
//! silently and returns at the next *synchronisation-relevant* point with
//! an [`Action`] for the engine to arbitrate. Everything the VM does is a
//! pure function of (program, request arguments, object state), never of
//! wall-clock time — the paper's precondition for determinism.

use crate::ast::ArgExpr;
use crate::compile::CompiledObject;
use crate::ids::{CellId, FieldId, MethodIdx, MutexId, ServiceId, SyncId};
use crate::threaded::{cond, ctag, dtag, itag, mtag, Op, OpCode, COND_NEGATE};
use crate::value::{RequestArgs, Value};
use std::sync::Arc;

/// The shared state of one object replica: replicated integer cells plus
/// the monitor-reference fields used as spontaneous lock parameters.
///
/// The divergence-detection hash is maintained *incrementally*: every
/// mutation goes through [`ObjectState::set_cell`] / [`set_field`], which
/// XOR out the old slot contribution and XOR in the new one, so
/// [`state_hash`] is O(1) regardless of how many cells the object has.
/// All fields are private to protect that invariant.
///
/// [`set_field`]: ObjectState::set_field
/// [`state_hash`]: ObjectState::state_hash
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectState {
    /// The monitor of the object itself (`this`).
    this_mutex: MutexId,
    cells: Vec<i64>,
    fields: Vec<MutexId>,
    /// Order-independent XOR-fold over `mix(slot, value)` of every slot.
    hash: u64,
}

/// Mixes one `(slot, value)` pair into a 64-bit contribution (SplitMix64
/// finalizer). The hash of a state is the XOR of all slot contributions —
/// XOR makes every mutation an O(1) out-then-in update, and the strong
/// per-slot mixing is what keeps the fold from collapsing (a plain XOR of
/// raw values would cancel identical cells).
#[inline]
fn mix(slot: u64, value: u64) -> u64 {
    let mut z =
        slot.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ value.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Disjoint slot spaces for the three state components.
#[inline]
fn cell_slot(i: usize) -> u64 {
    (i as u64) << 1
}
#[inline]
fn field_slot(i: usize) -> u64 {
    ((i as u64) << 1) | 1
}
const THIS_SLOT: u64 = u64::MAX;

impl ObjectState {
    pub fn new(this_mutex: MutexId, n_cells: u32, fields: Vec<MutexId>) -> Self {
        let mut s = ObjectState {
            this_mutex,
            cells: vec![0; n_cells as usize],
            fields,
            hash: 0,
        };
        s.hash = s.full_rehash();
        s
    }

    /// Builds the state shape an object implementation expects, with all
    /// fields pointing at `this`.
    pub fn for_object(obj: &CompiledObject, this_mutex: MutexId) -> Self {
        ObjectState::new(
            this_mutex,
            obj.n_cells,
            vec![this_mutex; obj.n_fields as usize],
        )
    }

    /// The monitor of the object itself (`this`).
    pub fn this_mutex(&self) -> MutexId {
        self.this_mutex
    }

    pub fn cell(&self, c: CellId) -> i64 {
        self.cells[c.index()]
    }

    pub fn set_cell(&mut self, c: CellId, v: i64) {
        let slot = &mut self.cells[c.index()];
        self.hash ^= mix(cell_slot(c.index()), *slot as u64) ^ mix(cell_slot(c.index()), v as u64);
        *slot = v;
    }

    pub fn field(&self, f: FieldId) -> MutexId {
        self.fields[f.index()]
    }

    pub fn set_field(&mut self, f: FieldId, m: MutexId) {
        let slot = &mut self.fields[f.index()];
        self.hash ^=
            mix(field_slot(f.index()), slot.0 as u64) ^ mix(field_slot(f.index()), m.0 as u64);
        *slot = m;
    }

    pub fn cells(&self) -> &[i64] {
        &self.cells
    }

    /// Hash over the full replicated state; replicas compare these to
    /// detect divergence. O(1): maintained incrementally under mutation.
    pub fn state_hash(&self) -> u64 {
        self.hash
    }

    /// Recomputes the hash from scratch. The incremental hash must always
    /// equal this — exposed so tests (and paranoid callers) can check the
    /// equivalence.
    pub fn full_rehash(&self) -> u64 {
        let mut h = mix(THIS_SLOT, self.this_mutex.0 as u64);
        for (i, &c) in self.cells.iter().enumerate() {
            h ^= mix(cell_slot(i), c as u64);
        }
        for (i, &f) in self.fields.iter().enumerate() {
            h ^= mix(field_slot(i), f.0 as u64);
        }
        h
    }
}

/// A synchronisation-relevant step the engine must arbitrate or perform.
/// Timing payloads are nanoseconds of *virtual* time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Occupy a CPU for the given duration.
    Compute { dur_ns: u64 },
    /// Request the monitor `mutex` for synchronized block `sync_id`.
    Lock { sync_id: SyncId, mutex: MutexId },
    /// Release the monitor taken at `sync_id`.
    Unlock { sync_id: SyncId, mutex: MutexId },
    /// `mutex.wait()` — caller must hold `mutex`.
    Wait { mutex: MutexId },
    /// `mutex.notify()` / `notifyAll()` — caller must hold `mutex`.
    Notify { mutex: MutexId, all: bool },
    /// Nested remote invocation with the given simulated round-trip.
    Nested { service: ServiceId, dur_ns: u64 },
    /// Announcement injected by the analysis: this thread will lock
    /// `mutex` at `sync_id` (paper `scheduler.lockInfo`).
    LockInfo { sync_id: SyncId, mutex: MutexId },
    /// Announcement injected by the analysis: `sync_id` is bypassed on the
    /// taken path (paper `scheduler.ignore`).
    Ignore { sync_id: SyncId },
}

/// A structured interpreter fault: the program is malformed in a way the
/// compiler cannot produce but hand-built bytecode can. Faults are
/// deterministic (a pure function of program + arguments + state, like
/// every other step), so all replicas fault identically — the engine
/// reports the run as failed instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `Unlock` executed with no matching `Lock` in the current frame.
    UnlockWithoutLock { sync_id: SyncId },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::UnlockWithoutLock { sync_id } => {
                write!(f, "unlock at {sync_id} without matching lock")
            }
        }
    }
}

/// Result of stepping a VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The VM paused at an action; resume by calling `step` again after
    /// the engine has performed/granted it.
    Action(Action),
    /// The root method returned; the thread is done.
    Finished,
    /// The program is malformed; the thread cannot continue. Re-stepping
    /// returns the same fault.
    Faulted(Fault),
}

/// Per-frame bookkeeping: where this frame's arguments, locals, loop
/// counters and taken monitors begin in the VM-wide arenas. The frame's
/// segment of each arena runs from its base to either the next frame's
/// base or the arena's end (frames form a stack, so the executing frame's
/// segments are always the arena tails).
#[derive(Clone, Copy)]
struct FrameMeta {
    /// Absolute pc into the object's flat threaded-code stream
    /// ([`crate::threaded::ThreadedCode::ops`]).
    pc: usize,
    args_base: usize,
    locals_base: usize,
    loops_base: usize,
    /// Monitors taken by `Lock` in this frame live at
    /// `sync_stack[sync_base..]`, with their sync ids, in acquisition
    /// order (so `Unlock` releases what was actually locked even if the
    /// parameter expression was reassigned in between).
    sync_base: usize,
}

/// The interpreter state of one logical thread.
///
/// Frames are flattened: instead of every `Frame` owning four heap
/// vectors, all frames share four VM-wide arenas indexed by per-frame
/// base offsets. A call appends to the arena tails, a return truncates
/// back to the frame's bases — so after warm-up (and always, on a VM
/// recycled through [`VmPool`]) pushing and popping frames allocates
/// nothing.
pub struct ThreadVm {
    program: Arc<CompiledObject>,
    frames: Vec<FrameMeta>,
    /// Argument arena: the root request's args followed by each nested
    /// call's evaluated arguments.
    args: Vec<Value>,
    locals: Vec<Value>,
    loop_slots: Vec<u32>,
    sync_stack: Vec<(SyncId, MutexId)>,
    /// Count of `step` calls, exposed for tests and runaway detection.
    steps: u64,
    /// Count of superinstruction executions, exposed for the bench
    /// per-kind `fused_steps` counter.
    fused: u64,
}

/// Hard bound on internal (non-action) instructions executed per `step`
/// call. A purely internal infinite loop is a programme bug; failing fast
/// beats hanging the simulation.
const INTERNAL_STEP_LIMIT: usize = 1_000_000;

impl ThreadVm {
    /// Creates a VM poised at the first instruction of `method`.
    pub fn new(program: Arc<CompiledObject>, method: MethodIdx, args: RequestArgs) -> Self {
        let mut vm = ThreadVm {
            program,
            frames: Vec::new(),
            args: Vec::new(),
            locals: Vec::new(),
            loop_slots: Vec::new(),
            sync_stack: Vec::new(),
            steps: 0,
            fused: 0,
        };
        vm.start(method, &args);
        vm
    }

    /// Re-arms this VM for a new request, recycling every buffer the
    /// previous request grew. This is what makes [`VmPool`] reuse
    /// allocation-free in steady state.
    pub fn reset(&mut self, program: Arc<CompiledObject>, method: MethodIdx, args: &RequestArgs) {
        self.program = program;
        self.frames.clear();
        self.args.clear();
        self.locals.clear();
        self.loop_slots.clear();
        self.sync_stack.clear();
        self.steps = 0;
        self.fused = 0;
        self.start(method, args);
    }

    fn start(&mut self, method: MethodIdx, args: &RequestArgs) {
        let m = &self.program.methods[method.index()];
        assert_eq!(
            args.len(),
            m.arity,
            "method {} expects {} args, got {}",
            m.name,
            m.arity,
            args.len()
        );
        self.args.extend_from_slice(args.values());
        push_frame_on(
            &self.program,
            &mut self.frames,
            &self.args,
            &mut self.locals,
            &mut self.loop_slots,
            &self.sync_stack,
            method,
            0,
        );
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Superinstruction executions since construction/reset.
    pub fn fused_steps(&self) -> u64 {
        self.fused
    }

    /// Monitors currently held by this thread across all frames, in
    /// acquisition order (outermost first). Reentrant acquisitions appear
    /// once per `Lock`.
    pub fn held_monitors(&self) -> Vec<MutexId> {
        self.sync_stack.iter().map(|&(_, m)| m).collect()
    }

    /// Advances the thread to its next synchronisation-relevant action.
    /// Internal instructions mutate `state` immediately (the engine only
    /// steps one VM at a time, so these writes are race-free by
    /// construction — the simulation analogue of "all access is properly
    /// synchronised").
    ///
    /// This is the threaded-code loop: it fetches fixed-size [`Op`] words
    /// by value from the object's flat stream, dispatches through the
    /// dense `OpCode` jump table, and keeps the VM registers (`pc` and
    /// the four frame bases) in locals across handler calls — the frame
    /// record is written back only when the step returns or the frame
    /// changes. Handlers are `#[inline(always)]` free functions over the
    /// operand words.
    pub fn step(&mut self, state: &mut ObjectState) -> StepOutcome {
        self.steps += 1;
        let mut budget = INTERNAL_STEP_LIMIT;
        // Split borrows: handlers mutate the arenas, but the program is
        // read-only for the whole step. Naming the fields separately lets
        // the flat stream's base pointers stay in registers across those
        // mutations — routed through `self`, every `state.set_cell` would
        // force the optimiser to re-load them.
        let ThreadVm {
            program,
            frames,
            args,
            locals,
            loop_slots,
            sync_stack,
            fused,
            ..
        } = self;
        let flat = &program.flat;
        'frame: loop {
            let Some(&FrameMeta {
                pc: frame_pc,
                args_base,
                locals_base,
                loops_base,
                sync_base,
            }) = frames.last()
            else {
                return StepOutcome::Finished;
            };
            let fi = frames.len() - 1;
            let mut pc = frame_pc;
            loop {
                if budget == 0 {
                    panic!(
                        "thread exceeded {INTERNAL_STEP_LIMIT} internal steps: \
                         non-terminating internal loop"
                    );
                }
                budget -= 1;
                // `Op` is `Copy`: the fetch ends the borrow of `program`
                // immediately, so handlers mutate the arenas freely.
                let op = flat.ops[pc];
                match op.code {
                    // ---- action opcodes: suspend with an Action ----
                    OpCode::Compute => {
                        let dur_ns = dur_op(op.t, op.a, &flat.lits, &args[args_base..]);
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::Compute { dur_ns });
                    }
                    OpCode::Lock => {
                        let mutex = mutex_op(op, &args[args_base..], &locals[locals_base..], state);
                        let sync_id = SyncId(op.a);
                        sync_stack.push((sync_id, mutex));
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::Lock { sync_id, mutex });
                    }
                    OpCode::Unlock => {
                        return unlock_tail(frames, sync_stack, fi, pc + 1, pc, sync_base, op.a);
                    }
                    OpCode::Wait => {
                        let mutex = mutex_op(op, &args[args_base..], &locals[locals_base..], state);
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::Wait { mutex });
                    }
                    OpCode::NotifyOne | OpCode::NotifyAll => {
                        let mutex = mutex_op(op, &args[args_base..], &locals[locals_base..], state);
                        let all = op.code == OpCode::NotifyAll;
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::Notify { mutex, all });
                    }
                    OpCode::Nested => {
                        let dur_ns = dur_op(op.t, op.b, &flat.lits, &args[args_base..]);
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::Nested {
                            service: ServiceId(op.a),
                            dur_ns,
                        });
                    }
                    OpCode::LockInfo => {
                        let mutex = mutex_op(op, &args[args_base..], &locals[locals_base..], state);
                        let sync_id = SyncId(op.a);
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::LockInfo { sync_id, mutex });
                    }
                    OpCode::IgnoreSync => {
                        frames[fi].pc = pc + 1;
                        return StepOutcome::Action(Action::Ignore {
                            sync_id: SyncId(op.a),
                        });
                    }
                    // ---- internal opcodes: no scheduler involvement ----
                    OpCode::Update => {
                        let d = int_op(op.t, op.b, &flat.lits, &args[args_base..], state);
                        let cell = CellId(op.a);
                        state.set_cell(cell, state.cell(cell).wrapping_add(d));
                        pc += 1;
                    }
                    OpCode::UpdateIndexed => {
                        let fargs = &args[args_base..];
                        let idx = arg_at(fargs, op.sa as usize)
                            .as_int()
                            .rem_euclid(op.b as i64) as u32;
                        let cell = CellId::new(op.a + idx);
                        let d = int_op(op.t, op.c, &flat.lits, fargs, state);
                        state.set_cell(cell, state.cell(cell).wrapping_add(d));
                        pc += 1;
                    }
                    OpCode::SetCell => {
                        let v = int_op(op.t, op.b, &flat.lits, &args[args_base..], state);
                        state.set_cell(CellId(op.a), v);
                        pc += 1;
                    }
                    OpCode::Assign => {
                        let m = mutex_op(op, &args[args_base..], &locals[locals_base..], state);
                        locals[locals_base + op.a as usize] = Value::Mutex(m);
                        pc += 1;
                    }
                    OpCode::BranchIfFalse => {
                        pc = if cond_op(op, &flat.lits, &args[args_base..], state) {
                            pc + 1
                        } else {
                            op.a as usize
                        };
                    }
                    OpCode::Jump => pc = op.a as usize,
                    OpCode::LoopInit => {
                        let n = if op.t == ctag::LIT {
                            op.a
                        } else {
                            arg_at(&args[args_base..], op.a as usize).as_int().max(0) as u32
                        };
                        loop_slots[loops_base + op.sa as usize] = n;
                        pc += 1;
                    }
                    OpCode::LoopTest => {
                        let c = &mut loop_slots[loops_base + op.sa as usize];
                        if *c == 0 {
                            pc = op.a as usize;
                        } else {
                            *c -= 1;
                            pc += 1;
                        }
                    }
                    OpCode::Call => {
                        let callee = MethodIdx(op.a);
                        let (s, n) = (op.b as usize, op.c as usize);
                        let callee_base = eval_call_args(
                            args,
                            locals,
                            &flat.arg_pool[s..s + n],
                            args_base,
                            locals_base,
                            state,
                        );
                        frames[fi].pc = pc + 1;
                        push_frame_on(
                            program,
                            frames,
                            args,
                            locals,
                            loop_slots,
                            sync_stack,
                            callee,
                            callee_base,
                        );
                        continue 'frame;
                    }
                    OpCode::CallVirtual => {
                        let spec = flat.vcalls[op.a as usize];
                        let sel = int_op(
                            spec.sel_tag,
                            spec.sel_op,
                            &flat.lits,
                            &args[args_base..],
                            state,
                        );
                        let idx = sel.rem_euclid(spec.cand_len as i64) as usize;
                        let target = flat.cand_pool[spec.cand_start as usize + idx];
                        let (s, n) = (spec.args_start as usize, spec.args_len as usize);
                        let callee_base = eval_call_args(
                            args,
                            locals,
                            &flat.arg_pool[s..s + n],
                            args_base,
                            locals_base,
                            state,
                        );
                        frames[fi].pc = pc + 1;
                        push_frame_on(
                            program,
                            frames,
                            args,
                            locals,
                            loop_slots,
                            sync_stack,
                            target,
                            callee_base,
                        );
                        continue 'frame;
                    }
                    OpCode::Ret => {
                        let f = frames.pop().expect("ret without frame");
                        assert!(
                            sync_stack.len() == f.sync_base,
                            "returning while holding monitors {:?}",
                            &sync_stack[f.sync_base..]
                        );
                        args.truncate(f.args_base);
                        locals.truncate(f.locals_base);
                        loop_slots.truncate(f.loops_base);
                        if frames.is_empty() {
                            return StepOutcome::Finished;
                        }
                        continue 'frame;
                    }
                    // ---- superinstructions ----
                    OpCode::UpdateUnlock => {
                        *fused += 1;
                        let d = int_op(op.t, op.b, &flat.lits, &args[args_base..], state);
                        let cell = CellId(op.a);
                        state.set_cell(cell, state.cell(cell).wrapping_add(d));
                        let sid = flat.ops[pc + 1].a;
                        return unlock_tail(frames, sync_stack, fi, pc + 2, pc + 1, sync_base, sid);
                    }
                    OpCode::UpdateIndexedUnlock => {
                        *fused += 1;
                        let fargs = &args[args_base..];
                        let idx = arg_at(fargs, op.sa as usize)
                            .as_int()
                            .rem_euclid(op.b as i64) as u32;
                        let cell = CellId::new(op.a + idx);
                        let d = int_op(op.t, op.c, &flat.lits, fargs, state);
                        state.set_cell(cell, state.cell(cell).wrapping_add(d));
                        let sid = flat.ops[pc + 1].a;
                        return unlock_tail(frames, sync_stack, fi, pc + 2, pc + 1, sync_base, sid);
                    }
                    OpCode::SetCellUnlock => {
                        *fused += 1;
                        let v = int_op(op.t, op.b, &flat.lits, &args[args_base..], state);
                        state.set_cell(CellId(op.a), v);
                        let sid = flat.ops[pc + 1].a;
                        return unlock_tail(frames, sync_stack, fi, pc + 2, pc + 1, sync_base, sid);
                    }
                    OpCode::BrFalseCompute => {
                        *fused += 1;
                        if cond_op(op, &flat.lits, &args[args_base..], state) {
                            let carrier = flat.ops[pc + 1];
                            let dur_ns =
                                dur_op(carrier.t, carrier.a, &flat.lits, &args[args_base..]);
                            frames[fi].pc = pc + 2;
                            return StepOutcome::Action(Action::Compute { dur_ns });
                        }
                        pc = op.a as usize;
                    }
                    OpCode::BrFalseNested => {
                        *fused += 1;
                        if cond_op(op, &flat.lits, &args[args_base..], state) {
                            let carrier = flat.ops[pc + 1];
                            let dur_ns =
                                dur_op(carrier.t, carrier.b, &flat.lits, &args[args_base..]);
                            frames[fi].pc = pc + 2;
                            return StepOutcome::Action(Action::Nested {
                                service: ServiceId(carrier.a),
                                dur_ns,
                            });
                        }
                        pc = op.a as usize;
                    }
                }
            }
        }
    }
}

/// Shared monitor-exit tail of `Unlock` and the fused `*Unlock`
/// superinstructions: pops the sync stack, or faults deterministically
/// when the frame holds no monitor (`fault_pc` re-faults on re-step).
#[inline(always)]
fn unlock_tail(
    frames: &mut [FrameMeta],
    sync_stack: &mut Vec<(SyncId, MutexId)>,
    fi: usize,
    next_pc: usize,
    fault_pc: usize,
    sync_base: usize,
    sync_id: u32,
) -> StepOutcome {
    if sync_stack.len() <= sync_base {
        frames[fi].pc = fault_pc;
        return StepOutcome::Faulted(Fault::UnlockWithoutLock {
            sync_id: SyncId(sync_id),
        });
    }
    let (sid, mutex) = sync_stack.pop().expect("checked above");
    debug_assert_eq!(sid.0, sync_id, "unbalanced sync stack");
    frames[fi].pc = next_pc;
    StepOutcome::Action(Action::Unlock {
        sync_id: sid,
        mutex,
    })
}

/// Pushes a frame whose arguments already occupy `args[args_base..]`.
/// A free function over explicit arenas, so `step`'s split-borrow loop
/// can call it while the hoisted program borrow is live.
#[allow(clippy::too_many_arguments)]
fn push_frame_on(
    program: &CompiledObject,
    frames: &mut Vec<FrameMeta>,
    args: &[Value],
    locals: &mut Vec<Value>,
    loop_slots: &mut Vec<u32>,
    sync_stack: &[(SyncId, MutexId)],
    method: MethodIdx,
    args_base: usize,
) {
    let m = &program.methods[method.index()];
    assert_eq!(
        args.len() - args_base,
        m.arity,
        "call arity mismatch for {}",
        m.name
    );
    let (n_locals, n_loops) = (m.n_locals as usize, m.n_loop_slots as usize);
    let locals_base = locals.len();
    let loops_base = loop_slots.len();
    let sync_base = sync_stack.len();
    locals.resize(locals_base + n_locals, Value::Int(0));
    loop_slots.resize(loops_base + n_loops, 0);
    frames.push(FrameMeta {
        pc: program.flat.entries[method.index()] as usize,
        args_base,
        locals_base,
        loops_base,
        sync_base,
    });
}

/// A reset-on-reuse free list of boxed [`ThreadVm`]s. A replica acquires
/// a VM per admitted request and releases it when the thread finishes;
/// after the pool warms up to the peak number of concurrently live
/// threads, admission stops allocating entirely. VMs travel boxed so a
/// replica's per-thread table holds one pointer per thread id, and admit
/// and finish move that pointer rather than the whole VM. The
/// `allocs`/`reuses` counters make the reuse claim checkable from the
/// outside.
#[derive(Default)]
pub struct VmPool {
    // The boxes are the point: `acquire`/`release` hand the same
    // allocation back and forth, so storing them unboxed would
    // re-allocate on every acquire.
    #[allow(clippy::vec_box)]
    free: Vec<Box<ThreadVm>>,
    allocs: u64,
    reuses: u64,
}

impl VmPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a VM poised at the first instruction of `method`,
    /// recycling a released VM when one is idle.
    pub fn acquire(
        &mut self,
        program: Arc<CompiledObject>,
        method: MethodIdx,
        args: &RequestArgs,
    ) -> Box<ThreadVm> {
        match self.free.pop() {
            Some(mut vm) => {
                self.reuses += 1;
                vm.reset(program, method, args);
                vm
            }
            None => {
                self.allocs += 1;
                Box::new(ThreadVm::new(program, method, args.clone()))
            }
        }
    }

    /// Returns a finished VM's buffers to the pool.
    pub fn release(&mut self, vm: Box<ThreadVm>) {
        self.free.push(vm);
    }

    /// VMs constructed from scratch (pool misses).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Acquisitions served by recycling a released VM.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// VMs currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

/// Fetches argument `i` from a frame's segment of the args arena. Panics
/// on out-of-range: the analysis guarantees arity, so a miss is a harness
/// bug worth failing loudly on.
#[inline]
fn arg_at(args: &[Value], i: usize) -> Value {
    *args
        .get(i)
        .unwrap_or_else(|| panic!("request argument {i} missing (have {})", args.len()))
}

/// Evaluates a call's argument expressions into the tail of the args
/// arena (one at a time — the caller's own segment stays readable while
/// the callee's grows behind it) and returns the callee's `args_base`.
/// A free function over the two arenas so the caller's borrow of the
/// program (the instruction being executed) stays live across the call.
fn eval_call_args(
    args: &mut Vec<Value>,
    locals: &[Value],
    exprs: &[ArgExpr],
    args_base: usize,
    locals_base: usize,
    state: &ObjectState,
) -> usize {
    let callee_base = args.len();
    for a in exprs {
        let v = match a {
            ArgExpr::Const(v) => *v,
            ArgExpr::CallerArg(i) => arg_at(&args[args_base..callee_base], *i),
            ArgExpr::Local(l) => locals[locals_base + l.index()],
            ArgExpr::Field(f) => Value::Mutex(state.field(*f)),
        };
        args.push(v);
    }
    callee_base
}

/// Duration operand of a threaded op: literal-pool index or argument
/// index, per [`dtag`].
#[inline(always)]
fn dur_op(t: u8, operand: u32, lits: &[i64], args: &[Value]) -> u64 {
    if t == dtag::LIT {
        lits[operand as usize] as u64
    } else {
        arg_at(args, operand as usize).as_dur_nanos()
    }
}

/// Integer operand of a threaded op, per [`itag`].
#[inline(always)]
fn int_op(t: u8, operand: u32, lits: &[i64], args: &[Value], state: &ObjectState) -> i64 {
    match t {
        itag::LIT => lits[operand as usize],
        itag::ARG => arg_at(args, operand as usize).as_int(),
        _ => state.cell(CellId(operand)),
    }
}

/// Mutex operand of a threaded op, per [`mtag`] (packing documented on
/// `threaded::pack_mutex`).
#[inline(always)]
fn mutex_op(op: Op, args: &[Value], locals: &[Value], state: &ObjectState) -> MutexId {
    match op.t {
        mtag::THIS => state.this_mutex,
        mtag::KONST => MutexId(op.b),
        mtag::ARG => arg_at(args, op.b as usize).as_mutex(),
        mtag::LOCAL => locals[op.b as usize].as_mutex(),
        mtag::FIELD => state.field(FieldId(op.b)),
        mtag::POOL => {
            let idx = arg_at(args, op.sa as usize)
                .as_int()
                .rem_euclid(op.c as i64) as u32;
            MutexId::new(op.b + idx)
        }
        mtag::POOL_BY_CELL => {
            let idx = state.cell(CellId(op.d)).rem_euclid(op.c as i64) as u32;
            MutexId::new(op.b + idx)
        }
        // CALL_RESULT resolves to the field the analysis pinned it to.
        _ => state.field(FieldId(op.b)),
    }
}

/// Condition operand of a threaded op, per [`cond`]; `COND_NEGATE` in the
/// tag folds any `Not` wrappers into a polarity flip.
#[inline(always)]
fn cond_op(op: Op, lits: &[i64], args: &[Value], state: &ObjectState) -> bool {
    let v = match op.t & !COND_NEGATE {
        cond::KONST => op.b != 0,
        cond::ARG_FLAG => arg_at(args, op.b as usize).as_bool(),
        cond::ARG_INT_LT => arg_at(args, op.b as usize).as_int() < lits[op.c as usize],
        cond::CELL_EQ => state.cell(CellId(op.b)) == lits[op.c as usize],
        cond::CELL_LT => state.cell(CellId(op.b)) < lits[op.c as usize],
        cond::CELL_GE => state.cell(CellId(op.b)) >= lits[op.c as usize],
        _ => arg_at(args, op.b as usize).as_mutex() == state.field(FieldId(op.c)),
    };
    v ^ (op.t & COND_NEGATE != 0)
}

/// Runs a VM to completion with every action auto-granted, returning the
/// emitted action trace. Only meaningful for single-threaded execution —
/// used by tests, the analysis oracle, and the transformation-equivalence
/// property checks.
pub fn run_to_completion(vm: &mut ThreadVm, state: &mut ObjectState) -> Vec<Action> {
    let mut trace = Vec::new();
    loop {
        match vm.step(state) {
            StepOutcome::Action(a) => trace.push(a),
            StepOutcome::Finished => return trace,
            StepOutcome::Faulted(f) => panic!("interpreter fault: {f}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CondExpr, CountExpr, DurExpr, IntExpr, Method, MutexExpr, ObjectImpl, Stmt};
    use crate::compile::{compile, Instr};
    use crate::ids::LocalId;

    fn make(body: Vec<Stmt>, arity: usize, n_locals: u32) -> Arc<CompiledObject> {
        compile(&ObjectImpl {
            name: "T".into(),
            n_cells: 4,
            n_fields: 2,
            methods: vec![Method {
                name: "m".into(),
                arity,
                n_locals,
                public: true,
                is_final: true,
                body,
            }],
        })
    }

    fn run(obj: Arc<CompiledObject>, args: Vec<Value>) -> (Vec<Action>, ObjectState) {
        let mut state = ObjectState::for_object(&obj, MutexId::new(1000));
        let mut vm = ThreadVm::new(obj, MethodIdx::new(0), RequestArgs::new(&args));
        let trace = run_to_completion(&mut vm, &mut state);
        (trace, state)
    }

    #[test]
    fn straight_line_trace() {
        let obj = make(
            vec![
                Stmt::Compute(DurExpr::millis(2)),
                Stmt::Sync {
                    sync_id: SyncId::new(0),
                    param: MutexExpr::This,
                    body: vec![Stmt::Update {
                        cell: CellId::new(0),
                        delta: IntExpr::Lit(5),
                    }],
                },
            ],
            0,
            0,
        );
        let (trace, state) = run(obj, vec![]);
        assert_eq!(
            trace,
            vec![
                Action::Compute { dur_ns: 2_000_000 },
                Action::Lock {
                    sync_id: SyncId::new(0),
                    mutex: MutexId::new(1000)
                },
                Action::Unlock {
                    sync_id: SyncId::new(0),
                    mutex: MutexId::new(1000)
                },
            ]
        );
        assert_eq!(state.cell(CellId::new(0)), 5);
    }

    #[test]
    fn branch_on_client_flag() {
        let body = vec![Stmt::If {
            cond: CondExpr::ArgFlag(0),
            then_branch: vec![Stmt::Compute(DurExpr::millis(1))],
            else_branch: vec![Stmt::Nested {
                service: ServiceId::new(0),
                dur: DurExpr::millis(12),
            }],
        }];
        let obj = make(body, 1, 0);
        let (t_true, _) = run(obj.clone(), vec![Value::Bool(true)]);
        assert_eq!(t_true, vec![Action::Compute { dur_ns: 1_000_000 }]);
        let (t_false, _) = run(obj, vec![Value::Bool(false)]);
        assert_eq!(
            t_false,
            vec![Action::Nested {
                service: ServiceId::new(0),
                dur_ns: 12_000_000
            }]
        );
    }

    #[test]
    fn for_loop_repeats_body() {
        let obj = make(
            vec![Stmt::For {
                count: CountExpr::Lit(3),
                body: vec![Stmt::Update {
                    cell: CellId::new(1),
                    delta: IntExpr::Lit(2),
                }],
            }],
            0,
            0,
        );
        let (trace, state) = run(obj, vec![]);
        assert!(trace.is_empty()); // pure internal work
        assert_eq!(state.cell(CellId::new(1)), 6);
    }

    #[test]
    fn for_loop_count_from_arg_and_zero() {
        let obj = make(
            vec![Stmt::For {
                count: CountExpr::Arg(0),
                body: vec![Stmt::Compute(DurExpr::millis(1))],
            }],
            1,
            0,
        );
        let (trace, _) = run(obj.clone(), vec![Value::Int(2)]);
        assert_eq!(trace.len(), 2);
        let (trace, _) = run(obj.clone(), vec![Value::Int(0)]);
        assert!(trace.is_empty());
        // Negative counts clamp to zero.
        let (trace, _) = run(obj, vec![Value::Int(-5)]);
        assert!(trace.is_empty());
    }

    #[test]
    fn pool_mutex_selected_by_client_index() {
        let obj = make(
            vec![Stmt::Sync {
                sync_id: SyncId::new(0),
                param: MutexExpr::Pool {
                    base: 100,
                    len: 10,
                    index_arg: 0,
                },
                body: vec![],
            }],
            1,
            0,
        );
        let (trace, _) = run(obj.clone(), vec![Value::Int(7)]);
        assert_eq!(
            trace[0],
            Action::Lock {
                sync_id: SyncId::new(0),
                mutex: MutexId::new(107)
            }
        );
        // Index wraps modulo pool size.
        let (trace, _) = run(obj, vec![Value::Int(13)]);
        assert_eq!(
            trace[0],
            Action::Lock {
                sync_id: SyncId::new(0),
                mutex: MutexId::new(103)
            }
        );
    }

    #[test]
    fn local_assignment_tracks_lock_object() {
        // local = args[0]; sync(local) { ... } — unlock releases what was
        // locked even though nothing reassigns here.
        let obj = make(
            vec![
                Stmt::Assign {
                    local: LocalId::new(0),
                    expr: MutexExpr::Arg(0),
                },
                Stmt::Sync {
                    sync_id: SyncId::new(0),
                    param: MutexExpr::Local(LocalId::new(0)),
                    body: vec![Stmt::Assign {
                        local: LocalId::new(0),
                        expr: MutexExpr::This,
                    }],
                },
            ],
            1,
            1,
        );
        let (trace, _) = run(obj, vec![Value::Mutex(MutexId::new(55))]);
        assert_eq!(
            trace,
            vec![
                Action::Lock {
                    sync_id: SyncId::new(0),
                    mutex: MutexId::new(55)
                },
                // Reassignment inside the block must not change what is unlocked.
                Action::Unlock {
                    sync_id: SyncId::new(0),
                    mutex: MutexId::new(55)
                },
            ]
        );
    }

    #[test]
    fn early_return_unlocks_monitors() {
        let obj = make(
            vec![Stmt::Sync {
                sync_id: SyncId::new(0),
                param: MutexExpr::This,
                body: vec![
                    Stmt::If {
                        cond: CondExpr::ArgFlag(0),
                        then_branch: vec![Stmt::Return],
                        else_branch: vec![],
                    },
                    Stmt::Compute(DurExpr::millis(1)),
                ],
            }],
            1,
            0,
        );
        let (trace, _) = run(obj.clone(), vec![Value::Bool(true)]);
        assert_eq!(trace.len(), 2); // lock + unlock, no compute
        assert!(matches!(trace[1], Action::Unlock { .. }));
        let (trace, _) = run(obj, vec![Value::Bool(false)]);
        assert_eq!(trace.len(), 3); // lock + compute + unlock
    }

    #[test]
    fn local_call_pushes_frame() {
        let callee = Method {
            name: "callee".into(),
            arity: 1,
            n_locals: 0,
            public: false,
            is_final: true,
            body: vec![Stmt::Sync {
                sync_id: SyncId::new(1),
                param: MutexExpr::Arg(0),
                body: vec![],
            }],
        };
        let caller = Method {
            name: "caller".into(),
            arity: 1,
            n_locals: 0,
            public: true,
            is_final: true,
            body: vec![Stmt::Call {
                method: MethodIdx::new(1),
                args: vec![ArgExpr::CallerArg(0)],
            }],
        };
        let obj = compile(&ObjectImpl {
            name: "T".into(),
            n_cells: 0,
            n_fields: 0,
            methods: vec![caller, callee],
        });
        let mut state = ObjectState::for_object(&obj, MutexId::new(1));
        let mut vm = ThreadVm::new(
            obj,
            MethodIdx::new(0),
            RequestArgs::new(&[Value::Mutex(MutexId::new(42))]),
        );
        let trace = run_to_completion(&mut vm, &mut state);
        assert_eq!(
            trace,
            vec![
                Action::Lock {
                    sync_id: SyncId::new(1),
                    mutex: MutexId::new(42)
                },
                Action::Unlock {
                    sync_id: SyncId::new(1),
                    mutex: MutexId::new(42)
                },
            ]
        );
    }

    #[test]
    fn virtual_call_dispatches_by_selector() {
        let mk_leaf = |name: &str, ms: u64| Method {
            name: name.into(),
            arity: 0,
            n_locals: 0,
            public: false,
            is_final: false,
            body: vec![Stmt::Compute(DurExpr::millis(ms))],
        };
        let caller = Method {
            name: "caller".into(),
            arity: 1,
            n_locals: 0,
            public: true,
            is_final: true,
            body: vec![Stmt::VirtualCall {
                site: crate::ids::CallSiteId::new(0),
                candidates: vec![MethodIdx::new(1), MethodIdx::new(2)],
                selector: IntExpr::Arg(0),
                args: vec![],
            }],
        };
        let obj = compile(&ObjectImpl {
            name: "T".into(),
            n_cells: 0,
            n_fields: 0,
            methods: vec![caller, mk_leaf("a", 1), mk_leaf("b", 2)],
        });
        let run_sel = |sel: i64| {
            let mut state = ObjectState::for_object(&obj, MutexId::new(1));
            let mut vm = ThreadVm::new(
                obj.clone(),
                MethodIdx::new(0),
                RequestArgs::new(&[Value::Int(sel)]),
            );
            run_to_completion(&mut vm, &mut state)
        };
        assert_eq!(run_sel(0), vec![Action::Compute { dur_ns: 1_000_000 }]);
        assert_eq!(run_sel(1), vec![Action::Compute { dur_ns: 2_000_000 }]);
        assert_eq!(run_sel(2), vec![Action::Compute { dur_ns: 1_000_000 }]);
        // Negative selectors use euclidean remainder (stay in range).
        assert_eq!(run_sel(-1), vec![Action::Compute { dur_ns: 2_000_000 }]);
    }

    #[test]
    fn wait_loop_reevaluates_condition() {
        // while (cell0 < 1) wait(this); — after the engine sets the cell
        // and resumes, the loop must exit.
        let obj = make(
            vec![Stmt::Sync {
                sync_id: SyncId::new(0),
                param: MutexExpr::This,
                body: vec![Stmt::While {
                    cond: CondExpr::CellLt(CellId::new(0), 1),
                    body: vec![Stmt::Wait(MutexExpr::This)],
                }],
            }],
            0,
            0,
        );
        let mut state = ObjectState::for_object(&obj, MutexId::new(9));
        let mut vm = ThreadVm::new(obj, MethodIdx::new(0), RequestArgs::empty());
        assert_eq!(
            vm.step(&mut state),
            StepOutcome::Action(Action::Lock {
                sync_id: SyncId::new(0),
                mutex: MutexId::new(9)
            })
        );
        assert_eq!(
            vm.step(&mut state),
            StepOutcome::Action(Action::Wait {
                mutex: MutexId::new(9)
            })
        );
        // Engine: another thread sets the cell, notifies, VM resumes.
        state.set_cell(CellId::new(0), 1);
        assert_eq!(
            vm.step(&mut state),
            StepOutcome::Action(Action::Unlock {
                sync_id: SyncId::new(0),
                mutex: MutexId::new(9)
            })
        );
        assert_eq!(vm.step(&mut state), StepOutcome::Finished);
    }

    #[test]
    fn held_monitors_reported_in_order() {
        let obj = make(
            vec![Stmt::Sync {
                sync_id: SyncId::new(0),
                param: MutexExpr::Konst(MutexId::new(1)),
                body: vec![Stmt::Sync {
                    sync_id: SyncId::new(1),
                    param: MutexExpr::Konst(MutexId::new(2)),
                    body: vec![Stmt::Compute(DurExpr::millis(1))],
                }],
            }],
            0,
            0,
        );
        let mut state = ObjectState::for_object(&obj, MutexId::new(0));
        let mut vm = ThreadVm::new(obj, MethodIdx::new(0), RequestArgs::empty());
        vm.step(&mut state); // lock m1
        vm.step(&mut state); // lock m2
        assert_eq!(vm.held_monitors(), vec![MutexId::new(1), MutexId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "non-terminating internal loop")]
    fn internal_infinite_loop_detected() {
        let obj = make(
            vec![Stmt::While {
                cond: CondExpr::Konst(true),
                body: vec![],
            }],
            0,
            0,
        );
        let mut state = ObjectState::for_object(&obj, MutexId::new(0));
        let mut vm = ThreadVm::new(obj, MethodIdx::new(0), RequestArgs::empty());
        vm.step(&mut state);
    }

    #[test]
    fn state_hash_changes_with_state() {
        let obj = make(vec![], 0, 0);
        let a = ObjectState::for_object(&obj, MutexId::new(1));
        let mut b = ObjectState::for_object(&obj, MutexId::new(1));
        assert_eq!(a.state_hash(), b.state_hash());
        b.set_cell(CellId::new(0), 1);
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    #[should_panic(expected = "expects 1 args")]
    fn arity_mismatch_panics() {
        let obj = make(vec![], 1, 0);
        ThreadVm::new(obj, MethodIdx::new(0), RequestArgs::empty());
    }

    /// Nested-sync method used by the pool-reuse tests: lock(m1) { lock(m2)
    /// { compute } }.
    fn nested_sync_obj() -> Arc<CompiledObject> {
        make(
            vec![Stmt::Sync {
                sync_id: SyncId::new(0),
                param: MutexExpr::Konst(MutexId::new(1)),
                body: vec![Stmt::Sync {
                    sync_id: SyncId::new(1),
                    param: MutexExpr::Konst(MutexId::new(2)),
                    body: vec![Stmt::Compute(DurExpr::millis(1))],
                }],
            }],
            0,
            0,
        )
    }

    #[test]
    fn pool_reuse_reports_reentrant_monitors_across_nested_frames() {
        // A recycled VM must report held monitors exactly like a fresh one,
        // including reentrant/nested acquisitions spread across call frames.
        let callee = Method {
            name: "callee".into(),
            arity: 0,
            n_locals: 0,
            public: false,
            is_final: true,
            body: vec![Stmt::Sync {
                sync_id: SyncId::new(1),
                // Reentrant: the caller already holds this monitor.
                param: MutexExpr::Konst(MutexId::new(7)),
                body: vec![Stmt::Compute(DurExpr::millis(1))],
            }],
        };
        let caller = Method {
            name: "caller".into(),
            arity: 0,
            n_locals: 0,
            public: true,
            is_final: true,
            body: vec![Stmt::Sync {
                sync_id: SyncId::new(0),
                param: MutexExpr::Konst(MutexId::new(7)),
                body: vec![Stmt::Call {
                    method: MethodIdx::new(1),
                    args: vec![],
                }],
            }],
        };
        let obj = compile(&ObjectImpl {
            name: "T".into(),
            n_cells: 0,
            n_fields: 0,
            methods: vec![caller, callee],
        });
        let mut pool = VmPool::new();
        let mut state = ObjectState::for_object(&obj, MutexId::new(0));
        // First request: run to completion, release the VM.
        let mut vm = pool.acquire(obj.clone(), MethodIdx::new(0), &RequestArgs::empty());
        run_to_completion(&mut vm, &mut state);
        assert!(vm.held_monitors().is_empty());
        pool.release(vm);
        // Second request reuses the buffers; pause it mid-nesting.
        let mut vm = pool.acquire(obj.clone(), MethodIdx::new(0), &RequestArgs::empty());
        assert_eq!(pool.reuses(), 1);
        assert_eq!(pool.allocs(), 1);
        vm.step(&mut state); // lock m7 in caller
        vm.step(&mut state); // lock m7 again in callee (reentrant, new frame)
        assert_eq!(vm.held_monitors(), vec![MutexId::new(7), MutexId::new(7)]);
        // Finish cleanly: unlock, unlock, compute, return.
        let trace = run_to_completion(&mut vm, &mut state);
        assert!(vm.held_monitors().is_empty());
        assert!(
            trace
                .iter()
                .filter(|a| matches!(a, Action::Unlock { .. }))
                .count()
                == 2
        );
    }

    #[test]
    fn pool_reuse_matches_fresh_vm_traces() {
        let obj = nested_sync_obj();
        let mut fresh_state = ObjectState::for_object(&obj, MutexId::new(0));
        let mut fresh = ThreadVm::new(obj.clone(), MethodIdx::new(0), RequestArgs::empty());
        let expected = run_to_completion(&mut fresh, &mut fresh_state);

        let mut pool = VmPool::new();
        let mut state = ObjectState::for_object(&obj, MutexId::new(0));
        for round in 0..3 {
            let mut vm = pool.acquire(obj.clone(), MethodIdx::new(0), &RequestArgs::empty());
            let trace = run_to_completion(&mut vm, &mut state);
            assert_eq!(trace, expected, "round {round} diverged after reuse");
            pool.release(vm);
        }
        assert_eq!(pool.allocs(), 1);
        assert_eq!(pool.reuses(), 2);
    }

    #[test]
    #[should_panic(expected = "non-terminating internal loop")]
    fn internal_step_limit_still_fires_after_reuse() {
        // One terminating method and one internal infinite loop in the same
        // object: the recycled VM must still trip the runaway guard.
        let looper = Method {
            name: "looper".into(),
            arity: 0,
            n_locals: 0,
            public: true,
            is_final: true,
            body: vec![Stmt::While {
                cond: CondExpr::Konst(true),
                body: vec![],
            }],
        };
        let fine = Method {
            name: "fine".into(),
            arity: 0,
            n_locals: 0,
            public: true,
            is_final: true,
            body: vec![Stmt::Compute(DurExpr::millis(1))],
        };
        let obj = compile(&ObjectImpl {
            name: "T".into(),
            n_cells: 0,
            n_fields: 0,
            methods: vec![fine, looper],
        });
        let mut pool = VmPool::new();
        let mut state = ObjectState::for_object(&obj, MutexId::new(0));
        let mut vm = pool.acquire(obj.clone(), MethodIdx::new(0), &RequestArgs::empty());
        run_to_completion(&mut vm, &mut state);
        pool.release(vm);
        let mut vm = pool.acquire(obj, MethodIdx::new(1), &RequestArgs::empty());
        vm.step(&mut state);
    }

    #[test]
    fn incremental_hash_matches_full_rehash_under_random_mutation() {
        // Tiny SplitMix64 clone (dmt-lang has no deps) driving randomized
        // set_cell/set_field sequences; the incremental hash must track the
        // from-scratch fold exactly at every step.
        let mut z: u64 = 0x9E37_79B9_0000_0001;
        let mut next = move || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        let mut s = ObjectState::new(MutexId::new(42), 16, vec![MutexId::new(42); 8]);
        assert_eq!(s.state_hash(), s.full_rehash());
        for _ in 0..2_000 {
            if next() % 3 == 0 {
                let f = (next() % 8) as usize;
                s.set_field(FieldId::new(f as u32), MutexId::new((next() % 100) as u32));
            } else {
                let c = (next() % 16) as usize;
                s.set_cell(CellId::new(c as u32), next() as i64);
            }
            assert_eq!(s.state_hash(), s.full_rehash(), "incremental hash drifted");
        }
        // Writing a slot back to its current value must be a no-op.
        let before = s.state_hash();
        let v = s.cell(CellId::new(3));
        s.set_cell(CellId::new(3), v);
        assert_eq!(s.state_hash(), before);
    }

    #[test]
    fn equal_states_hash_equal_after_different_histories() {
        // The fold is order-independent: two states reaching the same
        // contents by different mutation orders must agree.
        let mut a = ObjectState::new(MutexId::new(1), 4, vec![MutexId::new(1); 2]);
        let mut b = a.clone();
        a.set_cell(CellId::new(0), 10);
        a.set_cell(CellId::new(1), 20);
        a.set_field(FieldId::new(0), MutexId::new(9));
        b.set_field(FieldId::new(0), MutexId::new(9));
        b.set_cell(CellId::new(1), 99);
        b.set_cell(CellId::new(1), 20);
        b.set_cell(CellId::new(0), 10);
        assert_eq!(a, b);
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a.state_hash(), a.full_rehash());
    }

    /// Hand-lowers a malformed stream — `body`, then an `Unlock` with no
    /// matching `Lock` — which no `ObjectImpl` can express (the builder
    /// always pairs them), to exercise the structured fault path. The
    /// unlock replaces a placeholder compute in the `Instr` form, which is
    /// then lowered again: with `fuse` on, an internal op in front of it
    /// becomes a fused `*Unlock`.
    fn malformed_unlock_obj(mut body: Vec<Stmt>, fuse: bool) -> Arc<CompiledObject> {
        let at = body.len();
        body.push(Stmt::Compute(DurExpr::millis(1)));
        let mut obj = (*make(body, 1, 0)).clone();
        obj.methods[0].code[at] = Instr::Unlock {
            sync_id: SyncId::new(3),
        };
        obj.flat = crate::threaded::lower(&obj.methods, fuse);
        Arc::new(obj)
    }

    #[test]
    fn unlock_without_lock_faults_instead_of_aborting() {
        let fault = Fault::UnlockWithoutLock {
            sync_id: SyncId::new(3),
        };
        assert_eq!(format!("{fault}"), "unlock at s3 without matching lock");
        let cell = CellId::new(0);
        let update = Stmt::Update {
            cell,
            delta: IntExpr::Lit(5),
        };
        let update_indexed = Stmt::UpdateIndexed {
            base: 0,
            len: 1,
            index_arg: 0,
            delta: IntExpr::Lit(5),
        };
        let set_cell = Stmt::SetCell {
            cell,
            value: IntExpr::Lit(5),
        };
        // (body before the unlock, fusion on, the op at pc 0, cell after)
        let cases = [
            (vec![], false, OpCode::Unlock, 0),
            (vec![update.clone()], false, OpCode::Update, 5),
            (vec![update], true, OpCode::UpdateUnlock, 5),
            (vec![update_indexed], true, OpCode::UpdateIndexedUnlock, 5),
            (vec![set_cell], true, OpCode::SetCellUnlock, 5),
        ];
        for (body, fuse, first, cell_after) in cases {
            let obj = malformed_unlock_obj(body, fuse);
            assert_eq!(obj.flat.ops[0].code, first);
            let mut state = ObjectState::for_object(&obj, MutexId::new(0));
            let args = RequestArgs::new(&[Value::Int(0)]);
            let mut vm = ThreadVm::new(obj, MethodIdx::new(0), args);
            assert_eq!(
                vm.step(&mut state),
                StepOutcome::Faulted(fault),
                "{first:?}"
            );
            // Re-stepping is deterministic: same fault, no progress. A
            // fused op faults at its carrier, so the re-step runs the bare
            // `Unlock` and the update is applied exactly once.
            assert_eq!(
                vm.step(&mut state),
                StepOutcome::Faulted(fault),
                "{first:?}"
            );
            assert_eq!(state.cell(cell), cell_after, "{first:?}");
            assert_eq!(vm.fused_steps(), u64::from(fuse), "{first:?}");
        }
    }
}
