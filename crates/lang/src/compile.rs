//! AST → bytecode linearizer.
//!
//! Interpretation has to be an O(1)-step state machine (every scheduler
//! decision point suspends the thread, and a replica juggles hundreds of
//! suspended threads), so tree-walking with host-stack recursion is out.
//! The compiler flattens each method into a `Vec<Instr>` with explicit
//! jump targets; loops get dedicated counter slots; `return` inside
//! `synchronized` blocks compiles to the unlock cascade Java performs
//! implicitly.

use crate::ast::{ArgExpr, CondExpr, CountExpr, DurExpr, IntExpr, MutexExpr, ObjectImpl, Stmt};
use crate::ids::{CallSiteId, CellId, LocalId, MethodIdx, ServiceId, SyncId};
use crate::threaded::{self, ThreadedCode};
use std::sync::Arc;

/// One bytecode instruction. `Lock`/`Unlock` correspond to the beginning
/// and end of a `synchronized` block (the paper's source transformation
/// replaces the block with explicit `scheduler.lock`/`unlock` calls —
/// here the compiler performs that rewriting).
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    Compute(DurExpr),
    Lock {
        sync_id: SyncId,
        param: MutexExpr,
    },
    /// Unlocks the monitor recorded when the matching `Lock` executed
    /// (the parameter expression may have been reassigned since; Java
    /// unlocks the object that was locked, not the expression re-read).
    Unlock {
        sync_id: SyncId,
    },
    Wait(MutexExpr),
    Notify {
        param: MutexExpr,
        all: bool,
    },
    Nested {
        service: ServiceId,
        dur: DurExpr,
    },
    Update {
        cell: CellId,
        delta: IntExpr,
    },
    UpdateIndexed {
        base: u32,
        len: u32,
        index_arg: usize,
        delta: IntExpr,
    },
    SetCell {
        cell: CellId,
        value: IntExpr,
    },
    Assign {
        local: LocalId,
        expr: MutexExpr,
    },
    LockInfo {
        sync_id: SyncId,
        param: MutexExpr,
    },
    IgnoreSync {
        sync_id: SyncId,
    },
    /// Jump to `target` if `cond` evaluates false.
    BranchIfFalse {
        cond: CondExpr,
        target: usize,
    },
    Jump(usize),
    /// Initialise loop counter `slot` with the trip count.
    LoopInit {
        slot: u16,
        count: CountExpr,
    },
    /// If the counter is zero jump to `exit`; otherwise decrement and
    /// fall through into the loop body.
    LoopTest {
        slot: u16,
        exit: usize,
    },
    Call {
        method: MethodIdx,
        args: Vec<ArgExpr>,
    },
    CallVirtual {
        site: CallSiteId,
        candidates: Vec<MethodIdx>,
        selector: IntExpr,
        args: Vec<ArgExpr>,
    },
    /// Return from the current frame. All monitors of the frame must have
    /// been released by preceding `Unlock`s (the compiler guarantees it).
    Ret,
}

/// A compiled method: flat code plus frame-shape metadata.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    pub name: String,
    pub arity: usize,
    pub n_locals: u32,
    pub n_loop_slots: u16,
    pub public: bool,
    pub code: Vec<Instr>,
}

/// A compiled object: all methods, ready for the interpreter. Wrapped in
/// `Arc` by callers so every replica shares one copy.
///
/// `methods[..].code` keeps the analysable `Instr` form (what
/// `dmt-analysis` and the reports walk); `flat` is the threaded-code
/// lowering the interpreter actually dispatches on.
#[derive(Clone, Debug)]
pub struct CompiledObject {
    pub name: String,
    pub methods: Vec<CompiledMethod>,
    pub n_cells: u32,
    pub n_fields: u32,
    /// Flat threaded-code stream (all methods concatenated, absolute
    /// pcs, operand side pools). See [`crate::threaded`].
    pub flat: ThreadedCode,
}

impl CompiledObject {
    pub fn method_by_name(&self, name: &str) -> Option<MethodIdx> {
        self.methods
            .iter()
            .position(|m| m.name == name)
            .map(|i| MethodIdx::new(i as u32))
    }

    /// Exclusive upper bound of the mutex ids named statically by the
    /// program (`Konst` operands and pool ranges). Dynamic operands
    /// (arguments, locals, fields) resolve to ids the caller supplies,
    /// so scenario builders must extend the bound with any mutex their
    /// client arguments carry. The engine places the dense `this`
    /// monitor at the combined bound, keeping the whole id space
    /// contiguous for the slot-table bookkeeping.
    pub fn mutex_bound(&self) -> u32 {
        fn expr_bound(e: &MutexExpr) -> u32 {
            match e {
                MutexExpr::Konst(m) => m.0 + 1,
                MutexExpr::Pool { base, len, .. } | MutexExpr::PoolByCell { base, len, .. } => {
                    base + len
                }
                _ => 0,
            }
        }
        let mut bound = 0;
        for m in &self.methods {
            for i in &m.code {
                let b = match i {
                    Instr::Lock { param, .. }
                    | Instr::Wait(param)
                    | Instr::Notify { param, .. }
                    | Instr::LockInfo { param, .. }
                    | Instr::Assign { expr: param, .. } => expr_bound(param),
                    _ => 0,
                };
                bound = bound.max(b);
            }
        }
        bound
    }
}

/// Compiles a validated [`ObjectImpl`] with superinstruction fusion on
/// (the default everywhere). Panics if validation fails — compiling an
/// invalid object is a harness bug, not a runtime condition.
pub fn compile(obj: &ObjectImpl) -> Arc<CompiledObject> {
    compile_opts(obj, true)
}

/// [`compile`] with the superinstruction fusion pass disabled. Used by
/// the fusion-equivalence differential tests, the interpreter golden
/// and the dispatch-style microbench.
pub fn compile_unfused(obj: &ObjectImpl) -> Arc<CompiledObject> {
    compile_opts(obj, false)
}

fn compile_opts(obj: &ObjectImpl, fuse: bool) -> Arc<CompiledObject> {
    let problems = obj.validate();
    assert!(
        problems.is_empty(),
        "cannot compile invalid object: {problems:?}"
    );
    let methods: Vec<CompiledMethod> = obj
        .methods
        .iter()
        .map(|m| {
            let mut ctx = Ctx::default();
            ctx.emit_block(&m.body);
            ctx.code.push(Instr::Ret);
            ctx.resolve();
            CompiledMethod {
                name: m.name.clone(),
                arity: m.arity,
                n_locals: m.n_locals,
                n_loop_slots: ctx.next_slot,
                public: m.public,
                code: ctx.code,
            }
        })
        .collect();
    let flat = threaded::lower(&methods, fuse);
    if cfg!(debug_assertions) {
        // Fusion must never move a scheduler-visible emission point.
        for (i, m) in methods.iter().enumerate() {
            let unfused = threaded::lower(&methods[i..=i], false);
            debug_assert_eq!(
                threaded::action_profile(&flat, i, m.code.len()),
                threaded::action_profile(&unfused, 0, m.code.len()),
                "fusion changed the emission profile of {}",
                m.name
            );
        }
    }
    Arc::new(CompiledObject {
        name: obj.name.clone(),
        methods,
        n_cells: obj.n_cells,
        n_fields: obj.n_fields,
        flat,
    })
}

/// Compilation context for one method. Jump targets are emitted as labels
/// and patched in a final pass.
#[derive(Default)]
struct Ctx {
    code: Vec<Instr>,
    /// Sync blocks currently open at the emission point (for `Return`).
    sync_stack: Vec<SyncId>,
    /// Labels: index → resolved pc.
    labels: Vec<usize>,
    next_slot: u16,
}

const UNRESOLVED: usize = usize::MAX;

impl Ctx {
    fn new_label(&mut self) -> usize {
        self.labels.push(UNRESOLVED);
        self.labels.len() - 1
    }

    fn place(&mut self, label: usize) {
        self.labels[label] = self.code.len();
    }

    fn emit_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.emit_stmt(s);
        }
    }

    fn emit_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Compute(d) => self.code.push(Instr::Compute(d.clone())),
            Stmt::Sync {
                sync_id,
                param,
                body,
            } => {
                self.code.push(Instr::Lock {
                    sync_id: *sync_id,
                    param: param.clone(),
                });
                self.sync_stack.push(*sync_id);
                self.emit_block(body);
                self.sync_stack.pop();
                self.code.push(Instr::Unlock { sync_id: *sync_id });
            }
            Stmt::Wait(p) => self.code.push(Instr::Wait(p.clone())),
            Stmt::Notify { param, all } => self.code.push(Instr::Notify {
                param: param.clone(),
                all: *all,
            }),
            Stmt::Nested { service, dur } => self.code.push(Instr::Nested {
                service: *service,
                dur: dur.clone(),
            }),
            Stmt::Update { cell, delta } => self.code.push(Instr::Update {
                cell: *cell,
                delta: delta.clone(),
            }),
            Stmt::UpdateIndexed {
                base,
                len,
                index_arg,
                delta,
            } => self.code.push(Instr::UpdateIndexed {
                base: *base,
                len: *len,
                index_arg: *index_arg,
                delta: delta.clone(),
            }),
            Stmt::SetCell { cell, value } => self.code.push(Instr::SetCell {
                cell: *cell,
                value: value.clone(),
            }),
            Stmt::Assign { local, expr } => self.code.push(Instr::Assign {
                local: *local,
                expr: expr.clone(),
            }),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let else_label = self.new_label();
                self.code.push(Instr::BranchIfFalse {
                    cond: cond.clone(),
                    target: else_label,
                });
                self.emit_block(then_branch);
                if else_branch.is_empty() {
                    self.place(else_label);
                } else {
                    let end_label = self.new_label();
                    self.code.push(Instr::Jump(end_label));
                    self.place(else_label);
                    self.emit_block(else_branch);
                    self.place(end_label);
                }
            }
            Stmt::For { count, body } => {
                let slot = self.next_slot;
                self.next_slot += 1;
                self.code.push(Instr::LoopInit {
                    slot,
                    count: count.clone(),
                });
                let test_label = self.new_label();
                let exit_label = self.new_label();
                self.place(test_label);
                self.code.push(Instr::LoopTest {
                    slot,
                    exit: exit_label,
                });
                self.emit_block(body);
                self.code.push(Instr::Jump(test_label));
                self.place(exit_label);
            }
            Stmt::While { cond, body } => {
                let test_label = self.new_label();
                let exit_label = self.new_label();
                self.place(test_label);
                self.code.push(Instr::BranchIfFalse {
                    cond: cond.clone(),
                    target: exit_label,
                });
                self.emit_block(body);
                self.code.push(Instr::Jump(test_label));
                self.place(exit_label);
            }
            Stmt::Call { method, args } => self.code.push(Instr::Call {
                method: *method,
                args: args.clone(),
            }),
            Stmt::VirtualCall {
                site,
                candidates,
                selector,
                args,
            } => self.code.push(Instr::CallVirtual {
                site: *site,
                candidates: candidates.clone(),
                selector: selector.clone(),
                args: args.clone(),
            }),
            Stmt::LockInfo { sync_id, param } => self.code.push(Instr::LockInfo {
                sync_id: *sync_id,
                param: param.clone(),
            }),
            Stmt::IgnoreSync { sync_id } => self.code.push(Instr::IgnoreSync { sync_id: *sync_id }),
            Stmt::Return => {
                // Unlock every enclosing synchronized block, innermost
                // first, then return — Java's implicit monitorexit cascade.
                for sid in self.sync_stack.iter().rev() {
                    self.code.push(Instr::Unlock { sync_id: *sid });
                }
                self.code.push(Instr::Ret);
            }
        }
    }

    /// Patches label references into absolute pcs.
    fn resolve(&mut self) {
        for instr in &mut self.code {
            match instr {
                Instr::BranchIfFalse { target, .. } | Instr::Jump(target) => {
                    let pc = self.labels[*target];
                    assert_ne!(pc, UNRESOLVED, "unplaced label");
                    *target = pc;
                }
                Instr::LoopTest { exit, .. } => {
                    let pc = self.labels[*exit];
                    assert_ne!(pc, UNRESOLVED, "unplaced label");
                    *exit = pc;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CondExpr, CountExpr, DurExpr, Method};

    fn obj_with(body: Vec<Stmt>) -> ObjectImpl {
        ObjectImpl {
            name: "T".into(),
            n_cells: 2,
            n_fields: 1,
            methods: vec![Method {
                name: "m".into(),
                arity: 2,
                n_locals: 1,
                public: true,
                is_final: true,
                body,
            }],
        }
    }

    #[test]
    fn sync_block_brackets_body() {
        let obj = obj_with(vec![Stmt::Sync {
            sync_id: SyncId::new(0),
            param: MutexExpr::This,
            body: vec![Stmt::Compute(DurExpr::millis(1))],
        }]);
        let c = compile(&obj);
        let code = &c.methods[0].code;
        assert!(matches!(code[0], Instr::Lock { .. }));
        assert!(matches!(code[1], Instr::Compute(_)));
        assert!(matches!(code[2], Instr::Unlock { .. }));
        assert!(matches!(code[3], Instr::Ret));
    }

    #[test]
    fn if_without_else_falls_through() {
        let obj = obj_with(vec![
            Stmt::If {
                cond: CondExpr::ArgFlag(0),
                then_branch: vec![Stmt::Compute(DurExpr::millis(1))],
                else_branch: vec![],
            },
            Stmt::Compute(DurExpr::millis(2)),
        ]);
        let c = compile(&obj);
        let code = &c.methods[0].code;
        // BranchIfFalse target must point at the trailing compute.
        match &code[0] {
            Instr::BranchIfFalse { target, .. } => assert_eq!(*target, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_else_emits_jump_over_else() {
        let obj = obj_with(vec![Stmt::If {
            cond: CondExpr::ArgFlag(0),
            then_branch: vec![Stmt::Compute(DurExpr::millis(1))],
            else_branch: vec![Stmt::Compute(DurExpr::millis(2))],
        }]);
        let c = compile(&obj);
        let code = &c.methods[0].code;
        // branch, then-compute, jump, else-compute, ret
        assert!(matches!(code[0], Instr::BranchIfFalse { target: 3, .. }));
        assert!(matches!(code[2], Instr::Jump(4)));
        assert!(matches!(code[4], Instr::Ret));
    }

    #[test]
    fn for_loop_allocates_slot_and_targets() {
        let obj = obj_with(vec![Stmt::For {
            count: CountExpr::Lit(3),
            body: vec![Stmt::Compute(DurExpr::millis(1))],
        }]);
        let c = compile(&obj);
        let m = &c.methods[0];
        assert_eq!(m.n_loop_slots, 1);
        // LoopInit, LoopTest(exit=4), Compute, Jump(1), Ret
        assert!(matches!(m.code[0], Instr::LoopInit { slot: 0, .. }));
        assert!(matches!(m.code[1], Instr::LoopTest { slot: 0, exit: 4 }));
        assert!(matches!(m.code[3], Instr::Jump(1)));
    }

    #[test]
    fn nested_loops_get_distinct_slots() {
        let inner = Stmt::For {
            count: CountExpr::Lit(2),
            body: vec![],
        };
        let obj = obj_with(vec![Stmt::For {
            count: CountExpr::Lit(3),
            body: vec![inner],
        }]);
        let c = compile(&obj);
        let slots: Vec<u16> = c.methods[0]
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::LoopInit { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(slots, vec![0, 1]);
        assert_eq!(c.methods[0].n_loop_slots, 2);
    }

    #[test]
    fn return_inside_sync_unlocks_all() {
        let obj = obj_with(vec![Stmt::Sync {
            sync_id: SyncId::new(0),
            param: MutexExpr::This,
            body: vec![Stmt::Sync {
                sync_id: SyncId::new(1),
                param: MutexExpr::Arg(0),
                body: vec![Stmt::Return],
            }],
        }]);
        let c = compile(&obj);
        let code = &c.methods[0].code;
        // Lock s0, Lock s1, Unlock s1, Unlock s0, Ret, (dead: Unlock s1, Unlock s0, Ret)
        assert!(matches!(
            code[0],
            Instr::Lock {
                sync_id: SyncId(0),
                ..
            }
        ));
        assert!(matches!(
            code[1],
            Instr::Lock {
                sync_id: SyncId(1),
                ..
            }
        ));
        assert!(matches!(code[2], Instr::Unlock { sync_id: SyncId(1) }));
        assert!(matches!(code[3], Instr::Unlock { sync_id: SyncId(0) }));
        assert!(matches!(code[4], Instr::Ret));
    }

    #[test]
    fn while_loop_shape() {
        let obj = obj_with(vec![Stmt::While {
            cond: CondExpr::CellLt(CellId::new(0), 5),
            body: vec![Stmt::Wait(MutexExpr::This)],
        }]);
        let c = compile(&obj);
        let code = &c.methods[0].code;
        assert!(matches!(code[0], Instr::BranchIfFalse { target: 3, .. }));
        assert!(matches!(code[1], Instr::Wait(_)));
        assert!(matches!(code[2], Instr::Jump(0)));
        assert!(matches!(code[3], Instr::Ret));
    }

    #[test]
    #[should_panic(expected = "cannot compile invalid object")]
    fn compiling_invalid_object_panics() {
        let obj = obj_with(vec![Stmt::Update {
            cell: CellId::new(99),
            delta: IntExpr::Lit(1),
        }]);
        compile(&obj);
    }

    #[test]
    fn method_lookup() {
        let c = compile(&obj_with(vec![]));
        assert_eq!(c.method_by_name("m"), Some(MethodIdx::new(0)));
        assert_eq!(c.method_by_name("nope"), None);
    }
}
