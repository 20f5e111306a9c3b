//! Fluent construction of object implementations.
//!
//! Workloads, tests and examples build dozens of small programs; doing
//! that with raw AST literals is noisy and it is easy to hand out
//! colliding syncids. The builder assigns syncids automatically in source
//! order (matching the deterministic numbering the analysis expects) and
//! checks structural validity on `build()`.

use crate::ast::{
    ArgExpr, CondExpr, CountExpr, DurExpr, IntExpr, Method, MutexExpr, ObjectImpl, Stmt,
};
use crate::ids::{CallSiteId, CellId, LocalId, MethodIdx, ServiceId, SyncId};

/// Builds an [`ObjectImpl`].
pub struct ObjectBuilder {
    name: String,
    methods: Vec<Method>,
    n_cells: u32,
    n_fields: u32,
    next_sync: u32,
    next_call_site: u32,
}

impl ObjectBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        ObjectBuilder {
            name: name.into(),
            methods: Vec::new(),
            n_cells: 0,
            n_fields: 0,
            next_sync: 0,
            next_call_site: 0,
        }
    }

    /// Declares `n` replicated state cells; returns their ids.
    pub fn cells(&mut self, n: u32) -> Vec<CellId> {
        let start = self.n_cells;
        self.n_cells += n;
        (start..self.n_cells).map(CellId::new).collect()
    }

    pub fn cell(&mut self) -> CellId {
        self.cells(1)[0]
    }

    /// Declares `n` monitor-reference instance fields; returns their ids.
    pub fn fields(&mut self, n: u32) -> Vec<crate::ids::FieldId> {
        let start = self.n_fields;
        self.n_fields += n;
        (start..self.n_fields)
            .map(crate::ids::FieldId::new)
            .collect()
    }

    pub fn field(&mut self) -> crate::ids::FieldId {
        self.fields(1)[0]
    }

    /// Starts a method. Finish it with [`MethodBuilder::done`].
    pub fn method(&mut self, name: impl Into<String>, arity: usize) -> MethodBuilder<'_> {
        MethodBuilder {
            obj: self,
            name: name.into(),
            arity,
            n_locals: 0,
            public: true,
            is_final: true,
            stack: vec![Vec::new()],
        }
    }

    /// The index the *next* completed method will get — usable for
    /// (mutually) recursive call targets.
    pub fn next_method_idx(&self) -> MethodIdx {
        MethodIdx::new(self.methods.len() as u32)
    }

    /// Finalises the object, panicking on structural problems.
    pub fn build(self) -> ObjectImpl {
        let obj = ObjectImpl {
            name: self.name,
            methods: self.methods,
            n_cells: self.n_cells,
            n_fields: self.n_fields,
        };
        let problems = obj.validate();
        assert!(problems.is_empty(), "invalid object: {problems:?}");
        obj
    }

    fn fresh_sync(&mut self) -> SyncId {
        let id = SyncId::new(self.next_sync);
        self.next_sync += 1;
        id
    }

    fn fresh_call_site(&mut self) -> CallSiteId {
        let id = CallSiteId::new(self.next_call_site);
        self.next_call_site += 1;
        id
    }
}

/// Builds one method body. Block-structured statements open with
/// `sync_enter` / `if_enter` / `for_enter` / `while_enter` and close with
/// the matching `*_exit`; the builder keeps the block stack.
pub struct MethodBuilder<'a> {
    obj: &'a mut ObjectBuilder,
    name: String,
    arity: usize,
    n_locals: u32,
    public: bool,
    is_final: bool,
    /// Stack of open blocks; the innermost is last. Each entry under an
    /// open structured statement is paired with a closer tag.
    stack: Vec<Vec<Stmt>>,
}

impl<'a> MethodBuilder<'a> {
    pub fn private(mut self) -> Self {
        self.public = false;
        self
    }

    pub fn non_final(mut self) -> Self {
        self.is_final = false;
        self
    }

    /// Declares a method-local mutex variable.
    pub fn local(&mut self) -> LocalId {
        let id = LocalId::new(self.n_locals);
        self.n_locals += 1;
        id
    }

    fn push(&mut self, s: Stmt) -> &mut Self {
        self.stack.last_mut().expect("no open block").push(s);
        self
    }

    pub fn compute(&mut self, d: DurExpr) -> &mut Self {
        self.push(Stmt::Compute(d))
    }

    pub fn compute_ms(&mut self, ms: u64) -> &mut Self {
        self.push(Stmt::Compute(DurExpr::millis(ms)))
    }

    pub fn nested(&mut self, service: ServiceId, dur: DurExpr) -> &mut Self {
        self.push(Stmt::Nested { service, dur })
    }

    pub fn update(&mut self, cell: CellId, delta: IntExpr) -> &mut Self {
        self.push(Stmt::Update { cell, delta })
    }

    pub fn add(&mut self, cell: CellId, delta: i64) -> &mut Self {
        self.push(Stmt::Update {
            cell,
            delta: IntExpr::Lit(delta),
        })
    }

    pub fn set_cell(&mut self, cell: CellId, value: IntExpr) -> &mut Self {
        self.push(Stmt::SetCell { cell, value })
    }

    /// `state[base + args[index_arg] % len] += delta`.
    pub fn update_indexed(
        &mut self,
        base: u32,
        len: u32,
        index_arg: usize,
        delta: IntExpr,
    ) -> &mut Self {
        self.push(Stmt::UpdateIndexed {
            base,
            len,
            index_arg,
            delta,
        })
    }

    pub fn assign(&mut self, local: LocalId, expr: MutexExpr) -> &mut Self {
        self.push(Stmt::Assign { local, expr })
    }

    pub fn wait(&mut self, param: MutexExpr) -> &mut Self {
        self.push(Stmt::Wait(param))
    }

    pub fn notify(&mut self, param: MutexExpr) -> &mut Self {
        self.push(Stmt::Notify { param, all: false })
    }

    pub fn notify_all(&mut self, param: MutexExpr) -> &mut Self {
        self.push(Stmt::Notify { param, all: true })
    }

    pub fn call(&mut self, method: MethodIdx, args: Vec<ArgExpr>) -> &mut Self {
        self.push(Stmt::Call { method, args })
    }

    pub fn virtual_call(
        &mut self,
        candidates: Vec<MethodIdx>,
        selector: IntExpr,
        args: Vec<ArgExpr>,
    ) -> &mut Self {
        let site = self.obj.fresh_call_site();
        self.push(Stmt::VirtualCall {
            site,
            candidates,
            selector,
            args,
        })
    }

    pub fn ret(&mut self) -> &mut Self {
        self.push(Stmt::Return)
    }

    /// Adds a whole `synchronized` block whose body is built by `f`.
    pub fn sync(&mut self, param: MutexExpr, f: impl FnOnce(&mut Self)) -> &mut Self {
        let sync_id = self.obj.fresh_sync();
        self.stack.push(Vec::new());
        f(self);
        let body = self.stack.pop().expect("sync block not open");
        self.push(Stmt::Sync {
            sync_id,
            param,
            body,
        })
    }

    /// Adds an `if` with both branches built by closures.
    pub fn if_else(
        &mut self,
        cond: CondExpr,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.stack.push(Vec::new());
        then_f(self);
        let then_branch = self.stack.pop().unwrap();
        self.stack.push(Vec::new());
        else_f(self);
        let else_branch = self.stack.pop().unwrap();
        self.push(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    pub fn if_then(&mut self, cond: CondExpr, then_f: impl FnOnce(&mut Self)) -> &mut Self {
        self.if_else(cond, then_f, |_| {})
    }

    pub fn for_loop(&mut self, count: CountExpr, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.stack.push(Vec::new());
        f(self);
        let body = self.stack.pop().unwrap();
        self.push(Stmt::For { count, body })
    }

    pub fn while_loop(&mut self, cond: CondExpr, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.stack.push(Vec::new());
        f(self);
        let body = self.stack.pop().unwrap();
        self.push(Stmt::While { cond, body })
    }

    /// The canonical CV wait loop: `sync(m) { while (!cond) wait(m); }`
    /// with an optional body after the loop, still inside the monitor.
    pub fn sync_wait_until(
        &mut self,
        param: MutexExpr,
        cond: CondExpr,
        f: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let p2 = param.clone();
        self.sync(param, move |b| {
            b.while_loop(cond.negate(), |b| {
                b.wait(p2.clone());
            });
            f(b);
        })
    }

    /// Finishes the method, registering it with the object builder, and
    /// returns its index.
    pub fn done(mut self) -> MethodIdx {
        assert_eq!(
            self.stack.len(),
            1,
            "unclosed block in method {}",
            self.name
        );
        let body = self.stack.pop().unwrap();
        let idx = MethodIdx::new(self.obj.methods.len() as u32);
        self.obj.methods.push(Method {
            name: self.name,
            arity: self.arity,
            n_locals: self.n_locals,
            public: self.public,
            is_final: self.is_final,
            body,
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::ids::{MethodIdx, MutexId};
    use crate::interp::{run_to_completion, Action, ObjectState, ThreadVm};
    use crate::value::{RequestArgs, Value};

    #[test]
    fn builds_counter_object() {
        let mut ob = ObjectBuilder::new("Counter");
        let c = ob.cell();
        let mut m = ob.method("inc", 0);
        m.sync(MutexExpr::This, |b| {
            b.add(c, 1);
        });
        m.done();
        let obj = ob.build();
        assert_eq!(obj.methods.len(), 1);
        assert_eq!(obj.all_sync_ids().len(), 1);
    }

    #[test]
    fn syncids_are_sequential_across_methods() {
        let mut ob = ObjectBuilder::new("O");
        let mut m1 = ob.method("a", 0);
        m1.sync(MutexExpr::This, |_| {});
        m1.sync(MutexExpr::This, |_| {});
        m1.done();
        let mut m2 = ob.method("b", 0);
        m2.sync(MutexExpr::This, |_| {});
        m2.done();
        let obj = ob.build();
        let ids: Vec<u32> = obj.all_sync_ids().iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn wait_until_expands_to_wait_loop() {
        let mut ob = ObjectBuilder::new("Buf");
        let count = ob.cell();
        let mut m = ob.method("take", 0);
        m.sync_wait_until(MutexExpr::This, CondExpr::CellGe(count, 1), |b| {
            b.add(count, -1);
            b.notify_all(MutexExpr::This);
        });
        m.done();
        let obj = ob.build();
        let compiled = compile(&obj);
        let mut state = ObjectState::for_object(&compiled, MutexId::new(5));
        state.set_cell(count, 2); // already satisfied: no wait
        let mut vm = ThreadVm::new(compiled, MethodIdx::new(0), RequestArgs::empty());
        let trace = run_to_completion(&mut vm, &mut state);
        assert_eq!(
            trace,
            vec![
                Action::Lock {
                    sync_id: SyncId::new(0),
                    mutex: MutexId::new(5)
                },
                Action::Notify {
                    mutex: MutexId::new(5),
                    all: true
                },
                Action::Unlock {
                    sync_id: SyncId::new(0),
                    mutex: MutexId::new(5)
                },
            ]
        );
        assert_eq!(state.cell(count), 1);
    }

    #[test]
    fn private_and_nonfinal_flags() {
        let mut ob = ObjectBuilder::new("O");
        let m = ob.method("helper", 0).private().non_final();
        m.done();
        let obj = ob.build();
        assert!(!obj.methods[0].public);
        assert!(!obj.methods[0].is_final);
        assert!(obj.start_methods().is_empty());
    }

    #[test]
    fn locals_are_counted() {
        let mut ob = ObjectBuilder::new("O");
        let mut m = ob.method("m", 1);
        let l0 = m.local();
        let l1 = m.local();
        m.assign(l0, MutexExpr::Arg(0));
        m.assign(l1, MutexExpr::This);
        m.done();
        let obj = ob.build();
        assert_eq!(obj.methods[0].n_locals, 2);
    }

    #[test]
    #[should_panic(expected = "invalid object")]
    fn build_panics_on_invalid() {
        let mut ob = ObjectBuilder::new("O");
        let mut m = ob.method("m", 0);
        // Arg(3) out of range for arity 0.
        m.sync(MutexExpr::Arg(3), |_| {});
        m.done();
        ob.build();
    }

    #[test]
    fn end_to_end_two_method_object() {
        let mut ob = ObjectBuilder::new("Pair");
        let c = ob.cell();
        let helper_idx = ob.next_method_idx();
        // helper must exist before the public caller references it; build
        // helper first.
        let mut h = ob.method("bump", 1).private();
        h.update(c, IntExpr::Arg(0));
        h.done();
        let mut m = ob.method("twice", 1);
        m.call(helper_idx, vec![ArgExpr::CallerArg(0)]);
        m.call(helper_idx, vec![ArgExpr::CallerArg(0)]);
        m.done();
        let compiled = compile(&ob.build());
        let mut state = ObjectState::for_object(&compiled, MutexId::new(1));
        let mi = compiled.method_by_name("twice").unwrap();
        let mut vm = ThreadVm::new(compiled, mi, RequestArgs::new(&[Value::Int(21)]));
        run_to_completion(&mut vm, &mut state);
        assert_eq!(state.cell(c), 42);
    }
}
