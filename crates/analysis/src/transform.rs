//! The code-injection pass (paper §4.1–§4.2, Figure 4).
//!
//! Produces a rewritten object in which every method additionally tells
//! the scheduler's bookkeeping module how its lock future unfolds:
//!
//! * **entry announcements** — `lockInfo(syncid, mutex)` at method start
//!   for every block whose parameter is known at entry (`this`,
//!   constants, method parameters, argument-indexed pools);
//! * **post-assignment announcements** — for a block synchronising on a
//!   local variable that is assigned exactly once at the top level, the
//!   `lockInfo` goes right after that assignment ("right after the last
//!   assignment", §4.2); any other assignment pattern is treated as
//!   spontaneous (conservative, always sound: the lock itself then
//!   doubles as the announcement);
//! * **branch ignores** — entering one arm of an `if` emits
//!   `ignore(syncid)` for every block reachable only in the other arm
//!   (Figure 4);
//! * **post-loop ignores** — after a loop containing blocks, `ignore`
//!   retires their (repeatable) entries: "the mutex must be respected as
//!   long as the loop has not been finished" (§4.4);
//! * **return ignores** — an early return emits `ignore` for every block
//!   in the method's scope that is not currently held (Java's implicit
//!   monitor release handles the held ones);
//! * **post-virtual-call ignores** — after a dispatch site, the blocks of
//!   *all* candidates are retired; the chosen candidate resolved its own
//!   entries internally, the others were bypassed (§4.4 repository
//!   relaxation).
//!
//! Blocks reachable through *multiply-invoked* methods are never ignored
//! (and are marked repeatable in the lock table): their entries must stay
//! pinned because a later call may lock them again — the sound, if
//! pessimistic, reading of §4.4.

use crate::callgraph::CallGraph;
use crate::lockparam::{classify, ParamClass};
use dmt_lang::ast::{Method, MutexExpr, ObjectImpl, Stmt};
use dmt_lang::ids::LocalId;
use dmt_lang::{MethodIdx, SyncId};
use std::collections::{BTreeSet, HashMap};

/// Rewrites `obj` with bookkeeping announcements. Syncids are preserved.
pub fn transform(obj: &ObjectImpl) -> ObjectImpl {
    let graph = CallGraph::build(obj);
    let scopes = IgnoreScopes::build(obj, &graph);
    let methods = (0..obj.methods.len())
        .map(|i| transform_method(obj, &graph, &scopes, MethodIdx::new(i as u32)))
        .collect();
    ObjectImpl {
        name: obj.name.clone(),
        methods,
        n_cells: obj.n_cells,
        n_fields: obj.n_fields,
    }
}

/// Per-method "ignore scope": the syncids a path through the method is
/// responsible for resolving — its own blocks plus those of singly-called
/// callees, transitively. Multiply-called callees are excluded (their
/// entries stay pinned).
struct IgnoreScopes {
    per_method: Vec<BTreeSet<SyncId>>,
}

impl IgnoreScopes {
    fn build(obj: &ObjectImpl, graph: &CallGraph) -> Self {
        let n = obj.methods.len();
        let mut per_method = vec![BTreeSet::new(); n];
        // Iterate to a fixpoint; the graph is acyclic for analysable
        // methods and small in practice.
        for _ in 0..n + 1 {
            for mi in 0..n {
                let mut set: BTreeSet<SyncId> = own_syncs(&obj.methods[mi].body);
                for &callee in graph.callees(MethodIdx::new(mi as u32)) {
                    if !graph.multi_called(callee) && !graph.reaches_recursion(callee) {
                        set.extend(per_method[callee.index()].iter().copied());
                    }
                }
                per_method[mi] = set;
            }
        }
        IgnoreScopes { per_method }
    }

    fn of(&self, m: MethodIdx) -> &BTreeSet<SyncId> {
        &self.per_method[m.index()]
    }
}

fn own_syncs(stmts: &[Stmt]) -> BTreeSet<SyncId> {
    let mut out = BTreeSet::new();
    visit_own(stmts, &mut |sid, _| {
        out.insert(sid);
    });
    out
}

/// Visits the method's own sync blocks (not through calls).
fn visit_own(stmts: &[Stmt], f: &mut impl FnMut(SyncId, &MutexExpr)) {
    for s in stmts {
        match s {
            Stmt::Sync {
                sync_id,
                param,
                body,
            } => {
                f(*sync_id, param);
                visit_own(body, f);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_own(then_branch, f);
                visit_own(else_branch, f);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => visit_own(body, f),
            _ => {}
        }
    }
}

/// Syncids a block can resolve: own blocks plus scopes of singly-called
/// callees invoked within it.
fn block_scope(stmts: &[Stmt], graph: &CallGraph, scopes: &IgnoreScopes) -> BTreeSet<SyncId> {
    let mut out = BTreeSet::new();
    for s in stmts {
        match s {
            Stmt::Sync { sync_id, body, .. } => {
                out.insert(*sync_id);
                out.extend(block_scope(body, graph, scopes));
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                out.extend(block_scope(then_branch, graph, scopes));
                out.extend(block_scope(else_branch, graph, scopes));
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => {
                out.extend(block_scope(body, graph, scopes));
            }
            Stmt::Call { method, .. }
                if !graph.multi_called(*method) && !graph.reaches_recursion(*method) =>
            {
                out.extend(scopes.of(*method).iter().copied());
            }
            Stmt::VirtualCall { candidates, .. } => {
                for &c in candidates {
                    if !graph.multi_called(c) && !graph.reaches_recursion(c) {
                        out.extend(scopes.of(c).iter().copied());
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn transform_method(
    obj: &ObjectImpl,
    graph: &CallGraph,
    scopes: &IgnoreScopes,
    mi: MethodIdx,
) -> Method {
    let m = obj.method(mi);
    // Locals assigned exactly once at the top level of the body, with the
    // statement index of that assignment.
    let mut assign_counts: HashMap<LocalId, usize> = HashMap::new();
    count_assigns(&m.body, &mut assign_counts);
    let top_level_single_assign: HashMap<LocalId, usize> = m
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Stmt::Assign { local, .. } if assign_counts.get(local) == Some(&1) => Some((*local, i)),
            _ => None,
        })
        .collect();

    // Syncs announceable at entry / after a qualifying assignment.
    let mut entry_infos: Vec<(SyncId, MutexExpr)> = Vec::new();
    let mut after_assign: HashMap<usize, Vec<(SyncId, MutexExpr)>> = HashMap::new();
    visit_own(&m.body, &mut |sid, param| match classify(param) {
        ParamClass::AtEntry => entry_infos.push((sid, param.clone())),
        ParamClass::AfterAssign => {
            if let MutexExpr::Local(l) = param {
                if let Some(&idx) = top_level_single_assign.get(l) {
                    after_assign
                        .entry(idx)
                        .or_default()
                        .push((sid, param.clone()));
                }
                // Otherwise: conservative — treated as spontaneous.
            }
        }
        ParamClass::Spontaneous => {}
    });
    entry_infos.sort_by_key(|&(sid, _)| sid);

    // A method that can run more than once per request (multiple call
    // sites, or called from a loop) must not retire entries at all: a
    // branch "bypassed" in this activation may be taken in the next one.
    // Its whole body is treated like a loop body.
    let reexecutable = graph.multi_called(mi);
    let ctx = Ctx {
        graph,
        scopes,
        method_scope: scopes.of(mi).clone(),
        reexecutable,
    };
    let mut body = Vec::with_capacity(m.body.len() + entry_infos.len());
    for (sid, param) in entry_infos {
        body.push(Stmt::LockInfo {
            sync_id: sid,
            param,
        });
    }
    rewrite_block(
        &m.body,
        &ctx,
        &after_assign,
        &mut Vec::new(),
        Pos {
            top_level: true,
            in_loop: reexecutable,
        },
        &mut body,
    );

    Method {
        name: m.name.clone(),
        arity: m.arity,
        n_locals: m.n_locals,
        public: m.public,
        is_final: m.is_final,
        body,
    }
}

fn count_assigns(stmts: &[Stmt], out: &mut HashMap<LocalId, usize>) {
    for s in stmts {
        match s {
            Stmt::Assign { local, .. } => *out.entry(*local).or_insert(0) += 1,
            Stmt::Sync { body, .. } | Stmt::For { body, .. } | Stmt::While { body, .. } => {
                count_assigns(body, out)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                count_assigns(then_branch, out);
                count_assigns(else_branch, out);
            }
            _ => {}
        }
    }
}

struct Ctx<'a> {
    graph: &'a CallGraph,
    scopes: &'a IgnoreScopes,
    /// Syncids this method's paths are responsible for resolving.
    method_scope: BTreeSet<SyncId>,
    /// Method may run repeatedly within one request: no ignores at all.
    reexecutable: bool,
}

/// Rewrite position: `top_level` enables the post-assignment lockInfo
/// placement (computed over top-level indices only); `in_loop` suppresses
/// branch and post-loop ignores — a later iteration may re-enter the
/// "bypassed" block, so retiring its entry inside a loop is unsound (the
/// outermost loop's own post-loop ignore retires everything instead).
#[derive(Clone, Copy)]
struct Pos {
    top_level: bool,
    in_loop: bool,
}

/// Rewrites one block. `held` tracks enclosing sync blocks (excluded from
/// return-ignores).
fn rewrite_block(
    stmts: &[Stmt],
    ctx: &Ctx<'_>,
    after_assign: &HashMap<usize, Vec<(SyncId, MutexExpr)>>,
    held: &mut Vec<SyncId>,
    pos: Pos,
    out: &mut Vec<Stmt>,
) {
    for (i, s) in stmts.iter().enumerate() {
        match s {
            Stmt::Sync {
                sync_id,
                param,
                body,
            } => {
                let mut new_body = Vec::with_capacity(body.len());
                held.push(*sync_id);
                rewrite_block(
                    body,
                    ctx,
                    after_assign,
                    held,
                    Pos {
                        top_level: false,
                        ..pos
                    },
                    &mut new_body,
                );
                held.pop();
                out.push(Stmt::Sync {
                    sync_id: *sync_id,
                    param: param.clone(),
                    body: new_body,
                });
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let inner_pos = Pos {
                    top_level: false,
                    ..pos
                };
                let mut new_then = Vec::new();
                let mut new_else = Vec::new();
                if !pos.in_loop {
                    let then_scope = block_scope(then_branch, ctx.graph, ctx.scopes);
                    let else_scope = block_scope(else_branch, ctx.graph, ctx.scopes);
                    for &sid in else_scope.difference(&then_scope) {
                        new_then.push(Stmt::IgnoreSync { sync_id: sid });
                    }
                    for &sid in then_scope.difference(&else_scope) {
                        new_else.push(Stmt::IgnoreSync { sync_id: sid });
                    }
                }
                rewrite_block(
                    then_branch,
                    ctx,
                    after_assign,
                    held,
                    inner_pos,
                    &mut new_then,
                );
                rewrite_block(
                    else_branch,
                    ctx,
                    after_assign,
                    held,
                    inner_pos,
                    &mut new_else,
                );
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_branch: new_then,
                    else_branch: new_else,
                });
            }
            Stmt::For { count, body } => {
                let inner = block_scope(body, ctx.graph, ctx.scopes);
                let mut new_body = Vec::new();
                rewrite_block(
                    body,
                    ctx,
                    after_assign,
                    held,
                    Pos {
                        top_level: false,
                        in_loop: true,
                    },
                    &mut new_body,
                );
                out.push(Stmt::For {
                    count: count.clone(),
                    body: new_body,
                });
                if !pos.in_loop {
                    for &sid in &inner {
                        out.push(Stmt::IgnoreSync { sync_id: sid });
                    }
                }
            }
            Stmt::While { cond, body } => {
                let inner = block_scope(body, ctx.graph, ctx.scopes);
                let mut new_body = Vec::new();
                rewrite_block(
                    body,
                    ctx,
                    after_assign,
                    held,
                    Pos {
                        top_level: false,
                        in_loop: true,
                    },
                    &mut new_body,
                );
                out.push(Stmt::While {
                    cond: cond.clone(),
                    body: new_body,
                });
                if !pos.in_loop {
                    for &sid in &inner {
                        out.push(Stmt::IgnoreSync { sync_id: sid });
                    }
                }
            }
            Stmt::Return => {
                // Retire everything in scope that is not currently held —
                // unless this method can run again within the request.
                if !ctx.reexecutable {
                    for &sid in &ctx.method_scope {
                        if !held.contains(&sid) {
                            out.push(Stmt::IgnoreSync { sync_id: sid });
                        }
                    }
                }
                out.push(Stmt::Return);
            }
            Stmt::VirtualCall {
                site,
                candidates,
                selector,
                args,
            } => {
                out.push(Stmt::VirtualCall {
                    site: *site,
                    candidates: candidates.clone(),
                    selector: selector.clone(),
                    args: args.clone(),
                });
                // A site inside a loop makes its candidates multi-called,
                // so `retired` is empty there by construction; checking
                // `pos.in_loop` as well keeps the invariant explicit.
                if !pos.in_loop {
                    let mut retired = BTreeSet::new();
                    for &c in candidates {
                        if !ctx.graph.multi_called(c) && !ctx.graph.reaches_recursion(c) {
                            retired.extend(ctx.scopes.of(c).iter().copied());
                        }
                    }
                    for sid in retired {
                        out.push(Stmt::IgnoreSync { sync_id: sid });
                    }
                }
            }
            Stmt::Assign { local, expr } => {
                out.push(Stmt::Assign {
                    local: *local,
                    expr: expr.clone(),
                });
                if pos.top_level {
                    if let Some(infos) = after_assign.get(&i) {
                        for (sid, param) in infos {
                            out.push(Stmt::LockInfo {
                                sync_id: *sid,
                                param: param.clone(),
                            });
                        }
                    }
                }
            }
            other => out.push(other.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::ast::{ArgExpr, CondExpr, CountExpr, DurExpr};
    use dmt_lang::ObjectBuilder;

    fn find_stmts<'a>(body: &'a [Stmt], pred: &impl Fn(&Stmt) -> bool, out: &mut Vec<&'a Stmt>) {
        for s in body {
            if pred(s) {
                out.push(s);
            }
            match s {
                Stmt::Sync { body, .. } | Stmt::For { body, .. } | Stmt::While { body, .. } => {
                    find_stmts(body, pred, out)
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    find_stmts(then_branch, pred, out);
                    find_stmts(else_branch, pred, out);
                }
                _ => {}
            }
        }
    }

    fn all_matching(obj: &ObjectImpl, name: &str, pred: impl Fn(&Stmt) -> bool) -> usize {
        let mi = obj.method_by_name(name).unwrap();
        let mut out = Vec::new();
        find_stmts(&obj.method(mi).body, &pred, &mut out);
        out.len()
    }

    /// The Figure 4 example: two branches, arg param vs. field param.
    fn figure4() -> ObjectImpl {
        let mut ob = ObjectBuilder::new("Fig4");
        let myo = ob.field();
        let mut m = ob.method("foo", 1);
        m.if_else(
            CondExpr::ParamEqField(0, myo),
            |b| {
                b.sync(MutexExpr::Arg(0), |_| {});
            },
            |b| {
                b.sync(MutexExpr::Field(myo), |_| {});
            },
        );
        m.done();
        ob.build()
    }

    #[test]
    fn figure4_transformation() {
        let t = transform(&figure4());
        let mi = t.method_by_name("foo").unwrap();
        let body = &t.method(mi).body;
        // lockInfo for the arg-param block (syncid 0) at method entry.
        assert_eq!(
            body[0],
            Stmt::LockInfo {
                sync_id: SyncId::new(0),
                param: MutexExpr::Arg(0)
            }
        );
        // Branches ignore each other's blocks.
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &body[1]
        else {
            panic!("expected if")
        };
        assert_eq!(
            then_branch[0],
            Stmt::IgnoreSync {
                sync_id: SyncId::new(1)
            }
        );
        assert_eq!(
            else_branch[0],
            Stmt::IgnoreSync {
                sync_id: SyncId::new(0)
            }
        );
        // The spontaneous field param got no lockInfo anywhere.
        let infos = all_matching(
            &t,
            "foo",
            |s| matches!(s, Stmt::LockInfo { sync_id, .. } if *sync_id == SyncId::new(1)),
        );
        assert_eq!(infos, 0);
    }

    #[test]
    fn syncids_are_preserved() {
        let obj = figure4();
        let t = transform(&obj);
        assert_eq!(obj.all_sync_ids(), t.all_sync_ids());
        assert!(
            t.validate().is_empty(),
            "transformed object must stay valid"
        );
    }

    #[test]
    fn loops_get_post_loop_ignores() {
        let mut ob = ObjectBuilder::new("O");
        let mut m = ob.method("m", 1);
        m.for_loop(CountExpr::Lit(3), |b| {
            b.sync(MutexExpr::Arg(0), |_| {});
        });
        m.done();
        let t = transform(&ob.build());
        let body = &t.method(MethodIdx::new(0)).body;
        // entry lockInfo, loop, post-loop ignore.
        assert!(matches!(body[0], Stmt::LockInfo { .. }));
        assert!(matches!(body[1], Stmt::For { .. }));
        assert_eq!(
            body[2],
            Stmt::IgnoreSync {
                sync_id: SyncId::new(0)
            }
        );
    }

    #[test]
    fn returns_retire_unexecuted_blocks_but_not_held_ones() {
        let mut ob = ObjectBuilder::new("O");
        let mut m = ob.method("m", 2);
        m.sync(MutexExpr::Arg(0), |b| {
            b.if_then(CondExpr::ArgFlag(1), |b| {
                b.ret();
            });
        });
        m.sync(MutexExpr::This, |_| {});
        m.done();
        let t = transform(&ob.build());
        let mut rets = Vec::new();
        find_stmts(
            &t.method(MethodIdx::new(0)).body,
            &|s| matches!(s, Stmt::Return),
            &mut rets,
        );
        assert_eq!(rets.len(), 1);
        // The ignore for the *second* block (syncid 1) must precede the
        // return; the held first block (syncid 0) must not be ignored.
        let mut ignores = Vec::new();
        find_stmts(
            &t.method(MethodIdx::new(0)).body,
            &|s| matches!(s, Stmt::IgnoreSync { .. }),
            &mut ignores,
        );
        assert!(ignores.contains(&&Stmt::IgnoreSync {
            sync_id: SyncId::new(1)
        }));
        assert!(!ignores.contains(&&Stmt::IgnoreSync {
            sync_id: SyncId::new(0)
        }));
    }

    #[test]
    fn local_param_announced_after_single_assignment() {
        let mut ob = ObjectBuilder::new("O");
        let mut m = ob.method("m", 1);
        let l = m.local();
        m.compute(DurExpr::millis(1));
        m.assign(l, MutexExpr::Arg(0));
        m.sync(MutexExpr::Local(l), |_| {});
        m.done();
        let t = transform(&ob.build());
        let body = &t.method(MethodIdx::new(0)).body;
        // compute, assign, lockInfo, sync
        assert!(matches!(body[0], Stmt::Compute(_)));
        assert!(matches!(body[1], Stmt::Assign { .. }));
        assert_eq!(
            body[2],
            Stmt::LockInfo {
                sync_id: SyncId::new(0),
                param: MutexExpr::Local(LocalId::new(0))
            }
        );
    }

    #[test]
    fn reassigned_local_is_treated_spontaneously() {
        let mut ob = ObjectBuilder::new("O");
        let mut m = ob.method("m", 1);
        let l = m.local();
        m.assign(l, MutexExpr::Arg(0));
        m.assign(l, MutexExpr::This);
        m.sync(MutexExpr::Local(l), |_| {});
        m.done();
        let t = transform(&ob.build());
        assert_eq!(
            all_matching(&t, "m", |s| matches!(s, Stmt::LockInfo { .. })),
            0
        );
    }

    #[test]
    fn virtual_call_retires_all_candidates() {
        let mut ob = ObjectBuilder::new("O");
        let mut a = ob.method("a", 0).private().non_final();
        a.sync(MutexExpr::This, |_| {});
        let a_idx = a.done();
        let mut b = ob.method("b", 0).private().non_final();
        b.sync(MutexExpr::This, |_| {});
        let b_idx = b.done();
        let mut m = ob.method("m", 1);
        m.virtual_call(vec![a_idx, b_idx], dmt_lang::ast::IntExpr::Arg(0), vec![]);
        m.done();
        let t = transform(&ob.build());
        let body = &t.method(t.method_by_name("m").unwrap()).body;
        assert!(matches!(body[0], Stmt::VirtualCall { .. }));
        assert_eq!(
            body[1],
            Stmt::IgnoreSync {
                sync_id: SyncId::new(0)
            }
        );
        assert_eq!(
            body[2],
            Stmt::IgnoreSync {
                sync_id: SyncId::new(1)
            }
        );
    }

    #[test]
    fn multi_called_callee_blocks_never_ignored() {
        let mut ob = ObjectBuilder::new("O");
        let mut h = ob.method("h", 0).private();
        h.sync(MutexExpr::This, |_| {});
        let h_idx = h.done();
        let mut m = ob.method("m", 1);
        m.if_else(
            CondExpr::ArgFlag(0),
            |b| {
                b.call(h_idx, vec![]);
            },
            |_| {},
        );
        m.call(h_idx, vec![]);
        m.done();
        let t = transform(&ob.build());
        // h is multi-called → its block must never appear in an ignore.
        assert_eq!(
            all_matching(&t, "m", |s| matches!(s, Stmt::IgnoreSync { .. })),
            0
        );
        let _ = ArgExpr::CallerArg(0);
    }
}
