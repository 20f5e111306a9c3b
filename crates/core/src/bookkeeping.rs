//! The bookkeeping module of paper §4.3.
//!
//! The analysis produces a *static* lock table — for every start method,
//! the syncids its execution can pass, in deterministic order. At runtime
//! each thread gets a private copy; `lock`/`unlock`/`lockInfo`/`ignore`
//! events move its entries through a small state machine. Decision
//! modules that exploit prediction (MAT-LL, PMAT) query the aggregate
//! (`is_predicted`, `may_lock`, `no_more_locks`); pessimistic modules
//! simply never ask — exactly the two-module architecture the paper
//! envisages ("the decision module may use the bookkeeping module, but
//! does not have to").

use crate::ids::ThreadId;
use crate::slot::SlotMap;
use dmt_lang::{MethodIdx, MutexId, SyncId};
use std::sync::Arc;

/// Static description of one syncid reachable from a start method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticSyncEntry {
    pub sync_id: SyncId,
    /// True when the block sits in a loop or a multiply-invoked callee —
    /// the lock can be taken again after an unlock, so the entry only
    /// retires on an explicit `ignore` (paper §4.4 loop handling).
    pub repeatable: bool,
}

/// The static lock table: per start method, the syncid list (or `None`
/// when the method was not analysed — e.g. it recurses, §4.4).
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    per_method: Vec<Option<Vec<StaticSyncEntry>>>,
}

impl LockTable {
    /// A table that declares every method unanalysed. Pessimistic
    /// schedulers run with this.
    pub fn unanalyzed(n_methods: usize) -> Self {
        LockTable {
            per_method: vec![None; n_methods],
        }
    }

    pub fn new(per_method: Vec<Option<Vec<StaticSyncEntry>>>) -> Self {
        LockTable { per_method }
    }

    pub fn entries(&self, method: MethodIdx) -> Option<&[StaticSyncEntry]> {
        self.per_method
            .get(method.index())
            .and_then(|e| e.as_deref())
    }

    pub fn n_methods(&self) -> usize {
        self.per_method.len()
    }
}

/// Dynamic state of one syncid entry in a thread's table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryState {
    /// Nothing known yet — the future lock target is unknown.
    Pending,
    /// `lockInfo` announced the mutex this entry will lock.
    Announced(MutexId),
    /// The lock is currently held.
    Held(MutexId),
    /// Locked and released; no further acquisition possible.
    Done,
    /// The taken path bypasses this block (or a loop over it finished).
    Ignored,
}

impl EntryState {
    /// The mutex this entry pins for conflict purposes, if any.
    fn pinned_mutex(self) -> Option<MutexId> {
        match self {
            EntryState::Announced(m) | EntryState::Held(m) => Some(m),
            _ => None,
        }
    }

    /// True when no *future* acquisition can come from this entry and its
    /// target is known (i.e. it does not block prediction).
    fn resolved(self) -> bool {
        !matches!(self, EntryState::Pending)
    }
}

#[derive(Clone, Debug)]
struct ThreadBook {
    /// The thread's start method — its static entry list lives in the
    /// shared [`LockTable`]; `states` is parallel to it.
    method: MethodIdx,
    states: Vec<EntryState>,
    /// False when the start method was unanalysed or the thread performed
    /// a lock at a syncid outside its table (analysis was incomplete) —
    /// such a thread is never considered predicted.
    analyzed: bool,
}

/// Per-replica bookkeeping: static table + per-thread dynamic tables.
/// Thread tables sit in a dense slot map indexed by `ThreadId`; syncid
/// lookups are linear scans over the method's (short) static entry list,
/// which beats hashing at these sizes and allocates nothing.
#[derive(Clone, Debug)]
pub struct Bookkeeping {
    table: Arc<LockTable>,
    threads: SlotMap<ThreadBook>,
    /// Recycled `states` vectors: one thread is born per request, so the
    /// spare pool makes `on_request` allocation-free at steady state.
    spare: Vec<Vec<EntryState>>,
}

impl Bookkeeping {
    pub fn new(table: Arc<LockTable>) -> Self {
        Bookkeeping {
            threads: SlotMap::new(),
            table,
            spare: Vec::new(),
        }
    }

    /// Thread creation: make the thread's local copy of the static
    /// information (paper §4.1: "a local copy of the static information
    /// concerning the thread's start method is made").
    pub fn on_request(&mut self, tid: ThreadId, method: MethodIdx) {
        let mut states = self.spare.pop().unwrap_or_default();
        states.clear();
        let analyzed = match self.table.entries(method) {
            Some(entries) => {
                states.resize(entries.len(), EntryState::Pending);
                true
            }
            None => false,
        };
        let prev = self.threads.insert(
            tid.index(),
            ThreadBook {
                method,
                states,
                analyzed,
            },
        );
        debug_assert!(prev.is_none(), "thread {tid} registered twice");
    }

    pub fn on_lock_info(&mut self, tid: ThreadId, sync_id: SyncId, mutex: MutexId) {
        self.transition(tid, sync_id, |st| match st {
            EntryState::Pending | EntryState::Announced(_) => EntryState::Announced(mutex),
            // A repeatable block can be re-announced after an unlock.
            EntryState::Done | EntryState::Ignored => EntryState::Announced(mutex),
            held @ EntryState::Held(_) => held,
        });
    }

    pub fn on_lock(&mut self, tid: ThreadId, sync_id: SyncId, mutex: MutexId) {
        self.transition(tid, sync_id, |_| EntryState::Held(mutex));
    }

    pub fn on_unlock(&mut self, tid: ThreadId, sync_id: SyncId, mutex: MutexId) {
        let repeatable = self.is_repeatable(tid, sync_id);
        self.transition(tid, sync_id, |st| match st {
            EntryState::Held(m) => {
                debug_assert_eq!(m, mutex);
                if repeatable {
                    // May be locked again before the loop exits; the
                    // mutex stays pinned until the post-loop ignore.
                    EntryState::Announced(m)
                } else {
                    EntryState::Done
                }
            }
            other => other,
        });
    }

    pub fn on_ignore(&mut self, tid: ThreadId, sync_id: SyncId) {
        self.transition(tid, sync_id, |st| match st {
            EntryState::Held(m) => {
                // Ignoring a held entry is an instrumentation bug.
                panic!("ignore for held entry ({m})")
            }
            EntryState::Done => EntryState::Done,
            _ => EntryState::Ignored,
        });
    }

    pub fn on_finish(&mut self, tid: ThreadId) {
        if let Some(book) = self.threads.remove(tid.index()) {
            self.spare.push(book.states);
        }
    }

    fn is_repeatable(&self, tid: ThreadId, sync_id: SyncId) -> bool {
        // Syncids are globally unique (paper §4.1), so looking only in
        // the thread's own method row is exact: an unlock at a foreign
        // syncid never reaches the `Held` branch that consults this flag.
        let Some(book) = self.threads.get(tid.index()) else {
            return false;
        };
        self.table
            .entries(book.method)
            .and_then(|entries| entries.iter().find(|e| e.sync_id == sync_id))
            .map(|e| e.repeatable)
            .unwrap_or(false)
    }

    fn transition(
        &mut self,
        tid: ThreadId,
        sync_id: SyncId,
        f: impl FnOnce(EntryState) -> EntryState,
    ) {
        let Some(book) = self.threads.get_mut(tid.index()) else {
            return;
        };
        let entries = self.table.entries(book.method).unwrap_or(&[]);
        match entries.iter().position(|e| e.sync_id == sync_id) {
            Some(i) => {
                book.states[i] = f(book.states[i]);
            }
            None => {
                // The thread locked at a syncid its table does not list:
                // the static information was incomplete — degrade the
                // thread to unanalysed rather than predict wrongly.
                book.analyzed = false;
            }
        }
    }

    /// Paper §4.2: "a thread is predicted if all entries in the list are
    /// marked" — every entry's target is known (or retired) and the
    /// thread's method was analysed.
    pub fn is_predicted(&self, tid: ThreadId) -> bool {
        self.threads
            .get(tid.index())
            .is_some_and(|b| b.analyzed && b.states.iter().all(|s| s.resolved()))
    }

    /// Calls `f` with each mutex this thread has announced or holds — its
    /// possible future (or current) lock targets — once per entry, in
    /// table order. Allocation-free: PMAT's blocker index calls it on
    /// every bookkeeping event.
    pub fn for_each_pinned(&self, tid: ThreadId, f: impl FnMut(MutexId)) {
        if let Some(b) = self.threads.get(tid.index()) {
            b.states.iter().filter_map(|s| s.pinned_mutex()).for_each(f);
        }
    }

    /// The mutex `tid`'s entry at `sync_id` pins (announced or held), if
    /// any. Allocation-free: PMAT's blocker index reads it around every
    /// per-entry bookkeeping event.
    pub fn entry_pin(&self, tid: ThreadId, sync_id: SyncId) -> Option<MutexId> {
        let book = self.threads.get(tid.index())?;
        let entries = self.table.entries(book.method)?;
        let i = entries.iter().position(|e| e.sync_id == sync_id)?;
        book.states[i].pinned_mutex()
    }

    /// Could `tid` lock `mutex` now or in the future? Pessimistic: an
    /// unpredicted thread may lock anything.
    pub fn may_lock(&self, tid: ThreadId, mutex: MutexId) -> bool {
        match self.threads.get(tid.index()) {
            None => false, // finished / unknown thread locks nothing
            Some(b) => {
                if !b.analyzed {
                    return true;
                }
                b.states.iter().any(|s| match s {
                    EntryState::Pending => true, // unknown target: assume conflict
                    EntryState::Announced(m) | EntryState::Held(m) => *m == mutex,
                    EntryState::Done | EntryState::Ignored => false,
                })
            }
        }
    }

    /// Last-lock analysis predicate (paper §4.1): the thread has requested
    /// and released all of its locks and will never request one again.
    pub fn no_more_locks(&self, tid: ThreadId) -> bool {
        self.threads.get(tid.index()).is_some_and(|b| {
            b.analyzed
                && b.states
                    .iter()
                    .all(|s| matches!(s, EntryState::Done | EntryState::Ignored))
        })
    }

    pub fn is_tracked(&self, tid: ThreadId) -> bool {
        self.threads.contains(tid.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u32) -> ThreadId {
        ThreadId::new(v)
    }
    fn s(v: u32) -> SyncId {
        SyncId::new(v)
    }
    fn m(v: u32) -> MutexId {
        MutexId::new(v)
    }

    fn pinned(bk: &Bookkeeping, tid: ThreadId) -> Vec<MutexId> {
        let mut v = Vec::new();
        bk.for_each_pinned(tid, |m| v.push(m));
        v
    }

    fn table_one_method(entries: Vec<StaticSyncEntry>) -> Arc<LockTable> {
        Arc::new(LockTable::new(vec![Some(entries)]))
    }

    fn e(sid: u32) -> StaticSyncEntry {
        StaticSyncEntry {
            sync_id: s(sid),
            repeatable: false,
        }
    }

    #[test]
    fn fresh_thread_with_entries_is_unpredicted() {
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0), e(1)]));
        bk.on_request(t(0), MethodIdx::new(0));
        assert!(!bk.is_predicted(t(0)));
        assert!(bk.may_lock(t(0), m(5))); // pending entries: anything possible
        assert!(!bk.no_more_locks(t(0)));
    }

    #[test]
    fn lockfree_method_is_instantly_predicted() {
        let mut bk = Bookkeeping::new(table_one_method(vec![]));
        bk.on_request(t(0), MethodIdx::new(0));
        assert!(bk.is_predicted(t(0)));
        assert!(bk.no_more_locks(t(0)));
        assert!(!bk.may_lock(t(0), m(1)));
    }

    #[test]
    fn announce_then_predict() {
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0), e(1)]));
        bk.on_request(t(0), MethodIdx::new(0));
        bk.on_lock_info(t(0), s(0), m(10));
        assert!(!bk.is_predicted(t(0)));
        bk.on_lock_info(t(0), s(1), m(11));
        assert!(bk.is_predicted(t(0)));
        assert_eq!(pinned(&bk, t(0)), vec![m(10), m(11)]);
        assert!(bk.may_lock(t(0), m(10)));
        assert!(!bk.may_lock(t(0), m(12)));
    }

    #[test]
    fn ignore_resolves_bypassed_branch() {
        // Figure 4: two branches, one locks s0, the other s1; taking the
        // s0 branch ignores s1.
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0), e(1)]));
        bk.on_request(t(0), MethodIdx::new(0));
        bk.on_lock_info(t(0), s(0), m(1));
        bk.on_ignore(t(0), s(1));
        assert!(bk.is_predicted(t(0)));
        bk.on_lock(t(0), s(0), m(1));
        assert!(bk.may_lock(t(0), m(1)));
        bk.on_unlock(t(0), s(0), m(1));
        assert!(bk.no_more_locks(t(0)));
        assert!(!bk.may_lock(t(0), m(1)));
    }

    #[test]
    fn spontaneous_lock_counts_as_info_plus_lock() {
        // Paper §4.2: spontaneous parameters get no lockInfo; the lock
        // itself resolves the entry.
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0)]));
        bk.on_request(t(0), MethodIdx::new(0));
        assert!(!bk.is_predicted(t(0)));
        bk.on_lock(t(0), s(0), m(3));
        assert!(bk.is_predicted(t(0)));
        assert_eq!(pinned(&bk, t(0)), vec![m(3)]);
        bk.on_unlock(t(0), s(0), m(3));
        assert!(bk.no_more_locks(t(0)));
    }

    #[test]
    fn repeatable_entry_stays_pinned_until_ignore() {
        let table = table_one_method(vec![StaticSyncEntry {
            sync_id: s(0),
            repeatable: true,
        }]);
        let mut bk = Bookkeeping::new(table);
        bk.on_request(t(0), MethodIdx::new(0));
        bk.on_lock_info(t(0), s(0), m(4));
        bk.on_lock(t(0), s(0), m(4));
        bk.on_unlock(t(0), s(0), m(4));
        // Loop may iterate again: mutex stays pinned, no_more_locks false.
        assert!(bk.is_predicted(t(0)));
        assert!(bk.may_lock(t(0), m(4)));
        assert!(!bk.no_more_locks(t(0)));
        // Second iteration.
        bk.on_lock(t(0), s(0), m(4));
        bk.on_unlock(t(0), s(0), m(4));
        // Loop exits: the injected ignore retires the entry.
        bk.on_ignore(t(0), s(0));
        assert!(bk.no_more_locks(t(0)));
        assert!(!bk.may_lock(t(0), m(4)));
    }

    #[test]
    fn unanalyzed_method_never_predicts() {
        let mut bk = Bookkeeping::new(Arc::new(LockTable::unanalyzed(1)));
        bk.on_request(t(0), MethodIdx::new(0));
        assert!(!bk.is_predicted(t(0)));
        assert!(bk.may_lock(t(0), m(0)));
        assert!(!bk.no_more_locks(t(0)));
    }

    #[test]
    fn lock_outside_table_degrades_thread() {
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0)]));
        bk.on_request(t(0), MethodIdx::new(0));
        bk.on_lock_info(t(0), s(0), m(1));
        assert!(bk.is_predicted(t(0)));
        // Locks at a syncid the table does not know: incomplete analysis.
        bk.on_lock(t(0), s(99), m(9));
        assert!(!bk.is_predicted(t(0)));
        assert!(bk.may_lock(t(0), m(77)));
    }

    #[test]
    fn finish_removes_thread() {
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0)]));
        bk.on_request(t(0), MethodIdx::new(0));
        assert!(bk.is_tracked(t(0)));
        bk.on_finish(t(0));
        assert!(!bk.is_tracked(t(0)));
        assert!(!bk.may_lock(t(0), m(0)));
        assert!(!bk.is_predicted(t(0)));
    }

    #[test]
    fn reannounce_after_done_for_repeated_path() {
        let mut bk = Bookkeeping::new(table_one_method(vec![e(0)]));
        bk.on_request(t(0), MethodIdx::new(0));
        bk.on_lock(t(0), s(0), m(1));
        bk.on_unlock(t(0), s(0), m(1));
        assert!(bk.no_more_locks(t(0)));
        // A later lockInfo re-pins (conservative for imperfect tables).
        bk.on_lock_info(t(0), s(0), m(2));
        assert!(!bk.no_more_locks(t(0)));
        assert!(bk.may_lock(t(0), m(2)));
    }

    #[test]
    fn multiple_threads_tracked_independently() {
        let table = Arc::new(LockTable::new(vec![
            Some(vec![e(0)]),
            Some(vec![e(1), e(2)]),
        ]));
        let mut bk = Bookkeeping::new(table);
        bk.on_request(t(0), MethodIdx::new(0));
        bk.on_request(t(1), MethodIdx::new(1));
        bk.on_lock_info(t(0), s(0), m(1));
        assert!(bk.is_predicted(t(0)));
        assert!(!bk.is_predicted(t(1)));
    }
}
