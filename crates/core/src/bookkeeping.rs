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
    per_method: Vec<Option<Row>>,
}

/// One start method's syncid list, with a syncid → position map.
#[derive(Clone, Debug)]
struct Row {
    entries: Vec<StaticSyncEntry>,
    /// The smallest syncid in `entries`.
    base: u32,
    /// `first[s - base]` is the position of syncid `s`'s first entry, or
    /// [`NOT_LISTED`]. Dense over the row's syncid range, which the
    /// object's syncid count bounds (the builder numbers syncids densely).
    /// Per method, because a multiply-invoked callee's syncid sits at a
    /// different position in each caller's row.
    first: Vec<u32>,
}

const NOT_LISTED: u32 = u32::MAX;

impl Row {
    fn new(entries: Vec<StaticSyncEntry>) -> Self {
        let ids = entries.iter().map(|e| e.sync_id.0);
        let base = ids.clone().min().unwrap_or(0);
        let span = ids.max().map_or(0, |max| (max - base) as usize + 1);
        let mut first = vec![NOT_LISTED; span];
        // Backwards, so a syncid listed twice maps to its first entry.
        for (i, e) in entries.iter().enumerate().rev() {
            first[(e.sync_id.0 - base) as usize] = i as u32;
        }
        Row {
            entries,
            base,
            first,
        }
    }

    /// The position of `sync_id`'s first entry, if the row lists it.
    fn position(&self, sync_id: SyncId) -> Option<usize> {
        let i = *self.first.get(sync_id.0.checked_sub(self.base)? as usize)?;
        (i != NOT_LISTED).then_some(i as usize)
    }
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
        LockTable {
            per_method: per_method.into_iter().map(|r| r.map(Row::new)).collect(),
        }
    }

    fn row(&self, method: MethodIdx) -> Option<&Row> {
        self.per_method.get(method.index())?.as_ref()
    }

    pub fn entries(&self, method: MethodIdx) -> Option<&[StaticSyncEntry]> {
        self.row(method).map(|r| r.entries.as_slice())
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

    /// True when the entry's target is still unknown (it blocks
    /// prediction).
    fn unresolved(self) -> bool {
        matches!(self, EntryState::Pending)
    }

    /// True while the entry can still lead to an acquisition.
    fn live(self) -> bool {
        !matches!(self, EntryState::Done | EntryState::Ignored)
    }
}

/// What one per-entry bookkeeping call changed: the entry's pin before
/// and after, and whether the thread was predicted before and is now.
/// A call on an untracked thread changes nothing (all `None`/`false`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntryChange {
    pub old_pin: Option<MutexId>,
    pub new_pin: Option<MutexId>,
    pub was_predicted: bool,
    pub predicted: bool,
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
    /// Entries still `Pending`.
    unresolved: u32,
    /// Entries not `Done`/`Ignored`.
    live: u32,
}

impl ThreadBook {
    /// Paper §4.2: "a thread is predicted if all entries in the list are
    /// marked".
    fn predicted(&self) -> bool {
        self.analyzed && self.unresolved == 0
    }

    /// True when some entry is `Announced` or `Held`.
    fn pins_any(&self) -> bool {
        self.live > self.unresolved
    }
}

/// Per-replica bookkeeping: static table + per-thread dynamic tables.
/// Thread tables sit in a dense slot map indexed by `ThreadId`. Each
/// thread counts its unresolved and live entries, and the static table
/// maps a syncid to its row position, so every per-entry call and every
/// `is_predicted`/`no_more_locks` query costs O(1) in the table width.
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
        let width = states.len() as u32;
        let prev = self.threads.insert(
            tid.index(),
            ThreadBook {
                method,
                states,
                analyzed,
                unresolved: width,
                live: width,
            },
        );
        debug_assert!(prev.is_none(), "thread {tid} registered twice");
    }

    pub fn on_lock_info(&mut self, tid: ThreadId, sync_id: SyncId, mutex: MutexId) -> EntryChange {
        self.transition(tid, sync_id, |st, _| match st {
            EntryState::Pending | EntryState::Announced(_) => EntryState::Announced(mutex),
            // A repeatable block can be re-announced after an unlock.
            EntryState::Done | EntryState::Ignored => EntryState::Announced(mutex),
            held @ EntryState::Held(_) => held,
        })
    }

    pub fn on_lock(&mut self, tid: ThreadId, sync_id: SyncId, mutex: MutexId) -> EntryChange {
        self.transition(tid, sync_id, |_, _| EntryState::Held(mutex))
    }

    pub fn on_unlock(&mut self, tid: ThreadId, sync_id: SyncId, mutex: MutexId) -> EntryChange {
        self.transition(tid, sync_id, |st, repeatable| match st {
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
        })
    }

    pub fn on_ignore(&mut self, tid: ThreadId, sync_id: SyncId) -> EntryChange {
        self.transition(tid, sync_id, |st, _| match st {
            EntryState::Held(m) => {
                // Ignoring a held entry is an instrumentation bug.
                panic!("ignore for held entry ({m})")
            }
            EntryState::Done => EntryState::Done,
            _ => EntryState::Ignored,
        })
    }

    pub fn on_finish(&mut self, tid: ThreadId) {
        if let Some(book) = self.threads.remove(tid.index()) {
            self.spare.push(book.states);
        }
    }

    /// Moves `tid`'s entry at `sync_id` to `f(state, repeatable)` and
    /// reports the change. Syncids are globally unique (paper §4.1), so
    /// looking only in the thread's own method row is exact.
    fn transition(
        &mut self,
        tid: ThreadId,
        sync_id: SyncId,
        f: impl FnOnce(EntryState, bool) -> EntryState,
    ) -> EntryChange {
        let Some(book) = self.threads.get_mut(tid.index()) else {
            return EntryChange::default();
        };
        let was_predicted = book.predicted();
        let row = self.table.row(book.method);
        let Some((i, row)) = row.and_then(|r| Some((r.position(sync_id)?, r))) else {
            // The thread locked at a syncid its table does not list:
            // the static information was incomplete — degrade the
            // thread to unanalysed rather than predict wrongly.
            book.analyzed = false;
            return EntryChange {
                was_predicted,
                ..EntryChange::default()
            };
        };
        let old = book.states[i];
        let new = f(old, row.entries[i].repeatable);
        book.states[i] = new;
        book.unresolved =
            book.unresolved + u32::from(new.unresolved()) - u32::from(old.unresolved());
        book.live = book.live + u32::from(new.live()) - u32::from(old.live());
        EntryChange {
            old_pin: old.pinned_mutex(),
            new_pin: new.pinned_mutex(),
            was_predicted,
            predicted: book.predicted(),
        }
    }

    /// Paper §4.2: "a thread is predicted if all entries in the list are
    /// marked" — every entry's target is known (or retired) and the
    /// thread's method was analysed.
    pub fn is_predicted(&self, tid: ThreadId) -> bool {
        self.threads
            .get(tid.index())
            .is_some_and(ThreadBook::predicted)
    }

    /// Calls `f` with each mutex this thread has announced or holds — its
    /// possible future (or current) lock targets — once per entry, in
    /// table order. Allocation-free, and O(1) for a thread that pins
    /// nothing (just born, or every entry retired): PMAT's blocker index
    /// calls it on thread birth and death.
    pub fn for_each_pinned(&self, tid: ThreadId, f: impl FnMut(MutexId)) {
        if let Some(b) = self.threads.get(tid.index()).filter(|b| b.pins_any()) {
            b.states.iter().filter_map(|s| s.pinned_mutex()).for_each(f);
        }
    }

    /// Could `tid` lock `mutex` now or in the future? Pessimistic: an
    /// unpredicted thread may lock anything.
    pub fn may_lock(&self, tid: ThreadId, mutex: MutexId) -> bool {
        match self.threads.get(tid.index()) {
            None => false,                     // finished / unknown thread locks nothing
            Some(b) if !b.predicted() => true, // unknown target: assume conflict
            Some(b) => b.states.iter().any(|s| s.pinned_mutex() == Some(mutex)),
        }
    }

    /// Last-lock analysis predicate (paper §4.1): the thread has requested
    /// and released all of its locks and will never request one again.
    pub fn no_more_locks(&self, tid: ThreadId) -> bool {
        self.threads
            .get(tid.index())
            .is_some_and(|b| b.analyzed && b.live == 0)
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

    /// Syncid scan of `tid`'s row: the state of the first entry listing
    /// `sync_id`, if the thread is tracked and its row lists it.
    fn scan_state(bk: &Bookkeeping, tid: ThreadId, sync_id: SyncId) -> Option<EntryState> {
        let book = bk.threads.get(tid.index())?;
        let entries = bk.table.entries(book.method)?;
        let i = entries.iter().position(|e| e.sync_id == sync_id)?;
        Some(book.states[i])
    }

    /// The scan-based answers the counted ones replace: the oracle of
    /// [`counted_bookkeeping_matches_the_scan_oracle`].
    fn scan_is_predicted(bk: &Bookkeeping, tid: ThreadId) -> bool {
        bk.threads
            .get(tid.index())
            .is_some_and(|b| b.analyzed && b.states.iter().all(|s| *s != EntryState::Pending))
    }

    fn scan_no_more_locks(bk: &Bookkeeping, tid: ThreadId) -> bool {
        bk.threads.get(tid.index()).is_some_and(|b| {
            b.analyzed
                && b.states
                    .iter()
                    .all(|s| matches!(s, EntryState::Done | EntryState::Ignored))
        })
    }

    fn scan_may_lock(bk: &Bookkeeping, tid: ThreadId, mutex: MutexId) -> bool {
        bk.threads.get(tid.index()).is_some_and(|b| {
            !b.analyzed
                || b.states.iter().any(|s| match s {
                    EntryState::Pending => true,
                    EntryState::Announced(m) | EntryState::Held(m) => *m == mutex,
                    EntryState::Done | EntryState::Ignored => false,
                })
        })
    }

    fn scan_entry_pin(bk: &Bookkeeping, tid: ThreadId, sync_id: SyncId) -> Option<MutexId> {
        scan_state(bk, tid, sync_id)?.pinned_mutex()
    }

    #[test]
    fn counted_bookkeeping_matches_the_scan_oracle() {
        use dmt_sim::SplitMix64;
        const THREADS: u32 = 3;
        const MUTEXES: u32 = 4;
        // Syncids 0..=9 are drawn; 8 and 9 sit in no row, so a lock there
        // degrades the thread.
        const SYNCIDS: u64 = 10;
        let r = |sid: u32| StaticSyncEntry {
            sync_id: s(sid),
            repeatable: true,
        };
        let table = Arc::new(LockTable::new(vec![
            // Unanalysed.
            None,
            // s1 is a repeatable block listed here at position 1 and in
            // method 2's row at position 2.
            Some(vec![e(0), r(1), e(2)]),
            Some(vec![e(4), e(5), r(1), e(3)]),
            // s6 listed twice: the first entry is the one that moves.
            Some(vec![e(6), e(7), r(6)]),
            // Lock-free.
            Some(vec![]),
        ]));
        let mut rng = SplitMix64::new(0x5eed_b00c);
        for seq in 0..3000 {
            let mut bk = Bookkeeping::new(table.clone());
            for step in 0..40 {
                let tid = t(rng.next_below(THREADS as u64) as u32);
                // Mostly a syncid of the thread's own row, so its entries
                // get to run their whole life cycle.
                let row = bk
                    .threads
                    .get(tid.index())
                    .and_then(|b| table.entries(b.method))
                    .unwrap_or(&[]);
                let sid = match rng.choose(row) {
                    Some(entry) if rng.next_below(8) != 0 => entry.sync_id,
                    _ => s(rng.next_below(SYNCIDS) as u32),
                };
                let mx = m(rng.next_below(MUTEXES as u64) as u32);
                let was = (scan_entry_pin(&bk, tid, sid), scan_is_predicted(&bk, tid));
                let change = match rng.next_below(7) {
                    0 => {
                        if bk.is_tracked(tid) {
                            bk.on_finish(tid);
                        } else {
                            let method = rng.next_below(table.n_methods() as u64) as u32;
                            bk.on_request(tid, MethodIdx::new(method));
                        }
                        None
                    }
                    1 | 2 => Some(bk.on_lock_info(tid, sid, mx)),
                    3 => Some(bk.on_lock(tid, sid, mx)),
                    4 | 5 => {
                        // Unlock what the entry holds, as the VM would.
                        let held = match scan_state(&bk, tid, sid) {
                            Some(EntryState::Held(h)) => h,
                            _ => mx,
                        };
                        Some(bk.on_unlock(tid, sid, held))
                    }
                    _ => {
                        if matches!(scan_state(&bk, tid, sid), Some(EntryState::Held(_))) {
                            continue;
                        }
                        Some(bk.on_ignore(tid, sid))
                    }
                };
                if let Some(change) = change {
                    let expect = EntryChange {
                        old_pin: was.0,
                        new_pin: scan_entry_pin(&bk, tid, sid),
                        was_predicted: was.1,
                        predicted: scan_is_predicted(&bk, tid),
                    };
                    assert_eq!(change, expect, "sequence {seq} step {step}: {tid} at {sid}");
                }
                for u in (0..THREADS).map(t) {
                    let at = format!("sequence {seq} step {step}: {u}");
                    assert_eq!(bk.is_predicted(u), scan_is_predicted(&bk, u), "{at}");
                    assert_eq!(bk.no_more_locks(u), scan_no_more_locks(&bk, u), "{at}");
                    for mx in (0..MUTEXES).map(m) {
                        assert_eq!(bk.may_lock(u, mx), scan_may_lock(&bk, u, mx), "{at}");
                    }
                    let scanned: Vec<MutexId> = bk.threads.get(u.index()).map_or(vec![], |b| {
                        b.states.iter().filter_map(|s| s.pinned_mutex()).collect()
                    });
                    assert_eq!(pinned(&bk, u), scanned, "{at}");
                }
            }
        }
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
