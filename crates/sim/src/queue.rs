//! The event queue at the heart of the simulation.
//!
//! Events are ordered by `(time, insertion sequence)`: two events scheduled
//! for the same virtual instant pop in the order they were pushed. This
//! FIFO tie-break is what makes whole-simulation replay bit-exact — a
//! plain `BinaryHeap<(SimTime, E)>` would fall back to comparing payloads
//! (or be unstable), silently coupling replay to payload representation.
//!
//! # Implementation: slab-backed calendar queue
//!
//! The original implementation was a `BinaryHeap<Entry<E>>`: correct, but
//! every push pays an O(log n) sift plus (amortised) heap growth, and the
//! engine pushes one event per event it pops. This version is a bucketed
//! calendar queue over a node slab:
//!
//! * **Slab + free list.** All entries live in one `Vec<Node<E>>`; freed
//!   nodes are chained into a free list and recycled, so a warmed-up queue
//!   never allocates on push — the buffer grows to the high-water mark of
//!   pending events and stays there.
//! * **Near future: buckets.** A window of `N_BUCKETS` = 4096 buckets,
//!   each `BUCKET_NS` = 1.024 µs wide, covers ~4.19 ms of virtual time.
//!   Each bucket is a singly linked list kept sorted by `(time, seq)` with
//!   a tail pointer: the overwhelmingly common pushes — at the current
//!   instant (`push_after(ZERO)`) or monotonically forward — append at the
//!   tail in O(1); only a push that lands *behind* an existing same-bucket
//!   entry walks the (short) bucket list. A two-level occupancy bitmap —
//!   64 words, plus one summary word whose bit `w` is set iff word `w` is
//!   non-empty — finds the earliest occupied bucket with two
//!   `trailing_zeros`, however many empty buckets lie before it, so no
//!   scan cursor is kept.
//! * **Window geometry.** The window is sized to the engine's push
//!   delays. Measured over every scheduler kind on the three perfbench
//!   workloads (seed 1), the pushes split as: `fig1-closed` 2 % zero,
//!   8 % 131–262 µs, 62 % 262–524 µs (network legs), 22 % 1–2 ms
//!   (compute), 7 % 8–17 ms (the 12 ms nested calls); `openloop-store`
//!   31 % 131–262 µs, 57 % 262–524 µs, 12 % 0.5–1 ms (lock holds);
//!   `shard-1e5` 32 % 131–262 µs, 64 % 262–524 µs, 3 % 0.5–1 ms. The
//!   old 256-bucket (262 µs) window sent 69–98 % of pushes to the
//!   overflow heap (fig1 MAT 93 %, LSA 98 %; openloop MAT 81 %; shard
//!   MAT 89 %), each paying a meld, a heap pop and a bucket re-insert.
//!   At 4.19 ms only the nested-call tail and pushes past the window's
//!   far edge overflow: 13–21 % on `fig1-closed`, 8–9 % on
//!   `openloop-store`, 7 % on `shard-1e5`. The bucket array costs 32 KB
//!   per queue.
//! * **Far future: pairing heap.** Events beyond the window are melded
//!   into a pairing heap over the same slab (O(1) push, amortised
//!   O(log n) pop). When the window drains, it jumps straight to the
//!   earliest overflow event and the heap prefix inside the new window is
//!   drained into the buckets — in sorted order, so every transfer is a
//!   tail append.
//!
//! * **Front slot.** One entry lives outside the slab entirely: a push
//!   that is *strictly earlier* than every pending entry parks in a
//!   dedicated `(at, seq, event)` slot instead of touching a bucket.
//!   Because every later push carries a larger sequence number, a slot
//!   entry is the unique `(time, seq)` minimum for as long as it stays
//!   there, so `pop` may return it without consulting the slab at all —
//!   the same-timestamp fusion invariant DESIGN.md documents. A later
//!   push that beats the slot demotes the old occupant into the slab
//!   with its *original* sequence number (the sorted bucket insert
//!   handles non-monotone sequences), so ordering is unaffected.
//! * **Exact next-event cache.** `next_at` tracks the earliest pending
//!   timestamp in the slab + overflow tiers and is maintained on every
//!   push and pop, so `peek_time` — which the engine's admission-batching
//!   gate calls once per decision — is O(1) instead of a bitmap rescan,
//!   and the slot-fill test above is a single compare.
//!
//! * **Arrival lane.** A schedule known before the run starts (an
//!   open-loop client population's arrivals) need not live in the
//!   calendar at all. [`EventQueue::push_lane`] gives each such event the
//!   insertion sequence number [`EventQueue::push_at`] would have given it,
//!   in call order, and [`EventQueue::seal_lane`] sorts the lane once by
//!   `(time, seq)`. `pop` then merges the lane head with the calendar head
//!   (front slot, else slab): the lane head goes first when its time is
//!   earlier, or when the times are equal and its seq is smaller. The pop
//!   stream is therefore exactly the stream of the same events pushed
//!   through `push_at` in the same call order, while the calendar only
//!   ever holds the events in flight — thousands of far-future arrivals no
//!   longer sit in the overflow heap paying for every window advance.
//!
//! Ordering is decided *only* by `(time, seq)` comparisons in all tiers,
//! so the FIFO tie-break contract of the old heap is preserved exactly;
//! the differential test at the bottom of this file drives both
//! implementations with the same SplitMix64-generated schedules and
//! asserts identical pop streams.

use crate::time::{SimDuration, SimTime};

const NIL: u32 = u32::MAX;

/// Buckets per calendar window: 4096, so the window spans every engine
/// delay but the nested-call tail (see the module docs). The occupancy
/// bitmap is 64 words under one summary word.
const N_BUCKETS: usize = 4096;

/// Occupancy words (64 buckets each); one summary bit per word.
const N_WORDS: usize = N_BUCKETS / 64;
const _: () = assert!(N_WORDS == 64, "the summary word indexes exactly 64 words");

/// log2 of the bucket width in nanoseconds: 1.024 µs buckets. Zero-delay
/// thread steps stay same-bucket tail appends.
const BUCKET_SHIFT: u32 = 10;
const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;

/// Virtual-time span covered by the bucket window (~4.19 ms).
const WINDOW_NS: u64 = BUCKET_NS * N_BUCKETS as u64;

struct Node<E> {
    at: u64,
    seq: u64,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
    /// Bucket list: next entry in `(at, seq)` order. Pairing heap: next
    /// sibling. Free list: next free node.
    next: u32,
    /// Pairing heap only: first child.
    child: u32,
}

/// A bucket's list ends. Meaningful only while the bucket's occupancy
/// bit is set: the bitmap alone says which buckets are empty, so emptying
/// the calendar never sweeps the bucket array.
#[derive(Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
}

struct LaneEntry<E> {
    at: u64,
    seq: u64,
    event: E,
}

/// A deterministic discrete-event queue. `pop` advances the clock.
pub struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    /// Free-list head into `nodes`.
    free: u32,
    buckets: Vec<Bucket>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occ: [u64; N_WORDS],
    /// Summary over `occ`: bit `w` set ⇔ `occ[w] != 0`.
    summary: u64,
    /// Left edge (nanos) of bucket 0.
    win_start: u64,
    in_buckets: usize,
    /// Pairing-heap root for events at or beyond `win_start + WINDOW_NS`.
    overflow: u32,
    n_overflow: usize,
    /// Inserts that went to the overflow heap (the tier-share guard).
    #[cfg(test)]
    overflow_inserts: u64,
    /// Reused scratch for the pairing heap's two-pass merge.
    pair_scratch: Vec<u32>,
    /// Front slot: a pushed event strictly earlier than every pending
    /// entry bypasses the slab. Invariant while occupied: `(slot_at,
    /// slot_seq)` is the unique global `(time, seq)` minimum, so `pop`
    /// takes it unconditionally and slab pops never interleave with an
    /// occupied slot.
    slot: Option<E>,
    slot_at: u64,
    slot_seq: u64,
    /// Earliest `at` pending in the slab + overflow tiers (`u64::MAX`
    /// when both are empty). Exact at all times; the slot is *not*
    /// included.
    next_at: u64,
    /// Arrival lane (see the module docs), kept in *descending* `(at,
    /// seq)` order once sealed so the head is the last element and taking
    /// it is a `Vec::pop`.
    lane: Vec<LaneEntry<E>>,
    /// `false` between a `push_lane` and the `seal_lane` that sorts it;
    /// `pop` and `peek_time` require a sealed lane.
    lane_sealed: bool,
    /// `false` routes every push through the slab (reference semantics
    /// for the fused-vs-reference differential tests).
    fastpath: bool,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![Bucket::default(); N_BUCKETS],
            occ: [0; N_WORDS],
            summary: 0,
            win_start: 0,
            in_buckets: 0,
            overflow: NIL,
            n_overflow: 0,
            #[cfg(test)]
            overflow_inserts: 0,
            pair_scratch: Vec::new(),
            slot: None,
            slot_at: 0,
            slot_seq: 0,
            next_at: u64::MAX,
            lane: Vec::new(),
            lane_sealed: true,
            fastpath: true,
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Enables/disables the front-slot fast path. Pop order is identical
    /// either way (differentially tested); `false` is the reference mode
    /// where every event goes through the slab.
    pub fn set_fastpath(&mut self, on: bool) {
        if !on {
            // Flush a resident slot entry into the slab so ordering state
            // is consistent before the slow-only regime begins.
            if let Some(ev) = self.slot.take() {
                let (at, seq) = (self.slot_at, self.slot_seq);
                self.insert_slab(at, seq, ev);
            }
        }
        self.fastpath = on;
    }

    /// Current virtual time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.in_buckets + self.n_overflow + usize::from(self.slot.is_some()) + self.lane.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(at, seq)` of node `a` orders strictly before node `b`.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        (na.at, na.seq) < (nb.at, nb.seq)
    }

    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            n.at = at;
            n.seq = seq;
            n.event = Some(event);
            n.next = NIL;
            n.child = NIL;
            i
        } else {
            self.nodes.push(Node {
                at,
                seq,
                event: Some(event),
                next: NIL,
                child: NIL,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    #[inline]
    fn release(&mut self, i: u32) {
        let n = &mut self.nodes[i as usize];
        debug_assert!(n.event.is_none(), "release with live payload");
        n.next = self.free;
        self.free = i;
    }

    /// Schedules `event` at the absolute instant `at`. Panics if `at` lies
    /// in the past — an engine is never allowed to rewrite history.
    pub fn push_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let at_ns = at.as_nanos();
        let seq = self.seq;
        self.seq += 1;
        if self.fastpath && at_ns < self.next_at {
            match self.slot {
                // Strictly earlier than everything pending: the new entry
                // is the unique (time, seq) minimum — park it in the slot.
                None => {
                    self.slot = Some(event);
                    self.slot_at = at_ns;
                    self.slot_seq = seq;
                    return;
                }
                // Beats the resident slot entry too: demote the old
                // occupant into the slab with its original sequence
                // number (sorted insert handles the non-monotone seq).
                Some(_) if at_ns < self.slot_at => {
                    let prev = self.slot.take().expect("matched Some");
                    let (pat, pseq) = (self.slot_at, self.slot_seq);
                    self.slot = Some(event);
                    self.slot_at = at_ns;
                    self.slot_seq = seq;
                    self.insert_slab(pat, pseq, prev);
                    return;
                }
                // Same instant as (or later than) the slot: the slot's
                // smaller seq keeps it first; this entry goes to the slab.
                Some(_) => {}
            }
        }
        self.insert_slab(at_ns, seq, event);
    }

    /// Loads `event` into the arrival lane at the absolute instant `at`,
    /// consuming the same insertion sequence number a [`push_at`] in this
    /// position would. Call [`seal_lane`] after the last `push_lane` and
    /// before the next `pop` or `peek_time`. Panics if `at` lies in the
    /// past.
    ///
    /// [`push_at`]: EventQueue::push_at
    /// [`seal_lane`]: EventQueue::seal_lane
    pub fn push_lane(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.lane.push(LaneEntry {
            at: at.as_nanos(),
            seq,
            event,
        });
        self.lane_sealed = false;
    }

    /// Sorts the arrival lane by `(time, seq)` so `pop` can merge it with
    /// the calendar. Idempotent; sealing an already sealed lane is free.
    pub fn seal_lane(&mut self) {
        if !self.lane_sealed {
            // Descending, so the head is the last element. Keys are
            // unique (distinct seqs), so an unstable sort is exact.
            self.lane
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
            self.lane_sealed = true;
        }
    }

    /// The lane head `(at, seq)` orders before the calendar head (front
    /// slot, else slab). Seqs are only compared on a time tie.
    #[inline]
    fn lane_leads(&self, at: u64, seq: u64) -> bool {
        let cal_at = if self.slot.is_some() {
            self.slot_at
        } else {
            self.next_at
        };
        at < cal_at || (at == cal_at && seq < self.calendar_head_seq())
    }

    /// Insertion seq of the calendar's `(time, seq)` minimum (`u64::MAX`
    /// when the calendar is empty).
    fn calendar_head_seq(&self) -> u64 {
        if self.slot.is_some() {
            return self.slot_seq;
        }
        let head = if self.in_buckets > 0 {
            self.buckets[self.first_occupied()].head
        } else {
            self.overflow
        };
        if head == NIL {
            u64::MAX
        } else {
            self.nodes[head as usize].seq
        }
    }

    /// Inserts into the bucket window or the overflow heap, maintaining
    /// the exact `next_at` cache.
    fn insert_slab(&mut self, at: u64, seq: u64, event: E) {
        let idx = self.alloc(at, seq, event);
        debug_assert!(at >= self.win_start, "push behind the calendar window");
        if at < self.next_at {
            self.next_at = at;
        }
        if at - self.win_start < WINDOW_NS {
            self.insert_bucket(idx);
        } else {
            self.overflow = self.meld(self.overflow, idx);
            self.n_overflow += 1;
            #[cfg(test)]
            {
                self.overflow_inserts += 1;
            }
        }
    }

    /// Schedules `event` after a relative delay from the current time.
    #[inline]
    pub fn push_after(&mut self, delay: SimDuration, event: E) {
        self.push_at(self.now + delay, event);
    }

    fn insert_bucket(&mut self, idx: u32) {
        let at = self.nodes[idx as usize].at;
        let b = ((at - self.win_start) >> BUCKET_SHIFT) as usize;
        debug_assert!(b < N_BUCKETS);
        let bucket = self.buckets[b];
        if self.occ[b >> 6] & (1 << (b & 63)) == 0 {
            self.buckets[b] = Bucket {
                head: idx,
                tail: idx,
            };
            self.occ[b >> 6] |= 1 << (b & 63);
            self.summary |= 1 << (b >> 6);
        } else if self.before(bucket.tail, idx) {
            // Monotone pushes (and all same-instant ties, seq ascending)
            // append at the tail: the steady-state O(1) path.
            self.nodes[bucket.tail as usize].next = idx;
            self.buckets[b].tail = idx;
        } else if self.before(idx, bucket.head) {
            self.nodes[idx as usize].next = bucket.head;
            self.buckets[b].head = idx;
        } else {
            // Out-of-order within one ~1 µs bucket: short sorted walk.
            let mut prev = bucket.head;
            loop {
                let next = self.nodes[prev as usize].next;
                debug_assert_ne!(next, NIL, "tail comparison above bounds the walk");
                if self.before(idx, next) {
                    self.nodes[idx as usize].next = next;
                    self.nodes[prev as usize].next = idx;
                    break;
                }
                prev = next;
            }
        }
        self.in_buckets += 1;
    }

    /// The earliest non-empty bucket: the first word the summary marks,
    /// then that word's first set bit. Requires `in_buckets > 0`.
    #[inline]
    fn first_occupied(&self) -> usize {
        debug_assert_ne!(self.summary, 0, "no occupied bucket");
        let w = self.summary.trailing_zeros() as usize;
        (w << 6) + self.occ[w].trailing_zeros() as usize
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Ties pop in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        debug_assert!(self.lane_sealed, "pop with an unsealed arrival lane");
        if let Some(head) = self.lane.last() {
            if self.lane_leads(head.at, head.seq) {
                let LaneEntry { at, event, .. } = self.lane.pop().expect("lane head exists");
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.now);
                self.now = at;
                return Some((at, event));
            }
        }
        self.pop_calendar()
    }

    /// [`EventQueue::pop`] restricted to the calendar tiers (front slot,
    /// buckets, overflow heap).
    fn pop_calendar(&mut self) -> Option<(SimTime, E)> {
        // Slot first: while occupied it is the unique (time, seq) minimum
        // (filled strictly earlier than everything pending; later pushes
        // carry larger seqs), so no slab consultation is needed.
        if let Some(event) = self.slot.take() {
            debug_assert!(self.slot_at <= self.next_at);
            let at = SimTime::from_nanos(self.slot_at);
            debug_assert!(at >= self.now);
            self.now = at;
            return Some((at, event));
        }
        if self.in_buckets == 0 {
            if self.overflow == NIL {
                return None;
            }
            self.advance_window();
        }
        let b = self.first_occupied();
        let idx = self.buckets[b].head;
        let node = &mut self.nodes[idx as usize];
        let at = SimTime::from_nanos(node.at);
        let event = node.event.take().expect("bucketed node has a payload");
        let next = node.next;
        self.buckets[b].head = next;
        if next == NIL {
            self.occ[b >> 6] &= !(1 << (b & 63));
            if self.occ[b >> 6] == 0 {
                self.summary &= !(1 << (b >> 6));
            }
        }
        self.in_buckets -= 1;
        self.release(idx);
        // Re-derive the next-event cache from the removal point: the new
        // head of this bucket, else the next occupied bucket, else the
        // overflow root (always later than anything in the window).
        self.next_at = if next != NIL {
            self.nodes[next as usize].at
        } else if self.in_buckets > 0 {
            self.nodes[self.buckets[self.first_occupied()].head as usize].at
        } else if self.overflow != NIL {
            self.nodes[self.overflow as usize].at
        } else {
            u64::MAX
        };
        debug_assert!(at >= self.now);
        self.now = at;
        Some((at, event))
    }

    /// Timestamp of the next event without popping it. O(1): the slot is
    /// the calendar minimum while occupied, `next_at` is maintained
    /// exactly, and the lane head is its last element.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        debug_assert!(self.lane_sealed, "peek with an unsealed arrival lane");
        let cal_at = if self.slot.is_some() {
            self.slot_at
        } else {
            self.next_at
        };
        match self.lane.last() {
            Some(head) if head.at <= cal_at => Some(SimTime::from_nanos(head.at)),
            _ if cal_at != u64::MAX => Some(SimTime::from_nanos(cal_at)),
            _ => None,
        }
    }

    /// Drops every pending event, lane included (clock is left where it
    /// is; lane capacity is kept for the next load), and resets
    /// the insertion sequence to 0. The reset is safe for replay: `seq`
    /// only ever disambiguates *coexisting* same-instant entries, and an
    /// empty queue has none — restarting at 0 keeps a reused queue's pop
    /// order a pure function of the pushes made after `clear`,
    /// independent of how much traffic preceded it.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.occ = [0; N_WORDS];
        self.summary = 0;
        self.win_start = self.now.as_nanos() & !(BUCKET_NS - 1);
        self.in_buckets = 0;
        self.overflow = NIL;
        self.n_overflow = 0;
        self.slot = None;
        self.next_at = u64::MAX;
        self.lane.clear();
        self.lane_sealed = true;
        self.seq = 0;
    }

    /// Full reset for reuse across independent simulations: [`clear`]
    /// plus rewinding the clock to zero. A worker thread running shard
    /// after shard calls this between runs so the next shard starts from
    /// `t = 0` with the same slab/bucket capacity already warm — the pop
    /// stream of a reset queue is byte-for-byte the stream a freshly
    /// constructed queue would produce for the same pushes.
    ///
    /// [`clear`]: EventQueue::clear
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.clear();
        debug_assert_eq!(self.win_start, 0);
    }

    /// Moves the bucket window to the earliest overflow event and drains
    /// the overflow prefix that falls inside it into the buckets. Only
    /// called with empty buckets and a non-empty overflow heap.
    fn advance_window(&mut self) {
        debug_assert_eq!(self.in_buckets, 0);
        debug_assert_ne!(self.overflow, NIL);
        let min_at = self.nodes[self.overflow as usize].at;
        self.win_start = min_at & !(BUCKET_NS - 1);
        while self.overflow != NIL {
            let root = self.overflow;
            let at = self.nodes[root as usize].at;
            if at - self.win_start >= WINDOW_NS {
                break;
            }
            self.overflow = self.pop_heap_root();
            self.n_overflow -= 1;
            // Roots come off the heap in (at, seq) order, so every insert
            // below is a tail append.
            self.nodes[root as usize].next = NIL;
            self.nodes[root as usize].child = NIL;
            self.insert_bucket(root);
        }
    }

    /// Pairing-heap meld; either side may be NIL.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let (root, child) = if self.before(a, b) { (a, b) } else { (b, a) };
        self.nodes[child as usize].next = self.nodes[root as usize].child;
        self.nodes[root as usize].child = child;
        root
    }

    /// Removes the heap root and returns the new root (two-pass pairing).
    fn pop_heap_root(&mut self) -> u32 {
        let root = self.overflow;
        let mut child = self.nodes[root as usize].child;
        self.nodes[root as usize].child = NIL;
        // First pass: meld adjacent sibling pairs left to right.
        let mut scratch = std::mem::take(&mut self.pair_scratch);
        scratch.clear();
        while child != NIL {
            let a = child;
            let b = self.nodes[a as usize].next;
            let after = if b == NIL {
                NIL
            } else {
                self.nodes[b as usize].next
            };
            self.nodes[a as usize].next = NIL;
            if b != NIL {
                self.nodes[b as usize].next = NIL;
            }
            scratch.push(self.meld(a, b));
            child = after;
        }
        // Second pass: fold right to left.
        let mut new_root = NIL;
        while let Some(h) = scratch.pop() {
            new_root = self.meld(new_root, h);
        }
        self.pair_scratch = scratch;
        new_root
    }
}

/// The original `BinaryHeap` implementation, kept as the ordering oracle
/// for the differential test below (and nothing else).
#[cfg(test)]
mod reference {
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        // Reversed: BinaryHeap is a max-heap, earliest entry on top.
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn push_at(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| {
                self.now = e.at;
                (e.at, e.event)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapQueue;
    use super::*;
    use crate::rng::SplitMix64;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_after(ms(5), "c");
        q.push_after(ms(1), "a");
        q.push_after(ms(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push_at(SimTime::from_nanos(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push_after(ms(2), ());
        q.push_after(ms(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::ZERO + ms(2));
        q.pop();
        assert_eq!(q.now(), SimTime::ZERO + ms(9));
    }

    #[test]
    fn relative_delay_is_from_now() {
        let mut q = EventQueue::new();
        q.push_after(ms(2), "first");
        q.pop();
        q.push_after(ms(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::ZERO + ms(4));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push_after(ms(5), ());
        q.pop();
        q.push_at(SimTime::from_nanos(1), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push_after(ms(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::ZERO + ms(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_sees_overflow_events() {
        let mut q = EventQueue::new();
        q.push_after(SimDuration::from_secs(5), ());
        assert_eq!(
            q.peek_time(),
            Some(SimTime::ZERO + SimDuration::from_secs(5))
        );
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push_after(ms(1), ());
        q.push_after(ms(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_resets_insertion_sequence() {
        // After clear, same-instant FIFO must restart from a clean slate:
        // the pop order of post-clear pushes is independent of pre-clear
        // traffic. Two queues with different histories but identical
        // post-clear pushes must agree event for event.
        let mut a = EventQueue::new();
        for i in 0..57 {
            a.push_after(ms(1), i);
        }
        a.pop();
        a.clear();
        let mut b = EventQueue::new();
        b.push_after(ms(1), 0);
        b.pop();
        b.clear();
        for q in [&mut a, &mut b] {
            for i in 0..10 {
                q.push_after(ms(2), i);
            }
        }
        let pa: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let pb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(pa, pb);
        assert_eq!(
            pa.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reset_reuse_is_indistinguishable_from_fresh() {
        // Per-shard reuse contract: a worker that ran an arbitrary
        // simulation and then calls `reset()` must see exactly the pop
        // stream a brand-new queue would produce — same times (clock
        // rewound to zero), same `(time, seq)` FIFO tie-breaks. Randomized
        // differential check across a spread of pollution histories.
        let mut rng = SplitMix64::new(0x5ead_beef);
        for round in 0..32u64 {
            let mut reused: EventQueue<u64> = EventQueue::new();
            // Pollute: random pushes/pops spanning every queue tier
            // (same-instant runs, in-window hops, overflow heap), leaving
            // the clock at an arbitrary point and the slab warm.
            for i in 0..200 {
                let d = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(1_000),
                    2 => 1_000 + rng.next_below(100_000),
                    _ => 1_000_000 + rng.next_below(500_000_000),
                };
                reused.push_after(SimDuration::from_nanos(d), i);
                if rng.next_below(3) == 0 {
                    reused.pop();
                }
            }
            while rng.next_below(4) != 0 && reused.pop().is_some() {}
            reused.reset();
            assert!(reused.is_empty());

            // Replay one schedule into both the reused queue and a fresh
            // one; heavy same-instant duplication exercises the seq
            // tie-break specifically.
            let mut fresh: EventQueue<u64> = EventQueue::new();
            let mut sched_rng = SplitMix64::new(0x1000 + round);
            let schedule: Vec<u64> = (0..150)
                .map(|_| match sched_rng.next_below(3) {
                    0 => sched_rng.next_below(4) * 500, // collisions
                    1 => sched_rng.next_below(200_000),
                    _ => 2_000_000 + sched_rng.next_below(300_000_000),
                })
                .collect();
            for (i, &at) in schedule.iter().enumerate() {
                reused.push_at(SimTime::from_nanos(at), i as u64);
                fresh.push_at(SimTime::from_nanos(at), i as u64);
            }
            // Drain half, then push a second wave relative to the popped
            // clock so push/pop interleaving is covered too.
            for i in 0..schedule.len() as u64 / 2 {
                assert_eq!(reused.pop(), fresh.pop());
                if i % 3 == 0 {
                    let d = SimDuration::from_nanos(sched_rng.next_below(1_000_000));
                    reused.push_after(d, 10_000 + i);
                    fresh.push_after(d, 10_000 + i);
                }
            }
            let a: Vec<_> = std::iter::from_fn(|| reused.pop()).collect();
            let b: Vec<_> = std::iter::from_fn(|| fresh.pop()).collect();
            assert_eq!(a, b, "round {round}: reset queue diverged from fresh");
            // FIFO among same-instant entries: payloads at equal times
            // must appear in push order.
            for w in a.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "same-instant FIFO violated");
                }
            }
        }
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.push_after(ms(10), 1u32);
        q.push_after(ms(20), 2);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.push_after(ms(5), 3); // at t=15, before event 2 at t=20
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 3);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 2);
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        // Mix of in-window and far-overflow events, pushed out of order.
        let mut q = EventQueue::new();
        q.push_at(SimTime::from_nanos(3_000_000_000), "far-b");
        q.push_after(SimDuration::from_nanos(100), "near");
        q.push_at(SimTime::from_nanos(2_999_999_000), "far-a");
        q.push_at(SimTime::from_nanos(3_000_000_000), "far-b2");
        q.push_at(SimTime::from_nanos(40_000_000), "mid");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "mid", "far-a", "far-b", "far-b2"]);
    }

    #[test]
    fn slab_is_recycled_across_churn() {
        // Steady-state churn must not grow the slab beyond its high-water
        // mark: capacity is bounded by the peak number of pending events.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.push_after(SimDuration::from_nanos(1 + round % 7), round);
            q.push_after(SimDuration::from_millis(5), round); // overflow tier
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.nodes.len() <= 4,
            "slab grew to {} despite churn",
            q.nodes.len()
        );
    }

    #[test]
    fn front_slot_demotion_preserves_order() {
        // 100 parks in the slot; 50 demotes it; 70 lands in the slab
        // (later than the new slot entry, earlier than the demoted one).
        let mut q = EventQueue::new();
        q.push_at(SimTime::from_nanos(100), "c");
        q.push_at(SimTime::from_nanos(50), "a");
        q.push_at(SimTime::from_nanos(70), "b");
        assert_eq!(q.len(), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn front_slot_same_instant_tie_is_fifo() {
        // First push at t=7 parks in the slot; the second (same instant,
        // larger seq) must go to the slab and pop second.
        let mut q = EventQueue::new();
        q.push_at(SimTime::from_nanos(7), 0);
        q.push_at(SimTime::from_nanos(7), 1);
        q.push_at(SimTime::from_nanos(7), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn front_slot_peek_matches_pop() {
        let mut rng = SplitMix64::new(0xbead);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..500 {
            let d = SimDuration::from_nanos(rng.next_below(400_000));
            q.push_after(d, i);
            if rng.next_below(3) != 0 {
                let peeked = q.peek_time();
                let popped = q.pop();
                assert_eq!(peeked, popped.map(|(t, _)| t));
            }
        }
        while let Some((t, _)) = {
            let peeked = q.peek_time();
            let p = q.pop();
            assert_eq!(peeked, p.as_ref().map(|&(t, _)| t));
            p
        } {
            let _ = t;
        }
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn fastpath_off_matches_fastpath_on() {
        // The reference mode (`set_fastpath(false)`) must produce the
        // byte-identical pop stream, including a mid-run flip with a
        // resident slot entry.
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xfa57 + seed);
            let mut fast: EventQueue<u64> = EventQueue::new();
            let mut slow: EventQueue<u64> = EventQueue::new();
            slow.set_fastpath(false);
            for i in 0..400 {
                let d = SimDuration::from_nanos(match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(BUCKET_NS),
                    2 => rng.next_below(WINDOW_NS),
                    _ => rng.next_below(50_000_000),
                });
                fast.push_after(d, i);
                slow.push_after(d, i);
                if rng.next_below(2) == 0 {
                    assert_eq!(fast.pop(), slow.pop(), "seed {seed}");
                }
                if i == 200 {
                    fast.set_fastpath(false);
                }
                assert_eq!(fast.len(), slow.len());
            }
            loop {
                let a = fast.pop();
                assert_eq!(a, slow.pop(), "seed {seed}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// One op of a differential script. Times are absolute, fixed when
    /// the script is generated, so one script replays identically on
    /// every queue configuration.
    #[derive(Clone, Copy)]
    enum Op {
        /// Calendar push (`push_at`).
        Push(u64),
        /// Arrival-lane load (`push_lane`); the reference heap gets a
        /// plain `push_at` in the same position.
        Lane(u64),
        Seal,
        Pop,
    }

    /// Builds a script from `gen`, which sees the reference heap's clock
    /// (the clock every correct queue shares at that point of the run).
    fn script(mut gen: impl FnMut(SimTime, &mut Vec<Op>) -> bool) -> Vec<Op> {
        let mut heap: HeapQueue<()> = HeapQueue::new();
        let mut ops = Vec::new();
        loop {
            let from = ops.len();
            let more = gen(heap.now(), &mut ops);
            for op in &ops[from..] {
                match *op {
                    Op::Push(at) | Op::Lane(at) => heap.push_at(SimTime::from_nanos(at), ()),
                    Op::Seal => {}
                    Op::Pop => {
                        heap.pop();
                    }
                }
            }
            if !more {
                return ops;
            }
        }
    }

    /// Replays `ops` on the calendar queue — fastpath on and off, each
    /// on a fresh queue and on one reused after `reset()` — and on the
    /// reference heap fed every event through `push_at` in script order,
    /// asserting identical pop streams, lengths and clocks, then drains.
    fn check_script(ops: &[Op], label: &str) {
        for fastpath in [true, false] {
            for reuse in [false, true] {
                let mut cal: EventQueue<u64> = EventQueue::new();
                cal.set_fastpath(fastpath);
                if reuse {
                    // Pollute every tier and the lane, then reset.
                    let mut rng = SplitMix64::new(ops.len() as u64);
                    for i in 0..300 {
                        let d = SimDuration::from_nanos(match rng.next_below(3) {
                            0 => 0,
                            1 => rng.next_below(WINDOW_NS),
                            _ => rng.next_below(50_000_000),
                        });
                        cal.push_lane(cal.now() + d, i);
                        cal.push_after(d, i);
                        if i % 50 == 49 {
                            cal.seal_lane();
                            for _ in 0..40 {
                                cal.pop();
                            }
                        }
                    }
                    cal.reset();
                }
                let mut heap: HeapQueue<u64> = HeapQueue::new();
                let ctx = format!("{label}, fastpath={fastpath}, reuse={reuse}");
                for (payload, op) in ops.iter().enumerate() {
                    let payload = payload as u64;
                    match *op {
                        Op::Push(at) => {
                            cal.push_at(SimTime::from_nanos(at), payload);
                            heap.push_at(SimTime::from_nanos(at), payload);
                        }
                        Op::Lane(at) => {
                            cal.push_lane(SimTime::from_nanos(at), payload);
                            heap.push_at(SimTime::from_nanos(at), payload);
                        }
                        Op::Seal => cal.seal_lane(),
                        Op::Pop => {
                            assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged ({ctx})");
                            assert_eq!(cal.pop(), heap.pop(), "pop stream diverged ({ctx})");
                        }
                    }
                    assert_eq!(cal.len(), heap.len(), "length diverged ({ctx})");
                    assert_eq!(cal.now(), heap.now(), "clock diverged ({ctx})");
                }
                // Drain both completely: the tails must agree too.
                loop {
                    let a = cal.pop();
                    assert_eq!(a, heap.pop(), "drain diverged ({ctx})");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }

    /// Instants shared by the lane and the calendar: the start (front-slot
    /// ties), in-window bucket times and far overflow times.
    fn tie_instants(rng: &mut SplitMix64) -> Vec<u64> {
        let mut v = vec![0];
        v.extend((0..6).map(|_| rng.next_below(WINDOW_NS)));
        v.extend((0..6).map(|_| WINDOW_NS + rng.next_below(4 * WINDOW_NS)));
        v.extend((0..6).map(|_| rng.next_below(50_000_000)));
        v
    }

    /// A lane load of `n` arrivals interleaved with calendar pushes, half
    /// of them at shared instants (so lane and calendar entries tie at
    /// one instant in both seq orders), then sealed.
    fn lane_load(rng: &mut SplitMix64, now: u64, inst: &[u64], n: usize, ops: &mut Vec<Op>) {
        for _ in 0..n {
            let at = if rng.next_below(2) == 0 {
                inst[rng.next_below(inst.len() as u64) as usize].max(now)
            } else {
                now + rng.next_below(3_600_000_000_000)
            };
            ops.push(if rng.next_below(3) == 0 {
                Op::Push(at)
            } else {
                Op::Lane(at)
            });
        }
        ops.push(Op::Seal);
    }

    fn differential_run(seed: u64, n_ops: usize) {
        let mut rng = SplitMix64::new(seed);
        let inst = tie_instants(&mut rng);
        let mut issued = 0;
        let ops = script(|now, ops| {
            let now = now.as_nanos();
            if issued == 0 || issued == n_ops / 2 {
                // Load a lane at the start and once more mid-run.
                lane_load(&mut rng, now, &inst, 200, ops);
            }
            issued += 1;
            let r = rng.next_u64() % 100;
            if r < 60 {
                // Push with a delay profile spanning all tiers: heavy
                // same-instant ties, sub-bucket, in-window, overflow —
                // plus pushes at the lane's instants.
                let delay = match rng.next_u64() % 9 {
                    0..=2 => 0,                                        // same instant
                    3 => rng.next_u64() % BUCKET_NS,                   // same bucket
                    4 => rng.next_u64() % WINDOW_NS,                   // in window
                    5 => WINDOW_NS + rng.next_u64() % (4 * WINDOW_NS), // near overflow
                    6 => rng.next_u64() % 50_000_000,                  // ~50 ms
                    7 => rng.next_u64() % 3_600_000_000_000,           // ~1 h horizon
                    _ => inst[rng.next_below(inst.len() as u64) as usize].saturating_sub(now),
                };
                ops.push(Op::Push(now + delay));
            } else {
                ops.push(Op::Pop);
            }
            issued < n_ops
        });
        check_script(&ops, &format!("seed {seed}"));
    }

    #[test]
    fn differential_against_reference_heap() {
        for seed in 0..20 {
            differential_run(0xD1F_F000 + seed, 2_000);
        }
    }

    #[test]
    fn differential_heavy_same_instant_ties() {
        // Bursts of same-instant pushes interleaved with partial drains —
        // the pattern the engine produces with zero-delay Step events —
        // half of them landing on an instant the lane holds arrivals at.
        let mut rng = SplitMix64::new(99);
        let mut lane_at = Vec::new();
        let mut at = 0;
        for _ in 0..300 {
            at += rng.next_u64() % 2_000_000;
            for _ in 0..1 + rng.next_u64() % 4 {
                lane_at.push(at);
            }
        }
        let mut round = 0;
        let ops = script(|now, ops| {
            let now = now.as_nanos();
            if round == 0 {
                // Arrivals in client order: not sorted by time.
                let mut order = lane_at.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                ops.extend(order.into_iter().map(Op::Lane));
                ops.push(Op::Seal);
            }
            round += 1;
            let burst = 1 + rng.next_u64() % 40;
            let at = match lane_at.iter().find(|&&t| t >= now) {
                Some(&t) if rng.next_below(2) == 0 => t,
                _ => now + rng.next_u64() % 2_000_000,
            };
            ops.extend((0..burst).map(|_| Op::Push(at)));
            ops.extend((0..rng.next_u64() % (burst + 2)).map(|_| Op::Pop));
            round < 200
        });
        check_script(&ops, "heavy ties");
    }

    #[test]
    fn bitmap_word_edges_match_reference() {
        // Each round fills one window at bucket edges relative to its
        // start `s` — both sides of the occupancy-word edges 63/64 and
        // 4031/4032 (summary bits 0/1 and 62/63), bucket 4095, the last
        // in-window nanosecond `s + WINDOW_NS - 1` — then pops through
        // it, re-pushing at the popped instant halfway. The round's one
        // overflow event (`s + WINDOW_NS`, or a later bucket edge) starts
        // the next window, whose first pushes land right after the
        // advance. Word sets vary so a stale or missing summary bit, or
        // a search that lands one word or bucket off, meets an occupied
        // or empty word it would misread.
        const ROUNDS: [(&[u64], u64); 6] = [
            (&[63, 64, 4031, 4032, 4095], 0),
            (&[0, 64, 4095], 1),
            (&[0, 4032], 63),
            (&[1, 63, 4031, 4033], 64),
            (&[62, 65, 4030, 4094], 4031),
            (&[0, 63, 64, 4031, 4032, 4095], 0),
        ];
        let mut call = 0;
        let ops = script(|now, ops| {
            let now = now.as_nanos();
            let (buckets, next_k) = ROUNDS[call / 2];
            // Events the round puts in its own window: two per bucket plus
            // the last in-window nanosecond.
            let in_window = 2 * buckets.len() + 1;
            if call % 2 == 0 {
                // `now` is the window start (bucket-aligned anchor).
                let s = now;
                if call == 0 {
                    ops.push(Op::Push(s + 100 * WINDOW_NS)); // stays in overflow
                }
                for &b in buckets {
                    ops.push(Op::Push(s + b * BUCKET_NS));
                    ops.push(Op::Push(s + (b + 1) * BUCKET_NS - 1));
                }
                ops.push(Op::Push(s + WINDOW_NS - 1));
                ops.push(Op::Push(s + WINDOW_NS + next_k * BUCKET_NS));
                ops.extend((0..in_window / 2).map(|_| Op::Pop));
            } else {
                // Same-instant re-push into the bucket just popped, then
                // drain the window and pop the overflow anchor (advance).
                ops.push(Op::Push(now));
                ops.extend((0..in_window - in_window / 2 + 2).map(|_| Op::Pop));
            }
            call += 1;
            call < 2 * ROUNDS.len()
        });
        check_script(&ops, "bitmap word edges");
    }

    #[test]
    fn engine_delay_mix_mostly_stays_in_the_window() {
        // A steady in-flight population whose delays follow the engine's
        // measured push-delay mix (module docs): 131–262 µs and 262–524 µs
        // network legs, 0.5–1 ms lock holds, 1–2 ms compute, a 12 ms
        // nested-call tail. Only the tail and pushes past the window's
        // far edge may reach the overflow heap; a 262 µs window sends
        // over nine in ten there.
        let mut rng = SplitMix64::new(0x7135);
        let mut delay = move || {
            let (lo, span) = match rng.next_below(100) {
                0..=29 => (131_072, 131_072),
                30..=91 => (262_144, 262_144),
                92..=95 => (524_288, 524_288),
                96..=98 => (1_048_576, 1_048_576),
                _ => (12_000_000, 500_000),
            };
            SimDuration::from_nanos(lo + rng.next_below(span))
        };
        const IN_FLIGHT: u64 = 96;
        const PUSHES: u64 = 100_000;
        let mut q: EventQueue<()> = EventQueue::new();
        for _ in 0..IN_FLIGHT {
            q.push_after(delay(), ());
        }
        for _ in IN_FLIGHT..PUSHES {
            q.pop().expect("steady population");
            q.push_after(delay(), ());
        }
        let share = q.overflow_inserts as f64 / PUSHES as f64;
        assert!(
            share < 0.25,
            "{:.1} % of pushes reached the overflow heap",
            100.0 * share
        );
    }

    #[test]
    fn lane_keeps_the_slab_at_the_in_flight_high_water_mark() {
        // 100 000 arrivals, one every 100 µs, each spawning one ordinary
        // event 300 µs later: at most 3–4 ordinary events
        // are ever pending, and the slab must stay that small — arrivals
        // never enter it.
        const N: u64 = 100_000;
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..N {
            q.push_lane(SimTime::from_nanos(i * 100_000), i);
        }
        q.seal_lane();
        let (mut arrivals, mut pending) = (0, 0);
        while let Some((_, e)) = q.pop() {
            if e < N {
                arrivals += 1;
                pending += 1;
                q.push_after(SimDuration::from_micros(300), N + e);
            } else {
                pending -= 1;
            }
            assert!(pending <= 8, "{pending} ordinary events pending");
        }
        assert_eq!(arrivals, N);
        assert!(
            q.nodes.len() <= 8,
            "slab grew to {} nodes for at most 8 pending events",
            q.nodes.len()
        );
    }

    #[test]
    fn lane_and_calendar_tie_by_insertion_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push_at(t, "cal-0");
        q.push_lane(t, "lane-1");
        q.push_at(t, "cal-2");
        q.push_lane(SimTime::from_nanos(3), "lane-early");
        q.push_lane(t, "lane-4");
        q.seal_lane();
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["lane-early", "cal-0", "lane-1", "cal-2", "lane-4"]
        );
        q.push_lane(t, "after-clear");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
