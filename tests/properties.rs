//! Randomised tests over the substrate invariants. Formerly proptest;
//! now driven by the in-tree SplitMix64 so the suite runs with no
//! external dependencies (and with perfectly reproducible cases: every
//! failure message names the seed that produced it).

use dmt::core::{Grant, LockOutcome, SyncCore, ThreadId};
use dmt::lang::MutexId;
use dmt::sim::{EventQueue, SplitMix64};

const CASES: u64 = 64;

/// The event queue pops in nondecreasing time order, FIFO on ties,
/// and returns exactly what was pushed.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xE0E0 ^ case);
        let n = rng.next_range(1, 200) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.next_below(10_000)).collect();
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.push_at(dmt::sim::SimTime::from_nanos(d), i);
        }
        let mut popped = Vec::new();
        let mut last = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(t >= lt, "case {case}");
                if t == lt {
                    assert!(idx > lidx, "case {case}: ties must pop FIFO");
                }
            }
            last = Some((t, idx));
            popped.push(idx);
        }
        popped.sort_unstable();
        assert_eq!(popped, (0..delays.len()).collect::<Vec<_>>(), "case {case}");
    }
}

/// SplitMix64 streams are reproducible and splitting is stable.
#[test]
fn rng_streams_reproduce() {
    let mut meta = SplitMix64::new(0x5EED);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let label = meta.next_u64();
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        let mut ca = a.split(label);
        let mut cb = b.split(label);
        for _ in 0..32 {
            assert_eq!(ca.next_u64(), cb.next_u64(), "case {case}");
        }
    }
}

/// Jumping a stream by `k` lands where `k` draws do, so client `c`'s
/// stream `new(seed).jumped(c).split(c)` is what a generator splitting
/// clients `0..=c` off one root hands client `c`.
#[test]
fn rng_jump_equals_k_draws() {
    let mut meta = SplitMix64::new(0x1A4B);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let k = meta.next_below(500);
        let mut drawn = SplitMix64::new(seed);
        let mut split_root = SplitMix64::new(seed);
        for c in 0..k {
            drawn.next_u64();
            split_root.split(c);
        }
        let mut jumped = SplitMix64::new(seed).jumped(k);
        for _ in 0..8 {
            assert_eq!(jumped.next_u64(), drawn.next_u64(), "case {case}, k={k}");
        }
        let mut a = SplitMix64::new(seed).jumped(k).split(k);
        let mut b = split_root.split(k);
        assert_eq!(a.next_u64(), b.next_u64(), "case {case}, k={k}");
    }
}

/// next_below stays in range for arbitrary bounds.
#[test]
fn rng_bounds() {
    let mut meta = SplitMix64::new(0xB0B0);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let bound = meta.next_u64().max(1);
        let mut r = SplitMix64::new(seed);
        for _ in 0..16 {
            assert!(r.next_below(bound) < bound, "case {case}");
        }
    }
}

/// Monitor mechanics: applying a random op sequence never yields two
/// owners, never loses a thread, and full unwinding leaves the table
/// quiescent.
#[test]
fn sync_core_never_corrupts() {
    use std::collections::{HashMap, HashSet};

    fn apply_grants(
        grants: impl IntoIterator<Item = Grant>,
        held: &mut HashMap<(u32, u32), u32>,
        blocked: &mut HashSet<u32>,
        waiting: &mut HashSet<u32>,
    ) {
        for g in grants {
            blocked.remove(&g.tid.0);
            waiting.remove(&g.tid.0);
            *held.entry((g.tid.0, g.mutex.0)).or_insert(0) += 1;
        }
    }

    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC04E ^ case);
        let n_ops = rng.next_range(1, 300) as usize;
        let mut core = SyncCore::new(true);
        // Track how many times each thread must still unlock each mutex.
        let mut held: HashMap<(u32, u32), u32> = HashMap::new();
        let mut blocked: HashSet<u32> = HashSet::new();
        let mut waiting: HashSet<u32> = HashSet::new();

        for _ in 0..n_ops {
            let op = rng.next_below(6) as u32;
            let t = rng.next_below(4) as u32;
            let m = rng.next_below(3) as u32;
            if blocked.contains(&t) || waiting.contains(&t) {
                continue; // a blocked thread cannot issue operations
            }
            let tid = ThreadId::new(t);
            let mx = MutexId::new(m);
            match op {
                // lock
                0 | 1 => match core.lock(tid, mx) {
                    LockOutcome::Acquired => {
                        *held.entry((t, m)).or_insert(0) += 1;
                    }
                    LockOutcome::Queued => {
                        blocked.insert(t);
                    }
                },
                // unlock (if held)
                2 | 3 => {
                    if held.get(&(t, m)).copied().unwrap_or(0) > 0 {
                        *held.get_mut(&(t, m)).unwrap() -= 1;
                        let grants = core.unlock(tid, mx);
                        apply_grants(grants, &mut held, &mut blocked, &mut waiting);
                    }
                }
                // notify (if owner)
                4 => {
                    if core.holds(tid, mx) {
                        core.notify(tid, mx, t.is_multiple_of(2));
                    }
                }
                // wait (if owner)
                _ => {
                    if core.holds(tid, mx) {
                        held.remove(&(t, m));
                        waiting.insert(t);
                        let grants = core.wait(tid, mx);
                        apply_grants(grants, &mut held, &mut blocked, &mut waiting);
                    }
                }
            }
            // Invariant: owners recorded by the model own in the core.
            for (&(ht, hm), &count) in &held {
                if count > 0 {
                    assert_eq!(
                        core.owner(MutexId::new(hm)),
                        Some(ThreadId::new(ht)),
                        "case {case}"
                    );
                }
            }
        }

        // Unwind: notify everyone, then release everything we still hold,
        // granting queued threads until the table quiesces.
        let mut progress = true;
        while progress {
            progress = false;
            let holders: Vec<(u32, u32)> = held
                .iter()
                .filter(|&(_, &c)| c > 0)
                .map(|(&k, _)| k)
                .collect();
            for (t, m) in holders {
                let tid = ThreadId::new(t);
                let mx = MutexId::new(m);
                core.notify(tid, mx, true);
                *held.get_mut(&(t, m)).unwrap() -= 1;
                let grants = core.unlock(tid, mx);
                apply_grants(grants, &mut held, &mut blocked, &mut waiting);
                progress = true;
            }
        }
        // Whatever remains blocked is waiting on threads that never
        // locked (impossible) — the core must agree nothing is held.
        for (&(ht, hm), &count) in &held {
            assert_eq!(count, 0, "case {case}: thread {ht} still holds {hm}");
        }
    }
}
