//! Execution traces and the replica-divergence comparison.
//!
//! Replica consistency is the paper's whole point, so the engine records
//! what each replica actually did: the global monitor-acquisition order,
//! the per-mutex acquisition orders, and the final state hash. Two
//! replicas *converge* when their states agree and their traces agree at
//! the granularity the scheduler guarantees (global order for most
//! algorithms; per-mutex order for PMAT, whose non-conflicting grants may
//! interleave freely — see `dmt_core::pmat`).

use dmt_core::ThreadId;
use dmt_lang::MutexId;
use std::collections::BTreeMap;

/// What one replica did during a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Every monitor acquisition (fresh or re-acquisition), in grant order.
    pub lock_order: Vec<(ThreadId, MutexId)>,
    /// Final replicated-state hash.
    pub state_hash: u64,
    /// Requests this replica completed.
    pub finished_threads: u64,
}

impl ExecutionTrace {
    /// Per-mutex acquisition orders derived from the global trace.
    pub fn per_mutex(&self) -> BTreeMap<MutexId, Vec<ThreadId>> {
        let mut map: BTreeMap<MutexId, Vec<ThreadId>> = BTreeMap::new();
        for &(tid, m) in &self.lock_order {
            map.entry(m).or_default().push(tid);
        }
        map
    }
}

/// How strictly two traces must match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchLevel {
    /// Identical global lock order (SEQ, SAT, LSA, PDS, MAT, MAT-LL).
    GlobalOrder,
    /// Identical per-mutex orders and state (PMAT).
    PerMutexOrder,
}

/// A detected divergence between two replicas.
#[derive(Clone, Debug, PartialEq)]
pub enum Divergence {
    StateHash { a: u64, b: u64 },
    FinishedCount { a: u64, b: u64 },
    GlobalOrder { position: usize },
    PerMutexOrder { mutex: MutexId },
}

/// Compares two replica traces at the requested strictness. `None` means
/// the replicas are consistent.
pub fn compare(a: &ExecutionTrace, b: &ExecutionTrace, level: MatchLevel) -> Option<Divergence> {
    if a.finished_threads != b.finished_threads {
        return Some(Divergence::FinishedCount {
            a: a.finished_threads,
            b: b.finished_threads,
        });
    }
    if a.state_hash != b.state_hash {
        return Some(Divergence::StateHash {
            a: a.state_hash,
            b: b.state_hash,
        });
    }
    match level {
        MatchLevel::GlobalOrder => {
            if a.lock_order != b.lock_order {
                let position = a
                    .lock_order
                    .iter()
                    .zip(&b.lock_order)
                    .position(|(x, y)| x != y)
                    .unwrap_or_else(|| a.lock_order.len().min(b.lock_order.len()));
                return Some(Divergence::GlobalOrder { position });
            }
        }
        MatchLevel::PerMutexOrder => {
            let pa = a.per_mutex();
            let pb = b.per_mutex();
            if pa.len() != pb.len() {
                let mutex = pa
                    .keys()
                    .chain(pb.keys())
                    .find(|m| pa.get(m) != pb.get(m))
                    .copied()
                    .expect("maps differ");
                return Some(Divergence::PerMutexOrder { mutex });
            }
            for (m, seq_a) in &pa {
                if pb.get(m) != Some(seq_a) {
                    return Some(Divergence::PerMutexOrder { mutex: *m });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u32) -> ThreadId {
        ThreadId::new(v)
    }
    fn m(v: u32) -> MutexId {
        MutexId::new(v)
    }

    fn trace(pairs: &[(u32, u32)], hash: u64) -> ExecutionTrace {
        let mut tr = ExecutionTrace {
            state_hash: hash,
            finished_threads: 2,
            ..Default::default()
        };
        for &(tid, mx) in pairs {
            tr.lock_order.push((t(tid), m(mx)));
        }
        tr
    }

    #[test]
    fn identical_traces_converge() {
        let a = trace(&[(0, 1), (1, 1)], 7);
        let b = trace(&[(0, 1), (1, 1)], 7);
        assert_eq!(compare(&a, &b, MatchLevel::GlobalOrder), None);
        assert_eq!(compare(&a, &b, MatchLevel::PerMutexOrder), None);
    }

    #[test]
    fn state_mismatch_detected_first() {
        let a = trace(&[(0, 1)], 7);
        let b = trace(&[(0, 1)], 8);
        assert_eq!(
            compare(&a, &b, MatchLevel::GlobalOrder),
            Some(Divergence::StateHash { a: 7, b: 8 })
        );
    }

    #[test]
    fn global_order_mismatch_located() {
        let a = trace(&[(0, 1), (1, 2), (2, 3)], 7);
        let b = trace(&[(0, 1), (2, 3), (1, 2)], 7);
        assert_eq!(
            compare(&a, &b, MatchLevel::GlobalOrder),
            Some(Divergence::GlobalOrder { position: 1 })
        );
    }

    #[test]
    fn per_mutex_tolerates_cross_mutex_interleaving() {
        // Same per-mutex orders, different global interleaving: PMAT-ok.
        let a = trace(&[(0, 1), (1, 2), (2, 1)], 7);
        let b = trace(&[(1, 2), (0, 1), (2, 1)], 7);
        assert!(compare(&a, &b, MatchLevel::GlobalOrder).is_some());
        assert_eq!(compare(&a, &b, MatchLevel::PerMutexOrder), None);
    }

    #[test]
    fn per_mutex_violation_detected() {
        let a = trace(&[(0, 1), (1, 1)], 7);
        let b = trace(&[(1, 1), (0, 1)], 7);
        assert_eq!(
            compare(&a, &b, MatchLevel::PerMutexOrder),
            Some(Divergence::PerMutexOrder { mutex: m(1) })
        );
    }

    #[test]
    fn finished_count_mismatch() {
        let mut a = trace(&[], 7);
        a.finished_threads = 3;
        let b = trace(&[], 7);
        assert_eq!(
            compare(&a, &b, MatchLevel::GlobalOrder),
            Some(Divergence::FinishedCount { a: 3, b: 2 })
        );
    }
}
