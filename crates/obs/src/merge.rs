//! Deterministic merge of per-shard observability streams.
//!
//! A sharded run produces one decision trace per group engine, in
//! recording order. That order is *not* sorted by time stamp: the
//! engine stamps a `RequestReplied` record with the instant the reply
//! reaches the client (now plus the reply leg), which is later than the
//! records it writes after it. Sorting all records under the total order
//! `(t_ns, group, within-group index)` yields a single time-ordered
//! stream that is a pure function of the per-group streams —
//! independent of how many worker threads produced them or in which
//! wall-clock order the shards finished. Because a group's stream is
//! not itself sorted, a k-way merge of the group heads would not do. Metrics
//! snapshots merge commutatively (`MetricsSnapshot::merge`: counters
//! add, gauges max), so the observability layer as a whole commutes
//! with sharding.

use crate::trace::TraceRecord;

/// Merges per-group traces into one totally ordered stream.
///
/// Replica ids are remapped to a global space (`group * n_replicas +
/// replica`) so records stay attributable after the merge;
/// [`TraceRecord::NO_REPLICA`] (sequencer/client records) is preserved.
/// The order is `(t_ns, group, within-group index)`: sorting that key
/// moves each group's late-stamped records into place and keeps its
/// recording order for same-instant records, so the result is sorted by
/// time and never depends on shard completion order. The key is total,
/// so an unstable sort of compact 16-byte keys gives the stable order
/// without a merge sort's scratch, and each record is copied once, by
/// the final gather.
/// Groups may be owned buffers or borrowed slices (`&[&[TraceRecord]]`),
/// so a caller that keeps its per-group traces need not copy them.
pub fn merge_group_traces<G: AsRef<[TraceRecord]>>(
    groups: &[G],
    n_replicas: u32,
) -> Vec<TraceRecord> {
    let total: usize = groups.iter().map(|g| g.as_ref().len()).sum();
    let mut keys: Vec<(u64, u32, u32)> = Vec::with_capacity(total);
    for (g, recs) in groups.iter().enumerate() {
        let recs = recs.as_ref();
        assert!(recs.len() <= u32::MAX as usize, "group trace too long");
        let g = g as u32;
        keys.extend(recs.iter().enumerate().map(|(i, r)| (r.t_ns, g, i as u32)));
    }
    keys.sort_unstable();
    keys.into_iter()
        .map(|(_, g, i)| {
            let mut r = groups[g as usize].as_ref()[i as usize];
            if r.replica != TraceRecord::NO_REPLICA {
                r.replica += g * n_replicas;
            }
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use dmt_core::{Decision, ThreadId};
    use dmt_lang::MutexId;

    fn rec(t_ns: u64, replica: u32, tid: u32) -> TraceRecord {
        TraceRecord {
            t_ns,
            replica,
            ev: TraceEvent::Sched(Decision::Grant {
                tid: ThreadId::new(tid),
                mutex: MutexId::new(0),
                from_wait: false,
            }),
        }
    }

    #[test]
    fn merge_orders_by_time_then_group_then_index() {
        let g0 = vec![rec(10, 0, 1), rec(20, 1, 2), rec(20, 1, 3)];
        let g1 = vec![rec(5, 0, 4), rec(20, 2, 5)];
        let merged = merge_group_traces(&[g0, g1], 3);
        let tids: Vec<u32> = merged
            .iter()
            .map(|r| match r.ev {
                TraceEvent::Sched(Decision::Grant { tid, .. }) => tid.index() as u32,
                _ => unreachable!(),
            })
            .collect();
        // t=5 (g1) first; t=20 ties: group 0's two records in recording
        // order, then group 1's.
        assert_eq!(tids, vec![4, 1, 2, 3, 5]);
        // Replica remap: group 1, replica 2 → 1*3+2 = 5.
        assert_eq!(merged[4].replica, 5);
        assert_eq!(merged[1].replica, 0);
    }

    #[test]
    fn out_of_order_group_records_are_sorted_into_place() {
        // Group 0 recorded a reply stamped at t=30 before its t=20
        // record, as the engine does for `RequestReplied`; a merge of
        // group heads would emit 30 before group 1's 25.
        let g0 = vec![rec(10, 0, 1), rec(30, 0, 2), rec(20, 0, 3)];
        let g1 = vec![rec(25, 0, 4)];
        let merged = merge_group_traces(&[g0, g1], 3);
        let times: Vec<u64> = merged.iter().map(|r| r.t_ns).collect();
        assert_eq!(times, vec![10, 20, 25, 30]);
    }

    #[test]
    fn sentinel_replica_survives_remap() {
        let g1 = vec![rec(1, TraceRecord::NO_REPLICA, 1)];
        let merged = merge_group_traces(&[Vec::new(), g1], 3);
        assert_eq!(merged[0].replica, TraceRecord::NO_REPLICA);
    }

    #[test]
    fn merge_is_a_pure_function_of_group_streams() {
        // Shard completion order / worker count can never reorder the
        // merge inputs (they are indexed by group), but double-check the
        // result is reproducible across repeated merges.
        let groups = vec![
            vec![rec(3, 0, 1), rec(3, 0, 2)],
            vec![rec(3, 1, 3)],
            vec![rec(1, 0, 4), rec(9, 2, 5)],
        ];
        let a = merge_group_traces(&groups, 3);
        let b = merge_group_traces(&groups, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }
}
