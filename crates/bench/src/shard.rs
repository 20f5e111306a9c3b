//! **shard** — the sharded-engine experiment behind `BENCH_shard.json`.
//!
//! Three questions, one artifact:
//!
//! 1. *Is the partition/merge machinery deterministic?* The same
//!    sharded open-loop workload runs once per shard worker count and
//!    every virtual-time projection of the merged result (completion
//!    counts, makespan, latency percentiles, per-group event counts, a
//!    hash of the merged latency stream) must be identical — the
//!    partition is fixed by the group list, never by the worker count.
//! 2. *How much intra-run parallelism does the partition expose?* The
//!    deterministic `balance_bound` — total simulated events divided by
//!    the heaviest worker's events under the contiguous-chunk
//!    assignment — is the speedup a perfectly parallel host could
//!    reach. `figures shard` prints the measured per-worker wall and
//!    merge times to stderr; they never enter the artifact.
//! 3. *What does the cross-shard path cost?* A relay ring
//!    ([`dmt_workload::relay`]) routes every request through a typed
//!    cross-shard call + reply, and the artifact records the resulting
//!    message and epoch-barrier counts, again pinned identical across
//!    worker counts.
//!
//! Everything in the artifact is derived from virtual time and integer
//! counters, so the file is byte-identical across reruns and shard
//! worker counts (`crates/bench/tests/shard_determinism.rs` holds it to
//! that).

use crate::table::Table;
use dmt_core::SchedulerKind;
use dmt_replica::{run_sharded, EngineConfig, ShardedRunResult};
use dmt_workload::openloop::{self, OpenLoopParams};
use dmt_workload::relay::{self, RelayParams};

/// The experiment configuration.
#[derive(Clone, Debug)]
pub struct ShardGrid {
    /// Total open-loop clients across all groups (the ROADMAP's
    /// million-client direction: the full grid runs 100 000).
    pub n_clients: usize,
    pub requests_per_client: usize,
    /// Number of shard groups the object space is partitioned into.
    pub n_groups: usize,
    /// Aggregate offered load, requests per virtual second.
    pub offered_rps: f64,
    pub read_fraction: f64,
    /// Shard worker counts to run (each must yield identical bytes).
    pub worker_counts: Vec<usize>,
    pub kind: SchedulerKind,
    /// The routed (cross-shard message) demo ring.
    pub relay: RelayParams,
}

impl Default for ShardGrid {
    fn default() -> Self {
        ShardGrid {
            n_clients: 100_000,
            requests_per_client: 1,
            n_groups: 16,
            offered_rps: 200_000.0,
            read_fraction: 0.9,
            worker_counts: vec![1, 2, 4, 8],
            kind: SchedulerKind::Mat,
            relay: RelayParams {
                clients_per_group: 8,
                requests_per_client: 5,
                ..RelayParams::default()
            },
        }
    }
}

impl ShardGrid {
    /// A small grid for smoke runs (`figures shard --quick`).
    pub fn quick() -> Self {
        ShardGrid {
            n_clients: 2_000,
            requests_per_client: 1,
            n_groups: 8,
            offered_rps: 4_000.0,
            read_fraction: 0.9,
            worker_counts: vec![1, 4],
            kind: SchedulerKind::Mat,
            relay: RelayParams::default(),
        }
    }

    fn params(&self) -> OpenLoopParams {
        OpenLoopParams {
            n_clients: self.n_clients,
            requests_per_client: self.requests_per_client,
            ..OpenLoopParams::default()
        }
        .with_offered_rps(self.offered_rps)
        .with_read_fraction(self.read_fraction)
        .with_seed(9001)
    }
}

/// Per-worker-count measurements. `balance_bound` is deterministic;
/// the wall/merge clocks are not and stay out of the artifact.
#[derive(Clone, Debug)]
pub struct ShardWorkerRow {
    pub workers: usize,
    pub balance_bound: f64,
    pub wall_ms: f64,
    pub merge_ms: f64,
}

/// The routed (cross-shard message) demo result.
#[derive(Clone, Debug)]
pub struct RoutedReport {
    pub n_groups: usize,
    pub completed: u64,
    pub shard_msgs: u64,
    pub epochs: u64,
    pub makespan_ns: u64,
}

/// Everything `BENCH_shard.json` is rendered from.
#[derive(Clone, Debug)]
pub struct ShardReport {
    pub completed: u64,
    pub makespan_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub mean_ns: f64,
    pub events_total: u64,
    pub events_per_group: Vec<u64>,
    pub latency_stream_hash: u64,
    /// Merged results were identical for every entry of
    /// `worker_counts` (asserted during the run as well).
    pub identical_across_worker_counts: bool,
    pub rows: Vec<ShardWorkerRow>,
    pub routed: RoutedReport,
}

/// The deterministic projection of a merged run: everything virtual,
/// nothing host-timed. Two runs of the same partition must agree on
/// this exactly, whatever the worker count.
fn projection(res: &ShardedRunResult) -> (u64, u64, u64, u64, u64, u64, Vec<u64>, u64) {
    (
        res.completed_requests,
        res.makespan.as_nanos(),
        res.latency_ns().p50_ns().unwrap_or(0),
        res.latency_ns().p95_ns().unwrap_or(0),
        res.latency_ns().p99_ns().unwrap_or(0),
        res.shard_msgs,
        res.events_per_group.clone(),
        latency_hash(res),
    )
}

/// FNV-1a over the merged latency stream — order-sensitive, so it pins
/// the total-order merge, not just the multiset of latencies.
fn latency_hash(res: &ShardedRunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for (g, l) in &res.latencies {
        mix(*g as u64);
        mix(l.id.client as u64);
        mix(l.id.req_no as u64);
        mix(l.enqueued.as_nanos());
        mix(l.replied.as_nanos());
    }
    h
}

/// Runs the experiment: the sharded open-loop workload once per worker
/// count (asserting merged-result identity), then the routed relay ring
/// at one and two workers (same assertion).
pub fn shard_experiment(grid: &ShardGrid) -> ShardReport {
    let p = grid.params();
    let scenarios: Vec<_> = openloop::sharded_scenarios(&p, grid.n_groups)
        .iter()
        .map(|pair| pair.for_kind(grid.kind))
        .collect();
    let mut rows = Vec::new();
    let mut base: Option<(ShardedRunResult, _)> = None;
    let mut identical = true;
    for &w in &grid.worker_counts {
        let cfg = EngineConfig::new(grid.kind)
            .with_seed(7)
            .with_cpu_jitter(0.05)
            .with_shards(w);
        let res = run_sharded(scenarios.clone(), &cfg, None);
        assert!(!res.deadlocked, "sharded open-loop stalled at {w} workers");
        let key = projection(&res);
        rows.push(ShardWorkerRow {
            workers: w,
            balance_bound: res.balance_bound(w),
            wall_ms: res.wall_ns as f64 / 1e6,
            merge_ms: res.merge_ns as f64 / 1e6,
        });
        match &base {
            None => base = Some((res, key)),
            Some((_, base_key)) => {
                assert_eq!(
                    &key, base_key,
                    "merged result diverged between 1 and {w} shard workers"
                );
                identical &= &key == base_key;
            }
        }
    }
    let (res, _) = base.expect("worker_counts must not be empty");
    if grid.n_groups >= 4 {
        let bound = res.balance_bound(4);
        assert!(
            bound > 1.3,
            "partition exposes only {bound:.2}x at 4 workers — shard imbalance"
        );
    }

    // The routed ring: every request crosses shards, so this prices the
    // typed-message path and pins its worker-count independence.
    let relay_scs: Vec<_> = relay::scenarios(&grid.relay)
        .iter()
        .map(|pair| pair.for_kind(grid.kind))
        .collect();
    let mut routed_base: Option<(ShardedRunResult, _)> = None;
    for w in [1usize, 2] {
        let cfg = EngineConfig::new(grid.kind).with_seed(7).with_shards(w);
        let res = run_sharded(relay_scs.clone(), &cfg, Some(relay::routing(&grid.relay)));
        assert!(!res.deadlocked, "relay ring stalled at {w} workers");
        let key = projection(&res);
        match &routed_base {
            None => routed_base = Some((res, key)),
            Some((_, base_key)) => {
                assert_eq!(&key, base_key, "routed ring diverged at {w} workers");
            }
        }
    }
    let (routed_res, _) = routed_base.expect("routed runs");
    assert_eq!(
        routed_res.completed_requests,
        grid.relay.total_requests() as u64
    );

    ShardReport {
        completed: res.completed_requests,
        makespan_ns: res.makespan.as_nanos(),
        p50_ns: res.latency_ns().p50_ns().unwrap_or(0),
        p95_ns: res.latency_ns().p95_ns().unwrap_or(0),
        p99_ns: res.latency_ns().p99_ns().unwrap_or(0),
        mean_ns: res.latency_ns().mean_ns(),
        events_total: res.events_per_group.iter().sum(),
        events_per_group: res.events_per_group.clone(),
        latency_stream_hash: latency_hash(&res),
        identical_across_worker_counts: identical,
        rows,
        routed: RoutedReport {
            n_groups: grid.relay.n_groups,
            completed: routed_res.completed_requests,
            shard_msgs: routed_res.shard_msgs,
            epochs: routed_res.epochs,
            makespan_ns: routed_res.makespan.as_nanos(),
        },
    }
}

/// The printable summary.
pub fn shard_table(report: &ShardReport) -> Table {
    let mut t = Table::new(
        "Sharded engine: merged-result determinism and intra-run parallelism",
        &["shard workers", "balance bound", "identical"],
    );
    for r in &report.rows {
        t.push_row(vec![
            r.workers.to_string(),
            format!("{:.2}x", r.balance_bound),
            if report.identical_across_worker_counts {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t
}

/// Serialises the report as `BENCH_shard.json`: virtual-time-derived
/// and byte-stable, with no host timing.
pub fn shard_json(grid: &ShardGrid, report: &ShardReport) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"shard\",\n");
    j.push_str(&format!(
        "  \"workload\": {{\"n_clients\": {}, \"requests_per_client\": {}, \"n_groups\": {}, \"offered_rps\": {:.0}, \"read_fraction\": {:.2}, \"scheduler\": \"{}\", \"worker_counts\": {:?}}},\n",
        grid.n_clients,
        grid.requests_per_client,
        grid.n_groups,
        grid.offered_rps,
        grid.read_fraction,
        grid.kind.name(),
        grid.worker_counts,
    ));
    j.push_str("  \"note\": \"merged sharded runs; every field is virtual-time-derived and byte-identical across reruns and shard worker counts; balance_bound = total events / heaviest worker's events under the contiguous-chunk assignment (the deterministic intra-run speedup bound; figures shard prints the measured wall-clock to stderr)\",\n");
    j.push_str("  \"deterministic\": {\n");
    j.push_str(&format!(
        "    \"completed\": {}, \"makespan_ns\": {},\n",
        report.completed, report.makespan_ns
    ));
    j.push_str(&format!(
        "    \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {:.1},\n",
        report.p50_ns, report.p95_ns, report.p99_ns, report.mean_ns
    ));
    j.push_str(&format!(
        "    \"events_total\": {},\n    \"events_per_group\": {:?},\n",
        report.events_total, report.events_per_group
    ));
    j.push_str(&format!(
        "    \"latency_stream_hash\": \"{:016x}\",\n",
        report.latency_stream_hash
    ));
    j.push_str("    \"balance_bound\": {");
    for (i, r) in report.rows.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{}\": {:.2}", r.workers, r.balance_bound));
    }
    j.push_str("},\n");
    j.push_str(&format!(
        "    \"identical_across_worker_counts\": {}\n  }},\n",
        report.identical_across_worker_counts
    ));
    j.push_str(&format!(
        "  \"routed\": {{\"n_groups\": {}, \"completed\": {}, \"shard_msgs\": {}, \"epochs\": {}, \"makespan_ns\": {}}}\n",
        report.routed.n_groups,
        report.routed.completed,
        report.routed.shard_msgs,
        report.routed.epochs,
        report.routed.makespan_ns,
    ));
    j.push_str("}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ShardGrid {
        ShardGrid {
            n_clients: 64,
            requests_per_client: 1,
            n_groups: 8,
            offered_rps: 500.0,
            read_fraction: 0.9,
            worker_counts: vec![1, 3],
            kind: SchedulerKind::Mat,
            relay: RelayParams {
                clients_per_group: 1,
                requests_per_client: 1,
                ..RelayParams::default()
            },
        }
    }

    #[test]
    fn report_is_deterministic_and_balanced() {
        let grid = tiny();
        let a = shard_experiment(&grid);
        let b = shard_experiment(&grid);
        assert!(a.identical_across_worker_counts);
        assert_eq!(a.completed, 64);
        assert_eq!(a.events_per_group.len(), 8);
        assert_eq!(a.latency_stream_hash, b.latency_stream_hash);
        assert_eq!(a.events_per_group, b.events_per_group);
        // 8 near-equal groups must expose well over the 1.3x floor.
        let r3 = a.rows.iter().find(|r| r.workers == 3).unwrap();
        assert!(r3.balance_bound > 1.3, "bound {:.2}", r3.balance_bound);
        // Relay ring: one call + one reply per request.
        assert_eq!(a.routed.shard_msgs, 2 * a.routed.completed);
    }

    #[test]
    fn json_is_byte_stable() {
        let grid = tiny();
        let a = shard_json(&grid, &shard_experiment(&grid));
        let b = shard_json(&grid, &shard_experiment(&grid));
        assert_eq!(a, b);
        assert!(a.contains("\"latency_stream_hash\""));
    }
}
