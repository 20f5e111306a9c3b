//! **obs** — the queue-depth / runnable-set observability sweep.
//!
//! For every `(clients, scheduler)` grid point one full cluster
//! simulation runs the Figure-1 workload with the engine's depth
//! sampler enabled ([`EngineConfig::with_depth_sampling`]): after every
//! applied scheduler event, the per-scheduler [`dmt_core::DepthSample`]
//! is recorded into the run's metrics registry. The table and the
//! `BENCH_obs.json` artifact report per-point percentiles of the total
//! queued population and of the scheduler's own queue (for MAT that is
//! the token wait queue, for PDS the round pool, for LSA the follower
//! backlog), plus the group-comm traffic counters — the paper's §3.5
//! broadcast-load comparison, now measured per scheduler.
//!
//! Every value is derived from virtual time and integer bucket counts,
//! so the artifact is byte-identical across reruns and sweep worker
//! counts; `crates/bench/tests/obs_determinism.rs` holds it to that.

use crate::experiments::{fig1_cell, run_jobs_prioritized, ALL_KINDS};
use crate::schema::Value;
use crate::schema::{col, cols::*, json_doc, json_kinds, Fmt::*, Rows, Schema, Src::*, Stat::*};
use dmt_replica::EngineConfig;

/// The sweep grid: offered load is varied via the client count on the
/// contended Figure-1 workload; all seven schedulers run at each point.
#[derive(Clone, Debug)]
pub struct ObsGrid {
    pub client_counts: Vec<usize>,
    pub requests_per_client: usize,
}

impl Default for ObsGrid {
    fn default() -> Self {
        ObsGrid {
            client_counts: vec![2, 8, 24],
            requests_per_client: 4,
        }
    }
}

impl ObsGrid {
    /// A small grid for smoke runs (`figures obs --quick`).
    pub fn quick() -> Self {
        ObsGrid {
            client_counts: vec![2, 4],
            requests_per_client: 2,
        }
    }
}

const TOTAL: &str = "depth.total";
const QUEUE: &str = "depth.sched_queue";

/// One row per grid point and scheduler (virtual-time quantities only).
/// `samples` counts depth samples (= scheduler events applied). `depth`
/// is the total queued population: admission + lock queues + wait sets +
/// scheduler queue. `queue` is the scheduler's own queue (MAT/PMAT token
/// wait queue, PDS round pool, LSA follower backlog, SEQ pending-thread
/// queue). `wait_set_max` is the worst count of threads parked in
/// condition-wait sets.
#[rustfmt::skip]
static OBS: Schema = Schema {
    title: "Observability: queue depths & net traffic vs load (3 replicas, LAN)",
    cols: &[
        col("clients",      Some("clients"),     Plain, Plain, Cell),
        SCHEDULER,
        col("samples",      Some("samples"),     Plain, Plain, Hist(TOTAL, Count)),
        col("depth_p50",    Some("depth p50"),   Plain, Plain, Hist(TOTAL, P50)),
        col("depth_p95",    Some("depth p95"),   Plain, Plain, Hist(TOTAL, P95)),
        col("depth_max",    Some("depth max"),   Plain, Plain, Hist(TOTAL, Max)),
        col("queue_p50",    Some("queue p50"),   Plain, Plain, Hist(QUEUE, P50)),
        col("queue_p95",    Some("queue p95"),   Plain, Plain, Hist(QUEUE, P95)),
        col("queue_max",    Some("queue max"),   Plain, Plain, Hist(QUEUE, Max)),
        col("wait_set_max", Some("waitset max"), Plain, Plain, Hist("depth.wait_set", Max)),
        SUBMISSIONS,
        LEGS,
        DELIVERIES,
    ],
    table: None,
};

/// Runs the sweep on `threads` workers (1 = serial): one Figure-1 cell
/// with depth sampling on per grid point and scheduler. Rows are
/// slotted by grid index, so the output is identical for any `threads`.
pub fn obs_experiment(grid: &ObsGrid, threads: usize) -> Rows {
    let kinds = ALL_KINDS;
    let rows = run_jobs_prioritized(
        grid.client_counts.len() * kinds.len(),
        threads,
        |job| grid.client_counts[job / kinds.len()],
        |job| {
            let n = grid.client_counts[job / kinds.len()];
            let kind = kinds[job % kinds.len()];
            let cfg = EngineConfig::new(kind).with_depth_sampling();
            let res = fig1_cell(n, grid.requests_per_client, cfg);
            OBS.row(&res.metrics, vec![Value::U(n as u64), Value::Kind(kind)])
        },
    );
    Rows::new(&OBS, rows)
}

/// Serialises the sweep as the `BENCH_obs.json` artifact. Every value
/// is an integer derived from virtual time, so the byte stream is
/// reproducible across reruns and worker counts.
pub fn obs_json(grid: &ObsGrid, rows: &Rows) -> String {
    json_doc(&[
        ("experiment", "\"obs\"".into()),
        ("grid", format!(
            "{{\"client_counts\": {:?}, \"requests_per_client\": {}, \"schedulers\": {}}}",
            grid.client_counts,
            grid.requests_per_client,
            json_kinds(&ALL_KINDS),
        )),
        ("note", "\"queue-depth samples taken after every applied scheduler event; percentiles from the fixed-bucket log-scale histogram (upper bucket edge); byte-identical across reruns and sweep worker counts\"".into()),
        ("rows", rows.json_array()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;

    #[test]
    fn depth_grows_with_load_and_seq_queues_deepest() {
        let grid = ObsGrid {
            client_counts: vec![2, 8],
            requests_per_client: 3,
        };
        let rows = obs_experiment(&grid, 2);
        assert_eq!(rows.len(), 2 * ALL_KINDS.len());
        for r in rows.iter() {
            let kind = r.kind("scheduler");
            assert!(r.u64("samples") > 0, "{kind} took no depth samples");
            assert!(
                r.u64("depth_p50") <= r.u64("depth_p95")
                    && r.u64("depth_p95") <= r.u64("depth_max")
            );
        }
        // SEQ admits one thread at a time: at 8 contended clients its
        // total queued population must dwarf its own 2-client figure.
        let seq = |n: u64| {
            rows.iter()
                .find(|r| r.u64("clients") == n && r.kind("scheduler") == SchedulerKind::Seq)
                .unwrap()
                .u64("depth_max")
        };
        assert!(seq(8) > seq(2), "SEQ max depth {} !> {}", seq(8), seq(2));
        // LSA's broadcast-per-grant shows up as more legs than MAT's.
        let legs = |k: SchedulerKind| {
            rows.iter()
                .filter(|r| r.kind("scheduler") == k)
                .map(|r| r.u64("broadcast_legs"))
                .sum::<u64>()
        };
        assert!(legs(SchedulerKind::Lsa) > legs(SchedulerKind::Mat));
    }
}
