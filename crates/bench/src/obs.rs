//! **obs** — queue depth and network traffic per scheduler.
//!
//! For every `(clients, scheduler)` grid point one full cluster
//! simulation runs the Figure-1 workload with tracing on, and each
//! replica's records fold into its queue depth ([`dmt_obs::QueueDepth`]):
//! the population of parked threads over virtual time, each thread in one
//! phase at a time — admission, the scheduler's own gate (MAT's token,
//! LSA's announcement order, the PDS round barrier, PMAT's prediction,
//! SAT's single active slot), monitor contention, condition wait. A
//! parked thread is live, so no parked figure can exceed the live
//! threads. A row reports the deepest replica (largest parked integral):
//! replicas of a symmetric scheduler differ only by jitter, but LSA's
//! leader never waits for an announcement and its followers do. The
//! group-comm traffic counters beside them are the paper's
//! §3.5 broadcast-load comparison, measured per scheduler.
//!
//! Every value is an integer or a ratio of integers derived from virtual
//! time, so the artifact is byte-identical across reruns and sweep
//! worker counts; `crates/bench/tests/obs_determinism.rs` holds it to
//! that. A cell whose trace buffer dropped a record fails the sweep: a
//! missing record would silently bend the populations.

use crate::experiments::{fig1_cell, run_jobs_prioritized, ALL_KINDS};
use crate::schema::{col, cols::*, json_doc, json_kinds, Fmt::*, Rows, Schema, Src::*, Value};
use dmt_obs::{QueueDepth, PHASES};
use dmt_replica::EngineConfig;
use std::cmp::Reverse;

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

/// One row per grid point and scheduler, from the queue depth of
/// `replica`, the deepest one. `live_max` is the most threads alive at
/// once on it (arrived, unfinished; PDS dummies included). `parked_*`
/// is the parked population in any phase, then one mean/max pair per
/// phase; means are time-weighted over the busy window (`window_ns`,
/// first arrival to last change).
#[rustfmt::skip]
static OBS: Schema = Schema {
    title: "Observability: parked threads by phase & net traffic vs load (3 replicas, LAN; deepest replica)",
    cols: &[
        col("clients",        Some("clients"),     Plain,  Plain,  Cell),
        SCHEDULER,
        col("replica",        Some("rep"),         Plain,  Plain,  Cell),
        col("window_ns",      None,                Plain,  Plain,  Cell),
        col("live_max",       Some("live max"),    Plain,  Plain,  Cell),
        col("parked_mean",    Some("parked mean"), Fix(3), Fix(2), Cell),
        col("parked_max",     Some("parked max"),  Plain,  Plain,  Cell),
        col("admission_mean", Some("admit mean"),  Fix(3), Fix(2), Cell),
        col("admission_max",  None,                Plain,  Plain,  Cell),
        col("gate_mean",      Some("gate mean"),   Fix(3), Fix(2), Cell),
        col("gate_max",       None,                Plain,  Plain,  Cell),
        col("monitor_mean",   Some("monitor mean"), Fix(3), Fix(2), Cell),
        col("monitor_max",    None,                Plain,  Plain,  Cell),
        col("cond_wait_mean", Some("cond mean"),   Fix(3), Fix(2), Cell),
        col("cond_wait_max",  None,                Plain,  Plain,  Cell),
        SUBMISSIONS,
        LEGS,
        DELIVERIES,
    ],
    table: None,
};

/// Runs the sweep on `threads` workers (1 = serial): one traced
/// Figure-1 cell per grid point and scheduler. Rows are slotted by grid
/// index, so the output is identical for any `threads`.
pub fn obs_experiment(grid: &ObsGrid, threads: usize) -> Rows {
    let kinds = ALL_KINDS;
    let rows = run_jobs_prioritized(
        grid.client_counts.len() * kinds.len(),
        threads,
        |job| grid.client_counts[job / kinds.len()],
        |job| {
            let n = grid.client_counts[job / kinds.len()];
            let kind = kinds[job % kinds.len()];
            let res = fig1_cell(
                n,
                grid.requests_per_client,
                EngineConfig::new(kind).with_tracing(),
            );
            let dropped = res.metrics.counter("trace.dropped").unwrap_or(0);
            assert_eq!(dropped, 0, "{kind} at {n} clients dropped trace records");
            let d = (0..res.traces.len() as u32)
                .map(|r| QueueDepth::from_records(&res.trace_records, r))
                .max_by_key(|d| (d.parked.thread_ns, Reverse(d.replica)))
                .expect("a cluster has replicas");
            let mut cells = vec![
                Value::U(n as u64),
                Value::Kind(kind),
                Value::U(d.replica as u64),
                Value::U(d.window_ns()),
                Value::U(d.live.max as u64),
                Value::F(d.mean(d.parked)),
                Value::U(d.parked.max as u64),
            ];
            for phase in PHASES {
                let pop = d.phase(phase);
                cells.extend([Value::F(d.mean(pop)), Value::U(pop.max as u64)]);
            }
            OBS.row(&res.metrics, cells)
        },
    );
    Rows::new(&OBS, rows)
}

/// Serialises the sweep as the `BENCH_obs.json` artifact. Every value
/// is an integer or a ratio of integers derived from virtual time, so
/// the byte stream is reproducible across reruns and worker counts.
pub fn obs_json(grid: &ObsGrid, rows: &Rows) -> String {
    json_doc(&[
        ("experiment", "\"obs\"".into()),
        ("grid", format!(
            "{{\"client_counts\": {:?}, \"requests_per_client\": {}, \"schedulers\": {}}}",
            grid.client_counts,
            grid.requests_per_client,
            json_kinds(&ALL_KINDS),
        )),
        ("note", "\"the deepest replica's parked threads folded from its decision trace, one phase per thread at a time; means time-weighted over its busy window; byte-identical across reruns and sweep worker counts\"".into()),
        ("rows", rows.json_array()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;

    #[test]
    fn parked_threads_stay_within_the_live_ones_and_seq_queues_deepest() {
        let grid = ObsGrid {
            client_counts: vec![2, 8],
            requests_per_client: 3,
        };
        let rows = obs_experiment(&grid, 2);
        assert_eq!(rows.len(), 2 * ALL_KINDS.len());
        for r in rows.iter() {
            let kind = r.kind("scheduler");
            assert!(r.u64("window_ns") > 0, "{kind} has no busy window");
            assert!(r.u64("parked_max") <= r.u64("live_max"), "{kind}");
            for phase in PHASES {
                let max = r.u64(&format!("{}_max", phase.name()));
                assert!(max <= r.u64("parked_max"), "{kind} {}", phase.name());
            }
            // Closed loop: one request per client in flight, plus PDS
            // dummies.
            if kind != SchedulerKind::Pds {
                assert!(r.u64("live_max") <= r.u64("clients"), "{kind}");
            }
        }
        // SEQ admits one thread at a time: at 8 contended clients its
        // parked population must dwarf its own 2-client figure.
        let seq = |n: u64| {
            rows.iter()
                .find(|r| r.u64("clients") == n && r.kind("scheduler") == SchedulerKind::Seq)
                .unwrap()
                .f64("parked_mean")
        };
        assert!(
            seq(8) > 2.0 * seq(2),
            "SEQ parked mean {} !> 2 × {}",
            seq(8),
            seq(2)
        );
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
