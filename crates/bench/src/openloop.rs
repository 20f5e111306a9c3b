//! **openloop** — the offered-load × read-mix latency-percentile sweep.
//!
//! For every grid point `(offered_rps, read_fraction)` and every
//! scheduler, one full cluster simulation runs the open-loop read/write
//! store of [`dmt_workload::openloop`] and reports client-observed
//! latency percentiles (p50/p95/p99) from the engine's fixed-bucket
//! log-scale histogram. Everything that reaches the table or
//! `BENCH_openloop.json` is derived from *virtual* time and integer
//! bucket counts — no wall clock — so the artifact is byte-identical
//! across reruns and across sweep worker counts; a regression test
//! (`crates/bench/tests/openloop_determinism.rs`) holds it to that.

use crate::experiments::{run_engine, run_jobs_prioritized, FIG1_KINDS};
use crate::schema::{col, cols::*, json_doc, json_kinds, Fmt::*, Rows, Schema, Src::*, Stat::*};
use crate::schema::{Value, LATENCY};
use dmt_core::SchedulerKind;
use dmt_replica::{EngineConfig, RunResult};
use dmt_workload::openloop::{self, OpenLoopParams};

/// The sweep grid. Defaults give 4 loads × 3 read mixes; `--quick`
/// uses [`OpenLoopGrid::quick`].
#[derive(Clone, Debug)]
pub struct OpenLoopGrid {
    /// Aggregate offered loads, requests per virtual second.
    pub offered_rps: Vec<f64>,
    /// Read fractions of the request mix.
    pub read_fractions: Vec<f64>,
    pub n_clients: usize,
    pub requests_per_client: usize,
    /// Schedulers run at every point (the paper's five by default).
    pub kinds: Vec<SchedulerKind>,
}

impl Default for OpenLoopGrid {
    fn default() -> Self {
        OpenLoopGrid {
            offered_rps: vec![100.0, 400.0, 1600.0, 6400.0],
            read_fractions: vec![0.5, 0.9, 1.0],
            n_clients: 8,
            requests_per_client: 25,
            kinds: FIG1_KINDS.to_vec(),
        }
    }
}

impl OpenLoopGrid {
    /// A small grid for smoke runs (`figures openloop --quick`).
    pub fn quick() -> Self {
        OpenLoopGrid {
            offered_rps: vec![200.0, 3200.0],
            read_fractions: vec![0.9],
            n_clients: 4,
            requests_per_client: 6,
            ..OpenLoopGrid::default()
        }
    }
}

/// One row per grid point and scheduler; all virtual-time quantities.
/// The `net.*` columns are the group-comm traffic: messages submitted
/// for ordering, sequencer broadcast fan-out legs, and in-order
/// deliveries — the §3.5 network-load view per scheduler.
#[rustfmt::skip]
static OPENLOOP: Schema = Schema {
    title: "Open loop: latency percentiles vs offered load × read mix (3 replicas, LAN)",
    cols: &[
        OFFERED,
        READ_FRAC,
        SCHEDULER,
        COMPLETED,
        col("p50_ns",      Some("p50 (ms)"),  Plain,  Ms,    Hist(LATENCY, P50)),
        col("p95_ns",      Some("p95 (ms)"),  Plain,  Ms,    Hist(LATENCY, P95)),
        col("p99_ns",      Some("p99 (ms)"),  Plain,  Ms,    Hist(LATENCY, P99)),
        col("mean_ns",     Some("mean (ms)"), Fix(1), Ms,    Hist(LATENCY, Mean)),
        col("max_ns",      None,              Plain,  Plain, Hist(LATENCY, Max)),
        MAKESPAN,
        SUBMISSIONS,
        LEGS,
        DELIVERIES,
    ],
    table: Some(&[
        "offered_rps", "read_fraction", "scheduler", "p50_ns", "p95_ns", "p99_ns", "mean_ns",
        "completed", "submissions", "broadcast_legs", "deliveries",
    ]),
};

/// Runs the sweep on `threads` sweep workers, each cluster run on
/// `shards` intra-run shard workers. Jobs are dispatched
/// highest-load-first (the congested points dominate wall-clock) but
/// results are slotted by grid index, so the row order — and every byte
/// derived from it — is the same for every `(threads, shards)`.
pub fn openloop_experiment(grid: &OpenLoopGrid, threads: usize, shards: usize) -> Rows {
    let kinds = &grid.kinds;
    let points = load_mix_points(&grid.offered_rps, &grid.read_fractions);
    let rows = run_jobs_prioritized(
        points.len() * kinds.len(),
        threads,
        // Offered load in milli-requests/s as the length proxy.
        |job| (points[job / kinds.len()].0 * 1e3) as u64,
        |job| {
            let (rps, rf) = points[job / kinds.len()];
            let kind = kinds[job % kinds.len()];
            let cfg = EngineConfig::new(kind).with_shards(shards);
            let res = openloop_cell(grid.n_clients, grid.requests_per_client, rps, rf, cfg);
            let cells = vec![Value::F(rps), Value::F(rf), Value::Kind(kind)];
            OPENLOOP.row(&res.metrics, cells)
        },
    );
    Rows::new(&OPENLOOP, rows)
}

/// Every (offered load, read fraction) pair, load-major.
pub(crate) fn load_mix_points(offered_rps: &[f64], read_fractions: &[f64]) -> Vec<(f64, f64)> {
    let point = |rps| read_fractions.iter().map(move |&rf| (rps, rf));
    offered_rps.iter().flat_map(|&rps| point(rps)).collect()
}

/// One open-loop cell: `n_clients` × `requests_per_client` requests at
/// `rps` offered load and `rf` read fraction, under `cfg` (which names
/// the scheduler and anything else that differs: shards, tracing). The
/// workload seed varies per point so grid points are independent draws;
/// it must NOT depend on the scheduler (same offered stream). Engine
/// seed and jitter are the sweep's. A stalled run is fatal.
pub(crate) fn openloop_cell(
    n_clients: usize,
    requests_per_client: usize,
    rps: f64,
    rf: f64,
    cfg: EngineConfig,
) -> RunResult {
    let p = OpenLoopParams {
        n_clients,
        requests_per_client,
        ..OpenLoopParams::default()
    }
    .with_offered_rps(rps)
    .with_read_fraction(rf)
    .with_seed(9000 + (rps as u64) * 31 + (rf * 100.0) as u64);
    let kind = cfg.scheduler;
    let pair = openloop::scenario(&p);
    let res = run_engine(pair.for_kind(kind), cfg.with_seed(7).with_cpu_jitter(0.05));
    assert!(
        !res.deadlocked,
        "{kind} stalled at {rps} req/s, {rf} read fraction"
    );
    res
}

/// Serialises the sweep as the `BENCH_openloop.json` artifact. Every
/// value is virtual-time-derived, so the byte stream is reproducible.
pub fn openloop_json(grid: &OpenLoopGrid, rows: &Rows) -> String {
    json_doc(&[
        ("experiment", "\"openloop\"".into()),
        ("grid", format!(
            "{{\"offered_rps\": {:?}, \"read_fractions\": {:?}, \"n_clients\": {}, \"requests_per_client\": {}, \"schedulers\": {}}}",
            grid.offered_rps,
            grid.read_fractions,
            grid.n_clients,
            grid.requests_per_client,
            json_kinds(&grid.kinds),
        )),
        ("note", "\"virtual-time latencies; percentiles from the fixed-bucket log-scale histogram (upper bucket edge, <=3.2% quantisation); byte-identical across reruns and sweep worker counts\"".into()),
        ("rows", rows.json_array()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> OpenLoopGrid {
        OpenLoopGrid {
            offered_rps: vec![500.0, 8000.0],
            read_fractions: vec![0.9],
            n_clients: 3,
            requests_per_client: 4,
            kinds: FIG1_KINDS.to_vec(),
        }
    }

    #[test]
    fn saturation_raises_tail_latency() {
        let rows = openloop_experiment(&tiny_grid(), 2, 1);
        assert_eq!(rows.len(), 2 * 5);
        for r in rows.iter() {
            assert_eq!(r.u64("completed"), 12);
            assert!(r.u64("p50_ns") <= r.u64("p95_ns") && r.u64("p95_ns") <= r.u64("p99_ns"));
        }
        // SEQ serialises every request, so a 16× load jump must show up
        // as queueing delay in its tail.
        let (seq_light, seq_heavy) = (rows.row(0), rows.row(5));
        assert_eq!(seq_light.kind("scheduler"), SchedulerKind::Seq);
        assert!(
            seq_heavy.u64("p99_ns") > seq_light.u64("p99_ns"),
            "SEQ saturated p99 {} <= light p99 {}",
            seq_heavy.u64("p99_ns"),
            seq_light.u64("p99_ns")
        );
        // And in aggregate the saturated grid point is slower than the
        // light one across the scheduler suite.
        let mean_of =
            |r: std::ops::Range<usize>| r.map(|i| rows.row(i).f64("mean_ns")).sum::<f64>();
        assert!(mean_of(5..10) > mean_of(0..5));
    }

    #[test]
    fn table_and_json_cover_every_row() {
        let grid = tiny_grid();
        let rows = openloop_experiment(&grid, 1, 1);
        let t = rows.table();
        assert_eq!(t.rows.len(), rows.len());
        let j = openloop_json(&grid, &rows);
        assert_eq!(j.matches("\"scheduler\"").count(), rows.len());
        assert!(j.contains("\"experiment\": \"openloop\""));
    }
}
