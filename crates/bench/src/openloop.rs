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

use crate::experiments::{
    run_engine, run_jobs_prioritized, sweep_shards, sweep_threads, ALL_KINDS, FIG1_KINDS,
};
use crate::table::Table;
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
    /// Add the MAT-LL / PMAT series on top of the paper's five.
    pub extended: bool,
}

impl Default for OpenLoopGrid {
    fn default() -> Self {
        OpenLoopGrid {
            offered_rps: vec![100.0, 400.0, 1600.0, 6400.0],
            read_fractions: vec![0.5, 0.9, 1.0],
            n_clients: 8,
            requests_per_client: 25,
            extended: false,
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
            extended: false,
        }
    }

    fn kinds(&self) -> Vec<SchedulerKind> {
        if self.extended {
            ALL_KINDS.to_vec()
        } else {
            FIG1_KINDS.to_vec()
        }
    }
}

/// One grid point's measured latencies (all virtual-time quantities).
#[derive(Clone, Debug)]
pub struct OpenLoopRow {
    pub offered_rps: f64,
    pub read_fraction: f64,
    pub kind: SchedulerKind,
    pub completed: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub mean_ns: f64,
    pub max_ns: u64,
    pub makespan_ns: u64,
    /// Group-comm traffic (from the run's metrics snapshot): messages
    /// submitted for ordering, sequencer broadcast fan-out legs, and
    /// in-order deliveries — the §3.5 network-load view per scheduler.
    pub submissions: u64,
    pub broadcast_legs: u64,
    pub deliveries: u64,
}

/// Runs the sweep. Jobs are dispatched highest-load-first (the
/// congested points dominate wall-clock) but results are slotted by
/// grid index, so the row order — and every byte derived from it — is
/// independent of `threads`.
pub fn openloop_experiment_with_threads(grid: &OpenLoopGrid, threads: usize) -> Vec<OpenLoopRow> {
    openloop_experiment_with_opts(grid, threads, sweep_shards())
}

/// [`openloop_experiment_with_threads`] with an explicit intra-run shard
/// worker count. Rows are identical for every `(threads, shards)` pair.
pub fn openloop_experiment_with_opts(
    grid: &OpenLoopGrid,
    threads: usize,
    shards: usize,
) -> Vec<OpenLoopRow> {
    let kinds = grid.kinds();
    let points: Vec<(f64, f64)> = grid
        .offered_rps
        .iter()
        .flat_map(|&rps| grid.read_fractions.iter().map(move |&rf| (rps, rf)))
        .collect();
    let n_jobs = points.len() * kinds.len();
    run_jobs_prioritized(
        n_jobs,
        threads,
        // Offered load in milli-requests/s as the length proxy.
        |job| (points[job / kinds.len()].0 * 1e3) as u64,
        |job| {
            let (rps, rf) = points[job / kinds.len()];
            let kind = kinds[job % kinds.len()];
            let res = openloop_point(grid, rps, rf, kind, shards);
            assert!(
                !res.deadlocked,
                "{kind} stalled at {rps} req/s, {rf} read fraction"
            );
            OpenLoopRow {
                offered_rps: rps,
                read_fraction: rf,
                kind,
                completed: res.completed_requests,
                p50_ns: res.latency_ns().p50_ns().unwrap_or(0),
                p95_ns: res.latency_ns().p95_ns().unwrap_or(0),
                p99_ns: res.latency_ns().p99_ns().unwrap_or(0),
                mean_ns: res.latency_ns().mean_ns(),
                max_ns: res.latency_ns().max_ns().unwrap_or(0),
                makespan_ns: res.makespan.as_nanos(),
                submissions: res.net_counter("submissions"),
                broadcast_legs: res.net_counter("broadcast_legs"),
                deliveries: res.net_counter("deliveries"),
            }
        },
    )
}

/// [`openloop_experiment_with_threads`] at the default worker count.
pub fn openloop_experiment(grid: &OpenLoopGrid) -> Vec<OpenLoopRow> {
    openloop_experiment_with_threads(grid, sweep_threads())
}

/// One grid point: a full cluster run, self-contained for any worker.
fn openloop_point(
    grid: &OpenLoopGrid,
    rps: f64,
    rf: f64,
    kind: SchedulerKind,
    shards: usize,
) -> RunResult {
    let p = OpenLoopParams {
        n_clients: grid.n_clients,
        requests_per_client: grid.requests_per_client,
        ..OpenLoopParams::default()
    }
    .with_offered_rps(rps)
    .with_read_fraction(rf)
    // Workload seed varies per point so grid points are independent
    // draws; it must NOT depend on the scheduler (same offered stream).
    .with_seed(9000 + (rps as u64) * 31 + (rf * 100.0) as u64);
    let pair = openloop::scenario(&p);
    let cfg = EngineConfig::new(kind)
        .with_seed(7)
        .with_cpu_jitter(0.05)
        .with_shards(shards);
    run_engine(pair.for_kind(kind), cfg)
}

fn ms3(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders the sweep as the printable table.
pub fn openloop_table(rows: &[OpenLoopRow]) -> Table {
    let mut t = Table::new(
        "Open loop: latency percentiles vs offered load × read mix (3 replicas, LAN)",
        &[
            "offered req/s",
            "read %",
            "sched",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "mean (ms)",
            "done",
            "subs",
            "legs",
            "deliv",
        ],
    );
    for r in rows {
        t.push_row(vec![
            format!("{:.0}", r.offered_rps),
            format!("{:.0}", r.read_fraction * 100.0),
            r.kind.to_string(),
            ms3(r.p50_ns),
            ms3(r.p95_ns),
            ms3(r.p99_ns),
            format!("{:.3}", r.mean_ns / 1e6),
            r.completed.to_string(),
            r.submissions.to_string(),
            r.broadcast_legs.to_string(),
            r.deliveries.to_string(),
        ]);
    }
    t
}

/// Serialises the sweep as the `BENCH_openloop.json` artifact. Every
/// value is virtual-time-derived, so the byte stream is reproducible.
pub fn openloop_json(grid: &OpenLoopGrid, rows: &[OpenLoopRow]) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"openloop\",\n");
    j.push_str(&format!(
        "  \"grid\": {{\"offered_rps\": {:?}, \"read_fractions\": {:?}, \"n_clients\": {}, \"requests_per_client\": {}, \"schedulers\": [{}]}},\n",
        grid.offered_rps,
        grid.read_fractions,
        grid.n_clients,
        grid.requests_per_client,
        grid.kinds()
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    j.push_str("  \"note\": \"virtual-time latencies; percentiles from the fixed-bucket log-scale histogram (upper bucket edge, <=3.2% quantisation); byte-identical across reruns and sweep worker counts\",\n");
    j.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"offered_rps\": {:.0}, \"read_fraction\": {:.2}, \"scheduler\": \"{}\", \"completed\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}, \"makespan_ns\": {}, \"submissions\": {}, \"broadcast_legs\": {}, \"deliveries\": {}}}{}\n",
            r.offered_rps,
            r.read_fraction,
            r.kind.name(),
            r.completed,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
            r.mean_ns,
            r.max_ns,
            r.makespan_ns,
            r.submissions,
            r.broadcast_legs,
            r.deliveries,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    j
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
            extended: false,
        }
    }

    #[test]
    fn saturation_raises_tail_latency() {
        let rows = openloop_experiment_with_threads(&tiny_grid(), 2);
        assert_eq!(rows.len(), 2 * 5);
        for r in &rows {
            assert_eq!(r.completed, 12);
            assert!(r.p50_ns <= r.p95_ns && r.p95_ns <= r.p99_ns);
        }
        // SEQ serialises every request, so a 16× load jump must show up
        // as queueing delay in its tail.
        let (seq_light, seq_heavy) = (&rows[0], &rows[5]);
        assert_eq!(seq_light.kind, SchedulerKind::Seq);
        assert!(
            seq_heavy.p99_ns > seq_light.p99_ns,
            "SEQ saturated p99 {} <= light p99 {}",
            seq_heavy.p99_ns,
            seq_light.p99_ns
        );
        // And in aggregate the saturated grid point is slower than the
        // light one across the scheduler suite.
        let mean_of = |rs: &[OpenLoopRow]| rs.iter().map(|r| r.mean_ns).sum::<f64>();
        assert!(mean_of(&rows[5..]) > mean_of(&rows[..5]));
    }

    #[test]
    fn table_and_json_cover_every_row() {
        let grid = tiny_grid();
        let rows = openloop_experiment_with_threads(&grid, 1);
        let t = openloop_table(&rows);
        assert_eq!(t.rows.len(), rows.len());
        let j = openloop_json(&grid, &rows);
        assert_eq!(j.matches("\"scheduler\"").count(), rows.len());
        assert!(j.contains("\"experiment\": \"openloop\""));
    }
}
