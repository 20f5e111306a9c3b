//! **faults** — the deterministic fault / churn / burst resilience grid.
//!
//! For every (scenario, scheduler) point the open-loop store runs under
//! a scripted [`FaultPlan`] — crashes, quiescence-gated recoveries,
//! leader-failover storms, duplicate-delivery and reordering
//! adversaries, WAN/LAN latency mixes — across several seeds. Each run
//! is verified with [`dmt_replica::check_fault_convergence`] (survivors
//! agree at the scheduler's match level, recovered replicas agree on
//! state hash), and the row aggregates fault-lifecycle counts and
//! recovery-latency percentiles from [`RunResult::fault_log`].
//!
//! Everything reaching the table or `BENCH_faults.json` derives from
//! virtual time and integer counters, so the artifact is byte-identical
//! across reruns and sweep worker counts — the same contract as
//! `BENCH_openloop.json`, held by `tests_resilience`.

use crate::experiments::{run_jobs_prioritized, sweep_threads, ALL_KINDS, FIG1_KINDS};
use crate::table::Table;
use dmt_core::SchedulerKind;
use dmt_replica::{
    check_fault_convergence, Engine, EngineConfig, FaultPlan, FaultRecordKind, RunResult,
};
use dmt_sim::{SimDuration, SimTime};
use dmt_workload::openloop::{self, OpenLoopParams};

/// One named failure schedule of the suite. The plan (and any transport
/// or topology tweak) is a pure function of the name — see
/// [`scenario_config`] — so a scenario is replayable from its label.
#[derive(Clone, Copy, Debug)]
pub struct FaultScenario {
    pub name: &'static str,
    /// Involves mid-run recovery, so only schedulers whose
    /// [`SchedulerKind::supports_recovery`] holds can run it.
    pub needs_recovery: bool,
}

/// The suite, in presentation order.
pub const FAULT_SCENARIOS: [FaultScenario; 7] = [
    // A mid-tier replica dies and stays down: survivors must converge.
    FaultScenario {
        name: "crash",
        needs_recovery: false,
    },
    // Replica 0 dies: designated-invoker handoff plus, under LSA, the
    // announcement-leader failover path.
    FaultScenario {
        name: "leader_crash",
        needs_recovery: false,
    },
    // Crash followed by passive-replication catch-up at quiescence.
    FaultScenario {
        name: "crash_recover",
        needs_recovery: true,
    },
    // Alternating crash/recover rounds of replicas 0 and 1: leadership
    // ping-pongs while the workload keeps arriving.
    FaultScenario {
        name: "leader_storm",
        needs_recovery: true,
    },
    // Duplicate-delivery adversary; at-most-once delivery masks it.
    FaultScenario {
        name: "dup_adversary",
        needs_recovery: false,
    },
    // Reordering adversary; the hold-back buffer masks it.
    FaultScenario {
        name: "reorder_adversary",
        needs_recovery: false,
    },
    // Replica 2 sits behind a WAN link while the rest share a LAN.
    FaultScenario {
        name: "wan_mix",
        needs_recovery: false,
    },
];

const MS: u64 = 1_000_000;

fn ms_dur(n: u64) -> SimDuration {
    SimDuration::from_nanos(n * MS)
}

/// The engine configuration a scenario stands for: the fault schedule,
/// plus transport/topology tweaks for the adversary and WAN scenarios.
pub fn scenario_config(name: &str, kind: SchedulerKind, seed: u64) -> EngineConfig {
    let cfg = EngineConfig::new(kind).with_seed(seed).with_cpu_jitter(0.1);
    match name {
        "crash" => cfg.with_faults(FaultPlan::new().crash(ms_dur(3), 2)),
        "leader_crash" => cfg.with_faults(FaultPlan::new().crash(ms_dur(3), 0)),
        "crash_recover" => {
            cfg.with_faults(FaultPlan::new().crash(ms_dur(3), 2).recover(ms_dur(8), 2))
        }
        "leader_storm" => {
            cfg.with_faults(FaultPlan::new().leader_storm(ms_dur(2), ms_dur(3), ms_dur(3), 2))
        }
        "dup_adversary" => cfg.with_faults(FaultPlan::new().duplicate_window(
            ms_dur(1),
            ms_dur(12),
            1,
            SimDuration::from_micros(100),
        )),
        "reorder_adversary" => {
            cfg.with_faults(FaultPlan::new().delay_window(ms_dur(1), ms_dur(12), 1, ms_dur(2)))
        }
        "wan_mix" => cfg.with_node_latency(2, ms_dur(2)),
        other => panic!("unknown fault scenario `{other}`"),
    }
}

/// The sweep grid: every scenario × scheduler point, `seeds.len()` runs
/// each. `--quick` uses [`FaultGrid::quick`].
#[derive(Clone, Debug)]
pub struct FaultGrid {
    /// Engine/workload seeds; each point runs once per seed and the row
    /// aggregates across them.
    pub seeds: Vec<u64>,
    pub n_clients: usize,
    pub requests_per_client: usize,
    /// Add the MAT-LL / PMAT series on top of the paper's five.
    pub extended: bool,
}

impl Default for FaultGrid {
    fn default() -> Self {
        FaultGrid {
            seeds: vec![11, 12, 13, 14, 15],
            n_clients: 4,
            requests_per_client: 10,
            extended: false,
        }
    }
}

impl FaultGrid {
    /// A small grid for smoke runs (`figures faults --quick`).
    pub fn quick() -> Self {
        FaultGrid {
            seeds: vec![11, 12],
            n_clients: 3,
            requests_per_client: 5,
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

    /// The workload under every scenario: a bursty, write-heavy,
    /// Zipf-skewed open-loop store — churn on top of churn, which is
    /// exactly when fault masking must not wobble. The seed feeds both
    /// arrivals and the request mix; it must not depend on the
    /// scheduler so every kind faces the identical offered stream.
    fn workload(&self, seed: u64) -> OpenLoopParams {
        OpenLoopParams {
            n_clients: self.n_clients,
            requests_per_client: self.requests_per_client,
            ..OpenLoopParams::default()
        }
        .with_offered_rps(1500.0)
        .with_read_fraction(0.5)
        .with_bursts(4, 8)
        .with_zipf(0.9)
        .with_seed(7000 + seed * 131)
    }
}

/// One (scenario, scheduler) row, aggregated over the grid's seeds.
#[derive(Clone, Debug)]
pub struct FaultRow {
    pub scenario: &'static str,
    pub kind: SchedulerKind,
    pub seeds: usize,
    /// Every seed's run passed [`check_fault_convergence`].
    pub converged: bool,
    /// Completed requests summed across seeds.
    pub completed: u64,
    // Fault-lifecycle counts summed across seeds.
    pub crashes: u64,
    pub recoveries: u64,
    pub deferred: u64,
    pub failovers: u64,
    // Transport-adversary counters summed across seeds.
    pub dup_dropped: u64,
    pub held_back: u64,
    /// Crash→catch-up latency percentiles across all recoveries of all
    /// seeds (0 when the scenario has no recovery).
    pub recovery_p50_ns: u64,
    pub recovery_p95_ns: u64,
    pub recovery_max_ns: u64,
    /// Worst per-seed client p99 (virtual ns).
    pub worst_p99_ns: u64,
    /// Longest per-seed makespan (virtual ns).
    pub makespan_ns: u64,
}

/// Order statistic at percentile `p` (integer arithmetic — the rounding
/// is part of the artifact contract).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as u64 - 1) * p + 50) as usize / 100]
}

/// Crash→recovered latency per recovery in the fault log, by pairing
/// each `Recovered` with the latest preceding `Crashed` of the replica.
fn recovery_latencies(res: &RunResult) -> Vec<u64> {
    let mut out = Vec::new();
    for (i, rec) in res.fault_log.iter().enumerate() {
        if let FaultRecordKind::Recovered { .. } = rec.kind {
            let crash: Option<SimTime> = res.fault_log[..i]
                .iter()
                .rev()
                .find(|c| c.replica == rec.replica && matches!(c.kind, FaultRecordKind::Crashed))
                .map(|c| c.at);
            if let Some(t0) = crash {
                out.push(rec.at.since(t0).as_nanos());
            }
        }
    }
    out
}

/// Runs the suite. One job per (scenario, scheduler) point; results are
/// slotted by point index, so row order is worker-count-independent.
pub fn faults_experiment_with_threads(grid: &FaultGrid, threads: usize) -> Vec<FaultRow> {
    let kinds = grid.kinds();
    let points: Vec<(FaultScenario, SchedulerKind)> = FAULT_SCENARIOS
        .iter()
        .flat_map(|&s| {
            kinds
                .iter()
                .filter(move |k| !s.needs_recovery || k.supports_recovery())
                .map(move |&k| (s, k))
        })
        .collect();
    run_jobs_prioritized(
        points.len(),
        threads,
        // Storms run the longest (two full outages); front-load them.
        |job| (points[job].0.needs_recovery as u64) * 2 + (points[job].0.name == "crash") as u64,
        |job| {
            let (sc, kind) = points[job];
            let mut row = FaultRow {
                scenario: sc.name,
                kind,
                seeds: grid.seeds.len(),
                converged: true,
                completed: 0,
                crashes: 0,
                recoveries: 0,
                deferred: 0,
                failovers: 0,
                dup_dropped: 0,
                held_back: 0,
                recovery_p50_ns: 0,
                recovery_p95_ns: 0,
                recovery_max_ns: 0,
                worst_p99_ns: 0,
                makespan_ns: 0,
            };
            let mut rec_lat: Vec<u64> = Vec::new();
            for &seed in &grid.seeds {
                let pair = openloop::scenario(&grid.workload(seed));
                let cfg = scenario_config(sc.name, kind, seed);
                let res = Engine::new(pair.for_kind(kind), cfg).run();
                assert!(!res.deadlocked, "{} stalled under {kind}", sc.name);
                row.converged &= check_fault_convergence(&res, kind).converged();
                row.completed += res.completed_requests;
                for r in &res.fault_log {
                    match r.kind {
                        FaultRecordKind::Crashed => row.crashes += 1,
                        FaultRecordKind::RecoveryDeferred => row.deferred += 1,
                        FaultRecordKind::Recovered { .. } => row.recoveries += 1,
                        FaultRecordKind::LeaderFailover { .. } => row.failovers += 1,
                    }
                }
                row.dup_dropped += res.net_counter("dup_dropped");
                row.held_back += res.net_counter("held_back");
                rec_lat.extend(recovery_latencies(&res));
                row.worst_p99_ns = row.worst_p99_ns.max(res.latency_ns().p99_ns().unwrap_or(0));
                row.makespan_ns = row.makespan_ns.max(res.makespan.as_nanos());
            }
            rec_lat.sort_unstable();
            row.recovery_p50_ns = percentile(&rec_lat, 50);
            row.recovery_p95_ns = percentile(&rec_lat, 95);
            row.recovery_max_ns = rec_lat.last().copied().unwrap_or(0);
            row
        },
    )
}

/// [`faults_experiment_with_threads`] at the default worker count.
pub fn faults_experiment(grid: &FaultGrid) -> Vec<FaultRow> {
    faults_experiment_with_threads(grid, sweep_threads())
}

fn ms3(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders the suite as the printable table.
pub fn faults_table(rows: &[FaultRow]) -> Table {
    let mut t = Table::new(
        "Faults: re-convergence & recovery latency per scenario × scheduler (3 replicas)",
        &[
            "scenario",
            "sched",
            "conv",
            "done",
            "crash",
            "recov",
            "defer",
            "fo",
            "dup",
            "held",
            "rec p50 (ms)",
            "rec p95 (ms)",
            "p99 (ms)",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.scenario.to_string(),
            r.kind.to_string(),
            if r.converged { "yes" } else { "NO" }.to_string(),
            r.completed.to_string(),
            r.crashes.to_string(),
            r.recoveries.to_string(),
            r.deferred.to_string(),
            r.failovers.to_string(),
            r.dup_dropped.to_string(),
            r.held_back.to_string(),
            ms3(r.recovery_p50_ns),
            ms3(r.recovery_p95_ns),
            ms3(r.worst_p99_ns),
        ]);
    }
    t
}

/// Serialises the suite as the `BENCH_faults.json` artifact. Every value
/// is virtual-time- or integer-counter-derived: byte-stable.
pub fn faults_json(grid: &FaultGrid, rows: &[FaultRow]) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"faults\",\n");
    j.push_str(&format!(
        "  \"grid\": {{\"seeds\": {:?}, \"n_clients\": {}, \"requests_per_client\": {}, \"scenarios\": [{}], \"schedulers\": [{}]}},\n",
        grid.seeds,
        grid.n_clients,
        grid.requests_per_client,
        FAULT_SCENARIOS
            .iter()
            .map(|s| format!("\"{}\"", s.name))
            .collect::<Vec<_>>()
            .join(", "),
        grid.kinds()
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    j.push_str("  \"note\": \"virtual-time fault suite (DESIGN.md \\u00a711): recovery latencies are crash\\u2192catch-up spans from the fault log; byte-identical across reruns and sweep worker counts\",\n");
    j.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"scheduler\": \"{}\", \"seeds\": {}, \"converged\": {}, \"completed\": {}, \"crashes\": {}, \"recoveries\": {}, \"deferred\": {}, \"failovers\": {}, \"dup_dropped\": {}, \"held_back\": {}, \"recovery_p50_ns\": {}, \"recovery_p95_ns\": {}, \"recovery_max_ns\": {}, \"worst_p99_ns\": {}, \"makespan_ns\": {}}}{}\n",
            r.scenario,
            r.kind.name(),
            r.seeds,
            r.converged,
            r.completed,
            r.crashes,
            r.recoveries,
            r.deferred,
            r.failovers,
            r.dup_dropped,
            r.held_back,
            r.recovery_p50_ns,
            r.recovery_p95_ns,
            r.recovery_max_ns,
            r.worst_p99_ns,
            r.makespan_ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> FaultGrid {
        FaultGrid {
            seeds: vec![11],
            n_clients: 3,
            requests_per_client: 4,
            extended: false,
        }
    }

    #[test]
    fn every_scenario_converges_and_counts_its_faults() {
        let rows = faults_experiment_with_threads(&tiny_grid(), 2);
        // 5 non-recovery scenarios × 5 kinds + 2 recovery scenarios ×
        // 3 recovery-capable kinds (SEQ, SAT, MAT).
        assert_eq!(rows.len(), 5 * 5 + 2 * 3);
        for r in &rows {
            assert!(r.converged, "{} under {} diverged", r.scenario, r.kind);
            assert!(r.completed > 0, "{} under {}", r.scenario, r.kind);
            match r.scenario {
                "crash" | "leader_crash" => {
                    assert_eq!(r.crashes, 1);
                    assert_eq!(r.recoveries, 0);
                }
                "crash_recover" => {
                    assert_eq!(r.crashes, 1);
                    assert_eq!(r.recoveries, 1);
                    assert!(r.recovery_p50_ns > 0);
                    assert!(r.recovery_p50_ns <= r.recovery_max_ns);
                }
                "leader_storm" => {
                    assert_eq!(r.crashes, 2);
                    assert_eq!(r.recoveries, 2);
                }
                "dup_adversary" => {
                    assert!(r.dup_dropped > 0, "adversary generated no duplicates");
                }
                "reorder_adversary" => {
                    assert!(r.held_back > 0, "adversary forced no hold-back");
                }
                "wan_mix" => {
                    assert_eq!(r.crashes + r.recoveries + r.failovers, 0);
                }
                other => panic!("unexpected scenario {other}"),
            }
        }
        // LSA's leader died in leader_crash: the failover must be logged.
        let lsa_fo = rows
            .iter()
            .find(|r| r.scenario == "leader_crash" && r.kind == SchedulerKind::Lsa)
            .unwrap();
        assert_eq!(lsa_fo.failovers, 1, "LSA leader crash must log a failover");
    }

    #[test]
    fn table_and_json_cover_every_row() {
        let grid = tiny_grid();
        let rows = faults_experiment_with_threads(&grid, 1);
        let t = faults_table(&rows);
        assert_eq!(t.rows.len(), rows.len());
        let j = faults_json(&grid, &rows);
        assert_eq!(j.matches("\"scenario\":").count(), rows.len());
        assert!(j.contains("\"experiment\": \"faults\""));
    }

    #[test]
    fn percentile_is_a_deterministic_order_statistic() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 3); // idx (3*50+50)/100 = 2
        assert_eq!(percentile(&[1, 2, 3, 4], 95), 4);
    }
}
