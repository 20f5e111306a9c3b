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

use crate::experiments::{run_jobs_prioritized, FIG1_KINDS};
use crate::schema::{col, cols::*, json_doc, json_kinds, Fmt::*, Rows, Schema, Src::*, Value};
use dmt_core::SchedulerKind;
use dmt_obs::MetricsSnapshot;
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

fn ms_dur(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
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
    /// Schedulers run under every scenario (the paper's five by default).
    pub kinds: Vec<SchedulerKind>,
}

impl Default for FaultGrid {
    fn default() -> Self {
        FaultGrid {
            seeds: vec![11, 12, 13, 14, 15],
            n_clients: 4,
            requests_per_client: 10,
            kinds: FIG1_KINDS.to_vec(),
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
            ..FaultGrid::default()
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

/// One row per (scenario, scheduler), aggregated over the grid's
/// seeds: `converged` holds when every seed's run passed
/// [`check_fault_convergence`]; completions, fault-lifecycle counts and
/// transport-adversary counters are summed across seeds; the recovery
/// columns are crash→catch-up latency percentiles across all recoveries
/// of all seeds (0 when the scenario has none); `worst_p99_ns` is the
/// worst per-seed client p99 and `makespan_ns` the longest per-seed
/// makespan (virtual ns).
#[rustfmt::skip]
static FAULTS: Schema = Schema {
    title: "Faults: re-convergence & recovery latency per scenario × scheduler (3 replicas)",
    cols: &[
        SCENARIO,
        SCHEDULER,
        col("seeds",           None,                 Plain, Plain,             Cell),
        col("converged",       Some("conv"),         Plain, Flag("yes", "NO"), Cell),
        COMPLETED,
        col("crashes",         Some("crash"),        Plain, Plain,             Cell),
        col("recoveries",      Some("recov"),        Plain, Plain,             Cell),
        col("deferred",        Some("defer"),        Plain, Plain,             Cell),
        col("failovers",       Some("fo"),           Plain, Plain,             Cell),
        col("dup_dropped",     Some("dup"),          Plain, Plain,             Counter("net.dup_dropped")),
        col("held_back",       Some("held"),         Plain, Plain,             Counter("net.held_back")),
        col("recovery_p50_ns", Some("rec p50 (ms)"), Plain, Ms,                Cell),
        col("recovery_p95_ns", Some("rec p95 (ms)"), Plain, Ms,                Cell),
        col("recovery_max_ns", None,                 Plain, Plain,             Cell),
        col("worst_p99_ns",    Some("p99 (ms)"),     Plain, Ms,                Cell),
        MAKESPAN,
    ],
    table: None,
};

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

/// Runs the suite on `threads` workers. One job per (scenario,
/// scheduler) point; results are slotted by point index, so row order
/// is worker-count-independent. Summed counters and the longest
/// makespan come from merging the seeds' metrics snapshots.
pub fn faults_experiment(grid: &FaultGrid, threads: usize) -> Rows {
    let points: Vec<(FaultScenario, SchedulerKind)> = FAULT_SCENARIOS
        .iter()
        .flat_map(|&s| {
            grid.kinds
                .iter()
                .filter(move |k| !s.needs_recovery || k.supports_recovery())
                .map(move |&k| (s, k))
        })
        .collect();
    let rows = run_jobs_prioritized(
        points.len(),
        threads,
        // Storms run the longest (two full outages); front-load them.
        |job| (points[job].0.needs_recovery as u64) * 2 + (points[job].0.name == "crash") as u64,
        |job| {
            let (sc, kind) = points[job];
            let mut merged = MetricsSnapshot::default();
            let mut converged = true;
            // Crashes, recoveries, deferred recoveries, leader failovers.
            let mut lifecycle = [0u64; 4];
            let mut rec_lat: Vec<u64> = Vec::new();
            let mut worst_p99 = 0;
            for &seed in &grid.seeds {
                let pair = openloop::scenario(&grid.workload(seed));
                let cfg = scenario_config(sc.name, kind, seed);
                let res = Engine::new(pair.for_kind(kind), cfg).run();
                assert!(!res.deadlocked, "{} stalled under {kind}", sc.name);
                converged &= check_fault_convergence(&res, kind).converged();
                for r in &res.fault_log {
                    lifecycle[match r.kind {
                        FaultRecordKind::Crashed => 0,
                        FaultRecordKind::Recovered { .. } => 1,
                        FaultRecordKind::RecoveryDeferred => 2,
                        FaultRecordKind::LeaderFailover { .. } => 3,
                    }] += 1;
                }
                rec_lat.extend(recovery_latencies(&res));
                worst_p99 = worst_p99.max(res.latency_ns().p99_ns().unwrap_or(0));
                merged.merge(&res.metrics);
            }
            rec_lat.sort_unstable();
            let [crashes, recoveries, deferred, failovers] = lifecycle.map(Value::U);
            let cells = vec![
                Value::S(sc.name),
                Value::Kind(kind),
                Value::U(grid.seeds.len() as u64),
                Value::B(converged),
                crashes,
                recoveries,
                deferred,
                failovers,
                Value::U(percentile(&rec_lat, 50)),
                Value::U(percentile(&rec_lat, 95)),
                Value::U(rec_lat.last().copied().unwrap_or(0)),
                Value::U(worst_p99),
            ];
            FAULTS.row(&merged, cells)
        },
    );
    Rows::new(&FAULTS, rows)
}

/// Serialises the suite as the `BENCH_faults.json` artifact. Every value
/// is virtual-time- or integer-counter-derived: byte-stable.
pub fn faults_json(grid: &FaultGrid, rows: &Rows) -> String {
    json_doc(&[
        ("experiment", "\"faults\"".into()),
        ("grid", format!(
            "{{\"seeds\": {:?}, \"n_clients\": {}, \"requests_per_client\": {}, \"scenarios\": {:?}, \"schedulers\": {}}}",
            grid.seeds,
            grid.n_clients,
            grid.requests_per_client,
            FAULT_SCENARIOS.map(|s| s.name),
            json_kinds(&grid.kinds),
        )),
        ("note", "\"virtual-time fault suite (DESIGN.md \\u00a711): recovery latencies are crash\\u2192catch-up spans from the fault log; byte-identical across reruns and sweep worker counts\"".into()),
        ("rows", rows.json_array()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> FaultGrid {
        FaultGrid {
            seeds: vec![11],
            n_clients: 3,
            requests_per_client: 4,
            kinds: FIG1_KINDS.to_vec(),
        }
    }

    #[test]
    fn every_scenario_converges_and_counts_its_faults() {
        let rows = faults_experiment(&tiny_grid(), 2);
        // 5 non-recovery scenarios × 5 kinds + 2 recovery scenarios ×
        // 3 recovery-capable kinds (SEQ, SAT, MAT).
        assert_eq!(rows.len(), 5 * 5 + 2 * 3);
        for r in rows.iter() {
            let (scenario, kind) = (r.str("scenario"), r.kind("scheduler"));
            assert!(r.flag("converged"), "{scenario} under {kind} diverged");
            assert!(r.u64("completed") > 0, "{scenario} under {kind}");
            match scenario {
                "crash" | "leader_crash" => {
                    assert_eq!(r.u64("crashes"), 1);
                    assert_eq!(r.u64("recoveries"), 0);
                }
                "crash_recover" => {
                    assert_eq!(r.u64("crashes"), 1);
                    assert_eq!(r.u64("recoveries"), 1);
                    assert!(r.u64("recovery_p50_ns") > 0);
                    assert!(r.u64("recovery_p50_ns") <= r.u64("recovery_max_ns"));
                }
                "leader_storm" => {
                    assert_eq!(r.u64("crashes"), 2);
                    assert_eq!(r.u64("recoveries"), 2);
                }
                "dup_adversary" => {
                    assert!(
                        r.u64("dup_dropped") > 0,
                        "adversary generated no duplicates"
                    );
                }
                "reorder_adversary" => {
                    assert!(r.u64("held_back") > 0, "adversary forced no hold-back");
                }
                "wan_mix" => {
                    assert_eq!(
                        r.u64("crashes") + r.u64("recoveries") + r.u64("failovers"),
                        0
                    );
                }
                other => panic!("unexpected scenario {other}"),
            }
        }
        // LSA's leader died in leader_crash: the failover must be logged.
        let lsa_fo = rows
            .iter()
            .find(|r| {
                r.str("scenario") == "leader_crash" && r.kind("scheduler") == SchedulerKind::Lsa
            })
            .unwrap();
        assert_eq!(
            lsa_fo.u64("failovers"),
            1,
            "LSA leader crash must log a failover"
        );
    }

    #[test]
    fn table_and_json_cover_every_row() {
        let grid = tiny_grid();
        let rows = faults_experiment(&grid, 1);
        let t = rows.table();
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
