//! The three benchmark workloads and how each scheduler kind runs them.
//!
//! Every workload is a pure function of its seed: the benchmark derives
//! one sub-seed per scenario instance from `--seed` and hands the
//! simulator only the generated scenarios.

use dmt_core::SchedulerKind;
use dmt_lang::ast::ObjectImpl;
use dmt_replica::{
    check_fault_convergence, run_sharded, Engine, EngineConfig, PerfCounters, RunResult, Scenario,
};
use dmt_sim::SplitMix64;
use dmt_workload::fig1::{self, Fig1Params};
use dmt_workload::openloop::{self, OpenLoopParams};
use dmt_workload::ScenarioPair;

/// The paper's five schedulers plus the predicted MAT it proposes.
/// MAT-LL is left out: on all three workloads its virtual numbers equal
/// MAT's, because its gain needs compute after the last lock.
pub const KINDS: [SchedulerKind; 6] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Lsa,
    SchedulerKind::Pds,
    SchedulerKind::Mat,
    SchedulerKind::Pmat,
];

/// The kind every workload runs at full scale; the single-kind layer
/// ledger (queue, group communication, VM, engine glue) is MAT's.
pub const REFERENCE: SchedulerKind = SchedulerKind::Mat;

/// Shard workers of `shard-1e5` (the benchmark host has two cores).
pub const SHARD_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1 at its heaviest point: 32 closed-loop clients.
    Fig1Closed,
    /// Open-loop keyed store, 50/50 get/put over 64 keys at 1600 req/s.
    OpenloopStore,
    /// The 1e5-client open loop split into 16 object groups.
    Shard1e5,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig1Closed,
        Workload::OpenloopStore,
        Workload::Shard1e5,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Closed => "fig1-closed",
            Workload::OpenloopStore => "openloop-store",
            Workload::Shard1e5 => "shard-1e5",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Scenario instances the timed rounds cycle through, and pool into
    /// the virtual-time percentiles of every kind but MAT.
    pub fn round_instances(self) -> usize {
        match self {
            Workload::OpenloopStore => 32,
            _ => 8,
        }
    }

    /// Scenario instances pooled into `kind`'s virtual-time metrics in
    /// one run. A tail percentile of one instance moves with the seed:
    /// MAT's open-loop p99 by ±30 %, the rest by a few per cent. Pooling
    /// keeps each p99's spread across seeds under a third of its bound.
    pub fn vt_instances(self, kind: SchedulerKind) -> usize {
        match (self, kind) {
            (Workload::OpenloopStore, SchedulerKind::Mat) => 192,
            _ => self.round_instances(),
        }
    }

    /// Object groups the workload's object space is split into.
    pub fn groups(self) -> usize {
        match self {
            Workload::Shard1e5 => 16,
            _ => 1,
        }
    }

    fn fig1_params(seed: u64) -> Fig1Params {
        Fig1Params {
            n_clients: 32,
            requests_per_client: 40,
            seed,
            ..Fig1Params::default()
        }
    }

    fn openloop_params(self, seed: u64) -> OpenLoopParams {
        let p = match self {
            Workload::Shard1e5 => OpenLoopParams {
                n_clients: 100_000,
                requests_per_client: 1,
                ..OpenLoopParams::default()
            }
            .with_offered_rps(200_000.0)
            .with_read_fraction(0.9),
            // Short instances: a run of a few ms per kind, so a timed
            // window holds many runs (see `Fastest` in main.rs).
            _ => OpenLoopParams {
                n_clients: 64,
                requests_per_client: 50,
                ..OpenLoopParams::default()
            }
            .with_offered_rps(1600.0)
            .with_read_fraction(0.5),
        };
        p.with_seed(seed)
    }

    /// The workload's object, as the analysis layer sees it.
    pub fn object(self, seed: u64) -> ObjectImpl {
        match self {
            Workload::Fig1Closed => fig1::build_object(&Self::fig1_params(seed)),
            _ => openloop::build_object(&self.openloop_params(seed)),
        }
    }

    /// Generates instance `seed`: one scenario pair per object group.
    pub fn build(self, seed: u64) -> Vec<ScenarioPair> {
        match self {
            Workload::Fig1Closed => vec![fig1::scenario(&Self::fig1_params(seed))],
            Workload::OpenloopStore => vec![openloop::scenario(&self.openloop_params(seed))],
            Workload::Shard1e5 => {
                openloop::sharded_scenarios(&self.openloop_params(seed), self.groups())
            }
        }
    }

    /// Whether `kind` runs every group through `run_sharded`; the other
    /// kinds of `shard-1e5` run group 0 alone (one sixteenth of the
    /// clients at the same per-group load), since PMAT and the
    /// single-thread kinds would take minutes on all 1e5 clients.
    pub fn sharded(self, kind: SchedulerKind) -> bool {
        self == Workload::Shard1e5 && kind == REFERENCE
    }
}

/// Sub-seed of scenario instance `i` of a run started with `seed`.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    SplitMix64::new(seed).split(i as u64).next_u64()
}

/// Trace buffer cap for traced runs: far above any workload's record
/// count, so nothing is dropped (the benchmark checks `trace.dropped`).
const TRACE_CAP: usize = 1 << 28;

fn config(kind: SchedulerKind, seed: u64, traced: bool) -> EngineConfig {
    let cfg = EngineConfig::new(kind).with_seed(seed);
    if traced {
        cfg.with_trace_cap(TRACE_CAP)
    } else {
        cfg
    }
}

/// One scheduler's run of one instance, constructed during set-up and
/// executed by [`Job::run`]. A handful exist at a time, so the size gap
/// between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Job {
    Mono(Engine),
    Sharded(Vec<Scenario>, EngineConfig),
}

impl Job {
    pub fn new(
        w: Workload,
        groups: &[ScenarioPair],
        kind: SchedulerKind,
        seed: u64,
        traced: bool,
    ) -> Job {
        let cfg = config(kind, seed, traced);
        if w.sharded(kind) {
            let scs = groups.iter().map(|p| p.for_kind(kind)).collect();
            Job::Sharded(scs, cfg.with_shards(SHARD_WORKERS))
        } else {
            Job::Mono(Engine::new(groups[0].for_kind(kind), cfg))
        }
    }

    /// Runs the job; returns the per-group results, merged latencies
    /// (virtual ns, merge order) and the host time of the call.
    pub fn run(self) -> Ran {
        let t0 = std::time::Instant::now();
        match self {
            Job::Mono(e) => {
                let r = e.run();
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let latencies = r.latencies.iter().map(|l| l.latency().as_nanos()).collect();
                Ran {
                    groups: vec![r],
                    latencies,
                    wall_ns,
                    workers: 1,
                    balance_bound: 1.0,
                }
            }
            Job::Sharded(scs, cfg) => {
                let r = run_sharded(scs, &cfg, None);
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let latencies = r
                    .latencies
                    .iter()
                    .map(|(_, l)| l.latency().as_nanos())
                    .collect();
                Ran {
                    balance_bound: r.balance_bound(SHARD_WORKERS),
                    workers: SHARD_WORKERS,
                    groups: r.groups,
                    latencies,
                    wall_ns,
                }
            }
        }
    }
}

/// What one job produced.
pub struct Ran {
    pub groups: Vec<RunResult>,
    pub latencies: Vec<u64>,
    pub wall_ns: u64,
    pub workers: usize,
    pub balance_bound: f64,
}

impl Ran {
    pub fn perf(&self) -> PerfCounters {
        let mut p = PerfCounters::default();
        for g in &self.groups {
            p.merge(&g.perf);
        }
        p
    }

    pub fn net(&self, which: &str) -> u64 {
        self.groups.iter().map(|g| g.net_counter(which)).sum()
    }

    pub fn completed(&self) -> u64 {
        self.groups.iter().map(|g| g.completed_requests).sum()
    }

    /// Completed, not deadlocked, and every group's replicas agree at the
    /// scheduler's match level.
    pub fn healthy(&self, kind: SchedulerKind, submitted: u64) -> bool {
        self.completed() == submitted
            && self
                .groups
                .iter()
                .all(|g| !g.deadlocked && check_fault_convergence(g, kind).converged())
    }

    /// Every virtual-time quantity and work counter of the run; two runs
    /// of the same instance must agree on it exactly.
    pub fn signature(&self) -> Vec<u64> {
        let p = self.perf();
        let mut s = vec![
            self.completed(),
            p.events,
            p.sched_events,
            p.sched_actions,
            p.vm_steps,
            p.fused_steps,
            p.batched_steps,
            p.fused_grants,
            p.vm_allocs,
            p.vm_reuses,
            self.net("submissions"),
            self.net("broadcast_legs"),
            self.net("deliveries"),
            self.net("dup_dropped"),
            self.net("held_back"),
        ];
        for g in &self.groups {
            s.push(g.makespan.as_nanos());
            s.push(g.dummy_requests);
            s.push(g.ctrl_messages);
            s.push(g.traces.iter().map(|t| t.state_hash).fold(0, |a, h| a ^ h));
        }
        // FNV-1a over the latency stream pins order as well as values.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &l in &self.latencies {
            h ^= l;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        s.push(h);
        s
    }

    /// Sum of the engines' own host time (per group; overlapping when
    /// groups run on parallel workers).
    pub fn engine_wall_ns(&self) -> u64 {
        self.groups.iter().map(|g| g.perf.wall_ns).sum()
    }
}

/// Requests a job submits (group 0 only for the probe kinds of
/// `shard-1e5`).
pub fn submitted(w: Workload, groups: &[ScenarioPair], kind: SchedulerKind) -> u64 {
    let n = if w.sharded(kind) { groups.len() } else { 1 };
    groups[..n]
        .iter()
        .map(|p| p.plain.total_requests() as u64)
        .sum()
}
