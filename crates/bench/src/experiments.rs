//! The experiments of EXPERIMENTS.md, one function per table/figure.
//!
//! Sweeps fan their independent (scheduler, scenario, seed) cluster
//! runs across cores via [`run_jobs`]; every run is a self-contained
//! simulation, so the tables are bit-identical to the serial ones —
//! results are written back by job index, never by completion order.

use crate::schema::{col, json_doc, Fmt::*, Rows, Schema, Src::*, Value};
use crate::table::Table;
use dmt_core::SchedulerKind;
use dmt_groupcomm::NetConfig;
use dmt_obs::MetricsSnapshot;
use dmt_replica::{
    check_determinism, run_sharded, Engine, EngineConfig, FaultPlan, PerfCounters, RunResult,
};
use dmt_sim::SimDuration;
use dmt_workload::{bank, buffer, fig1};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The parallel sweep driver: runs `f(0..n_jobs)` across `threads`
/// worker threads (`std::thread::scope`, no extra deps) and returns the
/// results in job order. Workers pull job indices from a shared atomic
/// counter, so long and short simulations interleave freely; ordering
/// determinism comes from slotting each result at its job index.
pub fn run_jobs<T, F>(n_jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_jobs_prioritized(n_jobs, threads, |_| 0u64, f)
}

/// [`run_jobs`] with a dispatch priority: jobs are *started* in
/// descending `priority` order (ties keep index order), so the longest
/// simulations — e.g. the fig1 high-client points — go to workers first
/// instead of straggling at the end of the sweep on many-core hosts.
/// Results are still slotted by job index, so the output (and every
/// table built from it) is byte-identical for any priority function and
/// any worker count.
pub fn run_jobs_prioritized<T, F, K, P>(n_jobs: usize, threads: usize, priority: P, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    K: Ord,
    P: Fn(usize) -> K,
{
    let mut order: Vec<usize> = (0..n_jobs).collect();
    // Stable sort: equal priorities preserve submission order.
    order.sort_by_key(|&i| std::cmp::Reverse(priority(i)));
    let threads = threads.max(1).min(n_jobs.max(1));
    if threads <= 1 {
        let mut results: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
        for &i in &order {
            results[i] = Some(f(i));
        }
        return results
            .into_iter()
            .map(|o| o.expect("every job index runs exactly once"))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                let order = &order;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= order.len() {
                            break;
                        }
                        let i = order[pos];
                        done.push((i, f(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|o| o.expect("every job index runs exactly once"))
        .collect()
}

/// Worker count for parallel sweeps: `DMT_SWEEP_THREADS` if set, else
/// the machine's available parallelism.
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("DMT_SWEEP_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs one cluster scenario under `cfg`, routing through the sharded
/// engine when `cfg.shards > 1` and through the monolithic engine
/// otherwise. A single scenario is a single shard group, and group 0 of
/// the sharded engine is defined to be the monolithic engine (same
/// seed, same queue discipline), so the returned [`RunResult`] is
/// byte-for-byte the same either way — the sharded route just exercises
/// the partition/merge machinery. `crates/bench/tests/shard_determinism.rs`
/// pins that equivalence on the full fig1 and open-loop grids.
pub fn run_engine(scenario: dmt_replica::Scenario, cfg: EngineConfig) -> RunResult {
    if cfg.shards <= 1 {
        return Engine::new(scenario, cfg).run();
    }
    let mut sharded = run_sharded(vec![scenario], &cfg, None);
    sharded.groups.remove(0)
}

/// Ceiling on the scheduler-dispatch fan-out (`sched_events / events`,
/// [`PerfCounters::sched_fanout`]) per scheduler, pinned from the full
/// Figure-1 sweep. The ratio is a pure counter quotient — deterministic
/// for a given grid — but quick grids weight admission-heavy warm-up
/// more, so the pins carry a small margin above the larger of the full
/// and quick grid values. `tests/fanout_guard.rs` holds every kind
/// under its pin: a new dispatch leg on the hot path (the thing this
/// ratio counts) fails loudly instead of hiding inside wall-clock
/// noise.
pub const MAX_SCHED_FANOUT: [(&str, f64); 5] = [
    ("SEQ", 1.32),
    ("SAT", 1.32),
    ("LSA", 1.00),
    ("PDS", 1.22),
    ("MAT", 1.32),
];

/// The five algorithms of the paper's Figure 1.
pub const FIG1_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Lsa,
    SchedulerKind::Pds,
    SchedulerKind::Mat,
];

/// The paper's algorithms plus our predicted extensions.
pub const ALL_KINDS: [SchedulerKind; 7] = SchedulerKind::DETERMINISTIC;

fn ms(x: f64) -> String {
    format!("{x:.2}")
}

/// One Figure-1 cell: `n_clients` × `requests_per_client` requests
/// under `cfg`, which names the scheduler and anything else that
/// differs between experiments (shards, depth sampling, tracing). Client
/// seed, engine seed and jitter are the Figure-1 sweep's, so every
/// experiment built on this cell runs the same offered stream. A stalled
/// run is fatal. Self-contained so cells can run on any worker thread.
pub(crate) fn fig1_cell(
    n_clients: usize,
    requests_per_client: usize,
    cfg: EngineConfig,
) -> RunResult {
    let params = fig1::Fig1Params {
        requests_per_client,
        ..fig1::Fig1Params::default()
            .with_clients(n_clients)
            .with_seed(1000 + n_clients as u64)
    };
    let kind = cfg.scheduler;
    let pair = fig1::scenario(&params);
    let res = run_engine(pair.for_kind(kind), cfg.with_seed(7).with_cpu_jitter(0.05));
    assert!(!res.deadlocked, "{kind} stalled at {n_clients} clients");
    res
}

/// **fig1** — response time vs. number of clients, per scheduler in
/// `kinds` (paper Figure 1; [`ALL_KINDS`] adds the MAT-LL and PMAT
/// series), on `threads` sweep workers (1 = serial) and `shards`
/// intra-run shard workers. The table is identical for every
/// `(threads, shards)` combination — sweep workers only reorder
/// wall-clock, and a single-group sharded run is defined to equal the
/// monolithic engine.
pub fn fig1_experiment(
    client_counts: &[usize],
    requests_per_client: usize,
    kinds: &[SchedulerKind],
    threads: usize,
    shards: usize,
) -> Table {
    let mut cols = vec!["clients".to_string()];
    for k in kinds {
        cols.extend(["mean", "p50", "p95", "p99"].map(|s| format!("{k} {s}")));
    }
    let mut t = Table::new(
        "Figure 1: response time (ms) vs clients (3 replicas, LAN)",
        &cols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    // High-client points dominate the sweep's wall-clock; start them
    // first so they don't straggle. Priorities only reorder wall-clock:
    // results still slot by job index.
    let cells = run_jobs_prioritized(
        client_counts.len() * kinds.len(),
        threads,
        |job| client_counts[job / kinds.len()] as u64,
        |job| {
            let n = client_counts[job / kinds.len()];
            let cfg = EngineConfig::new(kinds[job % kinds.len()]).with_shards(shards);
            let mut rt = fig1_cell(n, requests_per_client, cfg).response_ms();
            [
                rt.mean(),
                rt.percentile(50.0),
                rt.percentile(95.0),
                rt.percentile(99.0),
            ]
            .map(ms)
        },
    );
    for (&n, cells) in client_counts.iter().zip(cells.chunks(kinds.len())) {
        let mut row = vec![n.to_string()];
        row.extend(cells.iter().flatten().cloned());
        t.push_row(row);
    }
    t
}

/// One scheduler's work counters summed over the Figure-1 sweep (the
/// `per_kind` rows of `BENCH_engine.json`; the `total` row leaves `kind`
/// out). `sched_fanout` is [`PerfCounters::sched_fanout`]; the VM pool
/// counters have no metric and come from [`PerfCounters`].
#[rustfmt::skip]
static ENGINE: Schema = Schema {
    title: "Engine work counters per scheduler (Figure-1 sweep)",
    cols: &[
        col("kind",          None, Plain,  Plain, Cell),
        col("events",        None, Plain,  Plain, Counter("engine.events")),
        col("sched_events",  None, Plain,  Plain, Counter("engine.sched_events")),
        col("sched_fanout",  None, Fix(4), Fix(4), Cell),
        col("sched_actions", None, Plain,  Plain, Counter("engine.sched_actions")),
        col("vm_steps",      None, Plain,  Plain, Counter("engine.vm_steps")),
        col("fused_steps",   None, Plain,  Plain, Counter("engine.fused_steps")),
        col("batched_steps", None, Plain,  Plain, Counter("engine.batched_steps")),
        col("vm_allocs",     None, Plain,  Plain, Cell),
        col("vm_reuses",     None, Plain,  Plain, Cell),
    ],
    table: None,
};

/// The engine's work on the Figure-1 sweep: one row per paper
/// scheduler and the sum over all of them.
#[derive(Clone, Debug)]
pub struct EngineBench {
    pub per_kind: Rows,
    pub total: Rows,
}

/// **bench** — the engine's work on the Figure-1 sweep (all five paper
/// schedulers), aggregated per scheduler. Only the counters are
/// reported: they are exact, so one pass suffices. Host time per event
/// is perfbench's to measure, against the parent commit on one host.
pub fn engine_bench_experiment(client_counts: &[usize], requests_per_client: usize) -> EngineBench {
    let runs = run_jobs(
        FIG1_KINDS.len() * client_counts.len(),
        sweep_threads(),
        |job| {
            let kind = FIG1_KINDS[job / client_counts.len()];
            let n = client_counts[job % client_counts.len()];
            let res = fig1_cell(n, requests_per_client, EngineConfig::new(kind));
            (res.metrics, res.perf)
        },
    );
    let row = |kind: Value, runs: &[(MetricsSnapshot, PerfCounters)]| {
        let (mut m, mut perf) = (MetricsSnapshot::default(), PerfCounters::default());
        for (rm, rp) in runs {
            m.merge(rm);
            perf.merge(rp);
        }
        let cells = vec![
            kind,
            Value::F(perf.sched_fanout()),
            Value::U(perf.vm_allocs),
            Value::U(perf.vm_reuses),
        ];
        ENGINE.row(&m, cells)
    };
    let per_kind = FIG1_KINDS
        .iter()
        .zip(runs.chunks(client_counts.len()))
        .map(|(&kind, runs)| row(Value::Kind(kind), runs))
        .collect();
    EngineBench {
        per_kind: Rows::new(&ENGINE, per_kind),
        total: Rows::new(&ENGINE, vec![row(Value::Absent, &runs)]),
    }
}

/// Serialises the engine bench as the `BENCH_engine.json` artifact.
pub fn engine_bench_json(
    client_counts: &[usize],
    requests_per_client: usize,
    quick: bool,
    bench: &EngineBench,
) -> String {
    json_doc(&[
        ("sweep", format!(
            "{{\"clients\": {client_counts:?}, \"requests_per_client\": {requests_per_client}, \"quick\": {quick}}}"
        )),
        ("per_kind", bench.per_kind.json_array()),
        ("total", bench.total.json_object(0)),
    ])
}

/// **fig2** — MAT vs MAT-LL as the post-last-lock computation grows
/// (paper Figure 2: hand-off before thread termination).
pub fn fig2_experiment(final_ms_values: &[f64]) -> Table {
    let mut t = Table::new(
        "Figure 2: last-lock analysis — response time vs final computation",
        &["final_ms", "MAT (ms)", "MAT-LL (ms)", "speedup"],
    );
    let kinds = [SchedulerKind::Mat, SchedulerKind::MatLL];
    let means = run_jobs(final_ms_values.len() * 2, sweep_threads(), |job| {
        let f = final_ms_values[job / 2];
        let kind = kinds[job % 2];
        let p = fig1::Fig1Params {
            final_ms: f,
            ..fig1::Fig1Params::last_lock()
        };
        let pair = fig1::scenario(&p);
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
        assert!(!res.deadlocked);
        res.response_ms().mean()
    });
    for (i, &f) in final_ms_values.iter().enumerate() {
        let (mat, ll) = (means[i * 2], means[i * 2 + 1]);
        t.push_row(vec![ms(f), ms(mat), ms(ll), format!("{:.2}x", mat / ll)]);
    }
    t
}

/// **fig3** — MAT vs MAT-LL vs PMAT on disjoint lock sets (paper
/// Figure 3: prediction enables non-conflicting concurrency).
pub fn fig3_experiment(client_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "Figure 3: lock prediction — response time on disjoint mutexes",
        &[
            "clients",
            "MAT (ms)",
            "MAT-LL (ms)",
            "PMAT (ms)",
            "ideal (ms)",
        ],
    );
    let kinds = [
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
    ];
    let means = run_jobs(client_counts.len() * 3, sweep_threads(), |job| {
        let n = client_counts[job / 3];
        let kind = kinds[job % 3];
        let pair = fig1::scenario(&fig1::Fig1Params::disjoint().with_clients(n));
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
        assert!(!res.deadlocked);
        res.response_ms().mean()
    });
    // Ideal: full overlap — a request costs its own work plus wire.
    let p = fig1::Fig1Params::disjoint();
    let ideal = p.compute_ms + p.cs_ms + 4.0 * NetConfig::lan().one_way.as_millis_f64();
    for (i, &n) in client_counts.iter().enumerate() {
        t.push_row(vec![
            n.to_string(),
            ms(means[i * 3]),
            ms(means[i * 3 + 1]),
            ms(means[i * 3 + 2]),
            ms(ideal),
        ]);
    }
    t
}

/// **fig4** — the code transformation example (paper Figure 4), rendered.
pub fn fig4_experiment() -> String {
    use dmt_lang::ast::{CondExpr, MutexExpr};
    use dmt_lang::ObjectBuilder;
    let mut ob = ObjectBuilder::new("Fig4");
    let myo = ob.field();
    let mut m = ob.method("foo", 1);
    m.if_else(
        CondExpr::ParamEqField(0, myo),
        |b| {
            b.sync(MutexExpr::Arg(0), |_| {});
        },
        |b| {
            b.sync(MutexExpr::Field(myo), |_| {});
        },
    );
    m.done();
    let obj = ob.build();
    let transformed = dmt_analysis::transform(&obj);
    format!(
        "=== original ===\n{}\n=== after analysis & injection ===\n{}",
        dmt_analysis::pretty::print_object(&obj),
        dmt_analysis::pretty::print_object(&transformed),
    )
}

/// **tab-analysis** — static-analysis statistics over the workload suite.
pub fn analysis_experiment() -> String {
    let objects = [
        fig1::build_object(&fig1::Fig1Params::default()),
        fig1::build_object(&fig1::Fig1Params::last_lock()),
        fig1::build_object(&fig1::Fig1Params::disjoint()),
        bank::build_object(&bank::BankParams::default()),
        buffer::build_object(&buffer::BufferParams::default()),
    ];
    let mut out = String::new();
    for obj in &objects {
        out.push_str(&dmt_analysis::analyze(obj).to_string());
        out.push('\n');
    }
    out
}

/// **abl-mutexes** — locking granularity sweep: the paper's §4 claim that
/// pessimism hurts most with fine-grained locking.
pub fn abl_mutexes_experiment(mutex_counts: &[u32]) -> Table {
    let mut t = Table::new(
        "Ablation: locking granularity (8 clients) — MAT vs PMAT",
        &["mutexes", "MAT (ms)", "PMAT (ms)", "gain"],
    );
    let kinds = [SchedulerKind::Mat, SchedulerKind::Pmat];
    let means = run_jobs(mutex_counts.len() * 2, sweep_threads(), |job| {
        let m = mutex_counts[job / 2];
        let kind = kinds[job % 2];
        let p = fig1::Fig1Params::default().with_mutexes(m).with_clients(8);
        let pair = fig1::scenario(&p);
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(5)).run();
        assert!(!res.deadlocked);
        res.response_ms().mean()
    });
    for (i, &m) in mutex_counts.iter().enumerate() {
        let (mat, pmat) = (means[i * 2], means[i * 2 + 1]);
        t.push_row(vec![
            m.to_string(),
            ms(mat),
            ms(pmat),
            format!("{:.2}x", mat / pmat),
        ]);
    }
    t
}

/// **abl-overhead** — what the instrumentation costs in virtual time:
/// plain vs analysed object under the same pessimistic scheduler, plus
/// PMAT on a workload where prediction cannot help (one global mutex).
/// Injected calls take zero simulated time, so their host cost is
/// timed by `cargo bench -p dmt-bench --bench overhead` on the same
/// four configurations.
pub fn abl_overhead_experiment() -> Table {
    let mut t = Table::new(
        "Ablation: instrumentation & bookkeeping overhead (1 mutex, 8 clients)",
        &["configuration", "resp (ms)"],
    );
    let p = fig1::Fig1Params::default().with_mutexes(1).with_clients(8);
    let pair = fig1::scenario(&p);
    let mut run = |label: &str, kind: SchedulerKind, analysed: bool| {
        let scenario = if analysed {
            pair.analysed.clone()
        } else {
            pair.plain.clone()
        };
        let res = Engine::new(scenario, EngineConfig::new(kind).with_seed(5)).run();
        assert!(!res.deadlocked);
        t.push_row(vec![label.to_string(), ms(res.response_ms().mean())]);
    };
    run("MAT plain", SchedulerKind::Mat, false);
    run("MAT analysed", SchedulerKind::Mat, true);
    run("MAT-LL analysed", SchedulerKind::MatLL, true);
    run(
        "PMAT analysed (no disjointness to exploit)",
        SchedulerKind::Pmat,
        true,
    );
    t
}

/// **abl-wan** — network sensitivity and LSA failover cost (paper §3.5).
pub fn abl_wan_experiment(one_way_ms: &[u64]) -> Table {
    let mut t = Table::new(
        "Ablation: WAN latency — LSA vs MAT, and LSA leader takeover",
        &[
            "one-way (ms)",
            "LSA (ms)",
            "MAT (ms)",
            "LSA ctrl msgs",
            "LSA takeover (ms)",
        ],
    );
    // Three independent cluster runs per latency point: LSA, MAT, and
    // the LSA leader-kill failover run.
    let results = run_jobs(one_way_ms.len() * 3, sweep_threads(), |job| {
        let w = one_way_ms[job / 3];
        let p = fig1::Fig1Params::default().with_clients(6);
        let pair = fig1::scenario(&p);
        let net = if w == 0 {
            NetConfig::lan()
        } else {
            NetConfig::wan(w)
        };
        match job % 3 {
            0 | 1 => {
                let kind = if job % 3 == 0 {
                    SchedulerKind::Lsa
                } else {
                    SchedulerKind::Mat
                };
                let cfg = EngineConfig::new(kind).with_seed(5).with_net(net);
                let res = Engine::new(pair.for_kind(kind), cfg).run();
                assert!(!res.deadlocked, "{kind} under {w}ms WAN");
                res
            }
            _ => {
                let cfg = EngineConfig::new(SchedulerKind::Lsa)
                    .with_seed(5)
                    .with_net(net)
                    .with_faults(FaultPlan::new().crash(SimDuration::from_millis(20), 0));
                Engine::new(pair.for_kind(SchedulerKind::Lsa), cfg).run()
            }
        }
    });
    for (i, &w) in one_way_ms.iter().enumerate() {
        let (lsa, mat, fo) = (&results[i * 3], &results[i * 3 + 1], &results[i * 3 + 2]);
        let takeover = fo
            .takeover_gap
            .map(|g| ms(g.as_millis_f64()))
            .unwrap_or_else(|| "-".into());
        t.push_row(vec![
            if w == 0 {
                "0.25 (LAN)".into()
            } else {
                w.to_string()
            },
            ms(lsa.response_ms().mean()),
            ms(mat.response_ms().mean()),
            lsa.ctrl_messages.to_string(),
            takeover,
        ]);
    }
    t
}

/// **abl-passive** — passive replication: log replay equivalence per
/// scheduler (paper §1's motivation for determinism beyond active
/// replication).
pub fn abl_passive_experiment() -> Table {
    use dmt_lang::compile::compile;
    use dmt_replica::{record_primary, replay_on_backup};
    let mut t = Table::new(
        "Ablation: passive replication — primary log replay",
        &["scheduler", "requests", "grants", "replay matches"],
    );
    let p = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 3,
        ..fig1::Fig1Params::default()
    };
    let obj = fig1::build_object(&p);
    let program = compile(&obj);
    let requests: Vec<_> = fig1::client_scripts(&p)
        .into_iter()
        .flat_map(|c| c.requests)
        .collect();
    let dummy = program.method_by_name("noop");
    for kind in dmt_core::SchedulerKind::ALL {
        let log = record_primary(program.clone(), kind, requests.clone(), dummy);
        let replayed = replay_on_backup(program.clone(), &log);
        t.push_row(vec![
            kind.to_string(),
            log.requests.len().to_string(),
            log.grants.len().to_string(),
            if replayed == Ok(log.state_hash) {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t
}

/// **determinism** — the checker verdict per scheduler under jitter.
pub fn determinism_experiment() -> Table {
    let mut t = Table::new(
        "Determinism check: 3 jittered replicas, contended Figure-1 load",
        &["scheduler", "verdict", "match level"],
    );
    let p = fig1::Fig1Params {
        n_clients: 6,
        requests_per_client: 3,
        mutexes: fig1::Mutexes::Pool(5),
        ..fig1::Fig1Params::default()
    };
    let pair = &fig1::scenario(&p);
    let kinds: Vec<SchedulerKind> = dmt_core::SchedulerKind::ALL.into_iter().collect();
    let rows = run_jobs(kinds.len(), sweep_threads(), |job| {
        let kind = kinds[job];
        let (_, outcome) = check_determinism(pair.for_kind(kind), kind, 77, 0.3);
        let level = format!("{:?}", dmt_replica::checker::match_level(kind));
        let verdict = match outcome {
            dmt_replica::CheckOutcome::Converged => "converged".to_string(),
            dmt_replica::CheckOutcome::Diverged { pair, .. } => {
                format!("DIVERGED {pair:?}")
            }
            dmt_replica::CheckOutcome::Stalled => "stalled".to_string(),
        };
        vec![kind.to_string(), verdict, level]
    });
    for row in rows {
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_table_shows_growing_speedup() {
        let t = fig2_experiment(&[0.0, 5.0]);
        assert_eq!(t.rows.len(), 2);
        let s0: f64 = t.rows[0][3].trim_end_matches('x').parse().unwrap();
        let s5: f64 = t.rows[1][3].trim_end_matches('x').parse().unwrap();
        assert!(s5 > s0, "speedup must grow with the final computation");
        assert!(s5 > 1.2);
    }

    #[test]
    fn fig4_output_contains_injections() {
        let s = fig4_experiment();
        assert!(s.contains("scheduler.lockInfo(0, a0);"));
        assert!(s.contains("scheduler.ignore(1);"));
        assert!(s.contains("scheduler.ignore(0);"));
    }

    #[test]
    fn analysis_table_covers_suite() {
        let s = analysis_experiment();
        assert!(s.contains("Fig1Bench"));
        assert!(s.contains("Bank"));
        assert!(s.contains("BoundedBuffer"));
    }

    #[test]
    fn passive_table_all_yes() {
        let t = abl_passive_experiment();
        for row in &t.rows {
            assert_eq!(row[3], "yes", "{} replay failed", row[0]);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        // The guard for the parallel sweep driver: same jobs, different
        // worker counts (including more workers than jobs), rendered
        // tables must be byte-identical.
        let serial = fig1_experiment(&[1, 3], 2, &ALL_KINDS, 1, 1).to_string();
        for threads in [2, 4, 16] {
            let parallel = fig1_experiment(&[1, 3], 2, &ALL_KINDS, threads, 1).to_string();
            assert_eq!(
                serial, parallel,
                "{threads}-thread sweep diverged from serial"
            );
        }
    }

    #[test]
    fn run_jobs_orders_results_by_job_index() {
        let out = run_jobs(37, 4, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(run_jobs(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_jobs(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn prioritized_dispatch_does_not_change_results() {
        // Whatever the priority function, results are slotted by index.
        for threads in [1, 2, 8] {
            let out = run_jobs_prioritized(20, threads, |i| i % 7, |i| i + 100);
            assert_eq!(out, (100..120).collect::<Vec<_>>());
        }
    }

    #[test]
    fn prioritized_dispatch_starts_long_jobs_first() {
        // Serial path: dispatch order is observable via a log.
        use std::sync::Mutex;
        let log = Mutex::new(Vec::new());
        let sizes = [3u64, 9, 1, 7];
        run_jobs_prioritized(4, 1, |i| sizes[i], |i| log.lock().unwrap().push(i));
        assert_eq!(
            *log.lock().unwrap(),
            vec![1, 3, 0, 2],
            "descending size order"
        );
    }

    #[test]
    fn small_fig1_runs() {
        let t = fig1_experiment(&[1, 2], 2, &FIG1_KINDS, sweep_threads(), 1);
        assert_eq!(t.rows.len(), 2);
        // 1 + 4 cells (mean/p50/p95/p99) per scheduler.
        assert_eq!(t.rows[0].len(), 1 + 4 * FIG1_KINDS.len());
        // SEQ must be the slowest at 2 clients (mean columns sit at
        // 1 + 4*kind_index).
        let seq: f64 = t.rows[1][1].parse().unwrap();
        let mat: f64 = t.rows[1][17].parse().unwrap();
        assert!(seq >= mat, "SEQ {seq} should not beat MAT {mat}");
        // Percentiles are ordered within each scheduler group.
        for k in 0..FIG1_KINDS.len() {
            let p50: f64 = t.rows[1][1 + 4 * k + 1].parse().unwrap();
            let p95: f64 = t.rows[1][1 + 4 * k + 2].parse().unwrap();
            let p99: f64 = t.rows[1][1 + 4 * k + 3].parse().unwrap();
            assert!(p50 <= p95 && p95 <= p99);
        }
    }
}
