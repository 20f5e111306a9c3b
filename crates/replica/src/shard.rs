//! Sharded execution: partition the object space into group engines,
//! run them on parallel workers, merge deterministically.
//!
//! A *group* is one partition of the object space — its own [`Engine`]
//! with its own scheduler instances, calendar event queue, VM pools and
//! tracer/metrics registry. Groups never share mutable state, so they
//! run race-free on any number of worker threads ([`std::thread::scope`]),
//! exactly the fork/join shape of deterministic-spaces systems. The
//! worker count ([`EngineConfig::shards`]) is *pure parallelism*: every
//! byte of the result is fixed by the scenario list and config alone.
//!
//! Each group is a closed simulation: its nested invocations are served
//! inside the group, exactly as in a monolithic run. A worker runs a
//! contiguous chunk of groups back to back, threading one [`EngineQueue`]
//! through them (reset between runs) so the calendar slab stays warm.
//! Determinism is per-group purity: a group's result is a function of
//! `(scenario, cfg, group seed)` only.
//!
//! Output streams merge under the total order `(virtual time, group id,
//! within-group seq)`: latencies sort by `(replied, group)` with stable
//! within-group completion order, traces via
//! [`dmt_obs::merge_group_traces`], metrics/perf by commutative
//! aggregation. See DESIGN.md §13.

use crate::engine::{Engine, EngineConfig, EngineQueue, PerfCounters, RunResult};
use crate::msg::Scenario;
use dmt_obs::MetricsSnapshot;
use dmt_sim::{LogHistogram, SimTime};

use crate::engine::{RequestLatency, REQUEST_LATENCY};

/// Merged outcome of one sharded run. Per-group results are retained in
/// group order (byte-identical to a monolithic run of the same group
/// with seed `cfg.seed + g`); the merged views are pure functions of
/// them, so the whole struct is worker-count independent — except
/// [`ShardedRunResult::wall_ns`] and the per-group `perf.wall_ns`
/// meters, which measure the host.
#[derive(Debug)]
pub struct ShardedRunResult {
    /// Per-group results, indexed by group id.
    pub groups: Vec<RunResult>,
    /// All groups' client latencies under the total order
    /// `(replied, group, within-group completion order)`.
    pub latencies: Vec<(u32, RequestLatency)>,
    /// Completed real client requests, summed.
    pub completed_requests: u64,
    /// Cluster makespan: the slowest group's virtual finish time.
    pub makespan: SimTime,
    /// True if any group stalled or overran the time cap.
    pub deadlocked: bool,
    /// Merged host-side meters (wall_ns sums the per-group walls, which
    /// overlap under parallel workers — use [`ShardedRunResult::wall_ns`]
    /// for elapsed time).
    pub perf: PerfCounters,
    /// Merged metrics snapshot (counters add, gauges max).
    pub metrics: MetricsSnapshot,
    /// Merged decision trace under `(t_ns, group, within-group index)`,
    /// replicas remapped to `group * n_replicas + replica`.
    pub trace_records: Vec<dmt_obs::TraceRecord>,
    /// Events processed per group — the deterministic load-balance
    /// profile (`sum / max-per-worker` bounds achievable speedup).
    pub events_per_group: Vec<u64>,
    /// Host wall-clock of the whole sharded run, nanoseconds.
    pub wall_ns: u64,
    /// Host wall-clock of the merge phase alone, nanoseconds.
    pub merge_ns: u64,
}

impl ShardedRunResult {
    /// The merged log-scale request-latency histogram (bucket counts
    /// add across groups).
    pub fn latency_ns(&self) -> &LogHistogram {
        self.metrics
            .histogram(REQUEST_LATENCY)
            .expect("every run exports its request latency")
    }

    /// The deterministic upper bound on intra-run speedup at `workers`
    /// workers under this run's contiguous-chunk group assignment:
    /// total events divided by the heaviest worker's events. Unlike
    /// wall-clock speedup it is byte-stable on any host.
    pub fn balance_bound(&self, workers: usize) -> f64 {
        let total: u64 = self.events_per_group.iter().sum();
        let heaviest = worker_chunks(self.events_per_group.len(), workers.max(1))
            .map(|r| self.events_per_group[r].iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        if heaviest == 0 {
            1.0
        } else {
            total as f64 / heaviest as f64
        }
    }
}

/// Contiguous chunk assignment of `n_groups` to `workers`: worker `w`
/// owns `[w*k, min((w+1)*k, n))` with `k = ceil(n / workers)`. Chunked
/// (not round-robin) so each worker's groups form a splittable slice.
fn worker_chunks(n_groups: usize, workers: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let k = n_groups.div_ceil(workers.max(1));
    (0..n_groups.div_ceil(k.max(1))).map(move |w| w * k..((w + 1) * k).min(n_groups))
}

/// Pre-sized merge scratch for the deterministic output merge. Sized
/// once at run start from the scenario's request totals, it merges any
/// number of per-group latency streams without allocating — the merge
/// path stays allocation-free in steady state (asserted by the
/// dmt-bench counting-allocator test).
pub struct ShardMerger {
    lat: Vec<(u32, RequestLatency)>,
}

impl ShardMerger {
    /// `capacity` = total requests across all groups (known up front:
    /// `scenarios.iter().map(Scenario::total_requests).sum()`).
    pub fn with_capacity(capacity: usize) -> Self {
        ShardMerger {
            lat: Vec::with_capacity(capacity),
        }
    }

    /// Merges per-group latency streams under `(replied, group,
    /// within-group completion order)`. Within-group order is the
    /// engine's deterministic completion order; the sort key
    /// `(replied, group, position)` makes the total order explicit
    /// without relying on sort stability.
    pub fn merge_latencies<'a>(
        &mut self,
        groups: impl Iterator<Item = &'a [RequestLatency]>,
    ) -> &[(u32, RequestLatency)] {
        self.lat.clear();
        for (g, latencies) in groups.enumerate() {
            let g = g as u32;
            self.lat.extend(latencies.iter().map(|&l| (g, l)));
        }
        // Positions differ only within a group (completion order), so a
        // key of (replied, group) plus each entry's pre-sort index is
        // total; `sort_unstable_by_key` over an explicit total key
        // avoids the allocation a stable merge sort would make.
        self.lat
            .sort_unstable_by_key(|&(g, l)| (l.replied, g, l.enqueued, l.id.client, l.id.req_no));
        &self.lat
    }
}

/// Runs one scenario per group, `cfg.shards` workers, and merges the
/// outputs deterministically. Group `g` is byte-identical to the
/// monolithic `Engine::new(scenarios[g], cfg.with_seed(cfg.seed + g))
/// .run()`, so group 0 is the monolithic run of the same scenario.
///
/// The third parameter is a placeholder: [`std::convert::Infallible`]
/// makes `None` its only value. It stays until the perfbench
/// maintenance change stops passing it, and then goes.
pub fn run_sharded(
    scenarios: Vec<Scenario>,
    cfg: &EngineConfig,
    _unused: Option<std::convert::Infallible>,
) -> ShardedRunResult {
    assert!(!scenarios.is_empty(), "at least one group required");
    let wall_start = std::time::Instant::now();
    let n_groups = scenarios.len();
    let workers = cfg.shards.clamp(1, n_groups);
    let total_requests: usize = scenarios.iter().map(Scenario::total_requests).sum();

    let results = run_groups(scenarios, cfg, workers);

    let merge_start = std::time::Instant::now();
    let mut merger = ShardMerger::with_capacity(total_requests);
    let merged: Vec<(u32, RequestLatency)> = merger
        .merge_latencies(results.iter().map(|r| r.latencies.as_slice()))
        .to_vec();
    let mut perf = PerfCounters::default();
    let mut metrics = MetricsSnapshot::default();
    let mut completed = 0;
    let mut makespan = SimTime::ZERO;
    let mut deadlocked = false;
    let mut events_per_group = Vec::with_capacity(n_groups);
    for r in &results {
        perf.merge(&r.perf);
        metrics.merge(&r.metrics);
        completed += r.completed_requests;
        makespan = makespan.max(r.makespan);
        deadlocked |= r.deadlocked;
        events_per_group.push(r.perf.events);
    }
    let traces: Vec<&[dmt_obs::TraceRecord]> =
        results.iter().map(|r| r.trace_records.as_slice()).collect();
    let trace_records = dmt_obs::merge_group_traces(&traces, cfg.n_replicas as u32);
    let merge_ns = merge_start.elapsed().as_nanos() as u64;

    ShardedRunResult {
        groups: results,
        latencies: merged,
        completed_requests: completed,
        makespan,
        deadlocked,
        perf,
        metrics,
        trace_records,
        events_per_group,
        wall_ns: wall_start.elapsed().as_nanos() as u64,
        merge_ns,
    }
}

/// Workers run contiguous chunks of groups in parallel; one worker
/// runs them all on the calling thread.
fn run_groups(scenarios: Vec<Scenario>, cfg: &EngineConfig, workers: usize) -> Vec<RunResult> {
    if workers <= 1 {
        return run_chunk(0, scenarios, cfg);
    }
    let k = scenarios.len().div_ceil(workers);
    let mut chunks: Vec<Vec<Scenario>> = Vec::new();
    let mut it = scenarios.into_iter().peekable();
    while it.peek().is_some() {
        chunks.push(it.by_ref().take(k).collect());
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(w, chunk)| s.spawn(move || run_chunk(w * k, chunk, cfg)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Runs groups `first, first + 1, …` back to back, threading one reused
/// queue through them. Group `g` gets seed `cfg.seed + g`.
fn run_chunk(first: usize, chunk: Vec<Scenario>, cfg: &EngineConfig) -> Vec<RunResult> {
    let mut queue = EngineQueue::new();
    let mut out = Vec::with_capacity(chunk.len());
    for (i, sc) in chunk.into_iter().enumerate() {
        let group_cfg = cfg
            .clone()
            .with_seed(cfg.seed.wrapping_add((first + i) as u64));
        let (res, q) = Engine::with_queue(sc, group_cfg, queue).run_returning_queue();
        queue = q;
        out.push(res);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ClientScript;
    use dmt_core::SchedulerKind;
    use dmt_lang::ast::{CountExpr, IntExpr, MutexExpr};
    use dmt_lang::{compile, DurExpr, ObjectBuilder, RequestArgs, ServiceId, Value};
    use dmt_sim::SimDuration;

    fn counter_scenario(seed_off: u64, n_clients: usize, reqs: usize) -> Scenario {
        let mut ob = ObjectBuilder::new("ShardCounter");
        let cell = ob.cell();
        let mut m = ob.method("bump", 1);
        m.for_loop(CountExpr::Lit(2), |b| {
            b.sync(MutexExpr::This, |b| {
                b.compute(DurExpr::micros(50 + seed_off));
                b.update(cell, IntExpr::Arg(0));
            });
        });
        m.done();
        let program = compile::compile(&ob.build());
        let clients = (0..n_clients)
            .map(|c| {
                ClientScript::closed(vec![
                    (
                        dmt_lang::MethodIdx::new(0),
                        RequestArgs::new(&[Value::Int(c as i64 + 1)]),
                    );
                    reqs
                ])
            })
            .collect();
        Scenario {
            program,
            lock_table: dmt_core::LockTable::default().into(),
            clients,
            dummy_method: None,
        }
    }

    fn cfg(kind: SchedulerKind) -> EngineConfig {
        EngineConfig::new(kind).with_seed(7).with_cpu_jitter(0.05)
    }

    /// Every request computes, makes one nested call and then bumps the
    /// shared cell under the object's monitor.
    fn nested_scenario(seed_off: u64, n_clients: usize, reqs: usize) -> Scenario {
        let mut ob = ObjectBuilder::new("ShardNested");
        let cell = ob.cell();
        let mut m = ob.method("call_out", 0);
        m.compute(DurExpr::micros(80));
        m.nested(ServiceId::new(0), DurExpr::micros(300 + seed_off));
        m.sync(MutexExpr::This, |b| {
            b.add(cell, 1);
        });
        m.done();
        let program = compile::compile(&ob.build());
        let clients = (0..n_clients)
            .map(|_| {
                ClientScript::closed(vec![
                    (dmt_lang::MethodIdx::new(0), RequestArgs::empty());
                    reqs
                ])
            })
            .collect();
        Scenario {
            program,
            lock_table: dmt_core::LockTable::default().into(),
            clients,
            dummy_method: None,
        }
    }

    /// The virtual-time projection of a merged run that no worker count
    /// may change.
    #[derive(Debug, PartialEq)]
    struct MergedKey {
        completed: u64,
        makespan_ns: u64,
        latencies: Vec<(u32, u64, u64)>,
        state_hashes: Vec<u64>,
    }

    fn key(r: &ShardedRunResult) -> MergedKey {
        MergedKey {
            completed: r.completed_requests,
            makespan_ns: r.makespan.as_nanos(),
            latencies: r
                .latencies
                .iter()
                .map(|&(g, l)| (g, l.enqueued.as_nanos(), l.replied.as_nanos()))
                .collect(),
            state_hashes: r
                .groups
                .iter()
                .flat_map(|g| g.traces.iter().map(|t| t.state_hash))
                .collect(),
        }
    }

    #[test]
    fn every_group_matches_the_monolithic_engine() {
        let scenarios = vec![
            counter_scenario(0, 3, 4),
            nested_scenario(1, 3, 3),
            counter_scenario(2, 2, 5),
        ];
        for kind in [SchedulerKind::Mat, SchedulerKind::Sat] {
            let c = cfg(kind);
            let sharded = run_sharded(scenarios.clone(), &c, None);
            assert!(!sharded.deadlocked, "{kind}");
            for (g, sc) in scenarios.iter().enumerate() {
                let mono = Engine::new(sc.clone(), c.clone().with_seed(c.seed + g as u64)).run();
                let got = &sharded.groups[g];
                assert_eq!(
                    got.completed_requests, mono.completed_requests,
                    "{kind} g{g}"
                );
                assert_eq!(got.makespan, mono.makespan, "{kind} g{g}");
                assert_eq!(got.latencies, mono.latencies, "{kind} g{g}");
                assert_eq!(got.traces, mono.traces, "{kind} g{g}");
                assert_eq!(got.perf.events, mono.perf.events, "{kind} g{g}");
            }
            // The nested group's requests really waited on their calls.
            let nested = &sharded.groups[1];
            assert_eq!(nested.completed_requests, 9, "{kind}");
            assert!(
                nested
                    .latencies
                    .iter()
                    .all(|l| l.latency() >= SimDuration::from_micros(301)),
                "{kind}: a nested call was skipped"
            );
        }
    }

    #[test]
    fn worker_count_never_changes_the_merged_result() {
        let scenarios: Vec<Scenario> = (0..4)
            .map(|g| counter_scenario(g, 2, 3))
            .chain([nested_scenario(4, 2, 3)])
            .collect();
        let base = run_sharded(scenarios.clone(), &cfg(SchedulerKind::Lsa), None);
        for shards in [2, 3, 4, 9] {
            let r = run_sharded(
                scenarios.clone(),
                &cfg(SchedulerKind::Lsa).with_shards(shards),
                None,
            );
            assert_eq!(key(&r), key(&base), "shards={shards} diverged");
        }
    }

    #[test]
    fn balance_bound_reflects_event_distribution() {
        let scenarios: Vec<Scenario> = (0..4).map(|g| counter_scenario(g, 2, 3)).collect();
        let r = run_sharded(scenarios, &cfg(SchedulerKind::Seq), None);
        let b1 = r.balance_bound(1);
        let b4 = r.balance_bound(4);
        assert!((b1 - 1.0).abs() < 1e-12, "one worker owns everything");
        assert!(b4 > 1.0 && b4 <= 4.0, "bound must be in (1, workers]");
    }

    #[test]
    fn merger_orders_by_replied_then_group() {
        let lat = |e: u64, r: u64| RequestLatency {
            id: crate::msg::RequestId {
                client: 0,
                req_no: 0,
            },
            enqueued: SimTime::from_nanos(e),
            replied: SimTime::from_nanos(r),
        };
        let g0 = vec![lat(0, 50), lat(10, 90)];
        let g1 = vec![lat(5, 50), lat(20, 70)];
        let mut m = ShardMerger::with_capacity(4);
        let merged = m.merge_latencies([g0.as_slice(), g1.as_slice()].into_iter());
        let order: Vec<(u32, u64)> = merged
            .iter()
            .map(|&(g, l)| (g, l.replied.as_nanos()))
            .collect();
        assert_eq!(order, vec![(0, 50), (1, 50), (1, 70), (0, 90)]);
    }
}
