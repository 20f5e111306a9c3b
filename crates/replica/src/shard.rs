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
//! Two execution paths:
//!
//! * **Independent groups** (no [`ShardRouting`]): each group is a closed
//!   simulation. A worker runs its groups back to back, threading one
//!   [`EngineQueue`] through them (reset between runs) so the calendar
//!   slab stays warm. Determinism is per-group purity: a group's result
//!   is a function of `(scenario, cfg, group seed)` only.
//! * **Routed groups** ([`ShardRouting`] present): nested invocations
//!   whose target service is homed on another group become typed
//!   [`ShardMsg`]s, exchanged at virtual-time barriers under a
//!   conservative-PDES epoch protocol. The epoch boundary is
//!   `min(next event over all groups) + link`: any message sent during
//!   the epoch is delivered no earlier than the boundary, so no group
//!   ever receives an event from its past. Boundaries derive only from
//!   global queue state — independent of worker count.
//!
//! Output streams merge under the total order `(virtual time, group id,
//! within-group seq)`: latencies sort by `(replied, group)` with stable
//! within-group completion order, traces via
//! [`dmt_obs::merge_group_traces`], metrics/perf by commutative
//! aggregation. See DESIGN.md §12.

use crate::engine::{Engine, EngineConfig, EngineQueue, PerfCounters, RemoteRouting, RunResult};
use crate::msg::Scenario;
use dmt_core::ThreadId;
use dmt_lang::MethodIdx;
use dmt_obs::MetricsSnapshot;
use dmt_sim::{LogHistogram, SimDuration, SimTime};

use crate::engine::{RequestLatency, REQUEST_LATENCY};

/// A typed cross-shard message, harvested from group outboxes at each
/// virtual-time barrier and injected in global `(at, from_group)` order
/// (generation order breaks remaining ties, preserved by stable sort).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMsg {
    /// Virtual send instant at the origin group.
    pub at: SimTime,
    pub from_group: u32,
    pub to_group: u32,
    /// Origin thread awaiting the nested reply.
    pub tid: ThreadId,
    /// Origin per-thread nested-call number.
    pub call_no: u32,
    pub kind: ShardMsgKind,
}

/// What a [`ShardMsg`] carries: the call leg or the first-finish reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardMsgKind {
    Call,
    Reply,
}

/// Cluster-wide routing for cross-shard nested invocations: which group
/// each service lives on, what a routed call executes there, and the
/// link latency that doubles as conservative-PDES lookahead.
#[derive(Clone, Debug)]
pub struct ShardRouting {
    /// `service_home[s]` = home group of service `s`.
    pub service_home: std::sync::Arc<Vec<u32>>,
    /// Method a routed call invokes on its home group's object.
    pub method: MethodIdx,
    /// One-way cross-shard link latency (must be positive: it is the
    /// lookahead that lets shards advance in parallel).
    pub link: SimDuration,
}

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
    /// Cross-shard messages exchanged (0 without routing).
    pub shard_msgs: u64,
    /// Epoch barriers executed (0 without routing).
    pub epochs: u64,
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
/// outputs deterministically. Per-group engine `g` gets seed
/// `cfg.seed + g`, so group 0 of a sharded run is byte-identical to the
/// monolithic `Engine::new(scenario, cfg).run()` of the same scenario.
///
/// With `routing`, nested invocations may cross groups (see module
/// docs); without it, groups must be closed simulations.
pub fn run_sharded(
    scenarios: Vec<Scenario>,
    cfg: &EngineConfig,
    routing: Option<ShardRouting>,
) -> ShardedRunResult {
    assert!(!scenarios.is_empty(), "at least one group required");
    let wall_start = std::time::Instant::now();
    let n_groups = scenarios.len();
    let workers = cfg.shards.clamp(1, n_groups);
    let group_cfg = |g: usize| {
        let mut c = cfg.clone().with_seed(cfg.seed.wrapping_add(g as u64));
        c.remote = routing.as_ref().map(|r| RemoteRouting {
            group: g as u32,
            service_home: r.service_home.clone(),
            method: r.method,
            link: r.link,
        });
        c
    };
    let total_requests: usize = scenarios.iter().map(Scenario::total_requests).sum();

    let (results, shard_msgs, epochs) = match routing {
        None => (run_independent(scenarios, &group_cfg, workers), 0, 0),
        Some(ref r) => run_epochs(scenarios, &group_cfg, workers, r, cfg.max_time),
    };

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
    let traces: Vec<Vec<dmt_obs::TraceRecord>> =
        results.iter().map(|r| r.trace_records.clone()).collect();
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
        shard_msgs,
        epochs,
        events_per_group,
        wall_ns: wall_start.elapsed().as_nanos() as u64,
        merge_ns,
    }
}

/// Independent-group path: workers run contiguous chunks of groups in
/// parallel, each threading one reused queue through its chunk.
fn run_independent(
    scenarios: Vec<Scenario>,
    group_cfg: &(impl Fn(usize) -> EngineConfig + Sync),
    workers: usize,
) -> Vec<RunResult> {
    let n_groups = scenarios.len();
    if workers <= 1 {
        let mut queue = EngineQueue::new();
        let mut out = Vec::with_capacity(n_groups);
        for (g, sc) in scenarios.into_iter().enumerate() {
            let (res, q) = Engine::with_queue(sc, group_cfg(g), queue).run_returning_queue();
            queue = q;
            out.push(res);
        }
        return out;
    }
    let k = n_groups.div_ceil(workers);
    let mut chunks: Vec<Vec<Scenario>> = Vec::new();
    let mut it = scenarios.into_iter();
    loop {
        let chunk: Vec<Scenario> = it.by_ref().take(k).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut results: Vec<RunResult> = Vec::with_capacity(n_groups);
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(w, chunk)| {
                s.spawn(move || {
                    let base = w * k;
                    let mut queue = EngineQueue::new();
                    let mut out = Vec::with_capacity(chunk.len());
                    for (i, sc) in chunk.into_iter().enumerate() {
                        let (res, q) = Engine::with_queue(sc, group_cfg(base + i), queue)
                            .run_returning_queue();
                        queue = q;
                        out.push(res);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            results.extend(h.join().expect("shard worker panicked"));
        }
    });
    results
}

/// Routed path: conservative-PDES epochs over long-lived group engines.
/// Each epoch runs every group to the barrier in parallel, then the
/// coordinator exchanges outbox messages in global `(at, from_group)`
/// order. Returns `(results, shard_msgs, epochs)`.
fn run_epochs(
    scenarios: Vec<Scenario>,
    group_cfg: &(impl Fn(usize) -> EngineConfig + Sync),
    workers: usize,
    routing: &ShardRouting,
    max_time: SimDuration,
) -> (Vec<RunResult>, u64, u64) {
    assert!(
        routing.link > SimDuration::ZERO,
        "cross-shard link latency must be positive (it is the PDES lookahead)"
    );
    let n_groups = scenarios.len();
    let mut engines: Vec<Engine> = scenarios
        .into_iter()
        .enumerate()
        .map(|(g, sc)| Engine::new(sc, group_cfg(g)))
        .collect();
    for e in &mut engines {
        e.start();
    }
    let cap = SimTime::ZERO + max_time;
    let mut pending: Vec<ShardMsg> = Vec::new();
    let mut wall: Vec<u64> = vec![0; n_groups];
    let mut shard_msgs = 0u64;
    let mut epochs = 0u64;
    let mut deadlocked = false;
    loop {
        // Deliver last epoch's messages in global (at, from_group) order
        // — generation order within a group breaks the remaining ties
        // (stable sort), so queue seq assignment at the target is a pure
        // function of the message set.
        pending.sort_by_key(|m| (m.at, m.from_group));
        shard_msgs += pending.len() as u64;
        for m in pending.drain(..) {
            engines[m.to_group as usize].inject(m, routing.link);
        }
        let Some(min_next) = engines.iter().filter_map(Engine::next_time).min() else {
            break; // fully drained, nothing in flight
        };
        if min_next > cap {
            deadlocked = true;
            break;
        }
        let epoch_end = min_next + routing.link;
        epochs += 1;
        // Parallel epoch: workers own contiguous chunks of engines.
        if workers <= 1 {
            for (g, e) in engines.iter_mut().enumerate() {
                let t0 = std::time::Instant::now();
                e.run_until(epoch_end);
                wall[g] += t0.elapsed().as_nanos() as u64;
            }
        } else {
            let k = n_groups.div_ceil(workers);
            std::thread::scope(|s| {
                for (chunk, walls) in engines.chunks_mut(k).zip(wall.chunks_mut(k)) {
                    s.spawn(move || {
                        for (e, wl) in chunk.iter_mut().zip(walls) {
                            let t0 = std::time::Instant::now();
                            e.run_until(epoch_end);
                            *wl += t0.elapsed().as_nanos() as u64;
                        }
                    });
                }
            });
        }
        for e in &mut engines {
            e.take_outbox(&mut pending);
        }
    }
    let results = engines
        .into_iter()
        .zip(wall)
        .map(|(mut e, w)| {
            e.set_wall_ns(w);
            e.finish(deadlocked).0
        })
        .collect();
    (results, shard_msgs, epochs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ClientScript;
    use dmt_core::SchedulerKind;
    use dmt_lang::ast::{CountExpr, IntExpr, MutexExpr};
    use dmt_lang::{compile, DurExpr, ObjectBuilder, RequestArgs, ServiceId, Value};

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
                        RequestArgs::new(vec![Value::Int(c as i64 + 1)]),
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

    fn key(r: &ShardedRunResult) -> (u64, u64, Vec<(u32, u64, u64)>, Vec<u64>) {
        (
            r.completed_requests,
            r.makespan.as_nanos(),
            r.latencies
                .iter()
                .map(|&(g, l)| (g, l.enqueued.as_nanos(), l.replied.as_nanos()))
                .collect(),
            r.groups
                .iter()
                .flat_map(|g| g.traces.iter().map(|t| t.state_hash))
                .collect(),
        )
    }

    #[test]
    fn group_zero_matches_the_monolithic_engine() {
        let sc = counter_scenario(0, 3, 4);
        let mono = Engine::new(sc.clone(), cfg(SchedulerKind::Mat)).run();
        let sharded = run_sharded(vec![sc], &cfg(SchedulerKind::Mat), None);
        let g0 = &sharded.groups[0];
        assert_eq!(g0.completed_requests, mono.completed_requests);
        assert_eq!(g0.makespan, mono.makespan);
        assert_eq!(g0.latencies, mono.latencies);
        assert_eq!(g0.traces.len(), mono.traces.len());
        for (a, b) in g0.traces.iter().zip(&mono.traces) {
            assert_eq!(a.state_hash, b.state_hash);
        }
    }

    #[test]
    fn worker_count_never_changes_the_merged_result() {
        let scenarios: Vec<Scenario> = (0..4).map(|g| counter_scenario(g, 2, 3)).collect();
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

    /// Ring topology: every group's object issues one nested call to the
    /// service homed on the next group.
    fn relay_scenario(n_groups: usize, me: usize) -> Scenario {
        let mut ob = ObjectBuilder::new("Relay");
        let cell = ob.cell();
        // Method 0: client entry — compute, then call the next group's
        // service (remote unless it resolves locally).
        let mut m = ob.method("relay", 0);
        m.compute(DurExpr::micros(80));
        m.sync(MutexExpr::This, |b| {
            b.update(cell, IntExpr::Lit(1));
        });
        m.nested(
            ServiceId::new(((me + 1) % n_groups) as u32),
            DurExpr::micros(40),
        );
        m.done();
        // Method 1: what a routed-in call executes here.
        let mut t = ob.method("touch", 0);
        t.sync(MutexExpr::This, |b| {
            b.compute(DurExpr::micros(20));
            b.update(cell, IntExpr::Lit(10));
        });
        t.done();
        let program = compile::compile(&ob.build());
        let clients = (0..2)
            .map(|_| {
                ClientScript::closed(vec![(dmt_lang::MethodIdx::new(0), RequestArgs::empty()); 2])
            })
            .collect();
        Scenario {
            program,
            lock_table: dmt_core::LockTable::default().into(),
            clients,
            dummy_method: None,
        }
    }

    fn ring_routing(n_groups: usize) -> ShardRouting {
        ShardRouting {
            service_home: std::sync::Arc::new((0..n_groups as u32).collect()),
            method: dmt_lang::MethodIdx::new(1),
            link: SimDuration::from_micros(200),
        }
    }

    #[test]
    fn routed_ring_is_worker_count_independent_and_completes() {
        let n_groups = 4;
        let scenarios: Vec<Scenario> = (0..n_groups).map(|g| relay_scenario(n_groups, g)).collect();
        let base = run_sharded(
            scenarios.clone(),
            &cfg(SchedulerKind::Mat),
            Some(ring_routing(n_groups)),
        );
        assert!(!base.deadlocked, "routed ring must complete");
        assert_eq!(base.completed_requests, (n_groups * 2 * 2) as u64);
        assert!(base.shard_msgs > 0, "ring must exchange messages");
        assert!(base.epochs > 0);
        for shards in [2, 4] {
            let r = run_sharded(
                scenarios.clone(),
                &cfg(SchedulerKind::Mat).with_shards(shards),
                Some(ring_routing(n_groups)),
            );
            assert_eq!(key(&r), key(&base), "routed shards={shards} diverged");
            assert_eq!(r.shard_msgs, base.shard_msgs);
            assert_eq!(r.epochs, base.epochs);
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
