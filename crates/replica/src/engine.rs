//! The virtual-time cluster engine.
//!
//! Simulates the paper's evaluation setting end to end: closed-loop
//! clients submit requests through the total-order layer; every replica
//! runs the same object under the same deterministic scheduler; nested
//! invocations are performed by a single designated invoker replica that
//! spreads the reply through the group (paper §2); the first replica to
//! finish a request answers the client. Per-replica CPU jitter and
//! per-link network jitter make the replicas' *physical* timelines
//! differ, which is exactly what the determinism checker needs: a
//! deterministic scheduler must produce identical traces anyway.

use crate::fault::{FaultKind, FaultPlan, FaultRecord, FaultRecordKind};
use crate::msg::{GcMsg, RequestId, Scenario};
use crate::trace::ExecutionTrace;
use dmt_core::{
    AnyScheduler, CtrlMsg, ExecHost, ReplicaExec, ReplicaId, SchedConfig, SchedEvent, SchedOutput,
    Scheduler, SchedulerKind, ThreadId,
};
use dmt_groupcomm::{Delivery, GroupComm, NetConfig, NodeId, Sequenced};
use dmt_lang::{MutexId, RequestArgs};
use dmt_obs::{MetricsRegistry, MetricsSnapshot, TraceEvent, TraceRecord, Tracer};
use dmt_sim::{EventQueue, Histogram, LogHistogram, SimDuration, SimTime, SplitMix64};

/// Cluster-level configuration of one run.
#[derive(Clone)]
pub struct EngineConfig {
    pub scheduler: SchedulerKind,
    pub n_replicas: usize,
    pub net: NetConfig,
    pub seed: u64,
    /// Per-compute-segment CPU speed jitter (0.0 = identical replicas).
    pub cpu_jitter: f64,
    pub pds: dmt_core::PdsConfig,
    /// Safety cap on virtual time.
    pub max_time: SimDuration,
    /// Leader-failure detection delay for LSA failover.
    pub detect_delay: SimDuration,
    /// Record a structured trace (scheduler decisions, request
    /// lifecycle, group-comm legs, mutex releases) into an in-memory
    /// buffer of at most this many records, drained into
    /// [`RunResult::trace_records`]. Overflow is dropped and counted in
    /// the `trace.dropped` metric. `None` (the default) is off: the
    /// disabled path is branch-cheap and allocation-free, pinned by the
    /// dmt-bench overhead guard.
    pub trace: Option<usize>,
    /// Sample queue depths ([`dmt_core::DepthSample`]) after every
    /// scheduler dispatch into the metrics registry (the `figures obs`
    /// experiment). Off by default for the same reason.
    pub sample_depths: bool,
    /// Run admitted/resumed threads through the inline ready ring instead
    /// of a zero-delay calendar-queue event each (see DESIGN.md §"Batched
    /// admission"). Outcome-identical by construction — the gate only
    /// batches decision runs whose queue order is provably the ring's
    /// FIFO order — so it defaults to on; [`Self::without_batching`]
    /// exists for the differential tests and the dispatch-cost figures.
    pub batch_admission: bool,
    /// Use the calendar queue's front-slot fast path: an event pushed
    /// strictly earlier than everything pending skips the slab entirely
    /// and pops O(1) (see `dmt-sim`'s queue docs and DESIGN.md's
    /// same-timestamp fusion invariant). Outcome-identical by
    /// construction — the slot entry is the unique `(time, seq)` minimum
    /// — so it defaults to on; [`Self::without_fastpath`] is the
    /// reference mode for the fused-vs-reference differential tests.
    pub fastpath: bool,
    /// Deterministic failure schedule (crashes, recoveries, message-layer
    /// adversaries), injected as ordinary calendar-queue events at run
    /// start. Empty by default. See [`FaultPlan`] and DESIGN.md §11.
    pub faults: FaultPlan,
    /// Disable the group-comm layer's at-most-once delivery, so the
    /// duplicate-delivery adversary's copies actually reach replicas — a
    /// deliberately broken transport the determinism checker must catch.
    /// Off by default (duplicates are dropped and counted).
    pub broken_dedup: bool,
    /// Per-replica one-way latency overrides (WAN/LAN mixes): listed
    /// replicas use the given base latency instead of `net.one_way`;
    /// everyone else — and, crucially, their RNG draws — is untouched.
    pub node_latency: Vec<(usize, SimDuration)>,
    /// Worker-thread budget for sharded runs ([`crate::run_sharded`]).
    /// Purely a *parallelism* knob: the object-space partition is fixed
    /// by the scenario list, so results are byte-identical for any value
    /// (the default `1` runs every shard on the calling thread).
    pub shards: usize,
}

impl EngineConfig {
    pub fn new(scheduler: SchedulerKind) -> Self {
        EngineConfig {
            scheduler,
            n_replicas: 3,
            net: NetConfig::lan(),
            seed: 1,
            cpu_jitter: 0.0,
            pds: dmt_core::PdsConfig::default(),
            max_time: SimDuration::from_secs(3600),
            detect_delay: SimDuration::from_millis(5),
            trace: None,
            sample_depths: false,
            batch_admission: true,
            fastpath: true,
            faults: FaultPlan::default(),
            broken_dedup: false,
            node_latency: Vec::new(),
            shards: 1,
        }
    }

    /// Sets the worker-thread budget for [`crate::run_sharded`]. Results
    /// are byte-identical for every value; `1` (the default) keeps the
    /// run on the calling thread.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Reference admission semantics: every admitted/resumed thread costs
    /// its own zero-delay calendar-queue event.
    pub fn without_batching(mut self) -> Self {
        self.batch_admission = false;
        self
    }

    /// Reference dispatch semantics: every event goes through the slab
    /// calendar queue (front-slot fusion off). Used by the differential
    /// tests that pin fused == reference output byte for byte.
    pub fn without_fastpath(mut self) -> Self {
        self.fastpath = false;
        self
    }

    /// Enables tracing; keeps a cap set earlier, else uses
    /// [`dmt_obs::DEFAULT_TRACE_CAP`].
    pub fn with_tracing(mut self) -> Self {
        self.trace.get_or_insert(dmt_obs::DEFAULT_TRACE_CAP);
        self
    }

    /// Enables tracing into an in-memory buffer capped at `cap`
    /// records; overflow is dropped and counted in `trace.dropped`.
    pub fn with_trace_cap(mut self, cap: usize) -> Self {
        self.trace = Some(cap);
        self
    }

    pub fn with_depth_sampling(mut self) -> Self {
        self.sample_depths = true;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    pub fn with_cpu_jitter(mut self, j: f64) -> Self {
        self.cpu_jitter = j;
        self
    }

    pub fn with_pds(mut self, pds: dmt_core::PdsConfig) -> Self {
        self.pds = pds;
        self
    }

    /// Installs a deterministic failure schedule (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Breaks the transport's at-most-once delivery (adversarial mode).
    pub fn with_broken_dedup(mut self) -> Self {
        self.broken_dedup = true;
        self
    }

    /// Places `replica` behind a slower (or faster) link: its hops use
    /// `one_way` as the base latency instead of the cluster-wide
    /// `net.one_way` (WAN/LAN mix scenarios).
    pub fn with_node_latency(mut self, replica: usize, one_way: SimDuration) -> Self {
        self.node_latency.push((replica, one_way));
        self
    }
}

/// Host-side cost meters for the engine hot path. Virtual time is the
/// experiment's subject; these count what the *simulator* pays per run.
/// Every field but [`Self::wall_ns`] is an exact counter; host time is
/// only compared on one host (perfbench), never committed.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfCounters {
    /// Simulation events processed (event-queue pops).
    pub events: u64,
    /// Scheduler events dispatched across all replicas.
    pub sched_events: u64,
    /// Scheduler decisions applied (admit/resume/broadcast/dummy).
    pub sched_actions: u64,
    /// Host wall-clock of [`Engine::run`], nanoseconds.
    pub wall_ns: u64,
    /// Thread VMs constructed from scratch (pool misses), summed across
    /// replicas. In steady state only the warm-up admissions miss.
    pub vm_allocs: u64,
    /// Thread VMs recycled through the per-replica pools. A warm replica
    /// serves every admission from here — the checkable face of the
    /// "zero steady-state allocations" claim.
    pub vm_reuses: u64,
    /// Interpreter steps taken (one per emitted action / completion),
    /// summed over every VM of every replica.
    pub vm_steps: u64,
    /// Superinstructions executed by those steps — the fusion pass's
    /// measured (not just static) hit count.
    pub fused_steps: u64,
    /// Admitted/resumed threads run through the inline ready ring
    /// instead of their own zero-delay queue event. Each still counts in
    /// [`Self::events`] (it replaces exactly one queue pop), keeping
    /// ns/event comparable across batching modes.
    pub batched_steps: u64,
    /// Ring steps executed inline by the same-instant grant fusion in
    /// the step loop (a subset of [`Self::batched_steps`]): the granted
    /// thread kept stepping instead of bouncing through the `process`
    /// drain. Host-cost accounting only — the fused step is still one
    /// event, so every model-visible counter is unchanged.
    pub fused_grants: u64,
}

impl PerfCounters {
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.events as f64
        }
    }

    /// Scheduler-dispatch fan-out: scheduler events raised per simulation
    /// event. Every extra dispatch leg a code path grows (an admission
    /// round trip, a control-message echo) lands here, so the bench
    /// artifacts record it per scheduler and a guard pins its ceiling —
    /// a fan-out regression is a determinism-preserving change that
    /// would otherwise hide inside wall-clock noise.
    pub fn sched_fanout(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.sched_events as f64 / self.events as f64
        }
    }

    pub fn merge(&mut self, other: &PerfCounters) {
        self.events += other.events;
        self.sched_events += other.sched_events;
        self.sched_actions += other.sched_actions;
        self.wall_ns += other.wall_ns;
        self.vm_allocs += other.vm_allocs;
        self.vm_reuses += other.vm_reuses;
        self.vm_steps += other.vm_steps;
        self.fused_steps += other.fused_steps;
        self.batched_steps += other.batched_steps;
        self.fused_grants += other.fused_grants;
    }
}

/// Enqueue→reply timestamps of one completed request, in virtual time.
/// `enqueued` is the instant the client handed the request to the
/// total-order layer; `replied` is the instant the first replica's
/// answer reaches the client (reply wire leg included). Their
/// difference is the client-observed latency — under an open-loop
/// script it includes the queueing delay a closed loop never builds up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestLatency {
    pub id: RequestId,
    pub enqueued: SimTime,
    pub replied: SimTime,
}

impl RequestLatency {
    pub fn latency(&self) -> SimDuration {
        self.replied - self.enqueued
    }
}

/// Aggregated outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-replica traces (dead replicas keep their pre-kill trace).
    pub traces: Vec<ExecutionTrace>,
    /// Per-request enqueue→reply timestamps, in completion order
    /// (virtual-time deterministic) — the one record of request latency.
    pub latencies: Vec<RequestLatency>,
    /// Completed real requests (first-reply semantics).
    pub completed_requests: u64,
    /// Virtual time at which everything finished.
    pub makespan: SimTime,
    /// PDS filler traffic.
    pub dummy_requests: u64,
    /// LSA announcement traffic.
    pub ctrl_messages: u64,
    /// True if the run stalled (deadlock) or hit the time cap.
    pub deadlocked: bool,
    /// Gap between a replica kill and the next completed request.
    pub takeover_gap: Option<SimDuration>,
    /// Threads still blocked when the run ended: (replica, thread,
    /// reason). Empty on a clean run.
    pub stuck_threads: Vec<(usize, u32, String)>,
    /// Per-replica liveness at end of run (`false` = still crashed).
    pub alive: Vec<bool>,
    /// Per-replica flag: went through crash *and* catch-up at least once.
    /// Convergence for these is asserted on state hash only — their
    /// traces legitimately miss the requests executed during the outage
    /// (see [`crate::checker::check_fault_convergence`]).
    pub recovered: Vec<bool>,
    /// Fault-lifecycle log (crash / failover / deferred / recovered), in
    /// virtual-time order. Empty when no faults were injected.
    pub fault_log: Vec<FaultRecord>,
    /// Host-side cost of this run (simulator throughput meters).
    pub perf: PerfCounters,
    /// Unified metrics snapshot: engine perf counters, group-comm
    /// traffic (the former `net_stats` field, as `net.*` counters), the
    /// request-latency histogram (`latency.request_ns`, filled from
    /// [`Self::latencies`]), and — when depth sampling is on — the
    /// `depth.*` queue-depth histograms. Name-sorted, merges
    /// commutatively across runs.
    pub metrics: MetricsSnapshot,
    /// Structured trace (empty unless [`EngineConfig::trace`] was set).
    pub trace_records: Vec<TraceRecord>,
}

impl RunResult {
    /// Group-comm traffic counters out of the metrics snapshot.
    pub fn net_counter(&self, which: &str) -> u64 {
        self.metrics.counter(&format!("net.{which}")).unwrap_or(0)
    }

    /// Total simulated message transmissions (submissions + broadcast
    /// fan-out legs), the paper's §3.5 network-load measure.
    pub fn net_legs(&self) -> u64 {
        self.net_counter("submissions") + self.net_counter("broadcast_legs")
    }

    /// Client-observed response times in milliseconds, in completion
    /// order: the f64 view of [`Self::latencies`] the figure tables use.
    pub fn response_ms(&self) -> Histogram {
        let mut h = Histogram::with_capacity(self.latencies.len());
        for l in &self.latencies {
            h.add(l.latency().as_millis_f64());
        }
        h
    }

    /// The log-scale request-latency histogram out of the metrics
    /// snapshot (integer nanoseconds): deterministic p50/p95/p99.
    pub fn latency_ns(&self) -> &LogHistogram {
        self.metrics
            .histogram(REQUEST_LATENCY)
            .expect("every run exports its request latency")
    }
}

/// Metrics name of the request-latency histogram.
pub(crate) const REQUEST_LATENCY: &str = "latency.request_ns";

/// One replica: the shared executor over the statically dispatched
/// scheduler sum type (`on_event` is a direct, inlineable match instead
/// of a vtable call), its requests tagged with their client id (`None`
/// for dummies).
type Rep = ReplicaExec<AnyScheduler, Option<RequestId>>;

/// One full simulation. Construct, then [`Engine::run`].
pub struct Engine {
    host: Host,
    reps: Vec<Rep>,
}

/// Everything of an engine but its replicas: the calendar queue, group
/// communication, client and request bookkeeping, tracer and metrics.
/// Kept apart so a replica's executor can borrow it as its [`ExecHost`]
/// (see [`Leg`]).
struct Host {
    cfg: EngineConfig,
    scenario: Scenario,
    queue: EventQueue<Ev>,
    gc: GroupComm<GcMsg>,
    /// Per-replica liveness.
    alive: Vec<bool>,
    /// Per-replica CPU-speed jitter streams.
    jitter: Vec<SplitMix64>,
    /// Request bookkeeping, one flat table indexed `req_base[client] +
    /// req_no` (both dense): no per-client allocation. Allocated by `start`,
    /// so an engine built but not yet run holds none of it.
    req_state: Vec<Option<ReqState>>,
    /// Per-client prefix offset into `req_state` (the client's first
    /// request's slot).
    req_base: Vec<usize>,
    client_pos: Vec<usize>,
    completed_requests: u64,
    latencies: Vec<RequestLatency>,
    dummy_requests: u64,
    dummy_counter: u32,
    ctrl_messages: u64,
    /// Highest nested-call number already answered per thread, to dedup
    /// failover re-issues (call numbers are issued in order per thread).
    replied_max: Vec<u32>,
    leader: usize,
    kill_time: Option<SimTime>,
    takeover_gap: Option<SimDuration>,
    rng: SplitMix64,
    perf: PerfCounters,
    /// Fault-lifecycle log (part of [`RunResult`]).
    fault_log: Vec<FaultRecord>,
    /// Replicas that completed crash + catch-up at least once.
    recovered_flags: Vec<bool>,
    /// Duplicate-delivery adversary: while `now < dup_until[n]`, every
    /// broadcast leg to replica `n` is fanned out twice, the copy
    /// trailing by `dup_copy_delay[n]`.
    dup_until: Vec<SimTime>,
    dup_copy_delay: Vec<SimDuration>,
    /// Reordering adversary: while `now < delay_until[n]`, every second
    /// leg to replica `n` (parity in `delay_flip[n]`) is delayed by
    /// `delay_extra[n]`, forcing hold-back buffering.
    delay_until: Vec<SimTime>,
    delay_extra: Vec<SimDuration>,
    delay_flip: Vec<bool>,
    /// Admission batching ring: threads admitted/resumed while no other
    /// event is due at the current instant run from here, FIFO, after the
    /// current handler — one calendar-queue drain for the whole decision
    /// run instead of one zero-delay push/pop per thread. The gate in
    /// [`Host::schedule_step`] makes this order provably identical to
    /// the queue's (time, seq) order.
    ready: std::collections::VecDeque<(usize, ThreadId)>,
    /// Reused broadcast fan-out buffer for [`GroupComm::sequence_into`].
    hops_scratch: Vec<(NodeId, SimDuration)>,
    /// Reused in-order delivery buffer for [`GroupComm::arrive_into`].
    deliv_scratch: Vec<Delivery<GcMsg>>,
    metrics: MetricsRegistry,
    tracer: Tracer,
    /// Histogram handles for queue-depth sampling (None = sampling off).
    depth_ids: Option<DepthIds>,
    /// `tracer.is_enabled() || depth_ids.is_some()`, cached so the
    /// per-dispatch observation side-channel costs one branch when off.
    observe: bool,
}

/// The host as one replica's executor sees it while that replica runs.
struct Leg<'a> {
    host: &'a mut Host,
    replica: usize,
}

#[derive(Debug)]
enum Ev {
    SeqArrive(GcMsg),
    NodeArrive {
        node: usize,
        sm: Sequenced<GcMsg>,
    },
    Step {
        replica: usize,
        tid: ThreadId,
    },
    NestedDone {
        tid: ThreadId,
        call_no: u32,
    },
    ClientReply {
        client: u32,
    },
    /// Open-loop submission: request `req_no` of `client` enters the
    /// total-order layer now, whatever the state of earlier requests.
    ClientSubmit {
        client: u32,
        req_no: u32,
    },
    LeaderDetect {
        new_leader: usize,
    },
    /// Entry `idx` of the [`FaultPlan`] fires now.
    Fault {
        idx: usize,
    },
    /// A deferred recovery attempt re-checks the quiescence gate.
    TryRecover {
        replica: usize,
    },
}

/// Backoff between recovery attempts while the cluster is non-quiescent.
/// Fixed (not tuned per run) so the retry cadence is part of the
/// deterministic schedule.
const RECOVERY_RETRY: SimDuration = SimDuration::from_millis(1);

/// FIFO-source id space offset for clients (replicas use their index).
const CLIENT_SRC: u64 = 1_000_000;

#[derive(Clone, Copy)]
struct ReqState {
    submitted: SimTime,
    /// A replica already finished it (first-reply dedup).
    replied: bool,
}

/// An [`Engine`]'s calendar queue, detached for reuse: a shard worker
/// threads one of these through consecutive group runs so the slab,
/// bucket lists and heap scratch warmed by shard *k* serve shard *k+1*
/// without reallocating. The wrapped queue is reset (events dropped,
/// clock rewound to zero) on donation, so a reused queue's pop stream is
/// byte-identical to a fresh one's.
#[derive(Default)]
pub struct EngineQueue(EventQueue<Ev>);

impl EngineQueue {
    pub fn new() -> Self {
        EngineQueue(EventQueue::new())
    }
}

/// Dense handles of the `depth.*` histograms (see [`MetricsRegistry`]).
#[derive(Clone, Copy)]
struct DepthIds {
    admission: dmt_obs::HistId,
    lock_queued: dmt_obs::HistId,
    wait_set: dmt_obs::HistId,
    sched_queue: dmt_obs::HistId,
    total: dmt_obs::HistId,
}

impl Engine {
    pub fn new(scenario: Scenario, cfg: EngineConfig) -> Self {
        Self::with_queue(scenario, cfg, EngineQueue::new())
    }

    /// Like [`Engine::new`], but reusing a donated calendar queue (see
    /// [`EngineQueue`]). The queue is reset before use.
    pub fn with_queue(scenario: Scenario, cfg: EngineConfig, queue: EngineQueue) -> Self {
        let mut queue = queue.0;
        queue.reset();
        queue.set_fastpath(cfg.fastpath);
        let mut rng = SplitMix64::new(cfg.seed);
        let n = cfg.n_replicas;
        let mut gc = GroupComm::new(n, cfg.net, rng.split(0).next_u64());
        gc.set_dedup(!cfg.broken_dedup);
        for &(node, one_way) in &cfg.node_latency {
            gc.set_node_latency(NodeId::new(node as u32), Some(one_way));
        }
        let jitter = (0..n).map(|i| rng.split(100 + i as u64)).collect();
        let req_base = scenario
            .clients
            .iter()
            .scan(0, |next, cl| {
                let base = *next;
                *next += cl.requests.len();
                Some(base)
            })
            .collect();
        let mut metrics = MetricsRegistry::new();
        let depth_ids = cfg.sample_depths.then(|| DepthIds {
            admission: metrics.histogram("depth.admission"),
            lock_queued: metrics.histogram("depth.lock_queued"),
            wait_set: metrics.histogram("depth.wait_set"),
            sched_queue: metrics.histogram("depth.sched_queue"),
            total: metrics.histogram("depth.total"),
        });
        let tracer = cfg.trace.map_or_else(Tracer::disabled, Tracer::buffered);
        let observe = tracer.is_enabled() || depth_ids.is_some();
        let host = Host {
            cfg,
            scenario,
            queue,
            gc,
            alive: vec![true; n],
            jitter,
            req_state: Vec::new(),
            req_base,
            client_pos: Vec::new(),
            completed_requests: 0,
            latencies: Vec::new(),
            dummy_requests: 0,
            dummy_counter: 0,
            ctrl_messages: 0,
            replied_max: Vec::new(),
            leader: 0,
            kill_time: None,
            takeover_gap: None,
            rng,
            perf: PerfCounters::default(),
            fault_log: Vec::new(),
            recovered_flags: vec![false; n],
            dup_until: vec![SimTime::ZERO; n],
            dup_copy_delay: vec![SimDuration::ZERO; n],
            delay_until: vec![SimTime::ZERO; n],
            delay_extra: vec![SimDuration::ZERO; n],
            delay_flip: vec![false; n],
            ready: std::collections::VecDeque::new(),
            hops_scratch: Vec::new(),
            deliv_scratch: Vec::new(),
            metrics,
            tracer,
            depth_ids,
            observe,
        };
        // `this_mutex` scans every request's arguments: once per engine.
        let this = host.scenario.this_mutex();
        let reps = (0..n)
            .map(|i| {
                Rep::new(
                    host.scheduler(i),
                    host.scenario.program.clone(),
                    this,
                    host.tracer.is_enabled(),
                )
            })
            .collect();
        Engine { host, reps }
    }

    /// Runs the scenario to completion.
    pub fn run(self) -> RunResult {
        self.run_returning_queue().0
    }

    /// [`Engine::run`], additionally handing back the calendar queue so
    /// a shard worker can thread it through its next group run (see
    /// [`EngineQueue`]).
    pub fn run_returning_queue(mut self) -> (RunResult, EngineQueue) {
        self.start();
        let wall_start = std::time::Instant::now();
        let cap = SimTime::ZERO + self.host.cfg.max_time;
        let mut deadlocked = false;
        while let Some((t, ev)) = self.host.queue.pop() {
            if t > cap {
                deadlocked = true;
                break;
            }
            self.process(ev);
        }
        self.host.perf.wall_ns = wall_start.elapsed().as_nanos() as u64;
        self.finish(deadlocked)
    }

    /// Seeds the event queue: client submissions (closed-loop clients
    /// submit their first request now and chain on replies; open-loop
    /// clients' arrival schedules load the queue's presorted arrival lane,
    /// so only in-flight events ever occupy the calendar) and the fault
    /// plan. Every event takes its insertion seq in client order, exactly
    /// as if each arrival had been pushed on the calendar here.
    fn start(&mut self) {
        let h = &mut self.host;
        h.client_pos = vec![0; h.scenario.clients.len()];
        h.req_state = vec![None; h.scenario.total_requests()];
        for c in 0..h.scenario.clients.len() {
            match &h.scenario.clients[c].arrivals {
                Some(schedule) => {
                    for (req_no, &at) in schedule.iter().enumerate() {
                        h.queue.push_lane(
                            at,
                            Ev::ClientSubmit {
                                client: c as u32,
                                req_no: req_no as u32,
                            },
                        );
                    }
                }
                None => {
                    if !h.scenario.clients[c].requests.is_empty() {
                        h.client_pos[c] = 1;
                        h.submit_request(c as u32, 0);
                    }
                }
            }
        }
        h.queue.seal_lane();
        // Faults are ordinary calendar events: same (time, seq) total
        // order, same replayability, as the workload they perturb.
        for idx in 0..h.cfg.faults.events.len() {
            let at = h.cfg.faults.events[idx].at;
            h.queue.push_after(at, Ev::Fault { idx });
        }
    }

    /// Handles one popped event and drains the admission batch: every
    /// ring entry was gated on "no other event due now", so FIFO order
    /// here is exactly the (time, seq) order the queue would have
    /// produced — minus the per-thread zero-delay push/pop. Handlers may
    /// append while we drain (cascading grants); the ring is always
    /// empty by the time the caller pops the queue again.
    fn process(&mut self, ev: Ev) {
        self.host.perf.events += 1;
        self.handle(ev);
        while let Some((replica, tid)) = self.host.ready.pop_front() {
            self.host.perf.events += 1;
            self.host.perf.batched_steps += 1;
            self.step(replica, tid);
        }
    }

    /// Steps `tid` on `replica` through its executor, unless the replica
    /// is down.
    #[inline]
    fn step(&mut self, replica: usize, tid: ThreadId) {
        if self.host.alive[replica] {
            let leg = &mut Leg {
                host: &mut self.host,
                replica,
            };
            self.reps[replica].step(leg, tid);
        }
    }

    /// Post-run accounting: sweeps meters, computes stuck threads and
    /// state hashes, exports the metrics snapshot, and hands back the
    /// queue for reuse. `deadlocked` is the run loop's verdict so far
    /// (time-cap overrun); incomplete request accounting is added here.
    fn finish(mut self, mut deadlocked: bool) -> (RunResult, EngineQueue) {
        let h = &mut self.host;
        let mut stuck_threads = Vec::new();
        for (i, rep) in self.reps.iter().enumerate() {
            let (steps, fused, allocs, reuses) = rep.vm_meters();
            h.perf.vm_steps += steps;
            h.perf.fused_steps += fused;
            h.perf.vm_allocs += allocs;
            h.perf.vm_reuses += reuses;
            h.perf.sched_events += rep.sched_events;
            h.perf.sched_actions += rep.sched_actions;
            if h.alive[i] {
                for (tid, why) in rep.blocked() {
                    stuck_threads.push((i, tid.0, format!("{why:?}")));
                }
            }
        }
        stuck_threads.sort();
        let makespan = h.queue.now();
        if h.completed_requests < h.scenario.total_requests() as u64 {
            deadlocked = true;
        }
        // Route everything the run measured through the registry so the
        // snapshot is the one uniform export (DESIGN.md §9). `net.*`
        // replaces the former standalone `net_stats` field.
        let net = *h.gc.stats();
        for (name, v) in [
            ("engine.events", h.perf.events),
            ("engine.sched_events", h.perf.sched_events),
            ("engine.sched_actions", h.perf.sched_actions),
            ("engine.vm_steps", h.perf.vm_steps),
            ("engine.fused_steps", h.perf.fused_steps),
            ("engine.batched_steps", h.perf.batched_steps),
            ("engine.completed_requests", h.completed_requests),
            ("engine.dummy_requests", h.dummy_requests),
            ("engine.ctrl_messages", h.ctrl_messages),
            ("net.submissions", net.submissions),
            ("net.broadcast_legs", net.broadcast_legs),
            ("net.deliveries", net.deliveries),
            ("net.dup_dropped", net.dup_dropped),
            ("net.held_back", net.held_back),
        ] {
            let id = h.metrics.counter(name);
            h.metrics.set_counter(id, v);
        }
        let lat = h.metrics.histogram(REQUEST_LATENCY);
        for l in &h.latencies {
            h.metrics.record(lat, l.latency().as_nanos());
        }
        let makespan_g = h.metrics.gauge("engine.makespan_ns");
        h.metrics.set_gauge(makespan_g, makespan.as_nanos() as i64);
        // Trace accounting (only when tracing was on, so untraced runs
        // keep byte-identical metric snapshots): what the buffer kept
        // and what it had to drop.
        if h.cfg.trace.is_some() {
            for (name, v) in [
                ("trace.recorded", h.tracer.records().len() as u64),
                ("trace.dropped", h.tracer.dropped()),
            ] {
                let id = h.metrics.counter(name);
                h.metrics.set_counter(id, v);
            }
        }
        let traces = self
            .reps
            .iter_mut()
            .map(|r| ExecutionTrace {
                lock_order: std::mem::take(&mut r.grants),
                state_hash: r.state.state_hash(),
                finished_threads: r.finished,
            })
            .collect();
        let h = self.host;
        let result = RunResult {
            traces,
            latencies: h.latencies,
            completed_requests: h.completed_requests,
            makespan,
            dummy_requests: h.dummy_requests,
            ctrl_messages: h.ctrl_messages,
            deadlocked,
            takeover_gap: h.takeover_gap,
            stuck_threads,
            alive: h.alive,
            recovered: h.recovered_flags,
            fault_log: h.fault_log,
            perf: h.perf,
            metrics: h.metrics.snapshot(),
            trace_records: h.tracer.into_records(),
        };
        (result, EngineQueue(h.queue))
    }

    fn handle(&mut self, ev: Ev) {
        let h = &mut self.host;
        match ev {
            Ev::SeqArrive(msg) => {
                let mut hops = std::mem::take(&mut h.hops_scratch);
                let sm = h.gc.sequence_into(msg, &mut hops);
                let t = h.now_ns();
                h.tracer
                    .record(t, TraceRecord::NO_REPLICA, || TraceEvent::GcSequenced {
                        seq: sm.seq,
                    });
                let now = h.queue.now();
                for &(node, d) in &hops {
                    let n = node.index();
                    // Reordering adversary: every second leg to a node
                    // under a delay window straggles, so later sequence
                    // numbers overtake it and the hold-back buffer earns
                    // its keep. Parity-based — no RNG draw consumed.
                    let mut d_eff = d;
                    if now < h.delay_until[n] {
                        h.delay_flip[n] = !h.delay_flip[n];
                        if h.delay_flip[n] {
                            d_eff += h.delay_extra[n];
                        }
                    }
                    h.queue.push_after(d_eff, Ev::NodeArrive { node: n, sm });
                    // Duplicate-delivery adversary: the copy trails the
                    // original by a fixed offset (again no RNG draw).
                    if now < h.dup_until[n] {
                        h.queue.push_after(
                            d_eff + h.dup_copy_delay[n],
                            Ev::NodeArrive { node: n, sm },
                        );
                    }
                }
                h.hops_scratch = hops;
            }
            Ev::NodeArrive { node, sm } => {
                // `deliver` never re-enters `arrive_into`, so draining the
                // reused buffer before handing messages down is safe.
                let mut deliveries = std::mem::take(&mut h.deliv_scratch);
                h.gc.arrive_into(NodeId::new(node as u32), sm, &mut deliveries);
                for d in deliveries.drain(..) {
                    self.deliver(node, d.seq, d.msg);
                }
                self.host.deliv_scratch = deliveries;
            }
            Ev::Step { replica, tid } => self.step(replica, tid),
            Ev::NestedDone { tid, call_no } => {
                if h.mark_replied(tid, call_no) {
                    let src = h.designated() as u64;
                    h.submit_to_gc(src, GcMsg::NestedReply { tid, call_no });
                }
            }
            Ev::ClientReply { client } => {
                // Closed loop only: a reply releases the next request.
                let c = client as usize;
                let pos = h.client_pos[c];
                if pos < h.scenario.clients[c].requests.len() {
                    h.client_pos[c] = pos + 1;
                    h.submit_request(client, pos as u32);
                }
            }
            Ev::ClientSubmit { client, req_no } => h.submit_request(client, req_no),
            Ev::Fault { idx } => {
                let fe = h.cfg.faults.events[idx];
                match fe.kind {
                    FaultKind::Crash { replica } => self.kill_replica(replica),
                    FaultKind::Recover { replica } => self.try_recover(replica),
                    FaultKind::DuplicateWindow {
                        replica,
                        until,
                        copy_delay,
                    } => {
                        h.dup_until[replica] = SimTime::ZERO + until;
                        h.dup_copy_delay[replica] = copy_delay;
                    }
                    FaultKind::DelayWindow {
                        replica,
                        until,
                        extra,
                    } => {
                        h.delay_until[replica] = SimTime::ZERO + until;
                        h.delay_extra[replica] = extra;
                    }
                }
            }
            Ev::TryRecover { replica } => self.try_recover(replica),
            Ev::LeaderDetect { new_leader } => {
                h.leader = new_leader;
                let t = h.now_ns();
                h.tracer
                    .record(t, TraceRecord::NO_REPLICA, || TraceEvent::LeaderFailover {
                        new_leader: new_leader as u32,
                    });
                h.fault_log.push(FaultRecord {
                    at: h.queue.now(),
                    replica: new_leader,
                    kind: FaultRecordKind::LeaderFailover { new_leader },
                });
                for (replica, rep) in self.reps.iter_mut().enumerate() {
                    if h.alive[replica] {
                        rep.sched
                            .on_leader_change(ReplicaId::new(new_leader as u32));
                        rep.kick(&mut Leg {
                            host: &mut *h,
                            replica,
                        });
                    }
                }
            }
        }
    }

    fn kill_replica(&mut self, replica: usize) {
        let h = &mut self.host;
        if !h.alive[replica] {
            return;
        }
        h.alive[replica] = false;
        h.gc.kill(NodeId::new(replica as u32));
        h.kill_time = Some(h.queue.now());
        let t = h.now_ns();
        h.tracer
            .record(t, replica as u32, || TraceEvent::ReplicaCrashed);
        h.fault_log.push(FaultRecord {
            at: h.queue.now(),
            replica,
            kind: FaultRecordKind::Crashed,
        });
        // Leader failover (affects LSA; harmless for the others).
        if replica == h.leader {
            let new_leader = h.designated();
            h.queue
                .push_after(h.cfg.detect_delay, Ev::LeaderDetect { new_leader });
        }
        // Nested-invocation failover: the new invoker re-issues the
        // external calls it has locally outstanding.
        for (tid, call_no, dur_ns) in self.reps[h.designated()].awaiting() {
            if !h.is_replied(tid, call_no) {
                h.queue.push_after(
                    SimDuration::from_nanos(dur_ns),
                    Ev::NestedDone { tid, call_no },
                );
            }
        }
    }

    /// Quiescence-gated recovery: a crashed replica rejoins by cloning
    /// the designated survivor's object state (passive-replication
    /// catch-up) and re-entering the broadcast at the current sequence
    /// number. Messages sequenced during the outage were never fanned out
    /// to the dead node — the state transfer *is* the catch-up, so the
    /// donor must have processed everything sequenced so far (quiescent:
    /// no runnable or blocked work, and its delivered count equals the
    /// global sequenced count). A non-quiescent attempt re-arms itself
    /// [`RECOVERY_RETRY`] later; both outcomes are logged, so the retry
    /// cadence is visible in [`RunResult::fault_log`].
    ///
    /// The rejoining replica gets a *fresh* scheduler configured with the
    /// current leader — sound only for kinds whose decision state is empty
    /// at quiescence (asserted via
    /// [`SchedulerKind::supports_recovery`]; DESIGN.md §11 carries the
    /// per-kind argument).
    fn try_recover(&mut self, replica: usize) {
        let h = &mut self.host;
        if h.alive[replica] {
            return;
        }
        assert!(
            h.cfg.scheduler.supports_recovery(),
            "{} does not support mid-run recovery (scheduler state is not \
             empty at quiescence — see DESIGN.md §11)",
            h.cfg.scheduler
        );
        let donor = h.designated();
        let quiescent = self.reps[donor].quiescent()
            && h.gc.delivered_count(NodeId::new(donor as u32)) == h.gc.sequenced_count();
        if !quiescent {
            h.fault_log.push(FaultRecord {
                at: h.queue.now(),
                replica,
                kind: FaultRecordKind::RecoveryDeferred,
            });
            h.queue
                .push_after(RECOVERY_RETRY, Ev::TryRecover { replica });
            return;
        }
        let from_seq = h.gc.sequenced_count();
        let handoff = self.reps[donor].handoff();
        self.reps[replica].rejoin(h.scheduler(replica), handoff);
        h.alive[replica] = true;
        h.recovered_flags[replica] = true;
        h.gc.revive(NodeId::new(replica as u32), from_seq);
        let t = h.now_ns();
        h.tracer
            .record(t, replica as u32, || TraceEvent::ReplicaRecovered {
                from_seq,
            });
        h.fault_log.push(FaultRecord {
            at: h.queue.now(),
            replica,
            kind: FaultRecordKind::Recovered { from_seq, donor },
        });
    }

    /// In-order delivery of one total-order message at one replica.
    fn deliver(&mut self, replica: usize, seq: u64, msg: GcMsg) {
        let h = &mut self.host;
        if !h.alive[replica] {
            return;
        }
        let t = h.now_ns();
        h.tracer
            .record(t, replica as u32, || TraceEvent::GcDeliver { seq });
        let rep = &mut self.reps[replica];
        match msg {
            GcMsg::Request { id, method, dummy } => {
                let args = if dummy {
                    RequestArgs::empty()
                } else {
                    let script = &h.scenario.clients[id.client as usize];
                    script.requests[id.req_no as usize].1.clone()
                };
                let leg = &mut Leg { host: h, replica };
                rep.arrive(leg, seq, method, args, dummy, (!dummy).then_some(id))
            }
            GcMsg::NestedReply { tid, call_no } => {
                rep.nested_reply(&mut Leg { host: h, replica }, tid, call_no)
            }
            GcMsg::Ctrl { from, msg } => {
                if from.index() != replica {
                    rep.dispatch(&mut Leg { host: h, replica }, SchedEvent::Control(msg));
                }
            }
        }
    }
}

impl Host {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.queue.now().as_nanos()
    }

    /// A fresh scheduler for `replica`, following the current leader.
    fn scheduler(&self, replica: usize) -> Box<AnyScheduler> {
        let sc = SchedConfig::new(self.cfg.scheduler, ReplicaId::new(replica as u32))
            .with_lock_table(self.scenario.lock_table.clone())
            .with_pds(self.cfg.pds)
            .with_leader(ReplicaId::new(self.leader as u32));
        Box::new(dmt_core::make_scheduler_inline(&sc))
    }

    /// True if nested call `call_no` of `tid` already has a broadcast
    /// reply (per-thread call numbers are answered in issue order).
    fn is_replied(&self, tid: ThreadId, call_no: u32) -> bool {
        self.replied_max.get(tid.index()).copied().unwrap_or(0) >= call_no
    }

    /// Records a reply broadcast; returns false if it was a duplicate.
    fn mark_replied(&mut self, tid: ThreadId, call_no: u32) -> bool {
        let i = tid.index();
        if i >= self.replied_max.len() {
            self.replied_max.resize(i + 1, 0);
        }
        if self.replied_max[i] >= call_no {
            false
        } else {
            self.replied_max[i] = call_no;
            true
        }
    }

    /// The lowest-numbered live replica: designated nested-invocation
    /// invoker and dummy submitter.
    fn designated(&self) -> usize {
        self.alive
            .iter()
            .position(|&a| a)
            .expect("no replica left alive")
    }

    /// Submits through the group communication system with per-source
    /// FIFO (clients and replicas each keep their submissions in order).
    fn submit_to_gc(&mut self, source: u64, msg: GcMsg) {
        let t = self.now_ns();
        self.tracer
            .record(t, TraceRecord::NO_REPLICA, || TraceEvent::GcSubmit {
                source,
            });
        let d = self.gc.submit_delay_fifo(source, self.queue.now());
        self.queue.push_after(d, Ev::SeqArrive(msg));
    }

    /// Submits request `req_no` of `client` to the total-order layer and
    /// records its enqueue timestamp.
    fn submit_request(&mut self, client: u32, req_no: u32) {
        let c = client as usize;
        let method = self.scenario.clients[c].requests[req_no as usize].0;
        self.req_state[self.req_base[c] + req_no as usize] = Some(ReqState {
            submitted: self.queue.now(),
            replied: false,
        });
        self.submit_to_gc(
            CLIENT_SRC + c as u64,
            GcMsg::Request {
                id: RequestId { client, req_no },
                method,
                dummy: false,
            },
        );
    }

    /// Schedules an admitted/resumed thread's first step. The batching
    /// gate: the thread joins the inline ready ring only when no queue
    /// event is due at the current instant — then the ring's FIFO order
    /// *is* the (time, seq) order the queue would produce, because every
    /// later arrival at this instant gets a later sequence number. If an
    /// event is already due now (it holds an earlier seq and must run
    /// first), fall back to the reference zero-delay push, which sorts
    /// after it and before everything later. Net effect: identical
    /// execution order, one queue drain per decision run instead of one
    /// push/pop per thread.
    #[inline]
    fn schedule_step(&mut self, replica: usize, tid: ThreadId) {
        let now = self.queue.now();
        if self.cfg.batch_admission && self.queue.peek_time().is_none_or(|t| t > now) {
            self.ready.push_back((replica, tid));
        } else {
            self.queue
                .push_after(SimDuration::ZERO, Ev::Step { replica, tid });
        }
    }

    /// Same-instant grant fusion: a dispatch from the step loop that
    /// synchronously resumed the stepping thread put it at the front of
    /// the ready ring, where the `process` drain would pop it next and
    /// step it again with identical state. Popping it here and
    /// continuing the step loop skips that round trip; the ring entry is
    /// still accounted as the batched-step event it would have been, so
    /// every counter stays byte-identical. Disabled by
    /// [`EngineConfig::without_fastpath`] (the reference path for the
    /// fusion differential tests).
    #[inline]
    fn fused_continue(&mut self, replica: usize, tid: ThreadId) -> bool {
        if self.cfg.fastpath && self.ready.front() == Some(&(replica, tid)) {
            self.ready.pop_front();
            self.perf.events += 1;
            self.perf.batched_steps += 1;
            self.perf.fused_grants += 1;
            return true;
        }
        false
    }

    /// Tracing/sampling side-channel of one dispatch: stamps the
    /// scheduler's decision records with virtual time and samples queue
    /// depths. Both paths are disabled by default; the decision vector is
    /// empty (and was never allocated) when recording is off.
    fn observe_dispatch<S: Scheduler + ?Sized>(
        &mut self,
        replica: usize,
        sched: &S,
        out: &SchedOutput,
    ) {
        if self.tracer.is_enabled() {
            let t = self.now_ns();
            for &d in out.decisions() {
                self.tracer
                    .record(t, replica as u32, || TraceEvent::Sched(d));
            }
        }
        if let Some(ids) = self.depth_ids {
            let d = sched.depths();
            self.metrics.record(ids.admission, d.admission as u64);
            self.metrics.record(ids.lock_queued, d.lock_queued as u64);
            self.metrics.record(ids.wait_set, d.wait_set as u64);
            self.metrics.record(ids.sched_queue, d.sched_queue as u64);
            self.metrics.record(ids.total, d.total() as u64);
            let t = self.now_ns();
            self.tracer
                .record(t, replica as u32, || TraceEvent::Depth(d));
        }
    }

    fn reply_latency(&mut self) -> SimDuration {
        let u = self.rng.next_f64();
        let base = self.cfg.net.one_way.as_nanos() as f64;
        SimDuration::from_nanos((base * (1.0 + self.cfg.net.jitter * u)).round() as u64)
    }
}

impl ExecHost for Leg<'_> {
    type Tag = Option<RequestId>;

    #[inline]
    fn schedule(&mut self, tid: ThreadId) {
        self.host.schedule_step(self.replica, tid);
    }

    #[inline]
    fn resumed_inline(&mut self, tid: ThreadId) -> bool {
        self.host.fused_continue(self.replica, tid)
    }

    fn compute(&mut self, tid: ThreadId, dur_ns: u64) -> bool {
        let h = &mut *self.host;
        let jit = 1.0 + h.cfg.cpu_jitter * h.jitter[self.replica].next_f64();
        let d = SimDuration::from_nanos((dur_ns as f64 * jit).round() as u64);
        let replica = self.replica;
        h.queue.push_after(d, Ev::Step { replica, tid });
        false
    }

    /// Only the designated invoker performs the call, once per call
    /// number; every replica learns the result from the reply broadcast.
    fn nested(&mut self, tid: ThreadId, call_no: u32, dur_ns: u64) {
        let h = &mut *self.host;
        if self.replica != h.designated() || h.is_replied(tid, call_no) {
            return;
        }
        h.queue.push_after(
            SimDuration::from_nanos(dur_ns),
            Ev::NestedDone { tid, call_no },
        );
    }

    fn finished(&mut self, tid: ThreadId, tag: Option<RequestId>) {
        let h = &mut *self.host;
        let Some(id) = tag else { return };
        let now = h.queue.now();
        // First-reply semantics: the fastest replica answers the client.
        let reply_leg = h.reply_latency();
        let st = h.req_state[h.req_base[id.client as usize] + id.req_no as usize]
            .as_mut()
            .expect("request state exists");
        if st.replied {
            return;
        }
        st.replied = true;
        let replied = now + reply_leg;
        h.tracer
            .record(replied.as_nanos(), self.replica as u32, || {
                TraceEvent::RequestReplied { tid }
            });
        h.completed_requests += 1;
        if let (Some(kt), None) = (h.kill_time, h.takeover_gap) {
            if now >= kt {
                h.takeover_gap = Some(now - kt);
            }
        }
        h.latencies.push(RequestLatency {
            id,
            enqueued: st.submitted,
            replied,
        });
        // Open-loop clients submit on their schedule; only the closed
        // loop chains request `k+1` on reply `k`.
        if !h.scenario.clients[id.client as usize].is_open_loop() {
            h.queue
                .push_after(reply_leg, Ev::ClientReply { client: id.client });
        }
    }

    fn broadcast(&mut self, msg: CtrlMsg) {
        self.host.ctrl_messages += 1;
        let from = ReplicaId::new(self.replica as u32);
        self.host
            .submit_to_gc(self.replica as u64, GcMsg::Ctrl { from, msg });
    }

    /// Every replica's request is materialised: replicas' pool states
    /// drift under jitter, so one replica may legitimately need a filler
    /// the others do not. Excess dummies are no-ops everywhere — the
    /// "higher communication overhead" the paper prices in.
    fn dummy(&mut self) {
        let h = &mut *self.host;
        let Some(method) = h.scenario.dummy_method else {
            panic!("scheduler requested a dummy but the scenario has no dummy method");
        };
        h.dummy_requests += 1;
        let id = RequestId {
            client: u32::MAX,
            req_no: h.dummy_counter,
        };
        h.dummy_counter += 1;
        let msg = GcMsg::Request {
            id,
            method,
            dummy: true,
        };
        h.submit_to_gc(self.replica as u64, msg);
    }

    fn arrived(&mut self, tid: ThreadId, dummy: bool) {
        let t = self.host.now_ns();
        self.host
            .tracer
            .record(t, self.replica as u32, || TraceEvent::RequestArrived {
                tid,
                dummy,
            });
    }

    /// Engine-level release stamp (closes the Grant span for the
    /// contention profiler); a wait's re-acquisition arrives later as
    /// `Grant { from_wait: true }`.
    fn released(&mut self, tid: ThreadId, mutex: MutexId) {
        let t = self.host.now_ns();
        self.host
            .tracer
            .record(t, self.replica as u32, || TraceEvent::MutexReleased {
                tid,
                mutex,
            });
    }

    fn finishing(&mut self, tid: ThreadId) {
        let t = self.host.now_ns();
        self.host
            .tracer
            .record(t, self.replica as u32, || TraceEvent::RequestFinished {
                tid,
            });
    }

    #[inline]
    fn observe<S: Scheduler + ?Sized>(&mut self, sched: &S, out: &SchedOutput) {
        if self.host.observe {
            self.host.observe_dispatch(self.replica, sched, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ClientScript;
    use dmt_lang::ast::{IntExpr, MutexExpr};
    use dmt_lang::{compile, DurExpr, ObjectBuilder, ServiceId, Value};

    fn counter_scenario(n_clients: usize, reqs_per_client: usize) -> Scenario {
        let mut ob = ObjectBuilder::new("Counter");
        let c = ob.cell();
        let mut m = ob.method("inc", 1);
        m.compute(DurExpr::micros(100));
        m.sync(MutexExpr::This, |b| {
            b.update(c, IntExpr::Arg(0));
        });
        let inc = m.done();
        let noop = ob.method("noop", 0);
        let noop_idx = noop.done();
        let program = compile::compile(&ob.build());
        let clients = (0..n_clients)
            .map(|_| {
                ClientScript::repeated(
                    inc,
                    (0..reqs_per_client)
                        .map(|i| RequestArgs::new(&[Value::Int(i as i64 + 1)]))
                        .collect(),
                )
            })
            .collect();
        Scenario::new(program, clients).with_dummy_method(noop_idx)
    }

    fn run(kind: SchedulerKind, scenario: Scenario, seed: u64) -> RunResult {
        Engine::new(
            scenario,
            EngineConfig::new(kind)
                .with_seed(seed)
                .with_cpu_jitter(0.05),
        )
        .run()
    }

    #[test]
    fn all_schedulers_complete_the_counter_scenario() {
        for kind in SchedulerKind::ALL {
            let res = run(kind, counter_scenario(4, 5), 3);
            assert!(!res.deadlocked, "{kind} stalled");
            assert_eq!(res.completed_requests, 20, "{kind}");
            assert_eq!(res.latencies.len(), 20);
            // Sum of 1..=5 per client × 4 clients = 60 on every replica.
            for tr in &res.traces {
                assert_eq!(
                    tr.finished_threads,
                    20 + if kind == SchedulerKind::Pds {
                        res.dummy_requests
                    } else {
                        0
                    }
                );
            }
        }
    }

    #[test]
    fn replicas_share_identical_state_for_deterministic_schedulers() {
        for kind in SchedulerKind::DETERMINISTIC {
            let res = run(kind, counter_scenario(3, 4), 11);
            assert!(!res.deadlocked, "{kind}");
            let h0 = res.traces[0].state_hash;
            for tr in &res.traces[1..] {
                assert_eq!(tr.state_hash, h0, "{kind} replica state diverged");
            }
        }
    }

    #[test]
    fn nested_invocations_route_through_the_invoker() {
        let mut ob = ObjectBuilder::new("N");
        let c = ob.cell();
        let mut m = ob.method("work", 0);
        m.nested(ServiceId::new(0), DurExpr::millis(2));
        m.sync(MutexExpr::This, |b| {
            b.add(c, 1);
        });
        let work = m.done();
        let program = compile::compile(&ob.build());
        let scenario = Scenario::new(
            program,
            vec![ClientScript::repeated(work, vec![RequestArgs::empty(); 3])],
        );
        let res = run(SchedulerKind::Sat, scenario, 5);
        assert!(!res.deadlocked);
        assert_eq!(res.completed_requests, 3);
        // Response time must include the nested round trips (≥ 2 ms).
        assert!(res.response_ms().mean() >= 2.0);
    }

    #[test]
    fn makespan_and_throughput_accounting() {
        let res = run(SchedulerKind::Seq, counter_scenario(2, 3), 9);
        assert!(res.makespan > SimTime::ZERO);
        assert_eq!(res.completed_requests, 6);
        assert!(res.net_counter("deliveries") > 0);
    }

    #[test]
    fn lsa_broadcasts_control_traffic() {
        let res = run(SchedulerKind::Lsa, counter_scenario(3, 3), 13);
        assert!(!res.deadlocked);
        assert!(res.ctrl_messages > 0, "LSA must announce grants");
        let res_mat = run(SchedulerKind::Mat, counter_scenario(3, 3), 13);
        assert_eq!(res_mat.ctrl_messages, 0, "MAT needs no control traffic");
    }

    #[test]
    fn pds_uses_dummies_when_starved() {
        // One slow client, big pool: dummies must appear.
        let res = run(SchedulerKind::Pds, counter_scenario(1, 3), 17);
        assert!(!res.deadlocked);
        assert!(res.dummy_requests > 0);
    }

    #[test]
    fn replica_kill_does_not_stop_service() {
        let scenario = counter_scenario(3, 6);
        let cfg = EngineConfig::new(SchedulerKind::Mat)
            .with_seed(7)
            .with_faults(FaultPlan::new().crash(SimDuration::from_millis(2), 2));
        let res = Engine::new(scenario, cfg).run();
        assert!(!res.deadlocked);
        assert_eq!(res.completed_requests, 18);
        // Survivors agree.
        assert_eq!(res.traces[0].state_hash, res.traces[1].state_hash);
    }

    #[test]
    fn lsa_leader_kill_fails_over() {
        let scenario = counter_scenario(3, 8);
        let cfg = EngineConfig::new(SchedulerKind::Lsa)
            .with_seed(7)
            .with_faults(FaultPlan::new().crash(SimDuration::from_millis(3), 0));
        let res = Engine::new(scenario, cfg).run();
        assert!(!res.deadlocked, "LSA must survive leader failure");
        assert_eq!(res.completed_requests, 24);
        assert!(res.takeover_gap.is_some());
        assert_eq!(res.traces[1].state_hash, res.traces[2].state_hash);
    }

    #[test]
    fn crash_and_recover_reconverges_to_identical_state() {
        use crate::fault::FaultRecordKind;
        let scenario = counter_scenario(3, 6);
        let plan = FaultPlan::new()
            .crash(SimDuration::from_millis(2), 2)
            .recover(SimDuration::from_millis(4), 2);
        let cfg = EngineConfig::new(SchedulerKind::Mat)
            .with_seed(7)
            .with_faults(plan);
        let res = Engine::new(scenario, cfg).run();
        assert!(!res.deadlocked);
        assert_eq!(res.completed_requests, 18);
        assert_eq!(res.alive, vec![true, true, true]);
        assert_eq!(res.recovered, vec![false, false, true]);
        // All three replicas — including the recovered one — end with the
        // same state hash.
        assert_eq!(res.traces[0].state_hash, res.traces[1].state_hash);
        assert_eq!(res.traces[0].state_hash, res.traces[2].state_hash);
        // Lifecycle log: a crash, then (possibly deferred) a recovery.
        assert!(matches!(res.fault_log[0].kind, FaultRecordKind::Crashed));
        let rec = res
            .fault_log
            .iter()
            .find(|r| matches!(r.kind, FaultRecordKind::Recovered { .. }))
            .expect("recovery must complete");
        assert_eq!(rec.replica, 2);
    }

    #[test]
    fn recovery_is_deterministic_across_reruns() {
        let mk = || {
            let plan = FaultPlan::new()
                .crash(SimDuration::from_millis(1), 1)
                .recover(SimDuration::from_millis(3), 1);
            Engine::new(
                counter_scenario(3, 5),
                EngineConfig::new(SchedulerKind::Sat)
                    .with_seed(11)
                    .with_cpu_jitter(0.2)
                    .with_faults(plan),
            )
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.fault_log, b.fault_log, "fault timeline must replay");
        assert_eq!(a.makespan, b.makespan);
        for (ta, tb) in a.traces.iter().zip(&b.traces) {
            assert_eq!(ta.state_hash, tb.state_hash);
        }
    }

    #[test]
    #[should_panic(expected = "does not support mid-run recovery")]
    fn recovery_under_pds_is_rejected() {
        let plan = FaultPlan::new()
            .crash(SimDuration::from_millis(1), 2)
            .recover(SimDuration::from_millis(2), 2);
        let _ = Engine::new(
            counter_scenario(2, 8),
            EngineConfig::new(SchedulerKind::Pds)
                .with_seed(3)
                .with_faults(plan),
        )
        .run();
    }

    #[test]
    fn duplicate_adversary_is_masked_by_dedup() {
        let plan = FaultPlan::new().duplicate_window(
            SimDuration::ZERO,
            SimDuration::from_secs(10),
            1,
            SimDuration::from_micros(120),
        );
        let res = Engine::new(
            counter_scenario(3, 5),
            EngineConfig::new(SchedulerKind::Mat)
                .with_seed(9)
                .with_faults(plan),
        )
        .run();
        assert!(!res.deadlocked);
        assert!(
            res.net_counter("dup_dropped") > 0,
            "adversary must actually generate duplicates"
        );
        assert_eq!(res.traces[0].state_hash, res.traces[1].state_hash);
        assert_eq!(res.traces[0].state_hash, res.traces[2].state_hash);
    }

    #[test]
    fn reorder_adversary_exercises_holdback_and_converges() {
        let plan = FaultPlan::new().delay_window(
            SimDuration::ZERO,
            SimDuration::from_secs(10),
            0,
            SimDuration::from_millis(2),
        );
        let res = Engine::new(
            counter_scenario(3, 5),
            EngineConfig::new(SchedulerKind::Seq)
                .with_seed(21)
                .with_faults(plan),
        )
        .run();
        assert!(!res.deadlocked);
        assert!(
            res.net_counter("held_back") > 0,
            "straggler legs must force hold-back buffering"
        );
        assert_eq!(res.traces[0].state_hash, res.traces[1].state_hash);
        assert_eq!(res.traces[0].state_hash, res.traces[2].state_hash);
    }

    /// The counter scenario rebuilt with an open-loop arrival schedule.
    fn open_loop_counter(n_clients: usize, reqs: usize, gap: SimDuration) -> Scenario {
        let closed = counter_scenario(n_clients, reqs);
        let clients = closed
            .clients
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let arrivals = (0..reqs)
                    .map(|k| SimTime::ZERO + gap * (c + k * n_clients + 1) as u64)
                    .collect();
                ClientScript::open_loop(script.requests.clone(), arrivals)
            })
            .collect();
        Scenario { clients, ..closed }
    }

    #[test]
    fn open_loop_completes_and_stamps_every_request() {
        let gap = SimDuration::from_micros(50);
        for kind in SchedulerKind::ALL {
            let res = run(kind, open_loop_counter(3, 4, gap), 5);
            assert!(!res.deadlocked, "{kind}");
            assert_eq!(res.completed_requests, 12, "{kind}");
            assert_eq!(res.latencies.len(), 12, "{kind}");
            assert_eq!(res.latency_ns().count(), 12, "{kind}");
            for rl in &res.latencies {
                // Enqueue stamps must match the arrival schedule exactly.
                let slot = rl.id.client as usize + rl.id.req_no as usize * 3 + 1;
                assert_eq!(rl.enqueued, SimTime::ZERO + gap * slot as u64, "{kind}");
                assert!(rl.replied > rl.enqueued, "{kind}");
            }
        }
    }

    #[test]
    fn open_loop_builds_queueing_delay_where_closed_loop_cannot() {
        // Submit 8 requests (1 client) essentially at once: under SEQ the
        // k-th request waits for k-1 predecessors, so open-loop latency
        // must grow monotonically far beyond the closed-loop mean.
        let res = run(
            SchedulerKind::Seq,
            open_loop_counter(1, 8, SimDuration::from_nanos(10)),
            5,
        );
        assert!(!res.deadlocked);
        let lat: Vec<u64> = res
            .latencies
            .iter()
            .map(|l| l.latency().as_nanos())
            .collect();
        assert!(
            lat.windows(2).all(|w| w[1] > w[0]),
            "latency must grow: {lat:?}"
        );
        // Each queued predecessor adds ≥ its 100 µs compute segment.
        assert!(
            lat[7] - lat[0] >= 7 * 90_000,
            "tail request must queue behind predecessors: {lat:?}"
        );
        let closed = run(SchedulerKind::Seq, counter_scenario(1, 8), 5);
        assert!(res.response_ms().mean() > closed.response_ms().mean());
    }

    #[test]
    fn open_loop_latencies_are_deterministic() {
        let gap = SimDuration::from_micros(20);
        let a = run(SchedulerKind::Mat, open_loop_counter(3, 5, gap), 9);
        let b = run(SchedulerKind::Mat, open_loop_counter(3, 5, gap), 9);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.latency_ns().p99_ns(), b.latency_ns().p99_ns());
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let a = run(SchedulerKind::Mat, counter_scenario(3, 4), 21);
        let b = run(SchedulerKind::Mat, counter_scenario(3, 4), 21);
        assert_eq!(a.traces[0].lock_order, b.traces[0].lock_order);
        assert_eq!(a.response_ms().mean(), b.response_ms().mean());
        assert_eq!(a.makespan, b.makespan);
    }
}
