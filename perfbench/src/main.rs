//! End-to-end and per-layer benchmark of the dmt simulator.
//!
//! ```text
//! dmt-perfbench --workload <fig1-closed|openloop-store|shard-1e5>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first measures untraced: scheduler kinds run one after the
//! other, round after round, on scenario instances generated from the
//! seed, until `--seconds` have passed; instances the virtual-time pools
//! still lack then run untimed. That gives the end-to-end metrics. With `--trace 1` a
//! traced pass and the layer replays of `ledger.rs` follow, giving the
//! per-layer metrics. The last stdout line is one JSON object with the
//! metrics of the chosen mode; the lines before it print every metric
//! measured, by name and unit. See README.md for the metric catalogue.

mod ledger;
mod workloads;

use dmt_analysis::{build_lock_table, transform};
use dmt_core::{Decision, SchedulerKind};
use dmt_lang::{MethodIdx, RequestArgs};
use dmt_obs::{chrome_trace_json, merge_group_traces, ContentionProfile, TraceEvent};
use dmt_replica::{RequestLatency, RunResult, Scenario, ShardMerger};
use dmt_sim::LogHistogram;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::{instance_seed, submitted, Job, Ran, Workload, KINDS, REFERENCE};

/// Timed repetitions of each layer replay; the fastest is reported.
const REPLAY_REPS: usize = 5;
/// Untraced/traced pairs behind `obs.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted exact virtual nanoseconds, in ms.
fn percentile_ms(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

type Request = (MethodIdx, RequestArgs);

/// A scenario's requests in submission order: by arrival instant for
/// open loops, round-robin over clients for closed loops.
fn request_stream(sc: &Scenario) -> Vec<Request> {
    let mut keyed: Vec<((u64, usize, usize), &Request)> = Vec::new();
    for (c, script) in sc.clients.iter().enumerate() {
        for (i, req) in script.requests.iter().enumerate() {
            let at = script.arrivals.as_ref().map_or(0, |a| a[i].as_nanos());
            keyed.push(((at, i, c), req));
        }
    }
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, r)| r.clone()).collect()
}

/// Mean requests in flight (Little's law) over one engine's run.
fn concurrency(r: &RunResult) -> usize {
    let first = r.latencies.iter().map(|l| l.enqueued).min();
    let last = r.latencies.iter().map(|l| l.replied).max();
    let (Some(first), Some(last)) = (first, last) else {
        return 1;
    };
    let busy: u64 = r.latencies.iter().map(|l| l.latency().as_nanos()).sum();
    let span = last.since(first).as_nanos().max(1);
    (busy.div_ceil(span) as usize).max(1)
}

/// Untraced measurements of one scheduler kind.
#[derive(Default)]
struct KindStats {
    /// The fastest timed run: completed requests per host second, and
    /// engine host ns per event (see [`Fastest`]).
    req_per_s: Fastest,
    engine_ns_per_event: Fastest,
    worker_busy: Vec<f64>,
    /// Virtual latencies of every pooled instance (first visit only).
    pooled: Vec<u64>,
    /// Signature of each instance's first run, for the repeat checks.
    first: BTreeMap<usize, Vec<u64>>,
    /// Requests in flight on instance 0, group 0 (scheduler replay wave).
    concurrency: usize,
}

/// The best of many host-time samples. Interference on a shared host
/// only ever slows a run down, and it comes in phases of seconds during
/// which every run is slower by up to 40 %; the best of many runs spread
/// over the measuring window is the steadiest estimate of what the
/// simulator itself costs, where a median moves with the share of the
/// window the slow phases happened to cover.
#[derive(Default)]
struct Fastest {
    best: Option<f64>,
}

impl Fastest {
    /// Records a sample where lower is faster (seconds, ns per event).
    fn time(&mut self, v: f64) {
        self.best = Some(self.best.map_or(v, |b| b.min(v)));
    }

    /// Records a sample where higher is faster (a rate).
    fn rate(&mut self, v: f64) {
        self.best = Some(self.best.map_or(v, |b| b.max(v)));
    }

    fn get(&self) -> f64 {
        self.best.unwrap_or(0.0)
    }
}

/// Requests submitted and failed over every run, plus what went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Findings that make the result incorrect.
    errors: Vec<String>,
}

impl Tally {
    /// Counts one run. A run that stalls or whose replicas disagree
    /// counts all of its requests as failed; the benchmark goes on.
    fn count(&mut self, ran: &Ran, kind: SchedulerKind, submitted: u64, what: &str) {
        self.attempted += submitted;
        if !ran.healthy(kind, submitted) {
            self.failed += submitted;
            self.error(format!(
                "{kind} {what}: {}/{submitted} completed, or replicas disagree",
                ran.completed()
            ));
        }
    }

    fn error(&mut self, msg: String) {
        eprintln!("perfbench: error: {msg}");
        self.errors.push(msg);
    }
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Untraced {
    stats: Vec<KindStats>,
    /// Fastest set-up and scenario build of the timed rounds, seconds.
    setup_s: Fastest,
    build_s: Fastest,
}

/// Books one untraced run of instance `inst`: failures, the repeat
/// check against the instance's first run, and on that first run the
/// virtual latencies for the pooled percentiles.
fn record(ran: &Ran, kind: SchedulerKind, n: u64, inst: usize, s: &mut KindStats, t: &mut Tally) {
    t.count(ran, kind, n, "run");
    let sig = ran.signature();
    match s.first.get(&inst) {
        None => {
            s.first.insert(inst, sig);
            s.pooled.extend_from_slice(&ran.latencies);
            if inst == 0 {
                s.concurrency = concurrency(&ran.groups[0]);
            }
        }
        Some(f) if *f != sig => t.error(format!(
            "{kind}: a repeat run of instance {inst} changed counts or virtual time"
        )),
        Some(_) => {}
    }
}

/// The untraced phase. Timed rounds run every kind on one instance each,
/// cycling over `Workload::round_instances`, until `seconds` have passed; then any
/// instance a kind's virtual-time pool still lacks runs untimed.
fn run_untraced(a: &Args, tally: &mut Tally) -> Untraced {
    let w = a.workload;
    let mut stats: Vec<KindStats> = KINDS.iter().map(|_| KindStats::default()).collect();
    let (mut setup_s, mut build_s) = (Fastest::default(), Fastest::default());
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed() < budget {
        let inst = round % w.round_instances();
        let seed = instance_seed(a.seed, inst);
        let t0 = Instant::now();
        let groups = w.build(seed);
        build_s.time(t0.elapsed().as_secs_f64());
        let mut jobs: Vec<(usize, Job)> = KINDS
            .iter()
            .enumerate()
            .map(|(ki, &k)| (ki, Job::new(w, &groups, k, seed, false)))
            .collect();
        setup_s.time(t0.elapsed().as_secs_f64());
        // Rotate the kind order so host-noise bursts do not always land
        // on the same scheduler.
        jobs.rotate_left(round % KINDS.len());
        for (ki, job) in jobs {
            let kind = KINDS[ki];
            let ran = job.run();
            let s = &mut stats[ki];
            s.req_per_s
                .rate(ran.completed() as f64 / (ran.wall_ns as f64 / 1e9));
            s.engine_ns_per_event
                .time(ratio(ran.engine_wall_ns() as f64, ran.perf().events as f64));
            s.worker_busy.push(ratio(
                ran.engine_wall_ns() as f64,
                (ran.workers as u64 * ran.wall_ns) as f64,
            ));
            record(&ran, kind, submitted(w, &groups, kind), inst, s, tally);
        }
        round += 1;
    }
    let timed = start.elapsed().as_secs_f64();
    let pool_max = KINDS.iter().map(|&k| w.vt_instances(k)).max().unwrap_or(0);
    for inst in 0..pool_max {
        let missing: Vec<usize> = (0..KINDS.len())
            .filter(|&ki| inst < w.vt_instances(KINDS[ki]) && !stats[ki].first.contains_key(&inst))
            .collect();
        if missing.is_empty() {
            continue;
        }
        let seed = instance_seed(a.seed, inst);
        let groups = w.build(seed);
        for ki in missing {
            let kind = KINDS[ki];
            let ran = Job::new(w, &groups, kind, seed, false).run();
            record(
                &ran,
                kind,
                submitted(w, &groups, kind),
                inst,
                &mut stats[ki],
                tally,
            );
        }
    }
    for s in &mut stats {
        s.pooled.sort_unstable();
    }
    eprintln!(
        "perfbench: {round} timed rounds in {timed:.1} s; pools filled at {:.1} s",
        start.elapsed().as_secs_f64()
    );
    Untraced {
        stats,
        setup_s,
        build_s,
    }
}

fn end_to_end(u: &Untraced, tally: &Tally, rss: f64, out: &mut Metrics) {
    out.put("setup_s", u.setup_s.get(), "s");
    for (k, s) in KINDS.iter().zip(&u.stats) {
        out.put(format!("sim_req_per_s.{k}"), s.req_per_s.get(), "req/s");
    }
    for (k, s) in KINDS.iter().zip(&u.stats) {
        out.put(
            format!("vt_p99_ms.{k}"),
            percentile_ms(&s.pooled, 99.0),
            "ms",
        );
    }
    out.put("peak_rss_mb", rss, "MB");
    out.put(
        "completed_frac",
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        "fraction",
    );
}

/// What the traced pass keeps of one kind's run.
struct TracedKind {
    kind: SchedulerKind,
    grants: u64,
    defers: u64,
    predicts: u64,
    predicts_granted: u64,
    lock_wait_p99_ms: f64,
    dummies: u64,
    ctrl: u64,
}

impl TracedKind {
    fn new(kind: SchedulerKind, ran: &Ran) -> TracedKind {
        let mut t = TracedKind {
            kind,
            grants: 0,
            defers: 0,
            predicts: 0,
            predicts_granted: 0,
            lock_wait_p99_ms: 0.0,
            dummies: ran.groups.iter().map(|g| g.dummy_requests).sum(),
            ctrl: ran.groups.iter().map(|g| g.ctrl_messages).sum(),
        };
        // Lock waits come from replica 0's contention profile of every
        // group; the decision counts from every replica.
        let mut waits = LogHistogram::new();
        for g in &ran.groups {
            for r in &g.trace_records {
                match r.ev {
                    TraceEvent::Sched(Decision::Grant { .. }) => t.grants += 1,
                    TraceEvent::Sched(Decision::Defer { .. }) => t.defers += 1,
                    TraceEvent::Sched(Decision::Predict { granted, .. }) => {
                        t.predicts += 1;
                        t.predicts_granted += granted as u64;
                    }
                    _ => {}
                }
            }
            for (_, m) in &ContentionProfile::from_records(&g.trace_records, 0).mutexes {
                waits.merge(&m.wait);
            }
        }
        t.lock_wait_p99_ms = waits.percentile_ns(99.0).unwrap_or(0) as f64 / 1e6;
        t
    }
}

/// The traced pass and the layer replays.
fn per_layer(a: &Args, u: &Untraced, tally: &mut Tally, out: &mut Metrics) {
    let w = a.workload;
    let seed = instance_seed(a.seed, 0);
    let groups = w.build(seed);
    let ki_ref = KINDS
        .iter()
        .position(|&k| k == REFERENCE)
        .expect("MAT is benchmarked");
    let mut mismatches = 0u64;

    // Traced vs untraced host time of the reference kind, interleaved.
    let (mut plain_ns, mut traced_ns) = (Fastest::default(), Fastest::default());
    let mut mat = None;
    for _ in 0..OVERHEAD_PAIRS {
        drop(mat.take());
        plain_ns.time(Job::new(w, &groups, REFERENCE, seed, false).run().wall_ns as f64);
        let r = Job::new(w, &groups, REFERENCE, seed, true).run();
        traced_ns.time(r.wall_ns as f64);
        mat = Some(r);
    }
    let mut mat = mat.expect("at least one traced pair");

    // Traced runs must reproduce the untraced virtual outcome exactly.
    let mut traced = Vec::new();
    let (mut records, mut dropped) = (0u64, 0u64);
    for (ki, &kind) in KINDS.iter().enumerate() {
        let owned;
        let ran = if kind == REFERENCE {
            &mat
        } else {
            owned = Job::new(w, &groups, kind, seed, true).run();
            &owned
        };
        tally.count(ran, kind, submitted(w, &groups, kind), "traced run");
        if u.stats[ki].first.get(&0) != Some(&ran.signature()) {
            tally.error(format!(
                "{kind}: the traced run differs from the untraced one"
            ));
        }
        for g in &ran.groups {
            records += g.trace_records.len() as u64;
            dropped += g.metrics.counter("trace.dropped").unwrap_or(0);
        }
        traced.push(TracedKind::new(kind, ran));
    }
    let of = |k: SchedulerKind| {
        traced
            .iter()
            .find(|t| t.kind == k)
            .expect("every kind traced")
    };

    // dmt-workload and dmt-analysis.
    out.put("workload.build_s", u.build_s.get(), "s");
    let obj = w.object(seed);
    let mut transform_s = Fastest::default();
    for _ in 0..11 {
        let t0 = Instant::now();
        for _ in 0..w.groups() {
            black_box(transform(black_box(&obj)));
            black_box(build_lock_table(black_box(&obj)));
        }
        transform_s.time(t0.elapsed().as_secs_f64());
    }
    out.put("analysis.transform_s", transform_s.get(), "s");

    // dmt-lang: the workload's request stream on a bare pooled VM.
    let p = mat.perf();
    let sc0 = groups[0].for_kind(REFERENCE);
    let all_requests: Vec<_> = groups
        .iter()
        .flat_map(|g| request_stream(&g.plain))
        .collect();
    let vm = ledger::vm_corpus(&sc0.program, sc0.this_mutex(), &all_requests, REPLAY_REPS);
    let n_replicas = mat.groups[0].traces.len() as u64;
    if (vm.steps * n_replicas, vm.fused_steps * n_replicas) != (p.vm_steps, p.fused_steps) {
        mismatches += 1;
        tally.error(format!(
            "vm replay: ({}, {}) steps and fused steps x {n_replicas} replicas != engine's ({}, {})",
            vm.steps, vm.fused_steps, p.vm_steps, p.fused_steps
        ));
    }
    let vm_ns_per_step = ratio(vm.ns as f64, vm.steps as f64);
    out.put("vm.steps", p.vm_steps as f64, "count");
    out.put("vm.fused_steps", p.fused_steps as f64, "count");
    out.put("vm.ns_per_step", vm_ns_per_step, "ns");

    // dmt-core: each kind's SchedEvent stream on group 0 of instance 0.
    let requests0 = request_stream(&groups[0].plain);
    let mut sched_ns = Vec::new();
    for (ki, &kind) in KINDS.iter().enumerate() {
        let sc = groups[0].for_kind(kind);
        let wave = u.stats[ki].concurrency;
        match ledger::sched_capture(kind, &sc, &requests0, wave) {
            Ok(stream) => {
                let (ns, actions) = ledger::sched_replay(kind, &sc, &stream, REPLAY_REPS);
                if actions != stream.actions {
                    mismatches += 1;
                    tally.error(format!(
                        "{kind}: sched replay gave {actions} actions, capture {}",
                        stream.actions
                    ));
                }
                sched_ns.push(ratio(ns as f64, stream.events.len() as f64));
            }
            Err(e) => {
                mismatches += 1;
                tally.error(e);
                sched_ns.push(0.0);
            }
        }
    }
    let r = of(REFERENCE);
    let pmat = of(SchedulerKind::Pmat);
    out.put("sched.events", p.sched_events as f64, "count");
    out.put("sched.actions", p.sched_actions as f64, "count");
    out.put("sched.fanout", p.sched_fanout(), "ratio");
    out.put("sched.grants", r.grants as f64, "count");
    out.put("sched.defers", r.defers as f64, "count");
    out.put(
        "sched.grant_ratio",
        ratio(r.grants as f64, (r.grants + r.defers) as f64),
        "ratio",
    );
    out.put(
        "sched.predict_granted_ratio",
        ratio(pmat.predicts_granted as f64, pmat.predicts as f64),
        "ratio",
    );
    out.put(
        "sched.dummy_requests",
        of(SchedulerKind::Pds).dummies as f64,
        "count",
    );
    out.put(
        "sched.ctrl_messages",
        of(SchedulerKind::Lsa).ctrl as f64,
        "count",
    );
    for (k, ns) in KINDS.iter().zip(&sched_ns) {
        out.put(format!("sched.ns_per_event.{k}"), *ns, "ns");
    }

    // dmt-sim: the calendar queue's push/pop stream.
    let streams: Vec<_> = mat
        .groups
        .iter()
        .zip(&groups)
        .map(|(g, pair)| ledger::QueueStream::new(&g.trace_records, &pair.plain, g.perf.events))
        .collect();
    let (queue_ns, pops) = ledger::queue_replay(&streams, REPLAY_REPS);
    if pops != p.events || streams.iter().map(|s| s.len()).sum::<u64>() != p.events {
        mismatches += 1;
        tally.error(format!(
            "queue replay popped {pops}, engine had {} events",
            p.events
        ));
    }
    out.put("queue.ops", pops as f64, "count");
    out.put("queue.ns_per_op", ratio(queue_ns as f64, pops as f64), "ns");

    // dmt-groupcomm: the traced total-order legs.
    let gc_streams: Vec<_> = mat
        .groups
        .iter()
        .map(|g| ledger::GcStream::new(&g.trace_records))
        .collect();
    let gc = ledger::gc_replay(&gc_streams, n_replicas as usize, REPLAY_REPS);
    for (name, replayed) in [
        ("submissions", gc.submissions),
        ("broadcast_legs", gc.broadcast_legs),
        ("deliveries", gc.deliveries),
        ("dup_dropped", gc.dup_dropped),
    ] {
        if replayed != mat.net(name) {
            mismatches += 1;
            tally.error(format!(
                "gc replay {name} {replayed} != run's net.{name} {}",
                mat.net(name)
            ));
        }
        out.put(format!("gc.{name}"), mat.net(name) as f64, "count");
    }
    out.put(
        "gc.ns_per_msg",
        ratio(gc.ns as f64, gc.submissions as f64),
        "ns",
    );

    // dmt-replica engine: whole-engine cost and what the layers leave.
    let ev = p.events as f64;
    out.put("engine.events", ev, "count");
    out.put("engine.batched_steps", p.batched_steps as f64, "count");
    out.put("engine.fused_grants", p.fused_grants as f64, "count");
    out.put(
        "engine.vm_reuse_ratio",
        ratio(p.vm_reuses as f64, (p.vm_reuses + p.vm_allocs) as f64),
        "ratio",
    );
    for (k, s) in KINDS.iter().zip(&u.stats) {
        out.put(
            format!("engine.ns_per_event.{k}"),
            s.engine_ns_per_event.get(),
            "ns",
        );
    }
    let layers = ratio(queue_ns as f64 + gc.ns as f64, ev)
        + sched_ns[ki_ref] * ratio(p.sched_events as f64, ev)
        + vm_ns_per_step * ratio(p.vm_steps as f64, ev);
    let glue = u.stats[ki_ref].engine_ns_per_event.get() - layers;
    out.put("engine.glue_ns_per_event", glue, "ns");

    // dmt-replica shard: the merge of the run's streams.
    let traces: Vec<Vec<_>> = mat
        .groups
        .iter_mut()
        .map(|g| std::mem::take(&mut g.trace_records))
        .collect();
    let lat_groups: Vec<&[RequestLatency]> =
        mat.groups.iter().map(|g| g.latencies.as_slice()).collect();
    let total = lat_groups.iter().map(|l| l.len()).sum();
    let mut merge_s = Fastest::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut merger = ShardMerger::with_capacity(total);
        black_box(merger.merge_latencies(lat_groups.iter().copied()).len());
        black_box(merge_group_traces(&traces, n_replicas as u32).len());
        merge_s.time(t0.elapsed().as_secs_f64());
    }
    for (g, t) in mat.groups.iter_mut().zip(traces) {
        g.trace_records = t;
    }
    out.put("shard.merge_s", merge_s.get(), "s");
    out.put("shard.balance_bound", mat.balance_bound, "ratio");
    out.put(
        "shard.worker_busy_frac",
        median(&u.stats[ki_ref].worker_busy),
        "fraction",
    );

    // dmt-obs: trace volume, drops, overhead and export (group 0).
    let recs = &mat.groups[0].trace_records;
    let mut export_s = Fastest::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        black_box(chrome_trace_json(recs).len());
        black_box(ContentionProfile::from_records(recs, 0).grants_total());
        export_s.time(t0.elapsed().as_secs_f64());
    }
    out.put("obs.trace_records", records as f64, "count");
    out.put("obs.trace_dropped", dropped as f64, "count");
    out.put(
        "obs.trace_overhead_pct",
        (ratio(traced_ns.get(), plain_ns.get()) - 1.0) * 100.0,
        "%",
    );
    out.put("obs.export_s", export_s.get(), "s");

    // Virtual time.
    for (k, s) in KINDS.iter().zip(&u.stats) {
        out.put(
            format!("vt.p50_ms.{k}"),
            percentile_ms(&s.pooled, 50.0),
            "ms",
        );
    }
    for &k in &KINDS {
        out.put(
            format!("vt.lock_wait_p99_ms.{k}"),
            of(k).lock_wait_p99_ms,
            "ms",
        );
    }
    for (k, s) in KINDS.iter().zip(&u.stats) {
        out.put(format!("vt.samples.{k}"), s.pooled.len() as f64, "count");
    }

    // Ledger consistency. Negative glue is host noise or a replay that
    // overstates its layer: flagged, not an error.
    if glue < 0.0 {
        eprintln!(
            "perfbench: flag: layers sum to {layers:.1} ns/event, above the engine's own cost"
        );
    }
    if dropped != 0 {
        mismatches += 1;
        tally.error(format!("{dropped} trace records dropped"));
    }
    out.put("ledger.size_mismatches", mismatches as f64, "count");
    out.put(
        "ledger.negative_glue",
        f64::from(u8::from(glue < 0.0)),
        "flag",
    );
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: dmt-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let u = run_untraced(&a, &mut tally);
    let Some(rss) = peak_rss_mb() else {
        eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
        std::process::exit(1);
    };
    let mut e2e = Metrics::default();
    end_to_end(&u, &tally, rss, &mut e2e);
    let mut layer = Metrics::default();
    if a.trace {
        per_layer(&a, &u, &mut tally, &mut layer);
        eprintln!(
            "perfbench: peak RSS with the traced pass {:.0} MB",
            peak_rss_mb().unwrap_or(0.0)
        );
    }

    println!("workload {} seed {}", a.workload.name(), a.seed);
    for (n, v, unit) in e2e.0.iter().chain(&layer.0) {
        println!("  {n:<32} {v:>16.6} {unit}");
    }
    let shown = if a.trace { &layer } else { &e2e };
    let metrics: Vec<String> = shown
        .0
        .iter()
        .map(|(n, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.errors.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
}
