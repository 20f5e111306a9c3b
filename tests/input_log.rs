//! One input log for every host. A deterministic scheduler makes a
//! replica's grants and state a function of its totally ordered input
//! alone, so the input one engine replica consumed, replayed on the
//! logical harness and on real threads, must give what every engine
//! replica gave — at the checker's match level — and the harness and
//! the real-thread runtime must stop, not hang or panic, on a log that
//! is malformed.
//!
//! PDS is held apart: its rounds still depend on local progress (see
//! [`pds_still_diverges_across_hosts`]).

use dmt::core::harness::{Harness, HarnessResult};
use dmt::core::{
    make_scheduler, Input, InputLog, ReplicaId, SchedConfig, SchedEvent, SchedOutput, Scheduler,
    SchedulerKind, SyncCore,
};
use dmt::lang::ast::MutexExpr;
use dmt::lang::{compile, DurExpr, MethodIdx, MutexId, ObjectBuilder, RequestArgs, ServiceId};
use dmt::replica::checker::match_level;
use dmt::replica::{compare, ClientScript, Engine, EngineConfig, ExecutionTrace, Scenario};
use dmt::rt::DetRuntime;
use dmt::sim::SplitMix64;
use dmt::workload::fig1::{self, Fig1Params};
use dmt::workload::synth::{random_args, random_object, SynthConfig};

/// The deterministic kinds every host is held to: all but PDS.
const KINDS: [SchedulerKind; 6] = [
    SchedulerKind::Seq,
    SchedulerKind::Sat,
    SchedulerKind::Lsa,
    SchedulerKind::Mat,
    SchedulerKind::MatLL,
    SchedulerKind::Pmat,
];

/// Synth seed `seed`'s six requests (drawn as in
/// `tests/harness_golden.rs`), each a closed-loop client of its own, on
/// the transformed program with the lock table and the `noop` dummy.
fn synth_clients(seed: u64) -> Scenario {
    let cfg = SynthConfig::default();
    let obj = random_object(seed, &cfg);
    let starts: Vec<_> = (obj.methods.iter().enumerate())
        .filter(|(_, m)| m.public && m.name != "noop")
        .map(|(i, _)| MethodIdx::new(i as u32))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x1234);
    let clients = (0..6)
        .map(|_| {
            let m = *rng.choose(&starts).unwrap();
            ClientScript::closed(vec![(m, random_args(&mut rng, &cfg))])
        })
        .collect();
    let program = compile::compile(&dmt::analysis::transform(&obj));
    let dummy = program.method_by_name("noop").unwrap();
    Scenario::new(program, clients)
        .with_lock_table(dmt::analysis::build_lock_table(&obj))
        .with_dummy_method(dummy)
}

/// A Figure-1 mix: six clients of two requests on three pooled
/// monitors, with short segments so real threads replay it quickly.
fn fig1_clients(kind: SchedulerKind) -> Scenario {
    let p = Fig1Params {
        n_clients: 6,
        requests_per_client: 2,
        mutexes: fig1::Mutexes::Pool(3),
        iterations: 4,
        p_nested: 0.4,
        nested_ms: 2.0,
        compute_ms: 0.5,
        ..Fig1Params::default()
    };
    fig1::scenario(&p).for_kind(kind)
}

/// The scheduler a replay runs: the engine's configuration for
/// `replica` (LSA replays a follower's log on a follower).
fn sched(sc: &Scenario, kind: SchedulerKind) -> Box<dyn Scheduler> {
    let replica = ReplicaId::new(u32::from(kind == SchedulerKind::Lsa));
    make_scheduler(&SchedConfig::new(kind, replica).with_lock_table(sc.lock_table.clone()))
}

fn harness(sc: &Scenario, kind: SchedulerKind, log: &InputLog) -> HarnessResult {
    Harness::new(sc.program.clone(), sc.this_mutex(), sched(sc, kind)).replay(log)
}

/// A scheduler that sleeps a seeded 0–200 µs before one event in four:
/// on real threads, timing noise a deterministic kind must not see.
struct Jitter {
    inner: Box<dyn Scheduler>,
    rng: SplitMix64,
}

impl Scheduler for Jitter {
    fn kind(&self) -> SchedulerKind {
        self.inner.kind()
    }

    fn on_event(&mut self, ev: &SchedEvent, out: &mut SchedOutput) {
        if self.rng.next_below(4) == 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.rng.next_below(200)));
        }
        self.inner.on_event(ev, out);
    }

    fn sync_core(&self) -> &SyncCore {
        self.inner.sync_core()
    }
}

fn real_threads(sc: &Scenario, kind: SchedulerKind, noise: u64, log: &InputLog) -> HarnessResult {
    let inner = sched(sc, kind);
    let jittered = Box::new(Jitter {
        inner,
        rng: SplitMix64::new(noise),
    });
    DetRuntime::new(sc.program.clone(), sc.this_mutex(), jittered).run(log)
}

/// A host run as the checker compares replicas.
fn trace(res: &HarnessResult) -> ExecutionTrace {
    ExecutionTrace {
        lock_order: res.lock_trace.clone(),
        state_hash: res.state.state_hash(),
        finished_threads: res.finished_threads as u64,
    }
}

/// Runs `sc` on a traced three-replica engine under `kind` with CPU
/// jitter 0.3 and checks the replay claim; returns what failed.
fn check(name: &str, sc: &Scenario, kind: SchedulerKind, seed: u64) -> Vec<String> {
    let cfg = (EngineConfig::new(kind).with_seed(seed))
        .with_cpu_jitter(0.3)
        .with_tracing();
    let res = Engine::new(sc.clone(), cfg).run();
    let at = format!("{name} under {kind}, seed {seed}");
    assert!(!res.deadlocked, "{at}: the engine run stalled");
    assert_eq!(res.inputs.len(), 3, "{at}: a traced run logs every replica");
    let log = &res.inputs[0];
    let mut failed = Vec::new();
    if res.inputs.iter().any(|l| l != log) {
        failed.push(format!("{at}: the replicas' input logs differ"));
    }
    let level = match_level(kind);
    let mut replays = vec![("harness", harness(sc, kind, log))];
    for noise in 0..3 {
        replays.push(("real threads", real_threads(sc, kind, noise, log)));
    }
    for (host, replay) in &replays {
        for (r, engine) in res.traces.iter().enumerate() {
            if replay.deadlocked || compare(engine, &trace(replay), level).is_some() {
                failed.push(format!("{at}: {host} differs from replica {r}"));
            }
        }
    }
    failed
}

#[test]
fn one_replicas_log_replays_every_replica_on_every_host() {
    // The kinds run side by side: the real-thread replays mostly sleep.
    let failed: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = (KINDS.into_iter())
            .map(|kind| {
                s.spawn(move || {
                    let mut failed = Vec::new();
                    for seed in 0..3 {
                        failed.extend(check("fig1", &fig1_clients(kind), kind, seed));
                        for synth in 0..10 {
                            let name = format!("synth {synth}");
                            failed.extend(check(&name, &synth_clients(synth), kind, seed));
                        }
                    }
                    failed
                })
            })
            .collect();
        runs.into_iter().flat_map(|r| r.join().unwrap()).collect()
    });
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn pds_still_diverges_across_hosts() {
    // PDS rounds still depend on local progress: a reply that overtook
    // its call wakes the thread at the call, not at the reply's place in
    // the input; a dummy that arrives before the pool asked for one joins
    // whatever round is running; and a round on a partial pool, once no
    // real work is left, evicts finished members depending on whether
    // the next request has come. Replayed on the harness, synth 1's
    // engine log gives other grants. Once this fails, PDS replays alike:
    // add it to `KINDS` here.
    let kind = SchedulerKind::Pds;
    let elsewhere: usize = (0..3)
        .map(|seed| check("synth 1", &synth_clients(1), kind, seed).len())
        .sum();
    assert!(elsewhere > 0, "synth 1's PDS log now replays on every host");
}

/// `work`: compute, one nested call, then a locked increment; plus the
/// `noop` dummy. Four `work` requests and the log a harness run of
/// `kind` generated for them.
fn nester(kind: SchedulerKind) -> (Scenario, InputLog) {
    let mut ob = ObjectBuilder::new("Nester");
    let c = ob.cell();
    let mut m = ob.method("work", 0);
    m.compute(DurExpr::micros(100));
    m.nested(ServiceId::new(0), DurExpr::micros(300));
    m.sync(MutexExpr::This, |b| {
        b.add(c, 1);
    });
    let work = m.done();
    let noop = ob.method("noop", 0).done();
    let program = compile::compile(&ob.build());
    let clients = vec![ClientScript::closed(vec![(work, RequestArgs::empty()); 4])];
    let sc = Scenario::new(program, clients).with_dummy_method(noop);
    let mut h =
        Harness::new(sc.program.clone(), MutexId::new(0), sched(&sc, kind)).with_dummy_method(noop);
    for _ in 0..4 {
        h.submit(work, RequestArgs::empty());
    }
    let res = h.run();
    assert!(!res.deadlocked, "{kind}: the generated log deadlocked");
    (sc, res.input_log())
}

#[test]
fn a_malformed_log_deadlocks_on_every_host() {
    // As a passive backup stalls on a grant to a thread that never runs,
    // a host stops on a log it cannot finish: it reports a deadlock,
    // never hangs or panics.
    for kind in [SchedulerKind::Sat, SchedulerKind::Pds, SchedulerKind::Pmat] {
        let (sc, log) = nester(kind);
        let entries: Vec<_> = log.iter().map(|i| i.map(Clone::clone)).collect();
        let first_reply = entries
            .iter()
            .position(|i| matches!(i, Input::Reply { .. }));
        let last_reply = entries
            .iter()
            .rposition(|i| matches!(i, Input::Reply { .. }));
        let (first_reply, last_reply) = (first_reply.unwrap(), last_reply.unwrap());
        let rebuild = |entries: &[Input<_>]| {
            let mut log = InputLog::default();
            entries.iter().cloned().for_each(|i| log.push(i));
            log
        };
        // The first reply answers a call its thread never issues.
        let mut unissued = entries.clone();
        if let Input::Reply { call_no, .. } = &mut unissued[first_reply] {
            *call_no += 1;
        }
        // A dummy nobody asked for heads the log: every later thread id
        // shifts, so the replies name the wrong threads.
        let dummy = (sc.dummy_method.unwrap(), RequestArgs::empty(), true);
        let shifted: Vec<_> = std::iter::once(Input::Request(dummy))
            .chain(entries.iter().cloned())
            .collect();
        let malformed = [
            ("a reply to a call never issued", rebuild(&unissued)),
            ("a truncated log", rebuild(&entries[..last_reply])),
            ("a dummy beyond the pool", rebuild(&shifted)),
        ];
        for (what, log) in &malformed {
            let on_harness = harness(&sc, kind, log);
            let on_threads = real_threads(&sc, kind, 0, log);
            for (host, res) in [("harness", on_harness), ("real threads", on_threads)] {
                assert!(
                    res.deadlocked,
                    "{kind}, {what}: {host} did not report a deadlock"
                );
                assert!(
                    res.finished_threads < log.requests.len(),
                    "{kind}, {what}: {host}"
                );
            }
        }
    }
}
