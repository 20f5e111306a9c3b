//! The reproduction's core claim, stress-tested: under per-replica CPU
//! jitter and network jitter, every deterministic scheduler keeps the
//! replicas consistent — across workloads, seeds, and jitter strengths —
//! while the FREE baseline does not.

use dmt::core::SchedulerKind;
use dmt::replica::{check_determinism, CheckOutcome};
use dmt::workload::{bank, buffer, fig1, synth};

#[test]
fn fig1_contended_multi_seed_convergence() {
    let p = fig1::Fig1Params {
        n_clients: 5,
        requests_per_client: 2,
        mutexes: fig1::Mutexes::Pool(4), // heavy contention
        iterations: 6,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    for kind in SchedulerKind::DETERMINISTIC {
        for seed in [3u64, 17, 41] {
            let (res, outcome) = check_determinism(pair.for_kind(kind), kind, seed, 0.35);
            assert!(!res.deadlocked, "{kind} seed {seed}");
            assert!(outcome.converged(), "{kind} seed {seed}: {outcome:?}");
        }
    }
}

#[test]
fn nested_heavy_workload_convergence() {
    // Nested invocations are where suspension/wake-up timing races live
    // (the PDS wake bug was found exactly here).
    let p = fig1::Fig1Params {
        n_clients: 6,
        requests_per_client: 2,
        p_nested: 0.6,
        mutexes: fig1::Mutexes::Pool(3),
        iterations: 5,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    for kind in SchedulerKind::DETERMINISTIC {
        for seed in [5u64, 23] {
            let (res, outcome) = check_determinism(pair.for_kind(kind), kind, seed, 0.4);
            assert!(!res.deadlocked, "{kind} seed {seed}");
            assert!(outcome.converged(), "{kind} seed {seed}: {outcome:?}");
        }
    }
}

#[test]
fn cv_workload_convergence() {
    let p = buffer::BufferParams {
        n_producers: 3,
        n_consumers: 3,
        items_per_client: 3,
        ..Default::default()
    };
    let pair = buffer::scenario(&p);
    for kind in [
        SchedulerKind::Sat,
        SchedulerKind::Lsa,
        SchedulerKind::Pds,
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
    ] {
        let (res, outcome) = check_determinism(pair.for_kind(kind), kind, 11, 0.3);
        assert!(!res.deadlocked, "{kind}");
        assert!(outcome.converged(), "{kind}: {outcome:?}");
    }
}

#[test]
fn bank_two_lock_convergence() {
    let p = bank::BankParams {
        n_accounts: 4,
        n_clients: 6,
        transfers_per_client: 4,
        ..Default::default()
    };
    let pair = bank::scenario(&p);
    for kind in SchedulerKind::DETERMINISTIC {
        let (res, outcome) = check_determinism(pair.for_kind(kind), kind, 19, 0.3);
        assert!(!res.deadlocked, "{kind}");
        assert!(outcome.converged(), "{kind}: {outcome:?}");
    }
}

#[test]
fn synthesized_programs_converge() {
    // Random programs over the full grammar (branches, loops, calls,
    // virtual dispatch, every lock-parameter class, nested invocations).
    use dmt::replica::{ClientScript, Scenario};
    use dmt::sim::SplitMix64;
    let cfg = synth::SynthConfig::default();
    for seed in 0..6u64 {
        let obj = synth::random_object(seed, &cfg);
        let table = dmt::analysis::build_lock_table(&obj);
        let transformed = dmt::analysis::transform(&obj);
        let program = dmt::lang::compile::compile(&transformed);
        let starts: Vec<_> = (0..obj.methods.len())
            .map(|i| dmt::lang::MethodIdx::new(i as u32))
            .filter(|&m| obj.method(m).public && obj.method(m).name != "noop")
            .collect();
        let mut arg_rng = SplitMix64::new(seed ^ 0xabcd);
        let clients: Vec<ClientScript> = (0..3)
            .map(|_| {
                ClientScript::closed(
                    (0..2)
                        .map(|_| {
                            let m = *arg_rng.choose(&starts).expect("has starts");
                            (m, synth::random_args(&mut arg_rng, &cfg))
                        })
                        .collect(),
                )
            })
            .collect();
        let dummy = program.method_by_name("noop").expect("noop exists");
        let scenario = Scenario::new(program, clients)
            .with_lock_table(table)
            .with_dummy_method(dummy);
        for kind in SchedulerKind::DETERMINISTIC {
            let (res, outcome) = check_determinism(scenario.clone(), kind, seed, 0.3);
            assert!(!res.deadlocked, "synth {seed} under {kind}");
            assert!(
                outcome.converged(),
                "synth {seed} under {kind}: {outcome:?}"
            );
        }
    }
}

#[test]
fn dense_id_hot_path_trace_regression() {
    // Guards the HashMap→Vec slot-table migration: map iteration order
    // used to be a latent nondeterminism hazard on the per-event path;
    // the slot tables must give (a) replica agreement at both zero and
    // strong jitter and (b) bit-identical traces when the very same
    // configuration runs twice.
    use dmt::replica::checker::match_level;
    use dmt::replica::{compare, Engine, EngineConfig};
    let p = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 3,
        mutexes: fig1::Mutexes::Pool(3),
        iterations: 4,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    for kind in SchedulerKind::DETERMINISTIC {
        for jitter in [0.0, 0.3] {
            for seed in [7u64, 29] {
                let run = || {
                    Engine::new(
                        pair.for_kind(kind),
                        EngineConfig::new(kind)
                            .with_seed(seed)
                            .with_cpu_jitter(jitter),
                    )
                    .run()
                };
                let a = run();
                let b = run();
                assert!(!a.deadlocked, "{kind} jitter {jitter} seed {seed} stalled");
                let level = match_level(kind);
                for (i, tr) in a.traces.iter().enumerate().skip(1) {
                    assert!(
                        compare(&a.traces[0], tr, level).is_none(),
                        "{kind} jitter {jitter} seed {seed}: replica {i} diverged"
                    );
                }
                // Run-to-run: the full traces — global grant order
                // included — must be identical, replica by replica.
                assert_eq!(
                    a.traces, b.traces,
                    "{kind} jitter {jitter} seed {seed} not replay-stable"
                );
            }
        }
    }
}

#[test]
fn free_diverges_on_contended_order_sensitive_state() {
    // Needs order-sensitive updates; fig1's counters are commutative, so
    // build contention through the synth generator's 2x+k updates.
    use dmt::replica::{ClientScript, Scenario};
    use dmt::sim::SplitMix64;
    let cfg = synth::SynthConfig {
        n_mutex_pool: 1,
        ..Default::default()
    };
    let mut diverged = false;
    'outer: for seed in 0..10u64 {
        let obj = synth::random_object(seed, &cfg);
        let program = dmt::lang::compile::compile(&obj);
        let starts: Vec<_> = (0..obj.methods.len())
            .map(|i| dmt::lang::MethodIdx::new(i as u32))
            .filter(|&m| obj.method(m).public && obj.method(m).name != "noop")
            .collect();
        let mut arg_rng = SplitMix64::new(seed);
        let clients: Vec<ClientScript> = (0..5)
            .map(|_| {
                ClientScript::closed(
                    (0..3)
                        .map(|_| {
                            let m = *arg_rng.choose(&starts).expect("has starts");
                            (m, synth::random_args(&mut arg_rng, &cfg))
                        })
                        .collect(),
                )
            })
            .collect();
        let scenario = Scenario::new(program, clients);
        for jitter_seed in 0..4 {
            let (_, outcome) =
                check_determinism(scenario.clone(), SchedulerKind::Free, jitter_seed, 0.5);
            if matches!(outcome, CheckOutcome::Diverged { .. }) {
                diverged = true;
                break 'outer;
            }
        }
    }
    assert!(
        diverged,
        "FREE never diverged across 40 runs — checker broken?"
    );
}
