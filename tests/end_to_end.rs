//! End-to-end integration: workloads through the full stack (language →
//! analysis → schedulers → group communication → replication engine).

use dmt::core::SchedulerKind;
use dmt::replica::{Engine, EngineConfig};
use dmt::workload::{bank, buffer, fig1};

#[test]
fn fig1_workload_completes_under_every_scheduler() {
    let p = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 2,
        iterations: 6,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    for kind in SchedulerKind::ALL {
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(2)).run();
        assert!(!res.deadlocked, "{kind}");
        assert_eq!(res.completed_requests, 8, "{kind}");
        assert_eq!(res.latencies.len(), 8, "{kind}");
    }
}

#[test]
fn fig1_response_time_ordering_matches_the_paper() {
    // The qualitative Figure-1 claim at moderate load: SEQ is clearly the
    // worst; the concurrent algorithms beat it by a wide margin.
    let p = fig1::Fig1Params {
        n_clients: 8,
        requests_per_client: 3,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    let mean = |kind: SchedulerKind| {
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(2)).run();
        assert!(!res.deadlocked, "{kind}");
        res.response_ms().mean()
    };
    let seq = mean(SchedulerKind::Seq);
    let sat = mean(SchedulerKind::Sat);
    let lsa = mean(SchedulerKind::Lsa);
    let pds = mean(SchedulerKind::Pds);
    let mat = mean(SchedulerKind::Mat);
    let pmat = mean(SchedulerKind::Pmat);
    assert!(
        seq > 2.0 * sat,
        "SEQ {seq:.1} must trail SAT {sat:.1} badly"
    );
    assert!(seq > 1.3 * mat, "SEQ {seq:.1} must trail MAT {mat:.1}");
    assert!(seq > pds, "SEQ {seq:.1} must trail PDS {pds:.1}");
    assert!(
        lsa <= mat * 1.1,
        "LSA {lsa:.1} should be at least on par with MAT {mat:.1}"
    );
    // PMAT's standing relative to MAT is workload-draw dependent (it wins
    // on the full Figure-1 sweep, loses on some draws — EXPERIMENTS.md);
    // here only sanity is asserted.
    assert!(seq > pmat, "SEQ {seq:.1} must trail PMAT {pmat:.1}");
}

#[test]
fn lsa_pays_in_network_traffic() {
    // §3.5: LSA "poses a high load on the network caused by the need for
    // frequent broadcast communication".
    let p = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 2,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    let legs = |kind: SchedulerKind| {
        Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(2))
            .run()
            .net_legs()
    };
    let lsa = legs(SchedulerKind::Lsa);
    let mat = legs(SchedulerKind::Mat);
    assert!(lsa > 2 * mat, "LSA legs {lsa} should dwarf MAT legs {mat}");
}

#[test]
fn fig2_lastlock_handoff_beats_plain_mat() {
    let p = fig1::Fig1Params {
        n_clients: 5,
        requests_per_client: 2,
        ..fig1::Fig1Params::last_lock()
    };
    let pair = fig1::scenario(&p);
    let mean = |kind: SchedulerKind| {
        Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(2))
            .run()
            .response_ms()
            .mean()
    };
    assert!(mean(SchedulerKind::MatLL) < mean(SchedulerKind::Mat) * 0.8);
}

#[test]
fn fig3_prediction_approaches_ideal_overlap() {
    let p = fig1::Fig1Params::disjoint().with_clients(6);
    let pair = fig1::scenario(&p);
    let mean = |kind: SchedulerKind| {
        Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(2))
            .run()
            .response_ms()
            .mean()
    };
    let mat = mean(SchedulerKind::Mat);
    let pmat = mean(SchedulerKind::Pmat);
    // Disjoint lock sets: PMAT overlaps everything; its response time is
    // near the single-request cost while MAT serialises.
    assert!(pmat < mat / 2.0, "PMAT {pmat:.2} vs MAT {mat:.2}");
    assert!(
        pmat < 2.0 * (p.compute_ms + p.cs_ms),
        "PMAT {pmat:.2} should be near ideal"
    );
}

#[test]
fn bank_conserves_money_under_every_deterministic_scheduler() {
    // Transfers move lo→hi symmetrically (+a, +a to both in this model);
    // the invariant is that every replica computes the *same* balances.
    let p = bank::BankParams::default();
    let pair = bank::scenario(&p);
    for kind in SchedulerKind::DETERMINISTIC {
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(6)).run();
        assert!(!res.deadlocked, "{kind}");
        let h = res.traces[0].state_hash;
        assert!(res.traces.iter().all(|t| t.state_hash == h), "{kind}");
    }
}

#[test]
fn buffer_workload_blocks_and_wakes_correctly() {
    let p = buffer::BufferParams {
        n_producers: 2,
        n_consumers: 2,
        items_per_client: 5,
        ..Default::default()
    };
    let pair = buffer::scenario(&p);
    for kind in [
        SchedulerKind::Sat,
        SchedulerKind::Mat,
        SchedulerKind::Pmat,
        SchedulerKind::Lsa,
    ] {
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(8)).run();
        assert!(!res.deadlocked, "{kind}");
        assert_eq!(res.completed_requests, 20, "{kind}");
    }
}

/// PMAT's pending list and blocker index must drain with the queue. Debug
/// builds assert it inside the scheduler whenever the last queued thread
/// finishes, so a run that completes has passed the check on every
/// replica.
#[test]
fn pmat_blocker_index_drains_after_complete_runs() {
    let fig1 = fig1::scenario(&fig1::Fig1Params {
        n_clients: 32,
        requests_per_client: 3,
        ..Default::default()
    });
    let buffer = buffer::scenario(&buffer::BufferParams {
        n_producers: 3,
        n_consumers: 3,
        items_per_client: 6,
        ..Default::default()
    });
    let kind = SchedulerKind::Pmat;
    for (name, pair, requests) in [("fig1", fig1, 96), ("buffer", buffer, 36)] {
        let cfg = EngineConfig::new(kind).with_seed(9).with_cpu_jitter(0.05);
        let res = Engine::new(pair.for_kind(kind), cfg).run();
        assert!(!res.deadlocked, "{name}");
        assert_eq!(res.completed_requests, requests, "{name}");
    }
}

#[test]
fn analysed_variant_costs_nothing_in_virtual_time_for_pessimists() {
    // Injected lockInfo/ignore calls are zero-duration; a pessimistic
    // scheduler must produce the same virtual-time behaviour on both
    // variants.
    let p = fig1::Fig1Params {
        n_clients: 3,
        requests_per_client: 2,
        ..Default::default()
    };
    let pair = fig1::scenario(&p);
    let run = |scenario| {
        Engine::new(scenario, EngineConfig::new(SchedulerKind::Mat).with_seed(3))
            .run()
            .response_ms()
            .mean()
    };
    let plain = run(pair.plain.clone());
    let analysed = run(pair.analysed.clone());
    assert!(
        (plain - analysed).abs() < 1e-9,
        "plain {plain} vs analysed {analysed}"
    );
}
