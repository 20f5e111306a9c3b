//! Resilience goldens (DESIGN.md §11's contract, held by tests).
//!
//! Three properties are pinned here, one per section:
//!
//! 1. **Re-convergence** — after every fault schedule in the suite, all
//!    surviving and recovered replicas reach identical state hashes
//!    (invariants R1/R2), and the hash summary is identical across
//!    reruns.
//! 2. **Artifact byte-identity** — `BENCH_faults.json` does not depend
//!    on sweep worker count, dispatch order, or rerun, and its JSON,
//!    text table and CSV renderings are pinned by digest.
//! 3. **Teeth** — a deliberately broken transport (duplicate delivery
//!    with de-duplication disabled) is *flagged* by
//!    [`check_fault_convergence`]; the suite's masking claims are only
//!    meaningful because this negative control fails without masking.
//!
//! The `#[ignore]`d full grid mirrors what `figures faults` publishes.

#[path = "../tests/common/mod.rs"]
mod common;

use dmt_bench::faults::scenario_config;
use dmt_bench::{faults_experiment, faults_json, FaultGrid, ALL_KINDS, FAULT_SCENARIOS};
use dmt_core::SchedulerKind;
use dmt_replica::{check_fault_convergence, CheckOutcome, Engine, EngineConfig, FaultPlan};
use dmt_sim::SimDuration;
use dmt_workload::openloop::{self, OpenLoopParams};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// The workload the convergence goldens run: bursty arrivals, Zipf-hot
/// keys, half writes — order-sensitive enough that any grant-order
/// wobble shows up in the state hash.
fn workload(seed: u64) -> OpenLoopParams {
    OpenLoopParams {
        n_clients: 3,
        requests_per_client: 5,
        ..OpenLoopParams::default()
    }
    .with_offered_rps(1500.0)
    .with_read_fraction(0.5)
    .with_bursts(4, 8)
    .with_zipf(0.9)
    .with_seed(7000 + seed * 131)
}

/// §1 — every scenario × scheduler × seed re-converges: live replicas
/// end bit-identical in state, and the whole hash summary reruns to the
/// same bytes.
#[test]
fn state_hashes_reconverge_after_every_fault_schedule() {
    let summarize = || {
        let mut out = String::new();
        for sc in FAULT_SCENARIOS {
            for kind in SchedulerKind::DETERMINISTIC {
                if sc.needs_recovery && !kind.supports_recovery() {
                    continue;
                }
                for seed in [11u64, 12] {
                    let pair = openloop::scenario(&workload(seed));
                    let cfg = scenario_config(sc.name, kind, seed);
                    let res = Engine::new(pair.for_kind(kind), cfg).run();
                    assert!(!res.deadlocked, "{} stalled under {kind}", sc.name);
                    assert!(
                        check_fault_convergence(&res, kind).converged(),
                        "{} diverged under {kind} seed {seed}",
                        sc.name
                    );
                    // The R1/R2 invariant, stated directly: one hash
                    // across every live replica, recovered included.
                    let live: Vec<u64> = (0..res.traces.len())
                        .filter(|&i| res.alive[i])
                        .map(|i| res.traces[i].state_hash)
                        .collect();
                    assert!(!live.is_empty());
                    assert!(
                        live.windows(2).all(|w| w[0] == w[1]),
                        "{} under {kind} seed {seed}: hashes {live:x?}",
                        sc.name
                    );
                    out.push_str(&format!("{}/{kind}/{seed}: {:x}\n", sc.name, live[0]));
                }
            }
        }
        out
    };
    let golden = summarize();
    assert_eq!(golden, summarize(), "hash summary not rerun-stable");
}

/// §2 — the published artifact's bytes are independent of worker count
/// and rerun (the same contract `BENCH_openloop.json` holds).
#[test]
fn faults_json_is_byte_identical_across_worker_counts_and_reruns() {
    let g = FaultGrid {
        seeds: vec![11, 12],
        n_clients: 3,
        requests_per_client: 5,
        kinds: ALL_KINDS.to_vec(), // all seven schedulers
    };
    let rows = faults_experiment(&g, 1);
    let reference = faults_json(&g, &rows);
    // Coverage sanity: 5 non-recovery scenarios × 7 kinds + 2 recovery
    // scenarios × 5 recovery-capable kinds.
    assert_eq!(reference.matches("\"scenario\":").count(), 5 * 7 + 2 * 5);
    let t = rows.table();
    common::assert_digests(
        &[
            ("json", &reference),
            ("text", &t.to_string()),
            ("csv", &t.to_csv()),
        ],
        &[
            0x84cd_d368_9a20_ee7c,
            0x2949_ec61_c7f0_752d,
            0x52ea_1cf7_d83c_8bd2,
        ],
    );
    for threads in [2, 8] {
        let j = faults_json(&g, &faults_experiment(&g, threads));
        assert_eq!(reference, j, "{threads}-worker sweep diverged from serial");
    }
    let again = faults_json(&g, &faults_experiment(&g, 1));
    assert_eq!(reference, again, "rerun diverged");
}

/// §3 — the negative control: duplicates that actually reach a replica
/// (at-most-once delivery disabled) re-execute non-idempotent writes
/// there, and the checker must call that a determinism violation. This
/// is the test that proves the dedup layer is load-bearing and the
/// checker has teeth against delivery faults, not just scheduling ones.
#[test]
fn non_idempotent_duplicate_delivery_is_flagged() {
    let p = workload(11).with_read_fraction(0.0); // writes only
    for kind in [SchedulerKind::Seq, SchedulerKind::Mat] {
        let plan =
            FaultPlan::new().duplicate_window(ms(1), ms(12), 1, SimDuration::from_micros(100));
        let pair = openloop::scenario(&p);
        let run = |broken: bool| {
            let cfg = EngineConfig::new(kind)
                .with_seed(11)
                .with_cpu_jitter(0.1)
                .with_faults(plan.clone());
            let cfg = if broken { cfg.with_broken_dedup() } else { cfg };
            Engine::new(pair.for_kind(kind), cfg).run()
        };
        // Masked: the identical adversary converges with dedup on.
        let masked = run(false);
        assert!(
            masked.net_counter("dup_dropped") > 0,
            "{kind}: no duplicates generated"
        );
        assert!(
            check_fault_convergence(&masked, kind).converged(),
            "{kind}: masked run diverged"
        );
        // Broken: duplicates re-deliver and the checker flags it.
        let broken = run(true);
        let outcome = check_fault_convergence(&broken, kind);
        assert!(
            matches!(outcome, CheckOutcome::Diverged { .. }),
            "{kind}: broken transport not flagged — got {outcome:?}"
        );
    }
}

/// The full published grid (what `figures faults` writes), extended
/// series included: every row must converge. Slow — run explicitly with
/// `cargo test -p dmt-bench --test resilience -- --ignored`.
#[test]
#[ignore]
fn full_grid_runs_clean() {
    let g = FaultGrid {
        kinds: ALL_KINDS.to_vec(),
        ..FaultGrid::default()
    };
    let rows = faults_experiment(&g, 4);
    for r in rows.iter() {
        let (scenario, kind) = (r.str("scenario"), r.kind("scheduler"));
        assert!(r.flag("converged"), "{scenario} under {kind} diverged");
    }
}
