//! The PMAT scaling guard: the host cost of one engine event under PMAT
//! must not grow with the length of the run.
//!
//! Thread ids are run-wide and only grow, so a grant check that walks
//! the id range (rather than the live threads) gets slower the more
//! requests a run has admitted. The blocker index in `dmt_core::pmat`
//! keeps each check proportional to the live threads, which a closed
//! loop holds constant: 32 clients keep at most 32 requests in flight
//! whether each sends 10 requests or 160.
//!
//! The guard compares ns/engine-event of the long run against the short
//! one in the same process, as interleaved best-of-5 runs, so it is a
//! same-host ratio rather than an absolute pin. Release builds only:
//! debug builds are unoptimised and cross-check every grant against the
//! literal queue walk, so their timings say nothing about the index.

use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig, Scenario};
use dmt_workload::fig1;

const CLIENTS: usize = 32;
const SHORT: usize = 10;
const LONG: usize = 160;
const ROUNDS: usize = 5;
/// Measured on a shared 2-core Intel Xeon VM: 1.60× with the id-range
/// sweep (9,442 → 15,089 ns/event), 1.01–1.16× with the blocker index
/// (about 800–1,100 ns/event at either length).
const MAX_RATIO: f64 = 1.35;

fn scenario(requests_per_client: usize) -> Scenario {
    let params = fig1::Fig1Params {
        requests_per_client,
        ..fig1::Fig1Params::default().with_clients(CLIENTS)
    };
    fig1::scenario(&params).for_kind(SchedulerKind::Pmat)
}

fn ns_per_event(scenario: &Scenario) -> f64 {
    let res = Engine::new(scenario.clone(), EngineConfig::new(SchedulerKind::Pmat)).run();
    assert!(!res.deadlocked, "PMAT stalled");
    res.perf.ns_per_event()
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pmat_ns_per_event_is_flat_in_run_length() {
    let (short, long) = (scenario(SHORT), scenario(LONG));
    let (mut best_short, mut best_long) = (f64::INFINITY, f64::INFINITY);
    // Host noise only ever slows a run down, so the minimum over
    // interleaved rounds is the faithful estimate for both lengths.
    for _ in 0..ROUNDS {
        best_short = best_short.min(ns_per_event(&short));
        best_long = best_long.min(ns_per_event(&long));
    }
    let ratio = best_long / best_short;
    println!("PMAT {best_short:.0} ns/event at {SHORT}, {best_long:.0} at {LONG}: {ratio:.2}×");
    assert!(
        ratio <= MAX_RATIO,
        "PMAT costs {best_long:.0} ns/event at {LONG} requests per client \
         against {best_short:.0} at {SHORT}: {ratio:.2}× exceeds {MAX_RATIO}× — \
         the grant check grows with run length again"
    );
}
