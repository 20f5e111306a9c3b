//! The PMAT scaling guards: the host cost of one engine event under PMAT
//! must grow neither with the length of the run, nor with the number of
//! clients, nor with the width of each thread's lock table.
//!
//! Thread ids are run-wide and only grow, so a grant check that walks
//! the id range (rather than the live threads) gets slower the more
//! requests a run has admitted. The blocker index in `dmt_core::pmat`
//! keeps each check proportional to the live threads, which a closed
//! loop holds constant: 32 clients keep at most 32 requests in flight
//! whether each sends 10 requests or 160.
//!
//! More clients do mean more live threads and more pending requests. A
//! recheck that re-tests every pending request on every event grows with
//! them; the wake list in `dmt_core::pmat` evaluates only the requests an
//! event can unblock, so the cost per event stays nearly flat from 8
//! clients to 64.
//!
//! A thread's lock table has one entry per sync block its method can
//! pass: ten for the Figure-1 method's default ten iterations. The
//! bookkeeping in `dmt_core::bookkeeping` counts each thread's
//! unresolved and live entries and maps a syncid to its entry, so no
//! event scans the table, and 50-entry tables cost what 5-entry ones do.
//!
//! Each guard compares ns/engine-event of the large run against the
//! small one in the same process, as interleaved best-of-5 runs, so it
//! is a same-host ratio rather than an absolute pin. Release builds
//! only: debug builds are unoptimised and cross-check every grant
//! against the literal queue walk, so their timings say nothing about
//! the scheduler's own cost.

use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig, Scenario};
use dmt_workload::fig1;
use std::sync::Mutex;

const CLIENTS: usize = 32;
const SHORT: usize = 10;
const LONG: usize = 160;
const FEW_CLIENTS: usize = 8;
const MANY_CLIENTS: usize = 64;
const NARROW: usize = 5;
const WIDE: usize = 50;
const ROUNDS: usize = 5;
/// Measured on a shared 2-core Intel Xeon VM. Run length: 1.60× with the
/// id-range sweep (9,442 → 15,089 ns/event), 1.01–1.16× with the blocker
/// index, 0.95–1.17× with the wake list (about 290–500 ns/event at
/// either length). Clients: 4.7–6.0× when every recheck re-tested every
/// pending request (about 360–550 → 2,200–2,500 ns/event), 1.08–1.18×
/// with the wake list (about 260–450 → 300–480), 1.08–1.22× once quiet
/// lock requests skipped the wake list, which cheapened the 8-client runs
/// most (about 150–160 → 175–190). Table width: 1.57–1.69×
/// when every event scanned the thread's table (about 225–240 → 380
/// ns/event), 0.65–0.83× with counted bookkeeping (about 195–230 →
/// 150–160).
const MAX_RATIO: f64 = 1.35;

/// Held while a guard measures, so no two guards time each other's runs.
static TIMING: Mutex<()> = Mutex::new(());

fn scenario(clients: usize, requests_per_client: usize) -> Scenario {
    scenario_of(fig1::Fig1Params {
        requests_per_client,
        ..fig1::Fig1Params::default().with_clients(clients)
    })
}

fn scenario_of(params: fig1::Fig1Params) -> Scenario {
    fig1::scenario(&params).for_kind(SchedulerKind::Pmat)
}

/// ns/engine-event over `runs` back-to-back runs of `scenario`.
fn ns_per_event(scenario: &Scenario, runs: usize) -> f64 {
    let (mut wall_ns, mut events) = (0, 0);
    for _ in 0..runs {
        let res = Engine::new(scenario.clone(), EngineConfig::new(SchedulerKind::Pmat)).run();
        assert!(!res.deadlocked, "PMAT stalled");
        wall_ns += res.perf.wall_ns;
        events += res.perf.events;
    }
    wall_ns as f64 / events as f64
}

/// The interleaved rounds of one guard: each round's ns/event of the
/// small and the large scenario.
struct Rounds(Vec<(f64, f64)>);

impl Rounds {
    /// Best-of-[`ROUNDS`] ns/event of each side. Host noise only ever
    /// slows a run down, so the minimum over interleaved rounds is the
    /// faithful estimate for both.
    fn best(&self) -> (f64, f64) {
        (self.0.iter()).fold((f64::INFINITY, f64::INFINITY), |(s, l), &(rs, rl)| {
            (s.min(rs), l.min(rl))
        })
    }
}

/// Every round's pair and its own ratio, for a guard's failure message:
/// a trip on a loaded host shows as rounds that scatter around the
/// bound, a real regression as every round above it.
impl std::fmt::Display for Rounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, &(small, large)) in (1..).zip(&self.0) {
            let ratio = large / small;
            write!(
                f,
                "\n  round {i}: {small:.0} → {large:.0} ns/event, {ratio:.2}×"
            )?;
        }
        Ok(())
    }
}

/// [`ROUNDS`] interleaved rounds of `small` (each sample pooling
/// `small_runs` runs) and `large`.
fn interleave(small: &Scenario, small_runs: usize, large: &Scenario) -> Rounds {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    Rounds(
        (0..ROUNDS)
            .map(|_| (ns_per_event(small, small_runs), ns_per_event(large, 1)))
            .collect(),
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pmat_ns_per_event_is_flat_in_run_length() {
    let rounds = interleave(&scenario(CLIENTS, SHORT), 1, &scenario(CLIENTS, LONG));
    let (best_short, best_long) = rounds.best();
    let ratio = best_long / best_short;
    println!("PMAT {best_short:.0} ns/event at {SHORT}, {best_long:.0} at {LONG}: {ratio:.2}×");
    assert!(
        ratio <= MAX_RATIO,
        "PMAT costs {best_long:.0} ns/event at {LONG} requests per client \
         against {best_short:.0} at {SHORT}: {ratio:.2}× exceeds {MAX_RATIO}× — \
         the grant check grows with run length again; rounds:{rounds}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pmat_ns_per_event_is_flat_in_clients() {
    let (few, many) = (scenario(FEW_CLIENTS, SHORT), scenario(MANY_CLIENTS, SHORT));
    // One untimed run of each first: a process's first runs pay for
    // fresh heap pages, and 64 clients need several times as many.
    ns_per_event(&few, 1);
    ns_per_event(&many, 1);
    // One 8-client run is an eighth of a 64-client one; pooling eight
    // per sample times as many requests on both sides, so a host
    // slowdown (or clock boost) cannot land on one side only.
    let rounds = interleave(&few, MANY_CLIENTS / FEW_CLIENTS, &many);
    let (best_few, best_many) = rounds.best();
    let ratio = best_many / best_few;
    println!(
        "PMAT {best_few:.0} ns/event at {FEW_CLIENTS} clients, \
         {best_many:.0} at {MANY_CLIENTS}: {ratio:.2}×"
    );
    assert!(
        ratio <= MAX_RATIO,
        "PMAT costs {best_many:.0} ns/event at {MANY_CLIENTS} clients \
         against {best_few:.0} at {FEW_CLIENTS}: {ratio:.2}× exceeds {MAX_RATIO}× — \
         the recheck grows with the pending requests again; rounds:{rounds}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn pmat_ns_per_event_is_flat_in_table_width() {
    let of_width = |iterations| {
        scenario_of(fig1::Fig1Params {
            iterations,
            requests_per_client: SHORT,
            ..fig1::Fig1Params::default().with_clients(CLIENTS)
        })
    };
    let (narrow, wide) = (of_width(NARROW), of_width(WIDE));
    // A narrow run has about a tenth of a wide one's events; pool as
    // many narrow runs per sample as make up one wide run.
    let rounds = interleave(&narrow, WIDE / NARROW, &wide);
    let (best_narrow, best_wide) = rounds.best();
    let ratio = best_wide / best_narrow;
    println!(
        "PMAT {best_narrow:.0} ns/event at {NARROW}-entry tables, \
         {best_wide:.0} at {WIDE}: {ratio:.2}×"
    );
    assert!(
        ratio <= MAX_RATIO,
        "PMAT costs {best_wide:.0} ns/event with {WIDE}-entry lock tables \
         against {best_narrow:.0} with {NARROW}: {ratio:.2}× exceeds {MAX_RATIO}× — \
         the bookkeeping scans the thread's table again; rounds:{rounds}"
    );
}
