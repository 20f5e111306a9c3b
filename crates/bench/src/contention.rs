//! **contention** — per-mutex contention analytics and the feedback loop.
//!
//! Four sections, all derived from the structured trace
//! ([`dmt_obs::Tracer`]) of full cluster simulations:
//!
//! 1. **Profiles** — every scheduler runs the Figure-1 workload and the
//!    seeded AB/BA [`dmt_workload::inversion`] scenario with tracing on;
//!    the Grant/Defer/Release stream folds into a per-mutex
//!    [`dmt_obs::ContentionProfile`] (defer counts by reason, hold/wait
//!    histograms, waits-for edges).
//! 2. **Race prediction** — [`dmt_analysis::predict_races`] replays the
//!    SEQ trace of the inversion scenario and must flag the A⇄B
//!    lock-order cycle from the *benign* serial execution, and report
//!    zero findings on the clean Figure-1 trace.
//! 3. **Autopilot** — for each open-loop grid cell, a traced MAT probe
//!    run is profiled and [`recommend`] picks a scheduler from the
//!    contention ratio alone; the pick's latency is compared against
//!    all five static schedulers on that cell.
//! 4. **Pmat feedback** — the Figure-1 *MAT* trace (the concurrent
//!    baseline, where blocking is observable) is folded into
//!    [`dmt_obs::ContentionProfile::hints`] and fed back via
//!    [`EngineConfig::with_hints`]; the hinted PMAT rerun is compared
//!    with the unhinted baseline. On fig1 the static predictions
//!    already eliminate blocking, so the hot-hint override can only
//!    cost — the row quantifies that, which is exactly what a
//!    feedback prototype must know before firing hints automatically.
//!
//! Everything in the table and `BENCH_contention.json` is virtual-time
//! or integer-count derived, so the artifact is byte-identical across
//! reruns and sweep worker counts;
//! `crates/bench/tests/contention_determinism.rs` holds it to that.

use crate::experiments::{run_jobs_prioritized, sweep_threads, ALL_KINDS, FIG1_KINDS};
use crate::table::Table;
use dmt_analysis::predict_races;
use dmt_core::SchedulerKind;
use dmt_obs::ContentionProfile;
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::inversion::InversionParams;
use dmt_workload::openloop::OpenLoopParams;
use dmt_workload::{fig1, inversion, openloop};

/// The experiment grid. The profile section sweeps every scheduler on
/// two scenarios; the autopilot section sweeps open-loop cells.
#[derive(Clone, Debug)]
pub struct ContentionGrid {
    /// Figure-1 client count for the profile and feedback sections.
    pub n_clients: usize,
    pub requests_per_client: usize,
    /// A mutex is *hot* when it carries at least this percentage of the
    /// profile's total contended-wait time ([`ContentionProfile::hints`]).
    pub hot_pct: u32,
    /// Open-loop cells (offered load × read mix) for the autopilot.
    pub autopilot_rps: Vec<f64>,
    pub autopilot_read_fractions: Vec<f64>,
    pub autopilot_clients: usize,
    pub autopilot_requests_per_client: usize,
}

impl Default for ContentionGrid {
    fn default() -> Self {
        ContentionGrid {
            n_clients: 8,
            requests_per_client: 4,
            hot_pct: 5,
            autopilot_rps: vec![100.0, 400.0, 1600.0, 6400.0],
            autopilot_read_fractions: vec![0.5, 0.9],
            autopilot_clients: 8,
            autopilot_requests_per_client: 25,
        }
    }
}

impl ContentionGrid {
    /// A small grid for smoke runs (`figures contention --quick`).
    pub fn quick() -> Self {
        ContentionGrid {
            n_clients: 4,
            requests_per_client: 2,
            hot_pct: 5,
            autopilot_rps: vec![200.0, 3200.0],
            autopilot_read_fractions: vec![0.9],
            autopilot_clients: 4,
            autopilot_requests_per_client: 6,
        }
    }
}

/// One (scenario, scheduler) contention profile, flattened to integers.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    pub scenario: &'static str,
    pub kind: SchedulerKind,
    /// The run stalled (only the inversion scenario is allowed to — the
    /// AB/BA deadlock is realisable under concurrent admission).
    pub deadlocked: bool,
    /// Trace records the run's trace buffer kept.
    pub records: u64,
    pub grants: u64,
    pub defers: u64,
    /// Contended acquisitions (a Defer preceded the Grant).
    pub contended: u64,
    pub wait_ns: u64,
    pub wait_p95_ns: u64,
    /// Mutexes crossing the `hot_pct` wait-share threshold.
    pub hot_mutexes: u64,
    /// Distinct held→acquired lock-order edges.
    pub edges: u64,
}

/// One race-prediction verdict.
#[derive(Clone, Debug)]
pub struct RaceRow {
    pub scenario: &'static str,
    /// Critical sections reconstructed from the trace.
    pub sections: u64,
    pub edges: u64,
    /// Lock-order cycles — the findings. Must be >0 on the seeded
    /// inversion and 0 on the clean Figure-1 run.
    pub findings: u64,
    /// Schedule-sensitive adjacent same-mutex pairs (statistics, not
    /// findings).
    pub reorderable: u64,
}

/// One open-loop autopilot cell.
#[derive(Clone, Debug)]
pub struct AutopilotRow {
    pub offered_rps: f64,
    pub read_fraction: f64,
    /// Probe statistics (traced MAT run of the same cell).
    pub probe_grants: u64,
    pub probe_contended: u64,
    pub probe_wait_ns: u64,
    /// What [`recommend`] picked from the probe profile.
    pub recommended: SchedulerKind,
    /// p95 latency of every static scheduler, in [`FIG1_KINDS`] order.
    pub static_p95_ns: Vec<u64>,
    /// The best static scheduler on this cell and its p95.
    pub best_kind: SchedulerKind,
    pub best_p95_ns: u64,
    /// p95 of the recommended scheduler (= its static run).
    pub adaptive_p95_ns: u64,
    /// The pick beat or matched the best static scheduler.
    pub matched: bool,
}

/// The Pmat feedback experiment: unhinted baseline vs hinted rerun.
#[derive(Clone, Debug)]
pub struct PmatFeedbackRow {
    /// Hot mutexes the probe profile marked.
    pub hot_mutexes: u64,
    pub base_p95_ns: u64,
    pub base_mean_ns: f64,
    pub base_makespan_ns: u64,
    pub hinted_p95_ns: u64,
    pub hinted_mean_ns: f64,
    pub hinted_makespan_ns: u64,
}

/// Everything the `contention` experiment produces.
#[derive(Clone, Debug)]
pub struct ContentionReport {
    pub profiles: Vec<ProfileRow>,
    pub races: Vec<RaceRow>,
    pub autopilot: Vec<AutopilotRow>,
    pub pmat: PmatFeedbackRow,
    /// Collapsed-stack flamegraph lines of the heaviest open-loop cell
    /// under MAT (the `CONTENTION_mat_openloop.folded` artifact).
    pub folded: String,
}

/// A traced Figure-1 cluster run (same seeds as the fig1 sweep).
fn fig1_traced(grid: &ContentionGrid, kind: SchedulerKind) -> RunResult {
    let params = fig1::Fig1Params::default()
        .with_clients(grid.n_clients)
        .with_seed(1000 + grid.n_clients as u64);
    let params = fig1::Fig1Params {
        requests_per_client: grid.requests_per_client,
        ..params
    };
    let pair = fig1::scenario(&params);
    let cfg = EngineConfig::new(kind)
        .with_seed(7)
        .with_cpu_jitter(0.05)
        .with_tracing();
    let res = Engine::new(pair.for_kind(kind), cfg).run();
    assert!(!res.deadlocked, "{kind} stalled on fig1");
    res
}

/// A traced inversion run. No deadlock assert: the whole point of the
/// scenario is that concurrent schedulers *can* realise the AB/BA
/// deadlock; SEQ always completes.
fn inversion_traced(kind: SchedulerKind) -> RunResult {
    let pair = inversion::scenario(&InversionParams::default());
    let cfg = EngineConfig::new(kind)
        .with_seed(5)
        .with_cpu_jitter(0.05)
        .with_tracing();
    Engine::new(pair.for_kind(kind), cfg).run()
}

/// A traced open-loop probe / untraced static run of one cell (same
/// seeding rule as the openloop sweep, so cells line up).
fn openloop_run(
    grid: &ContentionGrid,
    rps: f64,
    rf: f64,
    kind: SchedulerKind,
    traced: bool,
) -> RunResult {
    let p = OpenLoopParams {
        n_clients: grid.autopilot_clients,
        requests_per_client: grid.autopilot_requests_per_client,
        ..OpenLoopParams::default()
    }
    .with_offered_rps(rps)
    .with_read_fraction(rf)
    .with_seed(9000 + (rps as u64) * 31 + (rf * 100.0) as u64);
    let pair = openloop::scenario(&p);
    let mut cfg = EngineConfig::new(kind).with_seed(7).with_cpu_jitter(0.05);
    if traced {
        cfg = cfg.with_tracing();
    }
    let res = Engine::new(pair.for_kind(kind), cfg).run();
    assert!(
        !res.deadlocked,
        "{kind} stalled at {rps} req/s, {rf} read mix"
    );
    res
}

/// The autopilot's decision rule — deliberately crude, integer-only,
/// and derived from a single probe profile. The contention ratio is
/// contended acquisitions per hundred grants:
///
/// * nothing contended → the workload is effectively serial; SEQ's
///   zero-coordination admission is free,
/// * light contention → MAT's concurrent token queue wins,
/// * heavy contention → queueing dominates and LSA's serialised
///   admission (one broadcast per grant, but no token convoy) takes
///   the tail; pick it.
///
/// Thresholds were read off the measured probe profiles in
/// `BENCH_contention.json` (see EXPERIMENTS.md §contention).
pub fn recommend(profile: &ContentionProfile) -> SchedulerKind {
    let grants = profile.grants_total();
    let contended = profile.contended_total();
    if contended == 0 {
        return SchedulerKind::Seq;
    }
    // ratio in contended-per-100-grants, integer arithmetic only.
    if contended * 100 >= grants * 15 {
        SchedulerKind::Lsa
    } else {
        SchedulerKind::Mat
    }
}

fn profile_row(
    scenario: &'static str,
    kind: SchedulerKind,
    grid: &ContentionGrid,
    res: &RunResult,
) -> ProfileRow {
    let p = ContentionProfile::from_records(&res.trace_records, 0);
    ProfileRow {
        scenario,
        kind,
        deadlocked: res.deadlocked,
        records: res.trace_records.len() as u64,
        grants: p.grants_total(),
        defers: p.defers_total(),
        contended: p.contended_total(),
        wait_ns: p.wait_ns_total(),
        wait_p95_ns: p.wait_percentile_ns(95.0),
        hot_mutexes: p.hints(grid.hot_pct).hot_count() as u64,
        edges: p.edges.len() as u64,
    }
}

/// Runs the full experiment with an explicit worker count. Jobs are
/// slotted by grid index, so output bytes are identical for any
/// `threads`.
pub fn contention_experiment_with_threads(
    grid: &ContentionGrid,
    threads: usize,
) -> ContentionReport {
    // Section 1: (scenario × scheduler) profile sweep. fig1 jobs are
    // the long ones, so they get priority.
    let n_kinds = ALL_KINDS.len();
    let profiles = run_jobs_prioritized(
        2 * n_kinds,
        threads,
        |job| if job < n_kinds { 1000 } else { 10 },
        |job| {
            let kind = ALL_KINDS[job % n_kinds];
            if job < n_kinds {
                profile_row("fig1", kind, grid, &fig1_traced(grid, kind))
            } else {
                profile_row("inversion", kind, grid, &inversion_traced(kind))
            }
        },
    );

    // Section 2: race prediction on the two SEQ traces. The inversion
    // trace must carry the A⇄B cycle; the clean fig1 trace (flat
    // locking) must produce zero findings.
    let race_row = |scenario: &'static str, res: &RunResult| {
        let r = predict_races(&res.trace_records, 0);
        RaceRow {
            scenario,
            sections: r.sections.len() as u64,
            edges: r.edges.len() as u64,
            findings: r.findings() as u64,
            reorderable: r.reorderable_total(),
        }
    };
    let races = vec![
        race_row("inversion", &inversion_traced(SchedulerKind::Seq)),
        race_row("fig1", &fig1_traced(grid, SchedulerKind::Seq)),
    ];

    // Section 3: the autopilot over the open-loop grid. Each cell is
    // one job: probe, recommend, then price every static scheduler.
    let cells: Vec<(f64, f64)> = grid
        .autopilot_rps
        .iter()
        .flat_map(|&rps| {
            grid.autopilot_read_fractions
                .iter()
                .map(move |&rf| (rps, rf))
        })
        .collect();
    let autopilot = run_jobs_prioritized(
        cells.len(),
        threads,
        |job| (cells[job].0 * 1e3) as u64,
        |job| {
            let (rps, rf) = cells[job];
            let probe = openloop_run(grid, rps, rf, SchedulerKind::Mat, true);
            let prof = ContentionProfile::from_records(&probe.trace_records, 0);
            let recommended = recommend(&prof);
            let static_p95_ns: Vec<u64> = FIG1_KINDS
                .iter()
                .map(|&k| {
                    openloop_run(grid, rps, rf, k, false)
                        .latency_ns()
                        .p95_ns()
                        .unwrap_or(0)
                })
                .collect();
            let best = FIG1_KINDS
                .iter()
                .zip(&static_p95_ns)
                .min_by_key(|(_, &p95)| p95)
                .map(|(&k, &p95)| (k, p95))
                .unwrap();
            let adaptive_p95_ns = FIG1_KINDS
                .iter()
                .position(|&k| k == recommended)
                .map(|i| static_p95_ns[i])
                .unwrap_or(0);
            AutopilotRow {
                offered_rps: rps,
                read_fraction: rf,
                probe_grants: prof.grants_total(),
                probe_contended: prof.contended_total(),
                probe_wait_ns: prof.wait_ns_total(),
                recommended,
                static_p95_ns,
                best_kind: best.0,
                best_p95_ns: best.1,
                adaptive_p95_ns,
                matched: adaptive_p95_ns <= best.1,
            }
        },
    );

    // Section 4: the Pmat feedback loop. Contention is observed under
    // MAT — the concurrent baseline whose blocking PMAT's predictions
    // are meant to avoid; PMAT's own trace is contention-free on fig1,
    // so it carries no signal — folded into a hot set and fed back
    // into PMAT's eligibility rule. The traced PMAT run doubles as the
    // unhinted baseline (tracing never perturbs virtual time).
    let observed = fig1_traced(grid, SchedulerKind::Mat);
    let prof = ContentionProfile::from_records(&observed.trace_records, 0);
    let probe = fig1_traced(grid, SchedulerKind::Pmat);
    // The flamegraph artifact folds the heaviest open-loop cell under
    // MAT: its critical sections have real length (get/put compute
    // inside the monitor), so both hold and wait frames carry weight —
    // fig1's lock/update/unlock sections are instantaneous in virtual
    // time and would fold to wait frames only.
    let folded_src = openloop_run(
        grid,
        *grid.autopilot_rps.last().unwrap(),
        *grid.autopilot_read_fractions.last().unwrap(),
        SchedulerKind::Mat,
        true,
    );
    let folded = ContentionProfile::from_records(&folded_src.trace_records, 0).collapsed();
    let hints = prof.hints(grid.hot_pct);
    let params = fig1::Fig1Params::default()
        .with_clients(grid.n_clients)
        .with_seed(1000 + grid.n_clients as u64);
    let params = fig1::Fig1Params {
        requests_per_client: grid.requests_per_client,
        ..params
    };
    let pair = fig1::scenario(&params);
    let cfg = EngineConfig::new(SchedulerKind::Pmat)
        .with_seed(7)
        .with_cpu_jitter(0.05)
        .with_hints(hints.clone());
    let hinted = Engine::new(pair.for_kind(SchedulerKind::Pmat), cfg).run();
    assert!(!hinted.deadlocked, "hinted PMAT stalled on fig1");
    let pmat = PmatFeedbackRow {
        hot_mutexes: hints.hot_count() as u64,
        base_p95_ns: probe.latency_ns().p95_ns().unwrap_or(0),
        base_mean_ns: probe.latency_ns().mean_ns(),
        base_makespan_ns: probe.makespan.as_nanos(),
        hinted_p95_ns: hinted.latency_ns().p95_ns().unwrap_or(0),
        hinted_mean_ns: hinted.latency_ns().mean_ns(),
        hinted_makespan_ns: hinted.makespan.as_nanos(),
    };

    ContentionReport {
        profiles,
        races,
        autopilot,
        pmat,
        folded,
    }
}

/// [`contention_experiment_with_threads`] at the default worker count.
pub fn contention_experiment(grid: &ContentionGrid) -> ContentionReport {
    contention_experiment_with_threads(grid, sweep_threads())
}

/// The per-scheduler profile table.
pub fn contention_table(report: &ContentionReport) -> Table {
    let mut t = Table::new(
        "Contention profiles: per-mutex defer/wait analytics per scheduler (3 replicas, LAN)",
        &[
            "scenario",
            "sched",
            "records",
            "grants",
            "defers",
            "contended",
            "wait (ms)",
            "wait p95 (ms)",
            "hot",
            "edges",
            "stalled",
        ],
    );
    for r in &report.profiles {
        t.push_row(vec![
            r.scenario.to_string(),
            r.kind.to_string(),
            r.records.to_string(),
            r.grants.to_string(),
            r.defers.to_string(),
            r.contended.to_string(),
            format!("{:.3}", r.wait_ns as f64 / 1e6),
            format!("{:.3}", r.wait_p95_ns as f64 / 1e6),
            r.hot_mutexes.to_string(),
            r.edges.to_string(),
            if r.deadlocked { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// The autopilot table: probe ratio, pick, and how it priced out.
pub fn autopilot_table(report: &ContentionReport) -> Table {
    let mut t = Table::new(
        "Autopilot: probe-profile scheduler pick vs best static (open loop)",
        &[
            "offered req/s",
            "read %",
            "grants",
            "contended",
            "pick",
            "pick p95 (ms)",
            "best",
            "best p95 (ms)",
            "matched",
        ],
    );
    for r in &report.autopilot {
        t.push_row(vec![
            format!("{:.0}", r.offered_rps),
            format!("{:.0}", r.read_fraction * 100.0),
            r.probe_grants.to_string(),
            r.probe_contended.to_string(),
            r.recommended.to_string(),
            format!("{:.3}", r.adaptive_p95_ns as f64 / 1e6),
            r.best_kind.to_string(),
            format!("{:.3}", r.best_p95_ns as f64 / 1e6),
            if r.matched { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// Serialises the experiment as the `BENCH_contention.json` artifact.
/// Every value is virtual-time or integer-count derived, so the byte
/// stream is reproducible across reruns and worker counts.
pub fn contention_json(grid: &ContentionGrid, report: &ContentionReport) -> String {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"experiment\": \"contention\",\n");
    j.push_str(&format!(
        "  \"grid\": {{\"n_clients\": {}, \"requests_per_client\": {}, \"hot_pct\": {}, \"autopilot_rps\": {:?}, \"autopilot_read_fractions\": {:?}, \"autopilot_clients\": {}, \"autopilot_requests_per_client\": {}}},\n",
        grid.n_clients,
        grid.requests_per_client,
        grid.hot_pct,
        grid.autopilot_rps,
        grid.autopilot_read_fractions,
        grid.autopilot_clients,
        grid.autopilot_requests_per_client,
    ));
    j.push_str("  \"note\": \"per-mutex contention profiles folded from the trace buffer; virtual-time integers only; byte-identical across reruns and sweep worker counts\",\n");
    j.push_str("  \"profiles\": [\n");
    for (i, r) in report.profiles.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"scheduler\": \"{}\", \"deadlocked\": {}, \"records\": {}, \"grants\": {}, \"defers\": {}, \"contended\": {}, \"wait_ns\": {}, \"wait_p95_ns\": {}, \"hot_mutexes\": {}, \"edges\": {}}}{}\n",
            r.scenario,
            r.kind.name(),
            r.deadlocked,
            r.records,
            r.grants,
            r.defers,
            r.contended,
            r.wait_ns,
            r.wait_p95_ns,
            r.hot_mutexes,
            r.edges,
            if i + 1 < report.profiles.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"race_prediction\": [\n");
    for (i, r) in report.races.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"sections\": {}, \"edges\": {}, \"findings\": {}, \"reorderable\": {}}}{}\n",
            r.scenario,
            r.sections,
            r.edges,
            r.findings,
            r.reorderable,
            if i + 1 < report.races.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"autopilot\": [\n");
    for (i, r) in report.autopilot.iter().enumerate() {
        let statics = FIG1_KINDS
            .iter()
            .zip(&r.static_p95_ns)
            .map(|(k, p95)| format!("\"{}\": {}", k.name(), p95))
            .collect::<Vec<_>>()
            .join(", ");
        j.push_str(&format!(
            "    {{\"offered_rps\": {:.0}, \"read_fraction\": {:.2}, \"probe_grants\": {}, \"probe_contended\": {}, \"probe_wait_ns\": {}, \"recommended\": \"{}\", \"static_p95_ns\": {{{}}}, \"best\": \"{}\", \"best_p95_ns\": {}, \"adaptive_p95_ns\": {}, \"matched\": {}}}{}\n",
            r.offered_rps,
            r.read_fraction,
            r.probe_grants,
            r.probe_contended,
            r.probe_wait_ns,
            r.recommended.name(),
            statics,
            r.best_kind.name(),
            r.best_p95_ns,
            r.adaptive_p95_ns,
            r.matched,
            if i + 1 < report.autopilot.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n");
    let p = &report.pmat;
    j.push_str(&format!(
        "  \"pmat_feedback\": {{\"hot_mutexes\": {}, \"base_p95_ns\": {}, \"base_mean_ns\": {:.1}, \"base_makespan_ns\": {}, \"hinted_p95_ns\": {}, \"hinted_mean_ns\": {:.1}, \"hinted_makespan_ns\": {}}}\n",
        p.hot_mutexes,
        p.base_p95_ns,
        p.base_mean_ns,
        p.base_makespan_ns,
        p.hinted_p95_ns,
        p.hinted_mean_ns,
        p.hinted_makespan_ns,
    ));
    j.push_str("}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_covers_all_sections_and_flags_the_inversion() {
        let grid = ContentionGrid::quick();
        let report = contention_experiment_with_threads(&grid, 2);
        assert_eq!(report.profiles.len(), 2 * ALL_KINDS.len());
        for r in &report.profiles {
            assert!(r.records > 0, "{} captured no records", r.kind);
            assert!(r.grants > 0, "{} granted nothing", r.kind);
            assert!(!(r.scenario == "fig1" && r.deadlocked));
        }
        // The seeded inversion must be the positive control and the
        // clean fig1 trace the negative one.
        let inv = &report.races[0];
        assert_eq!(inv.scenario, "inversion");
        assert!(inv.findings > 0, "inversion cycle not flagged");
        let clean = &report.races[1];
        assert_eq!(clean.scenario, "fig1");
        assert_eq!(clean.findings, 0, "false positive on clean fig1");
        // Autopilot rows price every static scheduler.
        for r in &report.autopilot {
            assert_eq!(r.static_p95_ns.len(), FIG1_KINDS.len());
            assert!(r.adaptive_p95_ns >= r.best_p95_ns || r.matched);
        }
        // The folded artifact has hold frames.
        assert!(report.folded.contains(";hold "));
        // JSON and tables cover every row.
        let j = contention_json(&grid, &report);
        assert_eq!(
            j.matches("\"scenario\"").count(),
            report.profiles.len() + report.races.len()
        );
        assert!(j.contains("\"pmat_feedback\""));
        assert_eq!(contention_table(&report).rows.len(), report.profiles.len());
        assert_eq!(autopilot_table(&report).rows.len(), report.autopilot.len());
    }

    #[test]
    fn recommend_is_monotone_in_the_contention_ratio() {
        // Build synthetic profiles through the real fold: uncontended →
        // SEQ, heavily contended → LSA.
        use dmt_core::{DeferReason, ThreadId};
        use dmt_lang::MutexId;
        use dmt_obs::{TraceEvent, TraceRecord};
        let rec = |t_ns: u64, ev: TraceEvent| TraceRecord {
            t_ns,
            replica: 0,
            ev,
        };
        let grant = |t_ns, tid: u32, m: u32, from_wait| {
            rec(
                t_ns,
                TraceEvent::Sched(dmt_core::Decision::Grant {
                    tid: ThreadId::new(tid),
                    mutex: MutexId::new(m),
                    from_wait,
                }),
            )
        };
        let rel = |t_ns, tid: u32, m: u32| {
            rec(
                t_ns,
                TraceEvent::MutexReleased {
                    tid: ThreadId::new(tid),
                    mutex: MutexId::new(m),
                },
            )
        };
        let serial = ContentionProfile::from_records(&[grant(0, 1, 0, false), rel(10, 1, 0)], 0);
        assert_eq!(recommend(&serial), SchedulerKind::Seq);
        let defer = |t_ns, tid: u32, m: u32| {
            rec(
                t_ns,
                TraceEvent::Sched(dmt_core::Decision::Defer {
                    tid: ThreadId::new(tid),
                    mutex: MutexId::new(m),
                    reason: DeferReason::MutexBusy,
                }),
            )
        };
        let contended = ContentionProfile::from_records(
            &[
                grant(0, 1, 0, false),
                defer(1, 2, 0),
                rel(10, 1, 0),
                grant(11, 2, 0, false),
                rel(20, 2, 0),
            ],
            0,
        );
        assert_eq!(recommend(&contended), SchedulerKind::Lsa);
    }
}
