//! **contention** — per-mutex contention analytics.
//!
//! Three sections, all derived from the structured trace
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
//!
//! Everything in the table and `BENCH_contention.json` is virtual-time
//! or integer-count derived, so the artifact is byte-identical across
//! reruns and sweep worker counts;
//! `crates/bench/tests/contention_determinism.rs` holds it to that.

use crate::experiments::{fig1_cell, run_jobs_prioritized, ALL_KINDS, FIG1_KINDS};
use crate::openloop::{load_mix_points, openloop_cell};
use crate::schema::{col, cols::*, json_doc, Fmt::*, Rows, Schema, Src::*, Value};
use dmt_analysis::predict_races;
use dmt_core::SchedulerKind;
use dmt_obs::{ContentionProfile, MetricsSnapshot};
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::inversion::{self, InversionParams};

/// A mutex is *hot* when it carries at least this percentage of the
/// profile's total contended-wait time ([`ContentionProfile::hot_count`]).
pub const HOT_PCT: u32 = 5;

/// The experiment grid. The profile section sweeps every scheduler on
/// two scenarios; the autopilot section sweeps open-loop cells.
#[derive(Clone, Debug)]
pub struct ContentionGrid {
    /// Figure-1 client count for the profile and race sections.
    pub n_clients: usize,
    pub requests_per_client: usize,
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
            autopilot_rps: vec![200.0, 3200.0],
            autopilot_read_fractions: vec![0.9],
            autopilot_clients: 4,
            autopilot_requests_per_client: 6,
        }
    }
}

/// One (scenario, scheduler) contention profile, flattened to integers.
/// `deadlocked`: the run stalled (only the inversion scenario is
/// allowed to — the AB/BA deadlock is realisable under concurrent
/// admission). `records`: trace records the run's buffer kept.
/// `contended`: acquisitions a Defer preceded. `hot_mutexes`: mutexes
/// crossing the [`HOT_PCT`] wait-share threshold. `edges`: distinct
/// held→acquired lock-order edges.
#[rustfmt::skip]
static PROFILES: Schema = Schema {
    title: "Contention profiles: per-mutex defer/wait analytics per scheduler (3 replicas, LAN)",
    cols: &[
        SCENARIO,
        SCHEDULER,
        col("deadlocked",  Some("stalled"),       Plain, Flag("yes", "no"), Cell),
        col("records",     Some("records"),       Plain, Plain,             Counter("trace.recorded")),
        col("grants",      Some("grants"),        Plain, Plain,             Cell),
        col("defers",      Some("defers"),        Plain, Plain,             Cell),
        col("contended",   Some("contended"),     Plain, Plain,             Cell),
        col("wait_ns",     Some("wait (ms)"),     Plain, Ms,                Cell),
        col("wait_p95_ns", Some("wait p95 (ms)"), Plain, Ms,                Cell),
        col("hot_mutexes", Some("hot"),           Plain, Plain,             Cell),
        EDGES,
    ],
    table: Some(&[
        "scenario", "scheduler", "records", "grants", "defers", "contended", "wait_ns",
        "wait_p95_ns", "hot_mutexes", "edges", "deadlocked",
    ]),
};

/// One race-prediction verdict per scenario (JSON only). `sections`:
/// critical sections reconstructed from the trace. `findings`:
/// lock-order cycles — must be >0 on the seeded inversion and 0 on the
/// clean Figure-1 run. `reorderable`: schedule-sensitive adjacent
/// same-mutex pairs (statistics, not findings).
#[rustfmt::skip]
static RACES: Schema = Schema {
    title: "Race prediction",
    cols: &[
        SCENARIO,
        col("sections",    None, Plain, Plain, Cell),
        EDGES,
        col("findings",    None, Plain, Plain, Cell),
        col("reorderable", None, Plain, Plain, Cell),
    ],
    table: Some(&[]),
};

/// One open-loop autopilot cell: the probe statistics (traced MAT run of
/// the same cell), what [`recommend`] picked from them, the p95 latency
/// of every static scheduler in [`FIG1_KINDS`] order, the best static
/// scheduler and its p95, the pick's p95 (= its static run), and whether
/// the pick beat or matched the best.
#[rustfmt::skip]
static AUTOPILOT: Schema = Schema {
    title: "Autopilot: probe-profile scheduler pick vs best static (open loop)",
    cols: &[
        OFFERED,
        READ_FRAC,
        col("probe_grants",    Some("grants"),        Plain, Plain,             Cell),
        col("probe_contended", Some("contended"),     Plain, Plain,             Cell),
        col("probe_wait_ns",   None,                  Plain, Plain,             Cell),
        col("recommended",     Some("pick"),          Plain, Plain,             Cell),
        col("static_p95_ns",   None,                  Plain, Plain,             Cell),
        col("best",            Some("best"),          Plain, Plain,             Cell),
        col("best_p95_ns",     Some("best p95 (ms)"), Plain, Ms,                Cell),
        col("adaptive_p95_ns", Some("pick p95 (ms)"), Plain, Ms,                Cell),
        col("matched",         Some("matched"),       Plain, Flag("yes", "no"), Cell),
    ],
    table: Some(&[
        "offered_rps", "read_fraction", "probe_grants", "probe_contended", "recommended",
        "adaptive_p95_ns", "best", "best_p95_ns", "matched",
    ]),
};

/// Everything the `contention` experiment produces.
#[derive(Clone, Debug)]
pub struct ContentionReport {
    pub profiles: Rows,
    pub races: Rows,
    pub autopilot: Rows,
    /// Collapsed-stack flamegraph lines of the heaviest open-loop cell
    /// under MAT (the `CONTENTION_mat_openloop.folded` artifact).
    pub folded: String,
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

fn profile_row(scenario: &'static str, kind: SchedulerKind, res: &RunResult) -> Vec<Value> {
    let p = ContentionProfile::from_records(&res.trace_records, 0);
    let cells = vec![
        Value::S(scenario),
        Value::Kind(kind),
        Value::B(res.deadlocked),
        Value::U(p.grants_total()),
        Value::U(p.defers_total()),
        Value::U(p.contended_total()),
        Value::U(p.wait_ns_total()),
        Value::U(p.wait_percentile_ns(95.0)),
        Value::U(p.hot_count(HOT_PCT) as u64),
        Value::U(p.edges.len() as u64),
    ];
    PROFILES.row(&res.metrics, cells)
}

/// Runs the full experiment on `threads` workers. Jobs are slotted by
/// grid index, so output bytes are identical for any `threads`.
pub fn contention_experiment(grid: &ContentionGrid, threads: usize) -> ContentionReport {
    let traced = |kind| EngineConfig::new(kind).with_tracing();
    let fig1 = |kind| fig1_cell(grid.n_clients, grid.requests_per_client, traced(kind));
    // A traced probe or untraced static run of one autopilot cell: the
    // openloop sweep's cell, so cells line up.
    let (n, r) = (grid.autopilot_clients, grid.autopilot_requests_per_client);
    let openloop_run = |rps, rf, cfg| openloop_cell(n, r, rps, rf, cfg);
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
                profile_row("fig1", kind, &fig1(kind))
            } else {
                profile_row("inversion", kind, &inversion_traced(kind))
            }
        },
    );

    // Section 2: race prediction on the two SEQ traces. The inversion
    // trace must carry the A⇄B cycle; the clean fig1 trace (flat
    // locking) must produce zero findings.
    let race_row = |scenario: &'static str, res: &RunResult| {
        let r = predict_races(&res.trace_records, 0);
        let cells = vec![
            Value::S(scenario),
            Value::U(r.sections.len() as u64),
            Value::U(r.edges.len() as u64),
            Value::U(r.findings() as u64),
            Value::U(r.reorderable_total()),
        ];
        RACES.row(&MetricsSnapshot::default(), cells)
    };
    let races = vec![
        race_row("inversion", &inversion_traced(SchedulerKind::Seq)),
        race_row("fig1", &fig1(SchedulerKind::Seq)),
    ];

    // Section 3: the autopilot over the open-loop grid. Each cell is
    // one job: probe, recommend, then price every static scheduler.
    let cells = load_mix_points(&grid.autopilot_rps, &grid.autopilot_read_fractions);
    let autopilot = run_jobs_prioritized(
        cells.len(),
        threads,
        |job| (cells[job].0 * 1e3) as u64,
        |job| {
            let (rps, rf) = cells[job];
            let probe = openloop_run(rps, rf, traced(SchedulerKind::Mat));
            let prof = ContentionProfile::from_records(&probe.trace_records, 0);
            let recommended = recommend(&prof);
            let static_p95: Vec<(SchedulerKind, u64)> = FIG1_KINDS
                .iter()
                .map(|&k| {
                    let res = openloop_run(rps, rf, EngineConfig::new(k));
                    (k, res.latency_ns().p95_ns().unwrap_or(0))
                })
                .collect();
            let (best_kind, best_p95) = *static_p95.iter().min_by_key(|(_, p95)| p95).unwrap();
            let adaptive_p95 = static_p95
                .iter()
                .find(|(k, _)| *k == recommended)
                .map_or(0, |&(_, p95)| p95);
            let cells = vec![
                Value::F(rps),
                Value::F(rf),
                Value::U(prof.grants_total()),
                Value::U(prof.contended_total()),
                Value::U(prof.wait_ns_total()),
                Value::Kind(recommended),
                Value::PerKind(static_p95),
                Value::Kind(best_kind),
                Value::U(best_p95),
                Value::U(adaptive_p95),
                Value::B(adaptive_p95 <= best_p95),
            ];
            AUTOPILOT.row(&MetricsSnapshot::default(), cells)
        },
    );

    // The flamegraph artifact folds the heaviest open-loop cell under
    // MAT: its critical sections have real length (get/put compute
    // inside the monitor), so both hold and wait frames carry weight —
    // fig1's lock/update/unlock sections are instantaneous in virtual
    // time and would fold to wait frames only.
    let folded_src = openloop_run(
        *grid.autopilot_rps.last().unwrap(),
        *grid.autopilot_read_fractions.last().unwrap(),
        traced(SchedulerKind::Mat),
    );
    let folded = ContentionProfile::from_records(&folded_src.trace_records, 0).collapsed();

    ContentionReport {
        profiles: Rows::new(&PROFILES, profiles),
        races: Rows::new(&RACES, races),
        autopilot: Rows::new(&AUTOPILOT, autopilot),
        folded,
    }
}

/// Serialises the experiment as the `BENCH_contention.json` artifact.
/// Every value is virtual-time or integer-count derived, so the byte
/// stream is reproducible across reruns and worker counts.
pub fn contention_json(grid: &ContentionGrid, report: &ContentionReport) -> String {
    json_doc(&[
        ("experiment", "\"contention\"".into()),
        ("grid", format!(
            "{{\"n_clients\": {}, \"requests_per_client\": {}, \"hot_pct\": {}, \"autopilot_rps\": {:?}, \"autopilot_read_fractions\": {:?}, \"autopilot_clients\": {}, \"autopilot_requests_per_client\": {}}}",
            grid.n_clients,
            grid.requests_per_client,
            HOT_PCT,
            grid.autopilot_rps,
            grid.autopilot_read_fractions,
            grid.autopilot_clients,
            grid.autopilot_requests_per_client,
        )),
        ("note", "\"per-mutex contention profiles folded from the trace buffer; virtual-time integers only; byte-identical across reruns and sweep worker counts\"".into()),
        ("profiles", report.profiles.json_array()),
        ("race_prediction", report.races.json_array()),
        ("autopilot", report.autopilot.json_array()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_covers_all_sections_and_flags_the_inversion() {
        let grid = ContentionGrid::quick();
        let report = contention_experiment(&grid, 2);
        assert_eq!(report.profiles.len(), 2 * ALL_KINDS.len());
        for r in report.profiles.iter() {
            let kind = r.kind("scheduler");
            assert!(r.u64("records") > 0, "{kind} captured no records");
            assert!(r.u64("grants") > 0, "{kind} granted nothing");
            assert!(!(r.str("scenario") == "fig1" && r.flag("deadlocked")));
        }
        // The seeded inversion must be the positive control and the
        // clean fig1 trace the negative one.
        let inv = report.races.row(0);
        assert_eq!(inv.str("scenario"), "inversion");
        assert!(inv.u64("findings") > 0, "inversion cycle not flagged");
        let clean = report.races.row(1);
        assert_eq!(clean.str("scenario"), "fig1");
        assert_eq!(clean.u64("findings"), 0, "false positive on clean fig1");
        // Autopilot rows price every static scheduler.
        for r in report.autopilot.iter() {
            let Value::PerKind(static_p95) = r.get("static_p95_ns") else {
                panic!("static_p95_ns is not per scheduler");
            };
            assert_eq!(static_p95.len(), FIG1_KINDS.len());
            assert!(r.u64("adaptive_p95_ns") >= r.u64("best_p95_ns") || r.flag("matched"));
        }
        // The folded artifact has hold frames.
        assert!(report.folded.contains(";hold "));
        // JSON and tables cover every row.
        let j = contention_json(&grid, &report);
        assert_eq!(
            j.matches("\"scenario\"").count(),
            report.profiles.len() + report.races.len()
        );
        assert_eq!(report.profiles.table().rows.len(), report.profiles.len());
        assert_eq!(report.autopilot.table().rows.len(), report.autopilot.len());
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
