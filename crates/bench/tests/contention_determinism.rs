//! Contention-analytics regressions:
//!
//! 1. `BENCH_contention.json` is byte-identical across sweep worker
//!    counts and reruns — the artifact is pure virtual-time/integer
//!    data, so no wall clock or iteration order may leak in — and the
//!    autopilot must beat-or-match the best static scheduler on at
//!    least one open-loop cell (the headline claim of the experiment).
//!    The reference JSON, both text tables, their CSV and the folded
//!    flamegraph are pinned by digest.
//! 2. The race-prediction report on the seeded AB/BA inversion is
//!    pinned byte-for-byte (golden file) and must contain the A⇄B
//!    cycle; the clean Figure-1 trace must report zero findings.
//! 3. The tracer's drop counter under a tight buffer cap is itself
//!    deterministic: same run, same cap ⇒ same `trace.dropped`.

mod common;

use dmt_analysis::predict_races;
use dmt_bench::{contention_experiment, contention_json, ContentionGrid};
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::fig1;
use dmt_workload::inversion::{self, InversionParams};

#[test]
fn contention_json_is_byte_identical_and_autopilot_matches_somewhere() {
    let g = ContentionGrid::quick();
    let reference_report = contention_experiment(&g, 1);
    let reference = contention_json(&g, &reference_report);
    let (profiles, autopilot) = (
        reference_report.profiles.table(),
        reference_report.autopilot.table(),
    );
    common::assert_digests(
        &[
            ("json", &reference),
            ("profiles text", &profiles.to_string()),
            ("profiles csv", &profiles.to_csv()),
            ("autopilot text", &autopilot.to_string()),
            ("autopilot csv", &autopilot.to_csv()),
            ("folded", &reference_report.folded),
        ],
        &[
            0x8c0d_d8bd_d240_5eba,
            0xa0de_e2ba_7811_7102,
            0x7256_4db5_e075_c27e,
            0x930d_e361_2258_cb97,
            0x9716_0010_81a3_ad17,
            0xf869_e4a9_4155_fffa,
        ],
    );
    for threads in [2, 8] {
        let j = contention_json(&g, &contention_experiment(&g, threads));
        assert_eq!(reference, j, "{threads}-worker sweep diverged from serial");
    }
    let again = contention_json(&g, &contention_experiment(&g, 1));
    assert_eq!(reference, again, "rerun diverged");
    // The acceptance claim: the probe-driven pick beats or matches the
    // best static scheduler on at least one grid cell.
    assert!(
        reference_report.autopilot.iter().any(|r| r.flag("matched")),
        "autopilot matched nowhere: {:?}",
        reference_report
            .autopilot
            .iter()
            .map(|r| (r.f64("offered_rps"), r.kind("recommended"), r.kind("best")))
            .collect::<Vec<_>>()
    );
}

fn traced_seq(pair: &dmt_workload::ScenarioPair, seed: u64) -> RunResult {
    let cfg = EngineConfig::new(SchedulerKind::Seq)
        .with_seed(seed)
        .with_cpu_jitter(0.05)
        .with_tracing();
    let res = Engine::new(pair.for_kind(SchedulerKind::Seq), cfg).run();
    assert!(!res.deadlocked);
    res
}

#[test]
fn race_prediction_report_matches_golden_and_clean_run_is_silent() {
    // The positive control: the seeded inversion, traced under SEQ
    // (benign serial execution), must yield the A⇄B cycle. Regenerate
    // with `BLESS=1 cargo test -p dmt-bench race_prediction_report`.
    let pair = inversion::scenario(&InversionParams::default());
    let res = traced_seq(&pair, 5);
    let report = predict_races(&res.trace_records, 0);
    assert!(report.findings() > 0, "inversion cycle not flagged");
    let got = report.render();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/racepred_inversion.txt"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    assert_eq!(got, want, "race-prediction report drifted from golden");

    // The negative control: flat locking (fig1 never nests monitors)
    // must produce no lock-order edges and no findings.
    let p = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 2,
        ..fig1::Fig1Params::default()
    };
    let clean = predict_races(&traced_seq(&fig1::scenario(&p), 7).trace_records, 0);
    assert_eq!(clean.findings(), 0, "false positive on clean fig1");
    assert!(clean.edges.is_empty());
    assert!(!clean.sections.is_empty(), "no critical sections folded");
}

#[test]
fn trace_drop_counter_is_deterministic_under_a_tight_cap() {
    let p = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 2,
        ..fig1::Fig1Params::default()
    };
    let run = || {
        let pair = fig1::scenario(&p);
        let cfg = EngineConfig::new(SchedulerKind::Mat)
            .with_seed(7)
            .with_trace_cap(64);
        Engine::new(pair.for_kind(SchedulerKind::Mat), cfg).run()
    };
    let a = run();
    let b = run();
    let dropped = |r: &RunResult| r.metrics.counter("trace.dropped").unwrap_or(0);
    let recorded = |r: &RunResult| r.metrics.counter("trace.recorded").unwrap_or(0);
    assert_eq!(recorded(&a), 64, "cap not honoured");
    assert!(dropped(&a) > 0, "cap too loose to exercise dropping");
    assert_eq!(dropped(&a), dropped(&b), "drop counter not deterministic");
    assert_eq!(recorded(&a), recorded(&b));
    assert_eq!(a.trace_records.len(), 64);
}
