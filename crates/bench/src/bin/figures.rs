//! Regenerates every table and figure of the paper (and the ablations).
//!
//! ```text
//! cargo run -p dmt-bench --release --bin figures -- all
//! cargo run -p dmt-bench --release --bin figures -- fig1 [--quick] [--csv]
//! cargo run -p dmt-bench --release --bin figures -- bench     # BENCH_engine.json
//! cargo run -p dmt-bench --release --bin figures -- openloop  # BENCH_openloop.json
//! cargo run -p dmt-bench --release --bin figures -- faults    # BENCH_faults.json
//! cargo run -p dmt-bench --release --bin figures -- obs       # BENCH_obs.json
//! cargo run -p dmt-bench --release --bin figures -- contention # BENCH_contention.json + .folded
//! cargo run -p dmt-bench --release --bin figures -- shard     # BENCH_shard.json
//! cargo run -p dmt-bench --release --bin figures -- trace --out trace.json [--sched MAT]
//! ```

use dmt_bench::*;
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig};
use dmt_workload::fig1;

/// Quick runs use smoke-test grids, so their JSON must not overwrite
/// the checked-in full-sweep artifacts; they land in `target/` instead.
fn artifact_path(name: &str, quick: bool) -> String {
    if quick {
        let _ = std::fs::create_dir_all("target");
        format!("target/{name}")
    } else {
        name.to_string()
    }
}

/// One traced cluster run exported in Chrome's Trace Event Format —
/// open the file in `chrome://tracing` or Perfetto. Scheduler decisions
/// and group-comm legs appear as instants, request lifecycles as async
/// spans, queue depths as counter tracks.
fn trace_export(out: Option<&str>, sched: Option<&str>, quick: bool) {
    let kind = match sched {
        None => SchedulerKind::Mat,
        Some(s) => SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
            .unwrap_or_else(|| {
                eprintln!("unknown scheduler `{s}`");
                std::process::exit(2);
            }),
    };
    let p = fig1::Fig1Params {
        n_clients: if quick { 3 } else { 6 },
        requests_per_client: if quick { 2 } else { 3 },
        ..fig1::Fig1Params::default()
    };
    let pair = fig1::scenario(&p);
    let cfg = EngineConfig::new(kind).with_seed(7).with_tracing();
    let res = Engine::new(pair.for_kind(kind), cfg).run();
    assert!(!res.deadlocked);
    let json = dmt_obs::chrome_trace_json(&res.trace_records);
    let default_name = format!("TRACE_{}_fig1.json", kind.name().to_lowercase());
    let path = out
        .map(str::to_string)
        .unwrap_or_else(|| artifact_path(&default_name, quick));
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!(
        "wrote {path} ({} records, {} requests) — load in chrome://tracing",
        res.trace_records.len(),
        res.completed_requests
    );
}

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &str = "fig1 fig1x fig2 fig3 fig4 analysis abl-mutexes abl-overhead abl-wan \
                           abl-passive determinism openloop faults obs contention shard trace bench";

/// The smoke-test grid under `--quick`, the published one otherwise.
fn grid<G: Default>(quick: bool, quick_grid: fn() -> G) -> G {
    if quick {
        quick_grid()
    } else {
        G::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--out` and `--sched` take a value; skip it when locating the
    // experiment name.
    let mut what: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut sched: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" | "--sched" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{} needs a value", args[i]);
                    std::process::exit(2);
                };
                match args[i].as_str() {
                    "--out" => out = Some(v.as_str()),
                    _ => sched = Some(v.as_str()),
                }
                i += 2;
            }
            s if !s.starts_with("--") => {
                what = what.or(Some(s));
                i += 1;
            }
            _ => i += 1,
        }
    }
    let what = what.unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");

    let client_counts: Vec<usize> = if quick {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 2, 4, 8, 16, 24, 32]
    };
    let requests = if quick { 2 } else { 4 };

    let threads = sweep_threads();

    // Prints each table (or its CSV) and writes each artifact.
    let emit = |tables: &[Table], artifacts: &[(&str, &str)]| {
        for t in tables {
            if csv {
                println!("# {}", t.title);
                print!("{}", t.to_csv());
            } else {
                println!("{t}");
            }
        }
        for (name, body) in artifacts {
            let path = artifact_path(name, quick);
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    };
    let fig1 = |kinds: &[SchedulerKind]| fig1_experiment(&client_counts, requests, kinds, threads);

    let run_one = |name: &str| match name {
        "fig1" => emit(&[fig1(&FIG1_KINDS)], &[]),
        "fig1x" => emit(&[fig1(&ALL_KINDS)], &[]),
        "fig2" => emit(&[fig2_experiment(&[0.0, 1.0, 2.0, 5.0, 10.0])], &[]),
        "fig3" => emit(&[fig3_experiment(&client_counts)], &[]),
        "fig4" => println!("{}", fig4_experiment()),
        "analysis" => println!("{}", analysis_experiment()),
        "abl-mutexes" => emit(&[abl_mutexes_experiment(&[1, 10, 100, 1000])], &[]),
        "abl-overhead" => emit(&[abl_overhead_experiment()], &[]),
        "abl-wan" => emit(&[abl_wan_experiment(&[0, 2, 10, 50])], &[]),
        "abl-passive" => emit(&[abl_passive_experiment()], &[]),
        "determinism" => emit(&[determinism_experiment()], &[]),
        "bench" => {
            let bench = engine_bench_experiment(&client_counts, requests);
            let j = engine_bench_json(&client_counts, requests, quick, &bench);
            println!("{j}");
            emit(&[], &[("BENCH_engine.json", &j)]);
        }
        "openloop" => {
            let g = grid(quick, OpenLoopGrid::quick);
            let rows = openloop_experiment(&g, threads);
            emit(
                &[rows.table()],
                &[("BENCH_openloop.json", &openloop_json(&g, &rows))],
            );
        }
        "faults" => {
            let g = grid(quick, FaultGrid::quick);
            let rows = faults_experiment(&g, threads);
            emit(
                &[rows.table()],
                &[("BENCH_faults.json", &faults_json(&g, &rows))],
            );
        }
        "obs" => {
            let g = grid(quick, ObsGrid::quick);
            let rows = obs_experiment(&g, threads);
            emit(&[rows.table()], &[("BENCH_obs.json", &obs_json(&g, &rows))]);
        }
        "contention" => {
            let g = grid(quick, ContentionGrid::quick);
            let r = contention_experiment(&g, threads);
            emit(
                &[r.profiles.table(), r.autopilot.table()],
                &[
                    ("BENCH_contention.json", &contention_json(&g, &r)),
                    // Collapsed stacks for any flamegraph.pl-compatible renderer.
                    ("CONTENTION_mat_openloop.folded", &r.folded),
                ],
            );
        }
        "shard" => {
            let g = grid(quick, ShardGrid::quick);
            let r = shard_experiment(&g);
            emit(
                &[shard_table(&r)],
                &[("BENCH_shard.json", &shard_json(&g, &r))],
            );
            // Host time stays out of the artifact: it is the one measure
            // of intra-run worker speedup, so it goes to stderr.
            for w in &r.rows {
                eprintln!(
                    "shard workers {}: wall {:.1} ms, merge {:.2} ms",
                    w.workers, w.wall_ms, w.merge_ms
                );
            }
        }
        "trace" => trace_export(out, sched, quick),
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("known: {EXPERIMENTS} all");
            std::process::exit(2);
        }
    };

    if what == "all" {
        for name in EXPERIMENTS.split_whitespace() {
            run_one(name);
            println!();
        }
    } else {
        run_one(what);
    }
}
