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
//!
//! `--shards N` routes every sweep's cluster runs through the sharded
//! engine with `N` intra-run workers; tables and artifacts are
//! byte-identical for every `N` (that is the point).

use dmt_bench::*;
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig};
use dmt_workload::fig1;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn engine_bench(client_counts: &[usize], requests: usize, quick: bool) {
    let rows = engine_bench_experiment(client_counts, requests);
    let mut total = dmt_replica::PerfCounters::default();
    for r in &rows {
        total.merge(&r.perf);
    }
    let counters = |p: &dmt_replica::PerfCounters| {
        format!(
            "\"events\": {}, \"sched_events\": {}, \"sched_fanout\": {:.4}, \"sched_actions\": {}, \"vm_steps\": {}, \"fused_steps\": {}, \"batched_steps\": {}, \"vm_allocs\": {}, \"vm_reuses\": {}",
            p.events,
            p.sched_events,
            p.sched_fanout(),
            p.sched_actions,
            p.vm_steps,
            p.fused_steps,
            p.batched_steps,
            p.vm_allocs,
            p.vm_reuses,
        )
    };

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"sweep\": {{\"clients\": {client_counts:?}, \"requests_per_client\": {requests}, \"quick\": {quick}}},\n"
    ));
    j.push_str("  \"per_kind\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"kind\": \"{}\", {}}}{}\n",
            json_escape(r.kind.name()),
            counters(&r.perf),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str(&format!(
        "  ],\n  \"total\": {{{}}}\n}}\n",
        counters(&total)
    ));

    let path = artifact_path("BENCH_engine.json", quick);
    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("{j}");
    eprintln!("wrote {path}");
}

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

fn obs_bench(quick: bool, csv: bool) {
    let grid = if quick {
        ObsGrid::quick()
    } else {
        ObsGrid::default()
    };
    let rows = obs_experiment(&grid);
    let t = obs_table(&rows);
    if csv {
        println!("# {}", t.title);
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
    let j = obs_json(&grid, &rows);
    let path = artifact_path("BENCH_obs.json", quick);
    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
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
    let cfg = EngineConfig::new(kind)
        .with_seed(7)
        .with_tracing()
        .with_depth_sampling();
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

fn openloop_bench(quick: bool, csv: bool) {
    let grid = if quick {
        OpenLoopGrid::quick()
    } else {
        OpenLoopGrid::default()
    };
    let rows = openloop_experiment(&grid);
    let t = openloop_table(&rows);
    if csv {
        println!("# {}", t.title);
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
    let j = openloop_json(&grid, &rows);
    let path = artifact_path("BENCH_openloop.json", quick);
    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn faults_bench(quick: bool, csv: bool) {
    let grid = if quick {
        FaultGrid::quick()
    } else {
        FaultGrid::default()
    };
    let rows = faults_experiment(&grid);
    let t = faults_table(&rows);
    if csv {
        println!("# {}", t.title);
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
    let j = faults_json(&grid, &rows);
    let path = artifact_path("BENCH_faults.json", quick);
    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn contention_bench(quick: bool, csv: bool) {
    let grid = if quick {
        ContentionGrid::quick()
    } else {
        ContentionGrid::default()
    };
    let report = contention_experiment(&grid);
    for t in [contention_table(&report), autopilot_table(&report)] {
        if csv {
            println!("# {}", t.title);
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    }
    let j = contention_json(&grid, &report);
    let path = artifact_path("BENCH_contention.json", quick);
    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
    let folded_path = artifact_path("CONTENTION_mat_openloop.folded", quick);
    std::fs::write(&folded_path, &report.folded)
        .unwrap_or_else(|e| panic!("write {folded_path}: {e}"));
    eprintln!(
        "wrote {folded_path} ({} frames) — feed to any flamegraph.pl-compatible renderer",
        report.folded.lines().count()
    );
}

fn shard_bench(quick: bool, csv: bool) {
    let grid = if quick {
        ShardGrid::quick()
    } else {
        ShardGrid::default()
    };
    let report = shard_experiment(&grid);
    let t = shard_table(&report);
    if csv {
        println!("# {}", t.title);
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
    // Host time stays out of the artifact: it is the one measure of
    // intra-run worker speedup, so it goes to stderr.
    for r in &report.rows {
        eprintln!(
            "shard workers {}: wall {:.1} ms, merge {:.2} ms",
            r.workers, r.wall_ms, r.merge_ms
        );
    }
    let j = shard_json(&grid, &report);
    let path = artifact_path("BENCH_shard.json", quick);
    std::fs::write(&path, &j).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--out`, `--sched` and `--shards` take a value; skip it when
    // locating the experiment name.
    let mut what: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut sched: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" | "--sched" | "--shards" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{} needs a value", args[i]);
                    std::process::exit(2);
                };
                match args[i].as_str() {
                    "--out" => out = Some(v.as_str()),
                    "--sched" => sched = Some(v.as_str()),
                    _ => match v.parse::<usize>() {
                        Ok(n) if n >= 1 => set_sweep_shards(n),
                        _ => {
                            eprintln!("--shards needs a positive integer, got `{v}`");
                            std::process::exit(2);
                        }
                    },
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

    let emit = |t: &Table| {
        if csv {
            println!("# {}", t.title);
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    };

    let run_one = |name: &str| match name {
        "fig1" => emit(&fig1_experiment(&client_counts, requests, false)),
        "fig1x" => emit(&fig1_experiment(&client_counts, requests, true)),
        "fig2" => emit(&fig2_experiment(&[0.0, 1.0, 2.0, 5.0, 10.0])),
        "fig3" => emit(&fig3_experiment(&client_counts)),
        "fig4" => println!("{}", fig4_experiment()),
        "analysis" => println!("{}", analysis_experiment()),
        "abl-mutexes" => emit(&abl_mutexes_experiment(&[1, 10, 100, 1000])),
        "abl-overhead" => emit(&abl_overhead_experiment()),
        "abl-wan" => emit(&abl_wan_experiment(&[0, 2, 10, 50])),
        "abl-passive" => emit(&abl_passive_experiment()),
        "determinism" => emit(&determinism_experiment()),
        "bench" => engine_bench(&client_counts, requests, quick),
        "openloop" => openloop_bench(quick, csv),
        "faults" => faults_bench(quick, csv),
        "obs" => obs_bench(quick, csv),
        "contention" => contention_bench(quick, csv),
        "shard" => shard_bench(quick, csv),
        "trace" => trace_export(out, sched, quick),
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "known: fig1 fig1x fig2 fig3 fig4 analysis abl-mutexes \
                 abl-overhead abl-wan abl-passive determinism bench openloop \
                 faults obs contention shard trace all"
            );
            std::process::exit(2);
        }
    };

    if what == "all" {
        for name in [
            "fig1",
            "fig1x",
            "fig2",
            "fig3",
            "fig4",
            "analysis",
            "abl-mutexes",
            "abl-overhead",
            "abl-wan",
            "abl-passive",
            "determinism",
            "openloop",
            "faults",
            "obs",
            "contention",
            "shard",
            "trace",
            "bench",
        ] {
            run_one(name);
            println!();
        }
    } else {
        run_one(what);
    }
}
