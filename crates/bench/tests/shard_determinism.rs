//! Partition-independence guard for the sharded engine: every sweep
//! artifact must be byte-identical whatever the intra-run shard worker
//! count, and whatever the sweep worker count — separately and
//! combined. Sweep workers parallelise across independent grid cells;
//! shard workers parallelise *inside* one cluster run; neither may leak
//! into the output bytes.

use dmt_bench::{
    fig1_experiment, openloop_experiment, openloop_json, shard_experiment, shard_json,
    OpenLoopGrid, ShardGrid, ALL_KINDS, FIG1_KINDS,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SWEEP_WORKERS: [usize; 3] = [1, 2, 8];

#[test]
fn fig1_table_is_identical_for_every_shard_and_worker_count() {
    let base = fig1_experiment(&[1, 3], 2, &ALL_KINDS, 1, 1).to_string();
    for shards in SHARD_COUNTS {
        for threads in SWEEP_WORKERS {
            let t = fig1_experiment(&[1, 3], 2, &ALL_KINDS, threads, shards).to_string();
            assert_eq!(
                base, t,
                "fig1 diverged at shards={shards}, sweep workers={threads}"
            );
        }
    }
}

#[test]
fn openloop_artifact_is_identical_for_every_shard_and_worker_count() {
    let grid = OpenLoopGrid {
        offered_rps: vec![500.0, 8000.0],
        read_fractions: vec![0.9],
        n_clients: 3,
        requests_per_client: 4,
        kinds: FIG1_KINDS.to_vec(),
    };
    let base = openloop_json(&grid, &openloop_experiment(&grid, 1, 1));
    for shards in SHARD_COUNTS {
        for threads in SWEEP_WORKERS {
            let rows = openloop_experiment(&grid, threads, shards);
            assert_eq!(
                base,
                openloop_json(&grid, &rows),
                "openloop diverged at shards={shards}, sweep workers={threads}"
            );
        }
    }
}

#[test]
fn shard_artifact_is_byte_stable() {
    // A scaled-down BENCH_shard.json: rerunning the experiment — which
    // internally runs every worker count and asserts merged-result
    // identity — must reproduce the artifact exactly.
    let grid = ShardGrid {
        n_clients: 128,
        offered_rps: 1_000.0,
        worker_counts: vec![1, 2, 4, 8],
        ..ShardGrid::quick()
    };
    let a = shard_json(&grid, &shard_experiment(&grid));
    let b = shard_json(&grid, &shard_experiment(&grid));
    assert_eq!(a, b, "BENCH_shard.json is not byte-stable");
    // The deterministic section must really carry the content.
    assert!(a.contains("\"balance_bound\""));
    assert!(a.contains("\"identical_across_worker_counts\": true"));
    assert!(a.contains("\"latency_stream_hash\""));
}
