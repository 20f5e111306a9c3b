//! Byte-stability guard for the sharded engine's artifact: rerunning
//! the shard experiment — which itself runs every intra-run worker
//! count and asserts that the merged result is identical across them —
//! must reproduce `BENCH_shard.json` exactly.

use dmt_bench::{shard_experiment, shard_json, ShardGrid};

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
