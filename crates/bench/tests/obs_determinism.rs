//! The `BENCH_obs.json` byte-identity regression: the queue-depth
//! sweep's serialised output must not depend on how many workers ran
//! the sweep, on dispatch order, or on rerun. Depth percentiles come
//! from integer bucket counts over virtual time; any wall-clock or
//! iteration-order dependence leaking into the artifact fails here. The
//! reference JSON, text table and CSV are also pinned by digest.

mod common;

use dmt_bench::{obs_experiment, obs_json, ObsGrid};

fn grid() -> ObsGrid {
    ObsGrid {
        client_counts: vec![2, 6],
        requests_per_client: 3,
    }
}

#[test]
fn obs_json_is_byte_identical_across_worker_counts_and_reruns() {
    let g = grid();
    let rows = obs_experiment(&g, 1);
    let reference = obs_json(&g, &rows);
    // Sanity: every scheduler × grid point is present.
    assert_eq!(reference.matches("\"scheduler\"").count(), 2 * 7);
    let t = rows.table();
    common::assert_digests(
        &[
            ("json", &reference),
            ("text", &t.to_string()),
            ("csv", &t.to_csv()),
        ],
        &[
            0x9496_4feb_b937_1ef8,
            0xac22_769e_051f_16bc,
            0xd5ff_4599_789d_a4ed,
        ],
    );
    for threads in [2, 8] {
        let j = obs_json(&g, &obs_experiment(&g, threads));
        assert_eq!(reference, j, "{threads}-worker sweep diverged from serial");
    }
    let again = obs_json(&g, &obs_experiment(&g, 1));
    assert_eq!(reference, again, "rerun diverged");
}
