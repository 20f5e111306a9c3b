//! The `BENCH_obs.json` byte-identity regression: the queue-depth
//! sweep's serialised output must not depend on how many workers ran
//! the sweep, on dispatch order, or on rerun. The populations are
//! integer folds of virtual-time trace records; any wall-clock or
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
            0xf3b2_e246_a605_c70c,
            0xa467_e259_f28c_13ed,
            0xacd0_ee43_956c_eed6,
        ],
    );
    for threads in [2, 8] {
        let j = obs_json(&g, &obs_experiment(&g, threads));
        assert_eq!(reference, j, "{threads}-worker sweep diverged from serial");
    }
    let again = obs_json(&g, &obs_experiment(&g, 1));
    assert_eq!(reference, again, "rerun diverged");
}
