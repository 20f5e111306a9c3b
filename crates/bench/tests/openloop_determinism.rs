//! The `BENCH_openloop.json` byte-identity regression: the open-loop
//! sweep's serialised output must not depend on how many workers ran
//! the sweep, on dispatch order, or on rerun — for *every* scheduler,
//! including the extended MAT-LL/PMAT series. Any wall-clock value or
//! iteration-order dependence leaking into the artifact fails here. The
//! reference JSON, text table and CSV are also pinned by digest.

mod common;

use dmt_bench::{openloop_experiment, openloop_json, OpenLoopGrid, ALL_KINDS};

fn grid() -> OpenLoopGrid {
    OpenLoopGrid {
        offered_rps: vec![300.0, 5000.0],
        read_fractions: vec![0.5, 1.0],
        n_clients: 4,
        requests_per_client: 5,
        kinds: ALL_KINDS.to_vec(), // all seven schedulers, not just the paper's five
    }
}

#[test]
fn openloop_json_is_byte_identical_across_worker_counts_and_reruns() {
    let g = grid();
    let rows = openloop_experiment(&g, 1, 1);
    let reference = openloop_json(&g, &rows);
    // Sanity: the artifact actually covers every scheduler × grid point.
    assert_eq!(reference.matches("\"scheduler\"").count(), 2 * 2 * 7);
    let t = rows.table();
    common::assert_digests(
        &[
            ("json", &reference),
            ("text", &t.to_string()),
            ("csv", &t.to_csv()),
        ],
        &[
            0x09a1_7420_9d0f_a987,
            0x21fa_0994_df17_b56e,
            0x1130_c1da_803a_8a53,
        ],
    );
    for threads in [2, 8] {
        let j = openloop_json(&g, &openloop_experiment(&g, threads, 1));
        assert_eq!(reference, j, "{threads}-worker sweep diverged from serial");
    }
    // Rerun at the same worker count: same process, fresh engines.
    let again = openloop_json(&g, &openloop_experiment(&g, 1, 1));
    assert_eq!(reference, again, "rerun diverged");
}
