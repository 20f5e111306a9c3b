//! Wall-clock bench for the lock-pattern experiments: one group per
//! slice of the Figure-1 generator, one case per scheduler the figure
//! compares. The measured quantity is host wall-clock of the whole
//! cluster simulation; the *virtual-time* curves come from
//! `cargo run -p dmt-bench --release --bin figures -- fig1|fig2|fig3`.
//! Each slice's virtual-time result is asserted before it is timed, so
//! a scheduler regression fails the bench run, not just the figure.

use dmt_bench::ubench::time_case;
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig};
use dmt_workload::fig1::{self, Fig1Params};
use std::hint::black_box;

/// One slice: its params, the kinds it times, the engine seed and the
/// `(faster, slower)` virtual-time ordering it must show, if any.
struct Slice {
    group: &'static str,
    params: Fig1Params,
    kinds: &'static [SchedulerKind],
    seed: u64,
    beats: Option<(SchedulerKind, SchedulerKind)>,
}

fn main() {
    use SchedulerKind::{Mat, MatLL, Pmat};
    let slices = [
        // The paper's method on a reduced load (4 clients, 2 requests).
        Slice {
            group: "fig1_cluster_sim",
            params: Fig1Params {
                n_clients: 4,
                requests_per_client: 2,
                ..Fig1Params::default()
            },
            kinds: &SchedulerKind::ALL,
            seed: 7,
            beats: None,
        },
        // Last-lock analysis: MAT vs MAT-LL on the reply-building slice.
        Slice {
            group: "fig2_lastlock",
            params: Fig1Params {
                n_clients: 4,
                requests_per_client: 2,
                ..Fig1Params::last_lock()
            },
            kinds: &[Mat, MatLL],
            seed: 3,
            beats: Some((MatLL, Mat)),
        },
        // Lock prediction on disjoint mutex sets.
        Slice {
            group: "fig3_prediction",
            params: Fig1Params {
                n_clients: 6,
                requests_per_client: 2,
                ..Fig1Params::disjoint()
            },
            kinds: &[Mat, MatLL, Pmat],
            seed: 3,
            beats: Some((Pmat, Mat)),
        },
    ];
    for s in &slices {
        let pair = fig1::scenario(&s.params);
        // Sanity: the virtual-time result must hold before we time anything.
        let mean = |kind: SchedulerKind| {
            let cfg = EngineConfig::new(kind).with_seed(s.seed);
            let res = Engine::new(pair.for_kind(kind), cfg).run();
            assert!(!res.deadlocked, "{}: {kind}", s.group);
            res.response_ms().mean()
        };
        for &kind in s.kinds {
            mean(kind);
        }
        if let Some((fast, slow)) = s.beats {
            assert!(mean(fast) < mean(slow), "{}: {fast} vs {slow}", s.group);
        }
        for &kind in s.kinds {
            let scenario = pair.for_kind(kind);
            time_case(s.group, kind.name(), || {
                let cfg = EngineConfig::new(kind).with_seed(s.seed);
                Engine::new(black_box(scenario.clone()), cfg).run().makespan
            });
        }
    }
}
