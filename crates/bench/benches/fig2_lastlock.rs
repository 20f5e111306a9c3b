//! Wall-clock bench for the Figure-2 experiment (last-lock analysis):
//! MAT vs MAT-LL on the reply-building workload. Also asserts the
//! virtual-time ordering so a regression in the hand-off logic fails the
//! bench run, not just the figure.

use dmt_bench::ubench::time_case;
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig};
use dmt_workload::fig2;
use std::hint::black_box;

fn main() {
    let params = fig2::Fig2Params {
        n_clients: 4,
        requests_per_client: 2,
        ..Default::default()
    };
    let pair = fig2::scenario(&params);

    // Sanity: the virtual-time result must hold before we time anything.
    let mean = |kind: SchedulerKind| {
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
        assert!(!res.deadlocked);
        res.response_ms().mean()
    };
    assert!(mean(SchedulerKind::MatLL) < mean(SchedulerKind::Mat));

    for kind in [SchedulerKind::Mat, SchedulerKind::MatLL] {
        let scenario = pair.for_kind(kind);
        time_case("fig2_lastlock", kind.name(), || {
            let cfg = EngineConfig::new(kind).with_seed(3);
            Engine::new(black_box(scenario.clone()), cfg).run().makespan
        });
    }
}
