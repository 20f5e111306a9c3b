//! Wall-clock bench for the Figure-3 experiment (lock prediction on
//! disjoint mutex sets): MAT vs MAT-LL vs PMAT. Asserts the virtual-time
//! win before timing the simulations.

use dmt_bench::ubench::time_case;
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig};
use dmt_workload::fig3;
use std::hint::black_box;

fn main() {
    let params = fig3::Fig3Params {
        n_clients: 6,
        requests_per_client: 2,
        ..Default::default()
    };
    let pair = fig3::scenario(&params);

    let mean = |kind: SchedulerKind| {
        let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
        assert!(!res.deadlocked);
        res.response_ms().mean()
    };
    assert!(mean(SchedulerKind::Pmat) < mean(SchedulerKind::Mat));

    for kind in [
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
    ] {
        let scenario = pair.for_kind(kind);
        time_case("fig3_prediction", kind.name(), || {
            let cfg = EngineConfig::new(kind).with_seed(3);
            Engine::new(black_box(scenario.clone()), cfg).run().makespan
        });
    }
}
