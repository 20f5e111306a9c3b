//! Wall-clock bench for the instrumentation/bookkeeping overhead question
//! (paper §5: "at which point performance decreases again due to runtime
//! overhead"). Wall-clock is the right meter here: the injected
//! `lockInfo`/`ignore` calls and the syncid-table bookkeeping cost host
//! cycles, not virtual time.

use dmt_bench::ubench::time_case;
use dmt_core::SchedulerKind;
use dmt_replica::{Engine, EngineConfig};
use dmt_workload::fig1;
use std::hint::black_box;

fn main() {
    let params = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 2,
        mutexes: fig1::Mutexes::Pool(1), // fully conflicting: prediction cannot help
        ..Default::default()
    };
    let pair = fig1::scenario(&params);
    let cases: [(&str, SchedulerKind, bool); 4] = [
        ("MAT_plain", SchedulerKind::Mat, false),
        ("MAT_analysed", SchedulerKind::Mat, true),
        ("MATLL_analysed", SchedulerKind::MatLL, true),
        ("PMAT_analysed", SchedulerKind::Pmat, true),
    ];
    for (label, kind, analysed) in cases {
        let scenario = if analysed {
            pair.analysed.clone()
        } else {
            pair.plain.clone()
        };
        time_case("instrumentation_overhead", label, || {
            let cfg = EngineConfig::new(kind).with_seed(5);
            Engine::new(black_box(scenario.clone()), cfg)
                .run()
                .completed_requests
        });
    }
}
