//! A tour of all eight schedulers on the paper's Figure-1 workload:
//! response time, network traffic, dummy overhead, and the determinism
//! verdict side by side.
//!
//! ```text
//! cargo run --release --example scheduler_tour
//! ```

use dmt::core::SchedulerKind;
use dmt::replica::{check_determinism, CheckOutcome};
use dmt::workload::fig1;

fn main() {
    let params = fig1::Fig1Params {
        n_clients: 6,
        requests_per_client: 3,
        mutexes: fig1::Mutexes::Pool(20),
        ..Default::default()
    };
    let pair = fig1::scenario(&params);

    println!(
        "{:<8} {:>10} {:>10} {:>9} {:>8} {:>8}  verdict",
        "sched", "mean (ms)", "p95 (ms)", "net legs", "dummies", "ctrl"
    );
    for kind in SchedulerKind::ALL {
        let (res, outcome) = check_determinism(pair.for_kind(kind), kind, 7, 0.25);
        let mut rt = res.response_ms();
        let verdict = match outcome {
            CheckOutcome::Converged => "converged".to_string(),
            CheckOutcome::Diverged { pair, .. } => format!("DIVERGED {pair:?}"),
            CheckOutcome::Stalled => "stalled".to_string(),
        };
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>9} {:>8} {:>8}  {}",
            kind.to_string(),
            rt.mean(),
            rt.percentile(95.0),
            res.net_legs(),
            res.dummy_requests,
            res.ctrl_messages,
            verdict,
        );
    }
    println!(
        "\nNote: FREE is the negative control — it is *expected* to diverge.\n\
         SEQ and SAT (single active thread) must match the global grant\n\
         order; every concurrent algorithm is compared per mutex — the\n\
         guarantee the original papers state, and all that properly\n\
         synchronised state can observe."
    );
}
