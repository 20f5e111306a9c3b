//! Replica failure and LSA leader takeover (the paper's §3.5 concern:
//! "In case of a failure this might lead to a high take-over time that
//! does not exist for MAT").
//!
//! Kills one replica mid-run under LSA (the leader) and under MAT (a
//! peer) and compares service continuity.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use dmt::core::SchedulerKind;
use dmt::replica::{Engine, EngineConfig, FaultPlan};
use dmt::sim::SimDuration;
use dmt::workload::fig1;

fn main() {
    let params = fig1::Fig1Params {
        n_clients: 4,
        requests_per_client: 6,
        ..Default::default()
    };
    let pair = fig1::scenario(&params);

    for (label, kind, victim) in [
        ("LSA, leader killed", SchedulerKind::Lsa, 0usize),
        ("LSA, follower killed", SchedulerKind::Lsa, 2),
        ("MAT, peer killed", SchedulerKind::Mat, 0),
    ] {
        let cfg = EngineConfig::new(kind)
            .with_seed(9)
            .with_faults(FaultPlan::new().crash(SimDuration::from_millis(30), victim));
        let res = Engine::new(pair.for_kind(kind), cfg).run();
        println!("== {label}");
        println!("   completed        : {}", res.completed_requests);
        println!("   mean response    : {:.2} ms", res.response_ms().mean());
        println!(
            "   takeover gap     : {}",
            res.takeover_gap
                .map(|g| format!("{g}"))
                .unwrap_or_else(|| "-".into())
        );
        println!("   stalled          : {}", res.deadlocked);
        // Survivors must agree.
        let survivors: Vec<_> = (0..3).filter(|&i| i != victim).collect();
        assert_eq!(
            res.traces[survivors[0]].state_hash, res.traces[survivors[1]].state_hash,
            "{label}: survivors diverged"
        );
        println!("   survivors agree  : ✓");
    }
}
