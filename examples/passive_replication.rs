//! Passive replication via deterministic replay (paper §1): a primary
//! records its request log and monitor-grant order; after a "crash" the
//! backup re-executes the log and reaches the primary's exact state —
//! for every scheduler, including the nondeterministic FREE baseline
//! (once recorded, an execution is a deterministic artefact).
//!
//! ```text
//! cargo run --release --example passive_replication
//! ```

use dmt::core::SchedulerKind;
use dmt::lang::compile::compile;
use dmt::replica::{record_primary, replay_on_backup};
use dmt::workload::bank;

fn main() {
    let params = bank::BankParams::default();
    let obj = bank::build_object(&params);
    let program = compile(&obj);
    let requests: Vec<_> = bank::client_scripts(&params)
        .into_iter()
        .flat_map(|c| c.requests)
        .collect();
    let dummy = program.method_by_name("noop");

    println!("{:<8} {:>9} {:>8}  replay", "sched", "requests", "grants");
    for kind in SchedulerKind::ALL {
        let log = record_primary(program.clone(), kind, requests.clone(), dummy);
        let replayed = replay_on_backup(program.clone(), &log);
        let ok = replayed == Ok(log.state_hash);
        let verdict = match replayed {
            _ if ok => "state reproduced ✓".to_string(),
            Ok(_) => "MISMATCH ✗".to_string(),
            Err(e) => format!("{e} ✗"),
        };
        println!(
            "{:<8} {:>9} {:>8}  {}",
            kind.to_string(),
            log.requests.len(),
            log.grants.len(),
            verdict
        );
        assert!(ok, "{kind} replay failed");
    }
}
