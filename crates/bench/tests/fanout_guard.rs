//! The scheduler-dispatch fan-out guard: `sched_events / events`
//! ([`dmt_replica::PerfCounters::sched_fanout`]) per scheduler, held
//! under the pins in [`dmt_bench::MAX_SCHED_FANOUT`].
//!
//! Unlike host time per event, this ratio is a quotient of
//! deterministic counters — the same grid always yields the same value,
//! on any host, in any build mode — so it catches the *structural* half
//! of a hot-path regression: a change that grows an extra dispatch leg
//! per event (an admission round trip re-split, a control-message echo,
//! a lost fusion) moves this ratio immediately, even when wall-clock
//! noise would swallow the ns/event cost for weeks.

use dmt_bench::{engine_bench_experiment, MAX_SCHED_FANOUT};

#[test]
fn sched_fanout_stays_under_pins() {
    // One pass of the quick grid is enough: the ratio is deterministic,
    // so there is no noise to take a minimum over.
    let rows = engine_bench_experiment(&[4, 8], 2).per_kind;
    assert_eq!(rows.len(), MAX_SCHED_FANOUT.len());
    for row in rows.iter() {
        let (kind, fanout) = (row.kind("kind"), row.f64("sched_fanout"));
        let (_, pin) = MAX_SCHED_FANOUT
            .iter()
            .find(|(name, _)| *name == kind.name())
            .unwrap_or_else(|| panic!("{kind} has no fan-out pin"));
        assert!(
            fanout <= *pin,
            "{} dispatches {:.4} scheduler events per simulation event, \
             over its {pin} pin — a new dispatch leg grew on the hot path",
            kind,
            fanout,
        );
        // A collapsing ratio is suspicious too (events counted twice,
        // or a scheduler no longer seeing its stream); half the pin is
        // far below anything a legitimate optimisation can reach while
        // the admission/step protocol still round-trips per request.
        assert!(
            fanout > pin * 0.5,
            "{} fan-out {:.4} fell below half its {pin} pin — \
             are scheduler events still being dispatched?",
            kind,
            fanout,
        );
    }
}
