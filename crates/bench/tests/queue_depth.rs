//! The queue-depth fold ([`dmt_obs::QueueDepth`]) on real traces: every
//! deterministic scheduler on the Figure-1 workload, the bounded buffer
//! (wait/notify) and the AB/BA inversion scenario, on every replica.
//!
//! * A thread is in at most one parked phase at a time, and only while
//!   it is live, so at every change point the parked population is at
//!   most `RequestArrived` minus `RequestFinished` on that replica.
//! * The sweep's population integral equals the summed span lengths,
//!   exactly in integer ns, per phase and in total (Little's law over a
//!   closed window).

use dmt_core::SchedulerKind;
use dmt_obs::{depth_points, parked_spans, Phase, QueueDepth, PHASES};
use dmt_replica::{Engine, EngineConfig, RunResult};
use dmt_workload::{buffer, fig1, inversion, ScenarioPair};
use std::collections::BTreeSet;

fn scenarios() -> Vec<(&'static str, ScenarioPair)> {
    vec![
        (
            "fig1",
            fig1::scenario(&fig1::Fig1Params {
                n_clients: 6,
                requests_per_client: 3,
                ..fig1::Fig1Params::default()
            }),
        ),
        (
            "buffer",
            buffer::scenario(&buffer::BufferParams {
                n_producers: 2,
                n_consumers: 3,
                items_per_client: 4,
                ..Default::default()
            }),
        ),
        (
            "inversion",
            inversion::scenario(&inversion::InversionParams::default()),
        ),
    ]
}

fn traced(pair: &ScenarioPair, kind: SchedulerKind) -> RunResult {
    let cfg = EngineConfig::new(kind)
        .with_seed(5)
        .with_cpu_jitter(0.1)
        .with_tracing();
    Engine::new(pair.for_kind(kind), cfg).run()
}

#[test]
fn parked_threads_are_live_and_integrate_to_their_spans() {
    let mut phases_seen = BTreeSet::new();
    for (name, pair) in scenarios() {
        for kind in SchedulerKind::DETERMINISTIC {
            let res = traced(&pair, kind);
            let at = format!("{name} {kind}");
            assert_eq!(res.metrics.counter("trace.dropped"), Some(0), "{at}");
            for replica in 0..res.traces.len() as u32 {
                let at = format!("{at} replica {replica}");
                let spans = parked_spans(&res.trace_records, replica);
                let points = depth_points(&res.trace_records, replica);
                assert!(!points.is_empty(), "{at}: no change point");
                for p in &points {
                    assert!(p.total() <= p.live, "{at}: {p:?}");
                }
                // One phase at a time: a thread's spans never overlap.
                let mut by_thread: Vec<_> = spans
                    .iter()
                    .map(|s| (s.tid, s.start_ns, s.end_ns))
                    .collect();
                by_thread.sort_unstable();
                for w in by_thread.windows(2) {
                    if w[0].0 == w[1].0 {
                        assert!(w[0].2 <= w[1].1, "{at}: overlapping spans {w:?}");
                    }
                }
                let d = QueueDepth::from_points(replica, &points);
                let sum = |f: &dyn Fn(Phase) -> bool| -> u64 {
                    spans
                        .iter()
                        .filter(|s| f(s.phase))
                        .map(|s| s.len_ns())
                        .sum()
                };
                assert_eq!(d.parked.thread_ns, sum(&|_| true), "{at}");
                for phase in PHASES {
                    assert_eq!(
                        d.phase(phase).thread_ns,
                        sum(&|p| p == phase),
                        "{at} {phase:?}"
                    );
                    if d.phase(phase).thread_ns > 0 {
                        phases_seen.insert(phase);
                    }
                }
                assert!(d.parked.max <= d.live.max, "{at}");
                assert_eq!(
                    d,
                    QueueDepth::from_records(&res.trace_records, replica),
                    "{at}"
                );
            }
        }
    }
    assert_eq!(
        phases_seen,
        PHASES.into_iter().collect(),
        "a phase never showed"
    );
}

/// The old depth sampler counted MAT's gated threads twice (gated lock
/// request and token queue) and PMAT's running threads as queued; the
/// fold cannot, so at 24 closed-loop clients no parked figure exceeds
/// the 24 request threads a replica can hold.
#[test]
fn no_scheduler_parks_more_threads_than_clients() {
    let n = 24;
    let pair = fig1::scenario(&fig1::Fig1Params {
        n_clients: n,
        requests_per_client: 2,
        ..fig1::Fig1Params::default()
    });
    for kind in [
        SchedulerKind::Mat,
        SchedulerKind::MatLL,
        SchedulerKind::Pmat,
    ] {
        let res = traced(&pair, kind);
        let d = QueueDepth::from_records(&res.trace_records, 0);
        assert!(d.live.max as usize <= n, "{kind}: {d:?}");
        assert!(d.parked.max <= d.live.max, "{kind}: {d:?}");
    }
}
