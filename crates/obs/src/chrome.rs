//! Chrome-trace (`chrome://tracing` / Perfetto) JSON exporter.
//!
//! Serialises a recorded trace to the Trace Event Format JSON array:
//! scheduler decisions and group-comm legs become instant events
//! (`"ph":"i"`), request lifecycles become async begin/end pairs
//! (`"ph":"b"/"e"` keyed by thread id), and each replica's queue depth
//! becomes a counter track (`"ph":"C"`, one series per parked phase),
//! so what each scheduler serialises is plotted over virtual time. The
//! counters are the [`crate::depth`] fold of the same records: one
//! event per instant the parked population changes, placed after the
//! records of that instant. Timestamps are virtual nanoseconds divided
//! into the format's microsecond unit with three decimals — pure integer
//! math, so the output is byte-stable.
//!
//! The JSON is hand-rolled like dmt-bench's artifacts: the workspace
//! intentionally has no external dependencies.

use crate::depth::{depth_points, DepthPoint, PHASES};
use crate::trace::{TraceEvent, TraceRecord};
use dmt_core::Decision;
use std::collections::BTreeSet;
use std::fmt::Write;

/// `pid` used for cluster-level records (sequencer leg, client side).
const CLUSTER_PID: i64 = -1;

fn pid_of(replica: u32) -> i64 {
    if replica == TraceRecord::NO_REPLICA {
        CLUSTER_PID
    } else {
        replica as i64
    }
}

/// ns → "µs with 3 decimals", integer math only.
fn ts(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

fn decision_args(d: &Decision) -> String {
    match *d {
        Decision::Admit { tid }
        | Decision::AdmitDefer { tid }
        | Decision::ResumeDefer { tid }
        | Decision::Resume { tid } => {
            format!("{{\"tid\":{}}}", tid.index())
        }
        Decision::Grant {
            tid,
            mutex,
            from_wait,
        } => format!(
            "{{\"tid\":{},\"mutex\":{},\"from_wait\":{}}}",
            tid.index(),
            mutex.index(),
            from_wait
        ),
        Decision::Defer { tid, mutex, reason } => format!(
            "{{\"tid\":{},\"mutex\":{},\"reason\":\"{}\"}}",
            tid.index(),
            mutex.index(),
            reason.name()
        ),
        Decision::Predict {
            tid,
            mutex,
            granted,
        } => format!(
            "{{\"tid\":{},\"mutex\":{},\"granted\":{}}}",
            tid.index(),
            mutex.index(),
            granted
        ),
        Decision::TokenGrant { tid } => format!("{{\"tid\":{}}}", tid.index()),
        Decision::TokenRelease { tid, last_lock } => {
            format!("{{\"tid\":{},\"last_lock\":{}}}", tid.index(), last_lock)
        }
        Decision::Announce { tid, mutex, order } => format!(
            "{{\"tid\":{},\"mutex\":{},\"order\":{}}}",
            tid.index(),
            mutex.index(),
            order
        ),
        Decision::RoundStart { pool, dummies } => {
            format!("{{\"pool\":{pool},\"dummies\":{dummies}}}")
        }
    }
}

/// Every replica's parked-population changes, in (time, replica) order:
/// the points where some phase's count moved (and each replica's first).
fn depth_counters(records: &[TraceRecord]) -> Vec<(u32, DepthPoint)> {
    let replicas: BTreeSet<u32> = records
        .iter()
        .map(|r| r.replica)
        .filter(|&r| r != TraceRecord::NO_REPLICA)
        .collect();
    let mut out = Vec::new();
    for replica in replicas {
        let mut prev = None;
        for p in depth_points(records, replica) {
            if prev != Some(p.parked) {
                prev = Some(p.parked);
                out.push((replica, p));
            }
        }
    }
    out.sort_by_key(|&(_, p)| p.t_ns);
    out
}

fn counter_line(replica: u32, p: &DepthPoint) -> String {
    let mut line = format!(
        "{{\"name\":\"queue-depth\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{",
        ts(p.t_ns),
        pid_of(replica)
    );
    for (i, (phase, n)) in PHASES.iter().zip(p.parked).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(line, "{sep}\"{}\":{n}", phase.name());
    }
    line.push_str("}}");
    line
}

/// Exports `records` as a Trace Event Format JSON object.
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(line);
    };
    let counters = depth_counters(records);
    let mut next_counter = counters.iter().peekable();
    for r in records {
        // Counters of earlier instants go before this record.
        while let Some((replica, p)) = next_counter.next_if(|(_, p)| p.t_ns < r.t_ns) {
            push(&mut out, &counter_line(*replica, p));
        }
        let mut line = String::with_capacity(96);
        let pid = pid_of(r.replica);
        match &r.ev {
            TraceEvent::Sched(d) => {
                let _ = write!(
                    line,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"sched\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{}}}",
                    d.name(),
                    ts(r.t_ns),
                    pid,
                    decision_args(d)
                );
            }
            TraceEvent::GcSubmit { source } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"gc-submit\",\"ph\":\"i\",\"s\":\"g\",\"cat\":\"gc\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"source\":{}}}}}",
                    ts(r.t_ns),
                    pid,
                    source
                );
            }
            TraceEvent::GcSequenced { seq } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"gc-sequenced\",\"ph\":\"i\",\"s\":\"g\",\"cat\":\"gc\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"seq\":{}}}}}",
                    ts(r.t_ns),
                    pid,
                    seq
                );
            }
            TraceEvent::GcDeliver { seq } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"gc-deliver\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"gc\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"seq\":{}}}}}",
                    ts(r.t_ns),
                    pid,
                    seq
                );
            }
            TraceEvent::RequestArrived { tid, dummy } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"request\",\"ph\":\"b\",\"cat\":\"req\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"dummy\":{}}}}}",
                    tid.index(),
                    ts(r.t_ns),
                    pid,
                    tid.index(),
                    dummy
                );
            }
            TraceEvent::RequestFinished { tid } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"request\",\"ph\":\"e\",\"cat\":\"req\",\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    tid.index(),
                    ts(r.t_ns),
                    pid,
                    tid.index()
                );
            }
            TraceEvent::RequestReplied { tid } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"reply\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"req\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    ts(r.t_ns),
                    pid,
                    tid.index()
                );
            }
            TraceEvent::ReplicaCrashed => {
                let _ = write!(
                    line,
                    "{{\"name\":\"replica-crashed\",\"ph\":\"i\",\"s\":\"p\",\"cat\":\"fault\",\"ts\":{},\"pid\":{},\"tid\":0}}",
                    ts(r.t_ns),
                    pid
                );
            }
            TraceEvent::ReplicaRecovered { from_seq } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"replica-recovered\",\"ph\":\"i\",\"s\":\"p\",\"cat\":\"fault\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"from_seq\":{}}}}}",
                    ts(r.t_ns),
                    pid,
                    from_seq
                );
            }
            TraceEvent::LeaderFailover { new_leader } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"leader-failover\",\"ph\":\"i\",\"s\":\"p\",\"cat\":\"fault\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"new_leader\":{}}}}}",
                    ts(r.t_ns),
                    pid,
                    new_leader
                );
            }
            TraceEvent::MutexReleased { tid, mutex } => {
                let _ = write!(
                    line,
                    "{{\"name\":\"mutex-released\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"sched\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"tid\":{},\"mutex\":{}}}}}",
                    ts(r.t_ns),
                    pid,
                    tid.index(),
                    mutex.index()
                );
            }
        }
        push(&mut out, &line);
    }
    for (replica, p) in next_counter {
        push(&mut out, &counter_line(*replica, p));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::{DeferReason, ThreadId};
    use dmt_lang::MutexId;

    fn t(v: u32) -> ThreadId {
        ThreadId::new(v)
    }

    #[test]
    fn export_covers_every_event_type_and_is_stable() {
        let records = vec![
            TraceRecord {
                t_ns: 0,
                replica: TraceRecord::NO_REPLICA,
                ev: TraceEvent::GcSubmit { source: 1_000_000 },
            },
            TraceRecord {
                t_ns: 1500,
                replica: TraceRecord::NO_REPLICA,
                ev: TraceEvent::GcSequenced { seq: 0 },
            },
            TraceRecord {
                t_ns: 2750,
                replica: 0,
                ev: TraceEvent::GcDeliver { seq: 0 },
            },
            TraceRecord {
                t_ns: 2750,
                replica: 0,
                ev: TraceEvent::RequestArrived {
                    tid: t(0),
                    dummy: false,
                },
            },
            TraceRecord {
                t_ns: 2750,
                replica: 0,
                ev: TraceEvent::Sched(Decision::Admit { tid: t(0) }),
            },
            TraceRecord {
                t_ns: 3000,
                replica: 0,
                ev: TraceEvent::Sched(Decision::Defer {
                    tid: t(0),
                    mutex: MutexId::new(2),
                    reason: DeferReason::Token,
                }),
            },
            TraceRecord {
                t_ns: 3200,
                replica: 0,
                ev: TraceEvent::Sched(Decision::Grant {
                    tid: t(0),
                    mutex: MutexId::new(2),
                    from_wait: false,
                }),
            },
            TraceRecord {
                t_ns: 4000,
                replica: 0,
                ev: TraceEvent::RequestFinished { tid: t(0) },
            },
            TraceRecord {
                t_ns: 4100,
                replica: 0,
                ev: TraceEvent::RequestReplied { tid: t(0) },
            },
            TraceRecord {
                t_ns: 5000,
                replica: 2,
                ev: TraceEvent::ReplicaCrashed,
            },
            TraceRecord {
                t_ns: 5100,
                replica: 0,
                ev: TraceEvent::LeaderFailover { new_leader: 1 },
            },
            TraceRecord {
                t_ns: 9000,
                replica: 2,
                ev: TraceEvent::ReplicaRecovered { from_seq: 17 },
            },
            TraceRecord {
                t_ns: 9500,
                replica: 0,
                ev: TraceEvent::MutexReleased {
                    tid: t(0),
                    mutex: MutexId::new(2),
                },
            },
        ];
        let a = chrome_trace_json(&records);
        let b = chrome_trace_json(&records);
        assert_eq!(a, b, "export must be deterministic");
        assert!(a.starts_with("{\"traceEvents\":[\n"));
        assert!(a.trim_end().ends_with("]}"));
        // µs timestamps via integer math: 2750 ns → 2.750.
        assert!(a.contains("\"ts\":2.750"), "{a}");
        assert!(a.contains("\"reason\":\"token\""));
        // The token wait [3000, 3200) is the counter track: replica 0's
        // first point, the park and the grant (the finish at 4000 moves
        // no parked count), each after the records of its instant.
        let counter = |ts: &str, gate: u32| {
            format!("{{\"name\":\"queue-depth\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{\"admission\":0,\"gate\":{gate},\"monitor\":0,\"cond_wait\":0}}}}")
        };
        let lines: Vec<&str> = a.lines().map(|l| l.trim_end_matches(',')).collect();
        for (ts, gate, after) in [
            ("2.750", 0, "admit"),
            ("3.000", 1, "defer"),
            ("3.200", 0, "grant"),
        ] {
            let at = lines
                .iter()
                .position(|l| *l == counter(ts, gate))
                .unwrap_or_else(|| panic!("no counter at {ts}: {a}"));
            assert!(
                lines[at - 1].contains(&format!("\"name\":\"{after}\"")),
                "{a}"
            );
        }
        assert_eq!(a.matches("\"ph\":\"C\"").count(), 3, "{a}");
        assert!(
            a.contains("\"pid\":-1"),
            "cluster records use the cluster pid"
        );
        assert!(a.contains("\"name\":\"replica-crashed\""));
        assert!(a.contains("\"from_seq\":17"));
        assert!(a.contains("\"new_leader\":1"));
        assert!(a.contains("\"name\":\"mutex-released\""));
        // Every record appears as one line, beside the three counters.
        assert_eq!(a.lines().count(), records.len() + 3 + 2);
    }
}
