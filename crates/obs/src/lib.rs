//! dmt-obs — the unified observability layer.
//!
//! Four concerns, one crate (DESIGN.md §9):
//!
//! * [`registry`] — a metrics registry with dense integer handles for
//!   named counters, gauges, and [`dmt_sim::LogHistogram`]s, plus a
//!   stable, name-sorted [`MetricsSnapshot`] that merges commutatively.
//!   The engine routes its host-side perf counters, the group-comm
//!   traffic counters, and the per-request latency histogram through it,
//!   so every run exports one uniform `name → value` view.
//! * [`trace`] — a structured trace recorder: a bounded buffer of typed
//!   [`TraceRecord`]s (scheduler decisions, request lifecycle,
//!   group-comm legs, queue-depth samples, mutex releases) stamped with
//!   virtual-ns time and replica. Disabled tracing is one predictable
//!   branch and zero allocations: the record closure is never called and
//!   the buffer capacity stays 0 (asserted by tests here and guarded
//!   against the pinned ns/event baseline in dmt-bench). Enabled
//!   tracing is bounded too: the buffer stops at its cap and counts
//!   what it drops.
//! * [`profile`] — folds one replica's Defer/Grant/Release stream into
//!   a per-mutex contention profile (defer counts by reason, wait/hold
//!   histograms, waits-for edges) with a flamegraph-style collapsed
//!   rendering.
//! * [`chrome`] — exports a trace to the Chrome `chrome://tracing` /
//!   Perfetto JSON array format for interactive inspection.
//!
//! The crate depends only on dmt-core (decision/depth types) and dmt-sim
//! (histograms, virtual time); schedulers and the simulator never depend
//! on it, so the observer cannot perturb the observed.

pub mod chrome;
pub mod merge;
pub mod profile;
pub mod registry;
pub mod trace;

pub use chrome::chrome_trace_json;
pub use merge::merge_group_traces;
pub use profile::{ContentionProfile, LockEdge, MutexProfile, DEFER_REASONS};
pub use registry::{CounterId, GaugeId, HistId, MetricsRegistry, MetricsSnapshot};
pub use trace::{TraceEvent, TraceRecord, Tracer, DEFAULT_TRACE_CAP};
