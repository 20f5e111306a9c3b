//! # dmt-bench — experiment harness
//!
//! One function per experiment in EXPERIMENTS.md; the `figures` binary
//! and the wall-clock benches are thin wrappers. The grid experiments
//! (openloop, obs, faults, contention, the engine bench) return
//! [`Rows`] under a row schema ([`schema`]) that declares each column once —
//! JSON key, table header, formats, and either the metric it reads from
//! the run's metrics snapshot or a computed cell. One renderer writes
//! the text table, its CSV and the JSON `rows` arrays from it, and tests
//! read cells by column key. Each experiment has one public entry point
//! taking the sweep worker count; the Figure-1 and open-loop cells each
//! have one recipe (seeds, jitter) that every experiment built on them
//! shares.
//!
//! Two kinds of numbers come out of this crate, and they must not be
//! confused:
//!
//! * **Virtual-time results** (throughput tables, the [`openloop`]
//!   latency percentiles) are computed entirely inside the
//!   deterministic simulation — client arrivals come from seeded
//!   Poisson schedules ([`dmt_sim::PoissonProcess`]), latencies are
//!   integer virtual nanoseconds aggregated in the fixed-bucket
//!   log-scale histogram ([`dmt_sim::LogHistogram`], ≤3.2 %
//!   quantisation error, percentiles reported at the upper bucket
//!   edge). They are bit-for-bit reproducible: the same grid yields
//!   the same bytes regardless of rerun, host, or how many sweep
//!   workers ([`run_jobs_prioritized`]) executed it, and regression
//!   tests pin exactly that.
//! * **Wall-clock results** time the simulator itself and vary run to
//!   run, so no artifact of this crate carries them. They live in the
//!   `cargo bench` targets and in `perfbench/`, which compares a change
//!   with its parent commit on the same host. `figures bench` reports
//!   only the exact work counters (`BENCH_engine.json`).
//!
//! Parallel sweeps dispatch jobs longest-first but slot results by job
//! index, so parallelism affects wall-clock only, never output bytes.

pub mod contention;
pub mod experiments;
pub mod faults;
pub mod obs;
pub mod openloop;
pub mod schema;
pub mod shard;
pub mod table;
pub mod ubench;

pub use contention::{
    contention_experiment, contention_json, recommend, ContentionGrid, ContentionReport,
};
pub use experiments::*;
pub use faults::{faults_experiment, faults_json, FaultGrid, FaultScenario, FAULT_SCENARIOS};
pub use obs::{obs_experiment, obs_json, ObsGrid};
pub use openloop::{openloop_experiment, openloop_json, OpenLoopGrid};
pub use schema::{Row, Rows, Value};
pub use shard::{
    shard_experiment, shard_json, shard_table, ShardGrid, ShardReport, ShardWorkerRow,
};
pub use table::Table;
