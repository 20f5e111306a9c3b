//! # dmt-bench — experiment harness
//!
//! One function per experiment in EXPERIMENTS.md; the `figures` binary
//! and the wall-clock benches are thin wrappers. Every function returns
//! structured rows so results can be printed, asserted on, or serialised.
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
pub mod shard;
pub mod table;
pub mod ubench;

pub use contention::{
    autopilot_table, contention_experiment, contention_experiment_with_threads, contention_json,
    contention_table, recommend, AutopilotRow, ContentionGrid, ContentionReport, ProfileRow,
    RaceRow,
};
pub use experiments::*;
pub use faults::{
    faults_experiment, faults_experiment_with_threads, faults_json, faults_table, FaultGrid,
    FaultRow, FaultScenario, FAULT_SCENARIOS,
};
pub use obs::{obs_experiment, obs_experiment_with_threads, obs_json, obs_table, ObsGrid, ObsRow};
pub use openloop::{
    openloop_experiment, openloop_experiment_with_opts, openloop_experiment_with_threads,
    openloop_json, openloop_table, OpenLoopGrid, OpenLoopRow,
};
pub use shard::{
    shard_experiment, shard_json, shard_table, RoutedReport, ShardGrid, ShardReport, ShardWorkerRow,
};
pub use table::Table;
