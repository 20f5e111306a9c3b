//! # dmt-sim — deterministic discrete-event simulation kernel
//!
//! The substrate on which the replicated-object testbed runs. The paper's
//! evaluation was performed on a physical LAN with three replica hosts; we
//! substitute a virtual-time simulation so that every experiment is exactly
//! reproducible (see DESIGN.md §1). The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution,
//! * [`EventQueue`] — a priority queue over virtual time with deterministic
//!   FIFO tie-breaking for simultaneous events, plus a presorted arrival
//!   lane for schedules known before the run (open-loop arrivals) that
//!   merges with the calendar in exact `(time, insertion seq)` order,
//! * [`SplitMix64`] — a small, fully deterministic PRNG (implemented in-tree
//!   so the determinism guarantees are auditable),
//! * [`arrival`] — deterministic open-loop arrival processes:
//!   [`PoissonProcess`] draws exponential inter-arrival gaps from a seeded
//!   stream, in integer virtual nanoseconds, so an offered-load schedule
//!   is a pure function of `(seed, rate)` — no wall clock anywhere; the
//!   [`OnOffProcess`] MMPP-2 variant adds bursty on/off traffic with the
//!   same determinism guarantee,
//! * [`zipf`] — [`ZipfSampler`], deterministic skewed key popularity
//!   (`1/k^s`) with a precomputed CDF and one-RNG-draw sampling,
//! * [`stats`] — streaming statistics used by the benchmark harness:
//!   exact-sample [`Histogram`] and the fixed-bucket log-scale
//!   [`LogHistogram`] (32 linear sub-buckets per power-of-two octave,
//!   ≤ 3.2 % quantisation, integer-only bucketing) whose p50/p95/p99
//!   extraction is reproducible byte-for-byte across reruns and merge
//!   orders.
//!
//! Nothing in this crate knows about schedulers or replicas; it is a plain
//! HPC-style simulation kernel.

pub mod arrival;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod zipf;

pub use arrival::{onoff_schedule, poisson_schedule, OnOffProcess, PoissonProcess};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use stats::{Histogram, LogHistogram};
pub use time::{SimDuration, SimTime};
pub use zipf::ZipfSampler;
