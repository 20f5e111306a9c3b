//! # dmt — deterministic multithreading strategies for replicated objects
//!
//! A Rust reproduction of *"Revisiting Deterministic Multithreading
//! Strategies"* (Domaschka, Schmied, Reiser, Hauck — Ulm University,
//! IEEE IPDPS Workshops 2007): the surveyed deterministic schedulers
//! (SEQ, SAT, LSA, PDS, MAT), the proposed static-analysis-driven
//! extensions (last-lock MAT, predicted MAT), and everything they need
//! to run — an object-method language and interpreter, a static lock
//! analyser with code injection, total-order group communication, a
//! virtual-time replication engine with a determinism checker, and a
//! real-thread runtime.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | dmt-sim | discrete-event kernel, RNG, statistics |
//! | [`lang`] | dmt-lang | object-method AST, bytecode, interpreter |
//! | [`analysis`] | dmt-analysis | lock analysis + `lockInfo`/`ignore` injection |
//! | [`core`] | dmt-core | the schedulers and the bookkeeping module |
//! | [`obs`] | dmt-obs | bounded trace buffer, contention profiles, metrics, exporters |
//! | [`groupcomm`] | dmt-groupcomm | total-order broadcast simulation |
//! | [`replica`] | dmt-replica | cluster engine, determinism checker, replay |
//! | [`workload`] | dmt-workload | the paper's benchmark + domain scenarios |
//! | [`rt`] | dmt-rt | deterministic scheduling of real OS threads |
//!
//! ## Quickstart
//!
//! ```
//! use dmt::core::SchedulerKind;
//! use dmt::replica::{Engine, EngineConfig};
//! use dmt::workload::fig1;
//!
//! let params = fig1::Fig1Params { n_clients: 2, requests_per_client: 1, ..Default::default() };
//! let scenario = fig1::scenario(&params);
//! let res = Engine::new(
//!     scenario.for_kind(SchedulerKind::Mat),
//!     EngineConfig::new(SchedulerKind::Mat),
//! )
//! .run();
//! assert!(!res.deadlocked);
//! assert_eq!(res.completed_requests, 2);
//! // All three replicas reached the same state.
//! assert_eq!(res.traces[0].state_hash, res.traces[1].state_hash);
//! ```

pub use dmt_analysis as analysis;
pub use dmt_core as core;
pub use dmt_groupcomm as groupcomm;
pub use dmt_lang as lang;
pub use dmt_obs as obs;
pub use dmt_replica as replica;
pub use dmt_rt as rt;
pub use dmt_sim as sim;
pub use dmt_workload as workload;
