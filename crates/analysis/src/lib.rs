//! # dmt-analysis — static lock analysis and code injection
//!
//! The second half of the paper (§4): predict each start method's future
//! lock acquisitions by static analysis, and rewrite the method bodies so
//! the scheduler learns, at run time, how the prediction unfolds.
//!
//! The crate mirrors the paper's pipeline (which used the TPL source
//! transformation toolbox on Java; ours works on `dmt-lang` ASTs):
//!
//! * [`callgraph`] — which methods can call which, recursion detection,
//!   multi-call accounting (the §4.4 restrictions and their relaxations),
//! * [`paths`] — execution-path enumeration per start method: every
//!   syncid the flow can pass, with loop/multi-call "repeatable" flags,
//! * [`lockparam`] — classification of each synchronisation parameter
//!   (announceable at entry / after last assignment / spontaneous, §4.2),
//! * [`mod@transform`] — the injection pass: `lockInfo` announcements,
//!   branch and post-loop `ignore`s (Figure 4),
//! * [`table`] — assembly of the static [`dmt_core::LockTable`] the
//!   scheduler's bookkeeping module is initialised with,
//! * [`report`] — analysis statistics for the `tab-analysis` experiment,
//! * [`pretty`] — a printer for original vs. transformed sources (the
//!   Figure 4 golden test renders through it),
//! * [`racepred`] — the *dynamic* counterpart: replays a recorded
//!   Grant/Release trace (`dmt-obs`), rebuilds critical sections and the
//!   lock graph, and predicts deadlock cycles and schedule-sensitive
//!   reorderings a different deterministic schedule could realise.

pub mod callgraph;
pub mod lockparam;
pub mod paths;
pub mod pretty;
pub mod racepred;
pub mod report;
pub mod table;
pub mod transform;

pub use callgraph::CallGraph;
pub use lockparam::{classify, ParamClass};
pub use paths::MethodSummary;
pub use racepred::{predict_races, CriticalSection, RaceReport};
pub use report::{analyze, AnalysisReport};
pub use table::build_lock_table;
pub use transform::transform;
