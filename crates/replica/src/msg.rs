//! Message types flowing through the total-order layer, and the scenario
//! description the engine executes.

use dmt_core::{CtrlMsg, ReplicaId, ThreadId};
use dmt_lang::{CompiledObject, MethodIdx, RequestArgs};
use std::sync::Arc;

/// Identifies one client request end-to-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RequestId {
    pub client: u32,
    pub req_no: u32,
}

/// Payloads ordered by the group communication system. Plain data: a
/// client request travels by id, and each replica reads its arguments
/// from the scenario's shared client table on delivery, so fanning a
/// message out to every replica copies a few words.
#[derive(Clone, Copy, Debug)]
pub enum GcMsg {
    /// A client request (or a PDS filler dummy, whose arguments are
    /// empty).
    Request {
        id: RequestId,
        method: MethodIdx,
        dummy: bool,
    },
    /// The designated invoker's broadcast of a nested-invocation reply.
    /// `call_no` is the per-thread nested-call counter the reply answers.
    NestedReply { tid: ThreadId, call_no: u32 },
    /// Scheduler control traffic (LSA leader announcements).
    Ctrl { from: ReplicaId, msg: CtrlMsg },
}

/// One client's scripted request sequence.
///
/// Two client models share this type:
///
/// * **closed loop** (`arrivals == None`, the paper's §3.5 setting) —
///   the next request is sent when the previous reply arrives, so the
///   offered load self-throttles to the system's speed;
/// * **open loop** (`arrivals == Some(schedule)`) — request `k` is
///   handed to the total-order layer at `schedule[k]` of virtual time
///   regardless of earlier replies, so queueing delay becomes visible
///   when the offered rate approaches the service capacity.
#[derive(Clone, Debug)]
pub struct ClientScript {
    pub requests: Vec<(MethodIdx, RequestArgs)>,
    /// Open-loop submission instants (one per request, non-decreasing);
    /// `None` selects the closed-loop model.
    pub arrivals: Option<Vec<dmt_sim::SimTime>>,
}

impl ClientScript {
    /// A closed-loop script from explicit `(method, args)` pairs.
    pub fn closed(requests: Vec<(MethodIdx, RequestArgs)>) -> Self {
        ClientScript {
            requests,
            arrivals: None,
        }
    }

    pub fn repeated(method: MethodIdx, args: Vec<RequestArgs>) -> Self {
        Self::closed(args.into_iter().map(|a| (method, a)).collect())
    }

    /// An open-loop script: request `k` is submitted at `arrivals[k]`.
    /// Panics unless the schedule has exactly one instant per request.
    pub fn open_loop(
        requests: Vec<(MethodIdx, RequestArgs)>,
        arrivals: Vec<dmt_sim::SimTime>,
    ) -> Self {
        assert_eq!(
            requests.len(),
            arrivals.len(),
            "open-loop schedule must cover every request"
        );
        ClientScript {
            requests,
            arrivals: Some(arrivals),
        }
    }

    /// True if this client submits on a schedule instead of reply-to-send.
    pub fn is_open_loop(&self) -> bool {
        self.arrivals.is_some()
    }
}

/// Everything the engine needs to run one experiment. Every part is
/// shared and immutable, so cloning a scenario — one per variant, kind,
/// job or sweep cell — bumps refcounts and copies no client script.
#[derive(Clone)]
pub struct Scenario {
    pub program: Arc<CompiledObject>,
    /// Static lock table (from dmt-analysis) for prediction-aware
    /// schedulers; pessimistic ones ignore it.
    pub lock_table: Arc<dmt_core::LockTable>,
    /// The client table: built once per workload and read by every
    /// engine that runs it (the plain and the analysed variant share
    /// one). Requests are named by `(client, req_no)` into it.
    pub clients: Arc<[ClientScript]>,
    /// Zero-arg no-op method used for PDS dummies.
    pub dummy_method: Option<MethodIdx>,
}

impl Scenario {
    pub fn new(program: Arc<CompiledObject>, clients: Vec<ClientScript>) -> Self {
        Self::with_shared_clients(program, clients.into())
    }

    /// A scenario over an existing client table, shared rather than
    /// copied (see [`Scenario::clients`]).
    pub fn with_shared_clients(program: Arc<CompiledObject>, clients: Arc<[ClientScript]>) -> Self {
        let n = program.methods.len();
        Scenario {
            program,
            lock_table: Arc::new(dmt_core::LockTable::unanalyzed(n)),
            clients,
            dummy_method: None,
        }
    }

    pub fn with_lock_table(mut self, table: Arc<dmt_core::LockTable>) -> Self {
        self.lock_table = table;
        self
    }

    pub fn with_dummy_method(mut self, m: MethodIdx) -> Self {
        self.dummy_method = Some(m);
        self
    }

    pub fn total_requests(&self) -> usize {
        self.clients.iter().map(|c| c.requests.len()).sum()
    }

    /// The dense id of the object's `this` monitor (see [`this_mutex`]).
    pub fn this_mutex(&self) -> dmt_lang::MutexId {
        let args = self.clients.iter().flat_map(|c| &c.requests);
        this_mutex(&self.program, args.map(|(_, a)| a))
    }
}

/// The dense id of an object's `this` monitor: one past every mutex the
/// program names statically or a request argument carries. Keeping the
/// whole mutex id space contiguous from 0 lets the monitor layer use slot
/// tables instead of maps (see DESIGN.md, dense-ID invariant).
pub fn this_mutex<'a>(
    program: &CompiledObject,
    args: impl IntoIterator<Item = &'a RequestArgs>,
) -> dmt_lang::MutexId {
    let mut bound = program.mutex_bound();
    for v in args.into_iter().flat_map(|a| a.values()) {
        if let dmt_lang::Value::Mutex(m) = v {
            bound = bound.max(m.0 + 1);
        }
    }
    dmt_lang::MutexId::new(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::{compile, ObjectBuilder};

    #[test]
    fn scenario_counts_requests() {
        let mut ob = ObjectBuilder::new("O");
        let m = ob.method("noop", 0);
        let mi = m.done();
        let program = compile::compile(&ob.build());
        let s = Scenario::new(
            program,
            vec![
                ClientScript::repeated(mi, vec![RequestArgs::empty(); 3]),
                ClientScript::repeated(mi, vec![RequestArgs::empty(); 2]),
            ],
        );
        assert_eq!(s.total_requests(), 5);
        assert!(s.dummy_method.is_none());
    }
}
