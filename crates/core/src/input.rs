//! A replica's external input: the totally ordered deliveries a
//! deterministic scheduler makes the replica's grants and state a
//! function of.
//!
//! Every host hands its inputs to one function,
//! [`crate::exec::ReplicaExec::deliver`]: the virtual-time engine as the
//! sequencer orders them, the logical harness by its own delivery rule
//! or from a given log, and the real-thread runtime from a given log.
//! A run that records (the harness and the real-thread runtime always,
//! the engine while tracing) hands back the [`InputLog`] it consumed, so
//! one replica's input can be replayed on any host.

use crate::event::CtrlMsg;
use crate::ids::{ReplicaId, ThreadId};
use dmt_lang::{MethodIdx, RequestArgs};

/// A delivered request: method, arguments and the PDS dummy flag.
pub type Request = (MethodIdx, RequestArgs, bool);

/// One delivery. `R` is the request's payload: `()` in an
/// [`InputLog`]'s order (the request itself sits in
/// [`InputLog::requests`]), the request and its host tag on the way into
/// the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input<R = ()> {
    /// A request: it becomes the next thread (request `n` runs as
    /// thread `n`).
    Request(R),
    /// The reply to `tid`'s nested call `call_no`.
    Reply { tid: ThreadId, call_no: u32 },
    /// A control message `from` a replica's scheduler (an LSA grant).
    Control { from: ReplicaId, msg: CtrlMsg },
}

impl<R> Input<R> {
    /// The same delivery with the request's payload mapped by `f`.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> Input<S> {
        match self {
            Input::Request(r) => Input::Request(f(r)),
            Input::Reply { tid, call_no } => Input::Reply { tid, call_no },
            Input::Control { from, msg } => Input::Control { from, msg },
        }
    }
}

/// A replica's input in delivery order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InputLog {
    /// The requests in delivery order: thread `n` ran entry `n`.
    pub requests: Vec<Request>,
    /// Every delivery in order; each [`Input::Request`] takes the next
    /// entry of [`Self::requests`].
    pub order: Vec<Input>,
}

impl InputLog {
    /// Appends one delivery.
    pub fn push(&mut self, input: Input<Request>) {
        self.order.push(input.map(|r| self.requests.push(r)));
    }

    /// The deliveries in order, each request with its entry. A request
    /// entry past the end of [`Self::requests`] ends the log.
    pub fn iter(&self) -> impl Iterator<Item = Input<&Request>> + '_ {
        let mut requests = self.requests.iter();
        (self.order.iter()).map_while(move |&input| match input {
            Input::Request(()) => requests.next().map(Input::Request),
            Input::Reply { tid, call_no } => Some(Input::Reply { tid, call_no }),
            Input::Control { from, msg } => Some(Input::Control { from, msg }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::Value;

    #[test]
    fn a_log_iterates_its_requests_in_place() {
        let req = |v| (MethodIdx::new(0), RequestArgs::new(&[Value::Int(v)]), false);
        let reply = Input::Reply {
            tid: ThreadId::new(0),
            call_no: 1,
        };
        let mut log = InputLog::default();
        log.push(Input::Request(req(1)));
        log.push(reply.clone());
        log.push(Input::Request(req(2)));
        assert_eq!(log.order.len(), 3);
        assert_eq!(log.requests, vec![req(1), req(2)]);
        let got: Vec<_> = log.iter().map(|i| i.map(Clone::clone)).collect();
        assert_eq!(
            got,
            vec![Input::Request(req(1)), reply, Input::Request(req(2))]
        );
        // One request entry more than there are requests: the log ends.
        log.order.push(Input::Request(()));
        assert_eq!(log.iter().count(), 3);
    }
}
