//! Message types flowing through the total-order layer, and the scenario
//! description the engine executes: the program, its lock table and the
//! workload as one flat, read-only [`ClientTable`] (every client's
//! requests in one buffer, its arrivals in another, a client a range of
//! rows), which requests name by `(client, req_no)`.

use dmt_core::{CtrlMsg, ReplicaId, ThreadId};
use dmt_lang::{CompiledObject, MethodIdx, RequestArgs};
use dmt_sim::SimTime;
use std::fmt;
use std::ops::{Deref, Index, Range};
use std::sync::{Arc, OnceLock};

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

/// One scripted request: a method and its pre-drawn arguments.
pub type Request = (MethodIdx, RequestArgs);

/// A run of rows in a shared, immutable buffer: one client's requests or
/// arrival instants inside a [`ClientTable`], or a standalone script's
/// own buffer. It reads as a slice (`Deref`), iterates by reference, and
/// prints and compares exactly as a `Vec` of its rows would, so code
/// written against per-client vectors reads it unchanged.
pub struct Rows<T> {
    buf: Arc<Vec<T>>,
    range: Range<usize>,
}

impl<T> Rows<T> {
    fn new(buf: &Arc<Vec<T>>, range: Range<usize>) -> Self {
        Rows {
            buf: buf.clone(),
            range,
        }
    }
}

impl<T> Clone for Rows<T> {
    fn clone(&self) -> Self {
        Rows::new(&self.buf, self.range.clone())
    }
}

impl<T> From<Vec<T>> for Rows<T> {
    fn from(rows: Vec<T>) -> Self {
        let range = 0..rows.len();
        Rows {
            buf: Arc::new(rows),
            range,
        }
    }
}

impl<T> Deref for Rows<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.range.clone()]
    }
}

impl<'a, T> IntoIterator for &'a Rows<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for Rows<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: PartialEq> PartialEq for Rows<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// One client's scripted request sequence: a view of its rows in a
/// [`ClientTable`], or a standalone script to build a table from.
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
#[derive(Clone, Debug, PartialEq)]
pub struct ClientScript {
    pub requests: Rows<Request>,
    /// Open-loop submission instants (one per request, non-decreasing);
    /// `None` selects the closed-loop model.
    pub arrivals: Option<Rows<SimTime>>,
}

impl ClientScript {
    /// A closed-loop script from explicit `(method, args)` pairs.
    pub fn closed(requests: Vec<Request>) -> Self {
        ClientScript {
            requests: requests.into(),
            arrivals: None,
        }
    }

    pub fn repeated(method: MethodIdx, args: Vec<RequestArgs>) -> Self {
        Self::closed(args.into_iter().map(|a| (method, a)).collect())
    }

    /// An open-loop script: request `k` is submitted at `arrivals[k]`.
    /// Panics unless the schedule has exactly one instant per request.
    pub fn open_loop(requests: Vec<Request>, arrivals: Vec<SimTime>) -> Self {
        assert_eq!(
            requests.len(),
            arrivals.len(),
            "open-loop schedule must cover every request"
        );
        ClientScript {
            requests: requests.into(),
            arrivals: Some(arrivals.into()),
        }
    }

    /// True if this client submits on a schedule instead of reply-to-send.
    pub fn is_open_loop(&self) -> bool {
        self.arrivals.is_some()
    }
}

/// A workload's clients as one read-only table: every client's requests
/// in one buffer, client after client, and (for an open-loop table) the
/// arrival instants in a second buffer row for row. Client `c` owns rows
/// `rows(c)` of both, so a request is found by flat index and a table
/// costs a handful of allocations however many clients it holds.
///
/// A table is all open-loop or all closed-loop. Per-client
/// [`ClientScript`] views ([`ClientTable::iter`], indexing) are built on
/// first use only; the engine and the generators read the flat buffers.
pub struct ClientTable {
    requests: Arc<Vec<Request>>,
    arrivals: Option<Arc<Vec<SimTime>>>,
    /// Client `c`'s rows are `offsets[c]..offsets[c + 1]`.
    offsets: Vec<u32>,
    /// One past the largest mutex id any request argument carries (0 if
    /// none), kept as rows are pushed (see [`this_mutex`]).
    arg_mutex_bound: u32,
    views: OnceLock<Vec<ClientScript>>,
}

impl ClientTable {
    /// An empty table to push clients into: open-loop (every request
    /// needs an arrival instant) or closed-loop. `clients` and `rows`
    /// size the buffers up front.
    pub fn builder(open_loop: bool, clients: usize, rows: usize) -> ClientTableBuilder {
        let mut offsets = Vec::with_capacity(clients + 1);
        offsets.push(0);
        ClientTableBuilder {
            requests: Vec::with_capacity(rows),
            arrivals: open_loop.then(|| Vec::with_capacity(rows)),
            offsets,
            arg_mutex_bound: 0,
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if every client submits on a schedule (see [`ClientScript`]).
    pub fn is_open_loop(&self) -> bool {
        self.arrivals.is_some()
    }

    /// Every client's requests, client after client.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The arrival instants, row for row with [`ClientTable::requests`];
    /// `None` for a closed-loop table.
    pub fn arrivals(&self) -> Option<&[SimTime]> {
        self.arrivals.as_deref().map(Vec::as_slice)
    }

    /// Client `c`'s rows in the flat buffers.
    #[inline]
    pub fn rows(&self, c: usize) -> Range<usize> {
        self.offsets[c] as usize..self.offsets[c + 1] as usize
    }

    /// The flat row of request `req_no` of `client`.
    #[inline]
    pub fn row(&self, client: u32, req_no: u32) -> usize {
        self.offsets[client as usize] as usize + req_no as usize
    }

    /// One past the largest mutex id a request argument carries (0 if
    /// none).
    pub fn arg_mutex_bound(&self) -> u32 {
        self.arg_mutex_bound
    }

    /// Per-client views, in client order (built on first use).
    pub fn iter(&self) -> std::slice::Iter<'_, ClientScript> {
        self.views().iter()
    }

    /// Whether the per-client views have been built. Nothing on the
    /// engine or generator path builds them.
    pub fn views_built(&self) -> bool {
        self.views.get().is_some()
    }

    fn views(&self) -> &[ClientScript] {
        self.views.get_or_init(|| {
            (0..self.len())
                .map(|c| ClientScript {
                    requests: Rows::new(&self.requests, self.rows(c)),
                    arrivals: self.arrivals.as_ref().map(|a| Rows::new(a, self.rows(c))),
                })
                .collect()
        })
    }
}

impl Index<usize> for ClientTable {
    type Output = ClientScript;

    fn index(&self, c: usize) -> &ClientScript {
        &self.views()[c]
    }
}

impl<'a> IntoIterator for &'a ClientTable {
    type Item = &'a ClientScript;
    type IntoIter = std::slice::Iter<'a, ClientScript>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Concatenates standalone scripts into one table. Panics if open-loop
/// and closed-loop scripts are mixed.
impl From<Vec<ClientScript>> for ClientTable {
    fn from(scripts: Vec<ClientScript>) -> Self {
        let open = scripts.first().is_some_and(ClientScript::is_open_loop);
        let rows = scripts.iter().map(|s| s.requests.len()).sum();
        let mut table = ClientTable::builder(open, scripts.len(), rows);
        for s in &scripts {
            assert_eq!(
                s.is_open_loop(),
                open,
                "a client table is all open-loop or all closed-loop"
            );
            for &at in s.arrivals.iter().flatten() {
                table.push_arrival(at);
            }
            table.client(s.requests.iter().cloned());
        }
        table.build()
    }
}

/// Writes a [`ClientTable`] row by row: push a client's requests (and,
/// for an open-loop table, its arrival instants), then
/// [`end_client`](ClientTableBuilder::end_client).
pub struct ClientTableBuilder {
    requests: Vec<Request>,
    arrivals: Option<Vec<SimTime>>,
    offsets: Vec<u32>,
    arg_mutex_bound: u32,
}

impl ClientTableBuilder {
    /// Appends a request to the current client.
    pub fn push(&mut self, method: MethodIdx, args: RequestArgs) {
        self.arg_mutex_bound = self.arg_mutex_bound.max(args_mutex_bound(&args));
        self.requests.push((method, args));
    }

    /// Appends an arrival instant to the current client. Panics on a
    /// closed-loop table.
    pub fn push_arrival(&mut self, at: SimTime) {
        self.arrivals
            .as_mut()
            .expect("a closed-loop table has no arrival schedule")
            .push(at);
    }

    /// Closes the current client: the rows pushed since the last call
    /// are its script. Panics if an open-loop client's schedule does not
    /// have exactly one instant per request.
    pub fn end_client(&mut self) {
        let end = self.requests.len();
        if let Some(arrivals) = &self.arrivals {
            assert_eq!(
                arrivals.len(),
                end,
                "open-loop schedule must cover every request"
            );
        }
        self.offsets
            .push(u32::try_from(end).expect("client table exceeds u32 rows"));
    }

    /// Pushes one client's requests and closes it (an open-loop client's
    /// arrivals go first).
    pub fn client(&mut self, requests: impl IntoIterator<Item = Request>) {
        for (method, args) in requests {
            self.push(method, args);
        }
        self.end_client();
    }

    /// The finished table. Panics if rows were pushed after the last
    /// [`end_client`](ClientTableBuilder::end_client).
    pub fn build(self) -> ClientTable {
        assert_eq!(
            *self.offsets.last().expect("offsets start at 0") as usize,
            self.requests.len(),
            "rows pushed after the last client ended"
        );
        ClientTable {
            requests: Arc::new(self.requests),
            arrivals: self.arrivals.map(Arc::new),
            offsets: self.offsets,
            arg_mutex_bound: self.arg_mutex_bound,
            views: OnceLock::new(),
        }
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
    pub clients: Arc<ClientTable>,
    /// Zero-arg no-op method used for PDS dummies.
    pub dummy_method: Option<MethodIdx>,
}

impl Scenario {
    /// A scenario over standalone scripts, concatenated into one client
    /// table.
    pub fn new(program: Arc<CompiledObject>, clients: Vec<ClientScript>) -> Self {
        Self::with_shared_clients(program, Arc::new(clients.into()))
    }

    /// A scenario over an existing client table, shared rather than
    /// copied (see [`Scenario::clients`]).
    pub fn with_shared_clients(program: Arc<CompiledObject>, clients: Arc<ClientTable>) -> Self {
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
        self.clients.requests().len()
    }

    /// The dense id of the object's `this` monitor (see [`this_mutex`]),
    /// from the bound the client table kept while it was written.
    pub fn this_mutex(&self) -> dmt_lang::MutexId {
        let bound = self.program.mutex_bound();
        dmt_lang::MutexId::new(bound.max(self.clients.arg_mutex_bound()))
    }
}

/// One past the largest mutex id `args` carries (0 if none).
fn args_mutex_bound(args: &RequestArgs) -> u32 {
    let ids = args.values().iter().filter_map(|v| match v {
        dmt_lang::Value::Mutex(m) => Some(m.0 + 1),
        _ => None,
    });
    ids.max().unwrap_or(0)
}

/// The dense id of an object's `this` monitor: one past every mutex the
/// program names statically or a request argument carries. Keeping the
/// whole mutex id space contiguous from 0 lets the monitor layer use slot
/// tables instead of maps (see DESIGN.md, dense-ID invariant).
pub fn this_mutex<'a>(
    program: &CompiledObject,
    args: impl IntoIterator<Item = &'a RequestArgs>,
) -> dmt_lang::MutexId {
    let bound = args.into_iter().map(args_mutex_bound);
    dmt_lang::MutexId::new(bound.fold(program.mutex_bound(), u32::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_lang::{compile, ObjectBuilder, Value};

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

    fn args(values: &[Value]) -> RequestArgs {
        RequestArgs::new(values)
    }

    fn open_scripts() -> Vec<ClientScript> {
        let m = MethodIdx::new(0);
        let at = |ns| SimTime::from_nanos(ns);
        vec![
            ClientScript::open_loop(
                vec![(m, args(&[Value::Int(1)])), (m, RequestArgs::empty())],
                vec![at(5), at(9)],
            ),
            ClientScript::open_loop(Vec::new(), Vec::new()),
            ClientScript::open_loop(vec![(m, args(&[Value::Int(-3)]))], vec![at(2)]),
        ]
    }

    #[test]
    fn a_table_built_from_scripts_reads_them_back() {
        for scripts in [
            open_scripts(),
            vec![ClientScript::repeated(
                MethodIdx::new(1),
                vec![RequestArgs::empty(); 2],
            )],
        ] {
            let table = ClientTable::from(scripts.clone());
            assert!(!table.views_built());
            assert_eq!(table.len(), scripts.len());
            assert_eq!(table.is_open_loop(), scripts[0].is_open_loop());
            let flat: Vec<Request> = scripts.iter().flat_map(|s| s.requests.to_vec()).collect();
            assert_eq!(table.requests(), flat.as_slice());
            let views: Vec<ClientScript> = table.iter().cloned().collect();
            assert!(table.views_built());
            assert_eq!(views, scripts);
            assert_eq!(format!("{views:?}"), format!("{scripts:?}"));
            assert_eq!(format!("{views:#?}"), format!("{scripts:#?}"));
            for (c, s) in scripts.iter().enumerate() {
                assert_eq!(table[c], *s);
                assert_eq!(table.rows(c).len(), s.requests.len());
            }
        }
    }

    /// The pinned workload digests hash the `Debug` rendering of a
    /// client's rows, so a view must print exactly as its `Vec` did.
    #[test]
    fn rows_print_and_compare_as_a_vec() {
        let table = ClientTable::from(open_scripts());
        let mut want = open_scripts()[0].requests.to_vec();
        assert_eq!(format!("{:?}", table[0].requests), format!("{want:?}"));
        let arrivals = vec![SimTime::from_nanos(5), SimTime::from_nanos(9)];
        assert_eq!(
            format!("{:?}", table[0].arrivals),
            format!("{:?}", Some(&arrivals))
        );
        assert_eq!(format!("{:?}", table[1].requests), "[]");
        let iterated: Vec<SimTime> = table
            .iter()
            .filter_map(|c| c.arrivals.as_ref())
            .flatten()
            .copied()
            .collect();
        assert_eq!(iterated, table.arrivals().unwrap());
        want.pop();
        assert_ne!(table[0].requests, Rows::from(want));
    }

    #[test]
    #[should_panic(expected = "all open-loop or all closed-loop")]
    fn a_table_rejects_mixed_client_models() {
        let mut scripts = open_scripts();
        scripts.push(ClientScript::closed(Vec::new()));
        let _ = ClientTable::from(scripts);
    }

    #[test]
    #[should_panic(expected = "no arrival schedule")]
    fn a_closed_table_rejects_arrivals() {
        ClientTable::builder(false, 1, 1).push_arrival(SimTime::ZERO);
    }

    #[test]
    fn this_mutex_counts_mutexes_carried_in_arguments() {
        let mut ob = ObjectBuilder::new("O");
        let mi = ob.method("noop", 1).done();
        let program = compile::compile(&ob.build());
        let m = |id| Value::Mutex(dmt_lang::MutexId::new(id));
        let scripts = vec![
            ClientScript::repeated(mi, vec![args(&[m(4)]), args(&[Value::Int(9)])]),
            ClientScript::repeated(mi, vec![args(&[m(2)])]),
        ];
        let all: Vec<RequestArgs> = scripts
            .iter()
            .flat_map(|s| s.requests.iter().map(|(_, a)| a.clone()))
            .collect();
        let s = Scenario::new(program.clone(), scripts);
        assert_eq!(s.clients.arg_mutex_bound(), 5);
        assert_eq!(s.this_mutex(), this_mutex(&program, &all));
        assert_eq!(
            s.this_mutex(),
            dmt_lang::MutexId::new(program.mutex_bound().max(5))
        );
    }
}
