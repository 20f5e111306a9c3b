//! Runtime values and request arguments.
//!
//! The paper's benchmark makes *clients* responsible for all random
//! decisions, passed as method parameters (§3.5) — that is what keeps the
//! replicas deterministic. `RequestArgs` is that parameter vector: branch
//! flags, durations, mutex references, loop counts.

use crate::ids::MutexId;
use std::fmt;
use std::sync::Arc;

/// A value a client can pass to a start method (or a method can pass on to
/// a callee).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    Int(i64),
    Bool(bool),
    /// A reference to a synchronisation object.
    Mutex(MutexId),
    /// A duration in nanoseconds (used for client-supplied compute times).
    Dur(u64),
}

impl Value {
    pub fn as_int(&self) -> i64 {
        match *self {
            Value::Int(v) => v,
            Value::Bool(b) => b as i64,
            Value::Dur(d) => d as i64,
            Value::Mutex(m) => m.0 as i64,
        }
    }

    pub fn as_bool(&self) -> bool {
        match *self {
            Value::Bool(b) => b,
            Value::Int(v) => v != 0,
            Value::Dur(d) => d != 0,
            Value::Mutex(_) => true,
        }
    }

    /// The mutex this value references. Panics on non-mutex values: passing
    /// a non-reference where a monitor is required is a programme bug, the
    /// moral equivalent of a Java `ClassCastException`.
    pub fn as_mutex(&self) -> MutexId {
        match *self {
            Value::Mutex(m) => m,
            other => panic!("expected mutex reference, got {other:?}"),
        }
    }

    pub fn as_dur_nanos(&self) -> u64 {
        match *self {
            Value::Dur(d) => d,
            Value::Int(v) if v >= 0 => v as u64,
            other => panic!("expected duration, got {other:?}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Mutex(m) => write!(f, "&{m}"),
            Value::Dur(d) => write!(f, "{}ns", d),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<MutexId> for Value {
    fn from(v: MutexId) -> Self {
        Value::Mutex(v)
    }
}

/// The argument vector of one remote method invocation. A client builds
/// it once, in one allocation, and nothing writes it afterwards: the
/// scenario's client table owns it, requests travel through the total
/// order by id, and each replica reads the table's copy when it delivers
/// the request (the `Arc` lets a replica's executor keep it for the
/// thread's life without copying). Empty arguments — every PDS dummy,
/// every zero-arity method — carry no allocation at all: `None` uses the
/// `Arc`'s niche, so the handle stays one pointer wide.
#[derive(Clone, Default, PartialEq)]
pub struct RequestArgs {
    values: Option<Arc<[Value]>>,
}

impl RequestArgs {
    /// Copies `values` into one allocation (none if it is empty).
    pub fn new(values: &[Value]) -> Self {
        RequestArgs {
            values: (!values.is_empty()).then(|| Arc::from(values)),
        }
    }

    pub const fn empty() -> Self {
        RequestArgs { values: None }
    }

    pub fn len(&self) -> usize {
        self.values().len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_none()
    }

    /// Fetches argument `i`. Panics on out-of-range: the analysis guarantees
    /// arity, so a miss is a harness bug worth failing loudly on.
    pub fn get(&self, i: usize) -> Value {
        *self
            .values()
            .get(i)
            .unwrap_or_else(|| panic!("request argument {i} missing (have {})", self.len()))
    }

    pub fn values(&self) -> &[Value] {
        self.values.as_deref().unwrap_or(&[])
    }
}

/// Renders `RequestArgs { values: [..] }`, empty arguments included: the
/// request log's `Debug` form feeds pinned digests, so it must not show
/// the `Option`.
impl fmt::Debug for RequestArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestArgs")
            .field("values", &self.values())
            .finish()
    }
}

impl FromIterator<Value> for RequestArgs {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        let values: Arc<[Value]> = iter.into_iter().collect();
        RequestArgs {
            values: (!values.is_empty()).then_some(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64).as_int(), 5);
        assert!(Value::from(true).as_bool());
        assert!(!Value::Int(0).as_bool());
        assert_eq!(Value::from(MutexId::new(3)).as_mutex(), MutexId::new(3));
        assert_eq!(Value::Dur(1500).as_dur_nanos(), 1500);
        assert_eq!(Value::Int(7).as_dur_nanos(), 7);
    }

    #[test]
    #[should_panic(expected = "expected mutex reference")]
    fn non_mutex_as_mutex_panics() {
        Value::Int(1).as_mutex();
    }

    #[test]
    #[should_panic(expected = "expected duration")]
    fn negative_int_as_duration_panics() {
        Value::Int(-1).as_dur_nanos();
    }

    #[test]
    fn args_get() {
        let args = RequestArgs::new(&[Value::Int(1), Value::Bool(true)]);
        assert_eq!(args.get(0).as_int(), 1);
        assert!(args.get(1).as_bool());
        assert_eq!(args.len(), 2);
    }

    #[test]
    #[should_panic(expected = "request argument 2 missing")]
    fn args_out_of_range_panics() {
        RequestArgs::new(&[Value::Int(1)]).get(2);
    }

    #[test]
    fn args_from_iter() {
        let args: RequestArgs = [Value::Int(1), Value::Int(2)].into_iter().collect();
        assert_eq!(args.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn empty_args_hold_no_allocation() {
        assert_eq!(RequestArgs::new(&[]), RequestArgs::empty());
        assert!(RequestArgs::empty().values.is_none());
        assert!(RequestArgs::empty().values().is_empty());
        let collected: RequestArgs = std::iter::empty().collect();
        assert!(collected.values.is_none());
        assert_eq!(
            std::mem::size_of::<RequestArgs>(),
            std::mem::size_of::<Arc<[Value]>>()
        );
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = RequestArgs::new(&[Value::Int(7)]);
        let b = a.clone();
        assert!(Arc::ptr_eq(
            a.values.as_ref().unwrap(),
            b.values.as_ref().unwrap()
        ));
        assert_eq!(b.get(0).as_int(), 7);
    }
}
