//! One row schema for every experiment's table and JSON artifact.
//!
//! A `Schema` declares each column once: its JSON key, its table header
//! (none for JSON-only columns), how the JSON and the text table print
//! it, and where its value comes from. A value is either read from the
//! run's [`MetricsSnapshot`] by metric name (`Counter`, `Gauge`, or a
//! `Hist` statistic) or is a computed `Cell` — a grid axis, a fault-log
//! aggregate, a contention-profile fold — that the experiment passes to
//! `Schema::row` in column order. [`Rows`] renders the text [`Table`]
//! (and so its CSV) and the JSON `rows` array from the same
//! declaration, and tests read cells back by key ([`Row::u64`] and
//! friends).
//!
//! Adding a column is one line in the schema's `cols`; a metric column
//! needs nothing else, a computed one also its value at the `row` call.

use crate::table::Table;
use dmt_core::SchedulerKind;
use dmt_obs::MetricsSnapshot;

/// One cell's value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    U(u64),
    F(f64),
    B(bool),
    S(&'static str),
    Kind(SchedulerKind),
    /// One number per scheduler: a JSON object keyed by scheduler name.
    PerKind(Vec<(SchedulerKind, u64)>),
    /// No value: the JSON object leaves the key out.
    Absent,
}

/// How a cell is printed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fmt {
    /// Numbers and flags as they are; strings and scheduler names are
    /// quoted in JSON and bare in the table.
    Plain,
    /// A number at this many decimals.
    Fix(usize),
    /// Nanoseconds as milliseconds at three decimals.
    Ms,
    /// A fraction as a whole percentage.
    Pct,
    /// A flag as one of two words: (true, false).
    Flag(&'static str, &'static str),
}

/// A histogram statistic.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stat {
    Count,
    P50,
    P95,
    P99,
    Max,
    Mean,
}

/// Where a column's value comes from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// Computed by the experiment: passed to [`Schema::row`].
    Cell,
    /// A counter of the run's metrics (0 when absent).
    Counter(&'static str),
    /// A gauge of the run's metrics (0 when absent).
    Gauge(&'static str),
    /// A statistic of one of the run's histograms (0 when absent).
    Hist(&'static str, Stat),
}

/// One column: JSON key, table header, JSON and text formats, source.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Col {
    pub key: &'static str,
    pub header: Option<&'static str>,
    pub json: Fmt,
    pub text: Fmt,
    pub src: Src,
}

/// Declares a column (positional, so schemas read as one line each).
pub(crate) const fn col(
    key: &'static str,
    header: Option<&'static str>,
    json: Fmt,
    text: Fmt,
    src: Src,
) -> Col {
    Col {
        key,
        header,
        json,
        text,
        src,
    }
}

/// An experiment's row layout.
#[derive(Debug)]
pub(crate) struct Schema {
    /// The text table's title.
    pub title: &'static str,
    /// Every column, in JSON order.
    pub cols: &'static [Col],
    /// The text table's columns by key, where its order differs from the
    /// JSON order; `None` lists the columns that have a header, in JSON
    /// order.
    pub table: Option<&'static [&'static str]>,
}

impl Schema {
    /// The position of column `key`.
    fn index(&self, key: &str) -> usize {
        self.cols
            .iter()
            .position(|c| c.key == key)
            .unwrap_or_else(|| panic!("unknown column `{key}`"))
    }

    /// Panics on a duplicate key or header, or on an unknown table column
    /// (a table column without a header fails the table's arity check).
    fn check(&self) {
        for (i, c) in self.cols.iter().enumerate() {
            for d in &self.cols[..i] {
                assert!(c.key != d.key, "duplicate column key `{}`", c.key);
                assert!(
                    c.header.is_none() || c.header != d.header,
                    "duplicate column header `{}`",
                    c.header.unwrap_or_default()
                );
            }
        }
        self.table_cols();
    }

    fn table_cols(&self) -> Vec<usize> {
        match self.table {
            Some(keys) => keys.iter().map(|k| self.index(k)).collect(),
            None => (0..self.cols.len())
                .filter(|&i| self.cols[i].header.is_some())
                .collect(),
        }
    }

    /// One row: metric columns read from `m`, computed cells taken from
    /// `cells` in column order.
    pub(crate) fn row(&self, m: &MetricsSnapshot, cells: Vec<Value>) -> Vec<Value> {
        let n_cells = self.cols.iter().filter(|c| matches!(c.src, Src::Cell));
        assert_eq!(cells.len(), n_cells.count(), "row arity mismatch");
        let mut cells = cells.into_iter();
        self.cols
            .iter()
            .map(|c| match c.src {
                Src::Cell => cells.next().expect("counted above"),
                Src::Counter(name) => Value::U(m.counter(name).unwrap_or(0)),
                Src::Gauge(name) => Value::U(m.gauge(name).unwrap_or(0) as u64),
                Src::Hist(name, stat) => match (m.histogram(name), stat) {
                    (None, _) => Value::U(0),
                    (Some(h), Stat::Count) => Value::U(h.count()),
                    (Some(h), Stat::P50) => Value::U(h.p50_ns().unwrap_or(0)),
                    (Some(h), Stat::P95) => Value::U(h.p95_ns().unwrap_or(0)),
                    (Some(h), Stat::P99) => Value::U(h.p99_ns().unwrap_or(0)),
                    (Some(h), Stat::Max) => Value::U(h.max_ns().unwrap_or(0)),
                    (Some(h), Stat::Mean) => Value::F(h.mean_ns()),
                },
            })
            .collect()
    }
}

impl Value {
    fn num(&self) -> f64 {
        match *self {
            Value::U(v) => v as f64,
            Value::F(v) => v,
            _ => panic!("{self:?} is not a number"),
        }
    }

    fn render(&self, fmt: Fmt, json: bool) -> String {
        match (fmt, self) {
            (Fmt::Plain, Value::U(v)) => v.to_string(),
            (Fmt::Plain, Value::B(b)) => b.to_string(),
            (Fmt::Plain, Value::S(s)) if json => format!("\"{s}\""),
            (Fmt::Plain, Value::S(s)) => s.to_string(),
            (Fmt::Plain, Value::Kind(k)) => Value::S(k.name()).render(fmt, json),
            (Fmt::Plain, Value::PerKind(v)) if json => {
                let pairs: Vec<String> = v
                    .iter()
                    .map(|(k, n)| format!("\"{}\": {n}", k.name()))
                    .collect();
                format!("{{{}}}", pairs.join(", "))
            }
            (Fmt::Fix(d), v) => format!("{:.d$}", v.num()),
            (Fmt::Ms, v) => format!("{:.3}", v.num() / 1e6),
            (Fmt::Pct, v) => format!("{:.0}", v.num() * 100.0),
            (Fmt::Flag(yes, no), Value::B(b)) => if *b { yes } else { no }.to_string(),
            (fmt, v) => panic!("cannot print {v:?} as {fmt:?}"),
        }
    }
}

/// An experiment's rows under one schema.
#[derive(Clone, Debug)]
pub struct Rows {
    schema: &'static Schema,
    rows: Vec<Vec<Value>>,
}

impl Rows {
    /// Checks the schema and each row's arity.
    pub(crate) fn new(schema: &'static Schema, rows: Vec<Vec<Value>>) -> Self {
        schema.check();
        for r in &rows {
            assert_eq!(r.len(), schema.cols.len(), "row arity mismatch");
        }
        Rows { schema, rows }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn row(&self, i: usize) -> Row<'_> {
        Row {
            schema: self.schema,
            cells: &self.rows[i],
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The printable table (its CSV is [`Table::to_csv`]).
    pub fn table(&self) -> Table {
        let (cols, idx) = (self.schema.cols, self.schema.table_cols());
        let headers: Vec<&str> = idx.iter().filter_map(|&i| cols[i].header).collect();
        let mut t = Table::new(self.schema.title, &headers);
        for r in &self.rows {
            t.push_row(
                idx.iter()
                    .map(|&i| r[i].render(cols[i].text, false))
                    .collect(),
            );
        }
        t
    }

    /// Row `i` as a one-line JSON object.
    pub fn json_object(&self, i: usize) -> String {
        let fields: Vec<String> = (self.schema.cols.iter().zip(&self.rows[i]))
            .filter(|(_, v)| **v != Value::Absent)
            .map(|(c, v)| format!("\"{}\": {}", c.key, v.render(c.json, true)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Every row as a JSON array, one object per line, indented as a
    /// top-level field of a JSON artifact.
    pub fn json_array(&self) -> String {
        let mut j = String::from("[\n");
        for i in 0..self.len() {
            let sep = if i + 1 < self.len() { "," } else { "" };
            j.push_str(&format!("    {}{sep}\n", self.json_object(i)));
        }
        j.push_str("  ]");
        j
    }
}

/// One row, read by column key. Every accessor panics on an unknown key
/// or a value of another type.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    schema: &'static Schema,
    cells: &'a [Value],
}

/// Typed cell accessors, one per value type.
macro_rules! accessors {
    ($($name:ident -> $t:ty = $variant:ident;)*) => {$(
        pub fn $name(&self, key: &str) -> $t {
            match self.get(key) {
                Value::$variant(v) => *v,
                v => panic!("`{key}` is {v:?}, not {}", stringify!($variant)),
            }
        }
    )*};
}

impl<'a> Row<'a> {
    pub fn get(&self, key: &str) -> &'a Value {
        &self.cells[self.schema.index(key)]
    }

    accessors! {
        u64 -> u64 = U;
        f64 -> f64 = F;
        flag -> bool = B;
        str -> &'static str = S;
        kind -> SchedulerKind = Kind;
    }
}

/// A JSON artifact: one top-level field per line, each value already
/// JSON (a quoted string, an object, or a [`Rows::json_array`]).
pub(crate) fn json_doc(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Scheduler names as a JSON array (the grids' `"schedulers"` echo).
pub(crate) fn json_kinds(kinds: &[SchedulerKind]) -> String {
    format!("{:?}", kinds.iter().map(|k| k.name()).collect::<Vec<_>>())
}

/// Metric name of the request-latency histogram.
pub(crate) const LATENCY: &str = "latency.request_ns";

/// Columns that several experiments share, declared once.
#[rustfmt::skip]
pub(crate) mod cols {
    use super::{col, Col, Fmt::*, Src::*};
    //                                       key               header                 json    text   source
    pub(crate) const SCHEDULER: Col   = col("scheduler",      Some("sched"),         Plain,  Plain, Cell);
    pub(crate) const SCENARIO: Col    = col("scenario",       Some("scenario"),      Plain,  Plain, Cell);
    pub(crate) const OFFERED: Col     = col("offered_rps",    Some("offered req/s"), Fix(0), Fix(0), Cell);
    pub(crate) const READ_FRAC: Col   = col("read_fraction",  Some("read %"),        Fix(2), Pct,   Cell);
    pub(crate) const COMPLETED: Col   = col("completed",      Some("done"),          Plain,  Plain, Counter("engine.completed_requests"));
    pub(crate) const MAKESPAN: Col    = col("makespan_ns",    None,                  Plain,  Plain, Gauge("engine.makespan_ns"));
    pub(crate) const SUBMISSIONS: Col = col("submissions",    Some("subs"),          Plain,  Plain, Counter("net.submissions"));
    pub(crate) const LEGS: Col        = col("broadcast_legs", Some("legs"),          Plain,  Plain, Counter("net.broadcast_legs"));
    pub(crate) const DELIVERIES: Col  = col("deliveries",     Some("deliv"),         Plain,  Plain, Counter("net.deliveries"));
    pub(crate) const EDGES: Col       = col("edges",          Some("edges"),         Plain,  Plain, Cell);
}

#[cfg(test)]
mod tests {
    use super::*;
    use Fmt::*;
    use Src::*;

    #[rustfmt::skip]
    static DEMO: Schema = Schema {
        title: "demo",
        cols: &[
            col("n",     Some("n"),   Plain, Plain,        Cell),
            col("frac",  Some("%"),   Fix(2), Pct,         Cell),
            col("ok",    Some("ok"),  Plain, Flag("y", "n"), Cell),
            col("subs",  None,        Plain, Plain,        Counter("net.submissions")),
        ],
        table: Some(&["ok", "n", "frac"]),
    };

    fn demo() -> Rows {
        let m = MetricsSnapshot::default();
        let rows = (0..2)
            .map(|i| DEMO.row(&m, vec![Value::U(i), Value::F(0.5), Value::B(i == 0)]))
            .collect();
        Rows::new(&DEMO, rows)
    }

    #[test]
    fn renders_table_json_and_lookups_from_one_declaration() {
        let rows = demo();
        assert_eq!(rows.table().to_csv(), "ok,n,%\ny,0,50\nn,1,50\n");
        assert_eq!(
            rows.json_array(),
            "[\n    {\"n\": 0, \"frac\": 0.50, \"ok\": true, \"subs\": 0},\n    \
             {\"n\": 1, \"frac\": 0.50, \"ok\": false, \"subs\": 0}\n  ]"
        );
        assert_eq!(rows.row(1).u64("n"), 1);
        assert!(rows.row(0).flag("ok"));
        assert_eq!(
            json_doc(&[("a", "1".into()), ("b", rows.json_array())]),
            format!("{{\n  \"a\": 1,\n  \"b\": {}\n}}\n", rows.json_array())
        );
    }

    /// Each misuse of a schema panics with its own message.
    #[test]
    fn misuse_panics() {
        static DUP_KEY: Schema = Schema {
            title: "dup",
            cols: &[
                col("n", Some("a"), Plain, Plain, Cell),
                col("n", Some("b"), Plain, Plain, Cell),
            ],
            table: None,
        };
        static DUP_HEADER: Schema = Schema {
            title: "dup",
            cols: &[
                col("n", Some("a"), Plain, Plain, Cell),
                col("m", Some("a"), Plain, Plain, Cell),
            ],
            table: None,
        };
        let cases: [(&str, fn()); 5] = [
            ("duplicate column key `n`", || {
                Rows::new(&DUP_KEY, Vec::new());
            }),
            ("duplicate column header `a`", || {
                Rows::new(&DUP_HEADER, Vec::new());
            }),
            ("row arity mismatch", || {
                DEMO.row(&MetricsSnapshot::default(), vec![Value::U(1)]);
            }),
            ("row arity mismatch", || {
                Rows::new(&DEMO, vec![vec![Value::U(1)]]);
            }),
            ("unknown column `nope`", || {
                demo().row(0).u64("nope");
            }),
        ];
        for (want, case) in cases {
            let err = std::panic::catch_unwind(case).expect_err(want);
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains(want), "expected `{want}`, got `{msg}`");
        }
    }
}
