//! Metrics registry: named counters, gauges, and log-scale histograms
//! behind dense integer handles.
//!
//! Registration happens once at setup (string lookup, O(n)); the hot
//! path works exclusively through copyable `*Id` handles (Vec index,
//! no hashing — the dense-ID invariant from DESIGN.md applied to
//! metrics). Snapshots are name-sorted so their serialisation is
//! byte-stable regardless of registration order, and merging is
//! commutative: merging per-worker snapshots in any order yields the
//! same result, which the sweep runners rely on for worker-count
//! independence.

use dmt_sim::LogHistogram;

/// Handle of a registered counter (monotone `u64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge (last-write-wins `i64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered [`LogHistogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// The registry: one per engine run.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, LogHistogram)>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| n == name) {
            return HistId(i);
        }
        self.hists.push((name.to_string(), LogHistogram::new()));
        HistId(self.hists.len() - 1)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Sets a counter to an externally accumulated total (used when an
    /// existing subsystem already kept the count, e.g. net stats).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0].1 = v;
    }

    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: i64) {
        self.gauges[id.0].1 = v;
    }

    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        self.hists[id.0].1.record(value);
    }

    /// Name-sorted, self-contained copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = self.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges = self.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms = self.hists.clone();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of a registry, name-sorted. The stable exchange
/// format: runs return it, sweeps merge it, figures serialise it.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, LogHistogram)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Commutative merge: counters add, gauges keep the maximum (the
    /// only order-independent choice for last-write-wins values),
    /// histograms bucket-add. Metrics present on either side survive.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = (*mine).max(*v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_names_deduplicate() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("alpha");
        let b = r.counter("beta");
        assert_ne!(a, b);
        assert_eq!(r.counter("alpha"), a);
        r.inc(a, 2);
        r.inc(a, 3);
        r.inc(b, 1);
        let s = r.snapshot();
        assert_eq!(s.counter("alpha"), Some(5));
        assert_eq!(s.counter("beta"), Some(1));
    }

    #[test]
    fn snapshot_is_name_sorted_regardless_of_registration_order() {
        let mut r = MetricsRegistry::new();
        r.counter("zeta");
        r.counter("alpha");
        let g = r.gauge("mid");
        r.set_gauge(g, -4);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(s.gauge("mid"), Some(-4));
    }

    #[test]
    fn merge_is_commutative() {
        let mk = |seed: u64| {
            let mut r = MetricsRegistry::new();
            let c = r.counter("events");
            r.inc(c, seed);
            let h = r.histogram("lat");
            r.record(h, seed * 100);
            if seed.is_multiple_of(2) {
                let only = r.counter("even-only");
                r.inc(only, 7);
            }
            r.snapshot()
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut cb = c.clone();
        cb.merge(&b);
        cb.merge(&a);
        assert_eq!(ab.counters, cb.counters);
        assert_eq!(ab.gauges, cb.gauges);
        assert_eq!(
            ab.histogram("lat").unwrap().p50_ns(),
            cb.histogram("lat").unwrap().p50_ns()
        );
        assert_eq!(ab.counter("events"), Some(6));
        assert_eq!(ab.counter("even-only"), Some(7));
    }
}
