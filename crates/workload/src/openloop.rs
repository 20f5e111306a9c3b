//! Open-loop read/write-mix workload (the ROADMAP "workload breadth"
//! item).
//!
//! The paper's only quantitative benchmark (Figure 1) is a *closed
//! loop*: each client submits its next request when the previous reply
//! arrives, so offered load self-throttles and queueing delay never
//! accumulates. That regime hides exactly the admission differences
//! this suite wants to measure — LSA's leader serialises grant
//! decisions while MAT admits concurrently, which only separates when
//! latecomers actually queue. This module provides the missing regime:
//!
//! * a **key-value read/write mix** over `n_mutexes` cells, each cell
//!   guarded by its pool mutex — `get(key)` holds the lock for a short
//!   read, `put(key, val)` holds it longer and updates the cell (an
//!   order-sensitive write, so the determinism checker still bites);
//! * an **open-loop client model**: every client draws a deterministic
//!   arrival schedule — memoryless ([`dmt_sim::PoissonProcess`], the
//!   default) or bursty on/off ([`dmt_sim::OnOffProcess`], via
//!   [`OpenLoopParams::with_bursts`]) — and submits on it, replies or
//!   not, at an aggregate offered rate of `offered_rps` requests per
//!   virtual second. Key popularity is uniform by default or Zipf-skewed
//!   ([`OpenLoopParams::with_zipf`]), concentrating contention on the
//!   hot low-numbered cells.
//!
//! All randomness (operation mix, key choice, write values, arrival
//! gaps) is drawn client-side from split [`SplitMix64`] streams and
//! baked into the scripts, so a scenario is a pure function of its
//! parameters — the property the byte-identical `BENCH_openloop.json`
//! regression rests on. A closed-loop builder over the *same* request
//! mix ([`closed_scenario`]) is included so experiments can price the
//! client model itself.

use crate::ScenarioPair;
use dmt_lang::ast::{DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{ObjectBuilder, RequestArgs, Value};
use dmt_replica::ClientScript;
use dmt_sim::{OnOffProcess, PoissonProcess, SplitMix64, ZipfSampler};

/// How each client times its submissions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalModel {
    /// Memoryless arrivals at the client's share of `offered_rps` — the
    /// smooth baseline the original suite measured.
    Poisson,
    /// MMPP-style on/off bursts ([`dmt_sim::OnOffProcess`]): the client
    /// alternates exponential ON dwells (mean `mean_on_ns`) emitting
    /// arrivals with silent OFF dwells (mean `mean_off_ns`). The ON-phase
    /// rate is scaled by `(mean_on + mean_off) / mean_on`, so the
    /// *time-averaged* offered load still equals `offered_rps` — burst
    /// grids compare against the Poisson baseline at identical load, only
    /// the clumping differs.
    OnOff { mean_on_ns: u64, mean_off_ns: u64 },
}

/// Parameters of the open-loop read/write-mix workload.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopParams {
    pub n_clients: usize,
    pub requests_per_client: usize,
    /// Aggregate offered load across all clients, requests per virtual
    /// second (each client runs an independent arrival stream averaging
    /// `offered_rps / n_clients`).
    pub offered_rps: f64,
    /// Probability that a request is a `get` (the rest are `put`s).
    pub read_fraction: f64,
    /// Number of cells / pool mutexes (keys).
    pub n_mutexes: u32,
    /// Compute before the critical section (request parsing etc.), µs.
    pub pre_us: u64,
    /// Critical-section length of a `get`, µs.
    pub read_us: u64,
    /// Critical-section length of a `put`, µs.
    pub write_us: u64,
    /// Arrival timing model ([`ArrivalModel::Poisson`] by default).
    pub arrival: ArrivalModel,
    /// Zipf exponent for key popularity. `0.0` (default) keeps the
    /// original uniform draw — bit-for-bit, via the same
    /// `next_below` call, so historical schedules are unchanged;
    /// any `s > 0` switches to a [`dmt_sim::ZipfSampler`] favouring
    /// low-numbered keys (still exactly one RNG draw per key).
    pub zipf_s: f64,
    pub seed: u64,
}

impl Default for OpenLoopParams {
    fn default() -> Self {
        OpenLoopParams {
            n_clients: 8,
            requests_per_client: 25,
            offered_rps: 200.0,
            read_fraction: 0.9,
            n_mutexes: 64,
            pre_us: 200,
            read_us: 300,
            write_us: 800,
            arrival: ArrivalModel::Poisson,
            zipf_s: 0.0,
            seed: 42,
        }
    }
}

impl OpenLoopParams {
    pub fn with_offered_rps(mut self, rps: f64) -> Self {
        self.offered_rps = rps;
        self
    }

    pub fn with_read_fraction(mut self, f: f64) -> Self {
        self.read_fraction = f;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switch arrivals to on/off bursts with the given mean dwell times
    /// (milliseconds of virtual time). Average offered load is preserved;
    /// see [`ArrivalModel::OnOff`].
    pub fn with_bursts(mut self, mean_on_ms: u64, mean_off_ms: u64) -> Self {
        self.arrival = ArrivalModel::OnOff {
            mean_on_ns: mean_on_ms * 1_000_000,
            mean_off_ns: mean_off_ms * 1_000_000,
        };
        self
    }

    /// Skew key popularity with Zipf exponent `s` (0 = uniform).
    pub fn with_zipf(mut self, s: f64) -> Self {
        self.zipf_s = s;
        self
    }

    pub fn total_requests(&self) -> usize {
        self.n_clients * self.requests_per_client
    }
}

/// Pool base for the key mutexes (`this` gets a disjoint id).
const POOL_BASE: u32 = 0;

/// Builds the store object: `get(key)`, `put(key, val)`, and a `noop`
/// for PDS dummies. Both lock parameters are `Pool` indexed by argument
/// 0, i.e. announceable at method entry — the prediction schedulers
/// (PMAT/MAT-LL) can run the analysed variant meaningfully.
pub fn build_object(p: &OpenLoopParams) -> ObjectImpl {
    let mut ob = ObjectBuilder::new("RwStore");
    ob.cells(p.n_mutexes); // cell k guarded by pool mutex k
    let mut get = ob.method("get", 1);
    get.compute(DurExpr::micros(p.pre_us));
    get.sync(
        MutexExpr::Pool {
            base: POOL_BASE,
            len: p.n_mutexes,
            index_arg: 0,
        },
        |b| {
            b.compute(DurExpr::micros(p.read_us));
        },
    );
    get.done();
    let mut put = ob.method("put", 2);
    put.compute(DurExpr::micros(p.pre_us));
    put.sync(
        MutexExpr::Pool {
            base: POOL_BASE,
            len: p.n_mutexes,
            index_arg: 0,
        },
        |b| {
            b.compute(DurExpr::micros(p.write_us));
            // Order-sensitive: last writer wins per cell, so replica
            // state hashes expose any grant-order divergence.
            b.update_indexed(POOL_BASE, p.n_mutexes, 0, IntExpr::Arg(1));
        },
    );
    put.done();
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

/// The request mix every client model shares: per-client streams of
/// (method, key, value) draws. Split streams keep the mix independent
/// of the arrival schedule, so open and closed variants execute the
/// *same* requests.
fn request_mix(p: &OpenLoopParams) -> Vec<Vec<(dmt_lang::MethodIdx, RequestArgs)>> {
    let get = dmt_lang::MethodIdx::new(0);
    let put = dmt_lang::MethodIdx::new(1);
    // Uniform keys keep the historical `next_below` call (so pre-existing
    // schedules — and the golden artifacts built on them — stay
    // bit-identical); Zipf keys substitute a CDF inversion that also
    // consumes exactly one draw per key.
    let zipf = (p.zipf_s > 0.0).then(|| ZipfSampler::new(p.n_mutexes as usize, p.zipf_s));
    let mut rng = SplitMix64::new(p.seed);
    (0..p.n_clients)
        .map(|c| {
            let mut crng = rng.split(c as u64);
            (0..p.requests_per_client)
                .map(|_| {
                    let k = match &zipf {
                        None => crng.next_below(p.n_mutexes as u64),
                        Some(z) => z.sample(&mut crng),
                    };
                    let key = Value::Int(k as i64);
                    if crng.next_bool(p.read_fraction) {
                        (get, RequestArgs::new(&[key]))
                    } else {
                        let val = Value::Int(crng.next_below(1 << 20) as i64);
                        (put, RequestArgs::new(&[key, val]))
                    }
                })
                .collect()
        })
        .collect()
}

/// Open-loop client scripts: the shared request mix on per-client
/// arrival schedules (Poisson or on/off bursts) averaging
/// `offered_rps / n_clients` each.
pub fn client_scripts(p: &OpenLoopParams) -> Vec<ClientScript> {
    let per_client_rate = p.offered_rps / p.n_clients as f64;
    let mut arrival_rng = SplitMix64::new(p.seed ^ 0x6f70_656e_6c6f_6f70); // "openloop"
    request_mix(p)
        .into_iter()
        .map(|requests| {
            let n = requests.len();
            let seed = arrival_rng.next_u64();
            let schedule = match p.arrival {
                ArrivalModel::Poisson => {
                    PoissonProcess::new(seed, per_client_rate).take_schedule(n)
                }
                ArrivalModel::OnOff {
                    mean_on_ns,
                    mean_off_ns,
                } => {
                    // Peak up the ON rate by the inverse duty cycle so
                    // the long-run average matches the Poisson baseline.
                    let duty = mean_on_ns as f64 / (mean_on_ns + mean_off_ns) as f64;
                    OnOffProcess::new(seed, per_client_rate / duty, 0.0, mean_on_ns, mean_off_ns)
                        .take_schedule(n)
                }
            };
            ClientScript::open_loop(requests, schedule)
        })
        .collect()
}

/// Closed-loop scripts over the identical request mix (for pricing the
/// client model itself; `offered_rps` is ignored).
pub fn closed_client_scripts(p: &OpenLoopParams) -> Vec<ClientScript> {
    request_mix(p)
        .into_iter()
        .map(ClientScript::closed)
        .collect()
}

/// The open-loop scenario in both instrumentation variants.
pub fn scenario(p: &OpenLoopParams) -> ScenarioPair {
    let obj = build_object(p);
    debug_assert_eq!(obj.method_by_name("get"), Some(dmt_lang::MethodIdx::new(0)));
    debug_assert_eq!(obj.method_by_name("put"), Some(dmt_lang::MethodIdx::new(1)));
    crate::make_variants(&obj, client_scripts(p), "noop")
}

/// The closed-loop variant of the same workload.
pub fn closed_scenario(p: &OpenLoopParams) -> ScenarioPair {
    let obj = build_object(p);
    crate::make_variants(&obj, closed_client_scripts(p), "noop")
}

/// Partitions the open-loop workload into `n_groups` group scenarios
/// for `dmt_replica::run_sharded`: sharded key routing at the client
/// edge. Global client `c` is routed to group `c % n_groups` (order
/// preserved within a group), and each group owns a private copy of the
/// store — the aggregate object space is `n_groups × n_mutexes` cells,
/// every key local to its client's shard. The global script set is
/// generated once from `p` and then dealt out, so the partition is a
/// pure function of `(p, n_groups)`: the same clients submit the same
/// requests at the same virtual instants whether the groups then run on
/// one worker or many.
///
/// This is also the scaling path: with `n_clients` at 1e5+ the script
/// generation stays linear and each group engine only ever holds its
/// `1/n_groups` slice of the client population.
pub fn sharded_scenarios(p: &OpenLoopParams, n_groups: usize) -> Vec<ScenarioPair> {
    assert!(n_groups >= 1, "need at least one group");
    let obj = build_object(p);
    let mut per_group: Vec<Vec<ClientScript>> = (0..n_groups)
        .map(|g| Vec::with_capacity(p.n_clients.saturating_sub(g).div_ceil(n_groups)))
        .collect();
    for (c, s) in client_scripts(p).into_iter().enumerate() {
        per_group[c % n_groups].push(s);
    }
    per_group
        .into_iter()
        .map(|clients| crate::make_variants(&obj, clients, "noop"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{Engine, EngineConfig};

    #[test]
    fn object_is_fully_analysable() {
        let p = OpenLoopParams::default();
        let obj = build_object(&p);
        assert!(obj.validate().is_empty());
        let report = dmt_analysis::analyze(&obj);
        for m in &report.methods[..2] {
            assert!(m.analyzable);
            assert!(m.predictable_at_entry, "pool keys announceable at entry");
        }
    }

    #[test]
    fn scripts_are_deterministic_and_respect_the_mix() {
        let p = OpenLoopParams::default();
        let a = client_scripts(&p);
        let b = client_scripts(&p);
        assert_eq!(a.len(), b.len());
        let mut reads = 0usize;
        let mut total = 0usize;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.requests, y.requests);
            assert_eq!(x.arrivals, y.arrivals);
            assert!(x.is_open_loop());
            reads += x.requests.iter().filter(|(m, _)| m.index() == 0).count();
            total += x.requests.len();
        }
        // 90 % reads, within sampling noise for 200 draws.
        let frac = reads as f64 / total as f64;
        assert!((0.8..=1.0).contains(&frac), "read fraction {frac}");
        // Different seed → different schedule.
        let c = client_scripts(&p.with_seed(43));
        assert_ne!(a[0].arrivals, c[0].arrivals);
    }

    #[test]
    fn closed_variant_runs_the_same_requests() {
        let p = OpenLoopParams {
            n_clients: 3,
            requests_per_client: 5,
            ..Default::default()
        };
        let open = client_scripts(&p);
        let closed = closed_client_scripts(&p);
        for (o, c) in open.iter().zip(&closed) {
            assert_eq!(o.requests, c.requests);
            assert!(!c.is_open_loop());
        }
    }

    #[test]
    fn completes_under_every_scheduler() {
        let p = OpenLoopParams {
            n_clients: 3,
            requests_per_client: 4,
            offered_rps: 2000.0,
            n_mutexes: 8,
            ..Default::default()
        };
        let pair = scenario(&p);
        for kind in SchedulerKind::ALL {
            let cfg = EngineConfig::new(kind).with_seed(5);
            let res = Engine::new(pair.for_kind(kind), cfg).run();
            assert!(!res.deadlocked, "{kind}");
            assert_eq!(res.completed_requests, 12, "{kind}");
            assert_eq!(res.latency_ns().count(), 12, "{kind}");
        }
    }

    #[test]
    fn sharded_partition_preserves_the_global_workload() {
        let p = OpenLoopParams {
            n_clients: 10,
            requests_per_client: 4,
            ..Default::default()
        };
        // One group = the monolithic scenario, script for script.
        let whole = scenario(&p);
        let one = sharded_scenarios(&p, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].plain.clients.len(), whole.plain.clients.len());
        for (a, b) in one[0].plain.clients.iter().zip(whole.plain.clients.iter()) {
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.arrivals, b.arrivals);
        }
        // Round-robin deal: group g's i-th client is global client
        // g + i*n_groups, so the union over groups is the global set.
        let groups = sharded_scenarios(&p, 3);
        assert_eq!(groups.len(), 3);
        let global = client_scripts(&p);
        let mut seen = 0;
        for (g, pair) in groups.iter().enumerate() {
            for (i, cs) in pair.plain.clients.iter().enumerate() {
                let c = g + i * 3;
                assert_eq!(cs.requests, global[c].requests, "group {g} client {i}");
                assert_eq!(cs.arrivals, global[c].arrivals);
                seen += 1;
            }
        }
        assert_eq!(seen, p.n_clients);
    }

    #[test]
    fn burst_arrivals_clump_but_preserve_the_mix() {
        let p = OpenLoopParams {
            requests_per_client: 200,
            ..Default::default()
        };
        let smooth = client_scripts(&p);
        let bursty = client_scripts(&p.with_bursts(20, 80));
        // Same requests (mix is split from arrivals), different timing.
        for (s, b) in smooth.iter().zip(&bursty) {
            assert_eq!(s.requests, b.requests);
            assert_ne!(s.arrivals, b.arrivals);
            let sched = b.arrivals.as_ref().unwrap();
            assert!(sched.windows(2).all(|w| w[0] < w[1]));
        }
        // Burstiness: squared coefficient of variation of inter-arrival
        // gaps well above the Poisson CV² ≈ 1.
        let cv2 = |scripts: &[ClientScript]| {
            let gaps: Vec<f64> = scripts
                .iter()
                .flat_map(|s| {
                    let a = s.arrivals.as_ref().unwrap();
                    a.windows(2)
                        .map(|w| (w[1].as_nanos() - w[0].as_nanos()) as f64)
                        .collect::<Vec<_>>()
                })
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        assert!(cv2(&bursty) > 1.8 * cv2(&smooth), "bursts not clumpy");
        // Deterministic: same params, same schedules.
        assert_eq!(
            client_scripts(&p.with_bursts(20, 80))[0].arrivals,
            bursty[0].arrivals
        );
    }

    #[test]
    fn zipf_skews_keys_without_extra_draws() {
        let p = OpenLoopParams {
            requests_per_client: 400,
            read_fraction: 1.0, // gets only: key is arg 0 everywhere
            ..Default::default()
        };
        let key_of = |r: &RequestArgs| match r.values()[0] {
            Value::Int(k) => k as u64,
            ref other => panic!("unexpected {other:?}"),
        };
        let count_low = |scripts: &[ClientScript]| {
            scripts
                .iter()
                .flat_map(|s| s.requests.iter())
                .filter(|(_, a)| key_of(a) < 4)
                .count()
        };
        let uniform = client_scripts(&p);
        let skewed = client_scripts(&p.with_zipf(1.2));
        let total = p.total_requests();
        // Uniform: ~4/64 of keys in [0, 4). Zipf 1.2: the head dominates.
        assert!(count_low(&uniform) < total / 8);
        assert!(count_low(&skewed) > total / 3, "zipf head too light");
        // The arrival schedules are untouched by the key model (split
        // streams), and the mix stays deterministic.
        for (u, s) in uniform.iter().zip(&skewed) {
            assert_eq!(u.arrivals, s.arrivals);
        }
        assert_eq!(
            client_scripts(&p.with_zipf(1.2))[0].requests,
            skewed[0].requests
        );
    }

    #[test]
    fn bursty_zipf_workload_completes_and_converges() {
        let p = OpenLoopParams {
            n_clients: 3,
            requests_per_client: 4,
            offered_rps: 2000.0,
            n_mutexes: 8,
            ..Default::default()
        }
        .with_bursts(5, 15)
        .with_zipf(1.0);
        let pair = scenario(&p);
        for kind in [SchedulerKind::Sat, SchedulerKind::Mat, SchedulerKind::Pmat] {
            let (res, outcome) = dmt_replica::check_determinism(pair.for_kind(kind), kind, 7, 0.3);
            assert!(!res.deadlocked, "{kind}");
            assert_eq!(res.completed_requests, 12, "{kind}");
            assert!(outcome.converged(), "{kind}: {outcome:?}");
        }
    }

    #[test]
    fn deterministic_schedulers_converge_under_jitter() {
        let p = OpenLoopParams {
            n_clients: 4,
            requests_per_client: 3,
            offered_rps: 4000.0, // contended: arrivals pile up
            n_mutexes: 4,
            read_fraction: 0.5,
            ..Default::default()
        };
        let pair = scenario(&p);
        for kind in [SchedulerKind::Lsa, SchedulerKind::Mat, SchedulerKind::Pmat] {
            let (res, outcome) = dmt_replica::check_determinism(pair.for_kind(kind), kind, 9, 0.25);
            assert!(!res.deadlocked, "{kind}");
            assert!(outcome.converged(), "{kind}: {outcome:?}");
        }
    }
}
