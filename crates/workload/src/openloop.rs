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
use dmt_lang::{MethodIdx, ObjectBuilder, RequestArgs, Value};
use dmt_replica::{ClientTable, ClientTableBuilder};
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

/// Label mixed into the seed of the arrival streams ("openloop").
const ARRIVAL_LABEL: u64 = 0x6f70_656e_6c6f_6f70;

/// Draws any client's script from the workload parameters alone. Client
/// `c`'s request stream is `SplitMix64::new(seed).jumped(c).split(c)`
/// and its arrival seed `SplitMix64::new(seed ^ "openloop").jumped(c)
/// .next_u64()`: exactly what a generator drawing clients `0, 1, …` in
/// sequence off two root streams hands client `c`, so a client table can
/// hold any subset of the clients, in any order, and every script is
/// still the same bytes. Split streams keep the request mix independent
/// of the arrival schedule, so open and closed variants execute the
/// *same* requests.
struct Generator<'p> {
    p: &'p OpenLoopParams,
    /// `None` keeps the historical uniform `next_below` key draw (so
    /// pre-existing schedules — and the golden artifacts built on them
    /// — stay bit-identical); Zipf keys substitute a CDF inversion that
    /// also consumes exactly one draw per key.
    zipf: Option<ZipfSampler>,
}

/// One client table's `get` argument vectors, one per key, allocated on
/// first use. A `get` request clones its key's vector (a refcount bump)
/// instead of allocating its own. Never shared between tables: each
/// shard group runs on its own worker, and a refcount shared between
/// them would bounce between cores.
struct GetArgs(Vec<Option<RequestArgs>>);

impl GetArgs {
    fn new(n_keys: u32) -> Self {
        GetArgs(vec![None; n_keys as usize])
    }

    fn key(&mut self, k: u64) -> RequestArgs {
        self.0[k as usize]
            .get_or_insert_with(|| RequestArgs::new(&[Value::Int(k as i64)]))
            .clone()
    }
}

impl<'p> Generator<'p> {
    const GET: MethodIdx = MethodIdx::new(0);
    const PUT: MethodIdx = MethodIdx::new(1);

    fn new(p: &'p OpenLoopParams) -> Self {
        Generator {
            p,
            zipf: (p.zipf_s > 0.0).then(|| ZipfSampler::new(p.n_mutexes as usize, p.zipf_s)),
        }
    }

    /// Pushes client `c`'s (method, key, value) draws.
    fn requests(&self, c: usize, gets: &mut GetArgs, table: &mut ClientTableBuilder) {
        let p = self.p;
        let mut rng = SplitMix64::new(p.seed).jumped(c as u64).split(c as u64);
        for _ in 0..p.requests_per_client {
            let k = match &self.zipf {
                None => rng.next_below(p.n_mutexes as u64),
                Some(z) => z.sample(&mut rng),
            };
            if rng.next_bool(p.read_fraction) {
                table.push(Self::GET, gets.key(k));
            } else {
                let val = Value::Int(rng.next_below(1 << 20) as i64);
                table.push(Self::PUT, RequestArgs::new(&[Value::Int(k as i64), val]));
            }
        }
    }

    /// Pushes client `c`'s open-loop arrival schedule (Poisson or on/off
    /// bursts) averaging `offered_rps / n_clients`.
    fn arrivals(&self, c: usize, table: &mut ClientTableBuilder) {
        let p = self.p;
        let per_client_rate = p.offered_rps / p.n_clients as f64;
        let seed = SplitMix64::new(p.seed ^ ARRIVAL_LABEL)
            .jumped(c as u64)
            .next_u64();
        let n = p.requests_per_client;
        match p.arrival {
            ArrivalModel::Poisson => {
                let mut process = PoissonProcess::new(seed, per_client_rate);
                (0..n).for_each(|_| table.push_arrival(process.next_arrival()));
            }
            ArrivalModel::OnOff {
                mean_on_ns,
                mean_off_ns,
            } => {
                // Peak up the ON rate by the inverse duty cycle so the
                // long-run average matches the Poisson baseline.
                let duty = mean_on_ns as f64 / (mean_on_ns + mean_off_ns) as f64;
                let mut process =
                    OnOffProcess::new(seed, per_client_rate / duty, 0.0, mean_on_ns, mean_off_ns);
                (0..n).for_each(|_| table.push_arrival(process.next_arrival()));
            }
        }
    }

    /// One client table: the scripts of `clients`, in order, sharing one
    /// [`GetArgs`].
    fn table(&self, clients: impl ExactSizeIterator<Item = usize>, open: bool) -> ClientTable {
        let n = clients.len();
        let mut gets = GetArgs::new(self.p.n_mutexes);
        let mut table = ClientTable::builder(open, n, n * self.p.requests_per_client);
        for c in clients {
            self.requests(c, &mut gets, &mut table);
            if open {
                self.arrivals(c, &mut table);
            }
            table.end_client();
        }
        table.build()
    }
}

/// Open-loop client scripts: per-client request mixes on per-client
/// arrival schedules (Poisson or on/off bursts) averaging
/// `offered_rps / n_clients` each.
pub fn client_scripts(p: &OpenLoopParams) -> ClientTable {
    Generator::new(p).table(0..p.n_clients, true)
}

/// Closed-loop scripts over the identical request mix (for pricing the
/// client model itself; `offered_rps` is ignored).
pub fn closed_client_scripts(p: &OpenLoopParams) -> ClientTable {
    Generator::new(p).table(0..p.n_clients, false)
}

/// The open-loop scenario in both instrumentation variants.
pub fn scenario(p: &OpenLoopParams) -> ScenarioPair {
    let obj = build_object(p);
    debug_assert_eq!(obj.method_by_name("get"), Some(Generator::GET));
    debug_assert_eq!(obj.method_by_name("put"), Some(Generator::PUT));
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
/// every key local to its client's shard. Every client's script is a
/// pure function of `(p, c)`, so the partition is a pure function of
/// `(p, n_groups)`: the same clients submit the same requests at the
/// same virtual instants whether the groups then run on one worker or
/// many.
///
/// This is also the scaling path: with `n_clients` at 1e5+ each group
/// builds only its `1/n_groups` slice of the client population, on
/// `available_parallelism()` workers (capped at `n_groups`) that take
/// contiguous chunks of groups and are joined in group order.
pub fn sharded_scenarios(p: &OpenLoopParams, n_groups: usize) -> Vec<ScenarioPair> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    sharded_scenarios_on(p, n_groups, workers)
}

/// [`sharded_scenarios`] on `workers` threads; the output never depends
/// on `workers`.
fn sharded_scenarios_on(p: &OpenLoopParams, n_groups: usize, workers: usize) -> Vec<ScenarioPair> {
    assert!(n_groups >= 1, "need at least one group");
    let obj = build_object(p);
    let gen = Generator::new(p);
    let build = |groups: std::ops::Range<usize>| -> Vec<ScenarioPair> {
        groups
            .map(|g| {
                let clients = gen.table((g..p.n_clients).step_by(n_groups), true);
                crate::make_variants(&obj, clients, "noop")
            })
            .collect()
    };
    let k = n_groups.div_ceil(workers.clamp(1, n_groups));
    if k == n_groups {
        return build(0..n_groups);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_groups)
            .step_by(k)
            .map(|first| {
                let build = &build;
                s.spawn(move || build(first..(first + k).min(n_groups)))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("workload builder panicked"))
            .collect()
    })
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

    /// Chains FNV-1a from `h` over the `Debug` rendering of `item`.
    fn fnv(h: u64, item: impl std::fmt::Debug) -> u64 {
        let bytes = format!("{item:?}").into_bytes().into_iter().chain([0xff]);
        bytes.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Digest of every group's client table: group sizes, then each
    /// client's requests and arrivals in table order.
    fn groups_digest(groups: &[ScenarioPair]) -> u64 {
        groups.iter().fold(0xcbf2_9ce4_8422_2325, |h, pair| {
            let h = fnv(h, pair.plain.clients.len());
            pair.plain.clients.iter().fold(h, |h, s| {
                let h = fnv(h, &s.requests);
                fnv(h, &s.arrivals)
            })
        })
    }

    /// `shard-1e5`'s generator parameters.
    fn shard_1e5(seed: u64) -> OpenLoopParams {
        OpenLoopParams {
            n_clients: 100_000,
            requests_per_client: 1,
            ..OpenLoopParams::default()
        }
        .with_offered_rps(200_000.0)
        .with_read_fraction(0.9)
        .with_seed(seed)
    }

    /// Pinned cases for the sharded generator: `(params, groups, digest)`.
    fn pinned_shard_cases() -> Vec<(OpenLoopParams, usize, u64)> {
        let small = OpenLoopParams {
            n_clients: 1_000,
            requests_per_client: 3,
            ..OpenLoopParams::default()
        };
        vec![
            (shard_1e5(1), 16, 0x464c5281705dc14f),
            (shard_1e5(4243), 16, 0xf21a6f68756d4018),
            (small.with_zipf(1.1).with_seed(7), 16, 0xa9346c57c64ac362),
            (
                small.with_bursts(5, 20).with_seed(8),
                16,
                0x105307b013e4d0c6,
            ),
            // 7 groups do not divide 1000 clients; 8 groups exceed 5.
            (
                small.with_read_fraction(0.5).with_seed(9),
                7,
                0x4a196ef5791cfc3c,
            ),
            (
                OpenLoopParams {
                    n_clients: 5,
                    ..small
                },
                8,
                0x963455d138012d3c,
            ),
        ]
    }

    /// The digests were taken from the generator that drew every client
    /// in sequence and dealt the scripts out round-robin; the per-group
    /// builder must reproduce its output byte for byte.
    #[test]
    fn sharded_scripts_match_the_pinned_digests() {
        for (p, n_groups, want) in pinned_shard_cases() {
            let got = groups_digest(&sharded_scenarios(&p, n_groups));
            assert_eq!(got, want, "{p:?} on {n_groups} groups");
        }
    }

    #[test]
    fn worker_count_never_changes_the_sharded_scripts() {
        for (p, n_groups, want) in pinned_shard_cases() {
            if p.n_clients > 1_000 {
                continue; // the 1e5-client cases are pinned above
            }
            for workers in [1, 2, 3, n_groups + 1] {
                let got = groups_digest(&sharded_scenarios_on(&p, n_groups, workers));
                assert_eq!(got, want, "{p:?} on {n_groups} groups, {workers} workers");
            }
        }
    }

    #[test]
    fn a_table_shares_get_arguments_per_key_and_never_across_tables() {
        let p = OpenLoopParams {
            n_clients: 40,
            requests_per_client: 5,
            n_mutexes: 4,
            ..Default::default()
        };
        let groups = sharded_scenarios(&p, 2);
        let get_args = |pair: &ScenarioPair| -> Vec<RequestArgs> {
            let clients = pair.plain.clients.iter();
            let requests = clients.flat_map(|s| s.requests.iter());
            requests
                .filter(|(m, _)| *m == Generator::GET)
                .map(|(_, a)| a.clone())
                .collect()
        };
        let same = |a: &RequestArgs, b: &RequestArgs| std::ptr::eq(a.values(), b.values());
        let (g0, g1) = (get_args(&groups[0]), get_args(&groups[1]));
        for a in &g0 {
            let twins = g0.iter().filter(|b| same(a, b)).count();
            let equal = g0.iter().filter(|b| *b == a).count();
            assert_eq!(twins, equal, "one vector per key within a table");
            assert!(!g1.iter().any(|b| same(a, b)), "shared across tables");
        }
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
        let cv2 = |scripts: &ClientTable| {
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
        let count_low = |scripts: &ClientTable| {
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
