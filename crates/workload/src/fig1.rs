//! The lock-pattern generator: the paper's §3.5 method (Figure 1), with
//! the Figure 2 and 3 scenarios as named slices.
//!
//! "The implementation of that method in the remote object does ten
//! iterations of a loop. Each iteration performs the following
//! operations: with probability 0.2, simulate a nested invocation
//! (duration approx. 12 ms); with probability 0.2, simulate a local
//! computation; execute a sequence of lock, state update, unlock, using a
//! mutex chosen by random from a set of 100 mutexes. […] To guarantee
//! deterministic behaviour the clients were responsible for all random
//! decisions and passed them as method parameters."
//!
//! Every lock parameter is a `Pool` indexed by a request argument, so
//! announceable at method entry. [`Fig1Params::last_lock`] (Figure 2) and
//! [`Fig1Params::disjoint`] (Figure 3) fix one iteration and no nested
//! call, plus a long computation after the unlock and a private mutex per
//! client respectively. The paper lost the local-computation duration
//! ("duration ms"); it defaults to 1.5 ms (DESIGN.md substitution 4).

use dmt_lang::ast::{CondExpr, DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{MethodBuilder, MethodIdx, ObjectBuilder, RequestArgs, ServiceId, Value};
use dmt_replica::ClientTable;

/// The mutex each iteration locks: drawn from a pool, or client `k`'s own `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutexes {
    Pool(u32),
    PerClient,
}

/// Lock-pattern parameters; the default is the paper's Figure-1 method.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Params {
    pub iterations: usize,
    /// Like `p_compute`: a client coin in (0, 1), always at 1, never at 0.
    pub p_nested: f64,
    pub p_compute: f64,
    pub nested_ms: f64,
    pub compute_ms: f64,
    /// Computation inside the lock, before the update (0: none).
    pub cs_ms: f64,
    /// Computation after the last unlock (0: none).
    pub final_ms: f64,
    pub mutexes: Mutexes,
    pub n_clients: usize,
    pub requests_per_client: usize,
    pub seed: u64,
    /// Object and method name, as the analysis report prints them.
    pub names: (&'static str, &'static str),
}

impl Default for Fig1Params {
    fn default() -> Self {
        Fig1Params {
            iterations: 10,
            p_nested: 0.2,
            p_compute: 0.2,
            nested_ms: 12.0,
            compute_ms: 1.5,
            cs_ms: 0.0,
            final_ms: 0.0,
            mutexes: Mutexes::Pool(100),
            n_clients: 8,
            requests_per_client: 4,
            seed: 42,
            names: ("Fig1Bench", "invoke"),
        }
    }
}

impl Fig1Params {
    /// Figure 2: a long "reply build" after the only unlock.
    pub fn last_lock() -> Self {
        Fig1Params {
            iterations: 1,
            p_nested: 0.0,
            p_compute: 1.0,
            compute_ms: 0.5,
            cs_ms: 0.5,
            final_ms: 5.0,
            seed: 7,
            names: ("Fig2LastLock", "serve"),
            ..Fig1Params::default()
        }
    }

    /// Figure 3: one critical section per request, disjoint across clients.
    pub fn disjoint() -> Self {
        Fig1Params {
            compute_ms: 0.2,
            cs_ms: 2.0,
            final_ms: 0.0,
            mutexes: Mutexes::PerClient,
            names: ("Fig3Disjoint", "serve"),
            ..Fig1Params::last_lock()
        }
    }

    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    pub fn with_mutexes(mut self, n: u32) -> Self {
        self.mutexes = Mutexes::Pool(n);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The coin probabilities, in `Bool` argument order.
    fn coins(&self) -> impl Iterator<Item = f64> {
        [self.p_nested, self.p_compute]
            .into_iter()
            .filter(|&p| p > 0.0 && p < 1.0)
    }
}

fn compute(m: &mut MethodBuilder<'_>, ms: f64) {
    if ms > 0.0 {
        m.compute(DurExpr::Nanos((ms * 1e6) as u64));
    }
}

/// Emits `f` with probability `p`: always at 1, never at 0, else behind coin `*a`.
fn maybe(m: &mut MethodBuilder<'_>, p: f64, a: &mut usize, f: &dyn Fn(&mut MethodBuilder<'_>)) {
    if p >= 1.0 {
        f(m);
    } else if p > 0.0 {
        m.if_then(CondExpr::ArgFlag(*a), f);
        *a += 1;
    }
}

/// The object: the lock-pattern method plus a `noop` for PDS dummies.
pub fn build_object(p: &Fig1Params) -> ObjectImpl {
    let n = match p.mutexes {
        Mutexes::Pool(n) => n,
        Mutexes::PerClient => p.n_clients.max(1) as u32,
    };
    let mut ob = ObjectBuilder::new(p.names.0);
    ob.cells(n); // cell i guarded by pool mutex i
    let mut m = ob.method(p.names.1, p.iterations * (p.coins().count() + 1));
    let nested = DurExpr::Nanos((p.nested_ms * 1e6) as u64);
    let mut a = 0; // each iteration's arguments: its coins, then the mutex
    for _ in 0..p.iterations {
        maybe(&mut m, p.p_nested, &mut a, &|b| {
            b.nested(ServiceId::new(0), nested.clone());
        });
        maybe(&mut m, p.p_compute, &mut a, &|b| compute(b, p.compute_ms));
        let pool = MutexExpr::Pool {
            base: 0,
            len: n,
            index_arg: a,
        };
        m.sync(pool, |b| {
            compute(b, p.cs_ms);
            // Order-sensitive update of the cell the mutex guards.
            b.update_indexed(0, n, a, IntExpr::Lit(1));
        });
        a += 1;
    }
    compute(&mut m, p.final_ms);
    m.done();
    ob.method("noop", 0).done();
    ob.build()
}

/// The client table: each client calls method 0 with its own pre-drawn
/// decisions.
pub fn client_scripts(p: &Fig1Params) -> ClientTable {
    let arity = p.iterations * (p.coins().count() + 1);
    let mut rng = dmt_sim::SplitMix64::new(p.seed);
    let rows = p.n_clients * p.requests_per_client;
    let mut table = ClientTable::builder(false, p.n_clients, rows);
    let mut args = Vec::with_capacity(arity);
    for c in 0..p.n_clients {
        let mut crng = rng.split(c as u64);
        for _ in 0..p.requests_per_client {
            args.clear();
            for _ in 0..p.iterations {
                for q in p.coins() {
                    args.push(Value::Bool(crng.next_bool(q)));
                }
                args.push(Value::Int(match p.mutexes {
                    Mutexes::Pool(n) => crng.next_below(n as u64) as i64,
                    Mutexes::PerClient => c as i64,
                }));
            }
            table.push(MethodIdx::new(0), RequestArgs::new(&args));
        }
        table.end_client();
    }
    table.build()
}

/// The full scenario in both instrumentation variants.
pub fn scenario(p: &Fig1Params) -> crate::ScenarioPair {
    crate::make_variants(&build_object(p), client_scripts(p), "noop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{Engine, EngineConfig};

    #[test]
    fn object_shape_matches_the_paper() {
        let p = Fig1Params::default();
        let obj = build_object(&p);
        assert!(obj.validate().is_empty());
        assert_eq!(obj.all_sync_ids().len(), 10, "ten lock sites");
        let report = dmt_analysis::analyze(&obj);
        let invoke = &report.methods[0];
        assert!(invoke.analyzable);
        assert_eq!(invoke.n_syncs, 10);
        assert_eq!(
            invoke.n_at_entry, 10,
            "all pool params announceable at entry"
        );
        assert!(invoke.predictable_at_entry);
        // 2 branch bits per iteration → 4^10 paths.
        assert_eq!(invoke.path_count, 4u64.pow(10));
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let p = Fig1Params::default();
        let a = client_scripts(&p);
        let b = client_scripts(&p);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.requests, y.requests);
        }
        let c = client_scripts(&Fig1Params { seed: 43, ..p });
        assert_ne!(a[0].requests, c[0].requests);
    }

    /// Chains FNV-1a from `h` over the `Debug` rendering of `item`.
    fn fnv(h: u64, item: impl std::fmt::Debug) -> u64 {
        let bytes = format!("{item:?}").into_bytes().into_iter().chain([0xff]);
        bytes.fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Digest of a point's object and of every client's requests.
    fn digest(p: &Fig1Params) -> u64 {
        let h = fnv(0xcbf2_9ce4_8422_2325, build_object(p));
        client_scripts(p).iter().fold(h, |h, s| fnv(h, &s.requests))
    }

    /// The digests were taken from the separate Figure 1, 2 and 3
    /// generators this module replaced; every point must reproduce their
    /// object and scripts byte for byte. (The Figure-2 generator emitted
    /// a zero-length final computation at `final_ms = 0`; the slice
    /// emits none, so that point is not pinned.)
    #[test]
    fn slices_reproduce_the_retired_generators() {
        let fig1 = [
            (Fig1Params::default(), 0xfdeed52c166c9eff),
            (
                Fig1Params::default().with_mutexes(1).with_clients(8),
                0xecba8e00f9ce0e45,
            ),
            (
                Fig1Params {
                    n_clients: 32,
                    requests_per_client: 40,
                    seed: 4243,
                    ..Fig1Params::default()
                },
                0x4db70c296c9d2a39,
            ),
        ];
        let fig2 = [
            (1.0, 0x8e59d058e4b09e43),
            (2.0, 0x7ec67cf84791be56),
            (5.0, 0x7c408b076a3a4c17),
            (10.0, 0x4ef006c8516f12f3),
        ]
        .map(|(final_ms, d)| {
            let p = Fig1Params {
                final_ms,
                ..Fig1Params::last_lock()
            };
            (p, d)
        });
        let fig3 = [
            (1, 0xd550c68fd11b96fa),
            (8, 0xb689fbee062795d0),
            (32, 0xe674995d4ae46e71),
        ]
        .map(|(n, d)| (Fig1Params::disjoint().with_clients(n), d));
        for (p, want) in fig1.iter().chain(&fig2).chain(&fig3) {
            assert_eq!(digest(p), *want, "{p:?}");
        }
    }

    #[test]
    fn small_fig1_run_completes_under_all_schedulers() {
        let p = Fig1Params {
            n_clients: 3,
            requests_per_client: 2,
            iterations: 4,
            ..Fig1Params::default()
        };
        let pair = scenario(&p);
        for kind in SchedulerKind::ALL {
            let cfg = EngineConfig::new(kind).with_seed(5);
            let res = Engine::new(pair.for_kind(kind), cfg).run();
            assert!(!res.deadlocked, "{kind}");
            assert_eq!(res.completed_requests, 6, "{kind}");
        }
    }

    #[test]
    fn analysed_variant_converges_for_prediction_schedulers() {
        let p = Fig1Params {
            n_clients: 4,
            requests_per_client: 2,
            iterations: 5,
            mutexes: Mutexes::Pool(10), // contention
            ..Fig1Params::default()
        };
        let pair = scenario(&p);
        for kind in [SchedulerKind::MatLL, SchedulerKind::Pmat] {
            let (res, outcome) = dmt_replica::check_determinism(pair.for_kind(kind), kind, 9, 0.25);
            assert!(!res.deadlocked, "{kind}");
            assert!(outcome.converged(), "{kind}: {outcome:?}");
        }
    }

    #[test]
    fn mat_ll_beats_mat_when_final_computation_dominates() {
        let p = Fig1Params {
            n_clients: 6,
            requests_per_client: 3,
            ..Fig1Params::last_lock()
        };
        let pair = scenario(&p);
        let run = |kind| {
            let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
            assert!(!res.deadlocked, "{kind:?}");
            res.response_ms().mean()
        };
        let mat = run(SchedulerKind::Mat);
        let mat_ll = run(SchedulerKind::MatLL);
        assert!(
            mat_ll < mat * 0.9,
            "last-lock hand-off should clearly win: MAT {mat:.2}ms vs MAT-LL {mat_ll:.2}ms"
        );
    }

    #[test]
    fn object_is_fully_predictable() {
        let report = dmt_analysis::analyze(&build_object(&Fig1Params::last_lock()));
        assert!(report.methods[0].predictable_at_entry);
    }

    #[test]
    fn pmat_overlaps_disjoint_critical_sections() {
        let p = Fig1Params::disjoint();
        let pair = scenario(&p);
        let run = |kind| {
            let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(3)).run();
            assert!(!res.deadlocked, "{kind:?}");
            (res.response_ms().mean(), res.makespan)
        };
        let (mat_rt, mat_span) = run(SchedulerKind::Mat);
        let (ll_rt, _) = run(SchedulerKind::MatLL);
        let (pmat_rt, pmat_span) = run(SchedulerKind::Pmat);
        // PMAT must be the clear winner on disjoint lock sets (Figure 3b).
        assert!(
            pmat_rt < ll_rt && pmat_rt < mat_rt * 0.7,
            "PMAT {pmat_rt:.2}ms vs MAT-LL {ll_rt:.2}ms vs MAT {mat_rt:.2}ms"
        );
        assert!(pmat_span < mat_span, "overlap must shorten the makespan");
    }

    #[test]
    fn pmat_converges_on_this_workload() {
        let pair = scenario(&Fig1Params::disjoint());
        let (res, outcome) = dmt_replica::check_determinism(
            pair.for_kind(SchedulerKind::Pmat),
            SchedulerKind::Pmat,
            5,
            0.3,
        );
        assert!(!res.deadlocked);
        assert!(outcome.converged(), "{outcome:?}");
    }
}
