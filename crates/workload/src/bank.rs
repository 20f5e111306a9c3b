//! A bank-transfer workload: nested two-monitor critical sections.
//!
//! `transfer(from, to, amount)` locks the source and destination account
//! monitors in index order (the classic deadlock-avoiding discipline —
//! the clients sort the indices, mirroring how the paper pushes all
//! nondeterministic choices to the client) and moves money. `audit()`
//! locks the coarse `this` monitor and folds every balance into a
//! checksum cell — an order-sensitive read-everything operation that
//! catches lost updates across replicas.

use crate::ScenarioPair;
use dmt_lang::ast::{DurExpr, IntExpr, MutexExpr, ObjectImpl};
use dmt_lang::{CellId, MethodIdx, ObjectBuilder, RequestArgs, Value};
use dmt_replica::ClientScript;
use dmt_sim::SplitMix64;

#[derive(Clone, Copy, Debug)]
pub struct BankParams {
    pub n_accounts: u32,
    pub n_clients: usize,
    pub transfers_per_client: usize,
    /// Every how many transfers a client runs an audit (0 = never).
    pub audit_every: usize,
    pub cs_ms: f64,
    pub seed: u64,
}

impl Default for BankParams {
    fn default() -> Self {
        BankParams {
            n_accounts: 16,
            n_clients: 6,
            transfers_per_client: 5,
            audit_every: 3,
            cs_ms: 0.3,
            seed: 11,
        }
    }
}

/// Cell layout: accounts `0..n`, checksum cell `n`.
pub fn build_object(p: &BankParams) -> ObjectImpl {
    let n = p.n_accounts;
    let mut ob = ObjectBuilder::new("Bank");
    ob.cells(n + 1);
    // transfer(lo, hi, amount): lock pool[lo] then pool[hi] (client sorts).
    let mut t = ob.method("transfer", 3);
    t.sync(
        MutexExpr::Pool {
            base: 0,
            len: n,
            index_arg: 0,
        },
        |b| {
            b.compute(DurExpr::Nanos((p.cs_ms * 1e6) as u64));
            b.sync(
                MutexExpr::Pool {
                    base: 0,
                    len: n,
                    index_arg: 1,
                },
                |b| {
                    // Move `amount` from account lo to account hi. (Direction is
                    // fixed lo→hi; the workload only needs conserved total.)
                    b.update_indexed(0, n, 0, IntExpr::Arg(2));
                    b.update_indexed(0, n, 1, IntExpr::Arg(2));
                    b.update_indexed(0, n, 0, IntExpr::Arg(2)); // lo += a (3×)
                    b.update_indexed(0, n, 1, IntExpr::Arg(2));
                },
            );
        },
    );
    t.done();
    // audit(): fold balances into the checksum cell, taking each
    // account's own monitor — every read of shared state must happen
    // under the monitor that guards it (paper §2: "all access to shared
    // object state is properly synchronised"). The checksum cell itself
    // is guarded by `this`. Reading balances under `this` instead looks
    // harmless but races the transfers — our PDS replay test caught
    // exactly that.
    let checksum = CellId::new(n);
    let mut a = ob.method("audit", 0);
    a.sync(MutexExpr::This, |b| {
        b.compute(DurExpr::Nanos((p.cs_ms * 1e6) as u64));
        for acc in 0..n {
            // Account monitors are pool mutexes 0..n (ids are global).
            b.sync(MutexExpr::Konst(dmt_lang::MutexId::new(acc)), |b| {
                // checksum = 2*checksum + balance[acc] — order-sensitive.
                b.update(checksum, IntExpr::Cell(checksum));
                b.update(checksum, IntExpr::Cell(CellId::new(acc)));
            });
        }
    });
    a.done();
    let noop = ob.method("noop", 0);
    noop.done();
    ob.build()
}

pub fn client_scripts(p: &BankParams) -> Vec<ClientScript> {
    let transfer = MethodIdx::new(0);
    let audit = MethodIdx::new(1);
    let mut rng = SplitMix64::new(p.seed);
    (0..p.n_clients)
        .map(|c| {
            let mut crng = rng.split(c as u64);
            let mut requests = Vec::new();
            for i in 0..p.transfers_per_client {
                let x = crng.next_below(p.n_accounts as u64) as i64;
                let mut y = crng.next_below(p.n_accounts as u64) as i64;
                if x == y {
                    y = (y + 1) % p.n_accounts as i64;
                }
                let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                let amount = crng.next_range(1, 100) as i64;
                requests.push((
                    transfer,
                    RequestArgs::new(&[Value::Int(lo), Value::Int(hi), Value::Int(amount)]),
                ));
                if p.audit_every > 0 && (i + 1) % p.audit_every == 0 {
                    requests.push((audit, RequestArgs::empty()));
                }
            }
            ClientScript::closed(requests)
        })
        .collect()
}

pub fn scenario(p: &BankParams) -> ScenarioPair {
    crate::make_variants(&build_object(p), client_scripts(p), "noop")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_core::SchedulerKind;
    use dmt_replica::{check_determinism, Engine, EngineConfig};

    #[test]
    fn bank_completes_and_replicas_agree() {
        let p = BankParams::default();
        let pair = scenario(&p);
        for kind in SchedulerKind::DETERMINISTIC {
            let (res, outcome) = check_determinism(pair.for_kind(kind), kind, 31, 0.25);
            assert!(!res.deadlocked, "{kind}");
            assert!(outcome.converged(), "{kind}: {outcome:?}");
        }
    }

    #[test]
    fn nested_two_lock_discipline_is_deadlock_free() {
        // Heavier contention on few accounts.
        let p = BankParams {
            n_accounts: 3,
            n_clients: 8,
            transfers_per_client: 6,
            audit_every: 0,
            ..BankParams::default()
        };
        let pair = scenario(&p);
        for kind in [SchedulerKind::Mat, SchedulerKind::Pmat, SchedulerKind::Free] {
            let res = Engine::new(pair.for_kind(kind), EngineConfig::new(kind).with_seed(2)).run();
            assert!(!res.deadlocked, "{kind}");
        }
    }
}
