//! Allocation budget of the sharded open-loop generator at the
//! `shard-1e5` benchmark's parameters (1e5 clients, one request each,
//! 90 % reads over 64 keys, 16 groups). A client costs no allocation of
//! its own: its rows go into its group's flat client table (one request
//! buffer, one arrival buffer, one offset vector, each sized up front).
//! Each `put` allocates its argument vector; a `get` clones its table's
//! shared vector for its key. So the count must stay near
//! `1 - read_fraction` per client, plus a fixed cost per group (its
//! object compiled twice, its lock table, its shared `get` vectors, its
//! client table) and per builder thread.
//! Counted with a global counting allocator, as in
//! `steady_state_alloc.rs`.
//!
//! One `#[test]` on purpose: the counter is process-global, and libtest
//! would interleave concurrent tests' allocations into each other's
//! deltas.

use dmt_workload::openloop::{self, OpenLoopParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations per client the generator may make: one argument vector
/// per `put` comes to 0.1 at 90 % reads.
const PER_CLIENT: f64 = 0.2;
/// Allocations per group beyond its clients: measured at 196 (release)
/// and 224 (debug) — two compiles, the transform, the lock table, up to
/// 64 shared `get` vectors, the client table and a builder thread's
/// share.
const PER_GROUP: u64 = 400;

#[test]
fn sharded_generator_allocates_only_put_arguments_per_client() {
    let p = OpenLoopParams {
        n_clients: 100_000,
        requests_per_client: 1,
        ..OpenLoopParams::default()
    }
    .with_offered_rps(200_000.0)
    .with_read_fraction(0.9)
    .with_seed(1);
    let n_groups = 16;
    // Warm-up: thread-local and runtime set-up allocate once per
    // process; keep them out of the measured count.
    drop(openloop::sharded_scenarios(&p.with_seed(2), n_groups));
    let before = allocations();
    let groups = openloop::sharded_scenarios(&p, n_groups);
    let count = allocations() - before;
    let clients: usize = groups.iter().map(|g| g.plain.clients.len()).sum();
    assert_eq!(clients, p.n_clients);
    let budget = (PER_CLIENT * p.n_clients as f64) as u64 + PER_GROUP * n_groups as u64;
    eprintln!(
        "generator: {count} allocations for {} clients in {n_groups} groups \
         ({:.3} per client); budget {budget}",
        p.n_clients,
        count as f64 / p.n_clients as f64
    );
    assert!(
        count <= budget,
        "{count} allocations exceed the budget of {budget}"
    );
}
