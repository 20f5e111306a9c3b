#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must pass, plus a quick smoke
# of the figures binary (regenerates a small sweep and the engine work
# counters without overwriting checked-in outputs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier-1: cargo build --release =="
cargo build --release --workspace

# perfbench is a package of its own (empty [workspace]), so the build
# above never compiles it; build it here so a public-API change in the
# layer crates cannot break the benchmark unnoticed.
echo "== tier-1: cargo build --release (perfbench) =="
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier-1: cargo test -q =="
cargo test -q --workspace

# The calendar queue's arrival-lane merge, the FIFO-horizon pruning and
# PMAT's counted bookkeeping and quiet-request path sit on the
# simulator's hot path: run their differential and unit tests on the
# optimised build the benchmark measures, too. For dmt-sim that
# includes the calendar-window tier-share guard
# (`engine_delay_mix_mostly_stays_in_the_window`: the engine's delay
# mix must mostly stay out of the overflow heap) and the bitmap-boundary
# differential (`bitmap_word_edges_match_reference`: pushes on the
# summary-word edges, the last bucket and the window edge, against the
# reference heap). dmt-workload's threaded sharded-workload builder and
# its equivalence tests (pinned script digests on 1, 2, 3 and groups+1
# workers) run on the optimised build too. dmt-replica's run there as
# well: the engine reads requests by flat client-table row, and the
# shard equivalence tests (every group byte-identical to a monolithic
# engine, the merged result independent of the worker count) must hold
# on the build the benchmark measures.
echo "== tier-1: cargo test -q --release (dmt-sim, dmt-groupcomm, dmt-core, dmt-replica, dmt-workload) =="
cargo test -q --release -p dmt-sim -p dmt-groupcomm -p dmt-core -p dmt-replica -p dmt-workload

# `cargo build` and `test` skip bench targets; compile every dmt-bench
# bench so none of them can rot unnoticed.
echo "== tier-1: cargo bench --no-run =="
cargo bench --no-run --offline -q -p dmt-bench

# Every target: libraries, binaries, tests, examples and benches.
echo "== tier-1: cargo clippy --all-targets (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo doc (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# Passive replication: the bank workload's primary log must replay to
# the primary's state under every scheduler kind (the example asserts).
echo "== smoke: passive replication replay =="
cargo run --release --offline -q --example passive_replication

echo "== smoke: figures --quick =="
cargo run --release -p dmt-bench --bin figures -- --quick

# The CSV branch of the figures CLI: one schema-rendered experiment.
echo "== smoke: figures openloop --quick --csv =="
cargo run --release -p dmt-bench --bin figures -- openloop --quick --csv

# Benchmark correctness: run the perfbench binary built above on each
# benchmark workload for one second, untraced and traced. Its last line
# is the run's JSON verdict; fail unless it reports a correct run with no
# failed operation (catches output faults before a timed benchmark run).
# The traced pass is the only perfbench path that drives the logical
# harness (the scheduler ledger's event capture) and the layer replays.
echo "== smoke: perfbench correctness =="
for trace in 0 1; do
    for w in fig1-closed openloop-store shard-1e5; do
        last=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
        case "$last" in
        *'"correct": true,'*'"failed": 0,'*) echo "perfbench $w (trace $trace): correct, 0 failed" ;;
        *)
            echo "perfbench $w (trace $trace): bad verdict: ${last:0:300}"
            exit 1
            ;;
        esac
    done
done

# Artifact staleness: regenerate figures_output.txt and every committed
# figures artifact in a scratch directory and fail on any byte that
# differs (see scripts/check_artifacts.sh). Catches
# the classic drift where a code change moves counters, tables or JSON
# structure but the committed artifacts still show the old run.
echo "== gate: artifact staleness =="
./scripts/check_artifacts.sh

# Fast resilience subset: the fault-suite goldens (re-convergence,
# BENCH_faults.json byte-identity across worker counts, the broken-
# transport negative control). The #[ignore]d full grid stays out of
# tier-1; run it with `cargo test -p dmt-bench --test resilience -- --ignored`.
echo "== smoke: resilience goldens =="
cargo test -q -p dmt-bench --test resilience

# Contention-analytics goldens: BENCH_contention.json byte-identity
# across worker counts/reruns, the race-prediction golden (the seeded
# AB/BA inversion must be flagged, clean fig1 must stay silent), and
# the deterministic trace.dropped counter.
echo "== smoke: contention determinism =="
cargo test -q --release -p dmt-bench --test contention_determinism

# Sharded-engine golden: BENCH_shard.json must be byte-stable across
# reruns, and the shard experiment asserts one merged result for every
# intra-run worker count (1/2/4/8).
echo "== smoke: shard determinism =="
cargo test -q --release -p dmt-bench --test shard_determinism

# PMAT scaling guards: ns/engine-event must stay within 1.35× along three
# axes (interleaved best-of-5, same process): 160 vs 10 requests per
# client, so a grant check that grows with the run-wide thread-id range
# cannot come back; 64 vs 8 fig1 clients, so a recheck that re-tests
# every pending request cannot come back; and 50- vs 5-entry lock
# tables, so bookkeeping that scans a thread's table cannot come back.
# Same-host ratios, not absolute pins; release-only.
echo "== smoke: PMAT scaling =="
cargo test -q --release -p dmt-bench --test pmat_scaling

echo "tier1: OK"
