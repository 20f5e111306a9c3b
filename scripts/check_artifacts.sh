#!/usr/bin/env bash
# Artifact staleness gate: regenerate figures_output.txt and every
# committed figures artifact with the current binary and fail if any
# byte differs from the checked-in copies. This is what keeps "the
# artifacts are a verbatim run" honest — a code change that alters
# counters, tables, traces or JSON structure must re-commit the
# artifacts it moves. The artifacts carry no host timing (perfbench and
# the `cargo bench` targets measure that), so a wall-clock value that
# leaks into one fails this gate too.
#
# The regeneration runs in a scratch directory, so the working tree is
# never touched.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

ARTIFACTS=(
  figures_output.txt
  BENCH_engine.json
  BENCH_openloop.json
  BENCH_faults.json
  BENCH_obs.json
  BENCH_contention.json
  BENCH_shard.json
  CONTENTION_mat_openloop.folded
  TRACE_mat_fig1.json
)

cargo build --release -q -p dmt-bench --bin figures

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$tmp" && "$repo/target/release/figures" all >figures_output.txt 2>regen.log)

fail=0
for f in "${ARTIFACTS[@]}"; do
  if [ ! -f "$tmp/$f" ]; then
    echo "STALE: $f was not regenerated by \`figures -- all\`" >&2
    fail=1
    continue
  fi
  if ! diff -u "$f" "$tmp/$f" >"$tmp/$f.diff" 2>&1; then
    echo "STALE: $f differs from a fresh \`figures -- all\` run; re-commit it:" >&2
    head -40 "$tmp/$f.diff" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "artifact staleness check FAILED" >&2
  exit 1
fi
echo "artifacts: fresh (byte-identical to a regeneration)"
