#!/usr/bin/env bash
# Regenerates the tracked generation-time benchmark numbers in
# BENCH_gentime.json (median seconds per solve by chain length; see
# README § Performance).
#
#   tools/bench_gentime.sh              # full run
#   tools/bench_gentime.sh --quick      # CI smoke: few samples
#   tools/bench_gentime.sh --out /tmp/b.json
#
# The "after" slot times the optimizer's allocation-free hot path,
# with a fresh and with a reused workspace. The "plan_cache" group
# tracks the symbolic pipeline: cold symbolic solve
# vs cached instantiate at fresh sizes in the same region. The
# "serve_throughput" group drives the gmc-serve front door (dispatcher
# + worker pool + shared concurrent cache) at 1/2/4/8 workers over a
# hit-ratio sweep, recording requests/second, scaling vs 1 worker and
# the host's available parallelism. The "replay_latency" group replays
# seeded workload presets and reports serve-side latency quantiles.
# The "obs_overhead" group compares the bare cache-hit path against
# the fully instrumented one (per-stage histogram records + slow-trace
# ring offer per request) against a 5% budget.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release -p gmc-bench --bin gentime_json -- "$@"
