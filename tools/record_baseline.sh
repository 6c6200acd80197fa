#!/usr/bin/env sh
# Regenerates the checked-in perf baselines:
#   * reference_50n_20000e.json — the paper's reference 50-node /
#     20 000-epoch ATC run on both transports (sweep JSON sink);
#   * scale_500n_2000e.json — the large-topology tier's 500-node cell on
#     the pinned (golden sequential AR(1)) environment backend (epoch
#     throughput + peak RSS from bench_scale_topology);
#   * scale_500n_fast.json — the same tier on the counter-based fast
#     backend, at 500 and 2000 nodes (the fast cells perf_smoke.sh
#     guards; the 2000-node row is the large-topology guard cell);
#   * scale_2000n_fast_mt.json — the 2000-node fast cell again with
#     --threads 0 (all hardware threads on the epoch loop): the intra-run
#     parallelism guard cell. The row's "threads" key records the count
#     the recording host actually resolved.
#   * scale_500n_lossy.json — the 500-node fast cell at loss 0.15, at 1
#     worker and all cores: the counter-keyed loss channel riding the
#     parallel epoch engine. The lossy perf guard in perf_smoke.sh is
#     self-relative (threads-N vs threads-1 from one run), so these rows
#     document the surface rather than gate it.
#   * lmac_overhead_threads.json — the LMAC standing-cost grid at 1 worker
#     and all cores (bench_lmac_overhead, dirq.sweep.v1): LMAC runs keep
#     the epoch walk and slot drain on the caller and put only the
#     reading fetch on the pool, so the ledger is byte-identical across
#     the threads axis and paired rows differ only in wall_seconds.
#   * msink_500n.json — the multi-sink tier's 500-node cells at 1 and 4
#     sinks x 1 worker and all cores (bench_multi_sink, dirq.msink.v1):
#     the 4-sink-vs-1-sink wall ratio and the self-relative
#     parallel-vs-sequential 4-sink guard perf_smoke.sh checks, plus the
#     per-sink ledgers and energy spread for admission vs round-robin.
#     Ledgers are byte-identical across the threads axis (the tree-sharded
#     engine's contract); only run_seconds differs between the rows.
#   * serve_500n.json — the serve plane's 500-node fast-field grid
#     (bench_serve_throughput, dirq.serve_bench.v1): rate x sinks x cache
#     cells; the cache-on-vs-cache-off qps invariant perf_smoke.sh guards
#     is self-relative, but the checked-in rows document the sustained
#     qps / tail-latency surface the serve tier is expected to hold.
#
#   tools/record_baseline.sh [build-dir]     (run from the repo root,
#                                             against a Release build)
#
# --threads 1 keeps per-cell wall_seconds free of scheduling contention so
# later optimisation PRs can compare like with like; the timings are
# machine-dependent snapshots, the structural metrics are deterministic.
set -eu

BUILD_DIR=${1:-build}
OUT=bench/baselines/reference_50n_20000e.json
SCALE_OUT=bench/baselines/scale_500n_2000e.json
FAST_OUT=bench/baselines/scale_500n_fast.json
MT_OUT=bench/baselines/scale_2000n_fast_mt.json
LOSSY_OUT=bench/baselines/scale_500n_lossy.json
LMAC_THR_OUT=bench/baselines/lmac_overhead_threads.json
MSINK_OUT=bench/baselines/msink_500n.json
SERVE_OUT=bench/baselines/serve_500n.json

mkdir -p bench/baselines
"$BUILD_DIR/tools/dirqsim" sweep \
  --nodes 50 --epochs 20000 --theta atc --relevant 0.4 --seeds 42 \
  --mac instant,lmac --threads 1 --json "$OUT"
echo "baseline written to $OUT"

# (The PR-4 before/after ledger lives in the static
# bench/baselines/scale_500n_pre_refactor.json, never regenerated.)
"$BUILD_DIR/bench/bench_scale_topology" --nodes 500 --epochs 2000 \
  --field pinned --json "$SCALE_OUT"
echo "scale baseline written to $SCALE_OUT"

"$BUILD_DIR/bench/bench_scale_topology" --nodes 500,2000 --epochs 2000 \
  --field fast --json "$FAST_OUT"
echo "fast-field scale baseline written to $FAST_OUT"

"$BUILD_DIR/bench/bench_scale_topology" --nodes 2000 --epochs 2000 \
  --field fast --threads 0 --no-burst --json "$MT_OUT"
echo "parallel-epoch scale baseline written to $MT_OUT"

"$BUILD_DIR/bench/bench_scale_topology" --nodes 500 --epochs 2000 \
  --field fast --loss 0.15 --threads 1,0 --no-burst --json "$LOSSY_OUT"
echo "lossy scale baseline written to $LOSSY_OUT"

"$BUILD_DIR/bench/bench_lmac_overhead" --epochs 2000 --threads 1,0 \
  --json "$LMAC_THR_OUT"
echo "lmac threads baseline written to $LMAC_THR_OUT"

"$BUILD_DIR/bench/bench_multi_sink" --nodes 500 --sinks 1,4 --epochs 2000 \
  --threads 1,0 --json "$MSINK_OUT"
echo "multi-sink baseline written to $MSINK_OUT"

"$BUILD_DIR/bench/bench_serve_throughput" --nodes 500 --rates 20,100 \
  --sinks 1,4 --duration 2000 --json "$SERVE_OUT"
echo "serve baseline written to $SERVE_OUT"
