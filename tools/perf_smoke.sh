#!/usr/bin/env sh
# Perf smoke for CI: runs the guarded scale cells through
# bench_scale_topology and fails when wall-clock regresses more than 2x
# against the checked-in baselines:
#
#   * pinned 500n/2000e  vs bench/baselines/scale_500n_2000e.json
#   * fast   500n/2000e  vs bench/baselines/scale_500n_fast.json
#   * fast  2000n/2000e  vs bench/baselines/scale_500n_fast.json
#     (the fast-field large-topology guard cell: the counter backend is
#      the backend 2000-node-and-beyond runs use, so its asymptotics are
#      the ones worth guarding)
#   * fast  2000n/2000e --threads 0 vs bench/baselines/scale_2000n_fast_mt.json
#     (the intra-run parallel epoch engine on all cores; also guards the
#      pool itself — a deadlocked or serialised pool shows up as >2x)
#   * lossy 500n/2000e: the fast-field 500-node cell at loss 0.15, at
#     --threads 0 vs --threads 1 from the SAME bench_scale_topology run —
#     self-relative. The counter-keyed loss channel must not serialise
#     the parallel epoch engine: the all-cores row must be STRICTLY
#     faster than the sequential row on any multi-core runner (skipped on
#     1-core hosts, where --threads 0 resolves to 1 and the comparison is
#     vacuous).
#   * multi-sink 500n/2000e: 4 sinks (admission) vs 1 sink from the SAME
#     bench_multi_sink run — self-relative, so machine speed divides out.
#     The 3x budget bounds the N-tree overlay's cost: 4 trees quadruple
#     the update/flood planes but share one sensing plane, so a healthy
#     run lands well under 3x and a per-query rebuild or an O(N^2)
#     cross-tree scan shows up immediately.
#   * multi-sink parallel 500n/2000e: the 4-sink admission cell at
#     --threads 0 vs --threads 1 from the SAME bench_multi_sink run —
#     self-relative again. The tree-sharded epoch engine must make the
#     all-cores row STRICTLY faster than the sequential row on any
#     multi-core runner (skipped on 1-core hosts, where --threads 0
#     resolves to 1 and the comparison is vacuous); a serialised pool or
#     a merge path that re-does the shards' work shows up immediately.
#   * serve 500n/2000e: cache-on vs cache-off qps from the SAME
#     bench_serve_throughput run — self-relative and on the virtual
#     clock, so machine speed divides out entirely. Cache-on must answer
#     STRICTLY more queries per virtual second than cache-off at an
#     offered rate above the injection budget; a broken cache (always
#     missing, or no longer consulted) collapses the two to equality.
#
#   tools/perf_smoke.sh [build-dir]     (run from the repo root, against a
#                                        Release build)
#
# The 2x budget absorbs machine variance between the recording host and CI
# runners while still catching asymptotic regressions (the pre-spatial-
# index build could not place 500 nodes at all, and an accidental O(n^2)
# or sequential-RNG reintroduction shows up as >2x long before it reaches
# paper-figure runs).
#
# Every guard runs and prints its verdict (OK, FAIL or SKIP), so one
# failing guard does not hide the others. The script exits 1 when any
# guard failed, 2 when a row could not be extracted, and 0 otherwise.
set -eu

BUILD_DIR=${1:-build}
PINNED_BASELINE=bench/baselines/scale_500n_2000e.json
FAST_BASELINE=bench/baselines/scale_500n_fast.json
MT_BASELINE=bench/baselines/scale_2000n_fast_mt.json
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT
failed=0

# extract_run_seconds FILE NODES FIELD — first smooth row of a
# dirq.scale.v1 document matching the node count and backend.
extract_run_seconds() {
  grep '"run_seconds"' "$1" | grep "\"nodes\": $2," |
    grep "\"field\": \"$3\"" | grep '"workload": "smooth"' | head -n 1 |
    sed 's/.*"run_seconds": \([0-9.eE+-]*\),.*/\1/'
}

# run_cells NODES FIELD — one bench invocation, smooth cells only (the
# burst rows are part of the tracked surface but not of this guard, so CI
# does not pay for rows it ignores).
run_cells() {
  "$BUILD_DIR/bench/bench_scale_topology" --nodes "$1" --epochs 2000 \
    --field "$2" --no-burst --threads "${3:-1}" --json "$OUT" >/dev/null
}

# check BASELINE NODES FIELD — compare a cell of the last run_cells output.
check() {
  baseline_file=$1
  nodes=$2
  field=$3
  base=$(extract_run_seconds "$baseline_file" "$nodes" "$field")
  now=$(extract_run_seconds "$OUT" "$nodes" "$field")
  if [ -z "$base" ] || [ -z "$now" ]; then
    echo "perf_smoke: could not extract run_seconds for ${nodes}n/$field" \
         "(baseline='$base' now='$now')" >&2
    exit 2
  fi
  echo "perf_smoke: ${nodes}n/2000e/$field run_seconds now=$now baseline=$base (budget 2x)"
  awk -v now="$now" -v base="$base" -v label="${nodes}n/$field" 'BEGIN {
    if (now > 2.0 * base) {
      printf "perf_smoke: FAIL — %s: %.3fs exceeds 2x baseline %.3fs\n", label, now, base
      exit 1
    }
    printf "perf_smoke: OK %s (%.2fx of baseline)\n", label, now / base
  }'
}

run_cells 500 pinned
check "$PINNED_BASELINE" 500 pinned || failed=$((failed + 1))
run_cells 500,2000 fast
check "$FAST_BASELINE" 500 fast || failed=$((failed + 1))
check "$FAST_BASELINE" 2000 fast || failed=$((failed + 1))
# Intra-run parallel cell: all hardware threads on the epoch loop. The
# baseline was recorded sequentially, so any healthy multi-core runner
# lands well under budget; a pool regression (serialisation, contention,
# deadlock-adjacent slowdown) does not.
run_cells 2000 fast 0
check "$MT_BASELINE" 2000 fast || failed=$((failed + 1))

# Lossy parallel guard cell: the 500-node fast cell at loss 0.15, 1 worker
# vs all cores, from one bench run (self-relative, machine speed divides
# out). The "threads" key records the EFFECTIVE count, so the parallel row
# is "the lossy row whose threads != 1".
if [ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]; then
  "$BUILD_DIR/bench/bench_scale_topology" --nodes 500 --epochs 2000 \
    --field fast --loss 0.15 --threads 1,0 --no-burst --json "$OUT" \
    >/dev/null
  seq_s=$(grep '"run_seconds"' "$OUT" | grep '"loss": 0.15' |
    grep '"threads": 1,' | head -n 1 |
    sed 's/.*"run_seconds": \([0-9.eE+-]*\),.*/\1/')
  par_s=$(grep '"run_seconds"' "$OUT" | grep '"loss": 0.15' |
    grep -v '"threads": 1,' | head -n 1 |
    sed 's/.*"run_seconds": \([0-9.eE+-]*\),.*/\1/')
  if [ -z "$seq_s" ] || [ -z "$par_s" ]; then
    echo "perf_smoke: could not extract lossy run_seconds" \
         "(threads-1='$seq_s' threads-N='$par_s')" >&2
    exit 2
  fi
  echo "perf_smoke: 500n/2000e lossy run_seconds threads-1=$seq_s threads-N=$par_s (parallel must win)"
  awk -v seq="$seq_s" -v par="$par_s" 'BEGIN {
    if (par >= seq) {
      printf "perf_smoke: FAIL — lossy parallel %.3fs not faster than sequential %.3fs\n", par, seq
      exit 1
    }
    printf "perf_smoke: OK lossy parallel (%.2fx speedup)\n", seq / par
  }' || failed=$((failed + 1))
else
  echo "perf_smoke: SKIP lossy parallel guard (single-core host)"
fi

# Multi-sink guard cell: one bench run covering the 1-sink and 4-sink
# cells, compared against each other (dirq.msink.v1 rows).
extract_msink_seconds() {
  grep '"run_seconds"' "$1" | grep "\"sinks\": $2," |
    grep "\"routing\": \"$3\"" | head -n 1 |
    sed 's/.*"run_seconds": \([0-9.eE+-]*\),.*/\1/'
}

"$BUILD_DIR/bench/bench_multi_sink" --nodes 500 --sinks 1,4 --epochs 2000 \
  --json "$OUT" >/dev/null
one=$(extract_msink_seconds "$OUT" 1 "-")
four=$(extract_msink_seconds "$OUT" 4 "admission")
if [ -z "$one" ] || [ -z "$four" ]; then
  echo "perf_smoke: could not extract multi-sink run_seconds" \
       "(1-sink='$one' 4-sink='$four')" >&2
  exit 2
fi
echo "perf_smoke: 500n/2000e multi-sink run_seconds 1-sink=$one 4-sink=$four (budget 3x)"
awk -v one="$one" -v four="$four" 'BEGIN {
  if (four > 3.0 * one) {
    printf "perf_smoke: FAIL — 4-sink: %.3fs exceeds 3x 1-sink %.3fs\n", four, one
    exit 1
  }
  printf "perf_smoke: OK multi-sink (%.2fx of 1-sink)\n", four / one
}' || failed=$((failed + 1))

# Parallel multi-sink guard cell: the 4-sink admission cell at 1 worker vs
# all cores, from one bench run. The "threads" key records the EFFECTIVE
# count, so the parallel row is "the admission row whose threads != 1".
if [ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]; then
  "$BUILD_DIR/bench/bench_multi_sink" --nodes 500 --sinks 4 --epochs 2000 \
    --threads 1,0 --json "$OUT" >/dev/null
  seq_s=$(grep '"run_seconds"' "$OUT" | grep '"routing": "admission"' |
    grep '"threads": 1,' | head -n 1 |
    sed 's/.*"run_seconds": \([0-9.eE+-]*\),.*/\1/')
  par_s=$(grep '"run_seconds"' "$OUT" | grep '"routing": "admission"' |
    grep -v '"threads": 1,' | head -n 1 |
    sed 's/.*"run_seconds": \([0-9.eE+-]*\),.*/\1/')
  if [ -z "$seq_s" ] || [ -z "$par_s" ]; then
    echo "perf_smoke: could not extract parallel multi-sink run_seconds" \
         "(threads-1='$seq_s' threads-N='$par_s')" >&2
    exit 2
  fi
  echo "perf_smoke: 500n/2000e 4-sink run_seconds threads-1=$seq_s threads-N=$par_s (parallel must win)"
  awk -v seq="$seq_s" -v par="$par_s" 'BEGIN {
    if (par >= seq) {
      printf "perf_smoke: FAIL — 4-sink parallel %.3fs not faster than sequential %.3fs\n", par, seq
      exit 1
    }
    printf "perf_smoke: OK parallel multi-sink (%.2fx speedup)\n", seq / par
  }' || failed=$((failed + 1))
else
  echo "perf_smoke: SKIP parallel multi-sink guard (single-core host)"
fi

# Serve guard cell: one bench run covering the cache-off and cache-on
# cells at rate 20 / 1 sink (dirq.serve_bench.v1 rows); the invariant is
# on the virtual clock, so it is exact, not a wall budget.
extract_serve_qps() {
  grep '"qps"' "$1" | grep "\"cache\": $2" | head -n 1 |
    sed 's/.*"qps": \([0-9.eE+-]*\),.*/\1/'
}

"$BUILD_DIR/bench/bench_serve_throughput" --nodes 500 --rates 20 --sinks 1 \
  --duration 2000 --json "$OUT" >/dev/null
off=$(extract_serve_qps "$OUT" false)
on=$(extract_serve_qps "$OUT" true)
if [ -z "$off" ] || [ -z "$on" ]; then
  echo "perf_smoke: could not extract serve qps" \
       "(cache-off='$off' cache-on='$on')" >&2
  exit 2
fi
echo "perf_smoke: 500n/2000e serve qps cache-off=$off cache-on=$on (must be strictly higher)"
awk -v off="$off" -v on="$on" 'BEGIN {
  if (on <= off) {
    printf "perf_smoke: FAIL — serve cache-on qps %.3f <= cache-off %.3f\n", on, off
    exit 1
  }
  printf "perf_smoke: OK serve cache (%.2fx of cache-off)\n", on / off
}' || failed=$((failed + 1))

if [ "$failed" -gt 0 ]; then
  echo "perf_smoke: $failed guard(s) failed" >&2
  exit 1
fi
