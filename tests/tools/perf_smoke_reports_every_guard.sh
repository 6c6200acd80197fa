#!/usr/bin/env sh
# tools.perf_smoke_reports_every_guard: tools/perf_smoke.sh reports a
# verdict for each of its 8 guards, even after one fails.
#
#   tests/tools/perf_smoke_reports_every_guard.sh STUB_DIR
#
# Run from the repo root: perf_smoke.sh reads bench/baselines/. STUB_DIR
# is recreated as a stand-in build dir whose bench_scale_topology,
# bench_multi_sink and bench_serve_throughput are shell stubs that copy
# canned rows to their --json file. In those rows the first guard (pinned
# 500n, 10 s against a 0.33 s baseline) fails and every other guard
# passes, so the script must print 8 verdicts (SKIP counts, for the two
# parallel guards on a 1-core host) and exit 1.
set -eu

STUB=$1
rm -rf "$STUB"
mkdir -p "$STUB/bench"

# make_stub NAME: bench/NAME copies bench/NAME.rows to its --json FILE.
make_stub() {
  cat > "$STUB/bench/$1" <<'EOF'
#!/usr/bin/env sh
rows="$0.rows"
while [ $# -gt 0 ]; do
  if [ "$1" = --json ]; then cp "$rows" "$2"; fi
  shift
done
EOF
  chmod +x "$STUB/bench/$1"
}

make_stub bench_scale_topology
cat > "$STUB/bench/bench_scale_topology.rows" <<'EOF'
{"nodes": 500, "workload": "smooth", "field": "pinned", "threads": 1, "loss": 0, "run_seconds": 10.0, "updates": 1},
{"nodes": 500, "workload": "smooth", "field": "fast", "threads": 1, "loss": 0, "run_seconds": 0.1, "updates": 1},
{"nodes": 2000, "workload": "smooth", "field": "fast", "threads": 1, "loss": 0, "run_seconds": 0.5, "updates": 1},
{"nodes": 500, "workload": "smooth", "field": "fast", "threads": 1, "loss": 0.15, "run_seconds": 0.2, "updates": 1},
{"nodes": 500, "workload": "smooth", "field": "fast", "threads": 4, "loss": 0.15, "run_seconds": 0.1, "updates": 1}
EOF

make_stub bench_multi_sink
cat > "$STUB/bench/bench_multi_sink.rows" <<'EOF'
{"sinks": 1, "routing": "-", "threads": 1, "run_seconds": 0.1, "updates": 1},
{"sinks": 4, "routing": "admission", "threads": 1, "run_seconds": 0.2, "updates": 1},
{"sinks": 4, "routing": "admission", "threads": 4, "run_seconds": 0.1, "updates": 1}
EOF

make_stub bench_serve_throughput
cat > "$STUB/bench/bench_serve_throughput.rows" <<'EOF'
{"cache": false, "qps": 10.0, "shed": 1},
{"cache": true, "qps": 20.0, "shed": 0}
EOF

status=0
out=$(sh tools/perf_smoke.sh "$STUB" 2>&1) || status=$?
printf '%s\n' "$out"

fail() {
  echo "perf_smoke_reports_every_guard: $1" >&2
  exit 1
}
[ "$status" -eq 1 ] || fail "exit status $status, want 1"
verdicts=$(printf '%s\n' "$out" | grep -c '^perf_smoke: \(OK\|FAIL\|SKIP\) ' || true)
[ "$verdicts" -eq 8 ] || fail "$verdicts verdict lines, want 8"
fails=$(printf '%s\n' "$out" | grep -c '^perf_smoke: FAIL ' || true)
[ "$fails" -eq 1 ] || fail "$fails FAIL verdicts, want 1"
printf '%s\n' "$out" | grep -q '^perf_smoke: FAIL — 500n/pinned' ||
  fail "the pinned 500n guard did not fail"
echo "perf_smoke_reports_every_guard: OK"
