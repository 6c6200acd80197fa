#!/usr/bin/env sh
# Byte-for-byte transcript of the dirqsim CLI: runs a fixed list of valid
# invocations of every mode and compares their stdout, exit status and
# --json documents with the checked-in transcript.
#
#   tests/tools/dirqsim_cli_golden.sh DIRQSIM EXPECTED WORKDIR
#
# Every flag each mode accepts appears in at least one case. The cases
# include shrunk copies of the CI smokes, the README examples and
# record_baseline.sh's sweep call. stderr (progress, thread counts, file
# paths) is not compared, and no case uses --threads 0, whose row prints
# the host's core count.
#
# On a mismatch the actual transcript stays at WORKDIR/dirqsim_cli.txt;
# copying it over EXPECTED regenerates the golden.
set -eu

# Absolute paths: the cases run inside WORKDIR, so --json writes
# out.json there and --trace reads a copy of the fixture, and the
# transcript holds no machine paths.
abs() { case $1 in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
DIRQSIM=$(abs "$1")
EXPECTED=$(abs "$2")
WORK=$(abs "$3")
ACTUAL=$WORK/dirqsim_cli.txt

mkdir -p "$WORK"
cp "$(dirname "$0")/serve_trace.tsv" "$WORK/"
cd "$WORK"
: > "$ACTUAL"

# run ARGS...: one case.
run() {
  echo "\$ dirqsim $*" >> "$ACTUAL"
  rm -f out.json
  status=0
  "$DIRQSIM" "$@" >> "$ACTUAL" 2> /dev/null || status=$?
  echo "[exit $status]" >> "$ACTUAL"
  if [ -f out.json ]; then
    echo "[json]" >> "$ACTUAL"
    cat out.json >> "$ACTUAL"
  fi
}

# Single runs.
run --nodes 20 --epochs 300 --seed 7 --theta 5
run --nodes 20 --epochs 300 --seed 7 --loss 0.2 --series
run --nodes 50 --epochs 400 --relevant 0.4 --atc
run --nodes 20 --epochs 300 --theta 5 --loss 0.1 --series
run --mac lmac --nodes 20 --epochs 300 --seed 7
run --mac lmac --nodes 20 --epochs 300 --seed 7 --theta 5 --threads 4
run --mac lmac --nodes 20 --epochs 300 --seed 7 --theta 5 --multi-frac 0.5 \
    --multi-count 2
run --nodes 80 --epochs 200 --seed 7 --theta 5
run --field fast --nodes 80 --epochs 200 --seed 7 --theta 5
run --nodes 40 --epochs 200 --seed 7 --theta 5 --sinks 4 --threads 2
run --nodes 20 --epochs 300 --seed 7 --theta 5 --sinks 0,7,13 --routing roundrobin
run --nodes 20 --epochs 300 --seed 7 --theta 5 --multi-frac 0.5 --multi-count 2
run --nodes 30 --epochs 300 --seed 7 --sampling 0.5 --loss 0.1 --relevant 0.3 \
    --query-period 10 --burst 40/60 --routing admission --sinks 2
run --nodes 100 --nodes 20 --epochs 200 --seed 1 --seed 7 --theta 3 --atc \
    --theta 5 --burst 10/10 --burst smooth --mac lmac --mac instant

# Sweeps.
run sweep --nodes 20 --epochs 300 --theta atc,5 --relevant 0.2,0.4 \
    --mac instant,lmac --threads 4
run sweep --nodes 50 --epochs 300 --theta atc --relevant 0.4 --seeds 42 \
    --mac instant,lmac --threads 1 --json out.json --no-timing
run sweep --nodes 20 --epochs 200 --theta 5 --field pinned,fast --sinks 1,2 \
    --burst smooth,40/60 --loss 0,0.1 --seeds 1,2 --query-period 10 \
    --threads 2 --tsv --json out.json --no-timing
run sweep --paper-grid --nodes 20 --epochs 200 --threads 2 --json out.json \
    --no-timing
run sweep --scale-tier --field fast --epochs 25 --query-period 10 --theta 5 \
    --threads 2

# Serve.
run serve --nodes 20 --rate 50 --duration 300 --seed 7 --theta 5
run serve --nodes 20 --rate 50 --duration 300 --seed 7 --theta 5 --sinks 4 \
    --cache off --arrivals burst
run serve --nodes 30 --rate 100 --duration 300 --arrivals burst \
    --burst 50/150 --sinks 4
run serve --nodes 20 --rate 50 --duration 300 --cache off --json out.json
run serve --nodes 30 --duration 300 --rate 20 --seed 3 --theta 5 --atc \
    --relevant 0.3 --field fast --threads 2 --cache on --cache-entries 64 \
    --stale 8 --max-inject 2 --inject-period 2 --queue 100 --pool 16 \
    --subset-frac 0.5 --multi-frac 0.2 --multi-count 2 --pace 1e6 \
    --sinks 0,5,9 --routing roundrobin --arrivals poisson --json out.json
run serve --nodes 20 --duration 30 --trace serve_trace.tsv --theta 5 \
    --json out.json

if cmp -s "$EXPECTED" "$ACTUAL"; then
  echo "dirqsim CLI transcript matches $EXPECTED"
  exit 0
fi
diff -u "$EXPECTED" "$ACTUAL" | head -n 80 || true
echo "dirqsim CLI transcript differs; actual transcript: $ACTUAL"
exit 1
