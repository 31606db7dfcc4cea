#!/usr/bin/env sh
# Rebuild everything, run the full test suite and every paper-reproduction
# benchmark, and capture the outputs at the repository root.
#
# SOCPOWER_THREADS sets the worker-thread count for the parallel
# exploration paths (default: one per hardware thread). Energies are
# bit-identical for any value; only wall-clock changes.
#
# SOCPOWER_ISS_RUNS sets the invocations per kernel for the ISS throughput
# benchmark (bench_iss_throughput); results are bit-identical for any value.
#
# SOCPOWER_SERVE_SOCKET / SOCPOWER_SERVE_THREADS place the session-server
# pass's socket and size its worker pool (defaults below); bit-identical too.
set -e
cd "$(dirname "$0")/.."

SOCPOWER_THREADS="${SOCPOWER_THREADS:-$(nproc 2>/dev/null || echo 1)}"
export SOCPOWER_THREADS

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Benchmarks that persist headline numbers (speedups, hit rates, git sha)
# write BENCH_<name>.json into this directory; see bench_common.hpp.
SOCPOWER_BENCH_JSON_DIR="$(pwd)"
export SOCPOWER_BENCH_JSON_DIR

for b in build/bench/*; do "$b"; done 2>&1 | tee bench_output.txt

echo
echo "benchmark json results:"
for j in BENCH_*.json; do
  [ -f "$j" ] && { echo "-- $j"; cat "$j"; }
done

./build/examples/explore_tcpip 2 64 "$SOCPOWER_THREADS" 2>&1 \
  | tee explore_output.txt

# Same exploration with every HW estimator behind a forked worker process:
# results must match the in-process run above bit for bit.
SOCPOWER_HW_REMOTE=1 ./build/examples/explore_tcpip 2 64 \
  "$SOCPOWER_THREADS" 2>&1 | tee explore_remote_output.txt

# Three-tier funnel: the calibrated analytical backend prefilters the DMA
# sweep before the coarse ranking and exact verification. The recommended
# winner must match the two-phase runs above.
SOCPOWER_HW_ANALYTICAL=1 SOCPOWER_ANALYTICAL_PREFILTER=3 \
  ./build/examples/explore_tcpip 2 64 "$SOCPOWER_THREADS" 2>&1 \
  | tee explore_analytical_output.txt

# Multicore pass: the N-core scenario family over 1/2/4 cores on both
# interconnects (co- vs separate-estimated energy, then the two-phase
# (cores, interconnect) exploration). bench_noc_contention already ran in
# the bench loop above and persisted BENCH_noc_contention.json; this run
# exercises the same family through the threaded explorer surface.
./build/examples/multicore_sweep 6 "$SOCPOWER_THREADS" 2>&1 \
  | tee multicore_output.txt

# Session-server pass: a socpower_serve daemon, then the client demo twice
# against it — the second client's "cold" sweep starts warm because the
# daemon kept the session alive. The daemon prints its serve.* counter
# table when it stops.
SOCPOWER_SERVE_SOCKET="${SOCPOWER_SERVE_SOCKET:-/tmp/socpower_experiments.sock}"
export SOCPOWER_SERVE_SOCKET
SOCPOWER_SERVE_THREADS="${SOCPOWER_SERVE_THREADS:-$SOCPOWER_THREADS}"
export SOCPOWER_SERVE_THREADS
./build/src/serve/socpower_serve > serve_output.txt 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
i=0
while [ ! -S "$SOCPOWER_SERVE_SOCKET" ] && [ "$i" -lt 50 ]; do
  i=$((i + 1)); sleep 0.1
done
./build/examples/client_sweep 2>&1 | tee -a serve_output.txt
./build/examples/client_sweep 2>&1 | tee -a serve_output.txt
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
trap - EXIT

echo
echo "shape checks:"
grep -c "SHAPE CHECK: PASS" bench_output.txt || true
if grep -q "SHAPE CHECK: FAIL" bench_output.txt; then
  echo "SHAPE CHECK FAILURES PRESENT" >&2
  exit 1
fi
