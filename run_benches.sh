#!/bin/bash
# Regenerates every table/figure of the paper (bench_output.txt).
# Paper figures use 10 runs (like the paper); ablations use 5.
cd "$(dirname "$0")"
out=bench_output.txt
# Benches measure timing shapes; under sanitizers (GS_SANITIZE=ON/asan/
# tsan) the numbers are meaningless and the sweeps are painfully slow —
# skip. The cache entry's type varies with how the value was set.
if grep -qsE "^GS_SANITIZE:[^=]*=(ON|on|asan|tsan|TRUE|true|1|yes)$" \
    build/CMakeCache.txt; then
  echo "sanitizer build detected (GS_SANITIZE set); skipping benches" | tee "$out"
  echo "ALL-BENCHES-DONE" >> "$out"
  exit 0
fi
: > "$out"
for b in build/bench/*; do
  case "$b" in
    */bench_fig*|*/bench_table1*) runs=10 ;;
    */bench_*) runs=5 ;;
    *) continue ;;
  esac
  # An external GS_RUNS overrides the per-bench default (CI uses 1).
  runs=${GS_RUNS:-$runs}
  echo "### $b (GS_RUNS=$runs)" >> "$out"
  # The datapath bench measures wall time; publish its raw points as JSON.
  # The netsim microbench does the same through google-benchmark's JSON
  # reporter (scaling evidence for the incremental solver, docs/PERF.md).
  json=
  case "$b" in
    */bench_adaptive) json=BENCH_adaptive.json ;;
    */bench_coded) json=BENCH_coded.json ;;
    */bench_micro_datapath) json=BENCH_datapath.json ;;
    */bench_micro_netsim) json=BENCH_netsim.json ;;
    */bench_micro_sched) json=BENCH_sched.json ;;
    */bench_multitenant) json=BENCH_multitenant.json ;;
    */bench_transport) json=BENCH_transport.json ;;
  esac
  # Figure/table benches also emit one observability RunReport each
  # (the bench's last run — see docs/OBSERVABILITY.md).
  report=
  case "$b" in
    */bench_fig*|*/bench_table1*) report=REPORT_$(basename "$b" | sed 's/^bench_//').json ;;
  esac
  GS_RUNS=$runs GS_BENCH_JSON=$json GS_BENCH_REPORT=$report "$b" >> "$out" 2>&1
  echo "### exit=$? $b" >> "$out"
  echo >> "$out"
done
echo "ALL-BENCHES-DONE" >> "$out"
