#!/bin/sh
# Regenerates every paper table/figure plus the substrate micro-benchmarks.
# The perf_* harnesses are CI gates, not figures: they write JSON reports (and
# perf_serve a perf_serve_store/) into the working directory, so run them
# explicitly.
#
# Each figure harness warms the shared memoized cache (gpuqos_bench_cache/,
# override with GPUQOS_BENCH_CACHE) through the parallel sweep pool before
# printing, so a harness runs the simulations it needs concurrently and later
# harnesses reuse the cached files. Thread count comes from GPUQOS_THREADS
# (default: all hardware threads).
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  case "$b" in
    */perf_*) continue ;;
  esac
  echo "### $b"
  "$b"
  echo
done
