#!/usr/bin/env bash
# Performance smoke test for the sparse RAP ILP (P3): runs
# bench_fig5_ilp_scaling on the two smallest bundled testcases, which solves
# every case dense-cold (max_cand_rows=0, cold simplex per node) and
# sparse-warm (candidate pruning + warm-basis dual re-solves) and exits
# nonzero when the sparse objective deviates from the dense one beyond the
# configured window (MTH_SPARSE_GAP, default 2x the ILP rel_gap) on any
# gap-proven case. The bench also re-checks the 1-vs-8-thread bit-identical
# guarantee internally.
#
# Also runs the P4 kernel before/after harness (bench_micro_kernels): the
# f_cr cost-matrix kernel must beat its pre-SIMD reference implementation
# (speedup gate scale-dependent, see the bench header) with bit-identical
# outputs.
#
# Also runs the P5 sharded-RAP harness (bench_scaling) on one testcase at a
# scale where banding engages: every case must run with more than one band,
# the sharded objective must stay within the decomposition window of the
# whole-design solve, and the merged result must certify through the
# per-band aggregation path and be bit-identical across thread counts.
#
# Also runs the serving harness (bench_serve): cache replay, warm ECO and
# server-vs-CLI identity.
#
# Every bench gate is the bench's own exit code; the benches write no files.
#
# Also smokes the mth::trace observability layer: a traced Flow (5) run via
# mth_flow --trace/--trace-summary, with both JSON artifacts validated against
# the schema in tools/trace_schema_check.py. Skipped when mth_flow or python3
# is unavailable (bench-only builds stay usable).
#
# Usage: tools/perf_smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BIN="$BUILD_DIR/bench/bench_fig5_ilp_scaling"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (run: cmake --build $BUILD_DIR)" >&2
  exit 2
fi
BIN="$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")"
FLOW_BIN=""
if [[ -x "$BUILD_DIR/tools/mth_flow" ]]; then
  FLOW_BIN="$(cd "$BUILD_DIR/tools" && pwd)/mth_flow"
fi

: "${MTH_CASES:=2}"
export MTH_CASES

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

echo "[perf-smoke] $BIN (MTH_CASES=$MTH_CASES)"
if "$BIN"; then
  echo "[perf-smoke] OK"
else
  echo "[perf-smoke] FAILED: sparse objective outside the allowed window" >&2
  exit 1
fi

# Kernel before/after harness: speedup + identity gates.
KBIN="$(dirname "$BIN")/bench_micro_kernels"
if [[ -x "$KBIN" ]]; then
  echo "[perf-smoke] $KBIN (kernel before/after)"
  if ! "$KBIN"; then
    echo "[perf-smoke] FAILED: kernel speedup/identity gate" >&2
    exit 1
  fi
else
  echo "[perf-smoke] note: bench_micro_kernels not built, skipping kernel gate"
fi

# Sharded-RAP harness: banding/window/identity/certification gates. One case
# at scale 0.1 — large enough that 4 bands engage (smaller instances fall
# back whole-design by design), small enough to stay in smoke-test territory.
SBIN="$(dirname "$BIN")/bench_scaling"
if [[ -x "$SBIN" ]]; then
  echo "[perf-smoke] $SBIN (sharded RAP vs whole-design)"
  if ! MTH_SCALE=0.1 MTH_CASES=1 MTH_ILP_SECONDS=10 MTH_SHARDS=4 "$SBIN"; then
    echo "[perf-smoke] FAILED: sharded banding/window/identity/certification gate" >&2
    exit 1
  fi
else
  echo "[perf-smoke] note: bench_scaling not built, skipping sharded gate"
fi

# Serving harness: cache-replay (>= 10x), warm-ECO (fewer LP iterations,
# break-even or better wall clock) and server-vs-CLI identity gates. Two
# cases keep the identity sweep in smoke-test territory — the committed
# EXPERIMENTS run covers all 26.
VBIN="$(dirname "$BIN")/bench_serve"
if [[ -x "$VBIN" ]]; then
  echo "[perf-smoke] $VBIN (serve: cache replay / warm ECO / identity)"
  if ! MTH_CASES=2 "$VBIN"; then
    echo "[perf-smoke] FAILED: serve cache/eco/identity gate" >&2
    exit 1
  fi
else
  echo "[perf-smoke] note: bench_serve not built, skipping serve gate"
fi

# Traced-flow smoke: both exporters must produce schema-valid JSON.
if [[ -n "$FLOW_BIN" ]] && command -v python3 > /dev/null; then
  echo "[perf-smoke] traced flow: $FLOW_BIN --flow 5 --trace/--trace-summary"
  "$FLOW_BIN" --testcase aes_360 --flow 5 --scale 0.05 --ilp-seconds 5 \
    --trace "$TMP/trace.json" --trace-summary "$TMP/summary.json" > /dev/null
  if python3 "$SCRIPT_DIR/trace_schema_check.py" \
       --registry "$SCRIPT_DIR/trace_spans.json" \
       --trace "$TMP/trace.json" --summary "$TMP/summary.json"; then
    echo "[perf-smoke] trace artifacts OK"
  else
    echo "[perf-smoke] FAILED: trace artifacts violate the schema" >&2
    exit 1
  fi
else
  echo "[perf-smoke] note: mth_flow or python3 unavailable, skipping trace smoke"
fi
