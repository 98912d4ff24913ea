#!/usr/bin/env bash
# Cross-process determinism check for the parallel execution layer: runs the
# RAP and k-means test binaries at MTH_THREADS=1 and MTH_THREADS=8 and diffs
# their output. The suites assert exact solver results internally, so any
# thread-count-dependent behavior shows up either as a test failure or as a
# diff between the two runs (gtest timings are normalized away).
#
# The SIMD kernel layer gets the same treatment on a second axis: the suites
# that exercise mth::simd call sites (rap, cluster, simd, db, place) are also run
# with MTH_SIMD=scalar and MTH_SIMD=auto and diffed — the dispatch choice
# must be as unobservable as the thread count (simd.hpp contract).
#
# Usage: tools/check_determinism.sh [build-dir] [gtest-filter]
set -euo pipefail

BUILD_DIR="${1:-build}"
FILTER="${2:-*}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

normalize() {
  # Strip wall-clock noise: gtest "(N ms)" suffixes, logged durations like
  # "in 0.0123s", and the random-seed line. The duration pattern must not
  # fire inside identifiers (testcase names like nova_500s would otherwise
  # be mangled into nova_<t>s), so it requires a non-identifier character —
  # or line start — in front of the number and captures it back out.
  sed -E -e 's/\([0-9]+ ms( total)?\)//g' \
         -e 's/(^|[^_[:alnum:]])[0-9]+(\.[0-9]+)?(e-?[0-9]+)?( ?m?s\b)/\1<t>\4/g' \
         -e '/Random seed/d'
}

status=0

# Static gate first: the same invariants this script probes dynamically are
# checked lexically by mth_lint (tools/lint_smoke.sh) — a std::rand() or an
# unordered_map iteration in a deterministic subsystem fails here in
# milliseconds instead of as a 1-vs-8-thread diff minutes later. Skipped when
# the analyzer is not built (tests-only builds stay usable).
if [[ -x "$BUILD_DIR/tools/mth_lint" ]]; then
  SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  "$SCRIPT_DIR/lint_smoke.sh" "$BUILD_DIR" || status=1
else
  echo "[determinism] note: mth_lint not built, skipping lint smoke"
fi

for t in rap_test cluster_test util_test lp_test ilp_test verify_test \
         simd_test db_test; do
  bin="$BUILD_DIR/tests/$t"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
  echo "[determinism] $t: MTH_THREADS=1 ..."
  MTH_THREADS=1 "$bin" --gtest_filter="$FILTER" 2>&1 | normalize > "$TMP/$t.1"
  echo "[determinism] $t: MTH_THREADS=8 ..."
  MTH_THREADS=8 "$bin" --gtest_filter="$FILTER" 2>&1 | normalize > "$TMP/$t.8"
  if diff -u "$TMP/$t.1" "$TMP/$t.8" > "$TMP/$t.diff"; then
    echo "[determinism] $t: identical output at 1 and 8 threads"
  else
    echo "[determinism] $t: OUTPUT DIVERGED between thread counts:" >&2
    cat "$TMP/$t.diff" >&2
    status=1
  fi
done

# SIMD dispatch equivalence: forced-scalar vs runtime-detected kernels must
# be indistinguishable in every suite that reaches a mth::simd call site.
# (simd_test additionally compares the tiers in-process; this leg checks the
# process-level dispatch path end to end.)
for t in simd_test rap_test cluster_test db_test place_test; do
  bin="$BUILD_DIR/tests/$t"
  echo "[determinism] $t: MTH_SIMD=scalar ..."
  MTH_SIMD=scalar "$bin" --gtest_filter="$FILTER" 2>&1 | normalize > "$TMP/$t.scalar"
  echo "[determinism] $t: MTH_SIMD=auto ..."
  MTH_SIMD=auto "$bin" --gtest_filter="$FILTER" 2>&1 | normalize > "$TMP/$t.auto"
  if diff -u "$TMP/$t.scalar" "$TMP/$t.auto" > "$TMP/$t.simd.diff"; then
    echo "[determinism] $t: identical output at scalar and auto dispatch"
  else
    echo "[determinism] $t: OUTPUT DIVERGED between SIMD tiers:" >&2
    cat "$TMP/$t.simd.diff" >&2
    status=1
  fi
done

# Trace-summary determinism: a traced Flow (5) run must produce the same
# canonical summary (span names, span counts, counter values — timings
# stripped) at MTH_THREADS=1 and 8. The fixed chunk geometry of the parallel
# layer is exactly what makes this hold. The run includes routing, STA and
# CTS, so their spans and counters (route/maze_pops, ...) are diffed and
# checked against the registry too.
if [[ -x "$BUILD_DIR/tools/mth_flow" ]] && command -v python3 > /dev/null; then
  SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  echo "[determinism] mth_flow trace summary: MTH_THREADS=1 vs 8 ..."
  for n in 1 8; do
    MTH_THREADS=$n "$BUILD_DIR/tools/mth_flow" --testcase aes_360 --flow 5 \
      --scale 0.05 --ilp-seconds 5 --route \
      --trace-summary "$TMP/summary.$n.json" > /dev/null
    python3 "$SCRIPT_DIR/trace_schema_check.py" \
      --registry "$SCRIPT_DIR/trace_spans.json" \
      --canonical "$TMP/summary.$n.json" > "$TMP/summary.$n.canon"
  done
  if diff -u "$TMP/summary.1.canon" "$TMP/summary.8.canon" \
       > "$TMP/summary.diff"; then
    echo "[determinism] trace summary: canonical form identical at 1 and 8 threads"
  else
    echo "[determinism] trace summary: DIVERGED between thread counts:" >&2
    cat "$TMP/summary.diff" >&2
    status=1
  fi
else
  echo "[determinism] note: mth_flow or python3 unavailable, skipping trace summary check"
fi

# Sharded-RAP band sweep: the decomposition must be as thread-invariant as
# the whole-design path at every band count. Flow (5) with --shards 2/4/8 at
# MTH_THREADS=1 and 8, canonical trace summaries diffed per band count.
# The scale is picked per band count so that (a) banding actually engages —
# more bands need more row pairs before the per-band quota floors fit under
# N_minR — and (b) every band subproblem proves Optimal well inside the ILP
# deadline. Both matter: a fallback runs the whole-design solve, and any
# deadline-limited (status Feasible) solve explores however many nodes fit
# in the wall-clock budget, which is not comparable across runs at all (the
# same caveat the parallel bench records as deadline_limited). Each leg must
# contain the rap/shard span so an engagement regression cannot silently
# reduce the sweep to identical whole-design runs.
if [[ -x "$BUILD_DIR/tools/mth_flow" ]] && command -v python3 > /dev/null; then
  SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  for b in 2 4 8; do
    scale=0.1
    [[ "$b" -eq 8 ]] && scale=0.15
    echo "[determinism] mth_flow --shards $b (scale $scale) trace summary: MTH_THREADS=1 vs 8 ..."
    for n in 1 8; do
      MTH_THREADS=$n "$BUILD_DIR/tools/mth_flow" --testcase aes_300 --flow 5 \
        --scale "$scale" --ilp-seconds 5 --shards "$b" \
        --trace-summary "$TMP/shard.$b.$n.json" > /dev/null
      python3 "$SCRIPT_DIR/trace_schema_check.py" \
        --registry "$SCRIPT_DIR/trace_spans.json" \
        --canonical "$TMP/shard.$b.$n.json" > "$TMP/shard.$b.$n.canon"
    done
    if diff -u "$TMP/shard.$b.1.canon" "$TMP/shard.$b.8.canon" \
         > "$TMP/shard.$b.diff"; then
      echo "[determinism] --shards $b: canonical form identical at 1 and 8 threads"
    else
      echo "[determinism] --shards $b: DIVERGED between thread counts:" >&2
      cat "$TMP/shard.$b.diff" >&2
      status=1
    fi
    if grep -q "rap/shard" "$TMP/shard.$b.1.canon"; then
      echo "[determinism] --shards $b: banding engaged (rap/shard span present)"
    else
      echo "[determinism] --shards $b: banding DID NOT ENGAGE at scale $scale" >&2
      status=1
    fi
  done
else
  echo "[determinism] note: mth_flow or python3 unavailable, skipping band sweep"
fi

# External-design gate: the same LEF/DEF pairs integration_golden_test diffs
# in-process, checked end to end through the mth_flow CLI path.
#  * improver leg — `--improve` on an ingested pair must write a
#    bit-identical DEF at MTH_THREADS=1 and 8 (the linked-list improver is
#    sequential by construction; a thread-count diff means something upstream
#    in the flow leaked scheduling order into positions).
#  * golden leg — the plain external flow must reproduce the checked-in
#    golden DEF byte-for-byte. --ilp-seconds is set far above the solve time
#    so the RAP proves Optimal (a deadline-limited solve is not comparable
#    across machines, same caveat as the band sweep above).
SRC_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
GOLDEN_EXT="$SRC_DIR/tests/golden/ext"
if [[ -x "$BUILD_DIR/tools/mth_flow" && -f "$GOLDEN_EXT/aes_400.lef" ]]; then
  echo "[determinism] mth_flow external improver: MTH_THREADS=1 vs 8 ..."
  for n in 1 8; do
    MTH_THREADS=$n "$BUILD_DIR/tools/mth_flow" \
      --lef "$GOLDEN_EXT/aes_400.lef" --def "$GOLDEN_EXT/aes_400.in.def" \
      --flow 5 --ilp-seconds 1000 --improve \
      --out-def "$TMP/ext.improve.$n.def" > /dev/null
  done
  if cmp -s "$TMP/ext.improve.1.def" "$TMP/ext.improve.8.def"; then
    echo "[determinism] external improver: DEF bit-identical at 1 and 8 threads"
  else
    echo "[determinism] external improver: DEF DIVERGED between thread counts:" >&2
    diff -u "$TMP/ext.improve.1.def" "$TMP/ext.improve.8.def" | head -40 >&2
    status=1
  fi
  echo "[determinism] mth_flow external flow vs checked-in golden DEF ..."
  "$BUILD_DIR/tools/mth_flow" \
    --lef "$GOLDEN_EXT/aes_400.lef" --def "$GOLDEN_EXT/aes_400.in.def" \
    --flow 5 --ilp-seconds 1000 --out-def "$TMP/ext.flow.def" > /dev/null
  if cmp -s "$GOLDEN_EXT/aes_400.flow.defok" "$TMP/ext.flow.def"; then
    echo "[determinism] external flow: matches golden DEF byte-for-byte"
  else
    echo "[determinism] external flow: DIFFERS from aes_400.flow.defok:" >&2
    diff -u "$GOLDEN_EXT/aes_400.flow.defok" "$TMP/ext.flow.def" | head -40 >&2
    status=1
  fi
else
  echo "[determinism] note: mth_flow or tests/golden/ext unavailable, skipping external gate"
fi

# Serve leg: the same job run through the mth_flow CLI and as an mth_serve
# envelope must produce a bit-identical DEF and the same canonical trace
# summary — the server's per-job RunContext wiring is exactly the CLI's, so
# any divergence means server state leaked into a job. The envelope is
# submitted twice in one batch: the second response must be a cache hit that
# replays the first byte-for-byte (only the id and cache_hit fields differ).
if [[ -x "$BUILD_DIR/tools/mth_serve" && -x "$BUILD_DIR/tools/mth_flow" ]] \
     && command -v python3 > /dev/null; then
  SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  echo "[determinism] mth_serve vs mth_flow: aes_360 flow 5 ..."
  "$BUILD_DIR/tools/mth_flow" --testcase aes_360 --flow 5 --scale 0.05 \
    --ilp-seconds 5 --out-def "$TMP/cli.def" \
    --trace-summary "$TMP/cli.summary.json" > /dev/null
  mkdir -p "$TMP/serve_def" "$TMP/serve_trace"
  job='{"mth_ser_version": 1, "kind": "job", "id": "IDVAL", "testcase": "aes_360", "flow": 5, "options": {"mth_ser_version": 1, "kind": "flow_options", "scale": 0.05, "rap": {"mth_ser_version": 1, "kind": "rap_options", "ilp": {"time_limit_s": 5}}}}'
  { printf '%s\n' "${job/IDVAL/serve1}"; printf '%s\n' "${job/IDVAL/serve2}"; } \
    | "$BUILD_DIR/tools/mth_serve" --dump-def "$TMP/serve_def" \
        --dump-trace "$TMP/serve_trace" > "$TMP/serve.responses"
  if cmp -s "$TMP/cli.def" "$TMP/serve_def/serve1.def"; then
    echo "[determinism] serve: DEF bit-identical to the CLI"
  else
    echo "[determinism] serve: DEF DIVERGED from the CLI:" >&2
    diff -u "$TMP/cli.def" "$TMP/serve_def/serve1.def" | head -40 >&2
    status=1
  fi
  python3 "$SCRIPT_DIR/trace_schema_check.py" \
    --registry "$SCRIPT_DIR/trace_spans.json" \
    --canonical "$TMP/cli.summary.json" > "$TMP/cli.summary.canon"
  python3 "$SCRIPT_DIR/trace_schema_check.py" \
    --registry "$SCRIPT_DIR/trace_spans.json" \
    --canonical "$TMP/serve_trace/serve1.trace" > "$TMP/serve.summary.canon"
  if diff -u "$TMP/cli.summary.canon" "$TMP/serve.summary.canon" \
       > "$TMP/serve.summary.diff"; then
    echo "[determinism] serve: canonical trace summary identical to the CLI"
  else
    echo "[determinism] serve: trace summary DIVERGED from the CLI:" >&2
    cat "$TMP/serve.summary.diff" >&2
    status=1
  fi
  if [[ "$(wc -l < "$TMP/serve.responses")" -eq 2 ]] \
       && grep -q '"id":"serve2","status":"ok","cache_hit":true' \
            "$TMP/serve.responses"; then
    sed -e 's/"id":"serve[12]"/"id":"X"/' -e 's/"cache_hit":true/"cache_hit":false/' \
      "$TMP/serve.responses" > "$TMP/serve.responses.norm"
    if [[ "$(sort -u "$TMP/serve.responses.norm" | wc -l)" -eq 1 ]]; then
      echo "[determinism] serve: cache-hit replay bit-identical"
    else
      echo "[determinism] serve: cache-hit replay DIVERGED:" >&2
      sort -u "$TMP/serve.responses.norm" | head -4 >&2
      status=1
    fi
  else
    echo "[determinism] serve: second response was not a cache hit" >&2
    status=1
  fi
else
  echo "[determinism] note: mth_serve, mth_flow or python3 unavailable, skipping serve leg"
fi

if [[ $status -eq 0 ]]; then
  echo "[determinism] OK"
else
  echo "[determinism] FAILED" >&2
fi

# Performance smoke ride-along: the sparse-vs-dense objective gate shares this
# script's CI slot. Skipped when the bench binary is not built (tests-only
# builds stay usable).
if [[ -x "$BUILD_DIR/bench/bench_fig5_ilp_scaling" ]]; then
  SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  "$SCRIPT_DIR/perf_smoke.sh" "$BUILD_DIR" || status=1
else
  echo "[determinism] note: bench_fig5_ilp_scaling not built, skipping perf smoke"
fi

# Differential fuzz ride-along: seeded mth_fuzz iterations + optional ASan
# pass over the verification suites (tools/fuzz_smoke.sh). Same skip rule.
if [[ -x "$BUILD_DIR/tools/mth_fuzz" ]]; then
  SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
  "$SCRIPT_DIR/fuzz_smoke.sh" "$BUILD_DIR" || status=1
else
  echo "[determinism] note: mth_fuzz not built, skipping fuzz smoke"
fi
exit $status
