#pragma once
// mth::simd — portable fixed-width vector kernel layer for the flow's
// per-core hot loops (f_cr cost-matrix build, k-means nearest-centroid
// search, the global placer's CG vector passes).
//
// Determinism contract (the part that makes SIMD admissible in a codebase
// whose golden tests pin bit-exact metrics):
//
//  * Every kernel is *elementwise*: lane j of a block computes exactly the
//    IEEE-754 operation sequence the scalar fallback runs for element j.
//    Vectorizing never reassociates an accumulation across lanes.
//  * Reductions (argmin / sums) are never done with horizontal vector
//    instructions (hadd / reduce intrinsics reassociate in lane-shuffle
//    order); lanes are merged *in index order* by scalar code, so a strict
//    `<` keeps the earliest minimum exactly like a serial scan. The
//    `simd-merge` lint rule enforces lexically that no vector intrinsics
//    (and no horizontal-add anywhere) appear outside this module.
//  * The kernel translation unit is compiled with FP contraction off, so
//    neither path can fuse a*b+c into an FMA the other path doesn't run.
//
// Consequently the AVX2 and scalar tiers return bit-identical buffers and
// the dispatch choice is unobservable in any flow metric — CI runs one leg
// with -mavx2 and one with MTH_SIMD=scalar against the same golden files.
//
// Dispatch: each kernel is one function pointer in the `Kernels` table,
// resolved once per process from the MTH_SIMD environment variable
// ("scalar", "avx2", or "auto"/unset = runtime CPUID detection) — no
// per-call branching on the tier in the hot loops.

#include <cstddef>

namespace mth::simd {

/// Implementation tiers, lowest to highest. Scalar is always available and
/// is the semantic reference; wider tiers must match it bit-for-bit.
enum class Tier {
  Scalar,
  Avx2,
};

/// Stable lowercase tier name ("scalar", "avx2") for logs and JSON.
const char* tier_name(Tier tier);

/// Highest tier this CPU supports (CPUID probe, environment-independent).
Tier detect_tier();

/// The process-wide active tier: MTH_SIMD env ("scalar" / "avx2" / "auto")
/// clamped to detect_tier(), resolved once on first call. An unsupported
/// request falls back to the best supported tier rather than failing.
Tier active_tier();

/// The fixed block width (doubles per vector register at the widest
/// supported tier). Part of the determinism contract only in that tail
/// elements run the same elementwise ops — block geometry never changes
/// results, unlike thread-chunk geometry.
inline constexpr int kLanes = 4;

/// Vector kernel table. All kernels are elementwise over `n` (see the
/// header comment); `n == 0` is a no-op and buffers may not alias unless a
/// parameter is documented as an in/out accumulator.
struct Kernels {
  /// dh[i] += (max(hi, y[i]) - min(lo, y[i])) - span
  /// The per-net Δspan term of the RAP f_cr cost matrix (rap.hpp Eq. 2):
  /// the y-span of a net if the probed cell moved to y[i], minus its
  /// current span, with the cell's own contribution already removed from
  /// [lo, hi] by the caller. All inputs are integers-in-double (exact), so
  /// the accumulation order across nets is value-irrelevant.
  void (*span_delta)(const double* y, std::size_t n, double lo, double hi,
                     double span, double* dh);

  /// dh[i] = (max(hi, y[i]) - min(lo, y[i])) - span
  /// span_delta for the *first* net of a cell: writes instead of
  /// accumulating, so the per-cell scratch buffer never needs a zero-fill
  /// pass. 0 + x == x exactly for these inputs (integer subtraction never
  /// produces -0.0), so init-then-accumulate matches fill-then-accumulate
  /// bit-for-bit.
  void (*span_delta_init)(const double* y, std::size_t n, double lo,
                          double hi, double span, double* dh);

  /// out[i] += alpha * |y[i] - yc| + beta * dh[i]
  /// The f_cr combine step: displacement term plus the net-summed Δspan
  /// buffer, matching the scalar expression shape term-for-term.
  void (*cost_combine)(const double* y, const double* dh, std::size_t n,
                       double yc, double alpha, double beta, double* out);

  /// d2[j] = (cx[idx[j]] - px)^2 + (cy[idx[j]] - py)^2
  /// Gathered squared distances for a candidate index list (k-means
  /// bucket-grid rings over SoA centroid arrays). The caller merges d2 in
  /// index order (argmin_merge) to preserve first-minimum semantics.
  void (*gather_dist2)(const double* cx, const double* cy, const int* idx,
                       std::size_t n, double px, double py, double* d2);

  /// x[i] += alpha * p[i];  r[i] = r[i] - alpha * ap[i];
  /// z[i] = d[i] > d_floor ? r[i] / d[i] : r[i]
  /// The update pass of the global placer's Jacobi-preconditioned CG
  /// (place/gp_kernels). It also writes r.r to *rr and r.z to *rz, each
  /// summed in index order into one accumulator that starts at +0.0: the
  /// products are elementwise and the sums are merged lane by lane in
  /// scalar code, so both equal a plain serial loop's. n == 0 writes +0.0
  /// to both sums.
  void (*cg_update)(const double* p, const double* ap, const double* d,
                    std::size_t n, double alpha, double d_floor, double* x,
                    double* r, double* z, double* rr, double* rz);

  /// p[i] = z[i] + beta * p[i];  ap[i] = d[i] * p[i]
  /// The CG direction pass: the new search direction and the diagonal part
  /// of the next A p, which the caller's edge scatter completes.
  void (*cg_direction)(const double* z, const double* d, std::size_t n,
                       double beta, double* p, double* ap);
};

/// Kernel table for an explicit tier (tests compare tiers in-process).
const Kernels& kernels_for(Tier tier);

/// Kernel table for active_tier() — the one call sites use.
const Kernels& kernels();

/// In-index-order lane merge for argmin reductions: scan d2[0..n) serially
/// and keep the first strict minimum, exactly like a scalar candidate loop.
/// `best_d2`/`best` are in/out so ring scans can merge block after block.
/// This is the one sanctioned way to reduce a vector kernel's output to a
/// winner — see the determinism contract above.
inline void argmin_merge(const double* d2, const int* idx, std::size_t n,
                         double& best_d2, int& best) {
  for (std::size_t j = 0; j < n; ++j) {
    if (d2[j] < best_d2) {
      best_d2 = d2[j];
      best = idx[j];
    }
  }
}

}  // namespace mth::simd
