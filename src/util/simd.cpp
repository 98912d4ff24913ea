// mth::simd kernel implementations. One translation unit holds every tier:
// the AVX2 bodies carry __attribute__((target("avx2"))) so no special
// compile flags are needed, and CMake pins -ffp-contract=off on this file so
// the scalar bodies cannot be contracted into FMAs the vector bodies (which
// use explicit mul/add intrinsics, never fused) don't execute. See
// mth/util/simd.hpp for the full determinism contract.

#include "mth/util/simd.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define MTH_SIMD_X86 1
#else
#define MTH_SIMD_X86 0
#endif

namespace mth::simd {
namespace {

// --- scalar tier (the semantic reference) -----------------------------------

void span_delta_scalar(const double* y, std::size_t n, double lo, double hi,
                       double span, double* dh) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = std::max(hi, y[i]) - std::min(lo, y[i]);
    dh[i] += s - span;
  }
}

void span_delta_init_scalar(const double* y, std::size_t n, double lo,
                            double hi, double span, double* dh) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = std::max(hi, y[i]) - std::min(lo, y[i]);
    dh[i] = s - span;
  }
}

void cost_combine_scalar(const double* y, const double* dh, std::size_t n,
                         double yc, double alpha, double beta, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double disp = std::fabs(y[i] - yc);
    out[i] += alpha * disp + beta * dh[i];
  }
}

void gather_dist2_scalar(const double* cx, const double* cy, const int* idx,
                         std::size_t n, double px, double py, double* d2) {
  for (std::size_t j = 0; j < n; ++j) {
    const int c = idx[j];
    const double dx = cx[c] - px;
    const double dy = cy[c] - py;
    d2[j] = dx * dx + dy * dy;
  }
}

/// cg_update over [i, n), adding to the running in-order sums; the AVX2 tier
/// runs its tail through this too.
void cg_update_from(std::size_t i, const double* p, const double* ap,
                    const double* d, std::size_t n, double alpha,
                    double d_floor, double* x, double* r, double* z,
                    double& rr, double& rz) {
  for (; i < n; ++i) {
    x[i] += alpha * p[i];
    const double ri = r[i] - alpha * ap[i];
    const double zi = d[i] > d_floor ? ri / d[i] : ri;
    r[i] = ri;
    z[i] = zi;
    rr = rr + ri * ri;
    rz = rz + ri * zi;
  }
}

void cg_update_scalar(const double* p, const double* ap, const double* d,
                      std::size_t n, double alpha, double d_floor, double* x,
                      double* r, double* z, double* rr, double* rz) {
  double sum_rr = 0.0, sum_rz = 0.0;
  cg_update_from(0, p, ap, d, n, alpha, d_floor, x, r, z, sum_rr, sum_rz);
  *rr = sum_rr;
  *rz = sum_rz;
}

void cg_direction_scalar(const double* z, const double* d, std::size_t n,
                         double beta, double* p, double* ap) {
  for (std::size_t i = 0; i < n; ++i) {
    const double pi = z[i] + beta * p[i];
    p[i] = pi;
    ap[i] = d[i] * pi;
  }
}

constexpr Kernels kScalarKernels{span_delta_scalar,  span_delta_init_scalar,
                                 cost_combine_scalar, gather_dist2_scalar,
                                 cg_update_scalar,    cg_direction_scalar};

// --- AVX2 tier --------------------------------------------------------------
//
// Every block body is the elementwise image of its scalar counterpart:
// vmaxpd/vminpd/vsubpd/vmulpd/vaddpd per lane, explicit mul+add (never
// vfmadd), |x| as a sign-bit mask clear — the same IEEE operation sequence
// per element, so outputs are bit-identical to the scalar tier. Tails run
// the scalar body verbatim.

#if MTH_SIMD_X86

__attribute__((target("avx2"))) void span_delta_avx2(const double* y,
                                                     std::size_t n, double lo,
                                                     double hi, double span,
                                                     double* dh) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d vspan = _mm256_set1_pd(span);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d s = _mm256_sub_pd(_mm256_max_pd(vhi, vy),
                                    _mm256_min_pd(vlo, vy));
    const __m256d acc = _mm256_add_pd(_mm256_loadu_pd(dh + i),
                                      _mm256_sub_pd(s, vspan));
    _mm256_storeu_pd(dh + i, acc);
  }
  span_delta_scalar(y + i, n - i, lo, hi, span, dh + i);
}

__attribute__((target("avx2"))) void span_delta_init_avx2(
    const double* y, std::size_t n, double lo, double hi, double span,
    double* dh) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d vspan = _mm256_set1_pd(span);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d s = _mm256_sub_pd(_mm256_max_pd(vhi, vy),
                                    _mm256_min_pd(vlo, vy));
    _mm256_storeu_pd(dh + i, _mm256_sub_pd(s, vspan));
  }
  span_delta_init_scalar(y + i, n - i, lo, hi, span, dh + i);
}

__attribute__((target("avx2"))) void cost_combine_avx2(
    const double* y, const double* dh, std::size_t n, double yc, double alpha,
    double beta, double* out) {
  const __m256d vyc = _mm256_set1_pd(yc);
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      0x7fffffffffffffffLL));
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d disp =
        _mm256_and_pd(_mm256_sub_pd(_mm256_loadu_pd(y + i), vyc), abs_mask);
    const __m256d term = _mm256_add_pd(
        _mm256_mul_pd(va, disp), _mm256_mul_pd(vb, _mm256_loadu_pd(dh + i)));
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i), term));
  }
  cost_combine_scalar(y + i, dh + i, n - i, yc, alpha, beta, out + i);
}

__attribute__((target("avx2"))) void gather_dist2_avx2(
    const double* cx, const double* cy, const int* idx, std::size_t n,
    double px, double py, double* d2) {
  const __m256d vpx = _mm256_set1_pd(px);
  const __m256d vpy = _mm256_set1_pd(py);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    // Element loads instead of vgatherdpd: same lane values, no dependence
    // on the (slow, and -Wmaybe-uninitialized-prone) hardware gather.
    const __m256d gx = _mm256_set_pd(cx[idx[j + 3]], cx[idx[j + 2]],
                                     cx[idx[j + 1]], cx[idx[j]]);
    const __m256d gy = _mm256_set_pd(cy[idx[j + 3]], cy[idx[j + 2]],
                                     cy[idx[j + 1]], cy[idx[j]]);
    const __m256d dx = _mm256_sub_pd(gx, vpx);
    const __m256d dy = _mm256_sub_pd(gy, vpy);
    _mm256_storeu_pd(
        d2 + j,
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
  }
  gather_dist2_scalar(cx, cy, idx + j, n - j, px, py, d2 + j);
}

__attribute__((target("avx2"))) void cg_update_avx2(
    const double* p, const double* ap, const double* d, std::size_t n,
    double alpha, double d_floor, double* x, double* r, double* z, double* rr,
    double* rz) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vfloor = _mm256_set1_pd(d_floor);
  double sum_rr = 0.0, sum_rz = 0.0;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(x + i,
                     _mm256_add_pd(_mm256_loadu_pd(x + i),
                                   _mm256_mul_pd(va, _mm256_loadu_pd(p + i))));
    const __m256d vr = _mm256_sub_pd(
        _mm256_loadu_pd(r + i), _mm256_mul_pd(va, _mm256_loadu_pd(ap + i)));
    const __m256d vd = _mm256_loadu_pd(d + i);
    // Lanes at or below the floor keep r; their quotient is discarded.
    const __m256d vz = _mm256_blendv_pd(vr, _mm256_div_pd(vr, vd),
                                        _mm256_cmp_pd(vd, vfloor, _CMP_GT_OQ));
    _mm256_storeu_pd(r + i, vr);
    _mm256_storeu_pd(z + i, vz);
    // Products per lane, sums in index order.
    alignas(32) double prr[kLanes];
    alignas(32) double prz[kLanes];
    _mm256_store_pd(prr, _mm256_mul_pd(vr, vr));
    _mm256_store_pd(prz, _mm256_mul_pd(vr, vz));
    for (int j = 0; j < kLanes; ++j) {
      sum_rr = sum_rr + prr[j];
      sum_rz = sum_rz + prz[j];
    }
  }
  cg_update_from(i, p, ap, d, n, alpha, d_floor, x, r, z, sum_rr, sum_rz);
  *rr = sum_rr;
  *rz = sum_rz;
}

__attribute__((target("avx2"))) void cg_direction_avx2(const double* z,
                                                       const double* d,
                                                       std::size_t n,
                                                       double beta, double* p,
                                                       double* ap) {
  const __m256d vb = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d vp = _mm256_add_pd(
        _mm256_loadu_pd(z + i), _mm256_mul_pd(vb, _mm256_loadu_pd(p + i)));
    _mm256_storeu_pd(p + i, vp);
    _mm256_storeu_pd(ap + i, _mm256_mul_pd(_mm256_loadu_pd(d + i), vp));
  }
  cg_direction_scalar(z + i, d + i, n - i, beta, p + i, ap + i);
}

constexpr Kernels kAvx2Kernels{span_delta_avx2,  span_delta_init_avx2,
                               cost_combine_avx2, gather_dist2_avx2,
                               cg_update_avx2,    cg_direction_avx2};

#endif  // MTH_SIMD_X86

Tier resolve_active_tier() {
  const Tier best = detect_tier();
  const char* env = std::getenv("MTH_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0) return best;
  if (std::strcmp(env, "scalar") == 0) return Tier::Scalar;
  if (std::strcmp(env, "avx2") == 0 && best >= Tier::Avx2) return Tier::Avx2;
  return best;  // unknown or unsupported request: best supported tier
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::Avx2:
      return "avx2";
    case Tier::Scalar:
      break;
  }
  return "scalar";
}

Tier detect_tier() {
#if MTH_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Tier::Avx2;
#endif
  return Tier::Scalar;
}

Tier active_tier() {
  static const Tier tier = resolve_active_tier();
  return tier;
}

const Kernels& kernels_for(Tier tier) {
#if MTH_SIMD_X86
  if (tier == Tier::Avx2) return kAvx2Kernels;
#else
  (void)tier;
#endif
  return kScalarKernels;
}

const Kernels& kernels() {
  static const Kernels& k = kernels_for(active_tier());
  return k;
}

}  // namespace mth::simd
