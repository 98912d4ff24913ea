// mth::simd kernel layer tests: the determinism contract (simd.hpp) says
// every tier returns bit-identical buffers. These tests compare the scalar
// tier against the best tier the host supports, in-process via kernels_for,
// over sizes that cover empty / sub-lane / exact-lane / tail shapes. On a
// scalar-only host the comparisons are trivially true and the suite still
// pins the scalar semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "mth/util/rng.hpp"
#include "mth/util/simd.hpp"

namespace mth::simd {
namespace {

const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5, 7, 8, 9, 31, 100};

std::vector<double> random_ints_as_doubles(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = static_cast<double>(rng.uniform_int(-1000000, 1000000));
  }
  return v;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Simd, TierNamesAndDetection) {
  EXPECT_STREQ(tier_name(Tier::Scalar), "scalar");
  EXPECT_STREQ(tier_name(Tier::Avx2), "avx2");
  EXPECT_GE(detect_tier(), Tier::Scalar);
  // The active tier can never exceed what the CPU supports, and the default
  // table is exactly the active tier's table.
  EXPECT_LE(active_tier(), detect_tier());
  EXPECT_EQ(&kernels(), &kernels_for(active_tier()));
}

TEST(Simd, SpanDeltaTiersBitIdentical) {
  const Kernels& scalar = kernels_for(Tier::Scalar);
  const Kernels& best = kernels_for(detect_tier());
  Rng rng(42);
  for (const std::size_t n : kSizes) {
    const std::vector<double> y = random_ints_as_doubles(n, rng);
    std::vector<double> a = random_ints_as_doubles(n, rng);
    std::vector<double> b = a;
    const double lo = -500.0, hi = 700.0, span = 1200.0;
    scalar.span_delta(y.data(), n, lo, hi, span, a.data());
    best.span_delta(y.data(), n, lo, hi, span, b.data());
    EXPECT_TRUE(bit_equal(a, b)) << "n=" << n;

    std::vector<double> ia(n, -1.0), ib(n, 7.0);  // init overwrites garbage
    scalar.span_delta_init(y.data(), n, lo, hi, span, ia.data());
    best.span_delta_init(y.data(), n, lo, hi, span, ib.data());
    EXPECT_TRUE(bit_equal(ia, ib)) << "n=" << n;

    // init == fill(0) + accumulate, the substitution build_cost_matrix makes.
    std::vector<double> z(n, 0.0);
    scalar.span_delta(y.data(), n, lo, hi, span, z.data());
    EXPECT_TRUE(bit_equal(ia, z)) << "n=" << n;
  }
}

TEST(Simd, CostCombineTiersBitIdentical) {
  const Kernels& scalar = kernels_for(Tier::Scalar);
  const Kernels& best = kernels_for(detect_tier());
  Rng rng(43);
  for (const std::size_t n : kSizes) {
    const std::vector<double> y = random_ints_as_doubles(n, rng);
    const std::vector<double> dh = random_ints_as_doubles(n, rng);
    std::vector<double> a = random_ints_as_doubles(n, rng);
    std::vector<double> b = a;
    scalar.cost_combine(y.data(), dh.data(), n, 123.0, 0.75, 0.25, a.data());
    best.cost_combine(y.data(), dh.data(), n, 123.0, 0.75, 0.25, b.data());
    EXPECT_TRUE(bit_equal(a, b)) << "n=" << n;
  }
}

TEST(Simd, GatherDist2TiersBitIdentical) {
  const Kernels& scalar = kernels_for(Tier::Scalar);
  const Kernels& best = kernels_for(detect_tier());
  Rng rng(44);
  const std::vector<double> cx = random_ints_as_doubles(256, rng);
  const std::vector<double> cy = random_ints_as_doubles(256, rng);
  for (const std::size_t n : kSizes) {
    std::vector<int> idx(n);
    for (std::size_t j = 0; j < n; ++j) {
      idx[j] = static_cast<int>(rng.uniform_int(0, 255));
    }
    std::vector<double> a(n), b(n);
    scalar.gather_dist2(cx.data(), cy.data(), idx.data(), n, 10.0, -20.0,
                        a.data());
    best.gather_dist2(cx.data(), cy.data(), idx.data(), n, 10.0, -20.0,
                      b.data());
    EXPECT_TRUE(bit_equal(a, b)) << "n=" << n;
  }
}

// --- the global placer's CG passes ------------------------------------------

/// The placer's fused CG update loop as it ran before it became a kernel:
/// the reference both tiers must match.
void cg_update_reference(const std::vector<double>& p,
                         const std::vector<double>& ap,
                         const std::vector<double>& d, double alpha,
                         std::vector<double>& x, std::vector<double>& r,
                         std::vector<double>& z, double& rn, double& rz_new) {
  rn = 0.0;
  rz_new = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += alpha * p[i];
    const double ri = r[i] - alpha * ap[i];
    const double zi = d[i] > 1e-12 ? ri / d[i] : ri;
    r[i] = ri;
    z[i] = zi;
    rn = rn + ri * ri;
    rz_new = rz_new + ri * zi;
  }
}

/// Reals of mixed magnitude with +0.0 and -0.0 entries.
std::vector<double> cg_values(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
        x = 0.0;
        break;
      case 1:
        x = -0.0;
        break;
      case 2:
        x = rng.uniform_real(-1e-6, 1e-6);
        break;
      default:
        x = rng.uniform_real(-1e4, 1e4);
    }
  }
  return v;
}

/// CG diagonals: above the 1e-12 floor, at it, below it, zero, negative and
/// subnormal, so both sides of the preconditioner's test are taken.
std::vector<double> cg_diagonals(std::size_t n, Rng& rng) {
  std::vector<double> d(n);
  for (double& x : d) {
    switch (rng.uniform_int(0, 11)) {
      case 0:
        x = 1e-12;
        break;
      case 1:
        x = std::nextafter(1e-12, 1.0);
        break;
      case 2:
        x = 3e-13;
        break;
      case 3:
        x = rng.uniform01() < 0.5 ? 0.0 : -0.0;
        break;
      case 4:
        x = -rng.uniform_real(1e-3, 50.0);
        break;
      case 5:
        x = rng.uniform01() < 0.5 ? std::numeric_limits<double>::denorm_min() : 1e-310;
        break;
      default:
        x = rng.uniform_real(1e-3, 50.0);
    }
  }
  return d;
}

bool same_bits(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

/// Sum of a[i] * b[i] in index order from +0.0: a plain serial loop.
double in_order_dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s = s + a[i] * b[i];
  return s;
}

TEST(Simd, CgUpdateTiersBitIdentical) {
  const Kernels& scalar = kernels_for(Tier::Scalar);
  const Kernels& best = kernels_for(detect_tier());
  Rng rng(45);
  int floored = 0;
  for (std::size_t n = 0; n <= 1000; ++n) {
    const std::vector<double> p = cg_values(n, rng);
    const std::vector<double> ap = cg_values(n, rng);
    const std::vector<double> d = cg_diagonals(n, rng);
    const std::vector<double> x0 = cg_values(n, rng);
    const std::vector<double> r0 = cg_values(n, rng);
    const double alpha = n % 13 == 0 ? 0.0 : rng.uniform_real(-2.0, 2.0);
    for (const double di : d) floored += di > 1e-12 ? 0 : 1;

    std::vector<double> wx = x0, wr = r0, wz(n);
    double wrr = 0.0, wrz = 0.0;
    cg_update_reference(p, ap, d, alpha, wx, wr, wz, wrr, wrz);
    for (const Kernels* k : {&scalar, &best}) {
      std::vector<double> x = x0, r = r0, z(n, 7.0);  // z is written, not read
      double rr = -1.0, rz = -1.0;
      k->cg_update(p.data(), ap.data(), d.data(), n, alpha, 1e-12, x.data(),
                   r.data(), z.data(), &rr, &rz);
      const char* tier = k == &scalar ? "scalar" : "best";
      ASSERT_TRUE(bit_equal(x, wx)) << tier << " n=" << n;
      ASSERT_TRUE(bit_equal(r, wr)) << tier << " n=" << n;
      ASSERT_TRUE(bit_equal(z, wz)) << tier << " n=" << n;
      ASSERT_TRUE(same_bits(rr, wrr)) << tier << " n=" << n;
      ASSERT_TRUE(same_bits(rz, wrz)) << tier << " n=" << n;
      // Both sums are a plain in-order loop over the written r and z.
      ASSERT_TRUE(same_bits(rr, in_order_dot(r, r))) << tier << " n=" << n;
      ASSERT_TRUE(same_bits(rz, in_order_dot(r, z))) << tier << " n=" << n;
    }
  }
  EXPECT_GT(floored, 30000);
  // An empty pass writes +0.0 sums.
  double rr = -1.0, rz = -1.0;
  best.cg_update(nullptr, nullptr, nullptr, 0, 1.0, 1e-12, nullptr, nullptr,
                 nullptr, &rr, &rz);
  EXPECT_TRUE(same_bits(rr, 0.0));
  EXPECT_TRUE(same_bits(rz, 0.0));
}

TEST(Simd, CgDirectionTiersBitIdentical) {
  const Kernels& scalar = kernels_for(Tier::Scalar);
  const Kernels& best = kernels_for(detect_tier());
  Rng rng(46);
  for (std::size_t n = 0; n <= 1000; ++n) {
    const std::vector<double> z = cg_values(n, rng);
    const std::vector<double> d = cg_diagonals(n, rng);
    const std::vector<double> p0 = cg_values(n, rng);
    const double betas[] = {0.0, -0.0, rng.uniform_real(0.0, 1.5)};
    const double beta = betas[n % 3];
    std::vector<double> wp = p0, wap(n);
    for (std::size_t i = 0; i < n; ++i) {  // the loop it replaced
      const double pi = z[i] + beta * wp[i];
      wp[i] = pi;
      wap[i] = d[i] * pi;
    }
    for (const Kernels* k : {&scalar, &best}) {
      std::vector<double> p = p0, ap(n, 7.0);  // ap is written, not read
      k->cg_direction(z.data(), d.data(), n, beta, p.data(), ap.data());
      const char* tier = k == &scalar ? "scalar" : "best";
      ASSERT_TRUE(bit_equal(p, wp)) << tier << " n=" << n;
      ASSERT_TRUE(bit_equal(ap, wap)) << tier << " n=" << n;
    }
  }
}

TEST(Simd, ArgminMergeKeepsFirstMinimum) {
  // Strict `<` means an equal later candidate never displaces the winner —
  // the same tie-break a serial scan over candidates has always had.
  const std::vector<double> d2 = {5.0, 2.0, 2.0, 9.0};
  const std::vector<int> idx = {10, 11, 12, 13};
  double best_d2 = 1e300;
  int best = -1;
  argmin_merge(d2.data(), idx.data(), d2.size(), best_d2, best);
  EXPECT_EQ(best, 11);
  EXPECT_EQ(best_d2, 2.0);

  // In/out semantics: a better prior winner survives an entire block.
  best_d2 = 1.0;
  best = 99;
  argmin_merge(d2.data(), idx.data(), d2.size(), best_d2, best);
  EXPECT_EQ(best, 99);
  EXPECT_EQ(best_d2, 1.0);

  argmin_merge(d2.data(), idx.data(), 0, best_d2, best);  // empty block
  EXPECT_EQ(best, 99);
}

}  // namespace
}  // namespace mth::simd
